"""Clique-width expressions: AST, parsing, evaluation, and the cycle DPs.

An expression builds a labeled graph with four operations: introduce a
vertex with a label, disjoint union, join two label classes, rename a
label.  The triangle-counting and girth dynamic programs run over an
irredundant expression (every join adds only absent edges), maintaining
per-label-pair tables:

  sizes[p]   vertices currently labeled p
  mtab[p][q] edges with one end labeled p and the other labeled q
  ntab[p][q] walks of length two (not necessarily induced paths) with
             ends labeled p and q
  dtab[p][q] minimum length of a path between the classes; the diagonal
             also admits closed walks, which is harmless because a closed
             walk that is not a path certifies an equally short cycle

Grammar (whitespace-insensitive):  expr := "v(" INT ")" | "(" expr "+" expr ")"
| "eta(" INT "," INT "," expr ")" | "rho(" INT "," INT "," expr ")".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .distances import UNREACHABLE, Distance
from .graph import Graph, build_graph


class KExprError(ValueError):
    pass


class RedundantExpressionError(KExprError):
    """A join touched a label pair that already carried an edge."""


@dataclass(frozen=True)
class Intro:
    label: int


@dataclass(frozen=True)
class Union:
    left: "KExpression"
    right: "KExpression"


@dataclass(frozen=True)
class Join:
    i: int
    j: int
    sub: "KExpression"


@dataclass(frozen=True)
class Rename:
    i: int
    j: int
    sub: "KExpression"


KExpression = Intro | Union | Join | Rename


def validate_kexpr(expr: KExpression) -> None:
    for node in iter_postorder(expr):
        if isinstance(node, Intro):
            if node.label < 1:
                raise KExprError("labels are positive integers")
        elif isinstance(node, (Join, Rename)):
            if node.i == node.j:
                op = "eta" if isinstance(node, Join) else "rho"
                raise KExprError(f"{op}({node.i},{node.j},...) requires distinct labels")
            if node.i < 1 or node.j < 1:
                raise KExprError("labels are positive integers")


def iter_postorder(expr: KExpression):
    stack = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        stack.append((node, True))
        if isinstance(node, Union):
            stack.append((node.right, False))
            stack.append((node.left, False))
        elif isinstance(node, (Join, Rename)):
            stack.append((node.sub, False))


def max_label(expr: KExpression) -> int:
    out = 0
    for node in iter_postorder(expr):
        if isinstance(node, Intro):
            out = max(out, node.label)
        elif isinstance(node, (Join, Rename)):
            out = max(out, node.i, node.j)
    return out


# -------------------------------------------------------------------------
# text form


def serialize_kexpr(expr: KExpression) -> str:
    parts: list[str] = []
    # explicit stack of nodes and literal text still to emit, so that deep
    # expressions do not hit the recursion limit
    stack: list = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, Intro):
            parts.append(f"v({node.label})")
        elif isinstance(node, Union):
            parts.append("(")
            stack += (")", node.right, "+", node.left)
        else:
            op = "eta" if isinstance(node, Join) else "rho"
            parts.append(f"{op}({node.i},{node.j},")
            stack += (")", node.sub)
    return "".join(parts)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise KExprError(f"parse error at position {self.pos}: {message}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str) -> None:
        # no token starts with whitespace, so skip it only on a miss
        if not self.text.startswith(token, self.pos):
            self.skip_ws()
            if not self.text.startswith(token, self.pos):
                self.error(f"expected {token!r}")
        self.pos += len(token)

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        # ASCII only: str.isdigit also admits digits that int() rejects
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def parse_expr(self) -> KExpression:
        # iterative descent: ``pending`` holds the open unions (left operand
        # or None) and the open eta/rho headers, innermost last
        pending: list = []
        while True:
            c = self.peek()
            if c == "(":
                self.expect("(")
                pending.append(None)
                continue
            if c in ("e", "r"):
                name = "eta" if c == "e" else "rho"
                self.expect(name)
                self.expect("(")
                i = self.parse_int()
                self.expect(",")
                j = self.parse_int()
                self.expect(",")
                pending.append((name, i, j))
                continue
            if c != "v":
                self.error("expected 'v', '(', 'eta' or 'rho'")
            self.expect("v")
            self.expect("(")
            label = self.parse_int()
            self.expect(")")
            if label < 1:
                self.error("labels are positive integers")
            expr: KExpression = Intro(label)
            while pending:
                top = pending[-1]
                if top is None:             # left operand of a union done
                    self.expect("+")
                    pending[-1] = expr
                    break
                pending.pop()
                if isinstance(top, tuple):
                    name, i, j = top
                    self.expect(")")
                    if i == j:
                        self.error(f"{name} requires two distinct labels")
                    if i < 1 or j < 1:
                        self.error("labels are positive integers")
                    expr = (Join if name == "eta" else Rename)(i, j, expr)
                else:                       # right operand of a union done
                    self.expect(")")
                    expr = Union(top, expr)
            else:
                return expr


def parse_kexpr(text: str) -> KExpression:
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text.rstrip()):
        parser.error("trailing input after expression")
    return expr


# -------------------------------------------------------------------------
# evaluation


@dataclass
class LabeledGraph:
    graph: Graph
    labels: list[int]      # per vertex, vertices numbered in intro order


def eval_kexpr(expr: KExpression) -> LabeledGraph:
    validate_kexpr(expr)
    counter = 0
    stack: list = []
    # postorder evaluation with an explicit value stack: each value is
    # (vertex list, label dict, adjacency-set dict)
    for node in iter_postorder(expr):
        if isinstance(node, Intro):
            v = counter
            counter += 1
            stack.append(([v], {v: node.label}, {v: set()}))
        elif isinstance(node, Union):
            rv, rl, ra = stack.pop()
            lv, ll, la = stack.pop()
            ll.update(rl)
            la.update(ra)
            stack.append((lv + rv, ll, la))
        elif isinstance(node, Join):
            verts, labels, adj = stack.pop()
            vi = [v for v in verts if labels[v] == node.i]
            vj = [v for v in verts if labels[v] == node.j]
            for u in vi:
                row = adj[u]
                for w in vj:
                    row.add(w)
                    adj[w].add(u)
            stack.append((verts, labels, adj))
        else:
            verts, labels, adj = stack.pop()
            for v in verts:
                if labels[v] == node.i:
                    labels[v] = node.j
            stack.append((verts, labels, adj))
    verts, labels, adj = stack.pop()
    edges = [(u, w) for u in range(counter) for w in adj[u] if u < w]
    return LabeledGraph(build_graph(counter, edges),
                        [labels[v] for v in range(counter)])


def verify_irredundant(expr: KExpression):
    """(True, None) or (False, first redundant Join in evaluation order)."""
    validate_kexpr(expr)
    try:
        _CycleDP(expr, girth=False)
    except RedundantExpressionError as exc:
        return False, exc.args[1]
    return True, None


# -------------------------------------------------------------------------
# dynamic programs over irredundant expressions


class _State:
    __slots__ = ("sizes", "mtab", "ntab", "dtab", "tcount", "mu",
                 "vlabels", "reach")

    def __init__(self, k: int):
        kk = k + 1
        self.sizes = [0] * kk
        self.mtab = [[0] * kk for _ in range(kk)]
        self.ntab = [[0] * kk for _ in range(kk)]
        self.dtab = [[UNREACHABLE] * kk for _ in range(kk)]
        self.tcount = 0
        self.mu = UNREACHABLE
        self.vlabels: dict[int, int] = {}       # vertex id -> current label
        self.reach: list[dict[int, int]] = [dict() for _ in range(kk)]
        # reach[p][v] = min length of a nonempty path from class p to v;
        # backs the endpoint-distinct diagonal candidates of the girth DP.


class _CycleDP:
    """Single left-to-right run of the pair-table dynamic programs.

    The d-table diagonal admits closed walks, but only candidates backed by
    a genuine walk are ever recorded: a diagonal entry may under-represent
    a path length only when a cycle at most that long is already counted
    in the running girth.  Compositions that would traverse one join edge
    twice in a row (the degenerate case of the two-consecutive-join
    correction) are replaced by two-endpoint candidates drawn from the
    class-to-vertex distance rows.
    """

    def __init__(self, expr: KExpression, girth: bool, trace=None):
        self.k = max(1, max_label(expr))
        self.girth = girth
        self.trace = trace
        self.counter = 0
        state = self._run(expr)
        self.sizes = state.sizes
        self.mtab = state.mtab
        self.ntab = state.ntab
        self.dtab = state.dtab
        self.tcount = state.tcount
        self.mu = state.mu

    def _run(self, expr: KExpression) -> "_State":
        stack: list[_State] = []
        for node in iter_postorder(expr):
            if isinstance(node, Intro):
                st = _State(self.k)
                st.sizes[node.label] += 1
                if self.girth:
                    st.vlabels[self.counter] = node.label
                    self.counter += 1
                stack.append(st)
            elif isinstance(node, Union):
                s2 = stack.pop()
                s1 = stack.pop()
                kk = self.k + 1
                for p in range(kk):
                    s1.sizes[p] += s2.sizes[p]
                    for q in range(kk):
                        s1.mtab[p][q] += s2.mtab[p][q]
                        s1.ntab[p][q] += s2.ntab[p][q]
                        s1.dtab[p][q] = min(s1.dtab[p][q], s2.dtab[p][q])
                s1.tcount += s2.tcount
                s1.mu = min(s1.mu, s2.mu)
                if self.girth:
                    s1.vlabels.update(s2.vlabels)
                    for p in range(kk):
                        s1.reach[p].update(s2.reach[p])
                stack.append(s1)
            elif isinstance(node, Rename):
                stack.append(self._rename(node, stack.pop()))
            else:
                stack.append(self._join(node, stack.pop()))
        return stack.pop()

    def _rename(self, expr: Rename, st: "_State") -> "_State":
        i, j = expr.i, expr.j
        kk = self.k + 1
        mtab, ntab, dtab = st.mtab, st.ntab, st.dtab
        for tab, zero in ((mtab, 0), (ntab, 0)):
            tab[j][j] = tab[j][j] + tab[i][j] + tab[i][i]
            for p in range(kk):
                if p in (i, j):
                    continue
                merged = tab[p][j] + tab[p][i]
                tab[p][j] = merged
                tab[j][p] = merged
            for p in range(kk):
                tab[i][p] = zero
                tab[p][i] = zero
        dtab[j][j] = min(dtab[j][j], dtab[i][j], dtab[i][i])
        for p in range(kk):
            if p in (i, j):
                continue
            merged = min(dtab[p][j], dtab[p][i])
            dtab[p][j] = merged
            dtab[j][p] = merged
        for p in range(kk):
            dtab[i][p] = UNREACHABLE
            dtab[p][i] = UNREACHABLE
        st.sizes[j] += st.sizes[i]
        st.sizes[i] = 0
        if self.girth:
            for v, lab in st.vlabels.items():
                if lab == i:
                    st.vlabels[v] = j
            row_i, row_j = st.reach[i], st.reach[j]
            for v, dist in row_i.items():
                if dist < row_j.get(v, UNREACHABLE):
                    row_j[v] = dist
            st.reach[i] = {}
        return st

    def _two_endpoint_sum(self, st: "_State", p: int, c: int):
        """Sum of the two smallest class-p distances to distinct vertices of c."""
        best1 = best2 = UNREACHABLE
        row = st.reach[p]
        for v, lab in st.vlabels.items():
            if lab != c:
                continue
            dist = row.get(v, UNREACHABLE)
            if dist < best1:
                best1, best2 = dist, best1
            elif dist < best2:
                best2 = dist
        return best1 + best2

    def _join(self, expr: Join, st: "_State") -> "_State":
        i, j = expr.i, expr.j
        sizes, mtab, ntab, dtab = st.sizes, st.mtab, st.ntab, st.dtab
        if mtab[i][j] != 0:
            raise RedundantExpressionError(
                f"join eta({i},{j}) applied to classes already carrying "
                f"{mtab[i][j]} edge(s)", expr)
        si, sj = sizes[i], sizes[j]
        if si == 0 or sj == 0:
            return st
        kk = self.k + 1

        st.tcount += sj * mtab[i][i] + si * mtab[j][j] + ntab[i][j]

        if self.girth:
            st.mu = min(st.mu, 1 + dtab[i][j], 2 + dtab[i][i], 2 + dtab[j][j])
            if si >= 2 and sj >= 2:
                st.mu = min(st.mu, 4)
            old = [row[:] for row in dtab]
            dii, dij, djj = dtab[i][i], dtab[i][j], dtab[j][j]
            dtab[i][j] = dtab[j][i] = 1
            dtab[i][i] = min(2, dii) if si >= 2 else min(dii, 1 + dij, 2 + djj)
            dtab[j][j] = min(2, djj) if sj >= 2 else min(djj, 1 + dij, 2 + dii)
            for q in range(kk):
                if q in (i, j):
                    continue
                new_iq = min(old[i][q], 1 + old[j][q])
                new_jq = min(old[j][q], 1 + old[i][q])
                dtab[i][q] = dtab[q][i] = new_iq
                dtab[j][q] = dtab[q][j] = new_jq
            for p in range(kk):
                if p in (i, j):
                    continue
                for q in range(p + 1, kk):
                    if q in (i, j):
                        continue
                    val = min(dtab[p][q],
                              dtab[p][i] + 1 + dtab[j][q],
                              dtab[p][j] + 1 + dtab[i][q])
                    dtab[p][q] = dtab[q][p] = val
            for p in range(kk):
                if p in (i, j):
                    continue
                dtab[p][p] = min(dtab[p][p],
                                 old[p][i] + 1 + old[j][p],
                                 old[p][j] + 1 + old[i][p],
                                 self._two_endpoint_sum(st, p, j) + 2,
                                 self._two_endpoint_sum(st, p, i) + 2)
            self._update_reach(st, i, j)

        old_m_i = list(mtab[i])
        old_m_j = list(mtab[j])
        ntab[i][i] += si * (si - 1) // 2 * sj
        ntab[j][j] += sj * (sj - 1) // 2 * si
        nij = ntab[i][j] + 2 * sj * old_m_i[i] + 2 * si * old_m_j[j]
        ntab[i][j] = ntab[j][i] = nij
        for q in range(kk):
            if q in (i, j):
                continue
            niq = ntab[i][q] + si * old_m_j[q]
            njq = ntab[j][q] + sj * old_m_i[q]
            ntab[i][q] = ntab[q][i] = niq
            ntab[j][q] = ntab[q][j] = njq
        mtab[i][j] = mtab[j][i] = si * sj

        if self.trace is not None:
            self.trace.append({
                "op": ("eta", i, j),
                "sizes": list(sizes),
                "m": [row[:] for row in mtab],
                "n": [row[:] for row in ntab],
                "d": [row[:] for row in dtab],
            })
        return st

    def _update_reach(self, st: "_State", i: int, j: int) -> None:
        # split a crossing path at its last join edge: the suffix is an
        # old path from the far class (or the endpoint itself, length 0)
        kk = self.k + 1
        dtab = st.dtab
        old_rows = [dict(st.reach[p]) for p in range(kk)]
        for p in range(kk):
            row = st.reach[p]
            via_i = 0 if p == i else dtab[p][i]
            via_j = 0 if p == j else dtab[p][j]
            for v, lab in st.vlabels.items():
                cand = UNREACHABLE
                if lab == j:
                    cand = via_i + 1
                elif lab == i:
                    cand = via_j + 1
                suf_j = old_rows[j].get(v, UNREACHABLE)
                suf_i = old_rows[i].get(v, UNREACHABLE)
                cand = min(cand, via_i + 1 + suf_j, via_j + 1 + suf_i)
                if cand < row.get(v, UNREACHABLE):
                    row[v] = cand


def dp_triangle_count(expr: KExpression) -> int:
    """Triangle count of the evaluated graph; rejects redundant expressions."""
    validate_kexpr(expr)
    return _CycleDP(expr, girth=False).tcount


def dp_girth(expr: KExpression, trace=None) -> Distance:
    """Girth of the evaluated graph (UNREACHABLE for forests)."""
    validate_kexpr(expr)
    return _CycleDP(expr, girth=True, trace=trace).mu


# -------------------------------------------------------------------------
# construction from the modular decomposition


def kexpr_from_modular(g: Graph, md) -> KExpression:
    """Expression evaluating to ``g`` using at most max(2, mw(G)) labels.

    Every subexpression leaves its whole vertex set labeled 1.  Series
    nodes fold children through label 2; a prime node of order p lifts
    child t to label t+1, adds the quotient joins, then collapses all
    labels back to 1.  Joins always touch fresh pairs, so the result is
    irredundant.  Intro order follows leaf order of the decomposition
    tree, so ``eval_kexpr`` reproduces ``g`` up to that vertex renaming
    (see ``kexpr_vertex_order``).
    """
    from .modular import LEAF, PARALLEL, SERIES

    def rec(node) -> KExpression:
        if node.kind == LEAF:
            return Intro(1)
        if node.kind == PARALLEL:
            expr = rec(node.children[0])
            for child in node.children[1:]:
                expr = Union(expr, rec(child))
            return expr
        if node.kind == SERIES:
            expr = rec(node.children[0])
            for child in node.children[1:]:
                expr = Rename(2, 1, Join(1, 2, Union(expr, Rename(1, 2, rec(child)))))
            return expr
        exprs = [rec(child) for child in node.children]
        expr = exprs[0]
        for t, child_expr in enumerate(exprs[1:], start=2):
            expr = Union(expr, _lift(child_expr, t))
        for a, b in node.quotient.edges():
            expr = Join(a + 1, b + 1, expr)
        for t in range(2, len(exprs) + 1):
            expr = Rename(t, 1, expr)
        return expr

    return rec(md)


def _lift(expr: KExpression, label: int) -> KExpression:
    return Rename(1, label, expr) if label != 1 else expr


def kexpr_vertex_order(md) -> list[int]:
    """Original vertex ids in the intro order used by kexpr_from_modular."""
    from .modular import LEAF

    order: list[int] = []

    def rec(node) -> None:
        if node.kind == LEAF:
            order.append(node.vertex)
            return
        for child in node.children:
            rec(child)

    rec(md)
    return order


# -------------------------------------------------------------------------
# random irredundant expressions (test and check drivers)


def random_irredundant_kexpr(rng: random.Random, k: int, n: int,
                             extra_ops: int | None = None) -> KExpression:
    """Random well-formed irredundant expression with n leaves, labels <= k.

    Grown bottom-up over a pool of fragments; joins are drawn only from
    label pairs with no current edge between them, which is tracked with
    the same pair tables the DPs use.
    """
    if k < 2 or n < 1:
        raise KExprError("need k >= 2 and n >= 1")

    class Frag:
        __slots__ = ("expr", "sizes", "medges")

        def __init__(self, expr, sizes, medges):
            self.expr = expr
            self.sizes = sizes
            self.medges = medges

    def leaf() -> "Frag":
        lab = rng.randint(1, k)
        sizes = [0] * (k + 1)
        sizes[lab] = 1
        return Frag(Intro(lab), sizes, {})

    pool = [leaf() for _ in range(n)]
    ops = extra_ops if extra_ops is not None else 3 * n

    def try_join(f: Frag) -> bool:
        pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)
                 if f.sizes[i] and f.sizes[j] and f.medges.get((i, j), 0) == 0]
        if not pairs:
            return False
        i, j = pairs[rng.randrange(len(pairs))]
        f.expr = Join(i, j, f.expr)
        f.medges[(i, j)] = f.sizes[i] * f.sizes[j]
        return True

    def do_rename(f: Frag) -> None:
        i = rng.randint(1, k)
        j = rng.randint(1, k)
        if i == j:
            return
        f.expr = Rename(i, j, f.expr)
        for (a, b), cnt in list(f.medges.items()):
            if i in (a, b):
                del f.medges[(a, b)]
                na, nb = (j if a == i else a), (j if b == i else b)
                if na == nb:
                    continue
                key = (min(na, nb), max(na, nb))
                f.medges[key] = f.medges.get(key, 0) + cnt
        f.sizes[j] += f.sizes[i]
        f.sizes[i] = 0

    for _ in range(ops):
        if len(pool) >= 2 and rng.random() < 0.45:
            a = pool.pop(rng.randrange(len(pool)))
            b = pool.pop(rng.randrange(len(pool)))
            sizes = [x + y for x, y in zip(a.sizes, b.sizes)]
            medges = dict(a.medges)
            for key, cnt in b.medges.items():
                medges[key] = medges.get(key, 0) + cnt
            pool.append(Frag(Union(a.expr, b.expr), sizes, medges))
        else:
            f = pool[rng.randrange(len(pool))]
            if rng.random() < 0.7:
                if not try_join(f):
                    do_rename(f)
            else:
                do_rename(f)

    while len(pool) >= 2:
        a = pool.pop()
        b = pool.pop()
        sizes = [x + y for x, y in zip(a.sizes, b.sizes)]
        medges = dict(a.medges)
        for key, cnt in b.medges.items():
            medges[key] = medges.get(key, 0) + cnt
        f = Frag(Union(a.expr, b.expr), sizes, medges)
        if rng.random() < 0.8:
            try_join(f)
        pool.append(f)
    return pool[0].expr
