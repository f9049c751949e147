"""Clique-width expressions: programs, parsing, evaluation, and the cycle DPs.

An expression builds a labeled graph with four operations: introduce a
vertex with a label, disjoint union, join two label classes, rename a
label.  A ``KExpression`` is one immutable program, the operations in
evaluation order on a stack of graphs.  It is checked once, when built
(positive labels, distinct labels in a join or rename, operands for every
operation, one graph left), and keeps its largest label; the readers loop
once over it and check nothing again.  The parser reads the text as one
list of tokens in a single pass; it repeats the label checks only to give
their position in the text.

The triangle-counting and girth dynamic programs run over an irredundant
expression (every join adds only absent edges), maintaining per-label-pair
tables:

  sizes[p]   vertices currently labeled p
  mtab[p][q] edges with one end labeled p and the other labeled q
  ntab[p][q] walks of length two (not necessarily induced paths) with
             ends labeled p and q
  dtab[p][q] minimum length of a path between the classes; the diagonal
             also admits closed walks, which is harmless because a closed
             walk that is not a path certifies an equally short cycle
  top[p][c]  the two smallest distances from class p to distinct vertices
             of class c, each with its vertex (girth only)
  reps[c]    up to two vertices of class c

No state is kept per vertex, so each operation costs a polynomial in the
label count k alone, the number of labels the expression uses (a table
is indexed by a label's rank among them): O(k) for an intro, a rename
and a triangle join, O(k^2) for a union and a girth join, and O(k^2)
once for the tables of a subexpression, which are allocated at its first
edge.  Loops run only over occupied labels (a union's over the classes
its smaller side's edges touch).

Grammar (whitespace-insensitive):  expr := "v(" INT ")" | "(" expr "+" expr ")"
| "eta(" INT "," INT "," expr ")" | "rho(" INT "," INT "," expr ")".
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from .distances import UNREACHABLE, Distance
from .graph import Graph, build_graph


class KExprError(ValueError):
    pass


class RedundantExpressionError(KExprError):
    """A join (kept on ``join``) touched a label pair that had an edge."""

    def __init__(self, message: str, join: "Join"):
        super().__init__(message)
        self.join = join


@dataclass(frozen=True)
class Intro:
    label: int


@dataclass(frozen=True)
class Union:
    pass


@dataclass(frozen=True)
class Join:
    i: int
    j: int
    name = "eta"                    # in the text form


@dataclass(frozen=True)
class Rename:
    i: int
    j: int
    name = "rho"


@dataclass(frozen=True)
class KExpression:
    """A k-expression as a program, checked when built (see above)."""

    ops: tuple
    max_label: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = tuple(self.ops)
        largest = 0
        depth = 0                   # graphs on the stack
        for t, op in enumerate(ops):
            kind = type(op)
            if kind is Intro:
                if op.label < 1:
                    raise KExprError("labels are positive integers")
                largest = max(largest, op.label)
                depth += 1
                continue
            if kind is Union:
                arity = 2
            elif kind is Join or kind is Rename:
                if op.i == op.j:
                    raise KExprError(f"{op.name}({op.i},{op.j},...) requires "
                                     "distinct labels")
                if op.i < 1 or op.j < 1:
                    raise KExprError("labels are positive integers")
                largest = max(largest, op.i, op.j)
                arity = 1
            else:
                raise KExprError(f"operation {t}: {op!r} is not an operation")
            if depth < arity:
                raise KExprError(f"operation {t}: {op!r} lacks operands")
            depth += 1 - arity
        if depth != 1:
            raise KExprError(f"the program leaves {depth} graphs, not one")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "max_label", largest)


def iter_postorder(expr: KExpression):
    return iter(expr.ops)


def max_label(expr: KExpression) -> int:
    return expr.max_label


# -------------------------------------------------------------------------
# text form


def serialize_kexpr(expr: KExpression) -> str:
    # a subexpression's text opens at its first operation, an intro: its
    # part is its own text followed by the openers that precede it,
    # innermost first, and is written reversed; ``stack`` holds the part of
    # each finished subexpression's first intro
    parts: list = []
    stack: list[list[str]] = []
    for op in expr.ops:
        if isinstance(op, Intro):
            stack.append([f"v({op.label})"])
            parts.append(stack[-1])
            continue
        if isinstance(op, Union):
            stack.pop().append("+")
            stack[-1].append("(")
        else:
            stack[-1].append(f"{op.name}({op.i},{op.j},")
        parts.append(")")           # reads the same reversed
    return "".join([text for part in parts for text in reversed(part)])


# a run of ASCII digits, a keyword or any other single non-blank character;
# for a str pattern \s is str.isspace
_TOKEN = re.compile(r"[0-9]+|eta|rho|\S")
# the tokens an expression reads from its first character on, ``int``
# standing for an integer
_SHAPES = {
    "v": (Intro, ("v", "(", int, ")")),
    "e": (Join, (Join.name, "(", int, ",", int, ",")),
    "r": (Rename, (Rename.name, "(", int, ",", int, ",")),
}


def parse_kexpr(text: str) -> KExpression:
    toks = _TOKEN.findall(text)
    toks.append("")                 # the end of the text
    ops: list = []
    # one pass emitting operations in evaluation order: ``pending`` holds
    # the open unions (True once past their '+') and the open eta/rho
    # headers, innermost last
    pending: list = []
    t = 0
    while True:
        tok = toks[t]
        if tok == "(":
            pending.append(False)
            t += 1
            continue
        kind, shape = _SHAPES.get(tok[:1], (None, ()))
        if kind is None:
            raise _parse_error(text, t, "expected 'v', '(', 'eta' or 'rho'")
        ints = []
        for want in shape:
            tok = toks[t]
            if want is int:
                # ASCII only: str.isdigit also admits digits int() rejects
                if not "0" <= tok[:1] <= "9":
                    raise _parse_error(text, t, "expected an integer")
                try:
                    ints.append(int(tok))
                except ValueError:  # more digits than int() converts
                    raise _parse_error(text, t, "integer too long") from None
            elif tok != want:
                raise _parse_error(text, t, f"expected {want!r}")
            t += 1
        if kind is not Intro:
            pending.append((kind, *ints))
            continue
        if ints[0] < 1:
            raise _parse_error(text, t, "labels are positive integers",
                               closed=True)
        ops.append(Intro(ints[0]))
        while pending:
            top = pending[-1]
            want = "+" if top is False else ")"
            if toks[t] != want:
                raise _parse_error(text, t, f"expected {want!r}")
            t += 1
            if top is False:        # left operand of a union done
                pending[-1] = True
                break
            pending.pop()
            if top is True:         # right operand of a union done
                ops.append(Union())
                continue
            kind, i, j = top
            if i == j:
                raise _parse_error(text, t, f"{kind.name} requires two "
                                   "distinct labels", closed=True)
            if i < 1 or j < 1:
                raise _parse_error(text, t, "labels are positive integers",
                                   closed=True)
            ops.append(kind(i, j))
        else:
            if toks[t]:
                raise _parse_error(text, t, "trailing input after expression")
            return KExpression(ops)


def _parse_error(text: str, t: int, message: str,
                 closed: bool = False) -> KExprError:
    """The error at the start of token t (at the end of the text once t is
    past the last token), or just past token t - 1, a ')', when ``closed``."""
    starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
    pos = starts[t - 1] + 1 if closed else starts[t]
    return KExprError(f"parse error at position {pos}: {message}")


# -------------------------------------------------------------------------
# evaluation


@dataclass
class LabeledGraph:
    graph: Graph
    labels: list[int]      # per vertex, vertices numbered in intro order


def eval_kexpr(expr: KExpression) -> LabeledGraph:
    adj: list[set[int]] = []
    # postorder evaluation with an explicit value stack: each value maps a
    # label to its vertices; unions and renames move the shorter list into
    # the longer, so each vertex moves O(log n) times
    stack: list[dict[int, list[int]]] = []
    for op in expr.ops:
        if isinstance(op, Intro):
            stack.append({op.label: [len(adj)]})
            adj.append(set())
        elif isinstance(op, Union):
            right = stack.pop()
            left = stack.pop()
            if len(left) < len(right):
                left, right = right, left
            for label, verts in right.items():
                _add_to_class(left, label, verts)
            stack.append(left)
        elif isinstance(op, Join):
            classes = stack[-1]
            vj = classes.get(op.j, ())
            for u in classes.get(op.i, ()):
                adj[u].update(vj)
                for w in vj:
                    adj[w].add(u)
        else:
            classes = stack[-1]
            verts = classes.pop(op.i, None)
            if verts is not None:
                _add_to_class(classes, op.j, verts)
    n = len(adj)
    labels = [0] * n
    for label, verts in stack.pop().items():
        for v in verts:
            labels[v] = label
    edges = [(u, w) for u in range(n) for w in adj[u] if u < w]
    return LabeledGraph(build_graph(n, edges), labels)


def _add_to_class(classes: dict[int, list[int]], label: int,
                  verts: list[int]) -> None:
    into = classes.get(label)
    if into is None:
        classes[label] = verts
    elif len(into) >= len(verts):
        into.extend(verts)
    else:
        verts.extend(into)
        classes[label] = verts


def verify_irredundant(expr: KExpression):
    """(True, None) or (False, first redundant Join in evaluation order)."""
    try:
        _CycleDP(expr, girth=False)
    except RedundantExpressionError as exc:
        return False, exc.join
    return True, None


# -------------------------------------------------------------------------
# dynamic programs over irredundant expressions


class _State:
    """Pair tables of one subexpression.

    The tables stay None until the first join adds an edge: before that
    every entry is zero, UNREACHABLE or empty.
    """

    __slots__ = ("sizes", "reps", "tcount", "mu", "mtab", "ntab", "dtab",
                 "top")

    def __init__(self, kk: int, label: int, vertex: int):
        self.sizes = [0] * kk
        self.sizes[label] = 1
        # reps[c]: up to two vertices of class c
        self.reps = [()] * kk
        self.reps[label] = (vertex,)
        self.tcount = 0
        self.mu = UNREACHABLE
        self.mtab = self.ntab = self.dtab = self.top = None

    def touched(self) -> list[int]:
        """The classes some edge has an end in."""
        if self.mtab is None:
            return []
        return [p for p, row in enumerate(self.mtab) if any(row)]


def _best2(cands: list) -> tuple:
    """The two smallest (dist, vertex) pairs over distinct vertices."""
    if len(cands) < 2:
        return tuple(cands)
    cands.sort()
    first = cands[0]
    for pair in cands:
        if pair[1] != first[1]:
            return first, pair
    return (first,)


class _CycleDP:
    """Single left-to-right run of the pair-table dynamic programs.

    The d-table diagonal admits closed walks, but only candidates backed by
    a genuine walk are ever recorded: a diagonal entry may under-represent
    a path length only when a cycle at most that long is already counted
    in the running girth.  Compositions that would traverse one join edge
    twice in a row (the degenerate case of the two-consecutive-join
    correction) are replaced by two-endpoint candidates: the sum of the
    two smallest distances from class p to distinct vertices of class c.

    Those come from ``top``.  Let R[p](v) be the length of the shortest
    walk from class p to v found so far (one or more edges), the function
    the two-endpoint candidates are defined on; ``top[p][c]`` holds its two
    smallest values over distinct vertices of class c, each with its
    vertex.  Every operation rewrites R as a pointwise minimum of a few
    old functions plus constants (``reps[c]``, two vertices of c, stands
    for the constant function on c):

      union       R[p] = R1[p] on the left vertices, R2[p] on the right
      rename i>j  R[j] = min(R[j], R[i]), R[i] = nothing; class j absorbs i
      join i,j    R[p](v) = min(R[p](v), via_i + 1 + R[j](v),
                                via_j + 1 + R[i](v), via_i + 1 if v in j,
                                via_j + 1 if v in i)
                  with via_x = 0 for p = x, else the new d[p][x]: split a
                  crossing walk at its last join edge

    Lemma: if f = min_t (a_t + g_t) over finitely many g_t, the two
    smallest values of f over distinct vertices are the two smallest of
    the candidates a_t + g_t(v) over the pairs (g_t(v), v) kept in the
    top two of each g_t, taking per vertex the least candidate.  Each
    candidate is >= f at its vertex, so the candidates' two smallest are
    >= f's.  Conversely let f(v) = a_t + g_t(v).  Either v is kept in
    g_t's top two, giving a candidate f(v) at v, or g_t's top two are two
    vertices other than v with g_t no larger, giving candidates <= f(v)
    at two distinct vertices.  Applied to f's least vertex v1 this gives
    a candidate <= f(v1); applied to v1 and the second vertex v2 it gives
    candidates <= f(v2) at two distinct vertices.  By induction over the
    operations, then, ``top`` holds exactly the two smallest values of R,
    at a cost per operation bounded by the labels alone.

    Every loop runs only over occupied labels (sizes[p] > 0): a label
    without vertices has only zeros and UNREACHABLE in its rows and
    columns, and empty ``top`` entries, and no operation changes that.
    """

    def __init__(self, expr: KExpression, girth: bool):
        # a table is indexed by a label's rank among the labels in use
        used = set()
        for op in expr.ops:
            if isinstance(op, Intro):
                used.add(op.label)
            elif not isinstance(op, Union):
                used.update((op.i, op.j))
        self.rank = {label: r for r, label in enumerate(sorted(used))}
        self.kk = len(used)
        self.girth = girth
        state = self._run(expr)
        self.tcount = state.tcount
        self.mu = state.mu

    def _run(self, expr: KExpression) -> "_State":
        stack: list[_State] = []
        counter = 0
        for op in expr.ops:
            if isinstance(op, Intro):
                stack.append(_State(self.kk, self.rank[op.label], counter))
                counter += 1
            elif isinstance(op, Union):
                s2 = stack.pop()
                stack.append(self._union(stack.pop(), s2))
            elif isinstance(op, Rename):
                stack.append(self._rename(op, stack.pop()))
            else:
                stack.append(self._join(op, stack.pop()))
        return stack.pop()

    def _union(self, s1: "_State", s2: "_State") -> "_State":
        # every table merges symmetrically, so fold the side whose edges
        # touch fewer classes into the other; the rows of an untouched
        # class are zero or empty
        touched1, touched2 = s1.touched(), s2.touched()
        if len(touched1) < len(touched2):
            s1, s2, touched2 = s2, s1, touched1
        for p, size in enumerate(s2.sizes):
            if size:
                s1.sizes[p] += size
                if len(s1.reps[p]) < 2:
                    s1.reps[p] = (s1.reps[p] + s2.reps[p])[:2]
        s1.tcount += s2.tcount
        s1.mu = min(s1.mu, s2.mu)
        for p in touched2:
            m1, m2 = s1.mtab[p], s2.mtab[p]
            n1, n2 = s1.ntab[p], s2.ntab[p]
            for q in touched2:
                m1[q] += m2[q]
                n1[q] += n2[q]
            if self.girth:
                d1, d2 = s1.dtab[p], s2.dtab[p]
                for q in touched2:
                    if d2[q] < d1[q]:
                        d1[q] = d2[q]
                _extend(s1.top[p], s2.top[p], 0, touched2, s1.sizes)
        return s1

    def _rename(self, op: Rename, st: "_State") -> "_State":
        i, j = self.rank[op.i], self.rank[op.j]
        sizes, reps = st.sizes, st.reps
        if not sizes[i]:
            return st
        occ = [p for p, size in enumerate(sizes) if size]
        sizes[j] += sizes[i]
        sizes[i] = 0
        reps[j] = (reps[j] + reps[i])[:2]
        reps[i] = ()
        if st.mtab is None:
            return st
        for tab in (st.mtab, st.ntab):
            tab[j][j] = tab[j][j] + tab[i][j] + tab[i][i]
            for p in occ:
                if p != i and p != j:
                    tab[p][j] = tab[j][p] = tab[p][j] + tab[p][i]
            for p in occ:
                tab[i][p] = tab[p][i] = 0
        if not self.girth:
            return st
        dtab, top = st.dtab, st.top
        dtab[j][j] = min(dtab[j][j], dtab[i][j], dtab[i][i])
        for p in occ:
            if p != i and p != j:
                dtab[p][j] = dtab[j][p] = min(dtab[p][j], dtab[p][i])
        for p in occ:
            dtab[i][p] = dtab[p][i] = UNREACHABLE
        # class j absorbs class i: merge column i into column j, then
        # row i into row j
        for p in occ:
            row = top[p]
            if row[i]:
                row[j] = _best2([*row[j], *row[i]]) if row[j] else row[i]
                row[i] = ()
        _extend(top[j], top[i], 0, occ, sizes)
        top[i] = [()] * self.kk
        return st

    def _join(self, op: Join, st: "_State") -> "_State":
        i, j = self.rank[op.i], self.rank[op.j]
        if st.mtab is not None and st.mtab[i][j] != 0:
            raise RedundantExpressionError(
                f"join eta({op.i},{op.j}) applied to classes already carrying "
                f"{st.mtab[i][j]} edge(s)", op)
        sizes = st.sizes
        si, sj = sizes[i], sizes[j]
        if si == 0 or sj == 0:
            return st
        if st.mtab is None:
            kk = self.kk
            st.mtab = [[0] * kk for _ in range(kk)]
            st.ntab = [[0] * kk for _ in range(kk)]
            if self.girth:
                st.dtab = [[UNREACHABLE] * kk for _ in range(kk)]
                st.top = [[()] * kk for _ in range(kk)]
        mtab, ntab = st.mtab, st.ntab
        occ = [p for p, size in enumerate(sizes) if size]
        others = [p for p in occ if p != i and p != j]

        st.tcount += sj * mtab[i][i] + si * mtab[j][j] + ntab[i][j]

        if self.girth:
            self._join_distances(st, i, j, occ, others)

        old_m_i = list(mtab[i])
        old_m_j = list(mtab[j])
        ntab[i][i] += si * (si - 1) // 2 * sj
        ntab[j][j] += sj * (sj - 1) // 2 * si
        nij = ntab[i][j] + 2 * sj * old_m_i[i] + 2 * si * old_m_j[j]
        ntab[i][j] = ntab[j][i] = nij
        for q in others:
            niq = ntab[i][q] + si * old_m_j[q]
            njq = ntab[j][q] + sj * old_m_i[q]
            ntab[i][q] = ntab[q][i] = niq
            ntab[j][q] = ntab[q][j] = njq
        mtab[i][j] = mtab[j][i] = si * sj
        return st

    def _join_distances(self, st: "_State", i: int, j: int,
                        occ: list[int], others: list[int]) -> None:
        si, sj, dtab, top = st.sizes[i], st.sizes[j], st.dtab, st.top
        old_i, old_j = dtab[i][:], dtab[j][:]
        dii, dij, djj = old_i[i], old_i[j], old_j[j]
        st.mu = min(st.mu, 1 + dij, 2 + dii, 2 + djj)
        if si >= 2 and sj >= 2:
            st.mu = min(st.mu, 4)
        dtab[i][j] = dtab[j][i] = 1
        dtab[i][i] = min(2, dii) if si >= 2 else min(dii, 1 + dij, 2 + djj)
        dtab[j][j] = min(2, djj) if sj >= 2 else min(djj, 1 + dij, 2 + dii)
        # only the classes that reach i or j gain anything
        near = [q for q in others
                if old_i[q] != UNREACHABLE or old_j[q] != UNREACHABLE]
        for q in near:
            dtab[i][q] = dtab[q][i] = min(old_i[q], 1 + old_j[q])
            dtab[j][q] = dtab[q][j] = min(old_j[q], 1 + old_i[q])
        new_i, new_j = dtab[i], dtab[j]
        for a, p in enumerate(near):
            row = dtab[p]
            via_i, via_j = row[i] + 1, row[j] + 1
            for q in near[a + 1:]:
                val = min(via_i + new_j[q], via_j + new_i[q])
                if val < row[q]:
                    row[q] = dtab[q][p] = val
        # a walk from class p that crosses the new edges is split at its
        # last join edge: the suffix is an old walk from the far class, or
        # the endpoint itself (distance 0, which beats every old walk from
        # its own class)
        sizes, reps_i, reps_j = st.sizes, st.reps[i], st.reps[j]
        from_i, from_j = top[i][:], top[j][:]
        from_i[i] = tuple([(0, v) for v in reps_i])
        from_j[j] = tuple([(0, v) for v in reps_j])
        for p in near:
            row = top[p]
            dtab[p][p] = min(dtab[p][p], old_i[p] + 1 + old_j[p],
                             _two_endpoint_sum(row[j]) + 2,
                             _two_endpoint_sum(row[i]) + 2)
            _extend(row, from_j, dtab[p][i] + 1, occ, sizes)
            _extend(row, from_i, dtab[p][j] + 1, occ, sizes)
        # from class i, an old walk from i plus two edges never beats the
        # old walk itself: of those, only the walks i-j-i count
        _extend(top[i], from_j, 1, occ, sizes)
        _extend(top[i], from_i, 2, (i,), sizes)
        _extend(top[j], from_i, 1, occ, sizes)
        _extend(top[j], from_j, 2, (j,), sizes)


def _extend(row: list, src: list, shift: int, cols, sizes: list[int]) -> None:
    """For c in cols, row[c] becomes the top two of row[c] and of src[c]
    shifted by shift."""
    for c in cols:
        pairs = src[c]
        if not pairs:
            continue
        cur = row[c]
        if not cur:
            row[c] = tuple([(shift + d, v) for d, v in pairs])
        # shifted pairs no smaller than a full entry change nothing
        elif not ((len(cur) == 2 or len(cur) == sizes[c])
                  and cur[-1][0] <= shift + pairs[0][0]):
            row[c] = _best2([*cur, *[(shift + d, v) for d, v in pairs]])


def _two_endpoint_sum(pairs: tuple):
    """Sum of the two smallest distances kept in a ``top`` entry."""
    return pairs[0][0] + pairs[1][0] if len(pairs) == 2 else UNREACHABLE


def dp_triangle_count(expr: KExpression) -> int:
    """Triangle count of the evaluated graph; rejects redundant expressions."""
    return _CycleDP(expr, girth=False).tcount


def dp_girth(expr: KExpression) -> Distance:
    """Girth of the evaluated graph (UNREACHABLE for forests)."""
    return _CycleDP(expr, girth=True).mu


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

    # the program in tree postorder: ``stack`` holds the nodes still to
    # expand and the operations that follow a finished child, next on top
    series_step = (Rename(1, 2), Union(), Join(1, 2), Rename(2, 1))
    ops: list = []
    stack: list = [md]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            ops += item
            continue
        if item.kind == LEAF:
            ops.append(Intro(1))
            continue
        children = item.children
        if item.kind == PARALLEL:
            steps = [(Union(),)] * (len(children) - 1)
        elif item.kind == SERIES:
            steps = [series_step] * (len(children) - 1)
        else:
            # child t keeps label t + 1 until the quotient joins are done
            steps = [(Rename(1, t), Union())
                     for t in range(2, len(children) + 1)]
            stack.append(
                tuple(Join(a + 1, b + 1) for a, b in item.quotient.edges())
                + tuple(Rename(t, 1) for t in range(2, len(children) + 1)))
        for child, step in zip(reversed(children), reversed(steps)):
            stack += (step, child)
        stack.append(children[0])
    return KExpression(ops)


def kexpr_vertex_order(md) -> list[int]:
    """Original vertex ids in the intro order used by kexpr_from_modular."""
    from .modular import LEAF

    order: list[int] = []
    stack = [md]
    while stack:
        node = stack.pop()
        if node.kind == LEAF:
            order.append(node.vertex)
        else:
            stack.extend(reversed(node.children))
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

    @dataclass
    class Frag:
        ops: list
        sizes: list[int]
        medges: dict

    def leaf() -> "Frag":
        lab = rng.randint(1, k)
        sizes = [0] * (k + 1)
        sizes[lab] = 1
        return Frag([Intro(lab)], sizes, {})

    pool = [leaf() for _ in range(n)]
    ops = extra_ops if extra_ops is not None else 3 * n

    def union(a: Frag, b: Frag) -> Frag:
        a.ops += b.ops
        a.ops.append(Union())
        a.sizes = [x + y for x, y in zip(a.sizes, b.sizes)]
        for key, cnt in b.medges.items():
            a.medges[key] = a.medges.get(key, 0) + cnt
        return a

    def try_join(f: Frag) -> bool:
        pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)
                 if f.sizes[i] and f.sizes[j] and f.medges.get((i, j), 0) == 0]
        if not pairs:
            return False
        i, j = pairs[rng.randrange(len(pairs))]
        f.ops.append(Join(i, j))
        f.medges[(i, j)] = f.sizes[i] * f.sizes[j]
        return True

    def do_rename(f: Frag) -> None:
        i = rng.randint(1, k)
        j = rng.randint(1, k)
        if i == j:
            return
        f.ops.append(Rename(i, j))
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
            pool.append(union(a, b))
        else:
            f = pool[rng.randrange(len(pool))]
            if rng.random() < 0.7:
                if not try_join(f):
                    do_rename(f)
            else:
                do_rename(f)

    while len(pool) >= 2:
        a = pool.pop()
        f = union(a, pool.pop())
        if rng.random() < 0.8:
            try_join(f)
        pool.append(f)
    return KExpression(pool[0].ops)
