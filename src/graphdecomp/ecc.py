"""Eccentricities through split trees, modular quotients, and class dispatch.

Over a split tree, eccentricities supply one rule to
``SplitTree.reroot``.  The value behind a marker is the eccentricity
of that marker in the graph on its side, less one; a real vertex carries
0.  Slot t of a component sends out the maximum over the other slots s of
dist(t, s) + value(s), less one, and a real vertex's eccentricity is that
maximum itself: one more than what reroot sends through its slot.
Complete components need only the top two values, stars the top two leaf
values plus the center, prime components the row of each slot in the
component's distance table (``Graph.distances``), which hyp and bc read
too.  The modular variants solve only the quotient, by the row maxima of
its table: inner graphs carry a universal marker vertex, so their diameter
is at most two and a per-vertex universality test settles them.
"""

from __future__ import annotations

from operator import add

from .classify import (DISC_COCYCLE, DISC_CYCLE, SPIKED_PK, SPIKED_PK_BAR,
                       SPIKED_QK, SPIKED_QK_BAR, THICK_SPIDER, THIN_SPIDER,
                       classify_prime_graph)
from .distances import Distance
from .graph import DisconnectedGraphError, Graph
from .modular import MDNode, PRIME, SERIES
from .splitdec import COMPLETE, STAR, SplitTree


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise DisconnectedGraphError("eccentricities need a connected graph")


def eccentricities_split(g: Graph, st: SplitTree) -> list[Distance]:
    _require_connected(g)
    if g.n == 1:
        return [0]
    comps = st.components

    def rule(c: int, vals: list[int], targets: list[int]) -> list[int]:
        """max over s != t of dist(t, s) + vals[s], less one."""
        comp = comps[c]
        if comp.kind == COMPLETE:
            x, y = _top2(range(len(vals)), vals)
            return [vals[y] if t == x else vals[x] for t in targets]
        if comp.kind == STAR:
            r = comp.center
            x, y = _top2((s for s in range(len(vals)) if s != r), vals)
            at_r = vals[r]
            return [vals[x] if t == r
                    else max(at_r, 1 + vals[y if t == x else x])
                    for t in targets]
        table = comp.graph.distances()
        out = []
        for t in targets:
            sums = list(map(add, table[t], vals))
            sums[t] = 0     # below every other sum, whose distance is >= 1
            out.append(max(sums) - 1)
        return out

    _, out = st.reroot(0, rule)
    return [val + 1 for val in out]


def _top2(indices, e) -> tuple[int, int]:
    """Indices of the largest and second largest values (-1 if absent)."""
    x = y = -1
    for v in indices:
        if x == -1 or e[v] > e[x]:
            x, y = v, x
        elif y == -1 or e[v] > e[y]:
            y = v
    return x, y


# -------------------------------------------------------------------------
# modular kernelization


def _combine_modular(g: Graph, md: MDNode, quotient_ecc) -> list[Distance]:
    """Eccentricities from those of the modules in the root quotient.

    A series quotient is complete, so every module has eccentricity 1 there
    and no quotient graph is needed; a prime root's quotient goes to
    ``quotient_ecc``.
    """
    modules = [c.vertices for c in md.children]
    if md.kind == SERIES:
        ecc_q = [1] * len(modules)
    elif md.kind == PRIME:
        ecc_q = quotient_ecc(md.quotient)
    else:
        raise DisconnectedGraphError("parallel root means a disconnected graph")
    out: list[Distance] = [0] * g.n
    masks = g.masks()
    for i, mod in enumerate(modules):
        mod_mask = 0
        for v in mod:
            mod_mask |= 1 << v
        for v in mod:
            if len(mod) == 1:
                inner = 1
            else:
                inner = 1 if (mod_mask & ~masks[v] & ~(1 << v)) == 0 else 2
            out[v] = max(ecc_q[i], inner)
    return out


def eccentricities_modular(g: Graph, md: MDNode) -> list[Distance]:
    _require_connected(g)
    if md.is_leaf():
        return [0]
    return _combine_modular(g, md, _row_maxima)


def _row_maxima(quotient: Graph) -> list[Distance]:
    return [max(row) for row in quotient.distances()]


def eccentricities_qq3(g: Graph, md: MDNode) -> list[Distance]:
    _require_connected(g)
    if md.is_leaf():
        return [0]
    return _combine_modular(g, md, _quotient_ecc_by_class)


def _quotient_ecc_by_class(quotient: Graph) -> list[int]:
    k = quotient.n
    cls = classify_prime_graph(quotient, check_prime=False)
    ecc = [2] * k
    if cls.tag == THIN_SPIDER:
        for v in cls.witness["S"]:
            ecc[v] = 3
        return ecc
    if cls.tag == THICK_SPIDER or cls.tag == DISC_COCYCLE:
        return ecc
    if cls.tag == DISC_CYCLE:
        return [len(cls.witness["cycle_order"]) // 2] * k
    if cls.tag == SPIKED_PK:
        roles = cls.witness["roles"]
        kk = cls.witness["k"]
        for i in range(1, kk + 1):
            ecc[roles[f"v{i}"]] = max(i - 1, kk - i)
        for extra in ("x", "y"):
            if extra in roles:
                ecc[roles[extra]] = kk - 2
        return ecc
    if cls.tag == SPIKED_PK_BAR:
        return [1 if quotient.degree(v) == k - 1 else 2 for v in range(k)]
    if cls.tag == SPIKED_QK:
        roles = cls.witness["roles"]
        for name in ("v1", "v3", "v5"):
            ecc[roles[name]] = 3
        return ecc
    if cls.tag == SPIKED_QK_BAR:
        roles = cls.witness["roles"]
        for name in ("v2", "v4"):
            ecc[roles[name]] = 3
        return ecc
    return _row_maxima(quotient)
