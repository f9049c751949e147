"""Betweenness centrality through split trees, with exact rationals.

Components carry two vertex weights: a path-cost multiplicity alpha (the
size of the boundary a marker stands for) and an endpoint mass beta (how
many real vertices it stands for).  Both come from one rule given to
``SplitTreeIndex.reroot``: alpha sums over a slot's neighbours, beta over
all other slots.  Each component is then solved locally under those
weights, and a second rule sends the corrective terms: a slot passes on
its local value plus the terms arriving at its neighbours.  A real
vertex's betweenness is that same sum, the plain Brandes value on the
original graph.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .graph import DisconnectedGraphError, Graph
from .modular import NDPartition
from .splitdec import (COMPLETE, STAR, SplitComponent, SplitTree,
                       SplitTreeIndex, neighbor_sums)


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise DisconnectedGraphError("betweenness needs a connected graph")


def weighted_component_bc(adj: list[list[int]], alpha: list[int],
                          beta: list[int]) -> list[Fraction]:
    """Exact weighted betweenness inside one small graph.

    Path costs multiply the alpha of every vertex on the path (endpoints
    included); pair (s, t) contributes beta(s)beta(t) times the cost share
    of paths through v, scaled by 1/alpha(v).  All-ones weights give the
    classic unordered-pair Brandes values.
    """
    size = len(adj)
    dist = [[-1] * size for _ in range(size)]
    sigma = [[0] * size for _ in range(size)]
    for v in range(size):
        dv = dist[v]
        dv[v] = 0
        order = [v]
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dv[w] == -1:
                    dv[w] = dv[u] + 1
                    queue.append(w)
                    order.append(w)
        sv = sigma[v]
        sv[v] = alpha[v]
        for u in order[1:]:
            total = 0
            du = dv[u]
            for w in adj[u]:
                if dv[w] == du - 1:
                    total += sv[w]
            sv[u] = alpha[u] * total
    out = [Fraction(0)] * size
    for v in range(size):
        acc = Fraction(0)
        for s in range(size):
            if s == v:
                continue
            dsv = dist[s][v]
            for t in range(s + 1, size):
                if t == v:
                    continue
                if dsv + dist[v][t] != dist[s][t]:
                    continue
                acc += Fraction(beta[s] * beta[t] * sigma[s][v] * sigma[v][t],
                                sigma[s][t])
        # sigma(s,v)sigma(v,t) carries alpha(v) twice: once converting to a
        # through-v path cost, once more for the definitional prefactor
        out[v] = acc / (alpha[v] * alpha[v])
    return out


def _component_bc_vector(comp: SplitComponent, alpha: list[int],
                         beta: list[int]) -> list[int | Fraction]:
    size = len(comp.labels)
    if comp.kind == COMPLETE:
        return [0] * size
    if comp.kind == STAR:
        r = comp.center
        total = sum(beta[v] for v in range(size) if v != r)
        acc = sum(beta[v] * (total - beta[v]) for v in range(size) if v != r)
        out: list[int | Fraction] = [0] * size
        out[r] = Fraction(acc, 2 * alpha[r])
        return out
    return weighted_component_bc(comp.adj, alpha, beta)


def betweenness_over_tree(g: Graph, st: SplitTree) -> list[Fraction]:
    if g.n == 1:
        return [Fraction(0)]
    idx = SplitTreeIndex(st)
    comps = st.components

    def weights(c: int, vals: list[tuple[int, int]],
                targets: list[int]) -> list[tuple[int, int]]:
        """(alpha, beta) behind each target: boundary size and mass."""
        alphas = neighbor_sums(comps[c], [a for a, _ in vals], targets)
        mass = sum(b for _, b in vals)
        return [(a, mass - vals[t][1]) for a, t in zip(alphas, targets)]

    _, _, weighted = idx.reroot((1, 1), weights)
    local = []
    for c, comp in enumerate(comps):
        vals = weighted(c)
        local.append(_component_bc_vector(comp, [a for a, _ in vals],
                                          [b for _, b in vals]))

    def corrective(c: int, vals: list, targets: list[int]) -> list:
        """Local value plus the corrective terms behind the neighbours."""
        own = local[c]
        sums = neighbor_sums(comps[c], vals, targets)
        return [x + own[t] if own[t] else x for x, t in zip(sums, targets)]

    _, _, arriving = idx.reroot(0, corrective)
    out: list[Fraction] = [Fraction(0)] * g.n
    for c, comp in enumerate(comps):
        reals = [li for li, lab in enumerate(comp.labels) if lab >= 0]
        for li, val in zip(reals, corrective(c, arriving(c), reals)):
            if val:
                out[comp.labels[li]] = val
    return out


def betweenness_split(g: Graph, st: SplitTree) -> list[Fraction]:
    _require_connected(g)
    return betweenness_over_tree(g, st)


def betweenness_nd(g: Graph, ndp: NDPartition) -> list[Fraction]:
    from .hyp import split_tree_from_nd

    _require_connected(g)
    if g.n == 1:
        return [Fraction(0)]
    st = split_tree_from_nd(g, ndp)
    return betweenness_over_tree(g, st)
