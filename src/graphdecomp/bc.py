"""Betweenness centrality through split trees, with exact rationals.

Components carry two vertex weights: a path-cost multiplicity alpha (the
size of the boundary a marker stands for) and an endpoint mass beta (how
many real vertices it stands for).  Both come from one rule given to
``SplitTreeIndex.reroot``: alpha sums over a slot's neighbours, beta over
all other slots.  Each component is then solved locally under those
weights: complete and star components in closed form, prime components
by one Brandes pass per source, summed in integers over a per-source
common denominator (``weighted_component_bc``).  A second rule sends the
corrective terms: a slot passes on its local value plus the terms
arriving at its neighbours.  A real vertex's betweenness is that same
sum, the plain Brandes value on the original graph.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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
    classic unordered-pair Brandes values.  With sigma(x, y) the sum of the
    path costs over all shortest x-y paths:

        bc(v) = 1/alpha(v)^2 * sum over unordered {s, t}, v strictly on
                a shortest s-t path, of
                beta(s)beta(t) sigma(s,v)sigma(v,t) / sigma(s,t).

    One Brandes pass per source s computes it in integers.  sigma is
    symmetric, so each term is symmetric in s and t, and the sum over
    ordered pairs (s, t) is twice the sum above.  Fix s, write sigma_s(u)
    for sigma(s, u) (from one BFS; sigma_s(s) = alpha(s)), and let
    B_s(v) = sum of beta(t)sigma(v,t)/sigma_s(t) over the t with v
    strictly on a shortest s-t path.  Each such shortest v-t path leaves v
    to a successor w of v in the BFS DAG of s, hence

        B_s(v) = alpha(v) * sum over successors w of
                 (beta(w)alpha(w)/sigma_s(w) + B_s(w)).

    With D_s the lcm of all sigma_s(u), A_s(v) = D_s B_s(v)/alpha(v) obeys

        A_s(v) = sum over successors w of
                 alpha(w) (beta(w) D_s/sigma_s(w) + A_s(w)),

    so A_s is an integer: sigma_s(w) divides D_s.  The ordered pairs
    starting at s add beta(s)sigma_s(v)B_s(v) = beta(s)sigma_s(v)alpha(v)
    A_s(v)/D_s to v.  Over D, the lcm of all D_s, and halving the ordered
    sum:

        bc(v) = sum over s != v of beta(s)sigma_s(v)A_s(v)(D/D_s)
                / (2 alpha(v) D),

    one Fraction per vertex in place of one per (s, v, t) triple.
    """
    size = len(adj)
    num = [0] * size        # numerators over denom
    denom = 1               # D, the lcm of the D_s so far
    for s in range(size):
        dist = [-1] * size
        dist[s] = 0
        sigma = [0] * size
        sigma[s] = 1
        preds: list[list[int]] = [[] for _ in range(size)]
        order = [s]
        for u in order:
            sigma[u] *= alpha[u]
            su = sigma[u]
            du = dist[u] + 1
            for w in adj[u]:
                if dist[w] == -1:
                    dist[w] = du
                    order.append(w)
                if dist[w] == du:
                    sigma[w] += su
                    preds[w].append(u)
        d_s = lcm(*[sigma[u] for u in order])
        acc = [0] * size    # A_s
        for w in order[:0:-1]:
            term = alpha[w] * (beta[w] * d_s // sigma[w] + acc[w])
            for v in preds[w]:
                acc[v] += term
        if denom % d_s:
            grown = lcm(denom, d_s)
            scale = grown // denom
            num = [x * scale for x in num]
            denom = grown
        scale = beta[s] * (denom // d_s)
        for v in order[1:]:
            if acc[v]:
                num[v] += scale * sigma[v] * acc[v]
    return [Fraction(num[v], 2 * alpha[v] * denom) for v in range(size)]


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
