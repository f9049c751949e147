"""Betweenness centrality through split trees, with exact rationals.

Components carry two vertex weights: a path-cost multiplicity alpha (the
size of the boundary a marker stands for) and an endpoint mass beta (how
many real vertices it stands for).  Alpha sums over a slot's neighbours,
so it is ``SplitTree.spread(1, None)``.  Beta comes from one children-first
pass over the subtree masses: a component's parent slot carries n less the
real vertices below it, and its partner slot carries those.  Each component
is then solved locally under those weights: complete and star components
in closed form, prime components by one Brandes pass per source, summed
in integers over a per-source common denominator
(``weighted_component_bc``).  A pass runs no BFS: its order and its
shortest-path DAG are read off the component's distance table
(``Graph.distances``), the one ecc and hyp read.  The local values go into
one flat list, and ``spread(0, local)`` sends the corrective terms: a slot
passes on its local value plus the terms arriving at its neighbours.  What
it sends through a real vertex's slot is that vertex's betweenness, the
plain Brandes value on the original graph.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm

from .distances import UNREACHABLE
from .graph import DisconnectedGraphError, Graph
from .modular import NDPartition
from .splitdec import (COMPLETE, STAR, SplitComponent, SplitTree,
                       split_tree_from_nd)


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise DisconnectedGraphError("betweenness needs a connected graph")


def weighted_component_bc(g: Graph, alpha: list[int],
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
    ordered pairs (s, t) is twice the sum above.  Fix s and take the row
    of s in the distance table: sorted by distance it is a BFS order, and
    w is a successor of u in the BFS DAG of s exactly when u and w are
    adjacent and dist(s, w) = dist(s, u) + 1.  Write sigma_s(u) for
    sigma(s, u) (summed along that order; sigma_s(s) = alpha(s)), and let
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
    size, adj = g.n, g.adj
    num = [0] * size        # numerators over denom
    denom = 1               # D, the lcm of the D_s so far
    for s, dist in enumerate(g.distances()):
        order = sorted(range(size), key=dist.__getitem__)
        # vertices of other components sort last and take no part
        del order[bisect_left(order, UNREACHABLE, key=dist.__getitem__):]
        sigma = [0] * size
        sigma[s] = 1
        preds: list[list[int]] = [[] for _ in range(size)]
        for u in order:
            sigma[u] *= alpha[u]
            su = sigma[u]
            du = dist[u] + 1
            for w in adj[u]:
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
    return weighted_component_bc(comp.graph, alpha, beta)


def betweenness_over_tree(g: Graph, st: SplitTree) -> list[Fraction]:
    if g.n == 1:
        return [Fraction(0)]
    alpha, _ = st.spread(1, None)
    r = st.rooting
    lo, land, up_slot = r.lo, r.land, r.up_slot
    # the real vertices behind each slot, from the subtree counts
    beta = [1] * lo[-1]
    for c in reversed(r.order):
        if up_slot[c] >= 0:
            up = lo[c] + up_slot[c]
            below = sum(beta[lo[c]:lo[c + 1]]) - beta[up]
            beta[land[up]] = below
            beta[up] = g.n - below
    own: list[int | Fraction] = []
    for c, comp in enumerate(st.components):
        a, b = lo[c], lo[c + 1]
        own += _component_bc_vector(comp, alpha[a:b], beta[a:b])
    _, out = st.spread(0, own)
    zero = Fraction(0)
    return [x or zero for x in out]


def betweenness_split(g: Graph, st: SplitTree) -> list[Fraction]:
    _require_connected(g)
    return betweenness_over_tree(g, st)


def betweenness_nd(g: Graph, ndp: NDPartition) -> list[Fraction]:
    _require_connected(g)
    if g.n == 1:
        return [Fraction(0)]
    st = split_tree_from_nd(g, ndp)
    return betweenness_over_tree(g, st)
