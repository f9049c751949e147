"""Betweenness centrality through split trees, with exact rationals.

Components carry two vertex weights: a path-cost multiplicity alpha (the
size of the boundary a marker stands for) and an endpoint mass beta (how
many real vertices it stands for).  Alpha sums over a slot's neighbours,
so it is ``SplitTree.spread(1, None)``.  Beta comes from one children-first
pass over the subtree masses: a component's parent slot carries n less the
real vertices below it, and its partner slot carries those.  Each component
is then solved locally under those weights: complete and star components
in closed form, prime components by weighted Brandes, summed in integers
over a per-source common denominator (``weighted_component_bc``).  It runs
no BFS: the orders and shortest-path DAGs are read off the component's
distance table (``Graph.distances``), the one ecc and hyp read.  A short
component runs all sources at once, one float64 matrix product per
distance level, while every value stays below 2^53 and so exact; a long
one, or one whose values grow past 2^53, runs one pass per source in
Python ints.  The local values go into one flat list, and
``spread(0, local)`` sends the corrective terms: a slot passes on its local
value plus the terms arriving at its neighbours.  What it sends through a
real vertex's slot is that vertex's betweenness, the plain Brandes value on
the original graph.  The twin-class and modular methods only build a
kernel tree (``split_tree_from_nd``, ``split_tree_from_modular``) and run
the same scheme over it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm

from .distances import UNREACHABLE
from .graph import DisconnectedGraphError, Graph
from .modular import MDNode, NDPartition
from .splitdec import (COMPLETE, STAR, SplitComponent, SplitTree,
                       split_tree_from_modular, split_tree_from_nd)


# float64 holds every integer below 2^53 exactly
_EXACT = 2 ** 53
# most multiply-adds in one level product; OpenBLAS runs products below
# 10^6 on one thread, and a block of sources has at most this / k^2 rows
_PRODUCT_MADDS = 10**6 - 1


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

    Two routines compute these sums, with the same Fractions as result.
    ``_brandes_by_source`` runs the recurrences above one source at a time
    in Python ints; it is exact at any size.  ``_brandes_by_level`` runs
    them for all sources at once, one distance level d at a time.  With
    L_d the pairs (s, v) at distance d and M the adjacency matrix:

        sigma on L_d   = ((sigma on L_{d-1}) @ M) * alpha(v),
        A_s on L_d     = (term on L_{d+1}) @ M,
        term on L_d    = alpha(w) (beta(w) D_s/sigma_s(w) + A_s(w)),

    each masked to its level, and the sums per v of beta(s)sigma_s(v)
    A_s(v) over the sources s that share one D_s.  It holds the values in
    float64 and is exact while each stays below 2^53, checked as follows.
    The inputs are integers, 1 <= alpha < 2^53 and 0 <= beta < 2^53, so
    exact in float64, and an operation on exact integers is exact when its
    true result is below 2^53.  If one is not, take the first such
    operation: its true result is above 2^53 and, rounding being monotone,
    so is its computed one.  Every later operation on that value adds a
    non-negative value or multiplies by alpha >= 1 on the way to a value
    that is kept, or multiplies by 0 (a level mask, or beta = 0) and drops
    it; a dropped value is finite, below k 2^160, so the product is 0.  A
    kept value is a level of sigma, a D_s (an lcm in Python ints of exact
    sigma values; D_s / sigma_s(w) is then an exact integer quotient), a
    term, or a per-D_s sum; the A_s and the products beta(s)sigma_s(v)
    A_s(v) are terms of those sums.  So if every kept value is below 2^53,
    every operation was exact.  The checks run level by level, sigma and
    D_s before the dependency phase, and a value out of range ends the
    attempt with None.  The per-D_s sums are scaled by D/D_s in Python
    ints.

    A level runs one product per block of sources, of at most 10^6
    multiply-adds, so that OpenBLAS runs it on one thread.  The temporaries
    are four k x k arrays, the int32 distances, the adjacency matrix, sigma
    and at most one row of sums per source (28 bytes per pair, 3.5 times
    the 8-byte pointers of the distance table), and at most seven float64
    block arrays of at most min(k^2, 10^6 / k) entries.

    The level path costs about diam k^3 multiply-adds and the loop about
    k (k + m) Python steps, so the level path runs when
    diam k^2 <= 800 (k + m), measured on cycles: all sources at once took
    1.24 ms on C_48 against 1.56 ms for the loop, and 3.8 ms on C_64
    against 2.6 ms.  Disconnected input (UNREACHABLE in the table), k <= 2
    and k >= 1000 take the loop, as does a component whose values leave the
    float range.
    """
    table = g.distances()
    if 2 < g.n and g.n * g.n <= _PRODUCT_MADDS:
        # UNREACHABLE compares above every int, so row 0 holds it exactly
        # when the input is disconnected, which takes the per-source loop;
        # ecc(0) <= diam, so a long component is turned away without a
        # scan of the whole table
        ecc = max(table[0])
        if ecc is not UNREACHABLE and _levels_pay(g.n, g.m, ecc):
            import numpy as np

            dist = np.array(table, dtype=np.int32)
            diam = int(dist.max())
            if _levels_pay(g.n, g.m, diam):
                out = _brandes_by_level(dist, alpha, beta, diam)
                if out is not None:
                    return out
    return _brandes_by_source(g, alpha, beta)


def _brandes_by_source(g: Graph, alpha: list[int],
                       beta: list[int]) -> list[Fraction]:
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


def _levels_pay(size: int, m: int, diam: int) -> bool:
    """Whether the level products beat the per-source loop."""
    return diam * size * size <= 800 * (size + m)


def _brandes_by_level(dist, alpha: list[int], beta: list[int],
                      diam: int) -> list[Fraction] | None:
    """``weighted_component_bc`` for all sources at once, from the distance
    table as an int array, or None where a value leaves the exact float64
    range."""
    import numpy as np

    if max(alpha) >= _EXACT or max(beta) >= _EXACT:
        return None
    size = len(dist)
    adj = (dist == 1).astype(float)
    a = np.array(alpha, dtype=float)
    b = np.array(beta, dtype=float)
    rows = _PRODUCT_MADDS // (size * size)
    blocks = [slice(lo, lo + rows) for lo in range(0, size, rows)]
    # forward: sigma on L_d from sigma on L_{d-1}, one product per level;
    # then D_s, so that a block out of range ends the attempt early
    sigma = np.diag(a)
    d_s = []
    for blk in blocks:
        level = sigma[blk].copy()
        for d in range(1, diam + 1):
            level = level @ adj
            level *= a
            level *= dist[blk] == d
            if level.max() >= _EXACT:
                return None
            sigma[blk] += level
        for row in sigma[blk].astype(np.int64).tolist():
            d_s.append(lcm(*row))
            if d_s[-1] >= _EXACT:
                return None
    dens = np.array(d_s, dtype=float)
    groups = sorted(set(d_s))
    rank = {d: i for i, d in enumerate(groups)}
    owner = [rank[d] for d in d_s]
    # backward: A_s on L_d from the terms on L_{d+1}; then the rows of
    # beta(s) sigma_s(v) A_s(v), summed per D_s
    sums = np.zeros((len(groups), size))
    for blk in blocks:
        block, sig = dist[blk], sigma[blk]
        base = dens[blk, None] / sig
        base *= b
        acc = np.zeros(sig.shape)
        for d in range(diam, 1, -1):
            term = base + acc
            term *= a
            term *= block == d
            if term.max() >= _EXACT:
                return None
            term = term @ adj
            term *= block == d - 1
            acc += term
        acc *= sig
        acc *= b[blk, None]
        member = np.zeros((len(groups), len(acc)))
        member[owner[blk], range(len(acc))] = 1
        sums += member @ acc
    if sums.max() >= _EXACT:
        return None
    denom = lcm(*groups)
    num = [0] * size
    for d_g, row in zip(groups, sums.astype(np.int64).tolist()):
        scale = denom // d_g
        num = [x + scale * y for x, y in zip(num, row)]
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
    return betweenness_over_tree(g, split_tree_from_nd(g, ndp))


def betweenness_modular(g: Graph, md: MDNode) -> list[Fraction]:
    _require_connected(g)
    return betweenness_over_tree(g, split_tree_from_modular(g, md))
