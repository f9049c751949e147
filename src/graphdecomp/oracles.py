"""Brute-force reference implementations used to certify the fast algorithms.

Everything here is deliberately independent of the decomposition machinery:
plain all-pairs BFS, exhaustive 4-tuple scans, textbook Brandes with exact
rationals, and the blossom engine for matching.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod

from .blossom import Matching, maximum_matching
from .distances import UNREACHABLE, Distance, Half
from .graph import DisconnectedGraphError, Graph, GraphError, bfs_distances

#: 4-tuple hyperbolicity scan is O(n^4); refuse larger inputs unless asked.
HYPERBOLICITY_CAP = 40

_SCIPY_BFS_THRESHOLD = 2000


def oracle_eccentricities(g: Graph) -> list[Distance]:
    """ecc(v) = max_u dist(u, v); all UNREACHABLE when disconnected."""
    if g.n == 0:
        return []
    if g.n > _SCIPY_BFS_THRESHOLD:
        return _eccentricities_scipy(g)
    out: list[Distance] = []
    for v in range(g.n):
        dist = bfs_distances(g, v)
        out.append(max(dist))
    return out


def _eccentricities_scipy(g: Graph) -> list[Distance]:
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    rows = np.fromiter((u for u in range(g.n) for _ in g.adj[u]),
                       dtype=np.int32, count=2 * g.m)
    cols = np.fromiter((w for u in range(g.n) for w in g.adj[u]),
                       dtype=np.int32, count=2 * g.m)
    mat = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                     shape=(g.n, g.n))
    out: list[Distance] = [0] * g.n
    batch = 512
    for start in range(0, g.n, batch):
        idx = list(range(start, min(start + batch, g.n)))
        dist = dijkstra(mat, indices=idx, unweighted=True)
        worst = dist.max(axis=1)
        for i, v in enumerate(idx):
            out[v] = UNREACHABLE if np.isinf(worst[i]) else int(worst[i])
    return out


def oracle_diameter(g: Graph) -> Distance:
    eccs = oracle_eccentricities(g)
    return max(eccs) if eccs else 0


def oracle_cycle_stats(g: Graph) -> tuple[int, Distance]:
    """(triangle count, girth); girth is UNREACHABLE for forests."""
    triangles = 0
    for u in range(g.n):
        row = g.adj[u]
        nbrs = set(row)
        for v in row:
            if v > u:
                triangles += sum(1 for w in g.adj[v] if w > v and w in nbrs)
    girth: Distance = UNREACHABLE
    for s in range(g.n):
        girth = min(girth, _shortest_cycle_through_bfs(g, s))
    return triangles, girth


def _shortest_cycle_through_bfs(g: Graph, s: int) -> Distance:
    # Min over non-tree edges of d[u] + d[w] + 1; exact once minimized
    # over all BFS roots.
    from collections import deque

    dist = [-1] * g.n
    parent = [-1] * g.n
    dist[s] = 0
    queue = deque([s])
    best: Distance = UNREACHABLE
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                parent[w] = u
                queue.append(w)
            elif w != parent[u] and u < w:
                best = min(best, dist[u] + dist[w] + 1)
    return best


def oracle_hyperbolicity(g: Graph, cap: int = HYPERBOLICITY_CAP) -> Half:
    """Exact four-point hyperbolicity by scanning all 4-tuples."""
    if not g.is_connected():
        raise DisconnectedGraphError("hyperbolicity requires a connected graph")
    if g.n > cap:
        raise GraphError(
            f"4-tuple scan capped at n <= {cap} (raise cap explicitly to override)")
    if g.n < 4:
        return Half(0)
    dist = [bfs_distances(g, v) for v in range(g.n)]
    best = 0
    for u, v, x, y in combinations(range(g.n), 4):
        s1 = dist[u][v] + dist[x][y]
        s2 = dist[u][x] + dist[v][y]
        s3 = dist[u][y] + dist[v][x]
        if s1 < s2:
            s1, s2 = s2, s1
        if s1 < s3:
            s1, s3 = s3, s1
        diff = s1 - max(s2, s3)
        if diff > best:
            best = diff
    return Half(best)


def oracle_betweenness(g: Graph) -> list[Fraction]:
    """Exact Brandes over unordered pairs, with rational accumulation.

    The classic recurrence delta(v) = sum over successors w of v in the
    BFS DAG of sigma(v)/sigma(w) (1 + delta(w)), with one Fraction per
    (source, vertex): each w sends its share (1 + delta(w)) / sigma(w) to
    its predecessors as a reduced numerator and denominator, and v adds
    the shares it receives over the product of their distinct denominators
    before one Fraction normalises sigma(v) times that sum.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("betweenness requires a connected graph")
    from collections import deque

    bc = [Fraction(0)] * g.n
    for s in range(g.n):
        sigma = [0] * g.n
        dist = [-1] * g.n
        preds: list[list[int]] = [[] for _ in range(g.n)]
        sigma[s] = 1
        dist[s] = 0
        order = []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in g.adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
                    preds[w].append(u)
        inbox: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for w in reversed(order):
            num, den = 0, 1             # delta(w) = num / den
            if inbox[w]:
                den = prod({q for _, q in inbox[w]})
                num = sigma[w] * sum(p * (den // q) for p, q in inbox[w])
            share = Fraction(den + num, sigma[w] * den)
            for u in preds[w]:
                inbox[u].append((share.numerator, share.denominator))
            if w != s and num:
                bc[w] += Fraction(num, den)
    return [x / 2 for x in bc]


def oracle_maximum_matching(g: Graph) -> Matching:
    """Maximum matching via the blossom engine (certified optimum)."""
    return maximum_matching(g)


def exhaustive_maximum_matching_size(g: Graph) -> int:
    """Exponential search over edge subsets; only for tiny test graphs."""
    edges = list(g.edges())

    def rec(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        best = rec(i + 1, used)
        u, v = edges[i]
        bit = (1 << u) | (1 << v)
        if not used & bit:
            best = max(best, 1 + rec(i + 1, used | bit))
        return best

    return rec(0, 0)
