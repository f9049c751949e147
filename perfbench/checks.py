"""Correctness checks, made apart from the package.

References come from scipy (BFS distances), numpy (four-point
hyperbolicity, triangle counts) and networkx (betweenness, matching size,
girth), computed from the edge list the generator produced, or from
``refs.json`` where they are too slow for a run.  Checks of the large
distance-hereditary graphs are properties every correct answer has.
Nothing is compared with stored output of the package.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from graphdecomp import UNREACHABLE

DH_SOURCES = 8          # BFS sources sampled per dh-split-large graph
BC_TOLERANCE = 1e-9
LIVE_MATCHING_MAX_N = 200


def adjacency(n: int, edges: np.ndarray) -> sp.csr_matrix:
    ones = np.ones(len(edges), dtype=np.int8)
    a = sp.coo_matrix((ones, (edges[:, 0], edges[:, 1])), shape=(n, n))
    return (a + a.T).tocsr()


def nx_graph(n: int, edges: np.ndarray) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges.tolist())
    return g


def bfs_distances(n: int, edges: np.ndarray, sources=None) -> np.ndarray:
    d = shortest_path(adjacency(n, edges), method="D", unweighted=True,
                      indices=sources)
    return d.astype(np.int64)


def four_point_twice(d: np.ndarray) -> int:
    """Twice the Gromov hyperbolicity, by the four-point condition.

    The value of a quadruple is symmetric in its four points and zero when
    two coincide, so x runs over all points and y only over later ones.
    """
    d = d.astype(np.int32)
    best = 0
    for x in range(len(d) - 1):
        dx = d[x]
        dy = d[x + 1:]
        s1 = dx[x + 1:, None, None] + d[None, :, :]     # d(x,y) + d(z,w)
        s2 = dx[None, :, None] + dy[:, None, :]         # d(x,z) + d(y,w)
        s3 = dx[None, None, :] + dy[:, :, None]         # d(x,w) + d(y,z)
        hi = np.maximum(np.maximum(s1, s2), s3)
        lo = np.minimum(np.minimum(s1, s2), s3)
        best = max(best, int((2 * hi + lo - s1 - s2 - s3).max()))
    return best


def triangle_count(n: int, edges: np.ndarray) -> int:
    a = np.zeros((n, n), dtype=np.float32)
    a[edges[:, 0], edges[:, 1]] = 1
    a[edges[:, 1], edges[:, 0]] = 1
    return int(round(float(((a @ a) * a).sum(dtype=np.float64)) / 6))


def girth(n: int, edges: np.ndarray, triangles: int):
    """A graph with a triangle has girth 3; otherwise networkx decides."""
    if triangles:
        return 3
    value = nx.girth(nx_graph(n, edges))
    return UNREACHABLE if math.isinf(value) else int(value)


def matching_size(mate: np.ndarray, n: int, edges: np.ndarray) -> int | None:
    """Size of a mate array (-1: unmatched) if it is a matching, else None."""
    if len(mate) != n:
        return None
    u = np.flatnonzero(mate >= 0)
    v = mate[u]
    if np.any(v >= n) or np.any(mate[v] != u):
        return None
    keep = u < v
    if not keep.any():
        return 0
    codes = np.sort(edges[:, 0] * n + edges[:, 1])
    want = u[keep] * n + v[keep]
    pos = np.minimum(np.searchsorted(codes, want), len(codes) - 1)
    if not np.array_equal(codes[pos], want):
        return None
    return int(keep.sum())


class Checker:
    """Computes each request's references once and checks outputs."""

    def __init__(self, refs: dict, seed: int):
        self.refs = refs
        self.seed = seed
        self._cache: dict = {}

    def reference(self, req) -> dict:
        if req.rid not in self._cache:
            make = getattr(self, "_ref_" + req.kind.replace("-", "_"))
            self._cache[req.rid] = make(req)
        return self._cache[req.rid]

    def _ref_dh(self, req) -> dict:
        rng = random.Random(f"{self.seed}/{req.rid}")
        sources = sorted(rng.sample(range(req.n), DH_SOURCES))
        d = bfs_distances(req.n, req.edges, sources)
        return {"sources": sources, "ecc": d.max(axis=1),
                "pair_excess": self.refs["pair_excess"][req.rid]}

    def _ref_distance(self, req) -> dict:
        d = bfs_distances(req.n, req.edges)
        bc = nx.betweenness_centrality(nx_graph(req.n, req.edges),
                                       normalized=False)
        return {"ecc": d.max(axis=1), "hyp": four_point_twice(d),
                "bc": np.array([bc[v] for v in range(req.n)])}

    def _matching_ref(self, req) -> int:
        if req.n <= LIVE_MATCHING_MAX_N:
            g = nx_graph(req.n, req.edges)
            return len(nx.max_weight_matching(g, maxcardinality=True))
        return self.refs["matching_size"][req.rid]

    def _ref_dense(self, req) -> dict:
        tri = triangle_count(req.n, req.edges)
        return {"matching": self._matching_ref(req), "triangles": tri,
                "girth": girth(req.n, req.edges, tri)}

    def _ref_few_p4(self, req) -> dict:
        return {"matching": self._matching_ref(req)}

    def _ref_kexpr(self, req) -> dict:
        tri = triangle_count(req.n, req.edges)
        return {"triangles": tri, "girth": girth(req.n, req.edges, tri)}

    def check(self, req, out: dict) -> list[str]:
        """Names of the outputs that are wrong (empty when all are right)."""
        ref = self.reference(req)
        if req.kind == "dh":
            return self._check_dh(req, out, ref)
        return [key for key, value in out.items()
                if not self._ok(req, key, value, ref)]

    def _ok(self, req, key: str, value, ref: dict) -> bool:
        if key.startswith("ecc"):
            return np.array_equal(value, ref["ecc"])
        if key.startswith("hyp"):
            return value == ref["hyp"]
        if key.startswith("bc"):
            got = value[0]
            return len(got) == req.n and bool(np.all(
                np.abs(got - ref["bc"])
                <= BC_TOLERANCE * np.maximum(1.0, np.abs(ref["bc"]))))
        if key.startswith("match"):
            return matching_size(value, req.n, req.edges) == ref["matching"]
        if key == "triangles":
            return value == ref["triangles"]
        if key == "girth":
            return value == ref["girth"]
        if key == "q_eff":
            # effective_q is floored at 7 and bounded by a quotient order
            return 7 <= value <= max(7, req.n)
        return False

    def _check_dh(self, req, out: dict, ref: dict) -> list[str]:
        bad = []
        ecc = out["ecc"]
        diam = int(ecc.max()) if len(ecc) == req.n else 0
        if diam == 0:
            bad.append("ecc")
        else:
            steps = np.abs(ecc[req.edges[:, 0]] - ecc[req.edges[:, 1]])
            if not (np.array_equal(ecc[ref["sources"]], ref["ecc"])
                    and int(steps.max()) <= 1 and diam <= 2 * int(ecc.min())):
                bad.append("ecc")
        # every distance-hereditary graph is 1-hyperbolic, and no graph has
        # delta above half its diameter
        twice = out["hyp"]
        if not (isinstance(twice, int) and 0 <= twice <= min(2, diam)):
            bad.append("hyp")
        floats, exact = out["bc"]
        if not (len(floats) == req.n and floats.min() >= 0
                and exact == ref["pair_excess"]):
            bad.append("bc")
        return bad
