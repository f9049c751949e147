"""Maximum-cardinality matching by Edmonds' blossom algorithm.

One search engine serves two purposes: the brute-force certification
oracle, and the solver that the witness-subgraph loop runs on its small
characteristic graphs from their retained matchings.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from .graph import Graph, GraphError


class Matching:
    """Mate map over the vertices of a host graph."""

    __slots__ = ("mate",)

    def __init__(self, mate: Sequence[int | None]):
        self.mate = list(mate)

    @classmethod
    def empty(cls, n: int) -> "Matching":
        return cls([None] * n)

    def cardinality(self) -> int:
        return sum(1 for v in self.mate if v is not None) // 2

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u, v in enumerate(self.mate)
                      if v is not None and u < v)

    def copy(self) -> "Matching":
        return Matching(self.mate)

    def validate(self, g: Graph) -> None:
        if len(self.mate) != g.n:
            raise GraphError("matching size does not match host graph")
        for u, v in enumerate(self.mate):
            if v is None:
                continue
            if not (0 <= v < g.n) or self.mate[v] != u:
                raise GraphError(f"mate map not symmetric at {u}")
            if not g.has_edge(u, v):
                raise GraphError(f"matched pair ({u},{v}) is not an edge")

    def __eq__(self, other):
        return isinstance(other, Matching) and self.mate == other.mate

    def __repr__(self):
        return f"Matching(size={self.cardinality()})"


def find_augmenting_path(g: Graph, matching: Matching) -> Optional[list[int]]:
    """An augmenting path for ``matching`` in ``g``, or None if maximum.

    The returned vertex sequence starts and ends at unmatched vertices and
    alternates non-matching / matching edges (Berge).
    """
    matching.validate(g)
    mate = [-1 if v is None else v for v in matching.mate]
    for root in range(g.n):
        if mate[root] == -1:
            path = _search_from(g, mate, root)
            if path is not None:
                return path
    return None


def augment(matching: Matching, path: Sequence[int],
            g: Graph | None = None) -> Matching:
    """Flip the matching along an augmenting path (cardinality +1)."""
    if len(path) < 2 or len(path) % 2 != 0:
        raise GraphError("augmenting path must have even vertex count >= 2")
    mate = matching.mate
    if mate[path[0]] is not None or mate[path[-1]] is not None:
        raise GraphError("augmenting path endpoints must be unmatched")
    if len(set(path)) != len(path):
        raise GraphError("augmenting path repeats a vertex")
    for i in range(len(path) - 1):
        u, v = path[i], path[i + 1]
        if g is not None and not g.has_edge(u, v):
            raise GraphError(f"path step ({u},{v}) is not an edge")
        if i % 2 == 0:
            if mate[u] == v:
                raise GraphError(f"path step ({u},{v}) should be non-matching")
        else:
            if mate[u] != v:
                raise GraphError(f"path step ({u},{v}) should be matching")
    out = matching.copy()
    for i in range(0, len(path) - 1, 2):
        u, v = path[i], path[i + 1]
        out.mate[u] = v
        out.mate[v] = u
    return out


def maximum_matching(g: Graph, initial: Matching | None = None) -> Matching:
    """Maximum-cardinality matching; greedy start, then blossom search."""
    mate = [-1] * g.n
    if initial is not None:
        initial.validate(g)
        mate = [-1 if v is None else v for v in initial.mate]
    else:
        for u in range(g.n):
            if mate[u] != -1:
                continue
            for w in g.adj[u]:
                if mate[w] == -1:
                    mate[u] = w
                    mate[w] = u
                    break
    for root in range(g.n):
        if mate[root] != -1:
            continue
        path = _search_from(g, mate, root)
        if path is not None:
            for i in range(0, len(path) - 1, 2):
                u, v = path[i], path[i + 1]
                mate[u] = v
                mate[v] = u
    return Matching([None if v == -1 else v for v in mate])


def _search_from(g: Graph, mate: list[int], root: int) -> Optional[list[int]]:
    """Alternating BFS with blossom contraction from one exposed root.

    Returns an explicit augmenting path (root first), or None.
    """
    n = g.n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_blossom = [False] * n

    queue = deque([root])
    in_queue[root] = True

    def lowest_common_ancestor(u: int, v: int) -> int:
        seen = [False] * n
        a = u
        while True:
            a = base[a]
            seen[a] = True
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        b = v
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[mate[b]]

    def mark_blossom_side(u: int, stem: int, other: int) -> None:
        # Walk even vertices from u up to the blossom base, rewiring
        # parents through the odd vertices so lifted paths stay valid.
        while base[u] != stem:
            v = mate[u]
            in_blossom[base[u]] = True
            in_blossom[base[v]] = True
            parent[u] = other
            other = v
            u = parent[v]

    def contract(u: int, v: int) -> None:
        stem = lowest_common_ancestor(u, v)
        for i in range(n):
            in_blossom[i] = False
        mark_blossom_side(u, stem, v)
        mark_blossom_side(v, stem, u)
        for i in range(n):
            if in_blossom[base[i]]:
                base[i] = stem
                if not in_queue[i]:
                    in_queue[i] = True
                    queue.append(i)

    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if base[u] == base[w] or mate[u] == w:
                continue
            if w == root or (mate[w] != -1 and parent[mate[w]] != -1):
                # w is an even vertex of the forest: blossom edge.
                contract(u, w)
            elif parent[w] == -1:
                parent[w] = u
                if mate[w] == -1:
                    return _collect_path(parent, mate, w)
                x = mate[w]
                if not in_queue[x]:
                    in_queue[x] = True
                    queue.append(x)
    return None


def _collect_path(parent: list[int], mate: list[int], end: int) -> list[int]:
    path = [end]
    v = end
    while True:
        pv = parent[v]
        path.append(pv)
        if mate[pv] == -1:
            break
        path.append(mate[pv])
        v = mate[pv]
    path.reverse()
    return path
