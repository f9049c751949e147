"""Maximum-cardinality matching by Edmonds' blossom algorithm, certified.

One search engine serves three purposes: the oracle, the solver that the
witness-subgraph loop runs on its small characteristic graphs from their
retained matchings, and the Tutte–Berge set that proves a matching
maximum, which ``certifies_maximum`` checks without the engine.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

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
        path = _search_from(g, mate, [root])[0]
        if path is not None:
            for i in range(0, len(path) - 1, 2):
                u, v = path[i], path[i + 1]
                mate[u] = v
                mate[v] = u
    return Matching([None if v == -1 else v for v in mate])


def tutte_berge_set(g: Graph, matching: Matching) -> list[int]:
    """The Tutte–Berge set U of a maximum ``matching`` M of ``g``.

    One blossom phase grows a tree from every exposed vertex at once; two
    trees that meet join an augmenting path, and this raises
    ``GraphError``.  Else U is the forest's odd vertices (Gallai–Edmonds):
    every edge at an even vertex ends in U or in that vertex's blossom, so
    each blossom is an odd component of G - U, a tree has one blossom more
    than odd vertices, and the unreached vertices are matched among
    themselves.  So odd(G - U) = |U| + n - 2|M|.  O(n^2 + m): at most n/2
    contractions relabel bases in O(n) each.
    """
    matching.validate(g)
    mate = [-1 if v is None else v for v in matching.mate]
    path, parent, in_queue = _search_from(
        g, mate, [v for v in range(g.n) if mate[v] == -1])
    if path is not None:
        raise GraphError("matching is not maximum: two exposed vertices "
                         "are joined by an augmenting path")
    return [v for v in range(g.n) if parent[v] != -1 and not in_queue[v]]


def certifies_maximum(g: Graph, matching: Matching,
                      U: Sequence[int]) -> bool:
    """True when the vertex set U proves ``matching`` maximum in ``g``.

    Tutte–Berge: any matching M and vertex set U have 2|M| <= n + |U| -
    odd(G - U), odd counting components of odd order, since each of them
    has a vertex exposed or matched into U.  So equality proves M maximum.
    Neither input is trusted: a mate map that is not a matching of ``g``,
    or a U off the graph, gives False.  O(n + m).
    """
    try:
        matching.validate(g)
    except GraphError:
        return False
    removed = set(U)
    if any(not 0 <= u < g.n for u in removed):
        return False
    seen = [v in removed for v in range(g.n)]
    odd = 0
    for s in range(g.n):
        if not seen[s]:
            seen[s], stack, order = True, [s], 0
            while stack:
                order += 1
                for w in g.adj[stack.pop()]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            odd += order % 2
    return 2 * matching.cardinality() == g.n + len(removed) - odd


def _search_from(g: Graph, mate: list[int], roots: list[int]
                 ) -> tuple[list[int] | None, list[int], list[bool]]:
    """Alternating BFS with blossom contraction from exposed roots.

    Returns ``(path, parent, in_queue)``: an augmenting path, root first,
    or None when the forest stops growing.  The even vertices are those
    that entered the queue; the odd ones have a parent but never did.
    """
    n = g.n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_blossom = [False] * n

    queue = deque(roots)
    for root in roots:
        in_queue[root] = True

    def lowest_common_ancestor(u: int, v: int) -> int:
        # -1 when v's walk reaches a second root: uv joins two trees
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
            if mate[b] == -1:
                return -1
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

    def contract(u: int, v: int, stem: int) -> None:
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
            if in_queue[w]:
                # w is an even vertex: a blossom edge or two trees meet
                stem = lowest_common_ancestor(u, w)
                if stem == -1:
                    return (_to_root(parent, mate, u)[::-1]
                            + _to_root(parent, mate, w), parent, in_queue)
                contract(u, w, stem)
            elif parent[w] == -1:
                parent[w] = u
                if mate[w] == -1:
                    return (_to_root(parent, mate, u)[::-1] + [w], parent,
                            in_queue)
                x = mate[w]
                if not in_queue[x]:
                    in_queue[x] = True
                    queue.append(x)
    return None, parent, in_queue


def _to_root(parent: list[int], mate: list[int], even: int) -> list[int]:
    """The alternating path from an even vertex to the root of its tree."""
    path = [even]
    while mate[even] != -1:
        path.append(mate[even])
        even = parent[mate[even]]
        path.append(even)
    return path
