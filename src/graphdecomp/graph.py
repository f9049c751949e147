"""Immutable adjacency-list graphs and the BFS primitives everything builds on.

Vertices are ``0..n-1``; adjacency rows are strictly increasing tuples and
symmetric.  A parallel bitmask view (one big int per vertex) backs the
set-algebra used by the decomposition routines, and an all-pairs distance
table (``Graph.distances``) serves every solver that reads distances inside
a prime component or quotient.  Both are built on first use and kept.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .distances import UNREACHABLE, Distance


class GraphError(ValueError):
    """Invalid construction input or violated precondition."""


class DisconnectedGraphError(GraphError):
    """Raised by algorithms whose contract requires a connected graph."""


class Graph:
    """Finite simple undirected graph with sorted adjacency lists."""

    __slots__ = ("n", "adj", "m", "_masks", "_distances")

    def __init__(self, n: int, adj: Sequence[tuple[int, ...]], m: int):
        self.n = n
        self.adj = tuple(adj)
        self.m = m
        self._masks: tuple[int, ...] | None = None
        self._distances: tuple[tuple[Distance, ...], ...] | None = None

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[int, ...]]) -> "Graph":
        """The graph whose sorted, symmetric adjacency rows are ``rows``."""
        return cls(len(rows), rows, sum(map(len, rows)) // 2)

    # -- basic queries ---------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        row = self.adj[u]
        lo, hi = 0, len(row)
        while lo < hi:
            mid = (lo + hi) // 2
            if row[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(row) and row[lo] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def masks(self) -> tuple[int, ...]:
        """Neighborhood bitmasks, one int per vertex (built lazily).

        Each mask spans up to n bits, so the masks take about n^2/8 bytes
        (n = 10^5 would need over a gigabyte).
        """
        if self._masks is None:
            out = []
            for row in self.adj:
                mask = 0
                for v in row:
                    mask |= 1 << v
                out.append(mask)
            self._masks = tuple(out)
        return self._masks

    def distances(self) -> tuple[tuple[Distance, ...], ...]:
        """All-pairs hop distances (built lazily): row v is
        ``bfs_distances(self, v)``, UNREACHABLE off-component.

        One BFS from vertex 0 picks the builder.  If its eccentricity is at
        most n/8, the diameter is at most n/4 and bit-parallel rounds over
        the neighbourhood masks win; on longer graphs, such as long cycles,
        one BFS per source does.  The table holds n^2 entries, and every
        entry that holds distance d holds the same int object.
        """
        if self._distances is None:
            levels = list(range(self.n + 1))
            first = bfs_distances(self, 0, levels) if self.n else []
            # UNREACHABLE compares above every int: a disconnected graph
            # takes the per-source branch
            if max(first, default=0) <= self.n // 8:
                rows = _distance_rounds(self)
            else:
                rows = chain([first], (bfs_distances(self, v, levels)
                                       for v in range(1, self.n)))
            self._distances = tuple(map(tuple, rows))
        return self._distances

    # -- derived graphs --------------------------------------------------

    def complement(self) -> "Graph":
        """The complement graph, in Theta(n^2) time and output size."""
        n = self.n
        rows = []
        for u in range(n):
            nbrs = set(self.adj[u])
            rows.append(tuple(v for v in range(n) if v != u and v not in nbrs))
        return Graph.from_rows(rows)

    def induced(self, vertices: Sequence[int]) -> tuple["Graph", list[int]]:
        """Subgraph induced by ``vertices``; returns it with the id map.

        The map sends new ids back to the originals.
        """
        order = sorted(vertices)
        index = {v: i for i, v in enumerate(order)}
        rows = [tuple(index[w] for w in self.adj[v] if w in index)
                for v in order]
        return Graph.from_rows(rows), order

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image under ``perm``: vertex ``v`` becomes ``perm[v]``."""
        if sorted(perm) != list(range(self.n)):
            raise GraphError("relabel requires a permutation of 0..n-1")
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u in range(self.n):
            adj[perm[u]] = sorted(perm[w] for w in self.adj[u])
        return Graph(self.n, [tuple(r) for r in adj], self.m)

    # -- connectivity ----------------------------------------------------

    def connected_components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self.adj == other.adj)

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Canonical simple graph from an edge list.

    Duplicate edges are collapsed; self-loops and out-of-range endpoints
    are rejected with the offending input index.
    """
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    sets: list[set[int]] = [set() for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge #{idx} ({u},{v}) has an endpoint out of range 0..{n - 1}")
        if u == v:
            raise GraphError(f"edge #{idx} is a self-loop at {u}")
        sets[u].add(v)
        sets[v].add(u)
    return Graph.from_rows([tuple(sorted(s)) for s in sets])


def find_root(parent: list[int], x: int) -> int:
    """The root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def simplicial_vertices(g: Graph) -> set[int]:
    """The vertices whose neighbourhood is a clique."""
    masks = g.masks()
    return {v for v in range(g.n)
            if not any(masks[v] & ~masks[w] & ~(1 << w) for w in g.adj[v])}


def mask_vertices(mask: int) -> Iterator[int]:
    """The vertices of a bitmask, lowest first."""
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def bfs_distances(g: Graph, source: int,
                  levels: Sequence[int] | None = None) -> list[Distance]:
    """Exact hop distances from ``source``; UNREACHABLE off-component.

    Distance d is stored as ``levels[d]`` if given (a list of 0..n), so
    that many rows can share one int object per distance.
    """
    if levels is None:
        levels = range(g.n + 1)
    if not (0 <= source < g.n):
        raise GraphError(f"source {source} out of range")
    adj = g.adj
    dist: list[Distance] = [UNREACHABLE] * g.n
    dist[source] = levels[0]
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = levels[dist[u] + 1]
        for w in adj[u]:
            if dist[w] is UNREACHABLE:
                dist[w] = du
                queue.append(w)
    return dist


def _distance_rounds(g: Graph) -> list[list[Distance]]:
    """All-pairs distances by bit-parallel rounds, one per distance.

    ``reach[v]`` is the set of vertices within d of v and ``fresh[v]`` the
    set at distance exactly d.  A vertex at distance d + 1 from v is at
    distance d from a neighbour of v, so round d + 1 ORs the neighbours'
    ``fresh`` sets and keeps what ``reach[v]`` lacks; a pair's distance is
    the round whose fresh set first holds it.  Each round costs O(n + m)
    big-int operations of n bits, the rounds stop at the diameter, and the
    n^2 entries are written once each.
    """
    n, adj = g.n, g.adj
    rows: list[list[Distance]] = [[UNREACHABLE] * n for _ in range(n)]
    reach = [1 << v for v in range(n)]
    fresh = reach[:]
    for v in range(n):
        rows[v][v] = 0
    d = 0
    while any(fresh):
        d += 1
        grown = [0] * n
        for v in range(n):
            x = 0
            for w in adj[v]:
                x |= fresh[w]
            x &= ~reach[v]
            if x:
                grown[v] = x
                reach[v] |= x
                row = rows[v]
                while x:
                    b = x & -x
                    x ^= b
                    row[b.bit_length() - 1] = d
        fresh = grown
    return rows


def substitute(quotient: Graph, parts: Sequence[Graph]) -> Graph:
    """Blow each quotient vertex up into a part, joining adjacent parts.

    Parts are laid out in quotient-vertex order; each part's vertex set is
    a module of the result.
    """
    if len(parts) != quotient.n:
        raise GraphError(
            f"substitution arity mismatch: quotient has {quotient.n} vertices, "
            f"{len(parts)} parts given")
    offsets = []
    total = 0
    for p in parts:
        offsets.append(total)
        total += p.n
    edges: list[tuple[int, int]] = []
    for i, p in enumerate(parts):
        base = offsets[i]
        edges.extend((base + u, base + v) for u, v in p.edges())
    for i, j in quotient.edges():
        bi, bj = offsets[i], offsets[j]
        for u in range(parts[i].n):
            for v in range(parts[j].n):
                edges.append((bi + u, bj + v))
    return build_graph(total, edges)


# -- edge-list file format ------------------------------------------------
#
#   # comment
#   n m
#   u v          (m lines, 0-based)
#
# Lines end at LF; space, tab and CR separate fields.  A line whose first
# field starts with '#' is a comment and may hold any characters; blank
# lines are skipped.  Every other line holds exactly two fields of ASCII
# digits.  Writers emit each edge once with u < v, sorted lexicographically.

def write_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edgelist(text: str) -> Graph:
    """The graph of an edge-list text; duplicate edges are collapsed.

    The text is tokenized, checked and parsed as byte arrays: a few array
    passes and one sort, with no Python loop over lines or edges.  Errors
    name the first offending line, or the first offending edge.
    """
    import numpy as np

    data = text.encode("utf-8", "surrogatepass")
    b = np.frombuffer(data, dtype=np.uint8)
    lf = b == 10
    blank = lf | (b == 32) | (b == 9) | (b == 13)
    # fields are the maximal non-blank runs: the flips of the padded mask
    # alternate between field starts and field ends
    inside = np.zeros(len(b) + 2, dtype=bool)
    np.logical_not(blank, out=inside[1:-1])
    flips = np.flatnonzero(inside[1:] != inside[:-1])
    starts, ends = flips[0::2], flips[1::2]
    # among the LFs and field starts in text order, the place of field i
    # less i is the number of LFs before it, its 0-based line
    events = lf.copy()
    events[starts] = True
    lines = (np.flatnonzero(b[np.flatnonzero(events)] != 10)
             - np.arange(len(starts)))
    bad = []                                   # 0-based lines in error
    nondigit = np.flatnonzero((b - 48 > 9) & ~blank)
    if len(nondigit):
        # a comment line is one whose first field starts with '#'
        lead = np.append(True, lines[1:] != lines[:-1])
        comment = np.zeros(int(lines[-1]) + 1, dtype=bool)
        comment[lines[lead & (b[starts] == 35)]] = True
        at = lines[np.searchsorted(starts, nondigit, side="right") - 1]
        bad.extend(at[~comment[at]][:1].tolist())
        # blank the comment fields out of the text the parser reads
        drop = comment[lines]
        cover = np.zeros(len(b) + 1, dtype=np.int8)
        cover[starts[drop]] = 1
        cover[ends[drop]] = -1
        buf = b.copy()
        buf[np.cumsum(cover[:-1], dtype=np.int8).view(bool)] = 32
        data = buf.tobytes()
        starts, ends, lines = starts[~drop], ends[~drop], lines[~drop]
    if not len(starts):
        raise GraphError("empty edge-list file")
    first = np.flatnonzero(np.append(True, lines[1:] != lines[:-1]))
    odd = np.flatnonzero(np.diff(first, append=len(lines)) != 2)
    bad.extend(lines[first[odd[:1]]].tolist())
    if bad:
        line = min(bad)
        if line == lines[0]:
            raise GraphError(f"line {line + 1}: expected 'n m' header")
        raise GraphError(f"line {line + 1}: expected 'u v'")

    def field(i: int, where: str) -> int:
        try:
            return int(data[starts[i]:ends[i]])
        except ValueError:          # more digits than int() converts
            raise GraphError(f"{where}: integer too long") from None

    header = f"line {lines[0] + 1}"
    n, m = field(0, header), field(1, header)
    k = len(starts) // 2 - 1
    if k != m:
        raise GraphError(f"header promises {m} edges, file has {k}")
    vals = np.fromstring(data, dtype=np.int64, sep=" ")
    u, v = vals[2::2], vals[3::2]
    wrong = np.flatnonzero((u >= n) | (v >= n) | (u == v))
    if len(wrong):
        i = int(wrong[0])
        x, y = (field(2 * i + j, f"edge #{i}") for j in (2, 3))
        if x >= n or y >= n:
            raise GraphError(
                f"edge #{i} ({x},{y}) has an endpoint out of range 0..{n - 1}")
        raise GraphError(f"edge #{i} is a self-loop at {x}")
    # key u*n + v for both directions: sorted, the keys of row u are a run
    keys = np.concatenate((u * n + v, v * n + u))
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    heads = np.searchsorted(keys, np.arange(n + 1) * n).tolist()
    # rows share one int object per vertex, not one per adjacency entry
    nbrs = tuple(np.arange(n, dtype=object)[keys % max(n, 1)].tolist())
    return Graph.from_rows([nbrs[a:z] for a, z in zip(heads, heads[1:])])
