"""Four-point hyperbolicity via split decomposition and its kernelizations.

The twin-class and modular methods only build a kernel tree
(``split_tree_from_nd``, ``split_tree_from_modular``) and run the split
scheme over it.

The split scheme: the hyperbolicity of the whole graph is the maximum of
every prime component's own value and, per tree edge, a gap term that
depends only on whether each side's boundary is a clique and on the
boundary sizes.  Both are read at the two slots of each tree edge after
two ``SplitTree.spread`` passes, so no rule is given.  A boundary's size is
the sum of its neighbours' sizes, where a real vertex counts one:
``spread(1, None)``.  A boundary is a clique exactly when its marker is
simplicial in its side graph: the marker is simplicial in its own
component and every neighbouring marker's boundary is a clique.  So
``spread(0, own)``, with ``own`` 1 at each slot not simplicial in its
component, sends through a marker the count own(t) + sum of the counts at
t's neighbours, where a real vertex counts 0.  Every term is non-negative,
so the count is 0 exactly when t is simplicial and every neighbour's count
is 0; by induction from the real vertices, exactly when the boundary is a
clique.

A prime component's own value comes from ``component_delta``: above
``_BRUTE_CAP`` vertices it first tries two exact shortcuts (a block graph
has value 0, and a graph of diameter at most 2 has value 1 or 1/2 by
whether it holds an induced C4), and otherwise runs ``four_point_delta``,
the pruned scan of Cohen, Coudert and Lancin (*On computing the Gromov
hyperbolicity*, ACM JEA 2015).  The diameter test and the scan read the
component's distance table (``Graph.distances``), the one ecc and bc
read.  The scan sorts the vertex pairs by distance, largest first, and
compares each pair only with the pairs before it, so every quadruple is
met in its largest-sum pairing.  If that pairing is {u, v}, {x, y} with
d(u, v) >= d(x, y), the other two sums add up to at least 2 d(u, v), so
the larger of them is at least d(u, v) and the quadruple's doubled value
is at most d(x, y), the distance of the later pair.  The scan therefore
stops at the first pair whose distance is at most ``best``, the doubled
value found so far: no quadruple left can beat it.
``oracle_hyperbolicity`` stays the independent reference that the tests
compare against.
"""

from __future__ import annotations

from .distances import Half
from .graph import DisconnectedGraphError, Graph, simplicial_vertices
from .modular import MDNode, NDPartition
from .splitdec import (COMPLETE, PRIME, STAR, SplitTree,
                       split_tree_from_modular, split_tree_from_nd)

_BRUTE_CAP = 44

#: Pairs per row tile and per column tile of ``four_point_delta``: each
#: temporary holds at most 2**14 entries, whatever the component's size.
_ROW_TILE = 16
_COL_TILE = 1 << 10


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise DisconnectedGraphError("hyperbolicity needs a connected graph")


# -- per-component suppliers -------------------------------------------------


def four_point_delta(g: Graph) -> Half:
    """Exact four-point hyperbolicity by the pruned pair scan."""
    import numpy as np

    _require_connected(g)
    n = g.n
    if n < 4:
        return Half(0)
    # a sum of two distances stays below 2n, within int16 for n < 2**14
    dtype = np.int16 if n < 1 << 14 else np.int32
    dist = np.array(g.distances(), dtype=dtype)
    us, vs = np.triu_indices(n, 1)
    d = dist[us, vs]
    order = np.argsort(d, kind="stable")[::-1]
    us, vs, d = us[order], vs[order], d[order]
    best = 0
    for lo in range(0, len(d), _ROW_TILE):
        if d[lo] <= best:
            break
        hi = min(lo + _ROW_TILE, len(d))
        du, dv = dist[us[lo:hi]], dist[vs[lo:hi]]
        d_rows = d[lo:hi, None]
        # columns run to the end of the row tile: a pair met against itself
        # scores 0, and against a later pair of its tile it scores what
        # that pair's own row scores, so neither can overstate best
        for clo in range(0, hi, _COL_TILE):
            chi = min(clo + _COL_TILE, hi)
            xs, ys = us[clo:chi], vs[clo:chi]
            other = np.maximum(du[:, xs] + dv[:, ys], du[:, ys] + dv[:, xs])
            best = max(best, int((d_rows + d[clo:chi] - other).max()))
    return Half(best)


def _is_block_graph(g: Graph) -> bool:
    """Every biconnected component is a clique."""
    n = g.n
    if n <= 2:
        return True
    disc = [-1] * n
    low = [0] * n
    stack_edges: list[tuple[int, int]] = []
    comps: list[list[tuple[int, int]]] = []
    timer = [0]

    def dfs(root: int) -> None:
        stack = [(root, -1, iter(g.adj[root]))]
        disc[root] = low[root] = timer[0]
        timer[0] += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    stack_edges.append((v, w))
                    disc[w] = low[w] = timer[0]
                    timer[0] += 1
                    stack.append((w, v, iter(g.adj[w])))
                    advanced = True
                    break
                elif w != parent and disc[w] < disc[v]:
                    stack_edges.append((v, w))
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] >= disc[pv]:
                        comp = []
                        while stack_edges:
                            e = stack_edges.pop()
                            comp.append(e)
                            if e == (pv, v):
                                break
                        comps.append(comp)

    for v in range(n):
        if disc[v] == -1:
            dfs(v)
    for comp in comps:
        verts = sorted({x for e in comp for x in e})
        need = len(verts) * (len(verts) - 1) // 2
        if len(comp) != need:
            return False
        if len({(min(e), max(e)) for e in comp}) != need:
            return False
    return True


def _has_induced_c4(g: Graph) -> bool:
    """Whether g has an induced 4-cycle: two non-adjacent vertices with two
    non-adjacent common neighbours.

    Every non-adjacent pair scans its common neighbours, so the test costs
    O(n^2 * max degree) operations on n-bit masks.
    """
    masks = g.masks()
    n = g.n
    for u in range(n):
        for v in range(u + 1, n):
            if g.has_edge(u, v):
                continue
            common = masks[u] & masks[v]
            # two nonadjacent common neighbors close an induced C4
            w = common
            while w:
                b = w & -w
                w ^= b
                x = b.bit_length() - 1
                if common & ~masks[x] & ~b:
                    return True
    return False


def component_delta(g: Graph) -> Half:
    """Hyperbolicity of one split component or quotient graph."""
    if g.n <= _BRUTE_CAP:
        return four_point_delta(g)
    if _is_block_graph(g):
        return Half(0)
    if max(map(max, g.distances())) <= 2:
        return Half(2) if _has_induced_c4(g) else Half(1)
    return four_point_delta(g)


# -- the split scheme --------------------------------------------------------


def hyperbolicity_over_tree(st: SplitTree) -> Half:
    """Max of prime component values and per-edge gap terms."""
    if st.n < 4:
        return Half(0)
    comps = st.components
    if len(comps) == 1:
        if comps[0].kind in (COMPLETE, STAR):
            return Half(0)
        return component_delta(comps[0].graph)
    best = Half(0)
    open_slot: list[int] = []   # 1 at a slot not simplicial in its component
    for comp in comps:
        size = len(comp.labels)
        if comp.kind == PRIME:
            simplicial = simplicial_vertices(comp.graph)
            open_slot += [int(t not in simplicial) for t in range(size)]
            d = component_delta(comp.graph)
            if best < d:
                best = d
        else:
            # a star's centre is its one slot that is not simplicial
            open_slot += [int(t == comp.center) for t in range(size)]
    sizes, _ = st.spread(1, None)
    opens, _ = st.spread(0, open_slot)
    lo = st.rooting.lo
    for ca, la, cb, lb in st.tree_edges:
        a, b = lo[ca] + la, lo[cb] + lb
        a_clique, b_clique = not opens[a], not opens[b]
        if not a_clique and not b_clique:
            gap = Half(2)
        elif min(sizes[a], sizes[b]) >= 2 and a_clique != b_clique:
            gap = Half(1)
        else:
            gap = Half(0)
        if best < gap:
            best = gap
    return best


def hyperbolicity_split(g: Graph, st: SplitTree) -> Half:
    _require_connected(g)
    return hyperbolicity_over_tree(st)


def hyperbolicity_nd(g: Graph, ndp: NDPartition) -> Half:
    _require_connected(g)
    return hyperbolicity_over_tree(split_tree_from_nd(g, ndp))


def hyperbolicity_qq3(g: Graph, md: MDNode) -> Half:
    _require_connected(g)
    return hyperbolicity_over_tree(split_tree_from_modular(g, md))
