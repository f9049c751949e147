"""Modular decomposition, modular-width, and the twin-class partition.

The tree follows Gallai's trichotomy: a node is parallel (disconnected),
series (co-disconnected), or prime, when its maximal proper modules
partition it and the quotient over them has only trivial modules.

A prime node's children come from one lemma (Ehrenfeucht, Gabow,
McConnell and Sullivan, J. Algorithms 1994).  For a pivot u, let D be the
digraph on the set minus u with an arc x -> y when y, not u or x, is
adjacent to exactly one of u and x.  The least module that holds u and x
is u plus every vertex x reaches in D.  So x lies in the maximal proper
module through u unless it reaches the whole set minus u.  The vertices
that reach it all reach one another, so they form D's unique source
strong component C0, and the module is the set minus C0.  C0 is not
empty, since in a connected, co-connected set that module is proper.
A sweep of forward searches in D, each from the lowest unvisited vertex,
ends with a root that no vertex outside its own search reaches.  So the
root lies in a source component, which is C0, and C0 is the set of
vertices that reach the root.  The sweep and that backward search each
cost O(s) bitmask operations over s vertices, so a prime node with k
children costs k pivots, each on its lowest uncovered vertex.

The driver keeps an explicit stack, so the decomposition does not recurse,
and neither does ``MDNode.to_json``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

from .graph import Graph, GraphError, mask_vertices

LEAF = "leaf"
PARALLEL = "parallel"
SERIES = "series"
PRIME = "prime"


@dataclass
class MDNode:
    kind: str
    vertices: tuple[int, ...]              # sorted vertex set of this module
    children: list["MDNode"] = field(default_factory=list)
    vertex: int = -1                       # leaf only
    quotient: Graph | None = None          # prime only; vertex i = children[i]

    def is_leaf(self) -> bool:
        return self.kind == LEAF

    def iter_nodes(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def to_json(self) -> dict:
        """The tree as nested dicts, built from an explicit stack."""
        root = _json_shell(self)
        stack = [(self, root)]
        while stack:
            node, out = stack.pop()
            for child in node.children:
                shell = _json_shell(child)
                out["children"].append(shell)
                stack.append((child, shell))
        return root


def _json_shell(node: MDNode) -> dict:
    """A node's JSON object, with its children's list left empty."""
    out: dict = {"kind": node.kind, "vertices": list(node.vertices)}
    if node.kind == LEAF:
        out["vertex"] = node.vertex
    else:
        out["children"] = []
    if node.quotient is not None:
        out["quotient_edges"] = sorted(node.quotient.edges())
    return out


def modular_decomposition(g: Graph) -> MDNode:
    if g.n == 0:
        raise GraphError("modular decomposition of the empty graph")
    masks = g.masks()
    root = MDNode(LEAF, tuple(range(g.n)))
    # every node is pushed as a leaf with its vertex set and its mask,
    # and takes its kind and children when it is popped
    stack = [(root, (1 << g.n) - 1)]
    while stack:
        node, vs = stack.pop()
        if len(node.vertices) == 1:
            node.vertex = node.vertices[0]
            continue
        node.kind = PARALLEL
        parts = _components(masks, vs, complement=False)
        if len(parts) == 1:
            node.kind = SERIES
            parts = _components(masks, vs, complement=True)
        if len(parts) == 1:
            node.kind = PRIME
            parts, covered = [], 0
            while covered != vs:
                rest = vs & ~covered
                u = (rest & -rest).bit_length() - 1
                mod = _maximal_module(masks, vs, u)
                if mod & covered:
                    raise GraphError("strong module computation did not "
                                     "partition the set")
                parts.append(mod)
                covered |= mod
        node.children = [MDNode(LEAF, tuple(mask_vertices(p))) for p in parts]
        if node.kind == PRIME:
            node.quotient = quotient_graph(
                g, [c.vertices for c in node.children])
        stack.extend(zip(node.children, parts))
    return root


def _components(masks, in_set: int, complement: bool) -> list[int]:
    remaining = in_set
    comps = []
    while remaining:
        seed = remaining & -remaining
        frontier = seed
        comp = 0
        while frontier:
            comp |= frontier
            remaining &= ~frontier
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                v = b.bit_length() - 1
                reach = (~masks[v] & ~b) if complement else masks[v]
                nxt |= reach & remaining
            frontier = nxt & in_set
        comps.append(comp)
    return comps


def _maximal_module(masks, vs: int, u: int) -> int:
    """Maximal proper module through u of a connected, co-connected G[vs].

    The arcs out of x in D go to N(u) ^ N(x); the arcs into x come from
    N(x), or from its complement when x is a neighbour of u.
    """
    nu = masks[u]
    rest = vs & ~(1 << u)
    unvisited = rest
    while unvisited:
        root = frontier = unvisited & -unvisited
        while frontier:
            unvisited &= ~frontier
            nxt = 0
            for x in mask_vertices(frontier):
                nxt |= nu ^ masks[x]
            frontier = nxt & unvisited
    seen = frontier = root
    while frontier:
        nxt = 0
        for x in mask_vertices(frontier):
            nxt |= ~masks[x] if nu >> x & 1 else masks[x]
        frontier = nxt & rest & ~seen
        seen |= frontier
    return vs & ~seen


def modular_width(md: MDNode) -> int:
    """Max prime-quotient order, floored at 2 (cographs have width 2)."""
    width = 2
    for node in md.iter_nodes():
        if node.kind == PRIME:
            width = max(width, len(node.children))
    return width


def is_module(g: Graph, vertices) -> bool:
    masks = g.masks()
    mod = 0
    for v in vertices:
        mod |= 1 << v
    for z in range(g.n):
        if mod >> z & 1:
            continue
        inter = masks[z] & mod
        if inter and inter != mod:
            return False
    return True


def quotient_graph(g: Graph, modules: Sequence[Sequence[int]]) -> Graph:
    """The quotient of g over ``modules``, a list of disjoint, non-empty
    modules: vertex i stands for ``modules[i]``.

    Row i is the set of owners of the neighbours of module i's first vertex,
    minus i.  A vertex outside a module sees all of it or none of it, so
    the rows are symmetric and any vertex of a module would give the same
    row.  The cost is O(sum |module| + sum deg(first vertex)), with no
    quadratic pass over the pairs of modules.  This builds every prime
    quotient of ``modular_decomposition`` and the twin-class quotient.
    """
    owner = {v: i for i, mod in enumerate(modules) for v in mod}
    rows: list[list[int]] = [[] for _ in modules]
    for i, mod in enumerate(modules):
        # a neighbour outside every module counts as i and drops out with
        # it; row j collects, in increasing order, the i that see module j,
        # and by symmetry that is module j's own row
        for j in {owner.get(w, i) for w in g.adj[mod[0]]} - {i}:
            rows[j].append(i)
    return Graph.from_rows(list(map(tuple, rows)))


# -------------------------------------------------------------------------
# neighbourhood diversity

TRUE_TWINS = "true"
FALSE_TWINS = "false"


@dataclass
class NDPartition:
    classes: list[tuple[int, ...]]
    tags: list[str]                # TRUE_TWINS (clique) or FALSE_TWINS (stable)
    quotient: Graph                # one vertex per class

    @property
    def nd(self) -> int:
        return len(self.classes)


def nd_partition(g: Graph) -> NDPartition:
    """Coarsest partition into twin classes (u ~ v iff N(u)\\v = N(v)\\u).

    Twins are either false (N(u) = N(v), never adjacent) or true
    (N[u] = N[v], always adjacent).  No vertex has a twin of each kind: if
    N(u) = N(v) and N[u] = N[w], then w is in N(v), so v is in N[w] = N[u],
    which would make u and v adjacent.  So a vertex takes its open group
    (the vertices of equal open row) when that group has a second vertex,
    and its closed group (equal closed row) otherwise.  An open group is a
    stable set and a closed group is a clique.  Rows are sorted tuples, so
    equal sets give equal keys, and the pass costs O(n + m).  Each vertex
    maps to the lowest vertex of its class, so the pass builds one list
    per class, not one per vertex.
    """
    adj = g.adj
    by_open: dict[tuple[int, ...], int] = {}
    # lead[v] is the lowest vertex of v's open group, then of v's class
    lead = [by_open.setdefault(row, v) for v, row in enumerate(adj)]
    paired = [False] * g.n          # open groups with a second vertex
    for v, u in enumerate(lead):
        if u != v:
            paired[u] = True
    # by the proof, a vertex with a true twin is alone in its open group
    by_closed: dict[tuple[int, ...], int] = {}
    for v, row in enumerate(adj):
        if lead[v] == v and not paired[v]:
            at = bisect_left(row, v)
            lead[v] = by_closed.setdefault(row[:at] + (v,) + row[at:], v)
    # a class's lead is its lowest vertex, so the classes come out sorted
    members: dict[int, list[int]] = {}
    for v, u in enumerate(lead):
        members.setdefault(u, []).append(v)
    classes = [tuple(vs) for vs in members.values()]
    tags = [FALSE_TWINS if paired[u] else TRUE_TWINS for u in members]
    return NDPartition(classes, tags, quotient_graph(g, classes))
