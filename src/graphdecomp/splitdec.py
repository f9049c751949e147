"""Split decomposition: components, marker pairs, and the decomposition tree.

A split (A, B) is a bipartition with both sides of size >= 2 whose crossing
edges form a complete join.  Decomposing along pairwise non-crossing splits
yields a tree of components, each either degenerate (complete graph or star)
or prime (splitless).  Components are linked by marker-vertex pairs; undoing
every simple decomposition (joining the two marker neighborhoods) restores
the original graph, which is how the tree is certified here.

Each component is a ``Graph`` over its slots, as in the graph-labelled
trees of Gioan, Paul, Tedder and Corneil (Algorithmica 2014), so ecc, hyp
and bc read it with the same primitives as any other graph.  This module
alone writes the tree format.  Every builder, whether
``split_decomposition``, the kernel trees ``split_tree_from_nd`` and
``split_tree_from_modular``, or a generator, appends components with
``SplitTree.add`` and ends with ``SplitTree.validate``, the one place a tree
is checked and rooted.  The rooting is one flat slot table (``Rooting``):
the slots of all components are numbered together, and ``land`` says where
a value sent out through a slot arrives, at the partner marker or at a real
vertex.  Over that table two passes send a value through every slot, in
closed form and with no callback: ``SplitTree.spread`` the neighbour sums
of hyp and bc, and ``SplitTree.farthest`` the max-plus rule of ecc.

The split search (``_find_split``) first takes the splits that need no
search: a twin pair, or a pendant vertex with its neighbour; and a cycle of
length >= 5 is prime.  Otherwise Cunningham's closures decide (Decomposition
of directed graphs, SIAM J. Algebraic Discrete Methods 1982).  A closure
starts from a seed side and one outside anchor and pulls in every vertex
whose view of the side is neither empty nor the anchor's.  At its fixpoint
the side is a split if both sides hold at least 2 vertices; and if the seed
lies in one side A of a split (A, B) and the anchor is a vertex of B with a
neighbour in A, the side never leaves A, so the closure finds a split.
With x of least degree d, the seeds N[x] (anchors outside N[x]) and
{x, y} for every y != x (anchors in N(x) - {y}) meet every split: if x has
no neighbour across, N[x] lies on x's side; otherwise N(x) holds the whole
frontier across.  Once the side holds a neighbour of the anchor, a vertex
is pulled in exactly when one vertex of the side has an arc to it, so a
closure is a frontier search, and all the seeds {x, y} of one anchor are
settled at once by a strong-component test, the sweep of
``modular._maximal_module`` with the arcs reversed.  So a component costs d
such tests and n - d - 1 closures of O(n) mask operations each, O(n^2) in
all, and the search is complete: it returns None only on prime graphs.

``split_decomposition`` keeps one adjacency table, a neighbourhood mask
per id, for the whole run.  Real vertices keep their ids; each split
appends its two marker ids and replaces the crossing edges by the edges of
each marker to its side's frontier.  So the row of a vertex always lies
inside that vertex's fragment, and a fragment is just a vertex-set mask.
The degenerate components are then merged in one pass over the marker
pairs, clique with clique and star leaf with star centre.  A merge keeps
the kind, and every slot keeps its role of centre or leaf, so whether a
pair merges is read off the two fragments it was split into, in any order.
A merged component is a clique or a star of known size, so only prime
components read their graph off the table.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import add
from typing import NamedTuple

from . import modular
from .graph import (DisconnectedGraphError, Graph, GraphError, build_graph,
                    find_root, mask_vertices)

COMPLETE = "complete"
STAR = "star"
PRIME = "prime"


def _degree_kind(degs: list[int]) -> tuple[str, int]:
    """(kind, star center or -1) of a connected component from its degrees."""
    n = len(degs)
    centers = [i for i, d in enumerate(degs) if d == n - 1]
    if len(centers) == n:
        return COMPLETE, -1
    if len(centers) == 1 and all(d == 1 for i, d in enumerate(degs)
                                 if i != centers[0]):
        return STAR, centers[0]
    return PRIME, -1


def marker_label(edge_id: int, side: int) -> int:
    return -(2 * edge_id + side + 1)


def is_marker(label: int) -> bool:
    return label < 0


def _degenerate_graph(kind: str, size: int) -> Graph:
    """The complete graph, or the star centred at slot 0, on ``size`` slots."""
    if kind == COMPLETE:
        return Graph.from_rows([tuple(range(i)) + tuple(range(i + 1, size))
                                for i in range(size)])
    return Graph.from_rows([tuple(range(1, size))] + [(0,)] * (size - 1))


@dataclass
class SplitComponent:
    labels: list[int]            # global labels; >= 0 real vertex, < 0 marker
    graph: Graph                 # over the slots: vertex i is labels[i]
    kind: str = ""
    center: int = -1             # star center (slot), else -1

    def classify(self) -> None:
        self.kind, self.center = _degree_kind([len(r) for r in self.graph.adj])


class Rooting(NamedTuple):
    """A split tree, each tree rooted at its lowest component, as int arrays.

    ``order`` lists the components parents first, and ``up_slot[c]`` is
    the slot of c towards its parent (-1 at a root).  The slots of all
    components form one flat table: those of component c are ``lo[c]``
    to ``lo[c + 1] - 1``.  A value sent out through global slot g arrives
    at ``land[g]``: the partner slot of a marker, or ``~v`` for a slot
    holding real vertex v.
    """
    trees: int
    order: array
    up_slot: array
    lo: array
    land: array

    def sends(self):
        """(component, slots to send through): first each parent slot,
        children first, then every other slot, parents first."""
        up_slot, lo = self.up_slot, self.lo
        for c in reversed(self.order):
            if up_slot[c] >= 0:
                yield c, (up_slot[c],)
        for c in self.order:
            targets = list(range(lo[c + 1] - lo[c]))
            if up_slot[c] >= 0:
                del targets[up_slot[c]]
            yield c, targets


@dataclass
class SplitTree:
    n: int
    components: list[SplitComponent] = field(default_factory=list)
    # one entry per marker pair: (comp_a, local_a, comp_b, local_b)
    tree_edges: list[tuple[int, int, int, int]] = field(default_factory=list)
    # set by validate(), cleared by add()
    rooting: Rooting | None = field(default=None, init=False, repr=False,
                                    compare=False)
    # the complete and star graphs that add() hands out, by (kind, size)
    _shapes: dict[tuple[str, int], Graph] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def add(self, labels: list[int], kind: str | None = None,
            graph: Graph | None = None,
            parent: tuple[int, int] | None = None, up: int = 0) -> int:
        """Append a component and return its index.

        A COMPLETE or STAR ``kind`` (a star's centre at slot 0) gets its
        graph written here, one per kind and size, shared by the tree's
        components of that shape; otherwise ``graph`` is the component,
        over its slots, and its degrees give the kind.  With ``parent = (component,
        slot)``, slot ``up`` of the new component and that slot become the
        marker pair of a new tree edge.  The labels list is kept, not
        copied, so a builder may fill in real vertices afterwards.
        """
        if kind is None:
            comp = SplitComponent(labels, graph)
            comp.classify()
        else:
            shape = (kind, len(labels))
            if shape not in self._shapes:
                self._shapes[shape] = _degenerate_graph(*shape)
            comp = SplitComponent(labels, self._shapes[shape], kind,
                                  0 if kind == STAR else -1)
        ci = len(self.components)
        self.components.append(comp)
        if parent is not None:
            eid = len(self.tree_edges)
            pc, ps = parent
            labels[up] = marker_label(eid, 0)
            self.components[pc].labels[ps] = marker_label(eid, 1)
            self.tree_edges.append((ci, up, pc, ps))
        self.rooting = None
        return ci

    def prime_orders(self) -> list[int]:
        return [len(c.labels) for c in self.components if c.kind == PRIME]

    def validate(self) -> None:
        """Check the tree and root it; every builder ends here."""
        seen_real = set()
        for comp in self.components:
            if comp.kind not in (COMPLETE, STAR, PRIME):
                raise GraphError("unclassified split component")
            for lab in comp.labels:
                if lab >= 0:
                    if lab in seen_real:
                        raise GraphError(f"real vertex {lab} in two components")
                    seen_real.add(lab)
        if seen_real != set(range(self.n)):
            raise GraphError("components do not cover the vertex set")
        for ca, la, cb, lb in self.tree_edges:
            if not is_marker(self.components[ca].labels[la]):
                raise GraphError("tree edge endpoint is not a marker")
            if not is_marker(self.components[cb].labels[lb]):
                raise GraphError("tree edge endpoint is not a marker")
        rooting = self._root()
        # every marker slot is the endpoint of exactly one tree edge
        ends = {(c, s) for ca, la, cb, lb in self.tree_edges
                for c, s in ((ca, la), (cb, lb))}
        markers = {(c, s) for c, comp in enumerate(self.components)
                   for s, lab in enumerate(comp.labels) if is_marker(lab)}
        if len(ends) != 2 * len(self.tree_edges) or ends != markers:
            raise GraphError("marker slots are not the tree-edge endpoints, "
                             "each named once")
        self.rooting = rooting

    def _root(self) -> Rooting:
        """Depth-first rooting of every tree of the forest, lowest first."""
        comps = self.components
        ncomp = len(comps)
        edges = self.tree_edges
        lo = array("i", [0]) * (ncomp + 1)
        for c, comp in enumerate(comps):
            lo[c + 1] = lo[c] + len(comp.labels)
        # a marker's entry is overwritten by its partner slot below
        land = array("i", [~lab for comp in comps for lab in comp.labels])
        # the tree edges at each component, in CSR form and edge order
        start = array("i", [0]) * (ncomp + 1)
        for ca, la, cb, lb in edges:
            start[ca + 1] += 1
            start[cb + 1] += 1
            land[lo[ca] + la] = lo[cb] + lb
            land[lo[cb] + lb] = lo[ca] + la
        for c in range(ncomp):
            start[c + 1] += start[c]
        fill = start[:ncomp]
        incident = array("i", [0]) * (2 * len(edges))
        for e, (ca, _, cb, _) in enumerate(edges):
            for c in (ca, cb):
                incident[fill[c]] = e
                fill[c] += 1
        order = array("i")
        up_slot = array("i", [-1]) * ncomp
        seen = bytearray(ncomp)
        trees = 0
        for root in range(ncomp):
            if seen[root]:
                continue
            trees += 1
            seen[root] = 1
            stack = [root]
            while stack:
                c = stack.pop()
                order.append(c)
                for e in incident[start[c]:start[c + 1]]:
                    ca, la, cb, lb = edges[e]
                    other, there = (cb, lb) if ca == c else (ca, la)
                    if seen[other]:
                        continue
                    seen[other] = 1
                    up_slot[other] = there
                    stack.append(other)
        if len(edges) != ncomp - trees:
            raise GraphError("tree edges close a cycle")
        return Rooting(trees, order, up_slot, lo, land)

    def _start(self, real) -> tuple[Rooting, list]:
        """The rooting, checked, and one list holding ``real`` for every
        value: slot g's at index g, real vertex v's at index ~v (from the
        end), so a value sent through slot g lands at ``land[g]``."""
        r = self.rooting
        if r is None:
            raise GraphError("split tree is not rooted; validate() it first")
        if r.trees != 1:
            raise GraphError("split tree is a forest; root one tree at a time")
        return r, [real] * (r.lo[-1] + self.n)

    def spread(self, real, own):
        """Send one value across every tree edge in each direction, in
        closed form: the neighbour sums behind hyp and bc.

        Every slot of a component carries a value: ``real`` for a slot
        holding a real vertex, and for a marker slot the value sent to it
        from across that marker's tree edge.  Through slot t, component c
        sends ``own[lo[c] + t]`` (nothing if ``own`` is None) plus the sum
        of the values at the neighbours of t.  A complete component sends
        its slice total less the value at t; a star's centre sends the
        total less its own value and a leaf the centre's value; a prime
        component sums over t's adjacency row.  Zero values are skipped,
        so slots that carry 0 cost no arithmetic.

        Returns ``(arrived, out)``: ``arrived[lo[c] + t]`` is the value at
        slot t of component c, and ``out[v]`` the value sent out through
        the slot of real vertex v, which is the per-vertex readout.
        """
        r, arrived = self._start(real)
        lo, land = r.lo, r.land
        comps = self.components
        for c, targets in r.sends():
            a = lo[c]
            vals = arrived[a:lo[c + 1]]
            comp = comps[c]
            prime = comp.kind == PRIME
            total = 0 if prime else sum(filter(None, vals))
            centre = comp.center
            for t in targets:
                if prime:
                    val = sum(filter(None, map(vals.__getitem__,
                                               comp.graph.adj[t])))
                elif centre >= 0 and t != centre:
                    val = vals[centre]
                else:
                    val = total - vals[t] if vals[t] else total
                if own is not None and own[a + t]:
                    val += own[a + t]
                arrived[land[a + t]] = val
        return arrived[:lo[-1]], arrived[lo[-1]:][::-1]

    def farthest(self):
        """``spread``'s traversal for the max-plus rule of eccentricities.

        A real vertex carries 0.  Through slot t, component c sends the
        maximum over its other slots s of dist_c(t, s) + value(s), less
        one: the value at a marker is the eccentricity of its partner in
        the graph on the far side, less one, and ``out[v] + 1`` is real
        vertex v's eccentricity.  A complete component sends its top
        value, or its second where t holds the top.  A star's centre sends
        the top leaf value, and a leaf the larger of the centre's value
        and 1 + the top value among the other leaves.  A prime component
        reads t's row of ``Graph.distances``.  No form reads the value at
        t, which in the first pass is still 0.  Returns ``(arrived, out)``
        as ``spread`` does.
        """
        r, arrived = self._start(0)
        lo, land = r.lo, r.land
        comps = self.components
        for c, targets in r.sends():
            a = lo[c]
            vals = arrived[a:lo[c + 1]]
            comp = comps[c]
            if comp.kind == PRIME:
                table = comp.graph.distances()
                for t in targets:
                    sums = list(map(add, table[t], vals))
                    sums[t] = 0     # below every other sum: dist >= 1
                    arrived[land[a + t]] = max(sums) - 1
                continue
            centre = comp.center
            x, top, second = _top2(vals, centre)
            for t in targets:
                val = second if t == x else top
                if centre >= 0 and t != centre:
                    val = max(vals[centre], 1 + val)
                arrived[land[a + t]] = val
        return arrived[:lo[-1]], arrived[lo[-1]:][::-1]

    def recompose(self) -> Graph:
        """Undo every simple decomposition; certifies the tree."""
        adj: dict[int, set[int]] = {}

        def link(a: int, b: int) -> None:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)

        for comp in self.components:
            for i, row in enumerate(comp.graph.adj):
                for j in row:
                    if i < j:
                        link(comp.labels[i], comp.labels[j])
            for lab in comp.labels:
                adj.setdefault(lab, set())
        for e, (ca, la, cb, lb) in enumerate(self.tree_edges):
            ma = self.components[ca].labels[la]
            mb = self.components[cb].labels[lb]
            na = adj.pop(ma, set())
            nb = adj.pop(mb, set())
            na.discard(mb)
            nb.discard(ma)
            for x in na:
                adj[x].discard(ma)
            for x in nb:
                adj[x].discard(mb)
            for x in na:
                for y in nb:
                    link(x, y)
        edges = []
        for u, row in adj.items():
            if u < 0:
                raise GraphError("marker survived recomposition")
            for v in row:
                if u < v:
                    edges.append((u, v))
        return build_graph(self.n, edges)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "components": [
                {
                    "kind": comp.kind,
                    "center": comp.center,
                    "labels": list(comp.labels),
                    "edges": sorted((min(comp.labels[i], comp.labels[j]),
                                     max(comp.labels[i], comp.labels[j]))
                                    for i, row in enumerate(comp.graph.adj)
                                    for j in row if i < j),
                }
                for comp in self.components
            ],
            "marker_pairs": [
                {"components": [ca, cb],
                 "markers": [self.components[ca].labels[la],
                             self.components[cb].labels[lb]]}
                for ca, la, cb, lb in self.tree_edges
            ],
        }


def _top2(vals: list[int], skip: int) -> tuple[int, int, int]:
    """The slot of the largest value off slot ``skip``, and the largest
    and second largest values there (-1 where absent; values are >= 0)."""
    x = top = second = -1
    for s, v in enumerate(vals):
        if v > second and s != skip:
            if v > top:
                x, top, second = s, v, top
            else:
                second = v
    return x, top, second


def split_width(st: SplitTree) -> int:
    """Max prime component order, floored at 2."""
    return max([2] + st.prime_orders())


# -------------------------------------------------------------------------
# split search


def _find_split(table: list[int], vs: int) -> int | None:
    """One side of a split of a connected graph as a bitmask, or None.

    The graph is the one ``table`` induces on the vertex set ``vs``, whose
    rows lie inside ``vs``; the side is a subset of ``vs``.  Twin pairs and
    pendant vertices give a split at once, and a cycle of length >= 5 is
    prime.  Otherwise closures (``_anchored_closure``) decide, with x a
    vertex of least degree d, in two cases:

    (i)  seed N[x], anchor every vertex outside N[x];
    (ii) seed {x, y} for every y != x, anchor every vertex of N(x) - {y}.

    Case (ii) runs first, one ``_anchor_split`` per anchor a in N(x): it
    settles the seeds {x, y} of a, y != x, a, at once.

    Soundness.  At the fixpoint of a closure every outside vertex sees
    either nothing of the side or exactly the anchor's view of it, and in
    a connected graph that view is not empty; so the crossing edges form a
    complete join, and the side is a split when both sides hold at least 2
    vertices.

    Invariant.  Let (A, B) be a split with the seed inside A and the anchor
    a frontier vertex of B (one with a neighbour in A).  While the side S
    lies inside A, a vertex of B sees in S either nothing or the same set
    as the anchor, so no vertex of B is ever pulled in: the closure ends
    inside A, with at least the seed's 2 vertices, and its complement
    holds B.  By soundness it returns a split.

    Completeness.  Take any split (A, B), named so that x is in A.  If x
    has no neighbour in B, then N[x] lies in A and case (i) anchors every
    frontier vertex of B.  Otherwise x is on A's frontier and N(x) meets B
    in exactly B's frontier; case (ii) with any y in A - {x} anchors it.
    Either way some closure returns a split, so None means prime.

    Cost.  d anchor tests and n - d - 1 closures, each O(n) operations on
    n-bit masks: O(n^2) mask operations in all.
    """
    n = vs.bit_count()
    if n < 4:
        return None
    verts = list(mask_vertices(vs))

    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v in verts:
        o = table[v]
        c = o | (1 << v)
        if o in by_open:
            return (1 << by_open[o]) | (1 << v)
        if c in by_closed:
            return (1 << by_closed[c]) | (1 << v)
        by_open[o] = v
        by_closed[c] = v

    for v in verts:
        if table[v].bit_count() == 1:
            return (1 << v) | table[v]

    # a single cycle of length >= 5 is prime
    if n >= 5 and all(table[v].bit_count() == 2 for v in verts):
        return None

    x = min(verts, key=lambda v: table[v].bit_count())
    closed_x = table[x] | 1 << x
    for a in mask_vertices(table[x]):
        side = _anchor_split(table, vs, x, a)
        if side is not None:
            return side
    for a in mask_vertices(vs & ~closed_x):
        side = _anchored_closure(table, vs, closed_x, a)
        if side is not None:
            return side
    return None


def _anchored_closure(table: list[int], vs: int,
                      seed: int, a: int) -> int | None:
    """The closure of ``seed`` with anchor a, or None unless it and its
    complement both hold at least 2 vertices.

    A vertex w outside the side S, other than a, is pulled in when its
    view of S is neither empty nor a's view; the closure is the side at
    which no vertex is pulled in.  A pulled vertex lies in every such
    closed side T that holds S and not a: its view of T is not empty, so
    it is a's view of T, and then its view of S would be a's view of S.
    So any order of pulling ends at the same least closed side holding
    the seed.

    Pairwise lemma.  Let S hold a vertex z adjacent to a.  Then w is
    pulled in exactly when some s in S has an arc s -> w: w ~ z and s tells
    w from a (s ~ w != s ~ a), or w !~ z and s ~ w.  Proof: if w ~ z, w's
    view of S is not empty, so it differs from a's view exactly when some
    s tells them apart.  If w !~ z, w's view misses z while a's view holds
    it, so it differs exactly when it is not empty.  While S holds no
    neighbour of a, a's view is empty, so w is pulled in exactly when it
    has a neighbour in S.

    So the closure is a frontier search.  The arcs out of s go to N(s) if
    s !~ a and to N(s) ^ N(z) if s ~ a.  z is fixed when the side first
    meets N(a), before any neighbour of a is expanded; a vertex expanded
    earlier is not a neighbour of a, and its arcs N(s) hold for every z.
    So each vertex is expanded once: O(n) mask operations.
    """
    na = table[a]
    rest = vs & ~(1 << a)
    side = frontier = seed
    nz = None                   # N(z), once the side meets N(a)
    while frontier:
        if nz is None and frontier & na:
            nz = table[(frontier & na).bit_length() - 1]
        reach = 0
        for s in mask_vertices(frontier):
            reach |= table[s] ^ nz if na >> s & 1 else table[s]
        frontier = reach & rest & ~side
        side |= frontier
    if side.bit_count() < 2 or (vs & ~side).bit_count() < 2:
        return None
    return side


def _anchor_split(table: list[int], vs: int, x: int, a: int) -> int | None:
    """A split side holding x and not its neighbour a, or None if no split
    separates them.

    Anchor lemma.  Let W = V - {x, a}, with the arcs of the pairwise lemma
    (``_anchored_closure``) for z = x: from s to N(s) ^ N(x) if s ~ a,
    else to N(s).  x has no out-arcs, so the closure of {x, y} with anchor
    a, for y in W, is {x} plus what y reaches in W; it is a split side
    unless y reaches all of W.  So some seed {x, y} gives a split exactly
    when the digraph on W is not strongly connected.  By the invariant of
    ``_find_split``, a split (A, B) with x in A and a in B gives one: a is
    a frontier vertex of B, and the seed {x, y} for y in A - {x} stays in A.

    The arcs into w come from N(w) ^ N(a) if w ~ x, else from N(w).
    Searches along them, each from the lowest vertex not yet visited,
    visit all of W; let r be the last root.  A vertex that r reaches was
    visited by r's own search: an earlier search that visited it would
    have visited r too.  So it reaches r back, and what r reaches is a
    sink component C.  The side is {x} + C, the closure of {x, r}, unless
    C = W.  This is ``modular._maximal_module``'s sweep with the arcs
    reversed: O(n) mask operations.
    """
    nx, na = table[x], table[a]
    rest = vs & ~(1 << x | 1 << a)
    unvisited = rest
    while unvisited:
        root = frontier = unvisited & -unvisited
        while frontier:
            unvisited &= ~frontier
            reach = 0
            for w in mask_vertices(frontier):
                reach |= table[w] ^ na if nx >> w & 1 else table[w]
            frontier = reach & unvisited
    sink = frontier = root
    while frontier:
        reach = 0
        for s in mask_vertices(frontier):
            reach |= table[s] ^ nx if na >> s & 1 else table[s]
        frontier = reach & rest & ~sink
        sink |= frontier
    return None if sink == rest else sink | 1 << x


# -------------------------------------------------------------------------
# decomposition driver


def split_decomposition(g: Graph) -> SplitTree:
    """The canonical split decomposition (Cunningham).

    Works per connected component (a forest of split trees on disconnected
    input).  Every returned component is complete, a star, or prime, and no
    marker pair joins two cliques, or two stars at exactly one centre.
    """
    table = list(g.masks())
    pairs: list[tuple[int, int]] = []       # the two marker ids of a split
    # finished fragments: vertices, kind, star centre id (else -1)
    frags: list[tuple[list[int], str, int]] = []
    work = [sum(1 << v for v in comp) for comp in g.connected_components()]
    while work:
        vs = work.pop()
        verts = list(mask_vertices(vs))
        kind, centre = _degree_kind([table[v].bit_count() for v in verts])
        side = _find_split(table, vs) if kind == PRIME else None
        if side is None:
            frags.append((verts, kind, verts[centre] if kind == STAR else -1))
            continue
        pair = (len(table), len(table) + 1)
        table += [0, 0]
        for piece, across, m in ((side, vs & ~side, pair[0]),
                                 (vs & ~side, side, pair[1])):
            for v in mask_vertices(piece):
                if table[v] & across:
                    table[v] = table[v] & ~across | 1 << m
                    table[m] |= 1 << v
            work.append(piece | 1 << m)
        pairs.append(pair)

    # one pass over the marker pairs, fragments joined by union-find
    owner = [0] * len(table)
    for f, (verts, _, _) in enumerate(frags):
        for v in verts:
            owner[v] = f
    root = list(range(len(frags)))
    merged = bytearray(len(table))
    kept = []
    for a, b in pairs:
        _, kind_a, centre_a = frags[owner[a]]
        _, kind_b, centre_b = frags[owner[b]]
        if kind_a == kind_b == COMPLETE or (
                kind_a == kind_b == STAR and (a == centre_a) != (b == centre_b)):
            root[find_root(root, owner[b])] = find_root(root, owner[a])
            merged[a] = merged[b] = 1
        else:
            kept.append((a, b))

    label = list(range(len(table)))
    for e, (a, b) in enumerate(kept):
        label[a], label[b] = marker_label(e, 0), marker_label(e, 1)
    classes: dict[int, list[int]] = {}
    for f in range(len(frags)):
        classes.setdefault(find_root(root, f), []).append(f)
    st = SplitTree(n=g.n)
    where: dict[int, tuple[int, int]] = {}
    for members in classes.values():
        slots = sorted(v for f in members for v in frags[f][0] if not merged[v])
        kind = frags[members[0]][1]
        if kind == PRIME:
            pos = {v: i for i, v in enumerate(slots)}
            rows = [tuple(pos[w] for w in mask_vertices(table[v]))
                    for v in slots]
            ci = st.add([label[v] for v in slots], graph=Graph.from_rows(rows))
        else:
            if kind == STAR:
                # the one centre no merge consumed; every other slot a leaf
                centre = next(frags[f][2] for f in members
                              if not merged[frags[f][2]])
                slots.remove(centre)
                slots.insert(0, centre)
            ci = st.add([label[v] for v in slots], kind)
        for i, v in enumerate(slots):
            if v >= g.n:
                where[v] = (ci, i)
    st.tree_edges = [(*where[a], *where[b]) for a, b in kept]
    st.validate()
    return st


# -------------------------------------------------------------------------
# kernel trees: partial split decompositions read off other decompositions


def split_tree_from_nd(g: Graph, ndp: modular.NDPartition) -> SplitTree:
    """The twin-class quotient, with a star or complete per class of size
    >= 2 hung off the class's slot (the class's marker at slot 0).  A
    single class of true twins is one complete component."""
    st = SplitTree(n=g.n)
    if len(ndp.classes) == 1:
        if ndp.tags[0] == modular.FALSE_TWINS:
            raise DisconnectedGraphError("disconnected input")
        st.add(list(ndp.classes[0]), COMPLETE)
        st.validate()
        return st
    st.add([cls[0] if len(cls) == 1 else 0 for cls in ndp.classes],
           graph=ndp.quotient)
    for i, cls in enumerate(ndp.classes):
        if len(cls) > 1:
            kind = COMPLETE if ndp.tags[i] == modular.TRUE_TWINS else STAR
            st.add([0, *cls], kind, parent=(0, i))
    st.validate()
    return st


def split_tree_from_modular(g: Graph, md: modular.MDNode) -> SplitTree:
    """The partial split decomposition mirrored off the modular tree.

    One component per internal node: its quotient plus, below the root, a
    universal marker at slot 0 standing for the outside.  Child slots hold
    markers to the child components of internal children, or the child
    vertex itself for leaves.
    """
    st = SplitTree(n=g.n)
    if md.is_leaf():
        st.add([md.vertex], COMPLETE)
        st.validate()
        return st
    if md.kind == modular.PARALLEL:
        raise DisconnectedGraphError("disconnected input")
    # parents before children, first child first, from an explicit stack
    stack: list[tuple[modular.MDNode, tuple[int, int] | None]] = [(md, None)]
    while stack:
        node, parent = stack.pop()
        off = 0 if parent is None else 1
        # an internal child's slot gets its marker when the child is added
        labels = [0] * off + [c.vertex for c in node.children]
        if node.kind == modular.PRIME:
            graph = node.quotient
            if off:
                graph = Graph.from_rows([tuple(range(1, len(labels)))]
                                        + [(0, *(b + 1 for b in row))
                                           for row in graph.adj])
            ci = st.add(labels, graph=graph, parent=parent)
        else:
            # a series node is a clique; below the root a parallel node is
            # a star around the marker
            kind = COMPLETE if node.kind == modular.SERIES else STAR
            ci = st.add(labels, kind, parent=parent)
        for slot in range(len(node.children) - 1, -1, -1):
            if not node.children[slot].is_leaf():
                stack.append((node.children[slot], (ci, slot + off)))
    st.validate()
    return st
