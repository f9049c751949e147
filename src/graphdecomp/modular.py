"""Modular decomposition, modular-width, and the twin-class partition.

The tree follows Gallai's trichotomy: a node is parallel (disconnected),
series (co-disconnected), or prime (the quotient over the maximal strong
modules has only trivial modules).  The strong-module computation is a
partition refinement over neighborhood bitmasks: refining around a pivot
vertex yields the maximal modules avoiding it, and the pivot's own module
is recovered as the largest class containing it over refinements around
representatives of every other class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, GraphError, build_graph, find_root, mask_vertices

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
        out: dict = {"kind": self.kind, "vertices": list(self.vertices)}
        if self.kind == LEAF:
            out["vertex"] = self.vertex
        else:
            out["children"] = [c.to_json() for c in self.children]
        if self.quotient is not None:
            out["quotient_edges"] = sorted(self.quotient.edges())
        return out


def modular_decomposition(g: Graph) -> MDNode:
    if g.n == 0:
        raise GraphError("modular decomposition of the empty graph")
    return _decompose(tuple(range(g.n)), g)


def _decompose(vertices: tuple[int, ...], g: Graph) -> MDNode:
    if len(vertices) == 1:
        return MDNode(LEAF, vertices, vertex=vertices[0])
    masks = g.masks()
    in_set = 0
    for v in vertices:
        in_set |= 1 << v

    comps = _components(vertices, masks, in_set, complement=False)
    if len(comps) > 1:
        children = [_decompose(c, g) for c in comps]
        return MDNode(PARALLEL, vertices, children)
    cocomps = _components(vertices, masks, in_set, complement=True)
    if len(cocomps) > 1:
        children = [_decompose(c, g) for c in cocomps]
        return MDNode(SERIES, vertices, children)

    modules = _maximal_strong_modules(vertices, masks, in_set)
    children = [_decompose(mod, g) for mod in modules]
    return MDNode(PRIME, vertices, children,
                  quotient=quotient_graph(g, modules))


def _components(vertices, masks, in_set: int, complement: bool):
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
        comps.append(tuple(mask_vertices(comp)))
    return comps


def _refine_around(pivot: int, vertices, masks, in_set: int) -> list[int]:
    """Coarsest partition of the set minus pivot into modules avoiding pivot.

    Classes are bitmasks.  Splitting preserves every module avoiding the
    pivot, so the fixpoint classes are exactly the maximal ones.
    """
    pbit = 1 << pivot
    nbrs = masks[pivot] & in_set & ~pbit
    rest = in_set & ~pbit & ~nbrs
    classes = [c for c in (nbrs, rest) if c]
    while True:
        changed = False
        for z in mask_vertices(in_set):
            zadj = masks[z]
            out = []
            for cls in classes:
                if cls >> z & 1:
                    out.append(cls)
                    continue
                inter = cls & zadj
                if inter and inter != cls:
                    out.append(inter)
                    out.append(cls & ~inter)
                    changed = True
                else:
                    out.append(cls)
            classes = out
        if not changed:
            return classes


def _min_module_closure(masks, in_set: int, module: int) -> int:
    """Smallest module containing the given set (forced-vertex fixpoint)."""
    while True:
        add = 0
        rest = in_set & ~module
        z = rest
        while z:
            b = z & -z
            z ^= b
            a = masks[b.bit_length() - 1] & module
            if a and a != module:
                add |= b
        if not add:
            return module
        module |= add
        if module == in_set:
            return module


def _maximal_strong_modules(vertices, masks, in_set: int):
    """Partition into maximal strong modules; the quotient is prime (Gallai).

    Refining around a pivot yields the maximal modules avoiding it; the
    pivot's own strong module is the union of every proper minimal module
    through the pivot, probed once per refinement class.
    """
    v = vertices[0]
    classes = _refine_around(v, vertices, masks, in_set)
    vbit = 1 << v
    best = vbit
    for cls in classes:
        # a class lies fully inside or fully outside the pivot's strong
        # module, so one whole-class probe settles it
        if cls & ~best == 0:
            continue
        closure = _min_module_closure(masks, in_set, vbit | cls)
        if closure != in_set:
            best |= closure
    modules = [tuple(mask_vertices(best))]
    for cls in classes:
        if cls & best:
            continue
        modules.append(tuple(mask_vertices(cls)))
    modules.sort()
    total = sum(len(m) for m in modules)
    if total != len(vertices):
        raise GraphError("strong module computation did not partition the set")
    return modules


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


def quotient_graph(g: Graph, modules: list[tuple[int, ...]]) -> Graph:
    reps = [mod[0] for mod in modules]
    masks = g.masks()
    edges = []
    for i, u in enumerate(reps):
        for j in range(i + 1, len(reps)):
            if masks[u] >> reps[j] & 1:
                edges.append((i, j))
    return build_graph(len(modules), edges)


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
    """Coarsest partition into twin classes (u ~ v iff N(u)\\v = N(v)\\u)."""
    masks = g.masks()
    parent = list(range(g.n))

    def union(a: int, b: int) -> None:
        ra, rb = find_root(parent, a), find_root(parent, b)
        if ra != rb:
            parent[rb] = ra

    by_open: dict[int, int] = {}
    by_closed: dict[int, int] = {}
    for v in range(g.n):
        o = masks[v]
        c = masks[v] | (1 << v)
        if o in by_open:
            union(by_open[o], v)
        else:
            by_open[o] = v
        if c in by_closed:
            union(by_closed[c], v)
        else:
            by_closed[c] = v

    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find_root(parent, v), []).append(v)
    classes = sorted(tuple(sorted(vs)) for vs in groups.values())

    tags = []
    for cls in classes:
        if len(cls) == 1:
            tags.append(TRUE_TWINS)
        elif g.has_edge(cls[0], cls[1]):
            _check_clique(g, cls)
            tags.append(TRUE_TWINS)
        else:
            _check_stable(g, cls)
            tags.append(FALSE_TWINS)
    quotient = quotient_graph(g, list(classes))
    return NDPartition(list(classes), tags, quotient)


def _check_clique(g: Graph, cls) -> None:
    for i, u in enumerate(cls):
        for v in cls[i + 1:]:
            if not g.has_edge(u, v):
                raise GraphError("twin class is neither a clique nor a stable set")


def _check_stable(g: Graph, cls) -> None:
    for i, u in enumerate(cls):
        for v in cls[i + 1:]:
            if g.has_edge(u, v):
                raise GraphError("twin class is neither a clique nor a stable set")
