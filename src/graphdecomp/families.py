"""Structured graph generators with ground-truth annotations.

Every generator returns the graph together with the construction facts a
test might want to trust or re-derive: spider partitions, chain labelings,
planted module partitions, or a ready-made split tree.  Annotations expose
positions as vertex ids of the generated graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .graph import Graph, GraphError, build_graph, substitute
from .splitdec import COMPLETE, STAR, SplitTree

KINDS = (
    "Cograph", "ThinSpider", "ThickSpider", "Cycle", "CoCycle",
    "SpikedPk", "SpikedPkBar", "SpikedQk", "SpikedQkBar",
    "ErdosRenyi", "Substitution", "DistanceHereditary",
)


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    n: int = 0                      # main size parameter
    k: int = 0                      # spider half-size / chain length
    p: float = 0.5                  # edge density (ErdosRenyi)
    with_x: bool = False            # spiked P_k extras
    with_y: bool = False
    zs: tuple[int, ...] = ()        # spiked Q_k optional z indices
    r: Optional["FamilySpec"] = None            # spider head
    quotient: Optional["FamilySpec"] = None     # substitution
    parts: tuple["FamilySpec", ...] = ()

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise GraphError(f"unknown family kind {self.kind!r}")
        if self.kind in ("ThinSpider", "ThickSpider") and self.k < 2:
            raise GraphError("spiders need |S| = |K| >= 2")
        if self.kind == "ThickSpider" and self.k < 3:
            raise GraphError("thick spiders need |S| = |K| >= 3")
        if self.kind in ("Cycle", "CoCycle") and self.n < 3:
            raise GraphError("cycles need n >= 3")
        if self.kind in ("CoCycle",) and self.n < 5:
            raise GraphError("discs need n >= 5")
        if self.kind.startswith("Spiked") and self.k < 6:
            raise GraphError("spiked p-chains need k >= 6")
        if self.kind in ("SpikedQk", "SpikedQkBar"):
            for z in self.zs:
                if not 2 <= z <= self.k - 5:
                    raise GraphError(f"z_{z} outside the allowed range 2..k-5")
        if self.kind == "Substitution":
            if self.quotient is None:
                raise GraphError("substitution needs a quotient spec")
        if self.kind in ("Cograph", "ErdosRenyi", "DistanceHereditary") and self.n < 1:
            raise GraphError("need n >= 1")


@dataclass
class GeneratedGraph:
    graph: Graph
    spec: FamilySpec
    annotations: dict = field(default_factory=dict)


def gen_family(spec: FamilySpec, seed: int) -> GeneratedGraph:
    spec.validate()
    rng = random.Random(seed)
    builder = _BUILDERS[spec.kind]
    return builder(spec, rng)


# -- plain families ---------------------------------------------------------


def _gen_cycle(spec: FamilySpec, rng) -> GeneratedGraph:
    n = spec.n
    g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    return GeneratedGraph(g, spec, {"cycle_order": list(range(n))})


def _gen_cocycle(spec: FamilySpec, rng) -> GeneratedGraph:
    n = spec.n
    cyc = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    return GeneratedGraph(cyc.complement(), spec, {"cycle_order": list(range(n))})


def _gen_er(spec: FamilySpec, rng) -> GeneratedGraph:
    n = spec.n
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < spec.p]
    return GeneratedGraph(build_graph(n, edges), spec, {})


def _gen_cograph(spec: FamilySpec, rng) -> GeneratedGraph:
    g, cotree = _random_cograph(spec.n, rng)
    return GeneratedGraph(g, spec, {"cotree": cotree})


def _random_cograph(n: int, rng) -> tuple[Graph, dict]:
    if n == 1:
        return build_graph(1, []), {"op": "leaf"}
    parts = _random_partition(n, rng, max_parts=min(n, 4))
    subs = [_random_cograph(sz, rng) for sz in parts]
    join = rng.random() < 0.5
    quotient = build_graph(len(parts),
                           [(i, j) for i in range(len(parts))
                            for j in range(i + 1, len(parts))] if join else [])
    g = substitute(quotient, [s[0] for s in subs])
    return g, {"op": "join" if join else "union",
               "children": [s[1] for s in subs]}


def _random_partition(n: int, rng, max_parts: int) -> list[int]:
    parts = rng.randint(2, max(2, max_parts))
    cuts = sorted(rng.sample(range(1, n), min(parts - 1, n - 1)))
    sizes = []
    prev = 0
    for c in cuts + [n]:
        sizes.append(c - prev)
        prev = c
    return sizes


# -- spiders ----------------------------------------------------------------


def _gen_spider(spec: FamilySpec, rng, thick: bool) -> GeneratedGraph:
    k = spec.k
    head = gen_family(spec.r, rng.getrandbits(32)) if spec.r else None
    r_n = head.graph.n if head else 0
    # layout: S = 0..k-1, K = k..2k-1, R afterwards
    s_ids = list(range(k))
    k_ids = list(range(k, 2 * k))
    r_ids = list(range(2 * k, 2 * k + r_n))
    edges = [(k_ids[a], k_ids[b]) for a in range(k) for b in range(a + 1, k)]
    for t in range(k):
        if thick:
            edges.extend((s_ids[t], k_ids[u]) for u in range(k) if u != t)
        else:
            edges.append((s_ids[t], k_ids[t]))
    if head:
        edges.extend((r_ids[u], r_ids[v]) for u, v in head.graph.edges())
        edges.extend((kv, rv) for kv in k_ids for rv in r_ids)
    g = build_graph(2 * k + r_n, edges)
    ann = {"spider": {"S": s_ids, "K": k_ids, "R": r_ids,
                      "thick": thick,
                      "matching": {s_ids[t]: k_ids[t] for t in range(k)}}}
    if head:
        ann["head"] = head.annotations
    return GeneratedGraph(g, spec, ann)


# -- spiked p-chains --------------------------------------------------------


def spiked_pk_edges(k: int, with_x: bool, with_y: bool):
    """Path v_1..v_k with optional x (on v_2,v_3) and y (on v_{k-2},v_{k-1}).

    Vertex ids: v_i -> i-1; x -> k; y -> k + (1 if x present).
    Returns (n, edges, roles) with roles mapping names like 'v3'/'x' to ids.
    """
    roles = {f"v{i}": i - 1 for i in range(1, k + 1)}
    edges = [(i - 1, i) for i in range(1, k)]
    n = k
    if with_x:
        roles["x"] = n
        edges += [(n, roles["v2"]), (n, roles["v3"])]
        n += 1
    if with_y:
        roles["y"] = n
        edges += [(n, roles[f"v{k - 2}"]), (n, roles[f"v{k - 1}"])]
        n += 1
    return n, edges, roles


def spiked_qk_edges(k: int, zs: tuple[int, ...]):
    """The split-graph chain Q_k plus the chosen optional z vertices.

    Even-indexed v's and z's form the clique side, odd-indexed ones the
    stable side; neighborhoods follow prefix/suffix patterns in the index.
    Vertex ids: v_i -> i-1; z's appended in increasing index order.
    """
    roles = {f"v{i}": i - 1 for i in range(1, k + 1)}
    n = k
    for z in sorted(zs):
        roles[f"z{z}"] = n
        n += 1

    def adjacent(a: tuple[str, int], b: tuple[str, int]) -> bool:
        (ta, ia), (tb, ib) = a, b
        if ta == "v" and tb == "v":
            if ia % 2 == 0 and ib % 2 == 0:
                return True
            if ia % 2 == 1 and ib % 2 == 1:
                return False
            odd, even = (ia, ib) if ia % 2 == 1 else (ib, ia)
            i = (odd + 1) // 2
            j = even // 2
            return j <= i and j != i - 1
        if ta == "z" and tb == "z":
            if ia % 2 == 0 and ib % 2 == 0:
                return True
            if ia % 2 == 1 and ib % 2 == 1:
                return False
            odd, even = (ia, ib) if ia % 2 == 1 else (ib, ia)
            i = (odd + 1) // 2           # z_{2i-1}
            j = even // 2                # z_{2j}
            return j <= i - 1
        iz, iv = (ia, ib) if ta == "z" else (ib, ia)
        if iz % 2 == 1:                   # z odd: prefix of even v's
            i = (iz + 1) // 2
            return iv % 2 == 0 and iv // 2 <= i
        i = iz // 2                       # z even: all but v-odd prefix
        if iv % 2 == 0:
            return True
        return (iv + 1) // 2 > i + 1

    names = [(name[0], int(name[1:])) for name in roles]
    edges = []
    for a_pos in range(len(names)):
        for b_pos in range(a_pos + 1, len(names)):
            if adjacent(names[a_pos], names[b_pos]):
                edges.append((a_pos, b_pos))
    return n, edges, roles


def _gen_spiked(spec: FamilySpec, rng, kind: str) -> GeneratedGraph:
    if kind in ("SpikedPk", "SpikedPkBar"):
        n, edges, roles = spiked_pk_edges(spec.k, spec.with_x, spec.with_y)
    else:
        n, edges, roles = spiked_qk_edges(spec.k, spec.zs)
    g = build_graph(n, edges)
    if kind.endswith("Bar"):
        g = g.complement()
    return GeneratedGraph(g, spec, {"chain": {"k": spec.k, "roles": roles,
                                              "bar": kind.endswith("Bar")}})


# -- substitution -----------------------------------------------------------


def _gen_substitution(spec: FamilySpec, rng) -> GeneratedGraph:
    quotient = gen_family(spec.quotient, rng.getrandbits(32))
    parts = [gen_family(ps, rng.getrandbits(32)) for ps in spec.parts]
    if len(parts) != quotient.graph.n:
        raise GraphError("substitution needs one part per quotient vertex")
    graphs = [p.graph for p in parts]
    return GeneratedGraph(substitute(quotient.graph, graphs), spec, {
        "modules": _substituted_modules(graphs),
        "quotient": quotient.graph,
        "quotient_annotations": quotient.annotations,
        "part_annotations": [p.annotations for p in parts],
    })


def _substituted_modules(parts: list[Graph]) -> list[list[int]]:
    """The vertex ranges ``substitute`` gives the parts, in part order."""
    modules, start = [], 0
    for p in parts:
        modules.append(list(range(start, start + p.n)))
        start += p.n
    return modules


# -- distance-hereditary via a random split tree ----------------------------


def _gen_distance_hereditary(spec: FamilySpec, rng) -> GeneratedGraph:
    st = random_degenerate_split_tree(spec.n, rng)
    g = st.recompose()
    return GeneratedGraph(g, spec, {"split_tree": st})


def random_degenerate_split_tree(n: int, rng: random.Random) -> SplitTree:
    """Random tree of star/complete components covering n real vertices.

    Totally decomposable recompositions are exactly the distance-hereditary
    graphs, so the result is DH with the tree as its certificate.  Each
    component slot either holds one real vertex or links to a child
    component that covers >= 2 of the remaining budget.
    """
    if n < 1:
        raise GraphError("need n >= 1")
    st = SplitTree(n=n)
    if n <= 2:
        st.add(list(range(n)), COMPLETE)
        st.validate()
        return st

    next_real = 0
    work: list[tuple[int, tuple[int, int] | None]] = [(n, None)]

    while work:
        budget, parent = work.pop()
        min_slots = 3 if parent is None else 2
        slots = rng.randint(min_slots, max(min_slots, min(5, budget)))
        slots = min(slots, budget)
        size = slots + (0 if parent is None else 1)
        # adjacent complete components would recompose into one big clique,
        # which blows the edge count up; keep clique neighbors star-shaped
        parent_complete = (parent is not None
                           and st.components[parent[0]].kind == COMPLETE)
        if size < 3:
            kind = COMPLETE
        elif parent_complete:
            kind = STAR
        else:
            kind = rng.choice((COMPLETE, STAR))
        labels = [0] * size
        ci = st.add(labels, kind, parent=parent, up=size - 1)
        parts = _random_composition(budget, slots, rng)
        for idx, part in enumerate(parts):
            if part == 1:
                labels[idx] = next_real
                next_real += 1
            else:
                work.append((part, (ci, idx)))

    st.validate()
    return st


def _random_composition(total: int, parts: int, rng) -> list[int]:
    if parts == 1:
        return [total]
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    out = []
    prev = 0
    for c in cuts + [total]:
        out.append(c - prev)
        prev = c
    return out


# -- named instance streams (CLI check / tests) ------------------------------

FAMILY_NAMES = (
    "cograph", "er", "distance-hereditary", "cycle", "co-cycle",
    "thin-spider", "thick-spider", "spiked-pk", "spiked-pk-bar",
    "spiked-qk", "spiked-qk-bar", "substitution", "qq3-mix", "mixed",
)


def random_instance(family: str, n: int, rng: random.Random,
                    connected: bool = True) -> GeneratedGraph:
    """One pseudo-random member of a named family with about n vertices."""
    if family == "mixed":
        family = FAMILY_NAMES[rng.randrange(len(FAMILY_NAMES) - 1)]
    for _ in range(64):
        gg = _random_instance_once(family, n, rng)
        if not connected or gg.graph.is_connected():
            return gg
    raise GraphError(f"could not draw a connected {family} instance")


def _random_instance_once(family: str, n: int, rng) -> GeneratedGraph:
    seed = rng.getrandbits(32)
    n = max(1, n)
    if family == "cograph":
        return gen_family(FamilySpec(kind="Cograph", n=n), seed)
    if family == "er":
        p = rng.uniform(2.0 / max(2, n), 0.7)
        return gen_family(FamilySpec(kind="ErdosRenyi", n=n, p=p), seed)
    if family == "distance-hereditary":
        return gen_family(FamilySpec(kind="DistanceHereditary", n=n), seed)
    if family == "cycle":
        return gen_family(FamilySpec(kind="Cycle", n=max(3, n)), seed)
    if family == "co-cycle":
        return gen_family(FamilySpec(kind="CoCycle", n=max(5, n)), seed)
    if family in ("thin-spider", "thick-spider"):
        thick = family == "thick-spider"
        k = max(3 if thick else 2, n // 3)
        head_n = max(0, n - 2 * k)
        spec = FamilySpec(kind="ThickSpider" if thick else "ThinSpider", k=k,
                          r=FamilySpec(kind="Cograph", n=head_n) if head_n else None)
        return gen_family(spec, seed)
    if family in ("spiked-pk", "spiked-pk-bar"):
        k = max(6, n - 2)
        spec = FamilySpec(kind="SpikedPkBar" if family.endswith("bar") else "SpikedPk",
                          k=k, with_x=rng.random() < 0.5, with_y=rng.random() < 0.5)
        return gen_family(spec, seed)
    if family in ("spiked-qk", "spiked-qk-bar"):
        k = max(6, (2 * n) // 3)
        hi = k - 5
        zs = ()
        if hi >= 2:
            count = rng.randint(0, min(hi - 1, max(0, n - k)))
            zs = tuple(sorted(rng.sample(range(2, hi + 1), count)))
        spec = FamilySpec(kind="SpikedQkBar" if family.endswith("bar") else "SpikedQk",
                          k=k, zs=zs)
        return gen_family(spec, seed)
    if family == "substitution":
        k = rng.randint(2, max(2, min(7, n // 2)))
        quotient = _connected_quotient_spec(k, rng)
        sizes = _random_composition(max(k, n), k, rng)
        parts = tuple(FamilySpec(kind="Cograph", n=s) for s in sizes)
        return gen_family(FamilySpec(kind="Substitution", quotient=quotient,
                                     parts=parts), seed)
    if family == "qq3-mix":
        return _qq3_mix_instance(n, rng)
    raise GraphError(f"unknown family {family!r}")


def _connected_quotient_spec(k: int, rng) -> FamilySpec:
    if k >= 5 and rng.random() < 0.4:
        return FamilySpec(kind="Cycle", n=k)
    return FamilySpec(kind="ErdosRenyi", n=k, p=rng.uniform(0.4, 0.9))


def _qq3_mix_instance(n: int, rng) -> GeneratedGraph:
    """A spiked p-chain quotient with cographs at its allowed positions."""
    bar = rng.random() < 0.5
    if rng.random() < 0.5:
        k = max(6, n // 2)
        base = FamilySpec(kind="SpikedPk", k=k,
                          with_x=rng.random() < 0.6, with_y=rng.random() < 0.6)
        allowed_prefixes = {"v1", f"v{k}", "x", "y"}
    else:
        k = max(6, n // 2)
        hi = k - 5
        zs = tuple(sorted(rng.sample(range(2, hi + 1),
                                     rng.randint(0, hi - 1)))) if hi >= 2 else ()
        base = FamilySpec(kind="SpikedQk", k=k, zs=zs)
        allowed_prefixes = {"v1", f"v{k}"} | {f"z{z}" for z in zs}
    gg = gen_family(base, rng.getrandbits(32))
    roles = gg.annotations["chain"]["roles"]
    quotient = gg.graph.complement() if bar else gg.graph
    budget = max(0, n - quotient.n)
    parts = []
    by_vertex = {vid: name for name, vid in roles.items()}
    for v in range(quotient.n):
        name = by_vertex[v]
        if name in allowed_prefixes and budget > 0 and rng.random() < 0.7:
            extra = rng.randint(1, min(4, budget + 1) - 1) if budget else 0
            budget -= extra
            parts.append(gen_family(
                FamilySpec(kind="Cograph", n=1 + extra), rng.getrandbits(32)).graph)
        else:
            parts.append(build_graph(1, []))
    graph = substitute(quotient, parts)
    spec = FamilySpec(kind="Substitution", quotient=base)
    return GeneratedGraph(graph, spec, {"modules": _substituted_modules(parts),
                                        "chain": gg.annotations["chain"],
                                        "bar": bar})


_BUILDERS = {
    "Cograph": _gen_cograph,
    "ThinSpider": lambda spec, rng: _gen_spider(spec, rng, thick=False),
    "ThickSpider": lambda spec, rng: _gen_spider(spec, rng, thick=True),
    "Cycle": _gen_cycle,
    "CoCycle": _gen_cocycle,
    "SpikedPk": lambda spec, rng: _gen_spiked(spec, rng, "SpikedPk"),
    "SpikedPkBar": lambda spec, rng: _gen_spiked(spec, rng, "SpikedPkBar"),
    "SpikedQk": lambda spec, rng: _gen_spiked(spec, rng, "SpikedQk"),
    "SpikedQkBar": lambda spec, rng: _gen_spiked(spec, rng, "SpikedQkBar"),
    "ErdosRenyi": _gen_er,
    "Substitution": _gen_substitution,
    "DistanceHereditary": _gen_distance_hereditary,
}
