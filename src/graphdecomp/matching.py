"""Maximum matching via modular decomposition and the few-P4 case analysis.

The modular algorithm solves each strong module bottom-up, reduces module
interiors to their matchings, then closes the gap inside a bounded witness
subgraph: one representative per way an augmenting path can interact with
a module (one internal matched edge, one internal non-matching edge with
its incident matched edges, at most four matched edges per adjacent module
pair, at most two unmatched vertices per module).  The witness has an
augmenting path exactly when the matching is not maximum, so each round
solves the witness to maximum and the loop stops at the first round that
gains nothing.  The few-P4 variant dispatches large prime quotients to closed
forms: discs and spiders directly, spiked p-chains by cascades of the
pending-module rule and the SPLIT/MATCH join technique.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blossom import Matching, maximum_matching
from .classify import (DISC_COCYCLE, DISC_CYCLE, SPIKED_PK, SPIKED_PK_BAR,
                       SPIKED_QK, SPIKED_QK_BAR, THICK_SPIDER, THIN_SPIDER,
                       classify_prime_graph)
from .graph import Graph, GraphError, build_graph
from .modular import MDNode, PRIME, SERIES, modular_decomposition


class StructuralError(GraphError):
    """A generated-instance structure assertion failed at dispatch time."""


#: (witness order, quotient edge count) pairs; tests read the ratio bound.
WITNESS_STATS: list[tuple[int, int]] = []
COLLECT_WITNESS_STATS = False


# -------------------------------------------------------------------------
# reduction and witness construction


def reduce_module_edges(g: Graph, modules: list[list[int]],
                        module_matchings: list[list[tuple[int, int]]]) -> Graph:
    """Replace every module's interior edges by its matching edges."""
    module_of = {}
    for i, mod in enumerate(modules):
        for v in mod:
            module_of[v] = i
    keep = []
    for u, v in g.edges():
        if module_of.get(u) == module_of.get(v) and module_of.get(u) is not None:
            continue
        keep.append((u, v))
    for edges in module_matchings:
        keep.extend(edges)
    return build_graph(g.n, keep)


@dataclass
class WitnessGraph:
    vertices: list[int]            # original vertex ids, sorted
    graph: Graph                   # induced reduced subgraph on those ids
    matching: Matching             # the retained matching, on witness ids


def build_witness(modules: list[list[int]], quotient: Graph,
                  fm_partner: dict[int, int], mate: list) -> WitnessGraph:
    """Bounded characteristic subgraph for the current matching.

    Module i is vertex i of the prime ``quotient``.  ``fm_partner`` maps
    each vertex matched inside its module's retained matching to its
    partner (the reduced interior edges); ``mate`` is the evolving global
    matching over original ids.
    """
    module_of = {}
    for i, mod in enumerate(modules):
        for v in mod:
            module_of[v] = i

    intra_f: dict[int, list[tuple[int, int]]] = {}
    cross_f: dict[tuple[int, int], list[tuple[int, int]]] = {}
    unmatched: dict[int, list[int]] = {}
    for i, mod in enumerate(modules):
        for u in mod:
            v = mate[u]
            if v is None:
                unmatched.setdefault(i, []).append(u)
                continue
            if v not in module_of or u > v:
                continue
            a, b = module_of[u], module_of[v]
            if a == b:
                intra_f.setdefault(a, []).append((u, v))
            else:
                cross_f.setdefault((min(a, b), max(a, b)), []).append(
                    (min(u, v), max(u, v)))

    fprime: list[tuple[int, int]] = []
    for i in range(len(modules)):
        edges = sorted(intra_f.get(i, []))
        if edges:
            fprime.append(edges[0])
        broken = sorted((u, v) for u, v in _module_interior_edges(modules[i], fm_partner)
                        if mate[u] != v)
        if broken:
            x, y = broken[0]
            for w in (x, y):
                p = mate[w]
                if p is None:
                    raise GraphError("reduced interior edge with unmatched end")
                fprime.append((min(w, p), max(w, p)))
    for key, edges in cross_f.items():
        for e in sorted(edges)[:4]:
            fprime.append(e)

    fprime = sorted(set(fprime))
    chosen = set()
    for u, v in fprime:
        chosen.add(u)
        chosen.add(v)
    for i in range(len(modules)):
        for u in sorted(unmatched.get(i, []))[:2]:
            chosen.add(u)

    vertices = sorted(chosen)
    index = {v: i for i, v in enumerate(vertices)}
    # a witness vertex sees every witness vertex of the modules adjacent to
    # its own in the quotient, and its retained partner
    members: dict[int, list[int]] = {}
    for i, v in enumerate(vertices):
        members.setdefault(module_of[v], []).append(i)
    rows: list[tuple[int, ...]] = [()] * len(vertices)
    for mod, ids in members.items():
        across = sorted([i for q in quotient.adj[mod] if q in members
                         for i in members[q]])
        for i in ids:
            p = index.get(fm_partner.get(vertices[i]))
            rows[i] = tuple(across if p is None else sorted(across + [p]))
    wg = Graph.from_rows(rows)
    wmate = [None] * len(vertices)
    for u, v in fprime:
        wmate[index[u]] = index[v]
        wmate[index[v]] = index[u]
    if COLLECT_WITNESS_STATS:
        WITNESS_STATS.append((len(vertices), quotient.m))
    return WitnessGraph(vertices=vertices, graph=wg, matching=Matching(wmate))


def _module_interior_edges(module: list[int], fm_partner: dict[int, int]):
    for u in module:
        v = fm_partner.get(u)
        if v is not None and u < v:
            yield (u, v)


def _witness_loop(modules: list[list[int]], quotient: Graph,
                  mate: list) -> None:
    """Solve witness subgraphs to maximum until a witness gains nothing.

    Each round matches its witness maximum from the retained matching and
    writes the new mates back.  That is sound: a witness vertex's mate is
    a witness vertex, every witness edge is an edge of the graph (quotient
    neighbours are completely joined, partner edges are retained matching
    edges), and the witness matching grows only by augmenting paths inside
    the witness, each of which augments the global matching too.  A round
    that gains nothing means the witness has no augmenting path, so by the
    witness lemma the matching is maximum.  Every other round gains at
    least one edge.
    """
    fm_partner: dict[int, int] = {}
    for mod in modules:
        mod_set = set(mod)
        for v in mod:
            p = mate[v]
            if p is not None and p in mod_set:
                fm_partner[v] = p
    rounds = 0
    limit = sum(len(m) for m in modules) + 2
    while True:
        rounds += 1
        if rounds > limit:
            raise GraphError("witness loop failed to terminate")
        wg = build_witness(modules, quotient, fm_partner, mate)
        best = maximum_matching(wg.graph, wg.matching)
        gain = best.cardinality() - wg.matching.cardinality()
        if not gain:
            return
        for i, w in enumerate(best.mate):
            mate[wg.vertices[i]] = None if w is None else wg.vertices[w]


# -------------------------------------------------------------------------
# the modular-width algorithm


def max_matching_modular(g: Graph, md: MDNode | None = None) -> Matching:
    return _max_matching(g, md, by_class=False)


def _max_matching(g: Graph, md: MDNode | None, by_class: bool) -> Matching:
    """Solve every strong module after the modules below it.

    ``iter_nodes`` lists each node before its descendants, so the reversed
    list is a children-first walk with no recursion.  Sibling subtrees
    cover disjoint vertex sets and a node reads and writes the mates of its
    own vertices only, so the order among siblings leaves the matching
    unchanged.  A parallel node has nothing to add.  A prime node runs the
    witness loop over its quotient; with ``by_class`` it first tries the
    procedure of its few-P4 quotient class.

    A series node joins its children one at a time in one ``match_join``
    (Yu and Yang, IPL 1993), which needs no augmenting path.  Let M1 and
    M2 be maximum matchings of the two sides of a complete join, of n1
    and n2 vertices.  After MATCH only one side, say side 1, has unmatched
    vertices, and each SPLIT uses two of them and one M2 edge.  SPLIT
    stops in one of two ways.  Either at most one vertex is left
    unmatched, and the matching is maximum.  Or every vertex of side 2 is
    matched across, M1 is untouched, and the size is n2 + |M1|.  No
    matching of the join is larger: with c <= n2 crossing edges it has at
    most |M1| edges inside side 1 and (n2 - c)/2 inside side 2, so at most
    (n2 + c)/2 + |M1| <= n2 + |M1| edges.  ``match_join`` runs MATCH and
    SPLIT once from each side, the part joined so far first.  If side 1 is
    that part, the first run does all of the above and the second finds no
    unmatched vertex on side 2.  If side 1 is the new child, the first run
    only MATCHes, so the M2 edges that the second run splits are intact;
    the edges the first run made are not among them.  The joined sides
    then carry a maximum matching of their union, which is what the next
    join needs.
    """
    if md is None:
        md = modular_decomposition(g)
    mate: list = [None] * g.n
    for node in reversed(list(md.iter_nodes())):
        if node.kind == SERIES:
            match_join(mate, *(c.vertices for c in node.children))
        elif node.kind == PRIME and not (
                by_class and _solve_prime_by_class(g, node, mate)):
            modules = [list(c.vertices) for c in node.children]
            _witness_loop(modules, node.quotient, mate)
    out = Matching(mate)
    out.validate(g)
    return out


# -------------------------------------------------------------------------
# reduction rules for the few-P4 cases


def pending_module_rule(module: list[int], pivot: int, mate: list
                        ) -> tuple[list[tuple[int, int]], set[int]]:
    """Commit the pending-module reduction; returns (new edges, discarded).

    The module's interior matching is kept; if it is not perfect, the
    pivot gets matched to the smallest unmatched module vertex and leaves
    the game with the whole module, otherwise the module alone retires.
    """
    mod_set = set(module)
    unmatched = sorted(v for v in module if mate[v] is None)
    added = []
    if unmatched:
        u = unmatched[0]
        if mate[pivot] is not None:
            raise StructuralError("pending pivot is already matched")
        mate[u] = pivot
        mate[pivot] = u
        added.append((min(u, pivot), max(u, pivot)))
        discarded = mod_set | {pivot}
    else:
        discarded = mod_set
    return added, discarded


def split_and_match(mate: list, side_m: list[int], side_n: list[int]) -> int:
    """Exhaust MATCH then SPLIT between a module and its neighborhood.

    Returns the number of operations applied.  ``side_n`` must be joined
    completely to ``side_m`` (module neighborhood), which makes every new
    edge real.
    """
    free_m = [v for v in sorted(side_m, reverse=True) if mate[v] is None]
    free_n = [v for v in sorted(side_n, reverse=True) if mate[v] is None]
    return _match_then_split(mate, free_m, free_n,
                             _inner_edges(mate, side_n), [])


def _inner_edges(mate: list, side) -> list[tuple[int, int]]:
    """The matched edges with both ends in ``side``."""
    in_side = set(side)
    return [(u, v) for u in side for v in (mate[u],)
            if v is not None and v in in_side and u < v]


def _match_then_split(mate: list, free_m: list[int], free_n: list[int],
                      inner_n: list[tuple[int, int]],
                      made: list[tuple[int, int]]) -> int:
    """MATCH, then SPLIT, popping the stacks it is given.

    ``free_m`` and ``free_n`` hold unmatched vertices of the two sides and
    ``inner_n`` matched edges inside side n; each SPLIT pops the one edge
    it breaks.  The new edges are pushed on ``made``.  Returns the number
    of operations applied.
    """
    ops = 0
    while True:
        if free_m and free_n:
            u, v = free_m.pop(), free_n.pop()
            mate[u], mate[v] = v, u
            made.append((u, v))
        elif len(free_m) >= 2 and inner_n:
            a, b = inner_n.pop()
            u, u2 = free_m.pop(), free_m.pop()
            mate[u], mate[a], mate[u2], mate[b] = a, u, b, u2
            made += ((u, a), (u2, b))
        else:
            return ops
        ops += 1


def match_join(mate: list, *sides: list[int]) -> None:
    """Make the matching maximum on the complete join of solved sides.

    The sides are joined one at a time.  The unmatched vertices and the
    inner matched edges of the part joined so far are stacks kept across
    sides, so a side costs its own size plus the operations it takes.
    """
    free: list[int] = []
    inner: list[tuple[int, int]] = []
    for side in sides:
        side_free = [v for v in side if mate[v] is None]
        side_inner = _inner_edges(mate, side)
        made: list[tuple[int, int]] = []
        _match_then_split(mate, free, side_free, side_inner, made)
        _match_then_split(mate, side_free, free, inner, made)
        # after MATCH at most one of the two sides has unmatched vertices
        free = free or side_free
        inner += side_inner
        inner += made


def match_disc(g: Graph, cycle_order: list[int], is_cocycle: bool,
               mate: list) -> None:
    n = len(cycle_order)
    if not is_cocycle:
        for i in range(n // 2):
            u, v = cycle_order[2 * i], cycle_order[2 * i + 1]
            mate[u] = v
            mate[v] = u
        return
    pairs = []
    for i in range(n // 4):
        pairs.append((4 * i, 4 * i + 2))
        pairs.append((4 * i + 1, 4 * i + 3))
    if n % 4 == 3:
        pairs.append((n - 3, n - 1))
    elif n % 4 == 2:
        pairs.remove((0, 2))
        pairs.append((n - 2, 0))
        pairs.append((n - 1, 2))
    for a, b in pairs:
        u, v = cycle_order[a], cycle_order[b]
        if not g.has_edge(u, v):
            raise StructuralError("disc matching used a non-edge")
        mate[u] = v
        mate[v] = u


def match_spider(g: Graph, s_list: list[int], matching: dict[int, int],
                 thick: bool, mate: list) -> None:
    """Perfect S-K matching on top of the head's matching (Lemma form).

    A thin spider pairs each S vertex with its own K vertex, a thick one
    with the K vertex of the next S vertex in ``s_list``, cyclically.
    """
    for t, s in enumerate(s_list):
        partner = matching[s_list[(t + thick) % len(s_list)]]
        if not g.has_edge(s, partner):
            kind = "thick" if thick else "thin"
            raise StructuralError(f"{kind} spider pairing used a non-edge")
        mate[s] = partner
        mate[partner] = s


# -------------------------------------------------------------------------
# prime p-tree procedures


def _roles_to_modules(node: MDNode, witness_roles: dict[str, int]):
    """Map role names to module vertex lists via the quotient order."""
    return {name: list(node.children[q].vertices)
            for name, q in witness_roles.items()}


def _fat_roles(witness: dict, qk: bool) -> set[str]:
    """Roles at which a spiked p-chain procedure takes a nontrivial module."""
    k = witness["k"]
    if qk:
        return {"v1", f"v{k}"} | {n for n in witness["roles"]
                                  if n.startswith("z")}
    return {"v1", f"v{k}", "x", "y"}


def _assert_trivial(mods: dict[str, list[int]], allowed: set[str]) -> None:
    for name, mod in mods.items():
        if len(mod) > 1 and name not in allowed:
            raise StructuralError(
                f"nontrivial module at disallowed position {name}")


def _neighborhood_in(g: Graph, vertices: set[int], scope: set[int]) -> set[int]:
    out = set()
    for v in vertices:
        out.update(w for w in g.adj[v] if w in scope and w not in vertices)
    return out


def _pending_stage(g: Graph, module: list[int], alive: set[int],
                   mate: list) -> set[int]:
    """Apply the pending rule inside the alive region; returns discarded."""
    nb = _neighborhood_in(g, set(module), alive)
    if len(nb) != 1:
        raise StructuralError("pending module has more than one neighbor")
    pivot = next(iter(nb))
    _, discarded = pending_module_rule(module, pivot, mate)
    return discarded


def _match_pk(g: Graph, node: MDNode, witness: dict, mate: list) -> None:
    roles = witness["roles"]
    k = witness["k"]
    mods = _roles_to_modules(node, roles)
    _assert_trivial(mods, _fat_roles(witness, qk=False))
    alive = set(v for mod in mods.values() for v in mod)

    lo, hi = 1, k

    def path_vertex(i: int) -> int:
        return mods[f"v{i}"][0]

    # left cascade: the end module, then the x side
    discarded = _pending_stage(g, mods["v1"], alive, mate)
    alive -= discarded
    lo = 2
    if path_vertex(2) not in alive:
        lo = 3
    s_block = list(mods.get("x", []))
    if lo == 2:
        s_block = s_block + [path_vertex(2)]
    if s_block:
        if "x" in mods and lo == 2:
            spare = sorted(v for v in mods["x"] if mate[v] is None)
            if spare:
                u = spare[0]
                mate[u] = path_vertex(2)
                mate[path_vertex(2)] = u
        discarded = _pending_stage(g, s_block, alive, mate)
        alive -= discarded
        lo = 3
        if path_vertex(3) not in alive:
            lo = 4

    # right cascade, mirrored
    discarded = _pending_stage(g, mods[f"v{k}"], alive, mate)
    alive -= discarded
    hi = k - 1
    if path_vertex(k - 1) not in alive:
        hi = k - 2
    s_block = list(mods.get("y", []))
    if hi == k - 1:
        s_block = s_block + [path_vertex(k - 1)]
    if s_block:
        if "y" in mods and hi == k - 1:
            spare = sorted(v for v in mods["y"] if mate[v] is None)
            if spare:
                u = spare[0]
                mate[u] = path_vertex(k - 1)
                mate[path_vertex(k - 1)] = u
        discarded = _pending_stage(g, s_block, alive, mate)
        alive -= discarded
        hi = k - 2
        if path_vertex(k - 2) not in alive:
            hi = k - 3

    i = lo
    while i + 1 <= hi:
        u, v = path_vertex(i), path_vertex(i + 1)
        mate[u] = v
        mate[v] = u
        i += 2


def _match_pk_bar(g: Graph, node: MDNode, witness: dict, mate: list) -> None:
    roles = witness["roles"]
    k = witness["k"]
    mods = _roles_to_modules(node, roles)
    _assert_trivial(mods, _fat_roles(witness, qk=False))

    def pv(i: int) -> int:
        return mods[f"v{i}"][0]

    inner_pairs = [(2, k // 2 + (k % 2) + 1), (k // 2, k - 1)]
    inner_pairs += [(i, k + 1 - i) for i in range(3, k // 2)]
    for a, b in inner_pairs:
        u, v = pv(a), pv(b)
        if not g.has_edge(u, v):
            raise StructuralError("complement chain pairing used a non-edge")
        mate[u] = v
        mate[v] = u

    fat = [mods[name] for name in ("v1", f"v{k}", "x", "y") if name in mods]
    scope = set(v for mod in mods.values() for v in mod)
    progress = True
    while progress:
        progress = False
        for mod in fat:
            nb = sorted(_neighborhood_in(g, set(mod), scope))
            if split_and_match(mate, mod, nb):
                progress = True


def _match_qk(g: Graph, node: MDNode, witness: dict, mate: list,
              bar: bool) -> None:
    roles = witness["roles"]
    k = witness["k"]
    mods = _roles_to_modules(node, roles)
    _assert_trivial(mods, _fat_roles(witness, qk=True))

    def mod_of(name: str) -> list[int]:
        return mods.get(name, [])

    alive = set(v for mod in mods.values() for v in mod)
    joins: list[tuple[list[list[int]], set[int]]] = []
    if bar:
        u_prev = [mod_of("v1")] if mod_of("v1") else []
        alive -= set(mod_of("v1"))
        i = 1
        last = k // 2
    else:
        u_prev = []
        i = 1
        last = (k + 1) // 2

    while True:
        if i >= last:
            region = set(alive)
            for mod in u_prev:
                region |= set(mod)
            _solve_region_modular(g, sorted(region), mate)
            break
        pend_name = f"v{2 * i}" if bar else f"v{2 * i - 1}"
        anchor_name = f"v{2 * i + 1}" if bar else f"v{2 * i}"
        z_low = f"z{2 * i}" if bar else f"z{2 * i - 1}"
        z_high = f"z{2 * i + 1}" if bar else f"z{2 * i}"
        anchor = mods[anchor_name][0]

        discarded = _pending_stage(g, mods[pend_name], alive, mate)
        alive -= discarded
        if u_prev:
            joins.append((u_prev, set(alive)))
        anchor_alive = anchor in alive

        u_next: list[list[int]] = []
        if not anchor_alive:
            if mod_of(z_low):
                alive -= set(mod_of(z_low))
            if mod_of(z_high):
                u_next.append(mod_of(z_high))
        else:
            if mod_of(z_low):
                discarded = _pending_stage(g, mod_of(z_low), alive, mate)
                alive -= discarded
            if mod_of(z_high):
                u_next.append(mod_of(z_high))
            if anchor in alive:
                u_next.append(mods[anchor_name])
        for mod in u_next:
            alive -= set(mod)
        u_prev = u_next
        i += 1

    for u_mods, region in reversed(joins):
        flat = [v for mod in u_mods for v in mod]
        if len(u_mods) == 2:
            match_join(mate, u_mods[0], u_mods[1])
        match_join(mate, flat, sorted(region))


def _solve_region_modular(g: Graph, region: list[int], mate: list) -> None:
    if not region:
        return
    region_set = set(region)
    for v in region:
        if mate[v] is not None and mate[v] not in region_set:
            raise StructuralError("base region matched across its boundary")
    sub, back = g.induced(region)
    local = max_matching_modular(sub)
    for v in region:
        mate[v] = None
    for u, v in local.edges():
        mate[back[u]] = back[v]
        mate[back[v]] = back[u]


def max_matching_prime_ptree(g: Graph, node: MDNode, cls,
                             mate: list) -> None:
    if cls.tag == SPIKED_PK:
        _match_pk(g, node, cls.witness, mate)
    elif cls.tag == SPIKED_PK_BAR:
        _match_pk_bar(g, node, cls.witness, mate)
    elif cls.tag == SPIKED_QK:
        _match_qk(g, node, cls.witness, mate, bar=False)
    elif cls.tag == SPIKED_QK_BAR:
        _match_qk(g, node, cls.witness, mate, bar=True)
    else:
        raise StructuralError(f"not a prime p-tree class: {cls.tag}")


# -------------------------------------------------------------------------
# the (q, q-3) algorithm


def max_matching_qq3(g: Graph, md: MDNode | None = None) -> Matching:
    return _max_matching(g, md, by_class=True)


def _solve_prime_by_class(g: Graph, node: MDNode, mate: list) -> bool:
    """Match a prime node by its quotient class's procedure, if one applies.

    A class procedure runs only where it allows every nontrivial module;
    elsewhere this returns False and the node takes the generic witness
    loop.
    """
    cls = classify_prime_graph(node.quotient, check_prime=False)
    wit = cls.witness
    fat = {q for q, c in enumerate(node.children) if len(c.vertices) > 1}
    if cls.tag in (DISC_CYCLE, DISC_COCYCLE) and not fat:
        order = [node.children[q].vertices[0] for q in wit["cycle_order"]]
        match_disc(g, order, cls.tag == DISC_COCYCLE, mate)
        return True
    if (cls.tag in (THIN_SPIDER, THICK_SPIDER)
            and fat.isdisjoint(wit["S"] + wit["K"])):
        first = [c.vertices[0] for c in node.children]
        matching = {first[s]: first[wit["matching"][s]] for s in wit["S"]}
        match_spider(g, [first[s] for s in wit["S"]], matching,
                     wit["thick"], mate)
        return True
    if cls.tag in (SPIKED_PK, SPIKED_PK_BAR, SPIKED_QK, SPIKED_QK_BAR):
        allowed = _fat_roles(wit, qk=cls.tag in (SPIKED_QK, SPIKED_QK_BAR))
        if fat <= {q for name, q in wit["roles"].items() if name in allowed}:
            max_matching_prime_ptree(g, node, cls, mate)
            return True
    return False
