import json
import random
from itertools import combinations

import pytest

import graphdecomp.splitdec as splitdec
from graphdecomp import (DisconnectedGraphError, FamilySpec, GraphError,
                         bfs_distances, build_graph,
                         classify_prime_graph, eccentricities_qq3,
                         effective_q, gen_family, is_module,
                         max_matching_qq3, maximum_matching,
                         modular_decomposition, modular_width, nd_partition,
                         oracle_eccentricities, quotient_graph,
                         random_degenerate_split_tree, random_instance,
                         split_decomposition,
                         split_tree_from_modular, split_tree_from_nd,
                         split_width, substitute)
from graphdecomp.classify import (DISC_COCYCLE, DISC_CYCLE, SMALL_PRIME,
                                  SPIKED_PK, SPIKED_QK, SPIKED_QK_BAR,
                                  THICK_SPIDER, THIN_SPIDER, is_prime)
from graphdecomp.families import FAMILY_NAMES, spiked_qk_edges
from graphdecomp.graph import simplicial_vertices
from graphdecomp.modular import FALSE_TWINS, PRIME, TRUE_TWINS
from graphdecomp.splitdec import STAR, is_marker

from conftest import (ALL_FAMILIES, caterpillar_split_tree, complete,
                      connected_er, cycle, path, star)


# -- modular decomposition ---------------------------------------------------


def test_cograph_has_no_prime_nodes():
    g = gen_family(FamilySpec(kind="Cograph", n=20), 3).graph
    md = modular_decomposition(g)
    assert all(node.kind != PRIME for node in md.iter_nodes())
    assert modular_width(md) == 2


def test_p4_is_prime():
    md = modular_decomposition(path(4))
    assert md.kind == PRIME and modular_width(md) == 4


def test_substitution_recovers_modules():
    c5 = cycle(5)
    parts = [build_graph(2, [(0, 1)])] * 5
    g = substitute(c5, parts)
    md = modular_decomposition(g)
    assert md.kind == PRIME
    assert sorted(c.vertices for c in md.children) == \
        [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    assert modular_width(md) == 5
    q = quotient_graph(g, [list(c.vertices) for c in md.children])
    # the quotient is C5 again up to relabeling
    assert q.m == 5 and all(q.degree(v) == 2 for v in range(5))


def test_every_tree_node_is_a_module(rng):
    for _ in range(60):
        n = rng.randint(1, 16)
        g = build_graph(n, [(u, v) for u in range(n)
                            for v in range(u + 1, n)
                            if rng.random() < rng.random()])
        md = modular_decomposition(g)
        for node in md.iter_nodes():
            assert is_module(g, node.vertices)
            if node.children:
                vs = sorted(v for c in node.children for v in c.vertices)
                assert vs == list(node.vertices)


def test_prime_quotients_are_prime(rng):
    # cycles from C_5, their complements and paths from P_4 are prime:
    # every child of the root is a leaf, so each vertex is a pivot once
    primes = [cycle(n) for n in range(5, 13)]
    primes += [c.complement() for c in primes] + [path(n) for n in range(4, 13)]
    graphs = primes + [connected_er(rng, rng.randint(4, 13)) for _ in range(50)]
    for i, g in enumerate(graphs):
        md = modular_decomposition(g)
        if i < len(primes):
            assert md.kind == PRIME and md.quotient.n == g.n
        for node in md.iter_nodes():
            if node.kind != PRIME:
                continue
            q = node.quotient
            if q.n <= 12:
                for size in range(2, q.n):
                    for mod in combinations(range(q.n), size):
                        assert not is_module(q, mod)


# -- split decomposition -----------------------------------------------------


def test_tree_splits_into_stars(rng):
    edges = [(i, rng.randrange(i)) for i in range(1, 14)]
    st = split_decomposition(build_graph(14, edges))
    assert all(c.kind == STAR for c in st.components)
    assert split_width(st) == 2


def test_c5_is_split_prime():
    st = split_decomposition(cycle(5))
    assert len(st.components) == 1 and split_width(st) == 5


def _masks(g):
    return [sum(1 << w for w in g.adj[v]) for v in range(g.n)]


def _is_split(masks, side):
    """Reference: both sides have 2 vertices or more, and every vertex of
    the side that sees the other side sees the same set there."""
    n = len(masks)
    other = ((1 << n) - 1) & ~side
    if side.bit_count() < 2 or other.bit_count() < 2:
        return False
    views = {masks[v] & other for v in range(n) if side >> v & 1}
    return len(views - {0}) <= 1


def _has_split(masks):
    # keeping the last vertex outside the side meets each bipartition once
    return any(_is_split(masks, side)
               for side in range(1, 1 << (len(masks) - 1)))


def test_split_search_matches_brute_force(rng):
    primes = 0
    for _ in range(2500):
        masks = _masks(connected_er(rng, rng.randint(4, 10)))
        side = splitdec._find_split(masks, (1 << len(masks)) - 1)
        assert (side is not None) == _has_split(masks), masks
        if side is None:
            primes += 1
        else:
            assert _is_split(masks, side), masks
    assert primes > 0


def test_splits_only_the_closure_search_finds():
    # no twins, no pendants, two prime components of order 5 each.  Two
    # C5s sharing a vertex or joined by a bridge split only at a cut
    # vertex.  Two P4s whose ends are joined split once, and the vertices
    # of least degree see nothing across: only the N[x] seed reaches it.
    # The join of two P4s splits once, and every vertex sees across: only
    # the {x, y} seeds reach it.
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    p4 = [(0, 1), (1, 2), (2, 3)]
    two_p4 = p4 + [(u + 4, v + 4) for u, v in p4]
    shared = build_graph(9, c5 + [(u + 4, v + 4) for u, v in c5])
    bridged = build_graph(10, c5 + [(u + 5, v + 5) for u, v in c5] + [(0, 5)])
    ends = build_graph(8, two_p4 + [(u, v) for u in (0, 3) for v in (4, 7)])
    joined = build_graph(8, two_p4 + [(u, v) for u in range(4)
                                      for v in range(4, 8)])
    for g in (shared, bridged, ends, joined):
        masks = _masks(g)
        assert _is_split(masks, splitdec._find_split(masks, (1 << g.n) - 1))
        st = split_decomposition(g)
        assert st.recompose() == g
        assert sorted(st.prime_orders()) == [5, 5]


def test_split_search_closure_count(rng, monkeypatch):
    # on a prime graph that is not a cycle the search runs to the end: one
    # anchor test per neighbour of x and one closure per vertex outside
    # N[x], x of least degree d
    while True:
        masks = _masks(connected_er(rng, 12))
        if (any(m.bit_count() != 2 for m in masks)
                and not _has_split(masks)):
            break
    n = len(masks)
    calls = {"_anchor_split": 0, "_anchored_closure": 0}
    for name in calls:
        def counted(*args, name=name, fn=getattr(splitdec, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(splitdec, name, counted)
    assert splitdec._find_split(masks, (1 << n) - 1) is None
    d = min(m.bit_count() for m in masks)
    assert calls == {"_anchor_split": d, "_anchored_closure": n - d - 1}


def _closure_by_rounds(masks, vs, seed, a):
    """Reference: each round pulls in every vertex whose view of the side
    is neither empty nor the anchor's, until a round pulls in none."""
    side = seed
    while True:
        view_a = masks[a] & side
        moved = 0
        for w in range(len(masks)):
            view = masks[w] & side
            if ((vs & ~side) >> w & 1 and w != a
                    and view and view != view_a):
                moved |= 1 << w
        if not moved:
            break
        side |= moved
    if side.bit_count() < 2 or (vs & ~side).bit_count() < 2:
        return None
    return side


def test_closure_search_matches_the_round_loop(rng):
    for _ in range(15000):
        n, p = rng.randint(4, 11), rng.random()
        masks = _masks(build_graph(n, [(u, v) for u in range(n)
                                       for v in range(u + 1, n)
                                       if rng.random() < p]))
        vs = (1 << n) - 1
        a = rng.randrange(n)
        seed = rng.randrange(1, 1 << n) & ~(1 << a)
        if seed:
            assert splitdec._anchored_closure(masks, vs, seed, a) == \
                _closure_by_rounds(masks, vs, seed, a), (masks, seed, a)


def test_anchor_split_matches_brute_force(rng):
    for _ in range(300):
        masks = _masks(connected_er(rng, rng.randint(4, 11)))
        n = len(masks)
        sides = [side for side in range(1, (1 << n) - 1)
                 if _is_split(masks, side)]
        for x in range(n):
            for a in range(n):
                if not masks[x] >> a & 1:
                    continue
                side = splitdec._anchor_split(masks, (1 << n) - 1, x, a)
                expect = any(s >> x & 1 and not s >> a & 1 for s in sides)
                assert (side is not None) == expect, (masks, x, a)
                if side is not None:
                    assert side >> x & 1 and not side >> a & 1
                    assert _is_split(masks, side), (masks, x, a)


def test_split_decomposition_is_canonical(rng):
    # recomposition, prime components without a split and no mergeable
    # marker pair together pin Cunningham's unique decomposition
    graphs = []
    for _ in range(600):
        n, p = rng.randint(1, 10), rng.random()
        graphs.append(build_graph(n, [(u, v) for u in range(n)
                                      for v in range(u + 1, n)
                                      if rng.random() < p]))
    graphs += [random_instance(fam, n, rng).graph
               for fam in ALL_FAMILIES for n in range(4, 11)]
    for g in graphs:
        st = split_decomposition(g)
        assert st.recompose() == g
        comps = st.components
        for comp in comps:
            if comp.kind == splitdec.PRIME:
                assert not _has_split(_masks(comp.graph))
        for ca, la, cb, lb in st.tree_edges:
            a, b = comps[ca], comps[cb]
            assert not a.kind == b.kind == splitdec.COMPLETE
            assert not (a.kind == b.kind == STAR
                        and (la == a.center) != (lb == b.center))


def test_recomposition_identity(rng):
    for _ in range(80):
        n = rng.randint(1, 15)
        g = build_graph(n, [(u, v) for u in range(n)
                            for v in range(u + 1, n)
                            if rng.random() < rng.random()])
        st = split_decomposition(g)
        assert st.recompose() == g


def test_distance_hereditary_width_two(rng):
    for _ in range(15):
        st0 = random_degenerate_split_tree(rng.randint(2, 40), rng)
        g = st0.recompose()
        st = split_decomposition(g)
        assert split_width(st) == 2
        assert st.recompose() == g


def test_marker_vertices_follow_the_naming_convention(rng):
    g = connected_er(rng, 12)
    st = split_decomposition(g)
    for comp in st.components:
        for lab in comp.labels:
            assert lab >= 0 or is_marker(lab)


def test_split_width_vs_modular_width(rng):
    # folklore bound: sw <= mw + 1 on every tested instance
    for _ in range(50):
        n = rng.randint(2, 16)
        g = build_graph(n, [(u, v) for u in range(n)
                            for v in range(u + 1, n)
                            if rng.random() < rng.random()])
        if not g.is_connected():
            continue
        sw = split_width(split_decomposition(g))
        mw = modular_width(modular_decomposition(g))
        assert sw <= mw + 1


def test_partial_split_tree_from_modular(rng):
    for _ in range(40):
        g = connected_er(rng, rng.randint(2, 14))
        st = split_tree_from_modular(g, modular_decomposition(g))
        assert st.recompose() == g
    sub = substitute(cycle(5), [build_graph(2, [(0, 1)])] * 5)
    st = split_tree_from_modular(sub, modular_decomposition(sub))
    assert st.recompose() == sub


def test_nd_split_tree(rng):
    for _ in range(40):
        g = connected_er(rng, rng.randint(2, 14))
        ndp = nd_partition(g)
        st = split_tree_from_nd(g, ndp)
        if ndp.nd > 1:
            assert st.components[0].graph is ndp.quotient
        else:
            assert [c.labels for c in st.components] == [list(range(g.n))]
        assert st.recompose() == g
    # a single twin class is one complete component, or no connected graph
    st = split_tree_from_nd(complete(5), nd_partition(complete(5)))
    assert [c.labels for c in st.components] == [[0, 1, 2, 3, 4]]
    assert st.components[0].kind == splitdec.COMPLETE and not st.tree_edges
    edgeless = build_graph(3, [])
    with pytest.raises(DisconnectedGraphError):
        split_tree_from_nd(edgeless, nd_partition(edgeless))


def test_validate_rejects_tree_edges_that_close_a_cycle():
    st = split_decomposition(path(6))
    assert st.tree_edges
    st.tree_edges.append(st.tree_edges[0])
    with pytest.raises(GraphError, match="close a cycle"):
        st.validate()


def test_validate_rejects_a_marker_no_tree_edge_names():
    # the stray marker would count as a fourth vertex in every reroot
    st = splitdec.SplitTree(n=3)
    st.add([0, 1, 2, -7], splitdec.STAR)
    with pytest.raises(GraphError, match="marker slots"):
        st.validate()


def test_passes_need_one_validated_tree():
    forest = split_decomposition(substitute(build_graph(2, []),
                                            [path(5), cycle(5)]))
    with pytest.raises(GraphError,
                       match="split tree is a forest; root one tree at a time"):
        forest.farthest()
    with pytest.raises(GraphError,
                       match="split tree is a forest; root one tree at a time"):
        forest.spread(1, None)
    st = splitdec.SplitTree(n=3)
    st.add([0, 1, 2], splitdec.COMPLETE)
    with pytest.raises(GraphError, match="not rooted"):
        st.farthest()
    with pytest.raises(GraphError, match="not rooted"):
        st.spread(1, None)


def _real_vertices_behind(st, edge, comp):
    """The real vertices on comp's side of the tree edge ``edge``."""
    nbrs = {}
    for e, (ca, _, cb, _) in enumerate(st.tree_edges):
        if e != edge:
            nbrs.setdefault(ca, []).append(cb)
            nbrs.setdefault(cb, []).append(ca)
    side, stack = {comp}, [comp]
    while stack:
        for d in nbrs.get(stack.pop(), ()):
            if d not in side:
                side.add(d)
                stack.append(d)
    return {lab for c in side for lab in st.components[c].labels if lab >= 0}


def _pass_trees(rng):
    """Split trees of random graphs, and random degenerate trees."""
    trees = [split_decomposition(connected_er(rng, rng.randint(2, 12)))
             for _ in range(300)]
    trees += [random_degenerate_split_tree(rng.randint(3, 40), rng)
              for _ in range(30)]
    trees += [caterpillar_split_tree(rng, rng.randint(2, 12))
              for _ in range(30)]
    return trees


def test_spread_sums_frontiers_against_brute_force(rng):
    for st in _pass_trees(rng):
        g = st.recompose()
        masks = g.masks()
        lo = st.rooting.lo
        not_simplicial = [int(t not in simplicial_vertices(comp.graph))
                          for comp in st.components
                          for t in range(len(comp.labels))]
        sizes, degrees = st.spread(1, None)
        opens, _ = st.spread(0, not_simplicial)
        assert degrees == [g.degree(v) for v in range(g.n)]
        for e, (ca, la, cb, lb) in enumerate(st.tree_edges):
            # the value at a marker slot comes from the far side's frontier
            for slot, far in ((lo[ca] + la, cb), (lo[cb] + lb, ca)):
                behind = _real_vertices_behind(st, e, far)
                far_mask = sum(1 << v for v in behind)
                frontier = [v for v in behind if masks[v] & ~far_mask]
                assert sizes[slot] == len(frontier)
                clique = all(g.has_edge(u, v)
                             for u, v in combinations(frontier, 2))
                assert (opens[slot] == 0) == clique


def test_farthest_reaches_frontiers_against_brute_force(rng):
    trees = _pass_trees(rng)
    # twin-class and modular kernel trees: 2-slot complete roots, and
    # stars whose marker sits at the centre, slot 0
    for _ in range(60):
        g = connected_er(rng, rng.randint(2, 14))
        trees.append(split_tree_from_nd(g, nd_partition(g)))
        trees.append(split_tree_from_modular(g, modular_decomposition(g)))
    shapes = set()
    for st in trees:
        g = st.recompose()
        masks = g.masks()
        dist = [bfs_distances(g, v) for v in range(g.n)]
        lo = st.rooting.lo
        arrived, _ = st.farthest()
        for e, (ca, la, cb, lb) in enumerate(st.tree_edges):
            # the farthest real vertex behind a marker, from the frontier
            for c, slot, far in ((ca, la, cb), (cb, lb, ca)):
                comp = st.components[c]
                shapes.add((comp.kind, len(comp.labels), slot == comp.center))
                behind = _real_vertices_behind(st, e, far)
                far_mask = sum(1 << v for v in behind)
                frontier = [v for v in behind if masks[v] & ~far_mask]
                assert arrived[lo[c] + slot] == max(
                    min(dist[f][v] for f in frontier) for v in behind)
    assert {(splitdec.COMPLETE, 2, False), (STAR, 3, True)} <= shapes


# -- neighbourhood diversity -------------------------------------------------


def test_nd_examples():
    assert nd_partition(complete(6)).nd == 1
    assert nd_partition(complete(6)).tags == [TRUE_TWINS]
    ndp = nd_partition(star(4))
    assert ndp.nd == 2 and set(ndp.tags) == {TRUE_TWINS, FALSE_TWINS}
    g = substitute(path(4), [build_graph(2, [(0, 1)]), build_graph(2, []),
                             build_graph(1, []), build_graph(1, [])])
    ndp = nd_partition(g)
    assert ndp.classes == [(0, 1), (2, 3), (4,), (5,)]


def test_nd_classes_are_modules(rng):
    for _ in range(40):
        g = connected_er(rng, rng.randint(2, 14))
        ndp = nd_partition(g)
        for cls in ndp.classes:
            assert is_module(g, cls)
        assert modular_width(modular_decomposition(g)) <= max(2, ndp.nd)


def _pairwise_quotient(g, modules):
    """The quotient over ``modules`` by testing every pair of first vertices."""
    return build_graph(len(modules), [
        (i, j) for i, j in combinations(range(len(modules)), 2)
        if g.has_edge(modules[i][0], modules[j][0])])


def test_twin_classes_and_quotients_match_the_definitions(rng):
    graphs = [complete(7), build_graph(6, []), complete(1),
              # a triangle, a pendant path and isolated vertices
              build_graph(9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])]
    for fam in FAMILY_NAMES:
        for connected in (True, False):
            for _ in range(4):
                graphs.append(random_instance(
                    fam, rng.randint(1, 40), rng, connected=connected).graph)
    for g in graphs:
        rows = [set(row) for row in g.adj]
        # u ~ v iff N(u) \ {v} = N(v) \ {u}, tested on every pair
        classes = sorted({
            tuple(u for u in range(g.n)
                  if u == v or rows[u] - {v} == rows[v] - {u})
            for v in range(g.n)})
        ndp = nd_partition(g)
        assert ndp.classes == classes
        for cls, tag in zip(ndp.classes, ndp.tags):
            inside = {g.has_edge(u, v) for u, v in combinations(cls, 2)}
            assert inside != {True, False}
            assert tag == (TRUE_TWINS if inside <= {True} else FALSE_TWINS)
        assert ndp.quotient == _pairwise_quotient(g, classes)
        for node in modular_decomposition(g).iter_nodes():
            if node.kind == PRIME:
                modules = [c.vertices for c in node.children]
                assert quotient_graph(g, modules) == node.quotient \
                    == _pairwise_quotient(g, modules)


# -- classification ----------------------------------------------------------


def test_classify_examples():
    assert classify_prime_graph(cycle(7)).tag == DISC_CYCLE
    thick = gen_family(FamilySpec(kind="ThickSpider", k=3), 0)
    cls = classify_prime_graph(thick.graph)
    assert cls.tag == THICK_SPIDER
    wit = cls.witness
    assert sorted(wit["S"]) == thick.annotations["spider"]["S"]
    qk = gen_family(FamilySpec(kind="SpikedQk", k=8, zs=(2, 3)), 0)
    cls = classify_prime_graph(qk.graph)
    assert cls.tag == SPIKED_QK and cls.witness["zs"] == (2, 3)


def test_classify_rejects_non_prime():
    with pytest.raises(GraphError, match="prime"):
        classify_prime_graph(complete(5))


def test_classify_witness_reverifies(rng):
    # relabeled family members keep their class, with a checkable witness
    cases = []
    for k in (6, 9, 12):
        cases.append(gen_family(FamilySpec(kind="SpikedPk", k=k, with_x=True,
                                           with_y=(k > 6)), 1))
        cases.append(gen_family(FamilySpec(kind="SpikedQk", k=k,
                                           zs=(2,) if k >= 7 else ()), 1))
    for k in (2, 4):
        cases.append(gen_family(FamilySpec(kind="ThinSpider", k=k), 1))
    for gg in cases:
        g = gg.graph
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        cls = classify_prime_graph(h, check_prime=False)
        assert cls.tag in (SPIKED_PK, SPIKED_QK, THIN_SPIDER)
        if "roles" in cls.witness:
            # mapping the witness roles back must reproduce the adjacency
            roles = cls.witness["roles"]
            assert len(set(roles.values())) == h.n


def _relabelled_qk(rng, k, zs=None):
    """A random relabelling of spiked_qk_edges(k, zs); zs drawn if None."""
    if zs is None:
        zs = tuple(z for z in range(2, k - 4) if rng.random() < 0.5)
    n, edges, _ = spiked_qk_edges(k, zs)
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, edges).relabel(perm), zs


def _assert_qk(g, k, zs):
    cls = classify_prime_graph(g, check_prime=False)
    assert (cls.tag, cls.witness["k"], cls.witness["zs"]) == (SPIKED_QK, k, zs)
    cls = classify_prime_graph(g.complement(), check_prime=False)
    assert (cls.tag, cls.witness["k"], cls.witness["zs"]) == \
        (SPIKED_QK_BAR, k, zs)


def test_every_small_spiked_qk_is_recognised():
    rng = random.Random(13)
    for k in range(6, 17):
        for r in range(k - 4):
            for zs in combinations(range(2, k - 4), r):
                g, _ = _relabelled_qk(rng, k, zs)
                _assert_qk(g, k, zs)


def test_large_spiked_qk_is_recognised():
    rng = random.Random(7)
    for k in (80, 80, 160, 160):
        g, zs = _relabelled_qk(rng, k)
        _assert_qk(g, k, zs)


def test_large_spiked_qk_takes_the_class_solvers():
    # q_eff 7: the member and its complement are labelled, not small primes
    g, zs = _relabelled_qk(random.Random(7), 160)
    for h in (g, g.complement()):
        md = modular_decomposition(h)
        assert effective_q(h, md) == 7
        assert eccentricities_qq3(h, md) == oracle_eccentricities(h)
        assert max_matching_qq3(h, md).cardinality() == \
            maximum_matching(h).cardinality()


def test_small_prime_and_effective_q(rng):
    spider = gen_family(FamilySpec(kind="ThinSpider", k=4,
                                   r=FamilySpec(kind="Cograph", n=5)), 3)
    md = modular_decomposition(spider.graph)
    assert effective_q(spider.graph, md) == 7

    disc = substitute(cycle(9), [build_graph(1, [])] * 9)
    assert effective_q(disc, modular_decomposition(disc)) == 7

    while True:
        g = connected_er(rng, 12)
        if is_prime(g) and classify_prime_graph(g).tag == SMALL_PRIME:
            break
    assert effective_q(g, modular_decomposition(g)) == 12


def test_decomposition_json_shapes(rng):
    g = connected_er(rng, 8)
    md = modular_decomposition(g)
    payload = json.loads(json.dumps(md.to_json()))
    assert payload["kind"] in ("leaf", "parallel", "series", "prime")
    st = split_decomposition(g)
    payload = json.loads(json.dumps(st.to_json()))
    assert set(payload) == {"n", "components", "marker_pairs"}

