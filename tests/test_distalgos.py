import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from graphdecomp import (DisconnectedGraphError, FamilySpec, build_graph,
                         betweenness_nd, betweenness_split, dp_girth,
                         eccentricities_modular, eccentricities_qq3,
                         eccentricities_split, effective_q, gen_family,
                         hyperbolicity_nd, hyperbolicity_qq3,
                         hyperbolicity_split, kexpr_from_modular,
                         modular_decomposition, modular_width, nd_partition,
                         oracle_betweenness, oracle_cycle_stats,
                         oracle_eccentricities,
                         oracle_hyperbolicity, random_degenerate_split_tree,
                         random_instance, split_decomposition, split_width,
                         substitute)
from graphdecomp.distances import Half
from graphdecomp.graph import Graph
from graphdecomp.hyp import four_point_delta
from graphdecomp.modular import SERIES
from graphdecomp.splitdec import COMPLETE, PRIME, STAR, SplitTree

from conftest import (ALL_FAMILIES, PETERSEN, alternating_chain,
                      alternating_chain_graph, caterpillar_split_tree,
                      complete, connected_er, cycle, path, star, tree_shape,
                      with_real_vertices)


def mixed_connected_instances(rng, count, max_n, families=None):
    families = families or ("er", "distance-hereditary", "cograph",
                            "substitution", "thin-spider", "thick-spider",
                            "qq3-mix", "cycle", "co-cycle")
    out = []
    for i in range(count):
        fam = families[i % len(families)]
        n = rng.randint(4, max_n if fam != "er" else min(max_n, 40))
        out.append(random_instance(fam, n, rng).graph)
    return out


# -- eccentricities ----------------------------------------------------------


def test_ecc_split_known_values():
    c5 = cycle(5)
    assert eccentricities_split(c5, split_decomposition(c5)) == [2] * 5
    # star with a pendant path grafted through a split
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    got = eccentricities_split(g, split_decomposition(g))
    assert got == oracle_eccentricities(g)


def test_ecc_modular_cograph_bound(rng):
    for _ in range(10):
        g = random_instance("cograph", rng.randint(4, 40), rng).graph
        ecc = eccentricities_modular(g, modular_decomposition(g))
        assert max(ecc) <= 2


def test_ecc_complete_graph():
    g = complete(7)
    assert eccentricities_modular(g, modular_decomposition(g)) == [1] * 7


def test_ecc_series_root_runs_no_bfs(rng, monkeypatch):
    calls = []
    distances = Graph.distances

    def counted(g):
        calls.append(g)
        return distances(g)

    monkeypatch.setattr(Graph, "distances", counted)
    for n in (2, 12, 40):
        # the join of two cographs has a series root
        parts = [random_instance("cograph", k, rng).graph for k in (n, 5)]
        g = substitute(complete(2), parts)
        md = modular_decomposition(g)
        assert md.kind == SERIES
        want = oracle_eccentricities(g)
        assert eccentricities_modular(g, md) == want
        assert eccentricities_qq3(g, md) == want
    assert calls == []


def test_ecc_rejects_disconnected():
    g = build_graph(4, [(0, 1)])
    with pytest.raises(DisconnectedGraphError):
        eccentricities_split(g, split_decomposition(g))
    with pytest.raises(DisconnectedGraphError):
        eccentricities_modular(g, modular_decomposition(g))


def test_ecc_qq3_chain_formulas():
    gg = gen_family(FamilySpec(kind="SpikedPk", k=8, with_x=True), 0)
    ecc = eccentricities_qq3(gg.graph, modular_decomposition(gg.graph))
    roles = gg.annotations["chain"]["roles"]
    assert ecc[roles["x"]] == 6                      # k - 2
    assert ecc[roles["v1"]] == 7
    gg = gen_family(FamilySpec(kind="SpikedQk", k=8, zs=(2,)), 0)
    ecc = eccentricities_qq3(gg.graph, modular_decomposition(gg.graph))
    roles = gg.annotations["chain"]["roles"]
    assert [ecc[roles[f"v{i}"]] for i in (1, 3, 5)] == [3, 3, 3]
    assert ecc[roles["v7"]] == 2 and ecc[roles["z2"]] == 2


def test_ecc_all_methods_equal_oracle(rng):
    for g in mixed_connected_instances(rng, 60, 60):
        want = oracle_eccentricities(g)
        md = modular_decomposition(g)
        assert eccentricities_split(g, split_decomposition(g)) == want
        assert eccentricities_modular(g, md) == want
        assert eccentricities_qq3(g, md) == want
        assert max(want) <= max(modular_width(md), 2)    # diameter corollary


# -- hyperbolicity -----------------------------------------------------------


def test_hyp_tree_is_zero(rng):
    edges = [(i, rng.randrange(i)) for i in range(1, 12)]
    g = build_graph(12, edges)
    assert hyperbolicity_split(g, split_decomposition(g)) == Half(0)


def test_hyp_split_c4_across_a_split():
    # two C5s glued along a split with both boundaries of size two:
    # neither side is a clique, so the gap term forces delta >= 1
    edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
    edges += [(u, v) for u in (0, 3) for v in (4, 7)]
    g = build_graph(8, edges)
    st = split_decomposition(g)
    got = hyperbolicity_split(g, st)
    assert got == oracle_hyperbolicity(g)
    assert got >= Half(2)


def test_hyp_qq3_class_values():
    thin = gen_family(FamilySpec(kind="ThinSpider", k=4), 0).graph
    assert hyperbolicity_qq3(thin, modular_decomposition(thin)) == Half(0)
    cc8 = gen_family(FamilySpec(kind="CoCycle", n=8), 0).graph
    assert hyperbolicity_qq3(cc8, modular_decomposition(cc8)) == Half(2)
    assert oracle_hyperbolicity(cc8) == Half(2)


def _chain_ecc(g):
    # vertex n - 1 sees every other vertex, so the diameter is at most 2
    return [1 if len(g.adj[v]) == g.n - 1 else 2 for v in range(g.n)]


def test_hyp_qq3_on_a_deep_modular_chain():
    g = alternating_chain_graph(40)
    assert oracle_hyperbolicity(g, cap=g.n) == Half(1)
    assert oracle_eccentricities(g) == _chain_ecc(g)
    assert oracle_cycle_stats(g)[1] == 3
    # 1500 nested modules: deeper than Python's default recursion limit;
    # there the oracles above cost over a minute, and the chain's own
    # eccentricities and girth stand in for them
    for levels in (40, 1500):
        g = alternating_chain_graph(levels)
        md = modular_decomposition(g)
        assert tree_shape(md) == tree_shape(alternating_chain(levels))
        for tree in (alternating_chain(levels), md):
            assert hyperbolicity_qq3(g, tree) == Half(1)
        assert eccentricities_modular(g, md) == _chain_ecc(g)
        assert eccentricities_qq3(g, md) == _chain_ecc(g)
        assert effective_q(g, md) == 7          # a cograph: no prime node
        assert dp_girth(kexpr_from_modular(g, md)) == 3


def test_hyp_prime_component_above_the_brute_cap():
    # past 44 vertices component_delta tries its block-graph and
    # diameter-2 shortcuts before the four-point scan
    for g, order in ((cycle(50), 50), (cycle(48).complement(), 48)):
        st = split_decomposition(g)
        assert st.prime_orders() == [order]
        want = four_point_delta(g)
        assert hyperbolicity_split(g, st) == want
        assert hyperbolicity_nd(g, nd_partition(g)) == want
        assert hyperbolicity_qq3(g, modular_decomposition(g)) == want
    assert four_point_delta(cycle(50)) == Half.of_int(12)
    assert four_point_delta(cycle(48).complement()) == Half.of_int(1)


def test_hyp_all_methods_equal_oracle(rng):
    for g in mixed_connected_instances(rng, 50, 26):
        if g.n > 30:
            continue
        want = oracle_hyperbolicity(g)
        md = modular_decomposition(g)
        assert hyperbolicity_split(g, split_decomposition(g)) == want
        assert hyperbolicity_nd(g, nd_partition(g)) == want
        assert hyperbolicity_qq3(g, md) == want
        sw = split_width(split_decomposition(g))
        assert want <= max(Half(2), Half.of_int((sw - 1) // 2))
        diam = max(oracle_eccentricities(g))
        assert want <= Half.of_int(diam // 2)


def test_four_point_delta_equals_oracle_on_families(rng):
    for fam in ALL_FAMILIES:
        for n in range(4, 41):
            g = random_instance(fam, n, rng).graph
            assert four_point_delta(g) == oracle_hyperbolicity(g, cap=g.n), \
                (fam, n)


def test_four_point_delta_equals_oracle_on_cycles():
    for n in range(4, 49):
        g = cycle(n)
        assert four_point_delta(g) == oracle_hyperbolicity(g, cap=n), n


def test_four_point_delta_small_and_boundary_cases():
    for g in (build_graph(1, []), path(2), path(3), complete(3)):
        assert four_point_delta(g) == oracle_hyperbolicity(g) == Half(0)
    with pytest.raises(DisconnectedGraphError):
        four_point_delta(build_graph(4, [(0, 1), (2, 3)]))
    # the maximum sits at the smallest pair distance the scan may not skip:
    # C4, and C4 under a universal vertex (diameter 2)
    wheel = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)]
                        + [(4, v) for v in range(4)])
    for g in (cycle(4), wheel):
        assert four_point_delta(g) == oracle_hyperbolicity(g) == Half(2)


def test_four_point_delta_memory_is_bounded():
    import numpy  # noqa: F401  (imported first: the peak is the kernel's own)
    for g in (random_instance("er", 150, random.Random(3)).graph, cycle(200)):
        tracemalloc.start()
        try:
            value = four_point_delta(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, (g.n, peak)
    assert value == Half.of_int(50)     # delta(C200) = 200 / 4


def test_distance_table_memory_is_bounded():
    g = cycle(1024)
    tracemalloc.start()
    try:
        g.distances()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1024 tuples of 1024 pointers take 8.4 MB; one int object per
    # distance adds 14 kB, one per entry would add 15 MB
    assert peak < 9 << 20, peak


# -- betweenness -------------------------------------------------------------


def test_bc_star_closed_form():
    g = star(4)
    got = betweenness_split(g, split_decomposition(g))
    assert got == [Fraction(6), 0, 0, 0, 0]


def test_bc_kn_zero():
    g = complete(6)
    assert betweenness_nd(g, nd_partition(g)) == [Fraction(0)] * 6


def test_bc_weighted_all_ones_is_brandes(rng):
    from graphdecomp.bc import weighted_component_bc
    for _ in range(20):
        g = connected_er(rng, rng.randint(2, 12))
        ones = [1] * g.n
        got = weighted_component_bc(Graph.from_rows(g.adj), ones, ones)
        assert got == oracle_betweenness(g)


def _triple_sum_bc(adj, alpha, beta):
    """The weighted component betweenness as a plain sum over (s, v, t)."""
    size = len(adj)
    dist = [[-1] * size for _ in range(size)]
    sigma = [[0] * size for _ in range(size)]
    for v in range(size):
        dv, sv = dist[v], sigma[v]
        dv[v], sv[v] = 0, alpha[v]
        order = [v]
        for u in order:
            for w in adj[u]:
                if dv[w] == -1:
                    dv[w] = dv[u] + 1
                    order.append(w)
        for u in order[1:]:
            sv[u] = alpha[u] * sum(sv[w] for w in adj[u]
                                   if dv[w] == dv[u] - 1)
    out = []
    for v in range(size):
        acc = Fraction(0)
        for s in range(size):
            for t in range(s + 1, size):
                if v not in (s, t) and dist[s][v] + dist[v][t] == dist[s][t]:
                    acc += Fraction(beta[s] * beta[t] * sigma[s][v]
                                    * sigma[v][t], sigma[s][t])
        out.append(acc / (alpha[v] * alpha[v]))
    return out


def test_bc_oracle_equals_triple_sum(rng):
    graphs = [connected_er(rng, rng.randint(2, 30)) for _ in range(20)]
    graphs += [random_instance(fam, rng.randint(6, 30), rng).graph
               for fam in ALL_FAMILIES]
    graphs += [cycle(13), PETERSEN, _thick_spider(5)]
    for g in graphs:
        if g.is_connected():
            ones = [1] * g.n
            assert oracle_betweenness(g) == \
                _triple_sum_bc([list(r) for r in g.adj], ones, ones)


def _random_weights(rng, n, hi):
    return ([rng.randint(1, hi) for _ in range(n)],
            [rng.randint(1, hi) for _ in range(n)])


def test_bc_weighted_kernel_equals_triple_sum(rng):
    from graphdecomp import bc
    graphs = [connected_er(rng, rng.randint(3, 25)) for _ in range(40)]
    graphs += [random_instance(fam, rng.randint(6, 25), rng).graph
               for fam in ALL_FAMILIES for _ in range(3)]
    graphs += [cycle(12), _thick_spider(6)]
    misses = Counter()
    for g in graphs + [build_graph(1, []), build_graph(2, [(0, 1)])]:
        adj = [list(r) for r in g.adj]
        for hi in (1, 50, 10**6):
            alpha, beta = _random_weights(rng, g.n, hi)
            want = _triple_sum_bc(adj, alpha, beta)
            assert bc.weighted_component_bc(Graph.from_rows(adj), alpha,
                                            beta) == want
            # both routines, whichever the cost rule picks
            assert bc._brandes_by_source(Graph.from_rows(adj), alpha,
                                         beta) == want
            got = _level_path(Graph.from_rows(adj), alpha, beta)
            if got is None:
                misses[hi] += 1
            else:
                assert got == want
    # unit weights stay in the float range, weights up to 10^6 mostly not
    assert misses[1] == 0 and misses[10**6] >= len(graphs) // 2


def test_bc_weighted_kernel_past_machine_words(rng):
    from graphdecomp.bc import weighted_component_bc
    # 6-cube: 720 shortest paths between antipodes, alpha up to 1e6
    adj = [[v ^ (1 << b) for b in range(6)] for v in range(64)]
    alpha, beta = _random_weights(rng, 64, 10**6)
    got = weighted_component_bc(Graph.from_rows(adj), alpha, beta)
    assert max(x.denominator for x in got) > 2**63
    assert got == _triple_sum_bc(adj, alpha, beta)


def _thick_spider(legs):
    """S = 0..legs-1 stable, K = legs..2legs-1 a clique, s_i ~ k_j iff
    i != j."""
    edges = [(legs + i, legs + j) for i in range(legs)
             for j in range(i + 1, legs)]
    edges += [(i, legs + j) for i in range(legs) for j in range(legs)
              if i != j]
    return build_graph(2 * legs, edges)


def _level_path(g, alpha, beta):
    import numpy as np
    from graphdecomp import bc
    dist = np.array(g.distances())
    return bc._brandes_by_level(dist, alpha, beta, int(dist.max()))


def test_bc_level_path_at_two_to_the_53():
    from graphdecomp import bc
    adj = [[1], [0, 2], [1]]
    # sigma(0, 2) = 3 * 3002399751580331 = 2^53 + 1
    alpha, beta = [1, 3, 3002399751580331], [1, 1, 1]
    assert _level_path(Graph.from_rows(adj), alpha, beta) is None
    assert bc.weighted_component_bc(Graph.from_rows(adj), alpha, beta) == \
        _triple_sum_bc(adj, alpha, beta)
    # the middle vertex's sum over its two ordered pairs is 2 alpha(2):
    # 2^53 - 2 is exact, 2^53 is not taken as exact
    for top, exact in ((2**52 - 1, True), (2**52, False)):
        alpha = [1, 1, top]
        got = _level_path(Graph.from_rows(adj), alpha, beta)
        assert (got is not None) == exact
        assert bc.weighted_component_bc(Graph.from_rows(adj), alpha,
                                        beta) == \
            _triple_sum_bc(adj, alpha, beta)


def _count_paths(monkeypatch):
    from graphdecomp import bc
    seen = {"level": [], "miss": 0, "loop": []}
    by_level, by_source = bc._brandes_by_level, bc._brandes_by_source

    def level(dist, alpha, beta, diam):
        out = by_level(dist, alpha, beta, diam)
        seen["level"].append(len(dist))
        seen["miss"] += out is None
        return out

    def source(g, alpha, beta):
        seen["loop"].append(g)
        return by_source(g, alpha, beta)

    monkeypatch.setattr(bc, "_brandes_by_level", level)
    monkeypatch.setattr(bc, "_brandes_by_source", source)
    return seen


def test_bc_kernel_path_choice(monkeypatch):
    from graphdecomp.bc import weighted_component_bc
    seen = _count_paths(monkeypatch)
    rng = random.Random(20)
    for fam in ALL_FAMILIES:
        for _ in range(4):
            g = random_instance(fam, rng.randint(20, 50), rng).graph
            if g.is_connected():
                betweenness_split(g, split_decomposition(g))
                betweenness_nd(g, nd_partition(g))
    # no silent fallback, and only the long prime paths of spiked P_k
    # (diameter k - 3 or more) are left to the loop
    assert seen["miss"] == 0 and len(seen["level"]) >= 60
    assert all(g.n <= 2 or max(map(max, g.distances())) >= g.n - 3
               for g in seen["loop"])
    seen["level"].clear()
    seen["loop"].clear()
    ones = [1] * 512
    weighted_component_bc(cycle(512), ones, ones)
    assert not seen["level"] and len(seen["loop"]) == 1


def test_bc_kernel_disconnected_and_tiny(monkeypatch):
    from graphdecomp.bc import weighted_component_bc
    seen = _count_paths(monkeypatch)
    two_parts = substitute(build_graph(2, []), [cycle(5), _thick_spider(3)])
    for g in (two_parts, build_graph(1, []), build_graph(2, []),
              build_graph(2, [(0, 1)])):
        adj = [list(r) for r in g.adj]
        alpha, beta = [2] * g.n, [3] * g.n
        assert weighted_component_bc(g, alpha, beta) == \
            _triple_sum_bc(adj, alpha, beta)
    assert not seen["level"] and len(seen["loop"]) == 4


def test_bc_kernel_memory_is_bounded(monkeypatch):
    from graphdecomp.bc import weighted_component_bc
    import numpy  # noqa: F401  (imported first: the peak is the kernel's own)
    seen = _count_paths(monkeypatch)
    for g, bound in ((random_instance("er", 150, random.Random(3)).graph,
                      3 << 19), (_thick_spider(100), 2 << 20)):
        g.distances()
        ones = [1] * g.n
        tracemalloc.start()
        try:
            weighted_component_bc(g, ones, ones)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (g.n, peak)
    # the ER graph's D_s leave the float range; the spider takes levels
    assert seen["level"] == [150, 200] and seen["miss"] == 1


def test_bc_methods_equal_oracle(rng):
    for g in mixed_connected_instances(rng, 50, 40):
        want = oracle_betweenness(g)
        assert betweenness_split(g, split_decomposition(g)) == want
        assert betweenness_nd(g, nd_partition(g)) == want


def test_bc_planted_twin_classes(rng):
    for _ in range(10):
        q = connected_er(rng, rng.randint(2, 5))
        parts = [complete(rng.randint(1, 4)) if rng.random() < 0.5
                 else build_graph(rng.randint(1, 4), [])
                 for _ in range(q.n)]
        g = substitute(q, parts)
        if not g.is_connected():
            continue
        assert betweenness_nd(g, nd_partition(g)) == oracle_betweenness(g)


# -- kernel consistency ------------------------------------------------------


def test_split_and_modular_agree_everywhere(rng):
    for _ in range(25):
        st = random_degenerate_split_tree(rng.randint(3, 50), rng)
        g = st.recompose()
        want = oracle_eccentricities(g)
        assert eccentricities_split(g, st) == want
        assert eccentricities_modular(g, modular_decomposition(g)) == want


# -- hand-built split trees --------------------------------------------------


def wide_split_tree(rng, markers):
    """A complete component and a star each carrying ``markers`` child
    markers, besides the edge between them; a few children have a child
    of their own, so the deepest slot is unique."""
    st = SplitTree(n=0)
    clique = st.add([None] * (markers + 2), COMPLETE)
    star = st.add([None] * (markers + 2), STAR, parent=(clique, 0), up=1)
    for hub, slots in ((clique, range(1, markers + 1)),
                       (star, range(2, markers + 2))):
        for slot in slots:
            kind = STAR if hub == clique else rng.choice((COMPLETE, STAR))
            child = st.add([None] * 3, kind, parent=(hub, slot),
                           up=rng.randrange(3))
            if rng.random() < 0.15:
                free = st.components[child].labels.index(None)
                st.add([None] * 3, STAR, parent=(child, free),
                       up=rng.randrange(3))
    return with_real_vertices(st)


def _check_split_tree(st, hyp_cap=40):
    g = st.recompose()
    assert g.is_connected()
    assert eccentricities_split(g, st) == oracle_eccentricities(g)
    assert betweenness_split(g, st) == oracle_betweenness(g)
    if g.n <= hyp_cap:
        assert hyperbolicity_split(g, st) == oracle_hyperbolicity(g, cap=hyp_cap)
    return g


def test_caterpillar_split_trees(rng):
    for length in (2, 3, 8, 12, 14):
        for _ in range(4):
            _check_split_tree(caterpillar_split_tree(rng, length))
    g = _check_split_tree(caterpillar_split_tree(rng, 60))
    assert max(oracle_eccentricities(g)) >= 20


def test_wide_degenerate_components(rng):
    # the complete and the star answer every child marker from one
    # aggregate that leaves out the marker's own slot
    st = wide_split_tree(rng, 30)
    g = _check_split_tree(st, hyp_cap=st.n)
    assert g.n >= 120


def path_split_tree(n):
    """The split tree of the path 0 - 1 - ... - n-1: a chain of n - 2
    three-slot stars, star i centred on vertex i between its two
    neighbours, each joined to the next leaf to leaf."""
    st = SplitTree(n=n)
    parent = None
    for i in range(1, n - 1):
        ci = st.add([i, i - 1, i + 1], STAR, parent=parent, up=1)
        parent = (ci, 2)
    st.validate()
    return st


def test_deep_path_split_tree_closed_forms():
    n = 20_000
    st = path_split_tree(n)
    assert len(st.components) == n - 2
    g = path(n)
    assert eccentricities_split(g, st) == [max(i, n - 1 - i)
                                           for i in range(n)]
    assert betweenness_split(g, st) == [i * (n - 1 - i) for i in range(n)]
    assert hyperbolicity_split(g, st) == Half(0)


def test_split_solvers_build_each_distance_table_once(rng, monkeypatch):
    import graphdecomp.graph as graph_mod
    builds = Counter()      # (graph id, builder) -> calls

    def counting(name):
        real = getattr(graph_mod, name)

        def counted(g, *args):
            builds[id(g), name] += 1
            return real(g, *args)
        return counted

    # a dense prime component past the brute-force cap of hyp, which takes
    # the bit-parallel branch, and a cycle and the Petersen graph, which
    # take the per-source one; a star sits between the dense one and C12
    st = SplitTree(n=0)
    dense = st.add([None] * 48, graph=connected_er(rng, 48, 0.5, 0.5))
    hub = st.add([None] * 3, STAR, parent=(dense, 0), up=0)
    st.add([None] * 12, graph=cycle(12), parent=(hub, 1))
    st.add([None] * 10, graph=PETERSEN, parent=(dense, 1))
    with_real_vertices(st)
    g = st.recompose()
    want = (oracle_eccentricities(g), oracle_hyperbolicity(g, cap=g.n),
            oracle_betweenness(g))
    for name in ("bfs_distances", "_distance_rounds"):
        monkeypatch.setattr(graph_mod, name, counting(name))
    got = (eccentricities_split(g, st), hyperbolicity_split(g, st),
           betweenness_split(g, st))
    assert got == want
    primes = [c.graph for c in st.components if c.kind == PRIME]
    assert len(primes) == 3
    dense_graph, c12, petersen = primes
    assert builds == Counter({
        (id(dense_graph), "bfs_distances"): 1,
        (id(dense_graph), "_distance_rounds"): 1,
        (id(c12), "bfs_distances"): 12,
        (id(petersen), "bfs_distances"): 10})
