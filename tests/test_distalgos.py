import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from graphdecomp import (DisconnectedGraphError, FamilySpec, build_graph,
                         betweenness_nd, betweenness_split,
                         eccentricities_modular, eccentricities_qq3,
                         eccentricities_split, gen_family,
                         hyperbolicity_mw_gate, hyperbolicity_nd,
                         hyperbolicity_qq3, hyperbolicity_split,
                         modular_decomposition, modular_width, nd_partition,
                         oracle_betweenness, oracle_eccentricities,
                         oracle_hyperbolicity, random_degenerate_split_tree,
                         random_instance, split_decomposition, split_width,
                         substitute)
from graphdecomp.distances import Half
from graphdecomp.hyp import four_point_delta
from graphdecomp.splitdec import (COMPLETE, STAR, SplitComponent, SplitTree,
                                  marker_label)

from conftest import ALL_FAMILIES, complete, connected_er, cycle, path, star


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


def test_hyp_mw_gate():
    sub = substitute(cycle(12), [build_graph(2, [(0, 1)])] * 12)
    gate, val = hyperbolicity_mw_gate(sub, modular_decomposition(sub))
    assert gate and val == oracle_hyperbolicity(sub)
    cog = random_instance("cograph", 20, random.Random(5)).graph
    gate, val = hyperbolicity_mw_gate(cog, modular_decomposition(cog))
    assert not gate and val is None
    sub5 = substitute(cycle(5), [build_graph(2, [(0, 1)])] * 5)
    gate, val = hyperbolicity_mw_gate(sub5, modular_decomposition(sub5))
    assert not gate    # delta(C5) = 1 fails the strict gate


def test_hyp_qq3_class_values():
    thin = gen_family(FamilySpec(kind="ThinSpider", k=4), 0).graph
    assert hyperbolicity_qq3(thin, modular_decomposition(thin)) == Half(0)
    cc8 = gen_family(FamilySpec(kind="CoCycle", n=8), 0).graph
    assert hyperbolicity_qq3(cc8, modular_decomposition(cc8)) == Half(2)
    assert oracle_hyperbolicity(cc8) == Half(2)


def test_hyp_all_methods_equal_oracle(rng):
    for g in mixed_connected_instances(rng, 50, 26):
        if g.n > 30:
            continue
        want = oracle_hyperbolicity(g)
        md = modular_decomposition(g)
        assert hyperbolicity_split(g, split_decomposition(g)) == want
        assert hyperbolicity_nd(g, nd_partition(g)) == want
        assert hyperbolicity_qq3(g, md) == want
        gate, val = hyperbolicity_mw_gate(g, md)
        if gate:
            assert val == want
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
        got = weighted_component_bc([list(r) for r in g.adj], ones, ones)
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


def _random_weights(rng, n, hi):
    return ([rng.randint(1, hi) for _ in range(n)],
            [rng.randint(1, hi) for _ in range(n)])


def test_bc_weighted_kernel_equals_triple_sum(rng):
    from graphdecomp.bc import weighted_component_bc
    graphs = [connected_er(rng, rng.randint(3, 25)) for _ in range(40)]
    graphs += [random_instance(fam, rng.randint(6, 25), rng).graph
               for fam in ALL_FAMILIES for _ in range(3)]
    graphs += [build_graph(1, []), build_graph(2, [(0, 1)])]
    for g in graphs:
        adj = [list(r) for r in g.adj]
        alpha, beta = _random_weights(rng, g.n, 50)
        assert weighted_component_bc(adj, alpha, beta) == \
            _triple_sum_bc(adj, alpha, beta)


def test_bc_weighted_kernel_past_machine_words(rng):
    from graphdecomp.bc import weighted_component_bc
    # 6-cube: 720 shortest paths between antipodes, alpha up to 1e6
    adj = [[v ^ (1 << b) for b in range(6)] for v in range(64)]
    alpha, beta = _random_weights(rng, 64, 10**6)
    got = weighted_component_bc(adj, alpha, beta)
    assert max(x.denominator for x in got) > 2**63
    assert got == _triple_sum_bc(adj, alpha, beta)


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


class TreeBuilder:
    """Star and complete components linked by marker pairs; every slot
    left unlinked becomes a real vertex."""

    def __init__(self):
        self.comps, self.edges = [], []

    def add(self, kind, size, parent=None, up=None):
        """New component; slot ``up`` links to slot ``parent[1]`` of
        component ``parent[0]``.  A star's center is slot 0."""
        if kind == COMPLETE:
            pairs = combinations(range(size), 2)
        else:
            pairs = ((0, b) for b in range(1, size))
        adj = [set() for _ in range(size)]
        for a, b in pairs:
            adj[a].add(b)
            adj[b].add(a)
        ci = len(self.comps)
        self.comps.append(SplitComponent(
            labels=[None] * size, adj=adj, kind=kind,
            center=0 if kind == STAR else -1))
        if parent is not None:
            eid = len(self.edges)
            pc, ps = parent
            self.comps[ci].labels[up] = marker_label(eid, 0)
            self.comps[pc].labels[ps] = marker_label(eid, 1)
            self.edges.append((ci, up, pc, ps))
        return ci

    def tree(self):
        n = 0
        for comp in self.comps:
            for i, lab in enumerate(comp.labels):
                if lab is None:
                    comp.labels[i] = n
                    n += 1
        st = SplitTree(n=n, components=self.comps, tree_edges=self.edges)
        st.validate()
        return st


def caterpillar_split_tree(rng, length):
    """A path of star and complete components of 3 to 5 slots; a star's
    path markers sit at its center or at its leaves."""
    b = TreeBuilder()
    parent, parent_kind = None, None
    for _ in range(length):
        kind = STAR if parent_kind == COMPLETE else rng.choice((COMPLETE, STAR))
        size = rng.randint(3, 5)
        up, down = rng.sample(range(size), 2)
        ci = b.add(kind, size, parent, up)
        parent, parent_kind = (ci, down), kind
    return b.tree()


def wide_split_tree(rng, markers):
    """A complete component and a star each carrying ``markers`` child
    markers, besides the edge between them; a few children have a child
    of their own, so the deepest slot is unique."""
    b = TreeBuilder()
    clique = b.add(COMPLETE, markers + 2)
    star = b.add(STAR, markers + 2, (clique, 0), 1)
    for hub, slots in ((clique, range(1, markers + 1)),
                       (star, range(2, markers + 2))):
        for slot in slots:
            kind = STAR if hub == clique else rng.choice((COMPLETE, STAR))
            child = b.add(kind, 3, (hub, slot), rng.randrange(3))
            if rng.random() < 0.15:
                b.add(STAR, 3, (child, b.comps[child].labels.index(None)),
                      rng.randrange(3))
    return b.tree()


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
