import random

import pytest

import graphdecomp.matching as matching_mod
from graphdecomp import (FamilySpec, Matching, StructuralError, build_graph,
                         build_witness, classify_prime_graph, gen_family,
                         match_disc, match_spider, max_matching_modular,
                         max_matching_prime_ptree, max_matching_qq3,
                         modular_decomposition, oracle_maximum_matching,
                         pending_module_rule, random_instance,
                         reduce_module_edges, split_and_match, substitute)
from graphdecomp.matching import match_join
from graphdecomp.oracles import exhaustive_maximum_matching_size

from conftest import (alternating_chain, alternating_chain_graph, complete,
                      connected_er, cycle, path, tree_shape)


def test_reduce_module_edges_examples():
    g = substitute(path(4), [complete(4), complete(2),
                             build_graph(2, []), complete(3)])
    md = modular_decomposition(g)
    modules = [list(c.vertices) for c in md.children]
    mms = []
    for mod in modules:
        sub, back = g.induced(mod)
        mm = oracle_maximum_matching(sub)
        mms.append([(back[u], back[v]) for u, v in mm.edges()])
    reduced = reduce_module_edges(g, modules, mms, strict=True)
    k4 = set(modules[0])
    inner = [e for e in reduced.edges() if set(e) <= k4]
    assert len(inner) == 2
    got = max_matching_modular(g)
    assert got.cardinality() == oracle_maximum_matching(g).cardinality()


def test_pending_module_rules():
    # pendant vertex: classic rule
    g = path(3)
    mate = [None, None, None]
    added, discarded = pending_module_rule(g, [0], 1, mate)
    assert added == [(0, 1)] and discarded == {0, 1}
    # perfect inner matching keeps the pivot
    g2 = substitute(path(2), [complete(2), build_graph(1, [])])
    mate = [1, 0, None]
    added, discarded = pending_module_rule(g2, [0, 1], 2, mate)
    assert added == [] and discarded == {0, 1}
    # 3K1 module: one pivot edge, everything retired
    g3 = substitute(path(2), [build_graph(3, []), build_graph(1, [])])
    mate = [None] * 4
    added, discarded = pending_module_rule(g3, [0, 1, 2], 3, mate)
    assert added == [(0, 3)] and discarded == {0, 1, 2, 3}


def test_split_and_match_join():
    # join of two stable triples: perfect matching by MATCH alone
    g = substitute(complete(2), [build_graph(3, []), build_graph(3, [])])
    mate = [None] * 6
    match_join(g, mate, [0, 1, 2], [3, 4, 5])
    assert sum(1 for v in mate if v is not None) == 6
    # SPLIT fires: matched K2 against two isolated vertices
    g = substitute(complete(2), [complete(2), build_graph(2, [])])
    mate = [1, 0, None, None]
    ops = split_and_match(g, mate, [2, 3], [0, 1])
    assert ops == 1
    assert Matching(mate).cardinality() == 2


def test_split_and_match_reaches_oracle(rng):
    for _ in range(40):
        a = random_instance("cograph", rng.randint(1, 6), rng,
                            connected=False).graph
        b = random_instance("cograph", rng.randint(1, 6), rng,
                            connected=False).graph
        g = substitute(complete(2), [a, b])
        va = list(range(a.n))
        vb = list(range(a.n, a.n + b.n))
        mate = [None] * g.n
        for u, v in oracle_maximum_matching(a).edges():
            mate[u] = v
            mate[v] = u
        for u, v in oracle_maximum_matching(b).edges():
            mate[a.n + u] = a.n + v
            mate[a.n + v] = a.n + u
        match_join(g, mate, va, vb)
        got = Matching(mate)
        got.validate(g)
        assert got.cardinality() == oracle_maximum_matching(g).cardinality()


def test_match_disc_cases():
    for n in range(5, 14):
        g = cycle(n)
        mate = [None] * n
        match_disc(g, list(range(n)), False, mate)
        m = Matching(mate)
        m.validate(g)
        assert m.cardinality() == n // 2
        cg = g.complement()
        mate = [None] * n
        match_disc(cg, list(range(n)), True, mate)
        m = Matching(mate)
        m.validate(cg)
        assert m.cardinality() == n // 2


def test_match_spider_cases():
    thin = gen_family(FamilySpec(kind="ThinSpider", k=3), 0)
    g = thin.graph
    mate = [None] * g.n
    ann = thin.annotations["spider"]
    match_spider(g, ann["S"], ann["K"], ann["matching"], False, mate)
    m = Matching(mate)
    m.validate(g)
    assert m.cardinality() == 3

    thick = gen_family(FamilySpec(kind="ThickSpider", k=4,
                                  r=FamilySpec(kind="Cograph", n=2)), 1)
    got = max_matching_qq3(thick.graph)
    assert got.cardinality() == oracle_maximum_matching(thick.graph).cardinality()


def test_witness_shape_small():
    # all edges inside modules, prime quotient: one edge plus unmatched reps
    c5 = cycle(5)
    parts = [complete(2) if i < 2 else build_graph(1, []) for i in range(5)]
    g = substitute(c5, parts)
    md = modular_decomposition(g)
    modules = [list(c.vertices) for c in md.children]
    mate = [None] * g.n
    fm = {}
    for mod in modules:
        sub, back = g.induced(mod)
        for u, v in oracle_maximum_matching(sub).edges():
            mate[back[u]], mate[back[v]] = back[v], back[u]
            fm[back[u]], fm[back[v]] = back[v], back[u]
    wg = build_witness(modules, md.quotient, fm, mate)
    per_module = {}
    for v in wg.vertices:
        owner = next(i for i, mod in enumerate(modules) if v in mod)
        per_module.setdefault(owner, []).append(v)
    for i, mod in enumerate(modules):
        assert len(per_module.get(i, [])) <= 3
    assert wg.matching.cardinality() == 2


def test_witness_cross_edge_cap():
    # six matched cross edges between two adjacent fat modules: four kept
    g = substitute(complete(2), [build_graph(6, []), build_graph(6, [])])
    mate = [None] * 12
    for t in range(6):
        mate[t] = 6 + t
        mate[6 + t] = t
    modules = [list(range(6)), list(range(6, 12))]
    wg = build_witness(modules, complete(2), {}, mate)
    assert wg.matching.cardinality() == 4
    assert len(wg.vertices) == 8


def test_witness_equivalence_with_oracle(rng):
    # augmenting path exists in the witness iff the matching is improvable
    for _ in range(40):
        q = connected_er(rng, rng.randint(2, 5))
        parts = [random_instance("cograph", rng.randint(1, 4), rng,
                                 connected=False).graph for _ in range(q.n)]
        g = substitute(q, parts)
        md = modular_decomposition(g)
        if md.kind != "prime":
            continue
        modules = [list(c.vertices) for c in md.children]
        mate = [None] * g.n
        fm = {}
        for mod in modules:
            sub, back = g.induced(mod)
            for u, v in oracle_maximum_matching(sub).edges():
                mate[back[u]], mate[back[v]] = back[v], back[u]
                fm[back[u]], fm[back[v]] = back[v], back[u]
        reduced = reduce_module_edges(
            g, modules,
            [[(u, v) for u, v in _pairs(fm, mod)] for mod in modules])
        from graphdecomp import find_augmenting_path
        wg = build_witness(modules, md.quotient, fm, mate)
        path_w = find_augmenting_path(wg.graph, wg.matching)
        best = oracle_maximum_matching(reduced).cardinality()
        current = Matching(mate).cardinality()
        assert (path_w is not None) == (current < best)


def _pairs(fm, mod):
    seen = set()
    for u in mod:
        v = fm.get(u)
        if v is not None and u < v and u not in seen:
            seen.add(u)
            seen.add(v)
            yield (u, v)


def test_module_match_book_audit(rng):
    for _ in range(30):
        q = connected_er(rng, rng.randint(2, 5))
        parts = [random_instance("cograph", rng.randint(1, 4), rng,
                                 connected=False).graph for _ in range(q.n)]
        g = substitute(q, parts)
        got = max_matching_modular(g, audit=True)   # audits every round
        assert got.cardinality() == oracle_maximum_matching(g).cardinality()


def _count_witness_rounds(monkeypatch) -> list:
    """Record one entry per witness round of the modular witness loop."""
    calls = []
    real = matching_mod.build_witness

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(matching_mod, "build_witness", counting)
    return calls


def test_witness_loop_iteration_bound(rng, monkeypatch):
    calls = _count_witness_rounds(monkeypatch)
    g = substitute(cycle(5), [complete(2)] * 5)
    got = max_matching_modular(g)
    assert got.cardinality() == 5
    assert calls
    assert len(calls) <= g.n // 2 + len(list(modular_decomposition(g).iter_nodes()))


def test_series_and_parallel_nodes_need_no_augmenting_path(rng,
                                                           monkeypatch):
    calls = _count_witness_rounds(monkeypatch)
    for _ in range(40):
        g = random_instance("cograph", rng.randint(2, 60), rng,
                            connected=False).graph
        want = oracle_maximum_matching(g).cardinality()
        for solve in (max_matching_modular, max_matching_qq3):
            got = solve(g)
            got.validate(g)
            assert got.cardinality() == want
    assert not calls


def test_singleton_prime_node_takes_at_most_two_witness_rounds(rng,
                                                               monkeypatch):
    # with singleton modules the witness is the whole quotient: one round
    # reaches the maximum and one finds nothing to add
    calls = _count_witness_rounds(monkeypatch)
    graphs = [cycle(111).complement()]
    while len(graphs) < 16:
        g = connected_er(rng, rng.randint(5, 40))
        md = modular_decomposition(g)
        if md.kind == "prime" and all(len(c.vertices) == 1
                                      for c in md.children):
            graphs.append(g)
    for g in graphs:
        calls.clear()
        got = max_matching_modular(g)
        got.validate(g)
        assert got.cardinality() == oracle_maximum_matching(g).cardinality()
        assert 1 <= len(calls) <= 2


def test_wide_series_nodes_match_oracle(rng):
    # a series root with hundreds of children: each child joins once
    for width in (200, 257, 400):
        if width == 400:
            parts = [build_graph(1, [])] * width          # K_400
        else:
            parts = [random_instance("cograph", rng.randint(1, 4), rng,
                                     connected=False).graph
                     for _ in range(width)]
        g = substitute(complete(width), parts)
        md = modular_decomposition(g)
        assert md.kind == "series" and len(md.children) >= 200
        want = oracle_maximum_matching(g).cardinality()
        for solve in (max_matching_modular, max_matching_qq3):
            got = solve(g, md)
            got.validate(g)
            assert got.cardinality() == want


def test_max_matching_modular_matches_oracle(rng):
    for trial in range(60):
        kind = trial % 3
        if kind == 0:
            g = connected_er(rng, rng.randint(1, 16))
        elif kind == 1:
            g = random_instance("substitution", rng.randint(4, 40), rng,
                                connected=False).graph
        else:
            g = random_instance("cograph", rng.randint(2, 30), rng,
                                connected=False).graph
        got = max_matching_modular(g)
        got.validate(g)
        assert got.cardinality() == oracle_maximum_matching(g).cardinality()


def test_disjoint_union_sums_components(rng):
    a = connected_er(rng, 7)
    edges = list(a.edges()) + [(u + 7, v + 7) for u, v in a.edges()]
    g = build_graph(14, edges)
    got = max_matching_modular(g)
    assert got.cardinality() == 2 * oracle_maximum_matching(a).cardinality()


def test_max_matching_qq3_families(rng):
    for trial in range(60):
        fam = ("cycle", "co-cycle", "thin-spider", "thick-spider",
               "qq3-mix")[trial % 5]
        g = random_instance(fam, rng.randint(6, 50), rng,
                            connected=False).graph
        got = max_matching_qq3(g, audit=True)
        got.validate(g)
        assert got.cardinality() == oracle_maximum_matching(g).cardinality()


def test_qq3_structural_assert_fires():
    # plant a fat module at a forbidden chain position: the p-chain
    # procedure refuses it, and qq3 hands the node to the witness loop
    gg = gen_family(FamilySpec(kind="SpikedPk", k=8), 0)
    roles = gg.annotations["chain"]["roles"]
    parts = [build_graph(1, [])] * gg.graph.n
    parts = list(parts)
    parts[roles["v4"]] = complete(2)     # v4 must stay trivial
    g = substitute(gg.graph, parts)
    md = modular_decomposition(g)
    cls = classify_prime_graph(md.quotient, check_prime=False)
    with pytest.raises(StructuralError):
        max_matching_prime_ptree(g, md, cls, [None] * g.n)
    got = max_matching_qq3(g, audit=True)
    assert got.cardinality() == oracle_maximum_matching(g).cardinality()


def test_qq3_falls_back_on_nontrivial_class_modules():
    # C5 with one vertex blown up into a 2-vertex stable set: a disc
    # quotient whose procedure takes trivial modules only
    parts = [build_graph(2, [])] + [build_graph(1, [])] * 4
    g = substitute(cycle(5), parts)
    got = max_matching_qq3(g, audit=True)
    got.validate(g)
    assert got.cardinality() == max_matching_modular(g).cardinality() == 3


def test_prime_ptree_small_cases(rng):
    for k in (6, 7, 8, 11):
        for fam_kind, extras in (("SpikedPk", dict(with_x=True, with_y=True)),
                                 ("SpikedPkBar", dict(with_x=True)),
                                 ("SpikedQk", dict(zs=(2,) if k >= 7 else ())),
                                 ("SpikedQkBar", dict(zs=()))):
            gg = gen_family(FamilySpec(kind=fam_kind, k=k, **extras), 0)
            got = max_matching_qq3(gg.graph)
            got.validate(gg.graph)
            want = oracle_maximum_matching(gg.graph).cardinality()
            assert got.cardinality() == want, (fam_kind, k)


def test_matchings_walk_a_deep_modular_chain():
    # 1500 nested modules: deeper than Python's default recursion limit
    levels = 1500
    g = alternating_chain_graph(levels)
    md = modular_decomposition(g)
    assert tree_shape(md) == tree_shape(alternating_chain(levels))
    for tree in (alternating_chain(levels), md):
        for solve in (max_matching_modular, max_matching_qq3):
            got = solve(g, tree)
            got.validate(g)
            assert got.cardinality() == g.n // 2 == 750
