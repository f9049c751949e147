import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdecomp import (GraphError, build_graph, dp_girth,
                         dp_triangle_count, eval_kexpr, kexpr_from_modular,
                         kexpr_vertex_order, max_label, modular_decomposition,
                         modular_width, oracle_cycle_stats, parse_kexpr,
                         random_irredundant_kexpr, serialize_kexpr,
                         substitute, verify_irredundant)
from graphdecomp.distances import UNREACHABLE
from graphdecomp.kexpr import (Intro, Join, KExprError, Rename, Union,
                               iter_postorder)

from conftest import connected_er, cycle, deep_kexpr_text, path

FIG1_P4 = ("eta(1,2,(rho(2,3,eta(2,1,(rho(1,3,eta(1,2,(v(1)+v(2))))"
           "+v(1))))+v(2)))")


def test_parse_k2():
    lg = eval_kexpr(parse_kexpr("eta(1,2,(v(1)+v(2)))"))
    assert list(lg.graph.edges()) == [(0, 1)]


def test_fig1_expression_is_p4():
    expr = parse_kexpr(FIG1_P4)
    lg = eval_kexpr(expr)
    assert lg.graph == path(4)
    assert verify_irredundant(expr)[0]
    assert dp_triangle_count(expr) == 0
    assert dp_girth(expr) is UNREACHABLE


def test_parse_rejects_equal_labels():
    with pytest.raises(KExprError, match="distinct"):
        parse_kexpr("eta(1,1,v(1))")
    with pytest.raises(KExprError, match="distinct"):
        parse_kexpr("rho(2,2,v(1))")


def test_parse_error_position():
    with pytest.raises(KExprError, match="position"):
        parse_kexpr("eta(1,2,")
    with pytest.raises(KExprError, match="trailing"):
        parse_kexpr("v(1))")


@st.composite
def kexprs(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
    k = rng.randint(2, 5)
    n = rng.randint(1, 12)
    return random_irredundant_kexpr(rng, k, n)


@given(kexprs())
@settings(max_examples=80, deadline=None)
def test_serialize_parse_roundtrip(expr):
    assert parse_kexpr(serialize_kexpr(expr)) == expr


def test_verify_irredundant_flags_second_join():
    expr = parse_kexpr("eta(1,2,eta(1,2,(v(1)+v(2))))")
    ok, bad = verify_irredundant(expr)
    assert not ok and isinstance(bad, Join)
    # vacuous join on an empty class is fine
    ok, bad = verify_irredundant(parse_kexpr("eta(1,3,eta(1,2,(v(1)+v(2))))"))
    assert ok and bad is None


def test_dp_rejects_redundant():
    from graphdecomp import RedundantExpressionError
    expr = parse_kexpr("eta(1,2,eta(1,2,(v(1)+v(2))))")
    with pytest.raises(RedundantExpressionError):
        dp_triangle_count(expr)


def test_dp_triangle_k3():
    expr = parse_kexpr("eta(1,3,eta(2,3,eta(1,2,((v(1)+v(2))+v(3)))))")
    assert dp_triangle_count(expr) == 1
    assert dp_girth(expr) == 3


def test_dp_c5_and_two_label_square():
    c5 = cycle(5)
    expr = kexpr_from_modular(c5, modular_decomposition(c5))
    assert dp_girth(expr) == 5
    # join of two doubletons through both labels: the size >= 2 case gives 4
    sq = parse_kexpr("eta(1,2,((v(1)+v(1))+(v(2)+v(2))))")
    assert dp_girth(sq) == 4


def test_diagonal_closed_walk_remark():
    # triangle with a singleton class: the diagonal entry reports the
    # closed walk through it even though no such path exists, and the
    # running girth already accounts the 3-cycle
    expr = parse_kexpr("eta(2,3,eta(1,3,eta(1,2,((v(1)+v(2))+v(3)))))")
    trace = []
    assert dp_girth(expr, trace=trace) == 3
    final = trace[-1]
    assert final["op"] == ("eta", 2, 3)
    assert final["d"][1][1] == 3


def test_pair_tables_match_instrumented_evaluation(rng):
    for _ in range(40):
        expr = random_irredundant_kexpr(rng, rng.randint(2, 5),
                                        rng.randint(2, 14))
        trace = []
        dp_girth(expr, trace=trace)
        _check_tables_against_partial_graphs(expr, trace)


def _check_tables_against_partial_graphs(expr, trace):
    k = max_label(expr)
    counter = 0
    stack = []
    seen_joins = 0
    for node in iter_postorder(expr):
        if isinstance(node, Intro):
            stack.append(([counter], {counter: node.label}, set()))
            counter += 1
        elif isinstance(node, Union):
            rv, rl, re = stack.pop()
            lv, ll, le = stack.pop()
            ll.update(rl)
            stack.append((lv + rv, ll, le | re))
        elif isinstance(node, Rename):
            verts, labels, edges = stack.pop()
            for v in verts:
                if labels[v] == node.i:
                    labels[v] = node.j
            stack.append((verts, labels, edges))
        else:
            verts, labels, edges = stack.pop()
            vi = [v for v in verts if labels[v] == node.i]
            vj = [v for v in verts if labels[v] == node.j]
            for u in vi:
                for w in vj:
                    edges.add(frozenset((u, w)))
            stack.append((verts, labels, edges))
            if not vi or not vj:
                continue
            state = trace[seen_joins]
            seen_joins += 1
            mtrue = [[0] * (k + 1) for _ in range(k + 1)]
            ntrue = [[0] * (k + 1) for _ in range(k + 1)]
            adj = {v: set() for v in verts}
            for e in edges:
                a, b = tuple(e)
                adj[a].add(b)
                adj[b].add(a)
            for e in edges:
                a, b = tuple(e)
                p, q = labels[a], labels[b]
                mtrue[p][q] += 1
                if p != q:
                    mtrue[q][p] += 1
            for w in verts:
                nb = sorted(adj[w])
                for x in range(len(nb)):
                    for y in range(x + 1, len(nb)):
                        p, q = labels[nb[x]], labels[nb[y]]
                        ntrue[p][q] += 1
                        if p != q:
                            ntrue[q][p] += 1
            assert state["m"] == mtrue
            assert state["n"] == ntrue
    assert seen_joins == len(trace)


def test_kexpr_from_modular_contract(rng):
    for _ in range(60):
        n = rng.randint(1, 14)
        g = build_graph(n, [(u, v) for u in range(n)
                            for v in range(u + 1, n) if rng.random() < rng.random()])
        md = modular_decomposition(g)
        expr = kexpr_from_modular(g, md)
        assert verify_irredundant(expr)[0]
        assert max_label(expr) <= max(2, modular_width(md))
        lg = eval_kexpr(expr)
        assert lg.graph.relabel(kexpr_vertex_order(md)) == g
        tri, girth = oracle_cycle_stats(g)
        assert dp_triangle_count(expr) == tri
        assert dp_girth(expr) == girth


def test_cograph_uses_two_labels():
    g = substitute(build_graph(2, [(0, 1)]),
                   [build_graph(3, []), build_graph(2, [(0, 1)])])
    expr = kexpr_from_modular(g, modular_decomposition(g))
    assert max_label(expr) == 2


def test_substituted_c5_label_bound():
    c5 = cycle(5)
    parts = [build_graph(2, [(0, 1)])] * 5
    g = substitute(c5, parts)
    expr = kexpr_from_modular(g, modular_decomposition(g))
    assert max_label(expr) <= 5
    lg = eval_kexpr(expr)
    order = kexpr_vertex_order(modular_decomposition(g))
    assert lg.graph.relabel(order) == g


def test_dp_matches_oracle_randomized(rng):
    for _ in range(150):
        expr = random_irredundant_kexpr(rng, rng.randint(2, 5),
                                        rng.randint(1, 40))
        g = eval_kexpr(expr).graph
        tri, girth = oracle_cycle_stats(g)
        assert dp_triangle_count(expr) == tri
        assert dp_girth(expr) == girth


@pytest.mark.parametrize("shape", ["cycle", "fan"])
def test_deep_expression_parses_and_solves(shape):
    text = deep_kexpr_text(shape)
    expr = parse_kexpr(text)
    # compare texts: the dataclasses' __eq__ recurses
    assert serialize_kexpr(expr) == text
    tri, girth = oracle_cycle_stats(eval_kexpr(expr).graph)
    assert dp_triangle_count(expr) == tri
    assert dp_girth(expr) == girth
