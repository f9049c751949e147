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
from graphdecomp.kexpr import (Intro, Join, KExpression, KExprError,
                               RedundantExpressionError, Rename, Union,
                               _CycleDP, iter_postorder)

from conftest import (alternating_chain as _alternating_chain, connected_er,
                      cycle, deep_kexpr_text, path)

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
    # a digit to str.isdigit, not to int()
    with pytest.raises(KExprError, match="position 2: expected an integer"):
        parse_kexpr("v(\u00b2)")


@pytest.mark.parametrize("text, position, message", [
    ("", 0, "expected 'v', '(', 'eta' or 'rho'"),
    ("x", 0, "expected 'v', '(', 'eta' or 'rho'"),
    ("eta(1,2,", 8, "expected 'v', '(', 'eta' or 'rho'"),
    ("e(1,2,v(1))", 0, "expected 'eta'"),
    ("r", 0, "expected 'rho'"),
    ("v1", 1, "expected '('"),
    ("etav", 3, "expected '('"),
    ("v()", 2, "expected an integer"),
    ("v(²)", 2, "expected an integer"),
    ("v(٣)", 2, "expected an integer"),
    ("eta(1 2,v(1))", 6, "expected ','"),
    ("v(1", 3, "expected ')'"),
    ("eta(1,2,v(1)", 12, "expected ')'"),
    ("rho(1,2,(v(1)+v(2)+", 18, "expected ')'"),
    ("(v(1)v(2))", 5, "expected '+'"),
    # label errors sit just past the closing parenthesis
    ("v(0)", 4, "labels are positive integers"),
    ("eta(0,1,v(1))", 13, "labels are positive integers"),
    ("eta(1,1, v(1) )", 15, "eta requires two distinct labels"),
    ("rho(2,2,v(1))", 13, "rho requires two distinct labels"),
    ("v(1))", 4, "trailing input after expression"),
    ("v(1) \nx\n", 6, "trailing input after expression"),
    ("v(1)\udcff", 4, "trailing input after expression"),
    # more digits than int() converts, at the start of the digit run
    pytest.param("v(" + "1" * 5000 + ")", 2, "integer too long",
                 id="label-of-5000-digits"),
    pytest.param("eta(1," + "2" * 5000 + ",v(1))", 6, "integer too long",
                 id="eta-label-of-5000-digits"),
])
def test_parse_error_messages_and_positions(text, position, message):
    with pytest.raises(KExprError) as info:
        parse_kexpr(text)
    assert str(info.value) == f"parse error at position {position}: {message}"


def test_parse_allows_surrounding_whitespace():
    text = "eta(1,2,(v(1)+v(2)))"
    expr = parse_kexpr(text)
    for padded in (text + "\n", "  " + text + "  ", "\t" + text + " \n\n",
                   "eta( 1 , 2 ,( v(1) + v(2) ) )\r\n",
                   # blanks are str.isspace: Unicode spaces, \x1c-\x1f
                   "eta(\u3000 1\x1f,2,(v(1)+v(2)))\x1c"):
        assert parse_kexpr(padded) == expr
    assert parse_kexpr("v(1)\n") == KExpression((Intro(1),))
    # input after the whitespace is still trailing, at its own position
    with pytest.raises(KExprError,
                       match="position 6: trailing input after expression"):
        parse_kexpr("v(1) \nx\n")


@pytest.mark.parametrize("ops, message", [
    ([Intro(1), Union()], "operation 1: Union\\(\\) lacks operands"),
    ([Intro(1), Intro(2), Union(), Union()], "operation 3: Union"),
    ([Join(1, 2), Intro(1)], "operation 0: Join"),
    ([Intro(1), Intro(2)], "leaves 2 graphs, not one"),
    ([Intro(1), Intro(2), Intro(1), Union()], "leaves 2 graphs"),
    ([], "leaves 0 graphs"),
    ([Intro(0)], "labels are positive integers"),
    ([Intro(1), Intro(2), Union(), Join(0, 1)], "positive"),
    ([Intro(1), Rename(1, -1)], "positive"),
    ([Intro(1), Intro(1), Union(), Join(1, 1)],
     "eta\\(1,1,...\\) requires distinct labels"),
    ([Intro(2), Rename(2, 2)], "rho\\(2,2,...\\) requires distinct labels"),
    ([Intro(1), "v(1)", Union()], "operation 1: 'v\\(1\\)' is not an operation"),
])
def test_kexpression_rejects_malformed_programs(ops, message):
    with pytest.raises(KExprError, match=message):
        KExpression(ops)


def test_kexpression_is_an_immutable_program():
    ops = [Intro(1), Intro(3), Union(), Join(1, 3), Rename(3, 2)]
    expr = KExpression(ops)
    ops.append(Union())                 # the program keeps its own copy
    assert expr.ops == (Intro(1), Intro(3), Union(), Join(1, 3), Rename(3, 2))
    assert list(iter_postorder(expr)) == list(expr.ops)
    assert max_label(expr) == expr.max_label == 3
    assert serialize_kexpr(expr) == "rho(3,2,eta(1,3,(v(1)+v(3))))"
    assert expr == parse_kexpr(serialize_kexpr(expr))
    assert expr != KExpression(ops[:3] + [Rename(1, 3), Rename(3, 2)])
    with pytest.raises(AttributeError):
        expr.ops = ()


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


def test_redundant_error_carries_only_its_message():
    expr = parse_kexpr("eta(1,2,eta(1,2,(v(1)+v(2))))")
    for dp in (dp_triangle_count, dp_girth):
        with pytest.raises(RedundantExpressionError) as info:
            dp(expr)
        message = "join eta(1,2) applied to classes already carrying 1 edge(s)"
        assert info.value.args == (message,)
        assert str(info.value) == message
        assert info.value.join == Join(1, 2)
    assert verify_irredundant(expr) == (False, Join(1, 2))


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


@pytest.fixture
def join_tables(monkeypatch):
    """The pair tables that each join adding edges leaves, indexed by label,
    recorded around ``_CycleDP._join``."""
    trace = []
    join = _CycleDP._join

    def recording(dp, op, st):
        st = join(dp, op, st)
        rank = dp.rank
        if st.sizes[rank[op.i]] and st.sizes[rank[op.j]]:
            k = max(rank)

            def by_label(tab, absent):
                return [[tab[rank[p]][rank[q]]
                         if p in rank and q in rank else absent
                         for q in range(k + 1)] for p in range(k + 1)]
            trace.append({"op": ("eta", op.i, op.j),
                          "m": by_label(st.mtab, 0),
                          "n": by_label(st.ntab, 0),
                          "d": by_label(st.dtab, UNREACHABLE)})
        return st

    monkeypatch.setattr(_CycleDP, "_join", recording)
    return trace


def test_diagonal_closed_walk_remark(join_tables):
    # triangle with a singleton class: the diagonal entry reports the
    # closed walk through it even though no such path exists, and the
    # running girth already accounts the 3-cycle
    expr = parse_kexpr("eta(2,3,eta(1,3,eta(1,2,((v(1)+v(2))+v(3)))))")
    assert dp_girth(expr) == 3
    final = join_tables[-1]
    assert final["op"] == ("eta", 2, 3)
    assert final["d"][1][1] == 3


def test_pair_tables_match_instrumented_evaluation(rng, join_tables):
    for _ in range(40):
        expr = random_irredundant_kexpr(rng, rng.randint(2, 5),
                                        rng.randint(2, 14))
        join_tables.clear()
        dp_girth(expr)
        _check_tables_against_partial_graphs(expr, join_tables)


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
def test_deep_expression_equality_hash_and_repr(shape):
    text = deep_kexpr_text(shape)
    expr, again = parse_kexpr(text), parse_kexpr(text)
    assert expr == again and hash(expr) == hash(again)
    assert expr != parse_kexpr(deep_kexpr_text(shape, depth=10**4 - 1))
    assert repr(expr) == repr(again)
    assert repr(expr).startswith("KExpression(ops=(Intro(label=")
    assert len({expr, again}) == 1


@pytest.mark.parametrize("shape", ["cycle", "fan"])
def test_deep_expression_parses_and_solves(shape):
    text = deep_kexpr_text(shape)
    expr = parse_kexpr(text)
    # compare texts: the dataclasses' __eq__ recurses
    assert serialize_kexpr(expr) == text
    tri, girth = oracle_cycle_stats(eval_kexpr(expr).graph)
    assert dp_triangle_count(expr) == tri
    assert dp_girth(expr) == girth


def test_dp_matches_oracle_up_to_six_labels(rng):
    for _ in range(300):
        expr = random_irredundant_kexpr(rng, rng.randint(2, 6),
                                        rng.randint(1, 30))
        tri, girth = oracle_cycle_stats(eval_kexpr(expr).graph)
        assert dp_triangle_count(expr) == tri
        assert dp_girth(expr) == girth


def test_girth_needs_two_vertices_per_class_pair():
    # found by a search over random expressions with few operations
    # (extra_ops between n and 2n): the only cycle leaves a class through
    # one vertex and comes back through another, so keeping one nearest
    # vertex per class pair misses it (7 in 180 000 such expressions)
    for text in (
            "eta(2,3,(eta(1,4,((eta(1,2,(v(2)+v(1)))+((v(2)+v(2))+v(4)))"
            "+eta(1,2,(v(2)+(v(3)+rho(4,1,v(4)))))))+rho(4,1,v(2))))",
            "eta(1,4,(eta(2,3,((eta(3,4,(v(4)+v(3)))+v(2))"
            "+eta(3,4,(rho(1,3,v(4))+rho(2,4,v(3))))))+rho(4,1,v(4))))",
            "eta(2,4,(eta(1,3,(rho(5,4,(eta(3,5,(v(3)+v(5)))"
            "+eta(3,4,(v(3)+v(4)))))+(v(1)+rho(4,5,v(2)))))+rho(4,1,v(1))))",
            "eta(1,2,(eta(3,4,(rho(3,4,eta(1,4,(v(4)+v(1))))"
            "+eta(1,4,((v(3)+v(1))+v(4)))))+eta(3,4,(rho(1,3,v(2))"
            "+(v(4)+v(3))))))"):
        expr = parse_kexpr(text)
        assert oracle_cycle_stats(eval_kexpr(expr).graph) == (0, 6)
        assert dp_girth(expr) == 6


def _relabelled(expr, label_of):
    ops = []
    for op in expr.ops:
        if isinstance(op, Intro):
            ops.append(Intro(label_of[op.label]))
        elif isinstance(op, Union):
            ops.append(op)
        else:
            ops.append(type(op)(label_of[op.i], label_of[op.j]))
    return KExpression(ops)


def test_dp_tables_follow_the_labels_in_use(rng):
    # the tables are indexed by rank among the labels the program uses:
    # labels near 10**12 cost what labels 1..k cost
    big = 10**12
    edge = parse_kexpr(f"eta(1,{big},(v(1)+v({big})))")
    assert (dp_triangle_count(edge), dp_girth(edge)) == (0, UNREACHABLE)
    triangle = parse_kexpr(f"eta({big},3,eta(1,3,eta(1,{big},"
                           f"((v(1)+v({big}))+v(3)))))")
    assert (dp_triangle_count(triangle), dp_girth(triangle)) == (1, 3)
    for _ in range(40):
        expr = random_irredundant_kexpr(rng, rng.randint(2, 5),
                                        rng.randint(1, 20))
        labels = rng.sample(range(big, big + 10**6), expr.max_label)
        far = _relabelled(expr, dict(zip(range(1, expr.max_label + 1),
                                         labels)))
        assert eval_kexpr(far).graph == eval_kexpr(expr).graph
        assert dp_triangle_count(far) == dp_triangle_count(expr)
        assert dp_girth(far) == dp_girth(expr)


@pytest.mark.parametrize("shape, triangles, girth",
                         [("fan", 1999, 3), ("cycle", 0, 2002)])
def test_deep_2000_step_shapes(shape, triangles, girth):
    expr = parse_kexpr(deep_kexpr_text(shape, steps=2000))
    assert dp_triangle_count(expr) == triangles
    assert dp_girth(expr) == girth


def test_kexpr_from_deep_modular_chain():
    levels = 1500
    md = _alternating_chain(levels)
    g = build_graph(levels + 1, [(levels - k, w) for k in range(0, levels, 2)
                                 for w in range(levels - k)])
    expr = kexpr_from_modular(g, md)
    assert kexpr_vertex_order(md) == list(range(levels, -1, -1))
    assert eval_kexpr(expr).graph.relabel(kexpr_vertex_order(md)) == g
    # 5000 levels stand for 6.25 million edges: check the expression
    # through the label-only DPs, against the triangles counted by hand
    # (two series vertices and any vertex below both)
    levels = 5000
    md = _alternating_chain(levels)
    expr = kexpr_from_modular(None, md)     # only the tree is read
    assert kexpr_vertex_order(md) == list(range(levels, -1, -1))
    assert max_label(expr) == 2 and verify_irredundant(expr)[0]
    assert dp_triangle_count(expr) == sum(b // 2 * (levels - b)
                                          for b in range(0, levels, 2))
    assert dp_girth(expr) == 3
