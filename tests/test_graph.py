import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdecomp import (GraphError, bfs_distances, build_graph,
                         read_edgelist, substitute, write_edgelist)
from graphdecomp.distances import UNREACHABLE, Half, parse_half

from conftest import complete, cycle, path


def test_build_k2():
    g = build_graph(2, [(0, 1)])
    assert g.m == 1 and g.adj == ((1,), (0,))


def test_build_c5():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert g.m == 5 and all(g.degree(v) == 2 for v in range(5))


def test_duplicate_edges_collapse():
    g = build_graph(3, [(0, 1), (0, 1)])
    assert g.m == 1 and g.adj == ((1,), (0,), ())


def test_rejects_self_loop_and_range():
    with pytest.raises(GraphError, match="#1"):
        build_graph(3, [(0, 1), (2, 2)])
    with pytest.raises(GraphError, match="#0"):
        build_graph(2, [(0, 5)])


def test_bfs_examples():
    assert bfs_distances(cycle(5), 0) == [0, 1, 2, 2, 1]
    assert bfs_distances(build_graph(2, []), 0) == [0, UNREACHABLE]
    assert bfs_distances(path(4), 0) == [0, 1, 2, 3]


def test_substitute_examples():
    k1 = build_graph(1, [])
    k2 = build_graph(2, [(0, 1)])
    assert substitute(k2, [k1, k1]) == k2
    g = substitute(path(4), [k2, k1, k1, k1])
    assert g.n == 5
    # the K2 block is a module: 2 sees both of {0,1} and 3,4 see neither
    assert set(g.adj[2]) >= {0, 1}
    assert not set(g.adj[3]) & {0, 1}
    with pytest.raises(GraphError, match="arity"):
        substitute(k2, [k1])


def test_unreachable_sentinel_semantics():
    assert UNREACHABLE > 10**9
    assert min(3, UNREACHABLE) == 3
    assert max(3, UNREACHABLE) is UNREACHABLE
    assert 1 + UNREACHABLE is UNREACHABLE
    assert UNREACHABLE + UNREACHABLE is UNREACHABLE


def test_half_integers():
    assert str(Half(3)) == "3/2"
    assert str(Half(4)) == "2"
    assert Half(1) < Half(2) and Half.of_int(1) == Half(2)
    assert parse_half("3/2") == Half(3)
    assert parse_half("2") == Half(4)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return build_graph(n, edges)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_edgelist_roundtrip(g):
    assert read_edgelist(write_edgelist(g)) == g


@given(graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_relabel_is_isomorphism(g, pyrng):
    perm = list(range(g.n))
    pyrng.shuffle(perm)
    h = g.relabel(perm)
    assert h.m == g.m
    for u, v in g.edges():
        assert h.has_edge(perm[u], perm[v])


def test_edgelist_format_details():
    text = "# comment\n3 2\n0 1\n1 2\n"
    g = read_edgelist(text)
    assert g.n == 3 and g.m == 2
    assert write_edgelist(g) == "3 2\n0 1\n1 2\n"
    with pytest.raises(GraphError, match="promises"):
        read_edgelist("2 5\n0 1\n")
