import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdecomp import (GraphError, bfs_distances, build_graph,
                         random_instance, read_edgelist, substitute,
                         write_edgelist)
from graphdecomp.distances import UNREACHABLE, Half, parse_half

from conftest import ALL_FAMILIES, complete, cycle, path


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


def test_distance_table_equals_bfs_rows(monkeypatch):
    import graphdecomp.graph as graph_mod
    rounds = set()      # the graphs built by bit-parallel rounds
    real = graph_mod._distance_rounds

    def counted(g):
        rounds.add(id(g))
        return real(g)

    monkeypatch.setattr(graph_mod, "_distance_rounds", counted)
    rng = random.Random(19)
    families = [random_instance(fam, n, rng).graph
                for fam in ALL_FAMILIES for n in (8, 30, 60)]
    lines = [f(k) for k in (2, 3, 5, 8, 64, 128, 1024)
             for f in (path, cycle) if f is path or k >= 3]
    split = [build_graph(2, []),
             build_graph(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)])]
    for g in families + lines + split + [build_graph(0, []), path(1)]:
        want = [bfs_distances(g, v) for v in range(g.n)]
        assert list(map(list, g.distances())) == want
        assert g.distances() is g.distances()
        if g.n <= 128:
            # the rounds alone, on long and disconnected graphs too
            assert real(g) == want
    # a short graph takes the bit-parallel branch; paths, cycles and
    # disconnected graphs take the per-source one
    assert any(id(g) in rounds for g in families)
    assert not any(id(g) in rounds for g in lines + split)


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
    assert 1 + UNREACHABLE == UNREACHABLE
    assert UNREACHABLE + UNREACHABLE == UNREACHABLE


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


@pytest.mark.parametrize("text, message", [
    ("# only a comment\n3 1 2\n0 1\n", "line 2: expected 'n m' header"),
    ("\n4\n0 1\n", "line 2: expected 'n m' header"),
    ("x 1\n0 1\n", "line 1: expected 'n m' header"),
    ("3 1\n0\n", "line 2: expected 'u v'"),
    ("3 2\n0 1\n\n# c\n0 1 2\n", "line 5: expected 'u v'"),
    ("3 1\n0 x\n", "line 2: expected 'u v'"),
    ("3 1\n+1 2\n", "line 2: expected 'u v'"),
    ("3 1\n1_0 2\n", "line 2: expected 'u v'"),
    ("3 1\n-1 2\n", "line 2: expected 'u v'"),
    ("3 1\n١ 2\n", "line 2: expected 'u v'"),
    ("3 1\n0 1 # trailing\n", "line 2: expected 'u v'"),
    ("3 2\n0 1\n1 2 0\n2 x\n", "line 3: expected 'u v'"),
    ("3 2\n0 1\n1 2\n2 0\n", "header promises 2 edges, file has 3"),
    ("3 2\n0 1\n", "header promises 2 edges, file has 1"),
    ("3 2\n0 1\n1 3\n", r"edge #1 \(1,3\) has an endpoint out of range 0\.\.2"),
    ("3 1\n0 123456789012345678901234567890\n",
     r"edge #0 \(0,123456789012345678901234567890\) has an endpoint out"),
    ("3 2\n0 1\n2 2\n", "edge #1 is a self-loop at 2"),
    # a missing header: the first edge line is read as the header
    ("0 1\n1 2\n", r"edge #0 \(1,2\) has an endpoint out of range 0\.\.-1"),
    ("", "empty edge-list file"),
    ("# one\n\n  \t\n# two\n", "empty edge-list file"),
    # more digits than int() converts
    pytest.param("# c\n" + "1" * 5000 + " 1\n0 1\n",
                 "line 2: integer too long", id="header-n-of-5000-digits"),
    pytest.param("3 " + "1" * 5000 + "\n0 1\n", "line 1: integer too long",
                 id="header-m-of-5000-digits"),
    pytest.param("3 2\n0 1\n0 " + "1" * 5000 + "\n",
                 "edge #1: integer too long", id="endpoint-of-5000-digits"),
    pytest.param("3 1\n1 " + "0" * 5000 + "1\n",
                 "edge #0: integer too long", id="self-loop-of-5001-digits"),
])
def test_edgelist_errors(text, message):
    with pytest.raises(GraphError, match=f"^{message}"):
        read_edgelist(text)


@pytest.mark.parametrize("text, n, edges", [
    ("# héadér ☃\n3 2\n\n# mid 9 9\n0 1\n\n1 2\n", 3,
     [(0, 1), (1, 2)]),
    ("3 2\r\n0 1\r\n1 2\r\n", 3, [(0, 1), (1, 2)]),
    ("3\t2\n\t0\t1 \n 1  2\t", 3, [(0, 1), (1, 2)]),
    ("3 2\n0 1\n1 2", 3, [(0, 1), (1, 2)]),
    ("0 0\n", 0, []),
    ("5 1\n3 1\n", 5, [(1, 3)]),
    ("4 4\n0 1\n1 0\n0 1\n3 2\n", 4, [(0, 1), (2, 3)]),
    ("3 1\n000 002\n", 3, [(0, 2)]),
    # undecodable input bytes arrive as lone surrogates (surrogateescape)
    ("# caf\udce9\n2 1\n0 1\n", 2, [(0, 1)]),
])
def test_edgelist_accepted_shapes(text, n, edges):
    assert read_edgelist(text) == build_graph(n, edges)


@st.composite
def edgelist_texts(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=25)) if pairs else []
    filler = st.sampled_from(["", "  ", "\t", "#", "# 1 2", "  # é x"])
    sep = st.sampled_from([" ", "\t", "  "])
    end = st.sampled_from(["\n", "\r\n"])
    lines = [draw(filler) for _ in range(draw(st.integers(0, 2)))]
    lines.append(f"{n}{draw(sep)}{len(edges)}")
    for u, v in edges:
        lines.extend(draw(filler) for _ in range(draw(st.integers(0, 1))))
        lines.append(f"{draw(sep)}{u}{draw(sep)}{v}")
    return "".join(line + draw(end) for line in lines), n, edges


@given(edgelist_texts())
@settings(max_examples=80, deadline=None)
def test_edgelist_reads_like_build_graph(case):
    text, n, edges = case
    assert read_edgelist(text) == build_graph(n, edges)
