import pytest

from graphdecomp import (GraphError, Matching, build_graph, certifies_maximum,
                         maximum_matching, tutte_berge_set)
from graphdecomp.oracles import exhaustive_maximum_matching_size

from conftest import cycle, path


def _certified_maximum(g, f):
    """Blossom from the matching ``f``; checked by brute force and by U."""
    got = maximum_matching(g, f)
    got.validate(g)
    assert got.cardinality() == exhaustive_maximum_matching_size(g)
    assert certifies_maximum(g, got, tutte_berge_set(g, got))
    return got


def test_p3_single_step():
    assert _certified_maximum(path(3), Matching.empty(3)).cardinality() == 1


def test_c4_reaches_perfect_matching():
    got = _certified_maximum(cycle(4), Matching([None, 2, 1, None]))
    assert got.cardinality() == 2


def test_forced_length_three_path():
    # the only augmenting path is 0-1-2-3, which leaves P4's one perfect
    # matching
    got = _certified_maximum(path(4), Matching([None, 2, 1, None]))
    assert got.mate == [1, 0, 3, 2]


def test_blossom_contraction_instance():
    # C5 with a pendant, matched so the search must shrink the odd cycle
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    f = Matching([1, 0, 3, 2, None, None])
    with pytest.raises(GraphError):
        tutte_berge_set(g, f)
    assert _certified_maximum(g, f).cardinality() == 3


def test_incremental_path_search_reaches_optimum(rng):
    for _ in range(200):
        n = rng.randint(1, 9)
        g = build_graph(n, [(u, v) for u in range(n)
                            for v in range(u + 1, n) if rng.random() < 0.5])
        _certified_maximum(g, Matching.empty(n))


def test_warm_start(rng):
    for _ in range(50):
        n = rng.randint(2, 12)
        g = build_graph(n, [(u, v) for u in range(n)
                            for v in range(u + 1, n) if rng.random() < 0.4])
        first = maximum_matching(g)
        again = maximum_matching(g, initial=first)
        assert again.cardinality() == first.cardinality()
