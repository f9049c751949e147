import random

import pytest

from graphdecomp import build_graph

ALL_FAMILIES = ("cograph", "thin-spider", "thick-spider", "cycle",
                "co-cycle", "spiked-pk", "spiked-pk-bar", "spiked-qk",
                "spiked-qk-bar", "er", "substitution", "distance-hereditary")


def er_graph(rng, n, p):
    return build_graph(n, [(u, v) for u in range(n)
                           for v in range(u + 1, n) if rng.random() < p])


def connected_er(rng, n, lo=0.15, hi=0.9):
    while True:
        g = er_graph(rng, n, rng.uniform(lo, hi))
        if g.is_connected():
            return g


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(n_leaves):
    return build_graph(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


PETERSEN = build_graph(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
