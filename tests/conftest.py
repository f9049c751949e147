import os
import random
from pathlib import Path

import pytest

import graphdecomp
from graphdecomp import build_graph

# environment for CLI subprocesses: they import the package from where the
# tests found it
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(Path(graphdecomp.__file__).resolve().parents[1]),
                os.environ.get("PYTHONPATH")) if p)}

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


# (start, step, close) of the deep k-expressions: each step wraps the text
# so far and adds one vertex, labelled 3 while it is the newest
DEEP_KEXPR_SHAPES = {
    # a path from the label-1 vertex, closed into a cycle at the end
    "cycle": ("rho(2,3,eta(1,2,(v(1)+v(2))))",
              "rho(2,3,rho(3,4,eta(2,3,({}+v(2)))))", "eta(1,3,{})"),
    # a path whose every vertex is joined to the label-1 hub
    "fan": ("v(1)", "rho(2,3,rho(3,4,eta(2,3,eta(1,2,({}+v(2))))))", "{}"),
}


def deep_kexpr_text(shape, depth=10**4, steps=200):
    """Text of an expression nested ``depth`` deep: a ``shape`` built in
    ``steps`` steps, under a left-deep chain of unions with isolated
    vertices."""
    start, step, close = DEEP_KEXPR_SHAPES[shape]
    head, tail = step.split("{}")
    text = close.format(head * steps + start + tail * steps)
    # every operator sits on the left spine, so depth = operators + 1
    ops = text.count("eta") + text.count("rho") + text.count("+")
    pad = depth - 1 - ops
    return "(" * pad + text + "+v(4))" * pad


PETERSEN = build_graph(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
