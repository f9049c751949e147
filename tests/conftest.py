import os
import random
from pathlib import Path

import pytest

import graphdecomp
from graphdecomp import build_graph
from graphdecomp.modular import LEAF, PARALLEL, SERIES, MDNode
from graphdecomp.splitdec import COMPLETE, STAR, SplitTree

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


def alternating_chain(levels):
    """MDNode chain, series and parallel alternating: node k has the leaf
    of vertex levels - k and node k + 1 as children, and the last node two
    leaves.  So vertex levels - k is adjacent to every vertex below it
    exactly when k is even."""
    node = MDNode(LEAF, (0,), vertex=0)
    for k in range(levels - 1, -1, -1):
        node = MDNode(PARALLEL if k % 2 else SERIES, range(levels - k + 1),
                      [MDNode(LEAF, (levels - k,), vertex=levels - k), node])
    return node


def alternating_chain_graph(levels):
    """The graph whose modular tree is ``alternating_chain(levels)``."""
    return build_graph(levels + 1, [(levels - k, w)
                                    for k in range(0, levels, 2)
                                    for w in range(levels - k)])


def tree_shape(md):
    """Each node's kind, vertex set and child vertex sets: equal for two
    modular trees exactly when they agree up to the order of children."""
    return {(node.kind, tuple(node.vertices),
             frozenset(tuple(c.vertices) for c in node.children))
            for node in md.iter_nodes()}


def with_real_vertices(st):
    """Number every slot left unlinked as a real vertex, then validate."""
    for comp in st.components:
        for i, lab in enumerate(comp.labels):
            if lab is None:
                comp.labels[i] = st.n
                st.n += 1
    st.validate()
    return st


def caterpillar_split_tree(rng, length):
    """A path of star and complete components of 3 to 5 slots; a star's
    path markers sit at its center or at its leaves."""
    st = SplitTree(n=0)
    parent, parent_kind = None, None
    for _ in range(length):
        kind = STAR if parent_kind == COMPLETE else rng.choice((COMPLETE, STAR))
        size = rng.randint(3, 5)
        up, down = rng.sample(range(size), 2)
        ci = st.add([None] * size, kind, parent=parent, up=up)
        parent, parent_kind = (ci, down), kind
    return with_real_vertices(st)


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
