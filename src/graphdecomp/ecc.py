"""Eccentricities over split trees and the kernel trees.

Over a split tree, a real vertex's eccentricity is one more than the
value ``SplitTree.farthest`` sends out through its slot; that max-plus
pass and its closed forms live in ``splitdec``.  The twin-class and
modular methods only build the tree: ``split_tree_from_nd`` and
``split_tree_from_modular`` give partial split decompositions, graph-
labelled trees in which two real vertices are adjacent exactly when the
tree path between them alternates (Gioan and Paul, *Split decomposition
and graph-labelled trees*, DAM 2012).  Distances read off such a tree as
off a split tree, so the one pass is exact on every tree here.
"""

from __future__ import annotations

from .distances import Distance
from .graph import DisconnectedGraphError, Graph
from .modular import MDNode
from .splitdec import SplitTree, split_tree_from_modular


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise DisconnectedGraphError("eccentricities need a connected graph")


def eccentricities_over_tree(st: SplitTree) -> list[Distance]:
    if st.n == 1:
        return [0]
    return [val + 1 for val in st.farthest()[1]]


def eccentricities_split(g: Graph, st: SplitTree) -> list[Distance]:
    _require_connected(g)
    return eccentricities_over_tree(st)


def eccentricities_modular(g: Graph, md: MDNode) -> list[Distance]:
    _require_connected(g)
    return eccentricities_over_tree(split_tree_from_modular(g, md))


#: the few-P4 method is the modular one: the kernel tree reads each prime
#: quotient's distance table, whatever the quotient's class
eccentricities_qq3 = eccentricities_modular
