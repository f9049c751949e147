"""Eccentricities through split trees, modular quotients, and class dispatch.

Over a split tree, a real vertex's eccentricity is one more than the
value ``SplitTree.farthest`` sends out through its slot; that max-plus
pass and its closed forms live in ``splitdec``.  The modular variants
solve only the quotient, by the row maxima of its table: inner graphs
carry a universal marker vertex, so their diameter is at most two and a
per-vertex universality test settles them.
"""

from __future__ import annotations

from .classify import (DISC_COCYCLE, DISC_CYCLE, SPIKED_PK, SPIKED_PK_BAR,
                       SPIKED_QK, SPIKED_QK_BAR, THICK_SPIDER, THIN_SPIDER,
                       classify_prime_graph)
from .distances import Distance
from .graph import DisconnectedGraphError, Graph
from .modular import MDNode, PRIME, SERIES
from .splitdec import SplitTree


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise DisconnectedGraphError("eccentricities need a connected graph")


def eccentricities_split(g: Graph, st: SplitTree) -> list[Distance]:
    _require_connected(g)
    if g.n == 1:
        return [0]
    return [val + 1 for val in st.farthest()[1]]


# -------------------------------------------------------------------------
# modular kernelization


def _combine_modular(g: Graph, md: MDNode, quotient_ecc) -> list[Distance]:
    """Eccentricities from those of the modules in the root quotient.

    A series quotient is complete, so every module has eccentricity 1 there
    and no quotient graph is needed; a prime root's quotient goes to
    ``quotient_ecc``.
    """
    modules = [c.vertices for c in md.children]
    if md.kind == SERIES:
        ecc_q = [1] * len(modules)
    elif md.kind == PRIME:
        ecc_q = quotient_ecc(md.quotient)
    else:
        raise DisconnectedGraphError("parallel root means a disconnected graph")
    out: list[Distance] = [0] * g.n
    masks = g.masks()
    for i, mod in enumerate(modules):
        mod_mask = 0
        for v in mod:
            mod_mask |= 1 << v
        for v in mod:
            if len(mod) == 1:
                inner = 1
            else:
                inner = 1 if (mod_mask & ~masks[v] & ~(1 << v)) == 0 else 2
            out[v] = max(ecc_q[i], inner)
    return out


def eccentricities_modular(g: Graph, md: MDNode) -> list[Distance]:
    _require_connected(g)
    if md.is_leaf():
        return [0]
    return _combine_modular(g, md, _row_maxima)


def _row_maxima(quotient: Graph) -> list[Distance]:
    return [max(row) for row in quotient.distances()]


def eccentricities_qq3(g: Graph, md: MDNode) -> list[Distance]:
    _require_connected(g)
    if md.is_leaf():
        return [0]
    return _combine_modular(g, md, _quotient_ecc_by_class)


def _quotient_ecc_by_class(quotient: Graph) -> list[int]:
    k = quotient.n
    cls = classify_prime_graph(quotient, check_prime=False)
    ecc = [2] * k
    if cls.tag == THIN_SPIDER:
        for v in cls.witness["S"]:
            ecc[v] = 3
        return ecc
    if cls.tag == THICK_SPIDER or cls.tag == DISC_COCYCLE:
        return ecc
    if cls.tag == DISC_CYCLE:
        return [len(cls.witness["cycle_order"]) // 2] * k
    if cls.tag == SPIKED_PK:
        roles = cls.witness["roles"]
        kk = cls.witness["k"]
        for i in range(1, kk + 1):
            ecc[roles[f"v{i}"]] = max(i - 1, kk - i)
        for extra in ("x", "y"):
            if extra in roles:
                ecc[roles[extra]] = kk - 2
        return ecc
    if cls.tag == SPIKED_PK_BAR:
        return [1 if quotient.degree(v) == k - 1 else 2 for v in range(k)]
    if cls.tag == SPIKED_QK:
        roles = cls.witness["roles"]
        for name in ("v1", "v3", "v5"):
            ecc[roles[name]] = 3
        return ecc
    if cls.tag == SPIKED_QK_BAR:
        roles = cls.witness["roles"]
        for name in ("v2", "v4"):
            ecc[roles[name]] = 3
        return ecc
    return _row_maxima(quotient)
