"""Recognition of the special prime quotient classes.

A prime graph is classified as a disc (cycle or co-cycle), a prime spider,
one of the four spiked p-chain families (P_k, Q_k and their complements),
or a leftover small prime.  No recogniser searches: each reads one
labelling off degrees and neighbourhoods, and a positive answer carries it
as a witness that has been re-verified against the class's defining edge
set.

Proven: every member of a class gets its tag.  For discs, spiders and P_k
degree counts single out the cycle order, the legs and the tips; for Q_k
the proof is at ``_qk_ladder``.  Verify-only: the correctness of a tag
rests on the exact re-check, not on these arguments, so a graph outside
every class can only end as small-prime, whose order ``effective_q``
reports and whose downstream solvers are the generic exact ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .families import spiked_pk_edges, spiked_qk_edges
from .graph import Graph, GraphError, build_graph, simplicial_vertices
from .modular import PRIME, modular_decomposition

DISC_CYCLE = "disc-cycle"
DISC_COCYCLE = "disc-cocycle"
THIN_SPIDER = "thin-spider"
THICK_SPIDER = "thick-spider"
SPIKED_PK = "spiked-pk"
SPIKED_PK_BAR = "spiked-pk-bar"
SPIKED_QK = "spiked-qk"
SPIKED_QK_BAR = "spiked-qk-bar"
SMALL_PRIME = "small-prime"


@dataclass
class QuotientClass:
    tag: str
    order: int
    witness: dict = field(default_factory=dict)


def is_prime(g: Graph) -> bool:
    if g.n < 4:
        return False
    md = modular_decomposition(g)
    return md.kind == PRIME and all(c.is_leaf() for c in md.children)


def classify_prime_graph(g: Graph, check_prime: bool = True) -> QuotientClass:
    if check_prime and not is_prime(g):
        raise GraphError("classification requires a graph that is prime "
                         "for modular decomposition")
    co = None     # the complement, built on first need
    for recognize, bar_tag in ((_recognize_cycle, DISC_COCYCLE),
                               (_recognize_prime_spider, None),
                               (_recognize_spiked_pk, SPIKED_PK_BAR),
                               (_recognize_spiked_qk, SPIKED_QK_BAR)):
        res = recognize(g)
        if res:
            return res
        if bar_tag is None:
            continue
        if co is None:
            co = g.complement()
        res = recognize(co)
        if res:
            return QuotientClass(bar_tag, g.n, res.witness)
    return QuotientClass(SMALL_PRIME, g.n, {})


# -- discs ------------------------------------------------------------------


def _recognize_cycle(g: Graph):
    n = g.n
    if n < 5 or g.m != n or any(g.degree(v) != 2 for v in range(n)):
        return None
    order = [0, g.adj[0][0]]
    while len(order) < n:
        prev, cur = order[-2], order[-1]
        nxt = [w for w in g.adj[cur] if w != prev]
        if len(nxt) != 1:
            return None
        order.append(nxt[0])
    if not g.has_edge(order[-1], order[0]) or len(set(order)) != n:
        return None
    return QuotientClass(DISC_CYCLE, n, {"cycle_order": order})


# -- prime spiders ----------------------------------------------------------


def _recognize_prime_spider(g: Graph):
    n = g.n
    for r_count in (0, 1):
        if (n - r_count) % 2 or (n - r_count) < 4:
            continue
        k = (n - r_count) // 2
        for thick in (False, True):
            if thick and k < 3:
                continue
            s_deg = (k - 1) if thick else 1
            s_set = [v for v in range(n) if g.degree(v) == s_deg]
            if len(s_set) != k:
                continue
            wit = _check_spider(g, s_set, thick, r_count)
            if wit is not None:
                tag = THICK_SPIDER if thick else THIN_SPIDER
                return QuotientClass(tag, n, wit)
    return None


def _check_spider(g: Graph, s_set: list[int], thick: bool, r_count: int):
    n = g.n
    k = len(s_set)
    in_s = set(s_set)
    rest = [v for v in range(n) if v not in in_s]
    if thick:
        k_set = set()
        for s in s_set:
            k_set.update(g.adj[s])
        k_set = sorted(k_set)
    else:
        k_set = sorted(g.adj[s][0] for s in s_set)
    if len(k_set) != k or set(k_set) & in_s:
        return None
    r_set = [v for v in rest if v not in set(k_set)]
    if len(r_set) != r_count:
        return None
    matching = {}
    for s in s_set:
        if thick:
            non = [u for u in k_set if not g.has_edge(s, u)]
            if len(non) != 1:
                return None
            matching[s] = non[0]
        else:
            matching[s] = g.adj[s][0]
    if len(set(matching.values())) != k:
        return None
    for i, u in enumerate(k_set):
        for v in k_set[i + 1:]:
            if not g.has_edge(u, v):
                return None
    for i, u in enumerate(s_set):
        for v in s_set[i + 1:]:
            if g.has_edge(u, v):
                return None
    for r in r_set:
        if sorted(set(g.adj[r]) & set(k_set)) != k_set:
            return None
        if set(g.adj[r]) & in_s:
            return None
    return {"S": sorted(s_set), "K": list(k_set), "R": sorted(r_set),
            "thick": thick, "matching": matching}


# -- spiked p-chains P_k ----------------------------------------------------


def _recognize_spiked_pk(g: Graph):
    n = g.n
    # a path on k vertices plus t <= 2 tips of two edges: m = n - 1 + t
    if n < 6 or g.m > n + 1 or not g.is_connected():
        return None
    tips = []
    for v in range(n):
        if g.degree(v) == 2:
            a, b = g.adj[v]
            if g.has_edge(a, b):
                tips.append(v)
    if len(tips) > 2:
        return None
    core = sorted(set(range(n)) - set(tips))
    if len(core) < 6:
        return None
    sub, back = g.induced(core)
    path = _as_path(sub)
    if path is None:
        return None
    path = [back[v] for v in path]
    k = len(path)
    for orientation in (path, path[::-1]):
        roles = {f"v{i + 1}": orientation[i] for i in range(k)}
        with_x = with_y = False
        ok = True
        for tip in tips:
            nbrs = set(g.adj[tip])
            if nbrs == {roles["v2"], roles["v3"]} and not with_x:
                roles["x"] = tip
                with_x = True
            elif nbrs == {roles[f"v{k - 2}"], roles[f"v{k - 1}"]} and not with_y:
                roles["y"] = tip
                with_y = True
            else:
                ok = False
                break
        if ok and _verify_pk(g, k, with_x, with_y, roles):
            return QuotientClass(SPIKED_PK, n, {
                "k": k, "roles": roles, "with_x": with_x, "with_y": with_y})
    return None


def _as_path(g: Graph):
    n = g.n
    if g.m != n - 1 or any(g.degree(v) > 2 for v in range(n)):
        return None
    ends = [v for v in range(n) if g.degree(v) == 1]
    if len(ends) != 2:
        return None
    order = [ends[0]]
    prev = -1
    while len(order) < n:
        nxt = [w for w in g.adj[order[-1]] if w != prev]
        if len(nxt) != 1:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


def _verify_pk(g: Graph, k: int, with_x: bool, with_y: bool, roles) -> bool:
    n, edges, ref_roles = spiked_pk_edges(k, with_x, with_y)
    return n == g.n and _labels(g, edges, ref_roles, roles)


def _labels(g: Graph, edges, ref_roles: dict, roles: dict) -> bool:
    """Whether ``roles`` carries the reference edges exactly onto g."""
    perm = [0] * g.n
    for name, ref_id in ref_roles.items():
        perm[ref_id] = roles[name]
    return build_graph(g.n, edges).relabel(perm) == g


# -- spiked p-chains Q_k ----------------------------------------------------


def _recognize_spiked_qk(g: Graph):
    n = g.n
    if n < 6 or not g.is_connected():
        return None
    masks = g.masks()
    # a split graph: the simplicial vertices are stable, the rest a clique
    stable = simplicial_vertices(g)
    clique = [v for v in range(n) if v not in stable]
    clique_mask = sum(1 << v for v in clique)
    if (any(masks[v] & ~clique_mask for v in stable)
            or any(clique_mask & ~masks[v] != 1 << v for v in clique)):
        return None
    found = _qk_ladder(g, stable)
    return QuotientClass(SPIKED_QK, n, found) if found else None


def _qk_ladder(g: Graph, stable: set):
    """Label the v-chain of a split graph without search; verify exactly.

    v_1 is the degree-1 vertex whose neighbour has more stable neighbours,
    and v_2 that neighbour.  Step i (from 1) has v_1..v_{2i} pinned:
    v_{2i+1} is the unused stable vertex that sees v_2..v_{2i-2} but not
    v_{2i} among the pinned evens, of larger degree where two qualify, and
    v_{2i+2} is the unused neighbour of v_{2i+1} with the fewest stable
    neighbours.  The ladder stops when a step has no candidate; the
    labelling is then checked by ``_qk_finish``, and once more without its
    last even if it ends on one.

    Completeness.  In ``spiked_qk_edges(k, zs)`` the stable side is the odd
    vertices, every z index lies in 2..k-5, v_{2l-1} sees the evens
    v_2..v_{2l-4} and v_{2l}, z_{2l-1} sees v_2..v_{2l}, z_{2j} sees
    v_{2l-1} exactly for l >= j+2, and z_{2l-1} sees z_{2j} exactly for
    j <= l-1.  Let g be a relabelled member.
    - Start: v_1 and v_3 are its only degree-1 vertices, and v_2 has one
      stable neighbour more than v_4 (v_5).
    - Odd step: among v_2..v_{2i}, an unused v_{2l-1} sees just
      v_2..v_{2i-2} only for l = i+1, and z_{2l-1} only for l = i-1.  If
      z_{2i-3} exists then k >= 2i+2, and v_{2i+1} sees the i-1 evens,
      v_{2i+2} and every z_{2j} with j <= i-1, while z_{2i-3} sees the i-1
      evens and the z_{2j} with j <= i-2 only.  If k = 2i nothing
      qualifies and the ladder stops on the true chain.
    - Even step: the unused neighbours of v_{2i+1} are v_{2i+2} (if
      k >= 2i+2) and the z_{2j} with j <= i-1.  Such a z_{2j} sees every
      stable neighbour of v_{2i+2}, and also v_{2j+3} (j <= i-2) or
      v_{2i+3} (j = i-1, present as 2j <= k-5), which v_{2i+2} misses.
    - If k = 2i+1 the even step may pin a z_{2j} (j <= i-2) as v_{2i+2}.
      The next odd step then finds nothing: every odd v is used, and an
      odd z seeing v_2..v_{2i} would need index 2i-1 > k-5.  The retry
      without that even labels g.
    So every member is labelled, and since the labelling is re-verified
    against ``spiked_qk_edges`` a non-member still ends as None.

    Bound: each of the at most n/2 odd steps scans the stable vertices and
    one neighbourhood, and the pinned-even counts grow by one neighbourhood
    per even, so the ladder is O(n^2), as is each ``_qk_finish``.
    """
    n = g.n
    stable_deg = [0] * n
    for u in stable:
        for w in g.adj[u]:
            stable_deg[w] += 1
    ends = [v for v in range(n) if g.degree(v) == 1]
    if len(ends) != 2:
        return None
    v1 = max(ends, key=lambda v: stable_deg[g.adj[v][0]])
    roles = {"v1": v1, "v2": g.adj[v1][0]}
    hits = [0] * n           # pinned evens adjacent to each vertex
    for u in g.adj[roles["v2"]]:
        hits[u] += 1
    pool = sorted(stable)
    used = set(roles.values())
    i = 1
    while True:
        last = set(g.adj[roles[f"v{2 * i}"]])
        odds = [u for u in pool if u not in used and hits[u] == i - 1
                and u not in last]
        if not odds:
            break
        odd = max(odds, key=g.degree)
        roles[f"v{2 * i + 1}"] = odd
        used.add(odd)
        evens = [w for w in g.adj[odd] if w not in used]
        if not evens:
            break
        even = min(evens, key=stable_deg.__getitem__)
        roles[f"v{2 * i + 2}"] = even
        used.add(even)
        for u in g.adj[even]:
            hits[u] += 1
        i += 1
    found = _qk_finish(g, stable, roles)
    if found is None and f"v{2 * i + 1}" not in roles:
        del roles[f"v{2 * i}"]
        found = _qk_finish(g, stable, roles)
    return found


def _qk_finish(g: Graph, stable: set, roles: dict):
    """Name every unpinned vertex a z and verify the labelling exactly.

    z_{2l-1} sees the evens up to v_{2l}; z_{2j} sees no odd before
    v_{2j+3}.
    """
    k = len(roles)
    if k < 6:
        return None
    index = {v: int(name[1:]) for name, v in roles.items()}
    full = dict(roles)
    for u in range(g.n):
        if u in index:
            continue
        seen = [index[w] for w in g.adj[u] if w in index]
        if u in stable:
            z_idx = max(seen, default=0) - 1
        else:
            z_idx = min((i for i in seen if i % 2), default=0) - 3
        name = f"z{z_idx}"
        if name in full or not 2 <= z_idx <= k - 5:
            return None
        full[name] = u
    zs = tuple(sorted(int(name[1:]) for name in full if name[0] == "z"))
    _, edges, ref_roles = spiked_qk_edges(k, zs)
    if not _labels(g, edges, ref_roles, full):
        return None
    return {"k": k, "roles": full, "zs": zs}


# -- the structural parameter surrogate --------------------------------------


def effective_q(g: Graph, md) -> int:
    """Upper-bound surrogate for the P4-sparseness dispatch parameter.

    Takes the largest prime quotient that matches none of the special
    classes; 7 when every prime quotient is special or small.
    """
    worst = 7
    for node in md.iter_nodes():
        if node.kind != PRIME:
            continue
        q = node.quotient
        cls = classify_prime_graph(q, check_prime=False)
        if cls.tag == SMALL_PRIME:
            worst = max(worst, q.n)
    return worst
