"""Inputs and pipelines of the three benchmark workloads.

Every workload is a fixed list of requests made from its own recorded
seed (``WORKLOAD_SEEDS``), so that its fingerprint and the stored
reference values in ``refs.json`` hold for every run.  The run's
``--seed`` only chooses the order in which the requests are issued and
the sample of check sources.

A request is one input carried through its workload's whole pipeline.
Pipelines call the package's public functions through ``tr.call``, which
times each call as a span when tracing is on.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from graphdecomp import (betweenness_nd, betweenness_split, dp_girth,
                         dp_triangle_count, eccentricities_modular,
                         eccentricities_qq3, eccentricities_split,
                         effective_q, hyperbolicity_nd, hyperbolicity_qq3,
                         hyperbolicity_split, kexpr_from_modular,
                         max_matching_modular, max_matching_qq3,
                         modular_decomposition, nd_partition, parse_kexpr,
                         random_degenerate_split_tree, random_instance,
                         read_edgelist, split_decomposition, write_edgelist)

WORKLOADS = ("dh-split-large", "distance-mix", "modular-mix")
WORKLOAD_SEEDS = {"dh-split-large": 1001, "distance-mix": 2002,
                  "modular-mix": 3003}

DH_SIZES = (10_000, 20_000, 30_000)

# the twelve families of tests/test_acceptance.py (ALL_FAMILIES)
DISTANCE_FAMILIES = ("cograph", "thin-spider", "thick-spider", "cycle",
                     "co-cycle", "spiked-pk", "spiked-pk-bar", "spiked-qk",
                     "spiked-qk-bar", "er", "substitution",
                     "distance-hereditary")
DISTANCE_COUNT = 120
DISTANCE_N = (20, 50)
DISTANCE_ER_MAX = 40

MODULAR_DENSE = (("cograph", 300), ("cograph", 600), ("cograph", 1200),
                 ("substitution", 300), ("substitution", 600),
                 ("substitution", 1000))
MODULAR_FEW_P4 = ("thin-spider", "thick-spider", "qq3-mix", "co-cycle",
                  "distance-hereditary")
MODULAR_FEW_P4_COUNT = 30
MODULAR_FEW_P4_N = (70, 120)
KEXPR_COUNT = 64
KEXPR_N = (150, 500)
KEXPR_LABELS = (2, 6)
# a join is added only while it creates at most this many edges, which
# keeps the evaluated graphs sparse enough for the networkx checks
KEXPR_JOIN_CAP = 600


@dataclass
class Request:
    rid: str
    kind: str          # "dh", "distance", "dense", "few-p4" or "kexpr"
    family: str
    n: int
    edges: np.ndarray  # (m, 2) edges of the generated graph, u < v
    text: str = ""     # edge-list or k-expression text handed over
    graph: object = None        # dh-split-large: the graph ...
    tree: object = None         # ... and its split tree

    @property
    def m(self) -> int:
        return len(self.edges)


def make_requests(workload: str) -> list[Request]:
    rng = random.Random(WORKLOAD_SEEDS[workload])
    if workload == "dh-split-large":
        return _dh_requests()
    if workload == "distance-mix":
        return _distance_requests(rng)
    if workload == "modular-mix":
        return _modular_requests(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _dh_requests() -> list[Request]:
    out = []
    for i, n in enumerate(DH_SIZES):
        st = random_degenerate_split_tree(
            n, random.Random(WORKLOAD_SEEDS["dh-split-large"] + i))
        g = st.recompose()
        out.append(Request(f"dh{i:03d}", "dh", "distance-hereditary", n,
                           edge_array(g.edges()), graph=g, tree=st))
    return out


def _graph_request(rid: str, kind: str, family: str, g) -> Request:
    return Request(rid, kind, family, g.n, edge_array(g.edges()),
                   text=write_edgelist(g))


def edge_array(edges) -> np.ndarray:
    return np.array(list(edges), dtype=np.int64).reshape(-1, 2)


def _distance_requests(rng: random.Random) -> list[Request]:
    out = []
    lo, hi = DISTANCE_N
    for i in range(DISTANCE_COUNT):
        fam = DISTANCE_FAMILIES[i % len(DISTANCE_FAMILIES)]
        n = rng.randint(lo, min(hi, DISTANCE_ER_MAX) if fam == "er" else hi)
        g = random_instance(fam, n, rng).graph
        out.append(_graph_request(f"dm{i:03d}", "distance", fam, g))
    return out


def _modular_requests(rng: random.Random) -> list[Request]:
    out = []
    for fam, n in MODULAR_DENSE:
        g = random_instance(fam, n, rng).graph
        out.append(_graph_request(f"mm{len(out):03d}", "dense", fam, g))
    lo, hi = MODULAR_FEW_P4_N
    for i in range(MODULAR_FEW_P4_COUNT):
        fam = MODULAR_FEW_P4[i % len(MODULAR_FEW_P4)]
        g = random_instance(fam, rng.randint(lo, hi), rng).graph
        out.append(_graph_request(f"mm{len(out):03d}", "few-p4", fam, g))
    for i in range(KEXPR_COUNT):
        k = KEXPR_LABELS[0] + i % (KEXPR_LABELS[1] - KEXPR_LABELS[0] + 1)
        n = rng.randint(*KEXPR_N)
        text, edges = balanced_kexpr(rng, k, n)
        out.append(Request(f"mm{len(out):03d}", "kexpr", f"kexpr-{k}", n,
                           edge_array(edges), text=text))
    return out


def balanced_kexpr(rng: random.Random, k: int, n: int):
    """Irredundant k-expression text over n vertices, with its edge list.

    Unions split the vertex count near the middle, so nesting stays
    logarithmic in n.  Joins take label pairs with no edge between them
    yet, so the expression is irredundant; the edges are recorded as the
    joins are written, independently of the package's evaluator.
    """
    edges: list[tuple[int, int]] = []
    counter = [0]

    def build(size: int):
        if size == 1:
            lab = rng.randint(1, k)
            v = counter[0]
            counter[0] += 1
            return f"v({lab})", {lab: [v]}, set()
        left = max(1, min(size - 1, size // 2 + rng.randint(-size // 4,
                                                            size // 4)))
        ltext, classes, linked = build(left)
        rtext, rclasses, rlinked = build(size - left)
        for lab, vs in rclasses.items():
            classes.setdefault(lab, []).extend(vs)
        linked |= rlinked
        text = f"({ltext}+{rtext})"
        for _ in range(2):
            labs = sorted(classes)
            pairs = [(i, j) for i in labs for j in labs
                     if i < j and (i, j) not in linked
                     and len(classes[i]) * len(classes[j]) <= KEXPR_JOIN_CAP]
            if not pairs or rng.random() < 0.25:
                break
            i, j = pairs[rng.randrange(len(pairs))]
            edges.extend((min(u, w), max(u, w))
                         for u in classes[i] for w in classes[j])
            linked.add((i, j))
            text = f"eta({i},{j},{text})"
        if len(classes) >= 2 and rng.random() < 0.3:
            i, j = rng.sample(sorted(classes), 2)
            classes[j].extend(classes.pop(i))
            linked = {(min(a, b), max(a, b)) for a, b in
                      ((j if x == i else x, j if y == i else y)
                       for x, y in linked) if a != b}
            text = f"rho({i},{j},{text})"
        return text, classes, linked

    text, _, _ = build(n)
    return text, sorted(edges)


def fingerprint(requests: list[Request]) -> str:
    """Order-independent digest of the generated inputs."""
    digests = []
    for req in requests:
        h = hashlib.sha256(f"{req.kind}|{req.family}|{req.n}|".encode())
        h.update(req.edges.tobytes())
        h.update(req.text.encode())
        if req.tree is not None:
            h.update(repr(req.tree.to_json()).encode())
        digests.append(h.hexdigest())
    return hashlib.sha256("".join(sorted(digests)).encode()).hexdigest()


# -- pipelines ---------------------------------------------------------------


def run_request(req: Request, tr) -> dict:
    """Carry one input through its workload's pipeline; returns outputs."""
    call = tr.call
    if req.kind == "dh":
        g, st = req.graph, req.tree
        return {
            "ecc": call("ecc", "eccentricities_split", eccentricities_split,
                        g, st),
            "hyp": call("hyp", "hyperbolicity_split", hyperbolicity_split,
                        g, st),
            "bc": call("bc", "betweenness_split", betweenness_split, g, st),
        }
    if req.kind == "kexpr":
        expr = call("kexpr", "parse_kexpr", parse_kexpr, req.text)
        return {
            "expr": expr,
            "triangles": call("kexpr", "dp_triangle_count",
                              dp_triangle_count, expr),
            "girth": call("kexpr", "dp_girth", dp_girth, expr),
        }
    g = call("graph", "read_edgelist", read_edgelist, req.text)
    if req.kind == "distance":
        st = call("splitdec", "split_decomposition", split_decomposition, g)
        md = call("modular", "modular_decomposition", modular_decomposition,
                  g)
        ndp = call("modular", "nd_partition", nd_partition, g)
        return {
            "graph": g, "tree": st, "md": md,
            "ecc_split": call("ecc", "eccentricities_split",
                              eccentricities_split, g, st),
            "ecc_modular": call("ecc", "eccentricities_modular",
                                eccentricities_modular, g, md),
            "ecc_qq3": call("ecc", "eccentricities_qq3", eccentricities_qq3,
                            g, md),
            "hyp_split": call("hyp", "hyperbolicity_split",
                              hyperbolicity_split, g, st),
            "hyp_nd": call("hyp", "hyperbolicity_nd", hyperbolicity_nd, g,
                           ndp),
            "hyp_qq3": call("hyp", "hyperbolicity_qq3", hyperbolicity_qq3,
                            g, md),
            "bc_split": call("bc", "betweenness_split", betweenness_split,
                             g, st),
            "bc_nd": call("bc", "betweenness_nd", betweenness_nd, g, ndp),
        }
    md = call("modular", "modular_decomposition", modular_decomposition, g)
    out = {
        "graph": g, "md": md,
        "q_eff": call("classify", "effective_q", effective_q, g, md),
        "match_modular": call("matching", "max_matching_modular",
                              max_matching_modular, g, md),
    }
    if req.kind == "few-p4" or req.family == "cograph":
        out["match_qq3"] = call("matching", "max_matching_qq3",
                                max_matching_qq3, g, md)
    if req.kind == "dense":
        expr = call("kexpr", "kexpr_from_modular", kexpr_from_modular, g, md)
        out["expr"] = expr
        out["triangles"] = call("kexpr", "dp_triangle_count",
                                dp_triangle_count, expr)
        out["girth"] = call("kexpr", "dp_girth", dp_girth, expr)
    return out


# outputs that are intermediate structures, read for the layer counts
STRUCTURES = ("graph", "tree", "md", "expr")


def compact(out: dict) -> dict:
    """The outputs to check, held as arrays rather than per-vertex objects.

    Runs after each request, outside its timing, so that outputs kept for
    the checks at the end of a run do not grow the heap the garbage
    collector walks during later passes.
    """
    res = {}
    for key, value in out.items():
        if key in STRUCTURES:
            continue
        if key.startswith("ecc"):
            res[key] = np.array(value, dtype=np.int64)
        elif key.startswith("hyp"):
            res[key] = value.twice
        elif key.startswith("bc"):
            res[key] = (np.array([float(x) for x in value]),
                        sum(value, Fraction(0)))
        elif key.startswith("match"):
            res[key] = np.array([-1 if v is None else v for v in value.mate],
                                dtype=np.int64)
        else:
            res[key] = value
    return res
