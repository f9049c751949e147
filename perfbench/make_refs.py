"""Record the benchmark's input fingerprints and slow reference values.

Usage, from the root of a checkout:

    python3 perfbench/make_refs.py fingerprints   # seconds
    python3 perfbench/make_refs.py matching       # networkx, minutes
    python3 perfbench/make_refs.py pair-excess    # scipy BFS, ~40 minutes
    python3 perfbench/make_refs.py all

``fingerprints`` digests each workload's generated inputs; run it after a
change to the generators that is meant to change what is measured.
``matching`` stores the networkx maximum-matching size of every
modular-mix graph too large to match within a run.  ``pair-excess``
stores, for every dh-split-large graph, the sum over unordered vertex
pairs of d(s, t) - 1, from scipy BFS out of every vertex: by Brandes'
identity it equals the sum of all betweenness values.  The values are
merged into ``perfbench/refs.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json"
sys.path.insert(0, str(HERE.parent / "src"))

import networkx as nx  # noqa: E402
import numpy as np  # noqa: E402
from scipy.sparse.csgraph import shortest_path  # noqa: E402

import workloads  # noqa: E402
from checks import LIVE_MATCHING_MAX_N, adjacency, nx_graph  # noqa: E402

BFS_CHUNK = 100


def fingerprints(refs: dict) -> None:
    refs["fingerprints"] = {}
    for name in workloads.WORKLOADS:
        fp = workloads.fingerprint(workloads.make_requests(name))
        refs["fingerprints"][name] = fp
        print(f"{name}: {fp}", flush=True)


def matching(refs: dict) -> None:
    refs["matching_size"] = {}
    for req in workloads.make_requests("modular-mix"):
        if req.kind == "kexpr" or req.n <= LIVE_MATCHING_MAX_N:
            continue
        g = nx_graph(req.n, req.edges)
        size = len(nx.max_weight_matching(g, maxcardinality=True))
        refs["matching_size"][req.rid] = size
        print(f"{req.rid} {req.family} n={req.n}: matching {size}",
              flush=True)


def pair_excess(refs: dict) -> None:
    refs["pair_excess"] = {}
    for req in workloads.make_requests("dh-split-large"):
        a = adjacency(req.n, req.edges)
        total = 0
        for lo in range(0, req.n, BFS_CHUNK):
            d = shortest_path(a, method="D", unweighted=True,
                              indices=np.arange(lo, min(req.n, lo + BFS_CHUNK)))
            total += int(d.sum())
        excess = total // 2 - req.n * (req.n - 1) // 2
        refs["pair_excess"][req.rid] = excess
        print(f"{req.rid} n={req.n}: pair excess {excess}", flush=True)


STEPS = {"fingerprints": fingerprints, "matching": matching,
         "pair-excess": pair_excess}


def main(argv) -> int:
    wanted = argv or ["all"]
    if any(w not in STEPS and w != "all" for w in wanted):
        print(f"usage: make_refs.py [all | {' | '.join(STEPS)}]...",
              file=sys.stderr)
        return 2
    refs = json.loads(REFS.read_text()) if REFS.is_file() else {}
    for name, step in STEPS.items():
        if name in wanted or "all" in wanted:
            step(refs)
            REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
