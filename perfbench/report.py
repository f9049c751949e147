"""Fast path against baseline, per family, from a trace file.

Usage:  python3 perfbench/report.py perfbench/out/trace-<workload>-seed<n>.json

Sums the span times of each fast path and of its problem's baseline over
the requests of one family, on the requests where both ran, and prints
one row per family and fast path: request count, vertex range, the
decomposition seconds the fast paths share (split, modular and twin
classes), the fast-path seconds and the baseline seconds.  A call timed
in several traced passes counts once per pass.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

# problem -> (fast-path spans, the baseline span they are compared with)
PROBLEMS = {
    "ecc": (("ecc.eccentricities_split", "ecc.eccentricities_modular",
             "ecc.eccentricities_qq3"), "oracles.oracle_eccentricities"),
    "matching": (("matching.max_matching_modular",
                  "matching.max_matching_qq3"), "blossom.maximum_matching"),
    "cycles": (("kexpr.dp_triangle_count", "kexpr.dp_girth"),
               "oracles.oracle_cycle_stats"),
}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        trace = json.load(fh)
    per_request: dict = defaultdict(lambda: defaultdict(list))
    for name, start, end, _, rid in trace["spans"]:
        per_request[rid][name].append(end - start)
    rows: dict = defaultdict(lambda: [0, [], 0.0, 0.0, 0.0])
    for rid, spans in per_request.items():
        meta = trace["requests"][rid]
        decomp = sum(sum(v) for k, v in spans.items()
                     if k.split(".")[0] in ("splitdec", "modular"))
        for fast, base in PROBLEMS.values():
            for f in fast:
                if base not in spans or f not in spans:
                    continue
                row = rows[(meta["family"], f.split(".")[1])]
                row[0] += 1
                row[1].append(meta["n"])
                row[2] += decomp
                row[3] += sum(spans[f])
                row[4] += sum(spans[base])
    print(f"{'family':20s} {'fast path':22s} {'reqs':>4s} {'n':>11s} "
          f"{'decomp_s':>9s} {'fast_s':>8s} {'baseline_s':>10s}")
    for (family, fast), (count, ns, decomp, fast_s, base) in sorted(
            rows.items()):
        span = f"{min(ns)}-{max(ns)}"
        print(f"{family:20s} {fast:22s} {count:4d} {span:>11s} "
              f"{decomp:9.3f} {fast_s:8.3f} {base:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
