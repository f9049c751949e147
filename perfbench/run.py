"""Benchmark of the graphdecomp package: three workloads, checked results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload distance-mix --seed 1 \
        --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory.  One
process on one thread issues the workload's requests as a closed loop
with one client: each request starts when the previous one returns.  A
run sets the inputs up three times, then repeats whole passes over the
requests (in an order drawn from ``--seed``), as many as bring the
measured time nearest to ``--seconds``, then checks every output.  A
full garbage collection runs before each request, outside its timing.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, times every call into a layer as a span,
runs the baselines once, writes the spans to ``perfbench/out/`` and
prints the per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import BASELINE, REQUEST, Tracer, Untraced

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFS = HERE / "refs.json"
SETUP_REPEATS = 3

LAYER_METRICS = (
    ("graph.read_edgelist_s", "s"), ("graph.read_edgelist_calls", "count"),
    ("graph.edges_read", "count"),
    ("splitdec.split_decomposition_s", "s"),
    ("splitdec.split_decomposition_calls", "count"),
    ("splitdec.components", "count"), ("splitdec.prime_components", "count"),
    ("splitdec.split_width_max", "count"), ("splitdec.gc2", "count"),
    ("modular.modular_decomposition_s", "s"),
    ("modular.modular_decomposition_calls", "count"),
    ("modular.nd_partition_s", "s"), ("modular.prime_nodes", "count"),
    ("modular.tree_depth_max", "count"),
    ("modular.modular_width_max", "count"), ("modular.gc2", "count"),
    ("classify.effective_q_s", "s"), ("classify.effective_q_calls", "count"),
    ("classify.q_eff_max", "count"),
    ("ecc.eccentricities_split_s", "s"),
    ("ecc.eccentricities_modular_s", "s"),
    ("ecc.eccentricities_qq3_s", "s"), ("ecc.gc2", "count"),
    ("hyp.hyperbolicity_split_s", "s"), ("hyp.hyperbolicity_nd_s", "s"),
    ("hyp.hyperbolicity_qq3_s", "s"), ("hyp.gc2", "count"),
    ("bc.betweenness_split_s", "s"), ("bc.betweenness_nd_s", "s"),
    ("bc.gc2", "count"),
    ("matching.max_matching_modular_s", "s"),
    ("matching.max_matching_qq3_s", "s"), ("matching.witnesses", "count"),
    ("matching.witness_vertices", "count"),
    ("matching.witness_ratio_max", "ratio"), ("matching.gc2", "count"),
    ("kexpr.parse_kexpr_s", "s"), ("kexpr.kexpr_from_modular_s", "s"),
    ("kexpr.dp_triangle_count_s", "s"), ("kexpr.dp_girth_s", "s"),
    ("kexpr.expr_nodes", "count"), ("kexpr.labels_max", "count"),
    ("oracles.oracle_eccentricities_s", "s"),
    ("oracles.oracle_cycle_stats_s", "s"),
    ("blossom.maximum_matching_s", "s"),
    ("bench.self_s", "s"), ("bench.trace_overhead_s", "s"),
)

# The machine's speed drifts by up to 30 % over minutes with its other
# tenants' load, alike for every kind of pure-Python work the workloads do.
# So every timed section is followed, outside its timing, by runs of a
# fixed reference kernel for CALIBRATION_SHARE of its time, and the
# end-to-end times are scaled by REFERENCE_KERNEL_S over the kernel's mean
# time in the same pass (or in the set-up): they read as wall times on a
# machine where the kernel takes REFERENCE_KERNEL_S.  The kernel is the
# benchmark's own code, so a change to the package moves the scaled times
# as it moves wall times.
REFERENCE_KERNEL_S = 0.002
KERNEL_STEPS = 10_000
CALIBRATION_SHARE = 0.1

# baselines run once per traced run, on the inputs small enough for them
ORACLE_ECC_MAX_N = 10_000
ORACLE_CYCLES_MAX_NM = 5_000_000
BLOSSOM_MAX_N = 10_000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphdecomp" / "__init__.py").is_file():
        return fail(f"package source not found at {SRC}/graphdecomp", 2)
    if not REFS.is_file():
        return fail(f"reference file {REFS} not found", 2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import graphdecomp  # noqa: F401  (timed as part of set-up)
    import_s = time.perf_counter() - t0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from "
                    f"{', '.join(workloads.WORKLOADS)}", 2)
    refs = json.loads(REFS.read_text())

    gen_s = []
    requests = None
    setup_speed = Calibration()
    setup_speed.after(import_s)
    for _ in range(SETUP_REPEATS):
        requests = None
        gc.collect()
        t0 = time.perf_counter()
        requests = workloads.make_requests(args.workload)
        gen_s.append(time.perf_counter() - t0)
        setup_speed.after(gen_s[-1])
    setup_s = (import_s + statistics.median(gen_s)) * setup_speed.scale()

    fp = workloads.fingerprint(requests)
    print(f"{args.workload}: {len(requests)} requests, inputs fingerprint "
          f"{fp}", file=sys.stderr)
    if fp != refs["fingerprints"].get(args.workload):
        return fail(f"workload {args.workload}: inputs fingerprint {fp} "
                    f"differs from the one recorded in {REFS.name}; "
                    f"record it anew with "
                    f"'python3 perfbench/make_refs.py fingerprints'")

    order = list(range(len(requests)))
    random.Random(args.seed).shuffle(order)
    bench = Bench(requests, order, workloads.run_request, workloads.compact)
    tracer = Tracer() if args.trace else None
    bench.run(args.seconds, tracer)
    if tracer:
        bench.baselines(tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from checks import Checker
    checker = Checker(refs, args.seed)
    wrong = bench.check(checker)
    for rid, keys in sorted(wrong.items()):
        print(f"{args.workload}: request {rid} wrong: {', '.join(keys)}",
              file=sys.stderr)
    for rid, exc in sorted(bench.errors.items()):
        print(f"{args.workload}: request {rid} raised {exc!r}",
              file=sys.stderr)

    if tracer:
        metrics = bench.layer_metrics(tracer)
        write_trace(args, tracer, requests)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "total_s": (statistics.fmean(
                s * f for s, f in zip(bench.pass_s, bench.pass_scale)), "s"),
            "request_p50_ms": (bench.request_percentile(0.5) * 1e3, "ms"),
            "request_p90_ms": (bench.request_percentile(0.9) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(f"{args.workload}: passes of {len(requests)} requests took "
          f"{', '.join(f'{s:.3f}' for s in bench.pass_s)} s untraced, "
          f"{', '.join(f'{s:.3f}' for s in bench.traced_pass_s) or '-'} s "
          f"traced, wall time; times scaled by {setup_speed.scale():.3f} "
          f"(set-up) and "
          f"{', '.join(f'{f:.3f}' for f in bench.pass_scale)} (passes); "
          f"{bench.attempted} attempted, {bench.failed} failed",
          file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


class Calibration:
    """Mean time of the reference kernel over one phase of a run."""

    def __init__(self):
        self.kernel_s = 0.0
        self.kernels = 0

    def after(self, timed_s: float) -> None:
        """Run the kernel for CALIBRATION_SHARE of ``timed_s``, at least
        once."""
        spent = 0.0
        while self.kernels == 0 or spent < CALIBRATION_SHARE * timed_s:
            t0 = time.perf_counter()
            reference_kernel()
            spent += time.perf_counter() - t0
            self.kernels += 1
        self.kernel_s += spent

    def scale(self) -> float:
        """Factor that takes this phase's wall times to the reference
        speed."""
        return REFERENCE_KERNEL_S * self.kernels / self.kernel_s


def reference_kernel() -> int:
    """Fixed pure-Python work of the package's kind: dict, set and list
    updates keyed by small integers."""
    adjacency: dict[int, list[int]] = {}
    seen: set[int] = set()
    order = []
    for i in range(KERNEL_STEPS):
        v = (i * 7919) & 1023
        adjacency.setdefault(v, []).append(i)
        if v not in seen:
            seen.add(v)
            order.append(v)
    return len(order)


class Bench:
    """Passes over a workload's requests, and what they measured."""

    def __init__(self, requests, order, run_request, compact):
        self.requests = requests
        self.order = order
        self.run_request = run_request
        self.compact = compact
        self.pass_s: list[float] = []          # untraced passes, wall time
        self.pass_scale: list[float] = []      # ... and their scale factors
        self.traced_pass_s: list[float] = []
        self.request_s: dict[str, list[float]] = {}   # scaled times
        self.outputs: list[tuple] = []         # (request, checked outputs)
        self.errors: dict[str, BaseException] = {}
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, tracer=None) -> None:
        """Whole passes, as many as bring the run nearest to ``seconds``.

        Another pass starts while the run would end closer to ``seconds``
        with it than without it.  With a tracer, untraced and traced
        passes alternate, at least one of each.
        """
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(self.pass_s) > len(
                self.traced_pass_s)
            self.one_pass(tracer if traced else Untraced(), traced)
            done = len(self.pass_s) + len(self.traced_pass_s)
            elapsed = time.perf_counter() - start
            if tracer is not None and not self.traced_pass_s:
                continue
            if elapsed + elapsed / done / 2 >= seconds:
                return

    def one_pass(self, tr, traced: bool) -> None:
        if traced:
            import graphdecomp.matching as matching_mod
            matching_mod.WITNESS_STATS.clear()
            matching_mod.COLLECT_WITNESS_STATS = True
            tr.__enter__()
        timed = 0.0
        speed = Calibration()
        samples = []
        for i in self.order:
            req = self.requests[i]
            self.attempted += 1
            # a full collection first, so that no request's time depends on
            # the garbage of the requests the seed-drawn order put before it
            gc.collect()
            t0 = time.perf_counter()
            try:
                if traced:
                    with tr.span(REQUEST, req.rid):
                        out = self.run_request(req, tr)
                else:
                    out = self.run_request(req, tr)
                elapsed = time.perf_counter() - t0
                timed += elapsed
                self.outputs.append((req, self.compact(out)))
            except Exception as exc:     # counted as a failed request
                self.errors[req.rid] = exc
                self.failed += 1
                continue
            if traced:
                self.count_structures(req, out)
            else:
                samples.append((req.rid, elapsed))
                speed.after(elapsed)
            del out
        if traced:
            tr.__exit__(None, None, None)
            matching_mod.COLLECT_WITNESS_STATS = False
            self.count_witnesses(matching_mod.WITNESS_STATS)
            self.traced_pass_s.append(timed)
        else:
            scale = speed.scale() if samples else 1.0
            for rid, elapsed in samples:
                self.request_s.setdefault(rid, []).append(elapsed * scale)
            self.pass_s.append(timed)
            self.pass_scale.append(scale)

    def check(self, checker) -> dict[str, list[str]]:
        wrong: dict[str, list[str]] = {}
        for req, out in self.outputs:
            bad = checker.check(req, out)
            if bad:
                self.failed += 1
                wrong.setdefault(req.rid, sorted(set(bad)))
        return wrong

    def request_percentile(self, q: float) -> float:
        """Nearest-rank percentile over requests of each one's mean scaled
        time.

        A request's passes are spread over the whole run, so the mean
        averages the speed of a shared machine over the run; the best of
        two or three passes instead follows its fast and slow phases.
        """
        per_request = sorted(statistics.fmean(v)
                             for v in self.request_s.values())
        return per_request[max(0, math.ceil(q * len(per_request)) - 1)]

    # -- layer counts, read from the outputs of traced passes ---------------

    def count_structures(self, req, out: dict) -> None:
        from graphdecomp import max_label, modular_width, split_width
        from graphdecomp.kexpr import iter_postorder
        c, mx = self.counts, self.maxima
        if "graph" in out:
            c["graph.edges_read"] += out["graph"].m
        if "tree" in out:
            st = out["tree"]
            c["splitdec.components"] += len(st.components)
            c["splitdec.prime_components"] += len(st.prime_orders())
            mx["splitdec.split_width_max"] = max(
                mx["splitdec.split_width_max"], split_width(st))
        if "md" in out:
            md = out["md"]
            c["modular.prime_nodes"] += sum(
                1 for node in md.iter_nodes() if node.kind == "prime")
            mx["modular.tree_depth_max"] = max(
                mx["modular.tree_depth_max"], tree_depth(md))
            mx["modular.modular_width_max"] = max(
                mx["modular.modular_width_max"], modular_width(md))
        if "q_eff" in out:
            mx["classify.q_eff_max"] = max(mx["classify.q_eff_max"],
                                           out["q_eff"])
        if "expr" in out:
            expr = out["expr"]
            c["kexpr.expr_nodes"] += sum(1 for _ in iter_postorder(expr))
            mx["kexpr.labels_max"] = max(mx["kexpr.labels_max"],
                                         max_label(expr))

    def count_witnesses(self, stats) -> None:
        self.counts["matching.witnesses"] += len(stats)
        self.counts["matching.witness_vertices"] += sum(o for o, _ in stats)
        if stats:
            self.maxima["matching.witness_ratio_max"] = max(
                self.maxima["matching.witness_ratio_max"],
                max(o / max(1, q) for o, q in stats))

    # -- baselines and per-layer metrics ------------------------------------

    def baselines(self, tracer) -> None:
        """Run the oracles and blossom once on inputs small enough."""
        from graphdecomp import (build_graph, maximum_matching,
                                 oracle_cycle_stats, oracle_eccentricities)
        gc.collect()
        with tracer:
            for i in self.order:
                req = self.requests[i]
                g = (req.graph if req.graph is not None
                     else build_graph(req.n, req.edges.tolist()))
                with tracer.span(BASELINE, req.rid):
                    if req.kind in ("dh", "distance") \
                            and req.n <= ORACLE_ECC_MAX_N:
                        tracer.call("oracles", "oracle_eccentricities",
                                    oracle_eccentricities, g)
                    if req.kind in ("distance", "dense", "kexpr") \
                            and req.n * req.m <= ORACLE_CYCLES_MAX_NM:
                        tracer.call("oracles", "oracle_cycle_stats",
                                    oracle_cycle_stats, g)
                    if req.kind != "kexpr" and req.n <= BLOSSOM_MAX_N:
                        tracer.call("blossom", "maximum_matching",
                                    maximum_matching, g)

    def layer_metrics(self, tracer) -> dict:
        passes = len(self.traced_pass_s)
        self_s = tracer.self_times()
        calls = tracer.calls()
        out = {}
        for name, unit in LAYER_METRICS:
            layer, _, metric = name.partition(".")
            baseline = layer in ("oracles", "blossom")
            per = 1 if baseline else passes
            if name == "bench.self_s":
                value = (self_s[REQUEST] + self_s[BASELINE]) / passes
            elif name == "bench.trace_overhead_s":
                value = (statistics.median(self.traced_pass_s)
                         - statistics.median(self.pass_s))
            elif metric == "gc2":
                value = tracer.gc2[layer] / passes
            elif metric.endswith("_calls"):
                value = calls[f"{layer}.{metric[:-len('_calls')]}"] / per
            elif metric.endswith("_s"):
                value = self_s[f"{layer}.{metric[:-2]}"] / per
            elif metric.endswith("_max"):
                value = self.maxima[name]
            else:
                value = self.counts[name] / passes
            out[name] = (value, unit)
        return out


def tree_depth(md) -> int:
    depth = 0
    stack = [(md, 1)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        stack.extend((child, d + 1) for child in node.children)
    return depth


def write_trace(args, tracer, requests) -> None:
    OUT.mkdir(exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "requests": {r.rid: {"family": r.family, "n": r.n, "m": r.m}
                     for r in requests},
        "span_fields": ["name", "start_s", "end_s", "parent", "request"],
        "spans": [[name, start - t0, end - t0, parent, rid]
                  for name, start, end, parent, rid in tracer.spans],
    }))
    print(f"{args.workload}: trace written to {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
