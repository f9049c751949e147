"""Command-line front end: decomposition dumps, algorithms, checks, benches.

Exit codes: 0 success, 1 structural or algorithmic error, 2 usage error,
3 check mismatch.  All results go to stdout and are byte-deterministic for
a fixed seed; wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from .bc import betweenness_nd, betweenness_split
from .classify import effective_q
from .distances import UNREACHABLE, Half, dist_str
from .ecc import eccentricities_modular, eccentricities_qq3, eccentricities_split
from .families import FAMILY_NAMES, random_instance
from .graph import (DisconnectedGraphError, Graph, GraphError, read_edgelist,
                    write_edgelist)
from .hyp import (hyperbolicity_mw_gate, hyperbolicity_nd, hyperbolicity_qq3,
                  hyperbolicity_split)
from .kexpr import (dp_girth, dp_triangle_count, kexpr_from_modular,
                    parse_kexpr)
from .matching import max_matching_modular, max_matching_qq3
from .modular import modular_decomposition, modular_width, nd_partition
from .oracles import (oracle_betweenness, oracle_cycle_stats,
                      oracle_eccentricities, oracle_hyperbolicity,
                      oracle_maximum_matching)
from .splitdec import split_decomposition, split_width

HYP_ORACLE_CAP = 40


def _load_graph(path: str) -> Graph:
    text = sys.stdin.read() if path == "-" else open(path).read()
    return read_edgelist(text)


def _emit_rows(args, header: list[str], rows: list[list]) -> None:
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        print(json.dumps(payload, indent=None, separators=(",", ":")))
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))


def _per_component(g: Graph):
    for comp in g.connected_components():
        sub, back = g.induced(comp)
        yield sub, back


def _value_str(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return str(x)


# -- subcommand bodies -------------------------------------------------------


def cmd_ecc(args) -> int:
    g = _load_graph(args.graph)
    rows = []
    for sub, back in _per_component(g):
        vals = _ecc_method(sub, args.method)
        rows.extend([back[v], dist_str(vals[v])] for v in range(sub.n))
    rows.sort(key=lambda r: r[0])
    _emit_rows(args, ["vertex", "eccentricity"], rows)
    return 0


def _ecc_method(g: Graph, method: str):
    if method == "oracle":
        return oracle_eccentricities(g)
    if method == "split":
        return eccentricities_split(g, split_decomposition(g))
    if method == "modular":
        return eccentricities_modular(g, modular_decomposition(g))
    if method == "qq3":
        return eccentricities_qq3(g, modular_decomposition(g))
    raise GraphError(f"unknown eccentricity method {method!r}")


def cmd_diameter(args) -> int:
    g = _load_graph(args.graph)
    best = 0
    for sub, back in _per_component(g):
        vals = _ecc_method(sub, args.method)
        best = max(best, max(vals)) if sub.n else best
    if len(g.connected_components()) > 1:
        print("inf")
    else:
        print(dist_str(best))
    return 0


def cmd_hyp(args) -> int:
    g = _load_graph(args.graph)
    best = Half(0)
    gates = []
    for sub, back in _per_component(g):
        if args.method == "oracle":
            val = oracle_hyperbolicity(sub, cap=args.oracle_cap)
        elif args.method == "split":
            val = hyperbolicity_split(sub, split_decomposition(sub))
        elif args.method == "nd":
            val = hyperbolicity_nd(sub, nd_partition(sub))
        elif args.method == "qq3":
            val = hyperbolicity_qq3(sub, modular_decomposition(sub))
        elif args.method == "mw":
            gate, val = hyperbolicity_mw_gate(sub, modular_decomposition(sub))
            gates.append(gate)
            if not gate:
                continue
        else:
            raise GraphError(f"unknown hyperbolicity method {args.method!r}")
        if best < val:
            best = val
    if args.method == "mw" and not any(gates):
        print("gate=false (delta <= 1; quotient kernel cannot settle it)")
        return 0
    print(str(best))
    return 0


def cmd_bc(args) -> int:
    g = _load_graph(args.graph)
    rows = []
    for sub, back in _per_component(g):
        if args.method == "oracle":
            vals = oracle_betweenness(sub)
        elif args.method == "split":
            vals = betweenness_split(sub, split_decomposition(sub))
        elif args.method == "nd":
            vals = betweenness_nd(sub, nd_partition(sub))
        else:
            raise GraphError(f"unknown betweenness method {args.method!r}")
        rows.extend([back[v], _value_str(vals[v])] for v in range(sub.n))
    rows.sort(key=lambda r: r[0])
    _emit_rows(args, ["vertex", "betweenness"], rows)
    return 0


def cmd_match(args) -> int:
    g = _load_graph(args.graph)
    if args.method == "oracle":
        matching = oracle_maximum_matching(g)
    elif args.method == "modular":
        matching = max_matching_modular(g)
    elif args.method == "qq3":
        matching = max_matching_qq3(g)
    else:
        raise GraphError(f"unknown matching method {args.method!r}")
    for u, v in matching.edges():
        print(f"{u} {v}")
    print(f"cardinality {matching.cardinality()}")
    return 0


def _cycle_stats(args, which: str) -> int:
    if args.expr:
        expr = parse_kexpr(open(args.expr).read())
        val = dp_triangle_count(expr) if which == "triangles" else dp_girth(expr)
    else:
        g = _load_graph(args.graph)
        if args.method == "cw":
            expr = kexpr_from_modular(g, modular_decomposition(g))
            val = dp_triangle_count(expr) if which == "triangles" else dp_girth(expr)
        else:
            tri, girth = oracle_cycle_stats(g)
            val = tri if which == "triangles" else girth
    print(dist_str(val) if which == "girth" else str(val))
    return 0


def cmd_girth(args) -> int:
    return _cycle_stats(args, "girth")


def cmd_triangles(args) -> int:
    return _cycle_stats(args, "triangles")


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    gg = random_instance(args.family, args.n, rng, connected=not args.allow_disconnected)
    sys.stdout.write(write_edgelist(gg.graph))
    return 0


def cmd_params(args) -> int:
    g = _load_graph(args.graph)
    md = modular_decomposition(g)
    st = split_decomposition(g)
    ndp = nd_partition(g)
    row = [g.n, g.m, modular_width(md), split_width(st), ndp.nd,
           effective_q(g, md)]
    _emit_rows(args, ["n", "m", "mw", "sw", "nd", "q_eff"], [row])
    return 0


def cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    if args.kind == "modular":
        payload = modular_decomposition(g).to_json()
    elif args.kind == "split":
        payload = split_decomposition(g).to_json()
    elif args.kind == "nd":
        ndp = nd_partition(g)
        payload = {"classes": [list(c) for c in ndp.classes],
                   "tags": list(ndp.tags),
                   "quotient_edges": sorted(ndp.quotient.edges())}
    else:
        raise GraphError(f"unknown decomposition {args.kind!r}")
    print(json.dumps(payload, separators=(",", ":")))
    return 0


# -- check: algorithm-vs-oracle equality over generated instances ------------


def _check_one(problem: str, method: str, g: Graph, oracle_cap: int):
    if problem == "ecc":
        got = _ecc_method(g, method)
        want = oracle_eccentricities(g)
        return [dist_str(x) for x in got], [dist_str(x) for x in want]
    if problem == "hyp":
        if g.n > oracle_cap:
            raise GraphError(f"instance exceeds the hyperbolicity oracle cap {oracle_cap}")
        want = oracle_hyperbolicity(g, cap=oracle_cap)
        if method == "split":
            got = hyperbolicity_split(g, split_decomposition(g))
        elif method == "nd":
            got = hyperbolicity_nd(g, nd_partition(g))
        elif method == "qq3":
            got = hyperbolicity_qq3(g, modular_decomposition(g))
        else:
            raise GraphError(f"unknown hyperbolicity method {method!r}")
        return str(got), str(want)
    if problem == "bc":
        want = oracle_betweenness(g)
        if method == "split":
            got = betweenness_split(g, split_decomposition(g))
        elif method == "nd":
            got = betweenness_nd(g, nd_partition(g))
        else:
            raise GraphError(f"unknown betweenness method {method!r}")
        return [_value_str(x) for x in got], [_value_str(x) for x in want]
    if problem == "match":
        want = oracle_maximum_matching(g).cardinality()
        if method == "modular":
            got = max_matching_modular(g).cardinality()
        elif method == "qq3":
            got = max_matching_qq3(g).cardinality()
        else:
            raise GraphError(f"unknown matching method {method!r}")
        return str(got), str(want)
    if problem in ("girth", "triangles"):
        expr = kexpr_from_modular(g, modular_decomposition(g))
        tri, girth = oracle_cycle_stats(g)
        if problem == "girth":
            return dist_str(dp_girth(expr)), dist_str(girth)
        return str(dp_triangle_count(expr)), str(tri)
    raise GraphError(f"unknown check problem {problem!r}")


def cmd_check(args) -> int:
    rng = random.Random(args.seed)
    connected = args.problem in ("ecc", "hyp", "bc")
    mismatches = 0
    t0 = time.perf_counter()
    for trial in range(args.trials):
        n = args.n if args.n > 0 else rng.randint(4, 60)
        if args.problem == "hyp":
            n = min(n, args.oracle_cap)
        gg = random_instance(args.family, n, rng, connected=connected)
        got, want = _check_one(args.problem, args.method, gg.graph,
                               args.oracle_cap)
        ok = got == want
        mismatches += 0 if ok else 1
        print(f"trial {trial} family {args.family} n {gg.graph.n} "
              f"{'ok' if ok else 'MISMATCH got ' + repr(got) + ' want ' + repr(want)}")
    print(f"summary trials {args.trials} mismatches {mismatches}")
    print(f"check wall time {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 3 if mismatches else 0


def cmd_bench(args) -> int:
    rng = random.Random(args.seed)
    from .families import random_degenerate_split_tree
    from .ecc import eccentricities_split

    print("n,m,components,ecc_checksum")
    for n in args.sizes:
        tree = random_degenerate_split_tree(n, rng)
        t0 = time.perf_counter()
        g = tree.recompose()
        t1 = time.perf_counter()
        vals = eccentricities_split(g, tree)
        t2 = time.perf_counter()
        checksum = sum(v for v in vals if v is not UNREACHABLE)
        print(f"{n},{g.m},{len(tree.components)},{checksum}")
        print(f"bench n={n}: recompose {t1 - t0:.3f}s ecc-dp {t2 - t1:.3f}s",
              file=sys.stderr)
        if args.with_oracle and n <= args.oracle_cap:
            t3 = time.perf_counter()
            want = oracle_eccentricities(g)
            t4 = time.perf_counter()
            agree = want == vals
            print(f"bench n={n}: oracle {t4 - t3:.3f}s agree={agree}",
                  file=sys.stderr)
            if not agree:
                raise GraphError("bench oracle disagreement")
    return 0


# -- argument wiring ----------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdecomp",
        description="decomposition-based graph algorithms with brute-force "
                    "cross-checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, methods=None):
        p.add_argument("graph", nargs="?", default="-",
                       help="edge-list file ('-' for stdin)")
        if methods:
            p.add_argument("--method", choices=methods, default=methods[0])

    def rows_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def oracle_cap(p):
        p.add_argument("--oracle-cap", type=int, default=HYP_ORACLE_CAP)

    p = sub.add_parser("ecc", help="per-vertex eccentricities")
    common(p, ("split", "modular", "qq3", "oracle"))
    rows_format(p)
    p.set_defaults(func=cmd_ecc)

    p = sub.add_parser("diameter", help="graph diameter")
    common(p, ("split", "modular", "qq3", "oracle"))
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("hyp", help="Gromov hyperbolicity (exact half-integer)")
    common(p, ("split", "nd", "qq3", "mw", "oracle"))
    oracle_cap(p)
    p.set_defaults(func=cmd_hyp)

    p = sub.add_parser("bc", help="betweenness centrality (exact rationals)")
    common(p, ("split", "nd", "oracle"))
    rows_format(p)
    p.set_defaults(func=cmd_bc)

    p = sub.add_parser("match", help="maximum matching")
    common(p, ("modular", "qq3", "oracle"))
    p.set_defaults(func=cmd_match)

    for name, fn in (("girth", cmd_girth), ("triangles", cmd_triangles)):
        p = sub.add_parser(name, help=f"{name} via the expression DP or oracle")
        p.add_argument("graph", nargs="?", default=None)
        p.add_argument("--expr", help="file holding one k-expression")
        p.add_argument("--method", choices=("cw", "oracle"), default="cw")
        p.set_defaults(func=fn)

    p = sub.add_parser("gen", help="generate a family instance (edge list)")
    p.add_argument("--family", choices=FAMILY_NAMES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--allow-disconnected", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("params", help="n, m, and the width parameters")
    common(p)
    rows_format(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("decompose", help="decomposition trees as JSON")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--kind", choices=("modular", "split", "nd"),
                   default="modular")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check", help="algorithm-vs-oracle equality trials")
    p.add_argument("problem",
                   choices=("ecc", "hyp", "bc", "match", "girth", "triangles"))
    p.add_argument("--method", required=True)
    p.add_argument("--family", choices=FAMILY_NAMES, default="mixed")
    p.add_argument("--n", type=int, default=0,
                   help="target size (0 draws sizes at random)")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    oracle_cap(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="scaling table for the split-tree DP")
    p.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")],
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--oracle-cap", type=int, default=20000)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, DisconnectedGraphError, OSError, ValueError,
            RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
