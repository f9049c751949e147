"""Command-line front end: decomposition dumps, algorithms and checks.

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

from .bc import betweenness_nd, betweenness_split
from .blossom import Matching
from .classify import effective_q
from .distances import Half
from .ecc import eccentricities_modular, eccentricities_qq3, eccentricities_split
from .families import FAMILY_NAMES, random_instance
from .graph import (DisconnectedGraphError, Graph, GraphError, read_edgelist,
                    write_edgelist)
from .hyp import hyperbolicity_nd, hyperbolicity_qq3, hyperbolicity_split
from .kexpr import (dp_girth, dp_triangle_count, kexpr_from_modular,
                    parse_kexpr)
from .matching import max_matching_modular, max_matching_qq3
from .modular import modular_decomposition, modular_width, nd_partition
from .oracles import (oracle_betweenness, oracle_cycle_stats,
                      oracle_eccentricities, oracle_hyperbolicity,
                      oracle_maximum_matching)
from .splitdec import split_decomposition, split_width

HYP_ORACLE_CAP = 40


def _read_text(path: str) -> str:
    # any bytes decode, alike from a file or stdin and in any locale: an
    # edge-list comment may hold them, and in a k-expression a stray one
    # meets the parser's positioned error
    if path == "-":
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
        return sys.stdin.read()
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return fh.read()


def _load_graph(path: str) -> Graph:
    return read_edgelist(_read_text(path))


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


# -- the problem -> method table ----------------------------------------------


def _on(decompose, solve):
    """A method that decomposes the graph and solves over the decomposition."""
    return lambda g, cap: solve(g, decompose(g))


def _cw(dp):
    """The clique-width method: ``dp`` over a k-expression, built from the
    graph's modular tree unless the expression itself is given."""
    def solve(source, cap):
        if isinstance(source, Graph):
            source = kexpr_from_modular(source, modular_decomposition(source))
        return dp(source)
    return solve


#: problem -> method -> solver(graph, oracle cap).  A command's first method
#: is its default, and ``check`` compares a method with the "oracle" entry.
METHODS = {
    "ecc": {
        "split": _on(split_decomposition, eccentricities_split),
        "modular": _on(modular_decomposition, eccentricities_modular),
        "qq3": _on(modular_decomposition, eccentricities_qq3),
        "oracle": lambda g, cap: oracle_eccentricities(g),
    },
    "hyp": {
        "split": _on(split_decomposition, hyperbolicity_split),
        "nd": _on(nd_partition, hyperbolicity_nd),
        "qq3": _on(modular_decomposition, hyperbolicity_qq3),
        "oracle": lambda g, cap: oracle_hyperbolicity(g, cap=cap),
    },
    "bc": {
        "split": _on(split_decomposition, betweenness_split),
        "nd": _on(nd_partition, betweenness_nd),
        "oracle": lambda g, cap: oracle_betweenness(g),
    },
    "match": {
        "modular": _on(modular_decomposition, max_matching_modular),
        "qq3": _on(modular_decomposition, max_matching_qq3),
        "oracle": lambda g, cap: oracle_maximum_matching(g),
    },
    "girth": {
        "cw": _cw(dp_girth),
        "oracle": lambda g, cap: oracle_cycle_stats(g)[1],
    },
    "triangles": {
        "cw": _cw(dp_triangle_count),
        "oracle": lambda g, cap: oracle_cycle_stats(g)[0],
    },
}


# -- subcommand bodies -------------------------------------------------------


def cmd_per_vertex(args) -> int:
    g = _load_graph(args.graph)
    solve = METHODS[args.command][args.method]
    rows = []
    for sub, back in _per_component(g):
        vals = solve(sub, None)
        rows.extend([back[v], str(vals[v])] for v in range(sub.n))
    rows.sort(key=lambda r: r[0])
    _emit_rows(args, ["vertex", args.column], rows)
    return 0


def cmd_diameter(args) -> int:
    g = _load_graph(args.graph)
    solve = METHODS["ecc"][args.method]
    best = max((max(solve(sub, None)) for sub, _ in _per_component(g)),
               default=0)
    print("inf" if len(g.connected_components()) > 1 else best)
    return 0


def cmd_hyp(args) -> int:
    g = _load_graph(args.graph)
    solve = METHODS["hyp"][args.method]
    vals = [solve(sub, args.oracle_cap) for sub, _ in _per_component(g)]
    print(max(vals, default=Half(0)))
    return 0


def cmd_match(args) -> int:
    g = _load_graph(args.graph)
    matching = METHODS["match"][args.method](g, None)
    for u, v in matching.edges():
        print(f"{u} {v}")
    print(f"cardinality {matching.cardinality()}")
    return 0


def cmd_cycles(args) -> int:
    if args.expr:
        source, method = parse_kexpr(_read_text(args.expr)), "cw"
    else:
        source, method = _load_graph(args.graph), args.method
    print(METHODS[args.command][method](source, None))
    return 0


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
    print(_dumps(payload))
    return 0


def _dumps(payload) -> str:
    """``json.dumps(payload, separators=(",", ":"))`` from an explicit stack.

    Dicts and lists of dicts are opened here, so a tree nested through
    them prints at any depth; any other value is one ``json.dumps`` call.
    """
    out = []
    stack = [(False, payload)]      # (is literal text, item)
    while stack:
        text, x = stack.pop()
        if text:
            out.append(x)
        elif isinstance(x, dict):
            out.append("{")
            stack.append((True, "}"))
            for i, (key, value) in reversed(list(enumerate(x.items()))):
                comma = "," if i else ""
                stack.append((False, value))
                stack.append((True, f"{comma}{json.dumps(key)}:"))
        elif isinstance(x, list) and any(isinstance(e, dict) for e in x):
            out.append("[")
            stack.append((True, "]"))
            for i in range(len(x) - 1, -1, -1):
                stack.append((False, x[i]))
                if i:
                    stack.append((True, ","))
        else:
            out.append(json.dumps(x, separators=(",", ":")))
    return "".join(out)


# -- check: algorithm-vs-oracle equality over generated instances ------------


def _shown(value):
    """A solver's output in the form ``check`` compares: matchings by their
    cardinality, per-vertex lists entry by entry, values as text."""
    if isinstance(value, Matching):
        return str(value.cardinality())
    if isinstance(value, list):
        return [str(x) for x in value]
    return str(value)


def _check_one(problem: str, method: str, g: Graph, oracle_cap: int):
    methods = METHODS[problem]
    if method not in methods:
        raise GraphError(f"unknown {problem} method {method!r}")
    return (_shown(methods[method](g, oracle_cap)),
            _shown(methods["oracle"](g, oracle_cap)))


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


# -- argument wiring ----------------------------------------------------------


def _at_least(low: int):
    """An argparse type: an int no less than ``low``, else a usage error."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"got {value}")
        return value
    return count


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphdecomp",
        description="decomposition-based graph algorithms with brute-force "
                    "cross-checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, problem=None):
        p.add_argument("graph", nargs="?", default="-",
                       help="edge-list file ('-' for stdin)")
        if problem:
            methods = tuple(METHODS[problem])
            p.add_argument("--method", choices=methods, default=methods[0])

    def rows_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def oracle_cap(p):
        p.add_argument("--oracle-cap", type=int, default=HYP_ORACLE_CAP)

    p = sub.add_parser("ecc", help="per-vertex eccentricities")
    common(p, "ecc")
    rows_format(p)
    p.set_defaults(func=cmd_per_vertex, column="eccentricity")

    p = sub.add_parser("diameter", help="graph diameter")
    common(p, "ecc")
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("hyp", help="Gromov hyperbolicity (exact half-integer)")
    common(p, "hyp")
    oracle_cap(p)
    p.set_defaults(func=cmd_hyp)

    p = sub.add_parser("bc", help="betweenness centrality (exact rationals)")
    common(p, "bc")
    rows_format(p)
    p.set_defaults(func=cmd_per_vertex, column="betweenness")

    p = sub.add_parser("match", help="maximum matching")
    common(p, "match")
    p.set_defaults(func=cmd_match)

    for name in ("girth", "triangles"):
        p = sub.add_parser(name, help=f"{name} via the expression DP or oracle")
        common(p, name)
        p.add_argument("--expr", help="file holding one k-expression")
        p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("gen", help="generate a family instance (edge list)")
    p.add_argument("--family", choices=FAMILY_NAMES, required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
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
    p.add_argument("problem", choices=tuple(METHODS))
    p.add_argument("--method", required=True)
    p.add_argument("--family", choices=FAMILY_NAMES, default="mixed")
    p.add_argument("--n", type=_at_least(0), default=0,
                   help="target size (0 draws sizes at random)")
    p.add_argument("--trials", type=_at_least(1), required=True)
    p.add_argument("--seed", type=int, required=True)
    oracle_cap(p)
    p.set_defaults(func=cmd_check)

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
