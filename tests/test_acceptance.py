"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All tolerances are exact equalities except the scaling criterion, whose
time budgets are asserted as stated.
"""

import random
import subprocess
import sys
import time

import pytest

import graphdecomp.matching as matching_mod
from graphdecomp import (FamilySpec, build_graph, betweenness_nd,
                         betweenness_split, dp_girth, dp_triangle_count,
                         eccentricities_modular, eccentricities_qq3,
                         eccentricities_split, eval_kexpr, gen_family,
                         hyperbolicity_nd, hyperbolicity_qq3,
                         hyperbolicity_split, max_matching_modular,
                         max_matching_qq3, modular_decomposition,
                         modular_width, nd_partition, oracle_betweenness,
                         oracle_cycle_stats, oracle_eccentricities,
                         oracle_hyperbolicity, oracle_maximum_matching,
                         random_degenerate_split_tree, random_instance,
                         random_irredundant_kexpr, split_decomposition,
                         split_width)
from graphdecomp.distances import Half

from conftest import ALL_FAMILIES, CLI_ENV


def _stream(rng, count, max_n, families, er_cap=40):
    for i in range(count):
        fam = families[i % len(families)]
        hi = min(max_n, er_cap) if fam == "er" else max_n
        n = rng.randint(4, hi)
        yield random_instance(fam, n, rng)


def test_acceptance_dp_correctness():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for trial in range(500):
        k = rng.randint(2, 6)
        n = rng.randint(1, 100)
        expr = random_irredundant_kexpr(rng, k, n)
        g = eval_kexpr(expr).graph
        tri, girth = oracle_cycle_stats(g)
        assert dp_triangle_count(expr) == tri, trial
        assert dp_girth(expr) == girth, trial
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"DP batch took {elapsed:.1f}s"
    print(f"PASS: DP correctness, 500 expressions exact in {elapsed:.1f}s")


def test_acceptance_eccentricities():
    rng = random.Random(202)
    for gg in _stream(rng, 500, 120, ALL_FAMILIES):
        g = gg.graph
        want = oracle_eccentricities(g)
        md = modular_decomposition(g)
        assert eccentricities_split(g, split_decomposition(g)) == want
        assert eccentricities_modular(g, md) == want
        assert eccentricities_qq3(g, md) == want
        assert max(want) <= max(modular_width(md), 2)
    print("PASS: eccentricities, 500 instances exact on all three methods "
          "with the diameter corollary")


def test_acceptance_hyperbolicity():
    rng = random.Random(303)
    for gg in _stream(rng, 200, 30, ALL_FAMILIES, er_cap=30):
        g = gg.graph
        want = oracle_hyperbolicity(g)
        st = split_decomposition(g)
        assert hyperbolicity_split(g, st) == want
        assert hyperbolicity_nd(g, nd_partition(g)) == want
        assert hyperbolicity_qq3(g, modular_decomposition(g)) == want
        sw = split_width(st)
        assert want <= max(Half(2), Half.of_int((sw - 1) // 2))
        assert want <= Half.of_int(max(oracle_eccentricities(g)) // 2)
    print("PASS: hyperbolicity, 200 instances exact on all three methods "
          "with both half-integer bounds")


def test_acceptance_betweenness():
    rng = random.Random(404)
    for gg in _stream(rng, 200, 60, ALL_FAMILIES, er_cap=32):
        g = gg.graph
        want = oracle_betweenness(g)
        assert betweenness_split(g, split_decomposition(g)) == want
        assert betweenness_nd(g, nd_partition(g)) == want
    print("PASS: betweenness, 200 instances bit-exact against Brandes")


def test_acceptance_matching_modular():
    rng = random.Random(505)
    matching_mod.WITNESS_STATS.clear()
    matching_mod.COLLECT_WITNESS_STATS = True
    try:
        for trial in range(500):
            n = rng.randint(8, 150 if trial % 5 == 0 else 90)
            gg = random_instance("substitution", n, rng, connected=False)
            g = gg.graph
            got = max_matching_modular(g)
            got.validate(g)
            assert got.cardinality() == oracle_maximum_matching(g).cardinality()
    finally:
        matching_mod.COLLECT_WITNESS_STATS = False
    ratios = [order / max(1, qedges)
              for order, qedges in matching_mod.WITNESS_STATS]
    c = max(ratios) if ratios else 0.0
    assert matching_mod.WITNESS_STATS, "witness machinery never ran"
    assert c <= 24.0, f"witness order bound violated: c = {c:.2f}"
    print(f"PASS: matching (modular witness), 500 substitution instances "
          f"exact; |V(witness)| <= c|E(G')| with measured c = {c:.2f} "
          f"over {len(matching_mod.WITNESS_STATS)} witnesses")


def test_acceptance_matching_qq3():
    rng = random.Random(606)
    families = ("cycle", "co-cycle", "thin-spider", "thick-spider",
                "qq3-mix", "qq3-mix", "qq3-mix")
    for trial in range(300):
        fam = families[trial % len(families)]
        n = rng.randint(8, 300 if trial % 6 == 0 else 120)
        gg = random_instance(fam, n, rng, connected=False)
        g = gg.graph
        got = max_matching_qq3(g)          # StructuralError would fail here
        got.validate(g)
        assert got.cardinality() == oracle_maximum_matching(g).cardinality()
    print("PASS: matching (few-P4 dispatch), 300 instances exact; "
          "structure assertions never fired")


def test_acceptance_scaling():
    rng = random.Random(707)
    times = {}
    graphs = {}
    for n in (10_000, 100_000):
        st = random_degenerate_split_tree(n, rng)
        g = st.recompose()
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            vals = eccentricities_split(g, st)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
        graphs[n] = (g, vals)
    assert times[100_000] < 5.0, f"DP took {times[100_000]:.2f}s at n=1e5"
    ratio = times[100_000] / times[10_000]
    assert ratio <= 15.0, f"growth ratio {ratio:.1f} exceeds 15"
    g, vals = graphs[10_000]
    t0 = time.perf_counter()
    want = oracle_eccentricities(g)
    oracle_time = time.perf_counter() - t0
    assert want == vals
    assert oracle_time > times[10_000], "oracle should be measurably slower"
    print(f"PASS: scaling, split-tree DP {times[10_000]*1000:.0f}ms at 1e4 "
          f"and {times[100_000]*1000:.0f}ms at 1e5 (ratio {ratio:.1f}); "
          f"quadratic oracle {oracle_time:.1f}s at 1e4 "
          f"({oracle_time/times[10_000]:.0f}x slower)")


def _cli(args, stdin_text=None) -> bytes:
    out = subprocess.run([sys.executable, "-m", "graphdecomp.cli", *args],
                         env=CLI_ENV, input=stdin_text, capture_output=True,
                         timeout=600)
    assert out.returncode == 0, out.stderr.decode()
    return out.stdout


def test_acceptance_determinism(tmp_path):
    graph_bytes = _cli(["gen", "--family", "qq3-mix", "--n", "30",
                        "--seed", "42"])
    gpath = tmp_path / "g.el"
    gpath.write_bytes(graph_bytes)
    expr_path = tmp_path / "e.kx"
    expr_path.write_text("eta(1,2,((v(1)+v(1))+(v(2)+v(2))))")
    invocations = [
        ["gen", "--family", "distance-hereditary", "--n", "60", "--seed", "7"],
        ["ecc", "--method", "split", str(gpath)],
        ["ecc", "--method", "qq3", "--format", "json", str(gpath)],
        ["diameter", "--method", "modular", str(gpath)],
        ["hyp", "--method", "nd", str(gpath)],
        ["hyp", "--method", "mw", str(gpath)],
        ["bc", "--method", "split", str(gpath)],
        ["match", "--method", "qq3", str(gpath)],
        ["girth", "--method", "cw", str(gpath)],
        ["girth", "--expr", str(expr_path)],
        ["triangles", "--method", "oracle", str(gpath)],
        ["params", str(gpath)],
        ["decompose", "--kind", "split", str(gpath)],
        ["decompose", "--kind", "modular", str(gpath)],
        ["decompose", "--kind", "nd", str(gpath)],
        ["check", "ecc", "--method", "split", "--trials", "6", "--seed", "3"],
        ["check", "match", "--method", "modular", "--family", "substitution",
         "--n", "40", "--trials", "4", "--seed", "3"],
        ["bench", "--sizes", "200,800", "--seed", "5"],
    ]
    for args in invocations:
        first = _cli(args)
        second = _cli(args)
        assert first == second, f"nondeterministic stdout for {args}"
    print(f"PASS: determinism, {len(invocations)} subcommand invocations "
          "byte-identical across repeated runs")
