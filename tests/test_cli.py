import json
import subprocess
import sys

import pytest

from graphdecomp import (build_graph, modular_decomposition, read_edgelist,
                         write_edgelist)
from graphdecomp.cli import METHODS, main

from conftest import CLI_ENV, cycle, deep_kexpr_text, path


def run_cli(args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "graphdecomp.cli", *args], env=CLI_ENV,
        input=stdin_text, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def spider_file(tmp_path_factory):
    out = run_cli(["gen", "--family", "thin-spider", "--n", "14",
                   "--seed", "9"])
    assert out.returncode == 0
    p = tmp_path_factory.mktemp("cli") / "spider.el"
    p.write_text(out.stdout)
    return str(p)


def test_gen_requires_seed():
    out = run_cli(["gen", "--family", "cograph", "--n", "5"])
    assert out.returncode == 2


def test_ecc_csv(spider_file):
    out = run_cli(["ecc", "--method", "split", spider_file])
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "vertex,eccentricity"
    assert all("," in ln for ln in lines[1:])
    oracle = run_cli(["ecc", "--method", "oracle", spider_file])
    assert oracle.stdout == out.stdout
    modular = run_cli(["ecc", "--method", "modular", spider_file])
    assert modular.stdout == out.stdout


def test_ecc_json(spider_file):
    out = run_cli(["ecc", "--method", "qq3", "--format", "json", spider_file])
    payload = json.loads(out.stdout)
    assert all(set(row) == {"vertex", "eccentricity"} for row in payload)


def test_hyp_exact_halves(spider_file):
    out = run_cli(["hyp", "--method", "qq3", spider_file])
    assert out.returncode == 0
    assert out.stdout.strip() in {"0", "1/2", "1", "3/2", "2"}


def test_match_output_format(spider_file):
    out = run_cli(["match", "--method", "qq3", spider_file])
    lines = out.stdout.strip().splitlines()
    assert lines[-1].startswith("cardinality ")
    for ln in lines[:-1]:
        u, v = ln.split()
        assert int(u) < int(v)


def test_girth_from_expression(tmp_path):
    expr = tmp_path / "ex.kx"
    expr.write_text("eta(1,2,((v(1)+v(1))+(v(2)+v(2))))")
    out = run_cli(["girth", "--expr", str(expr)])
    assert out.stdout.strip() == "4"
    out = run_cli(["triangles", "--expr", str(expr)])
    assert out.stdout.strip() == "0"


def test_expression_with_a_large_label(tmp_path):
    # the DP tables follow the labels in use, not the largest label
    expr = tmp_path / "big.kx"
    expr.write_text("eta(1,1000000000000,(v(1)+v(1000000000000)))\n")
    for command, answer in (("girth", "inf\n"), ("triangles", "0\n")):
        out = run_cli([command, "--expr", str(expr)])
        assert (out.returncode, out.stdout, out.stderr) == (0, answer, "")


def test_expression_parse_error_has_position(tmp_path):
    expr = tmp_path / "bad.kx"
    expr.write_text("v(\u00b2)", encoding="utf-8")
    out = run_cli(["girth", "--expr", str(expr)])
    assert out.returncode == 1
    assert out.stderr.startswith("error: parse error at position 2:")


def test_expression_file_is_read_closed_and_decoded(tmp_path):
    # under -X dev a file left open adds a ResourceWarning to stderr, and a
    # stray byte reaches the parser rather than the decoder
    good, stray = tmp_path / "ok.kx", tmp_path / "stray.kx"
    good.write_text("(v(1)+v(2))")
    stray.write_bytes(b"(v(1)+v(2))\xe9")
    for command in ("girth", "triangles"):
        for path, expect in ((good, (0, "")), (stray, (1, (
                "error: parse error at position 11: "
                "trailing input after expression\n")))):
            out = subprocess.run(
                [sys.executable, "-X", "dev", "-m", "graphdecomp.cli",
                 command, "--expr", str(path)], env=CLI_ENV,
                capture_output=True, text=True, timeout=300)
            assert (out.returncode, out.stderr) == expect, command


def test_expression_file_with_surrounding_whitespace(tmp_path):
    expr = tmp_path / "ws.kx"
    for text in ("eta(1,2,((v(1)+v(1))+(v(2)+v(2))))\n",
                 "  eta(1,2,((v(1)+v(1))+(v(2)+v(2))))  \n\n",
                 "\teta(1, 2, ((v(1) + v(1)) + (v(2) + v(2))))\r\n"):
        expr.write_text(text)
        for command, answer in (("girth", "4\n"), ("triangles", "0\n")):
            out = run_cli([command, "--expr", str(expr)])
            assert (out.returncode, out.stdout, out.stderr) == (0, answer, "")


@pytest.mark.parametrize("deep", [False, True])
def test_redundant_expression_error_is_one_line(tmp_path, deep):
    # a 3000-deep operand once reached stderr through the join's repr
    inner = (deep_kexpr_text("cycle", depth=3000) if deep
             else "eta(1,3,(v(1)+v(3)))")
    expr = tmp_path / "redundant.kx"
    expr.write_text(f"eta(1,3,{inner})\n")
    for command in ("girth", "triangles"):
        out = run_cli([command, "--expr", str(expr)])
        assert (out.returncode, out.stdout, out.stderr) == (1, "", (
            "error: join eta(1,3) applied to classes already carrying "
            "1 edge(s)\n"))


def test_cycle_stats_from_deep_expression(tmp_path):
    expr = tmp_path / "deep.kx"
    expr.write_text(deep_kexpr_text("cycle"))
    out = run_cli(["triangles", "--expr", str(expr)])
    assert (out.returncode, out.stdout) == (0, "0\n")
    out = run_cli(["girth", "--expr", str(expr)])
    assert (out.returncode, out.stdout) == (0, "202\n")


def test_girth_from_graph_stdin():
    text = write_edgelist(cycle(7))
    out = run_cli(["girth", "--method", "cw", "-"], stdin_text=text)
    assert out.stdout.strip() == "7"
    out = run_cli(["girth", "--method", "oracle", "-"], stdin_text=text)
    assert out.stdout.strip() == "7"


def test_latin1_comment_reads_alike_from_file_and_stdin(tmp_path):
    data = b"# caf\xe9\n" + write_edgelist(cycle(7)).encode()
    f = tmp_path / "latin1.el"
    f.write_bytes(data)
    for args in (["match", "--method", "modular"],
                 ["girth", "--method", "cw"]):
        runs = [subprocess.run(
            [sys.executable, "-m", "graphdecomp.cli", *args, src],
            env=CLI_ENV, input=data, capture_output=True, timeout=300)
            for src in (str(f), "-")]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout != b""


def test_params_and_decompose(spider_file):
    out = run_cli(["params", spider_file])
    header, row = out.stdout.strip().splitlines()
    assert header == "n,m,mw,sw,nd,q_eff"
    n, m, mw, sw, nd, q = (int(x) for x in row.split(","))
    assert n == 14 and q >= 7
    out = run_cli(["decompose", "--kind", "split", spider_file])
    payload = json.loads(out.stdout)
    assert payload["n"] == 14
    out = run_cli(["decompose", "--kind", "modular", spider_file])
    assert json.loads(out.stdout)["kind"] in ("prime", "series", "parallel")


def test_check_pass_and_exit_codes():
    out = run_cli(["check", "match", "--method", "qq3", "--family",
                   "thick-spider", "--n", "40", "--trials", "4",
                   "--seed", "11"])
    assert out.returncode == 0
    assert "summary trials 4 mismatches 0" in out.stdout


def test_check_qq3_matching_on_substitutions():
    # disc and spider quotients with nontrivial modules reach the
    # generic witness loop instead of raising
    out = run_cli(["check", "match", "--method", "qq3", "--family",
                   "substitution", "--n", "40", "--trials", "30",
                   "--seed", "1"])
    assert out.returncode == 0, out.stderr
    assert "summary trials 30 mismatches 0" in out.stdout


def test_check_detects_mismatch(tmp_path, monkeypatch):
    # a broken method must exit 3; simulate by comparing girth of a
    # non-cw-representable... instead: run the real check and tamper via env
    # is overkill; assert the exit-code contract through a tiny wrapper
    code = (
        "import sys\n"
        "from graphdecomp.cli import main, _check_one\n"
        "import graphdecomp.cli as c\n"
        "c._check_one = lambda *a, **k: ('1', '2')\n"
        "sys.exit(main(['check', 'ecc', '--method', 'split', '--trials',"
        " '1', '--seed', '1']))\n")
    out = subprocess.run([sys.executable, "-c", code], env=CLI_ENV,
                         capture_output=True, text=True)
    assert out.returncode == 3


def test_structural_error_exit_code(tmp_path):
    bad = tmp_path / "bad.el"
    bad.write_text("2 1\n0 5\n")
    out = run_cli(["ecc", str(bad)])
    assert out.returncode == 1
    assert "error:" in out.stderr


def test_edgelist_error_names_its_line():
    out = run_cli(["ecc", "-"], stdin_text="3 1\n0 x\n")
    assert out.returncode == 1
    assert out.stderr == "error: line 2: expected 'u v'\n"


def test_disconnected_dispatch_per_component(tmp_path):
    g = build_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
    f = tmp_path / "two.el"
    f.write_text(write_edgelist(g))
    out = run_cli(["ecc", "--method", "modular", str(f)])
    assert out.returncode == 0
    rows = dict(ln.split(",") for ln in out.stdout.strip().splitlines()[1:])
    assert rows["0"] == "2" and rows["3"] == "2"
    out = run_cli(["diameter", "--method", "oracle", str(f)])
    assert out.stdout.strip() == "inf"


def _threshold_file(tmp_path, n):
    # threshold graph: odd v joined to every earlier vertex; its modular
    # tree is about n deep
    f = tmp_path / f"threshold{n}.el"
    with open(f, "w") as out:
        out.write(f"{n} {sum(v for v in range(1, n, 2))}\n")
        for v in range(1, n, 2):
            out.write("".join(f"{u} {v}\n" for u in range(v)))
    return str(f)


def test_recursion_depth_maps_to_error_line(tmp_path):
    f = _threshold_file(tmp_path, 3000)
    out = run_cli(["match", "--method", "modular", f])
    assert out.returncode == 0, out.stderr
    # the oracle method is blossom
    want = run_cli(["match", "--method", "oracle", f])
    assert want.returncode == 0
    assert out.stdout.splitlines()[-1] == want.stdout.splitlines()[-1]
    assert out.stdout.endswith("\ncardinality 1500\n")
    # nor does printing its tree: 600 levels print, and read back under a
    # raised recursion limit, since json.loads recurses once per level
    f = _threshold_file(tmp_path, 600)
    out = run_cli(["decompose", "--kind", "modular", f])
    assert out.returncode == 0, out.stderr
    md = modular_decomposition(read_edgelist(open(f).read()))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        assert json.loads(out.stdout) == json.loads(json.dumps(md.to_json()))
    finally:
        sys.setrecursionlimit(limit)
    depth = {id(md): 0}
    for node in md.iter_nodes():
        for child in node.children:
            depth[id(child)] = depth[id(node)] + 1
    assert max(depth.values()) >= 599


def test_flags_only_where_read(spider_file):
    for args in (["diameter", "--format", "json"],
                 ["girth", "--method", "oracle", "--format", "json"],
                 ["match", "--oracle-cap", "10"],
                 ["ecc", "--oracle-cap", "10"]):
        out = run_cli([*args, spider_file])
        assert out.returncode == 2, args
    out = run_cli(["hyp", "--method", "oracle", "--oracle-cap", "10",
                   spider_file])
    assert out.returncode == 1 and "cap" in out.stderr


@pytest.mark.parametrize("args, message", [
    (["check", "ecc", "--method", "split", "--trials", "-2", "--seed", "1"],
     "argument --trials: must be at least 1, got -2"),
    (["check", "ecc", "--method", "split", "--trials", "0", "--seed", "1"],
     "argument --trials: must be at least 1, got 0"),
    (["check", "ecc", "--method", "split", "--n", "-1", "--trials", "2",
      "--seed", "1"], "argument --n: must be at least 0, got -1"),
    (["gen", "--family", "er", "--n", "-3", "--seed", "1"],
     "argument --n: must be at least 1, got -3"),
    (["gen", "--family", "er", "--n", "0", "--seed", "1"],
     "argument --n: must be at least 1, got 0"),
])
def test_counts_out_of_range_are_usage_errors(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.rstrip().endswith(message)


def test_check_random_sizes_and_one_trial(capsys):
    assert main(["check", "ecc", "--method", "split", "--n", "0",
                 "--trials", "1", "--seed", "1"]) == 0
    assert "summary trials 1 mismatches 0" in capsys.readouterr().out


@pytest.mark.parametrize("problem", ["girth", "triangles"])
def test_check_rejects_an_unknown_method(problem):
    out = run_cli(["check", problem, "--method", "bogus", "--trials", "2",
                   "--seed", "1"])
    assert out.returncode == 1
    assert out.stderr == f"error: unknown {problem} method 'bogus'\n"
    assert out.stdout == ""


def test_check_runs_every_method_of_the_table(capsys):
    for problem, methods in METHODS.items():
        for method in methods:
            code = main(["check", problem, "--method", method, "--trials",
                         "3", "--seed", "1", "--n", "16"])
            out = capsys.readouterr().out
            assert code == 0, (problem, method, out)
            assert "summary trials 3 mismatches 0" in out
