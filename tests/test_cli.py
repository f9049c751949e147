import json
import subprocess
import sys

import pytest

from graphdecomp import build_graph, write_edgelist

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


def test_bench_stdout_is_structural():
    out = run_cli(["bench", "--sizes", "300,900", "--seed", "5"])
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "n,m,components,ecc_checksum"
    assert len(lines) == 3
    assert "ecc-dp" in out.stderr


def test_recursion_depth_maps_to_error_line(tmp_path):
    # threshold graph: odd v joined to every earlier vertex; its modular
    # tree is about n deep
    n = 3000
    f = tmp_path / "threshold.el"
    with open(f, "w") as out:
        out.write(f"{n} {sum(v for v in range(1, n, 2))}\n")
        for v in range(1, n, 2):
            out.write("".join(f"{u} {v}\n" for u in range(v)))
    out = run_cli(["match", "--method", "modular", str(f)])
    assert out.returncode == 1
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


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
