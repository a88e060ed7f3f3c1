"""CLI surface: subcommands, formats, exit codes."""

import csv
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import netfunc
from netfunc.cli import main
from netfunc.graph import from_edge_list, read_edge_list
from netfunc.generators import complete
from netfunc.graph import write_edge_list
from netfunc.report import REPORT_SCHEMA


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_then_analyze_round_trip(tmp_path, capsys):
    out = tmp_path / "er.edges"
    code, _, _ = run(capsys, "generate", "--model", "er", "--n", "10", "--p", "0.5",
                     "--seed", "7", "--output", str(out))
    assert code == 0
    first = out.read_text()
    code, _, _ = run(capsys, "generate", "--model", "er", "--n", "10", "--p", "0.5",
                     "--seed", "7", "--output", str(out))
    assert out.read_text() == first  # same seed, same file

    code, stdout, _ = run(capsys, "analyze", str(out), "--functionals",
                          "char_length,euler_char,complexity")
    assert code == 0
    report = json.loads(stdout)
    assert report["schema"] == "netfunc-report/1"
    g = read_edge_list(out)
    assert report["graph"]["n"] == g.n and report["graph"]["m"] == g.m


def test_analyze_k4_values(tmp_path, capsys):
    target = tmp_path / "k4.edges"
    write_edge_list(complete(4), target)
    code, stdout, _ = run(capsys, "analyze", str(target))
    assert code == 0
    report = json.loads(stdout)
    assert report["functionals"]["char_length"]["value"] == {"num": "1", "den": "1"}
    assert report["functionals"]["euler_char"]["value"] == 1
    assert report["functionals"]["complexity"]["value"] == pytest.approx(64)
    assert report["functionals"]["forest_complexity"]["value"] == "125"
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(report, REPORT_SCHEMA)


def test_analyze_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("n 3\n2 2\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "line 2" in err


def test_analyze_huge_vertex_count_is_a_parse_error(tmp_path):
    # the header asks for more vertices than the child's address space holds
    huge = tmp_path / "huge.edges"
    huge.write_text("n 2000000000\n0 1\n")
    limit = 256 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    # one BLAS thread keeps the numpy import well inside the limit on many-core hosts
    env = {**os.environ, "PYTHONPATH": str(Path(netfunc.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "netfunc.cli", "analyze", str(huge)],
                          preexec_fn=cap_address_space, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("parse error: line 1: vertex count 2000000000")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("analyze", "{tmp}/missing.edges"),
    ("analyze", "{tmp}"),
    ("analyze", "{tmp}/ok.edges", "--output", "{tmp}/no/such/dir/x.json"),
    ("generate", "--model", "complete", "--n", "3", "--output", "{tmp}/no/such/x.edges"),
], ids=["missing-input", "directory-input", "unwritable-output", "unwritable-edge-list"])
def test_file_access_errors_exit_1(tmp_path, capsys, argv):
    write_edge_list(complete(3), tmp_path / "ok.edges")
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: cannot ") and argv[-1] in err
    assert "Traceback" not in err and stdout == ""


@pytest.mark.parametrize("content, line", [
    (b"\xff\xfen 3\n0 1\n", 1),  # a UTF-16 byte-order mark
    (b"n 3\n# caf\xe9\n0 1\n", 2),  # a Latin-1 comment
    (b"n 3\n0 1\n1 \x802\n", 3),
], ids=["utf16-bom", "latin1-comment", "stray-continuation-byte"])
def test_undecodable_bytes_are_a_parse_error(tmp_path, capsys, content, line):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(content)
    code, stdout, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert err.startswith(f"parse error: line {line}: bytes that are not UTF-8 text")
    assert "Traceback" not in err and stdout == ""


def test_utf8_comments_still_parse(tmp_path):
    good = tmp_path / "good.edges"
    good.write_bytes("# café, π\nn 3\n0 1\n".encode("utf-8"))
    assert read_edge_list(good) == from_edge_list(3, [(0, 1)])


def test_analyze_unknown_functional_exit_4(tmp_path, capsys):
    target = tmp_path / "k4.edges"
    write_edge_list(complete(4), target)
    code, _, err = run(capsys, "analyze", str(target), "--functionals", "bogus")
    assert code == 4
    assert "bogus" in err


def test_analyze_cap_skip_and_strict(tmp_path, capsys):
    target = tmp_path / "k25.edges"
    write_edge_list(complete(25), target)
    code, stdout, _ = run(capsys, "analyze", str(target), "--functionals",
                          "independence_number", "--max-exact-n", "20")
    assert code == 0
    report = json.loads(stdout)
    assert report["functionals"]["independence_number"]["status"] == "skipped"
    code, _, _ = run(capsys, "analyze", str(target), "--functionals",
                     "independence_number", "--max-exact-n", "20", "--strict")
    assert code == 3


def test_analyze_csv_and_profile(tmp_path, capsys):
    target = tmp_path / "k4.edges"
    write_edge_list(complete(4), target)
    code, stdout, _ = run(capsys, "analyze", str(target), "--format", "csv",
                          "--functionals", "char_length,mean_cluster")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(stdout)))
    by_name = {r["functional"]: r for r in rows}
    assert by_name["char_length"]["value"] == "1/1"
    code, stdout, _ = run(capsys, "analyze", str(target), "--profile",
                          "--functionals", "char_length")
    profile = json.loads(stdout)["profile"]
    assert len(profile) == 4
    assert profile[0]["cluster"] == {"num": "1", "den": "1"}


@pytest.mark.parametrize("argv, message", [
    (("generate", "--model", "ws", "--n", "10", "--k", "3", "--p", "0.1"), "even"),
    (("sweep", "--model", "er", "--p", "0.1", "--n-list", "5,a"), "--n-list"),
    (("generate", "--model", "orbital", "--n", "10", "--generator", "quadratic:x"),
     "quadratic:x"),
    (("extremal", "--n", "3", "--bins", "0"), "bins"),
    (("continuum", "--space", "torus2", "--side", "-1", "--samples", "1000"), "side"),
    (("continuum", "--space", "torus2", "--side", "0", "--samples", "1000"), "side"),
    (("continuum", "--space", "sphere_area1", "--side", "5", "--samples", "1000"), "--side"),
    (("continuum", "--space", "torus2", "--quantity", "cluster", "--radius", "-0.01",
      "--samples", "1000"), "radius"),
    (("continuum", "--space", "torus2", "--quantity", "cluster", "--radius", "0",
      "--samples", "1000"), "radius"),
    (("continuum", "--space", "torus2", "--quantity", "length", "--radius", "0.3",
      "--samples", "1000"), "--radius"),
    (("continuum", "--space", "torus3", "--side", "inf", "--samples", "1000"), "side"),
    (("continuum", "--space", "torus3", "--side", "1e308", "--samples", "1000"), "side"),
    (("continuum", "--space", "sphere_area1", "--quantity", "cluster", "--radius", "1e-9",
      "--samples", "1000"), "radius"),
    (("continuum", "--space", "torus2", "--quantity", "cluster", "--radius", "1e-200",
      "--samples", "1000"), "radius"),
    (("sweep", "--model", "er", "--p", "0.1", "--n-list", "5", "--seeds", "0"), "seed per n"),
    (("sweep", "--model", "er", "--p", "0.1", "--n-list", "5", "--seeds", "-2"), "seed per n"),
    (("sweep", "--model", "er", "--p", "0.1", "--n-list", "5,-3", "--seeds", "1"), "n >= 0"),
    (("generate", "--model", "orbital", "--n", "10"), "orbital needs --generator"),
    (("generate", "--model", "bipartite", "--a", "2"), "complete_bipartite needs --b"),
    (("sweep", "--model", "ws", "--k", "4", "--n-list", "10", "--seeds", "1"),
     "watts_strogatz needs --p"),
], ids=["ws-odd-k", "n-list", "generator", "bins", "side-negative", "side-zero", "sphere-side",
        "radius-negative", "radius-zero", "length-radius", "side-inf", "side-overflow",
        "radius-below-precision", "radius-underflow", "seeds-zero", "seeds-negative",
        "n-list-negative", "orbital-no-generator", "bipartite-no-b", "sweep-ws-no-p"])
def test_generate_invalid_params_exit_1(capsys, argv, message):
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and stdout == ""


def test_generate_stdout_echoes_spec(capsys):
    code, stdout, _ = run(capsys, "generate", "--model", "complete", "--n", "5")
    assert code == 0
    assert stdout.startswith("# --model complete --n 5 --seed 0")
    assert stdout.count("\n") == 2 + 10  # header comment + n line + 10 edges


def test_sweep_csv_schema(capsys):
    code, stdout, _ = run(capsys, "sweep", "--model", "er", "--p", "0.3",
                          "--n-list", "8,12", "--seeds", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(stdout)))
    assert len(rows) == 4
    assert "char_length" in rows[0] and "cluster_length_ratio_flag" in rows[0]
    # flags serialize as empty value cell plus the reason in the flag column
    for row in rows:
        if row["cluster_length_ratio"] == "":
            assert row["cluster_length_ratio_flag"] != ""


def test_extremal_cli_small(capsys):
    code, stdout, _ = run(capsys, "extremal", "--n", "4", "--functional",
                          "char_length")
    assert code == 0
    data = json.loads(stdout)
    assert data["connected_count"] == 38
    assert data["results"]["char_length"]["min"] == "1/1"
    code, stdout, _ = run(capsys, "extremal", "--n", "4", "--format", "csv")
    assert code == 0
    assert "# n=4 connected_count=38" in stdout
    code, _, err = run(capsys, "extremal", "--n", "4", "--functional", "nope")
    assert code == 4


def test_extremal_functional_list_drops_empty_names(capsys):
    code, plain, _ = run(capsys, "extremal", "--n", "4", "--functional", "char_length")
    assert code == 0
    code, trailing, _ = run(capsys, "extremal", "--n", "4", "--functional",
                            "char_length, ,")
    assert code == 0
    assert trailing == plain
    assert list(json.loads(trailing)["results"]) == ["char_length"]


def test_continuum_cli(capsys):
    code, stdout, _ = run(capsys, "continuum", "--space", "torus2", "--samples",
                          "20000", "--seed", "1")
    assert code == 0
    data = json.loads(stdout)
    assert set(data) == {"estimate", "std_error", "samples"}
    assert data["samples"] == 20000
    assert abs(data["estimate"] - 0.3826) < 0.01
    code, _, err = run(capsys, "continuum", "--space", "torus2", "--samples", "1000",
                       "--radius", "0.4", "--quantity", "cluster")
    assert code == 1
    # cluster and ratio use radius 0.01 when --radius is absent
    for quantity in ("cluster", "ratio"):
        args = ("continuum", "--space", "torus3", "--samples", "5000", "--quantity", quantity)
        assert run(capsys, *args) == run(capsys, *args, "--radius", "0.01")


def test_generate_reproduces_model_exactly(tmp_path, capsys):
    from netfunc.generators import ModelSpec, build_model
    out = tmp_path / "ws.edges"
    code, _, _ = run(capsys, "generate", "--model", "ws", "--n", "16", "--k", "4",
                     "--p", "0.2", "--seed", "3", "--output", str(out))
    assert code == 0
    spec = ModelSpec("watts_strogatz", {"n": 16, "k": 4, "p": 0.2}, seed=3)
    assert read_edge_list(out) == build_model(spec)


def test_sweep_byte_reproducible(capsys):
    args = ("sweep", "--model", "er", "--p", "0.3", "--n-list", "10", "--seeds", "2",
            "--seed", "5", "--format", "csv")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_workers_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NETFUNC_WORKERS", "2")
    from netfunc.cli import build_parser
    args = build_parser().parse_args(["extremal", "--n", "3"])
    assert args.workers == 2


def test_arboricity_witness_in_report(tmp_path, capsys):
    target = tmp_path / "k4.edges"
    write_edge_list(complete(4), target)
    code, stdout, _ = run(capsys, "analyze", str(target), "--functionals", "arboricity")
    entry = json.loads(stdout)["functionals"]["arboricity"]
    assert entry["value"] == 2
    forests = entry["witness"]
    assert sorted(tuple(e) for forest in forests for e in forest) == \
        sorted(complete(4).edges())


def test_audit_cli(tmp_path, capsys):
    target = tmp_path / "k5.edges"
    write_edge_list(complete(5), target)
    code, stdout, _ = run(capsys, "audit", str(target))
    assert code == 0
    rows = json.loads(stdout)
    assert all(r["holds"] for r in rows)
    names = {r["name"] for r in rows}
    assert "wiener_spanning_trees" in names


def test_tiny_graphs_report_everything(tmp_path, capsys):
    # one vertex and zero edges: every functional resolves to a value,
    # a skip or an undefined entry without crashing
    from netfunc.graph import from_edge_list
    from netfunc.report import compute_report

    for g in (from_edge_list(1, []), from_edge_list(3, [])):
        rep = compute_report(g)
        assert all(e.status in ("ok", "skipped", "undefined")
                   for e in rep.entries.values())
    target = tmp_path / "one.edges"
    write_edge_list(from_edge_list(1, []), target)
    code, stdout, _ = run(capsys, "analyze", str(target))
    assert code == 0
    assert json.loads(stdout)["graph"]["n"] == 1
    # extremal on tiny orders renders absent witnesses as null
    code, stdout, _ = run(capsys, "extremal", "--n", "2")
    assert code == 0
    eta = json.loads(stdout)["results"]["curvature_action"]
    assert eta["min_witness_edges"] is None
