"""CLI surface: subcommands, formats, exit codes."""

import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import netfunc
from netfunc.cli import main
from netfunc.graph import from_edge_list, read_edge_list
from netfunc.generators import complete, watts_strogatz
from netfunc.graph import write_edge_list
from netfunc.report import REPORT_SCHEMA

from compare_golden import differences
from conftest import SWEEPS, sweep_draws


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


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_output_is_byte_identical_to_the_golden_file(tmp_path, name):
    # a speed-up must leave every byte of the benchmark sweeps' output as it was;
    # the draws that other tests check are the ones these records describe
    golden = Path(__file__).parent / "golden" / f"sweep_{name}.json"
    out = tmp_path / "sweep.json"
    assert main(["sweep", *SWEEPS[name].split(), "--seed", "1", "--output", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()
    records = json.loads(golden.read_text())
    assert [(g.n, g.m) for g in sweep_draws(name)] == [(r["n"], r["m"]) for r in records]


def test_analyze_and_audit_match_their_golden_files(tmp_path):
    # the exact benchmark's draw: statuses, reasons and exact values equal,
    # floats within 1e-9 relative
    golden = Path(__file__).parent / "golden"
    graph = tmp_path / "er.edges"
    assert main(["generate", "--model", "er", "--n", "200", "--p", "0.05", "--seed", "1",
                 "--output", str(graph)]) == 0
    for name, argv in [("analyze", ["--functionals", "all"]), ("audit", [])]:
        out = tmp_path / f"{name}.json"
        assert main([name, str(graph), *argv, "--output", str(out)]) == 0
        assert differences(json.loads(out.read_text()),
                           json.loads((golden / f"{name}_er200.json").read_text())) == []


def test_golden_comparison_sees_what_moved():
    golden = {"a": {"kind": "real", "value": 1.0, "seconds": 2.0}, "b": [1, "1/2", None]}
    assert differences({"a": {"kind": "real", "value": 1.0 + 1e-12, "seconds": 9.0},
                        "b": [1, "1/2", None]}, golden) == []
    assert differences({"a": {"kind": "real", "value": 1.0 + 1e-6}, "b": [1.0, "1/3"]},
                       golden) == ["$.a.value: 1.000001 != 1.0", "$.b: 2 items != 3"]
    assert differences({"a": {"kind": "rational", "value": 1.0}, "b": [True, "1/2", None]},
                       golden) == ["$.a.kind: 'rational' != 'real'", "$.b[0]: True != 1"]


def run_capped(*argv, limit=2 * 2**30, seconds=5):
    """Run the CLI in a child under an address-space limit, by default 2 GB, a
    safety net against allocating; return (exit code, stderr, rusage), or fail
    past `seconds`."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(Path(netfunc.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "netfunc.cli", *argv],
                            preexec_fn=cap_address_space, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + seconds
    while not (done := os.wait4(proc.pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            pytest.fail(f"the child still ran after {seconds} s")
        time.sleep(0.02)
    _, status, usage = done
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.returncode, err, usage


def test_huge_vertex_count_is_refused_before_allocating(tmp_path):
    # 10^11 vertices need terabytes; the header alone must be refused at once,
    # not after allocating up to the address-space limit
    huge = tmp_path / "huge.edges"
    huge.write_text("n 99999999999\n")
    code, err, usage = run_capped("analyze", str(huge))
    assert code == 2, err
    assert err.startswith("parse error: line 1: vertex count 99999999999 does not fit")
    assert usage.ru_maxrss < 300 * 1024  # KiB


@pytest.mark.parametrize("argv", [
    ("generate", "--model", "er", "--n", "100000000000", "--p", "0.0"),
    ("generate", "--model", "complete", "--n", "100000"),
    ("sweep", "--model", "er", "--p", "0.0", "--n-list", "100000000000"),
    ("generate", "--model", "ws", "--n", "100000", "--k", "99998", "--p", "0.0"),
], ids=["generate-er", "generate-complete", "sweep-er", "generate-ws"])
def test_huge_model_is_refused_before_building(argv):
    # 10^11 vertices, or the 5·10^9 edges of K_100000 or of a ring lattice as
    # dense, are refused before the builders allocate their lists
    code, err, usage = run_capped(*argv)
    assert code == 1, err
    assert err.startswith("error: --model ") and "does not fit in memory" in err
    assert "Traceback" not in err
    assert usage.ru_maxrss < 300 * 1024  # KiB


@pytest.mark.parametrize("argv", [
    ("generate", "--model", "er", "--n", "3000000", "--p", "0.5"),
    ("sweep", "--model", "er", "--p", "0.5", "--n-list", "3000000", "--seeds", "1"),
    ("generate", "--model", "er", "--n", "20000", "--p", "0.5"),
], ids=["generate-er", "sweep-er", "generate-er-1e8-edges"])
def test_dense_er_draw_past_the_memory_limit_exits_1(argv):
    # the first two draw about 2·10^12 edges, which the edge floor refuses before
    # building; the 10^8 edges of the third can fit in physical memory but not
    # under the 1 GB limit, and the draw's MemoryError must end in an error line
    code, err, _ = run_capped(*argv, limit=2**30, seconds=10)
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_dimension_past_its_budget_stops_in_bounded_memory(tmp_path):
    # the dimension closure of K_1100 passes the default budget of 10^6
    # subsets at the third size level down; the depth-first recursion it
    # replaced reached 422 MB here (8.2 s) before the skip, where the closure
    # makes and dedupes its 18-word rows a few MB at a time
    graph, report = tmp_path / "k1100.edges", tmp_path / "report.json"
    write_edge_list(complete(1100), graph)
    code, err, usage = run_capped("analyze", str(graph), "--functionals", "dimension",
                                  "--output", str(report), seconds=60)
    assert code == 0, err
    entry = json.loads(report.read_text())["functionals"]["dimension"]
    assert entry["status"] == "skipped"
    assert "more than 1000000 dimension subproblems" in entry["reason"]
    assert usage.ru_maxrss < 400 * 1024  # KiB


def test_euler_characteristic_of_a_large_sparse_graph_in_bounded_memory(tmp_path):
    # the root of WS(20000, 6, 0.1) has 20,000 children of 313 words each; they
    # are made and valued a slice of members at a time, not all at once
    graph, report = tmp_path / "ws.edges", tmp_path / "report.json"
    write_edge_list(watts_strogatz(20000, 6, 0.1, 1), graph)
    code, err, usage = run_capped("analyze", str(graph), "--functionals", "euler_char",
                                  "--output", str(report), limit=512 * 2**20, seconds=30)
    assert code == 0, err
    assert json.loads(report.read_text())["functionals"]["euler_char"]["value"] == -6910
    assert usage.ru_maxrss < 320 * 1024  # KiB


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


def test_analyze_refuses_a_profile_in_csv(tmp_path, capsys):
    # the CSV rows are one per functional, so the per-vertex records have no place there
    target = tmp_path / "c5.edges"
    write_edge_list(from_edge_list(5, [(i, (i + 1) % 5) for i in range(5)]), target)
    code, stdout, err = run(capsys, "analyze", str(target), "--functionals", "char_length",
                            "--profile", "--format", "csv")
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and "--profile" in err and "--format csv" in err


@pytest.mark.parametrize("argv, message", [
    (("generate", "--model", "ws", "--n", "10", "--k", "3", "--p", "0.1"), "even"),
    (("sweep", "--model", "er", "--p", "0.1", "--n-list", "5,a"), "--n-list"),
    (("generate", "--model", "orbital", "--n", "10", "--generator", "quadratic:x"),
     "quadratic:x"),
    (("extremal", "--n", "3", "--bins", "0"), "bins"),
    (("extremal", "--n", "3", "--bins", "1000000000"), "bins"),
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
    (("continuum", "--space", "torus2", "--side", "7", "--quantity", "cluster",
      "--radius", repr(0.9e-5 * 7), "--samples", "1000"), "radius"),
    (("sweep", "--model", "er", "--p", "0.1", "--n-list", "5", "--seeds", "0"), "seed per n"),
    (("sweep", "--model", "er", "--p", "0.1", "--n-list", "5", "--seeds", "-2"), "seed per n"),
    (("sweep", "--model", "er", "--p", "0.1", "--n-list", "5,-3", "--seeds", "1"), "n >= 0"),
    (("generate", "--model", "orbital", "--n", "10"), "orbital needs --generator"),
    (("generate", "--model", "bipartite", "--a", "2"), "complete_bipartite needs --b"),
    (("sweep", "--model", "ws", "--k", "4", "--n-list", "10", "--seeds", "1"),
     "watts_strogatz needs --p"),
    # a model flag the kind does not take; the first in --help order is named
    (("generate", "--model", "er", "--n", "5", "--p", "0.5", "--k", "4", "--a", "9"),
     "erdos_renyi takes no --a"),
    (("generate", "--model", "complete", "--n", "5", "--p", "0.5"), "complete takes no --p"),
    (("generate", "--model", "bipartite", "--a", "2", "--b", "3", "--n", "5"),
     "complete_bipartite takes no --n"),
    (("generate", "--model", "ws", "--n", "8", "--k", "2", "--p", "0.1",
      "--generator", "permutation"), "watts_strogatz takes no --generator"),
    (("generate", "--model", "ba", "--n", "8", "--m", "2", "--k", "0"),
     "barabasi_albert takes no --k"),
    (("sweep", "--model", "er", "--p", "0.5", "--m", "2", "--n-list", "5", "--seeds", "1"),
     "erdos_renyi takes no --m"),
    # sweep has no --a or --b: only complete_bipartite takes them, and it has no n
    (("sweep", "--model", "ws", "--k", "2", "--p", "0.1", "--b", "1", "--n-list", "8",
      "--seeds", "1"), "unrecognized arguments: --b 1"),
    (("sweep", "--model", "bipartite", "--n-list", "8", "--seeds", "1"),
     "complete_bipartite takes no --n, so it cannot be swept over n"),
], ids=["ws-odd-k", "n-list", "generator", "bins", "bins-huge", "side-negative", "side-zero",
        "sphere-side", "radius-negative", "radius-zero", "length-radius", "side-inf",
        "side-overflow", "radius-below-precision", "radius-underflow",
        "radius-below-floor", "seeds-zero",
        "seeds-negative", "n-list-negative", "orbital-no-generator", "bipartite-no-b",
        "sweep-ws-no-p", "er-takes-no-k-a", "complete-takes-no-p", "bipartite-takes-no-n",
        "ws-takes-no-generator", "ba-takes-no-k-zero", "sweep-er-takes-no-m",
        "sweep-ws-takes-no-b", "sweep-bipartite"])
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


@pytest.mark.parametrize("space, side, radius", [
    ("torus2", "7", "7e-5"), ("torus3", "3", "3e-5"),
    ("torus2", "1e-100", "1e-105"), ("torus2", "1e100", "1e95"),
])
def test_continuum_accepts_radius_at_the_floor(capsys, space, side, radius):
    # 1e-5 * side can round above the radius written as 1e-5·side
    code, stdout, err = run(capsys, "continuum", "--space", space, "--side", side,
                            "--radius", radius, "--quantity", "cluster", "--samples", "1000")
    assert (code, err) == (0, "")
    assert abs(json.loads(stdout)["estimate"] - 0.7) < 0.2


def test_continuum_ratio_undefined_exits_1(capsys):
    from netfunc.continuum import Torus2, mc_mean_cluster
    # at seed 1 two samples put the cluster estimate above 1, at seed 0 below
    assert mc_mean_cluster(Torus2(1.0), 0.01, 2, seed=1).estimate >= 1
    args = ("continuum", "--space", "torus2", "--quantity", "ratio", "--samples", "2")
    code, stdout, err = run(capsys, *args, "--seed", "1")
    assert (code, stdout) == (1, "")
    assert err == "error: cluster-length ratio undefined: nu_at_least_one\n"
    code, stdout, _ = run(capsys, *args, "--seed", "0")
    assert code == 0 and json.loads(stdout)["estimate"] > 0


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


@pytest.mark.parametrize("command", [
    ("analyze", "g.edges"), ("generate", "--model", "complete", "--n", "3"),
    ("sweep", "--model", "er", "--p", "0.1", "--n-list", "5", "--seeds", "1"),
    ("extremal", "--n", "3"), ("continuum", "--space", "torus2", "--samples", "100"),
    ("audit", "g.edges")], ids=lambda command: command[0])
@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_workers_below_one_exit_1(capsys, command, workers):
    code, stdout, err = run(capsys, *command, "--workers", workers)
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and "--workers" in err


@pytest.mark.parametrize("value", ["0", "-3", "many", ""])
def test_bad_workers_env_exit_1_but_help_works(capsys, monkeypatch, value):
    monkeypatch.setenv("NETFUNC_WORKERS", value)
    code, stdout, err = run(capsys, "extremal", "--n", "3")
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and "NETFUNC_WORKERS" in err
    for argv in (["--help"], ["extremal", "--help"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: netfunc")
    # an explicit flag is never checked against the environment
    assert run(capsys, "extremal", "--n", "3", "--workers", "1")[0] == 0


def test_negative_max_exact_n_exit_1(tmp_path, capsys):
    target = tmp_path / "k4.edges"
    write_edge_list(complete(4), target)
    for command in ("analyze", "audit"):
        code, stdout, err = run(capsys, command, str(target), "--max-exact-n", "-1")
        assert code == 1 and stdout == ""
        assert err.startswith("error: ") and "--max-exact-n" in err
    code, stdout, _ = run(capsys, "analyze", str(target), "--functionals",
                          "independence_number", "--max-exact-n", "0")
    assert code == 0
    entry = json.loads(stdout)["functionals"]["independence_number"]
    assert entry["status"] == "skipped" and "capped at 0 vertices" in entry["reason"]


K4 = "{tmp}/k4.edges"
GENERATE = ("generate", "--model", "complete", "--n", "3")
SWEEP = ("sweep", "--model", "er", "--p", "0.1", "--n-list", "5", "--seeds", "1")
EXTREMAL = ("extremal", "--n", "3")
CONTINUUM = ("continuum", "--space", "torus2", "--samples", "100")


@pytest.mark.parametrize("argv", [
    ("extremal", "--n", "x"),
    ("analyze",),
    (),
    ("bogus",),
    (*EXTREMAL, "--no-such-flag"),
    ("continuum", "--space", "torus2", "--sam", "3000"),
    (*CONTINUUM, "--se", "2"),
    ("sweep", "--model", "er", "--p", "0.1", "--n", "5", "--seeds", "1"),
    # each flag that only some subcommands take, on a subcommand that does not
    ("analyze", K4, "--seed", "3"),
    ("audit", K4, "--seed", "3"),
    (*EXTREMAL, "--seed", "3"),
    *[(*cmd, "--strict") for cmd in (GENERATE, SWEEP, EXTREMAL, CONTINUUM)],
    *[(*cmd, "--max-exact-n", "5") for cmd in (GENERATE, SWEEP, EXTREMAL, CONTINUUM)],
    (*GENERATE, "--format", "json"),
    (*CONTINUUM, "--format", "csv"),
    (*SWEEP, "--n", "999"),
    (*GENERATE, "--workers", "1"),
    (*SWEEP, "--a", "2"),
    ("analyze", K4, "--functionals", ","),
    (*EXTREMAL, "--functional", " , "),
], ids=["int-type", "missing-input", "no-subcommand", "unknown-subcommand", "unknown-flag",
        "abbreviation", "abbreviated-seed", "abbreviated-n-list", "analyze-seed",
        "audit-seed", "extremal-seed", "generate-strict", "sweep-strict", "extremal-strict",
        "continuum-strict", "generate-max-exact-n", "sweep-max-exact-n",
        "extremal-max-exact-n", "continuum-max-exact-n", "generate-format",
        "continuum-format", "sweep-n", "generate-workers", "sweep-a", "analyze-no-functional",
        "extremal-no-functional"])
def test_usage_errors_exit_1(tmp_path, capsys, argv):
    write_edge_list(complete(4), tmp_path / "k4.edges")
    code, stdout, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "usage:" not in err and "Traceback" not in err


def test_each_subcommand_declares_only_the_flags_it_reads():
    from netfunc.cli import build_parser
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    flags = {name: [a.option_strings[0] if a.option_strings else a.dest
                    for a in p._actions if a.dest != "help"]
             for name, p in sub.choices.items()}
    shared = ["--workers", "--output"]
    model = ["--model", "--n", "--a", "--b", "--p", "--k", "--m", "--generator"]
    assert flags == {
        "analyze": ["input", "--functionals", "--profile", *shared, "--format", "--strict",
                    "--max-exact-n"],
        "generate": [*model, "--output", "--seed"],
        "sweep": ["--model", "--p", "--k", "--m", "--generator", "--n-list", "--seeds",
                  *shared, "--seed", "--format"],
        "extremal": ["--n", "--functional", "--bins", *shared, "--format"],
        "continuum": ["--space", "--side", "--radius", "--samples", "--quantity", *shared,
                      "--seed"],
        "audit": ["input", *shared, "--format", "--strict", "--max-exact-n"],
    }
    assert sum(map(len, flags.values())) == 49
    assert not parser.allow_abbrev and not any(p.allow_abbrev for p in sub.choices.values())


def test_closed_stdout_ends_without_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(netfunc.__file__).parents[1])}
    # 44,850 edge lines, far more than a pipe buffers, so the writer meets the closed end
    proc = subprocess.Popen([sys.executable, "-m", "netfunc.cli", "generate", "--model",
                             "complete", "--n", "300"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("# --model complete --n 300")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only --workers above 1 starts a pool, so importing the CLI loads none
    of the pool's modules."""
    env = {**os.environ, "PYTHONPATH": str(Path(netfunc.__file__).parents[1])}
    pool = ("concurrent.futures.process", "multiprocessing", "subprocess")
    code = f"import sys, netfunc.cli; print([m for m in {pool!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def run_fresh(body):
    """Run `body` in a new interpreter without OPENBLAS_NUM_THREADS set; return
    the netfunc modules and numpy that it loaded, and the variable's value."""
    env = {**os.environ, "PYTHONPATH": str(Path(netfunc.__file__).parents[1])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    code = (f"import json, os, sys\n{body}\n"
            "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('netfunc'))\n"
            "print(json.dumps([loaded, os.environ.get('OPENBLAS_NUM_THREADS')]))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules, blas = json.loads(proc.stdout.splitlines()[-1])
    return set(modules), blas


def test_import_netfunc_loads_no_submodule():
    assert run_fresh("import netfunc") == ({"netfunc"}, "1")


PARSER_MODULES = {"netfunc", "netfunc.cli", "netfunc.errors", "netfunc.graph", "netfunc.rng",
                  "netfunc.generators", "numpy"}


@pytest.mark.parametrize("argv, loaded, unloaded", [
    (CONTINUUM[:-1] + ("2",), {"netfunc.continuum"}, None),
    (("analyze", K4), {"netfunc.report"},
     {"netfunc.experiments", "netfunc.continuum"}),
    (("audit", K4), {"netfunc.experiments"}, {"netfunc.continuum"}),
    (SWEEP, {"netfunc.experiments"}, {"netfunc.continuum"}),
    (EXTREMAL, {"netfunc.experiments"}, {"netfunc.continuum"}),
    (GENERATE, set(), None),
], ids=["continuum", "analyze", "audit", "sweep", "extremal", "generate"])
def test_each_subcommand_loads_only_its_own_modules(tmp_path, argv, loaded, unloaded):
    """A run imports the parser's modules and those of its own handler; None
    for `unloaded` pins the set exactly."""
    write_edge_list(complete(4), tmp_path / "k4.edges")
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--output", str(tmp_path / "out")]
    modules, _ = run_fresh(f"from netfunc.cli import main\nassert main({argv!r}) == 0")
    assert PARSER_MODULES | loaded <= modules
    if unloaded is None:
        assert modules == PARSER_MODULES | loaded
    else:
        assert not modules & unloaded


# the package's public names: 72 functions and classes, and 11 submodules
PUBLIC = """Caps CurvatureSummary FlatTorus FunctionalReport Graph LaplacianSpectrum ModelSpec
Polynomial SimplexCounts SphereArea1 Subgraph Torus2 Torus3 UNREACHABLE all_pairs_distances
arboricity ball barabasi_albert bound_audit build_model characteristic_length chromatic_number
closeness_centrality cluster_length_ratio combinatorial complete complete_bipartite
compute_report connected_components continuum continuum_ratio curvature_summary cycle
distance_levels distance_variance erdos_renyi errors euler_characteristic
expected_dimension_polynomial experiments extremal_search forest_complexity from_edge_list
generators graph growth_sweep independence_number induced_subgraph inductive_dimension
is_connected laplacian_spectrum length_estimate local_cluster local_length local_mean_distance
local_profile magnitude mc_characteristic_length mc_mean_cluster mean_centrality mean_cluster
metrics orbital path pseudoinverse_trace_bound ratio_dimension_sweep read_edge_list
relative_characteristic_length report rng scale_measure simplex_counts spanning_tree_count
spectral spectral_complexity sphere star topology vertex_dimension watts_strogatz wheel
wiener_index write_edge_list""".split()


def test_star_import_binds_every_public_name():
    assert netfunc.__all__ == PUBLIC and len(PUBLIC) == 83
    body = ("from netfunc import *\nimport netfunc, types\n"
            "assert all(n in globals() for n in netfunc.__all__)\n"
            "assert sum(isinstance(globals()[n], types.ModuleType) "
            "for n in netfunc.__all__) == 11\n"
            "assert netfunc.__version__ == '0.1.0'")
    modules, _ = run_fresh(body)
    assert "netfunc.cli" not in modules and len(modules) == 13  # netfunc, 11 submodules, numpy
