"""tools/bench_compare.py: the counts its counting process reports, the
fields it compares, the startup suite's child timing, and its usage
errors.  Each run is a subprocess, as in the tool: the counting run
leaves Digraph and connectivity names wrapped for the rest of its
process."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_compare.py"


def run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(TOOL), *args], env=env,
                          capture_output=True, text=True)


def counted(suite: str, name: str) -> dict:
    done = run(suite, "--measure", name, "--counted", "1")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_sweep_counts_on_thin_0():
    row = counted("sweep", "thin_0")
    assert (row["n"], row["m"]) == (16, 128)
    tests = {label: (row[label]["full_tests"], row[label]["flow_tests"],
                     row[label]["edges_out"])
             for label in ("minimal", "two_phase")}
    assert tests == {"minimal": (1, 0, 50), "two_phase": (5, 69, 50)}


def test_verdict_counts_on_check_n50():
    row = counted("verdict", "check_n50")
    assert (row["n"], row["m"]) == (50, 800)
    assert (row["witness"], row["table_visits"], row["disjoint_paths_calls"]) == (
        "None", 0, 152)


def test_verdict_gates_on_the_witness_alone():
    # the table visits and path counts are recorded for each side, but a
    # change to the witness search moves them on purpose, so only the
    # instance and the witness must agree
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.SUITES["verdict"].compared == ["witness"]
    row = counted("verdict", "near_miss_n50")
    assert row["witness"] == "deleting {45, 48} breaks strong biconnectivity"
    assert {"table_visits", "disjoint_paths_calls"} <= set(row)


def test_verdict_counts_on_minimal_output_n1000():
    # the test a clean sweep makes of its sparse result D at n=1,000
    row = counted("verdict", "minimal_output_n1000")
    assert (row["n"], row["m"]) == (1000, 3238)
    assert (row["witness"], row["table_visits"], row["disjoint_paths_calls"]) == (
        "None", 0, 3002)


def test_ingest_counts_on_commented_check_n50():
    # the comment lines change the text, not the graph parsed from it
    row = counted("ingest", "check_n50_commented")
    assert (row["n"], row["m"]) == (50, 800)
    assert row["parsed"] == row["instance"] != row["text"]


def test_generate_counts_on_grow_0():
    # the sample is the first 48 arcs of the grown instance
    row = counted("generate", "grow_0")
    assert (row["n"], row["m"], row["edges_added_in_growth"]) == (12, 64, 16)
    assert row["sample"] == (
        "3ea45c50cd3a4ab4e4a8ff1c796964a87773b1a89e082a53a5498a0b283f9cef")
    assert 0 < row["random_digraph_tracemalloc_peak_kb"] < row[
        "generate_tracemalloc_peak_kb"]


def test_startup_runs_the_cli_in_a_child():
    row = counted("startup", "check_n50")
    assert (row["n"], row["m"]) == (50, 800)
    assert (row["stdout"], row["returncode"]) == ("true\n", 0)
    done = run("startup", "--measure", "import_vsbgraph")
    assert done.returncode == 0, done.stderr
    times = json.loads(done.stdout)
    # a child's CPU time is counted, not the timing process's own
    assert set(times) == {"cpu_ms", "wall_ms"}
    assert times["cpu_ms"]["process"] > 0 and times["wall_ms"]["process"] > 0


def test_repeat_below_one_is_a_usage_error():
    # an unknown base shows that no git command ran before the check
    done = run("sweep", "--base", "no-such-revision", "--out", os.devnull,
               "--repeat", "0")
    assert done.returncode == 2
    assert "--repeat must be at least 1" in done.stderr
