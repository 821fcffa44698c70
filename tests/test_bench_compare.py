"""tools/bench_compare.py: the counts its counting process reports, the
fields it compares, the paired timing of the in-process suites, the
startup suite's child timing and its usage errors.  Each run is a subprocess, as in the tool: the
counting run leaves Digraph and connectivity names wrapped for the rest
of its process."""
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_compare.py"


def run(*args: str, path: str = str(ROOT / "src")) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, str(TOOL), *args], env=env,
                          capture_output=True, text=True)


def counted(suite: str, name: str) -> dict:
    done = run(suite, "--measure", name, "--counted", "1")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_sweep_counts_on_thin_0():
    # the backbone's output and counts are gated like the extractors',
    # not only timed
    row = counted("sweep", "thin_0")
    assert (row["n"], row["m"]) == (16, 128)
    labels = ("minimal", "two_phase", "backbone")
    tests = {label: (row[label]["full_tests"], row[label]["flow_tests"],
                     row[label]["edges_out"])
             for label in labels}
    assert tests == {"minimal": (1, 0, 50), "two_phase": (4, 69, 50),
                     "backbone": (3, 69, 34)}
    assert load_tool().SUITES["sweep"].compared == [
        f"{label}.{key}" for label in labels
        for key in ("digest", "removed", "full_tests", "flow_tests")]


def test_verdict_counts_on_check_n50():
    row = counted("verdict", "check_n50")
    assert (row["n"], row["m"]) == (50, 800)
    assert (row["witness"], row["table_visits"], row["disjoint_paths_calls"]) == (
        "None", 0, 152)


def test_verdict_gates_on_the_witness_alone():
    # the table visits and path counts are recorded for each side, but a
    # change to the witness search moves them on purpose, so only the
    # instance and the witness must agree
    assert load_tool().SUITES["verdict"].compared == ["witness"]
    row = counted("verdict", "near_miss_n50")
    assert row["witness"] == "deleting {45, 48} breaks strong biconnectivity"
    assert {"table_visits", "disjoint_paths_calls"} <= set(row)


def test_verdict_counts_on_check_near_miss():
    # the near-miss copy that perfbench/run.py builds for its check
    # workload, with the same digest as its pin, and the cost of the
    # benchmark's own false verdict
    row = counted("verdict", "check_n50_near_miss")
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    assert row["instance"] == pins["instances"]["50,800,100000,near-miss"]
    assert row["witness"] == "deleting {12, 13} breaks strong biconnectivity"
    assert (row["disjoint_paths_calls"], row["table_visits"]) == (174, 218)


def test_verdict_times_both_packages_in_one_process(tmp_path):
    # the base is imported as vsbgraph_base next to vsbgraph; a first
    # pair is discarded, and each later pair gives one ratio change/base
    shutil.copytree(ROOT / "src" / "vsbgraph", tmp_path / "vsbgraph_base")
    done = run("verdict", "--measure", "check_n50_near_miss", "--repeat", "3",
               path=os.pathsep.join([str(ROOT / "src"), str(tmp_path)]))
    assert done.returncode == 0, done.stderr
    row = json.loads(done.stdout)
    assert row["base"]["instance"] == row["change"]["instance"]
    base, change = (row[side]["is_k_vsb"] for side in ("base", "change"))
    assert len(base["cpu_ms_runs"]) == len(change["cpu_ms_runs"]) == 3
    ratios = row["paired"]["is_k_vsb"]
    assert ratios["ratios"] == pytest.approx(
        [c / b for b, c in zip(base["cpu_ms_runs"], change["cpu_ms_runs"])], rel=0.01)
    assert ratios["ratio_p10"] <= ratios["ratio_median"] <= ratios["ratio_p90"]


def test_sweep_times_the_backbone_alone(tmp_path):
    # compute_2vsb_spanning is timed as an operation of its own, next to
    # the extractors and the walk, with a ratio per pair
    shutil.copytree(ROOT / "src" / "vsbgraph", tmp_path / "vsbgraph_base")
    done = run("sweep", "--measure", "thin_0", "--repeat", "2",
               path=os.pathsep.join([str(ROOT / "src"), str(tmp_path)]))
    assert done.returncode == 0, done.stderr
    row = json.loads(done.stdout)
    assert set(row["paired"]) == {"minimal", "two_phase", "walk", "backbone"}
    for side in ("base", "change"):
        assert len(row[side]["backbone"]["cpu_ms_runs"]) == 2
    assert len(row["paired"]["backbone"]["ratios"]) == 2


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


def test_ingest_runs_the_cli_check_in_process(tmp_path):
    # cli_check is cli.main on a file of the instance's text, its stdout
    # captured; its stdout and exit code are compared, and it is timed in
    # pairs beside the parser
    row = counted("ingest", "check_n50_commented")
    assert row["cli_check"] == {"stdout": "true\n", "returncode": 0}
    assert {"cli_check.stdout", "cli_check.returncode"} <= set(
        load_tool().SUITES["ingest"].compared)
    shutil.copytree(ROOT / "src" / "vsbgraph", tmp_path / "vsbgraph_base")
    done = run("ingest", "--measure", "check_n50", "--repeat", "2",
               path=os.pathsep.join([str(ROOT / "src"), str(tmp_path)]))
    assert done.returncode == 0, done.stderr
    assert len(json.loads(done.stdout)["paired"]["cli_check"]["ratios"]) == 2


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


def test_one_pair_is_a_usage_error():
    # the in-process suites time pairs, and one pair has no band
    for suite in ("sweep", "verdict", "ingest", "generate"):
        done = run(suite, "--base", "no-such-revision", "--out", os.devnull,
                   "--repeat", "1")
        assert done.returncode == 2
        assert f"--repeat must be at least 2 for {suite}" in done.stderr


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs the git history")
def test_in_process_suite_times_pairs(tmp_path):
    # ingest is the quickest in-process suite: each instance is timed in
    # one process of --repeat pairs, then counted once per side
    out = tmp_path / "ingest.json"
    done = run("ingest", "--base", "HEAD", "--out", str(out), "--repeat", "2")
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text())
    assert result["repeat"] == 2
    for row in result["instances"].values():
        assert row["base"]["text"] == row["change"]["text"]
        for label, part in row["paired"].items():
            assert len(part["ratios"]) == 2
            assert len(row["base"][label]["cpu_ms_runs"]) == 2
