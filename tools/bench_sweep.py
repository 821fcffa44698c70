"""Before/after cost of the greedy sweeps, ``minimal_k_vsb(g, 3)`` and
``two_phase_3vsb(g)``.

    python3 tools/bench_sweep.py --base REV [--out FILE] [--repeat R]

Extracts ``src/`` of git revision REV (``git archive``) into a temporary
directory and runs every instance on it ("base") and on the ``src/``
next to this script ("change").  Per instance, side and extractor it
records the CPU time (median over R fresh processes, each the median of
up to 50 runs in the process, in ms), the run's ``full_tests`` and
``flow_tests``, how often ``Digraph.remove_edge`` and
``Digraph.restore_edge`` were called (found by wrapping them, in one
further process) and a SHA-256 digest of the output (subgraph, removed,
protected).  It also times the degree-only walk alone,
``extraction._walk`` at k=3 in input order.  The sides alternate, since
on a shared machine the speed of a process can differ from the next
one's by a third.  It fails if the two sides build different instances,
or report a different digest, ``removed`` or test count, and writes
everything as JSON (default ``BENCH_degree_walk.json``).  A run takes
a few minutes.

Instances: the perfbench ``thin`` instances of its first 10 units (n=16,
m=8n, instance seeds from 100000 whose 128 sampled arcs are already
3-vsb), ``generate(InstanceSpec(n, seed=1))`` at n = 100, 400 and
1,000, and ``block_ring(67)`` from the tests, whose degree-only results
fail their check, so both extractors fall back.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import inspect
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THIN = tuple(f"thin_{unit}" for unit in range(10))
GENERATED = {"generated_n100": 100, "generated_n400": 400, "generated_n1000": 1000}
RING = "block_ring_67"
EXTRACTORS = ("minimal", "two_phase")
COMPARED = ("digest", "removed", "full_tests", "flow_tests")
INNER_S = 0.2  # CPU seconds a timed process aims to spend per extractor


def build(name: str):
    """The instance called ``name``, from the vsbgraph on sys.path."""
    from vsbgraph import InstanceSpec, generate, is_k_vsb, random_digraph

    if name == RING:
        sys.path.insert(0, str(ROOT / "tests"))
        from graphutil import block_ring

        return block_ring(67)
    if name in GENERATED:
        return generate(InstanceSpec(GENERATED[name], seed=1)).graph
    seed, found = 100000, -1
    while True:
        if is_k_vsb(random_digraph(InstanceSpec(16, 128, seed)), 3):
            found += 1
            if f"thin_{found}" == name:
                return generate(InstanceSpec(16, 128, seed)).graph
        seed += 1


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def cpu_ms(fn, *args) -> float:
    gc.disable()
    try:
        start = time.process_time()
        fn(*args)
        return (time.process_time() - start) * 1000
    finally:
        gc.enable()


def measure(name: str, counted: bool) -> dict:
    """Time both extractors and the degree-only walk on one instance, or
    run each once with Digraph.remove_edge/restore_edge counted."""
    from vsbgraph import Digraph, extraction, serialize_edge_list

    g = build(name)
    runs = {"minimal": lambda: extraction.minimal_k_vsb(g, 3),
            "two_phase": lambda: extraction.two_phase_3vsb(g)}
    row: dict = {"n": g.n, "m": g.m, "instance": sha(serialize_edge_list(g))}
    if not counted:
        # the walk took a required local flag before it read counts
        local = inspect.signature(extraction._walk).parameters["local"]
        flag = () if local.default is None else (False,)
        walk = lambda: extraction._walk(g, 3, g.edges(), frozenset(), *flag)  # noqa: E731
        for label, fn in [*runs.items(), ("walk", walk)]:
            times = [cpu_ms(fn)]
            repeat = min(50, int(INNER_S * 1000 / max(times[0], 1e-3)))
            times += [cpu_ms(fn) for _ in range(repeat)]
            row[f"{label}_cpu_ms"] = statistics.median(times)
        return row
    # the process ends after this run, so the wrappers stay in place
    tally = {"remove_edge": 0, "restore_edge": 0}
    for method in tally:
        def counting(*args, method=method, original=getattr(Digraph, method)):
            tally[method] += 1
            return original(*args)

        setattr(Digraph, method, counting)
    for label, fn in runs.items():
        tally.update(remove_edge=0, restore_edge=0)
        result = fn()
        stats = result.stats
        row[label] = {
            "full_tests": stats.full_tests,
            "flow_tests": stats.flow_tests,
            "edges_out": stats.edges_out,
            "remove_edge_calls": tally["remove_edge"],
            "restore_edge_calls": tally["restore_edge"],
            "removed": sha(repr(tuple(result.removed))),
            "digest": sha(serialize_edge_list(result.subgraph)
                          + repr(tuple(result.removed))
                          + repr(tuple(result.protected))),
        }
    return row


def run_side(src: Path, name: str, counted: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, __file__, "--measure", name, "--counted", str(int(counted))],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def compare(sides: dict[str, Path], name: str, repeat: int) -> dict:
    """Both sides of one instance: ``repeat`` timed processes each, the
    order alternating, then one counted process each."""
    timed: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(repeat):
        for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
            timed[side].append(run_side(sides[side], name, False))
    row = {}
    for side, runs in timed.items():
        counted = run_side(sides[side], name, True)
        if {run["instance"] for run in runs} != {counted["instance"]}:
            raise SystemExit(f"{name}: {side} built different instances")
        entry = {key: counted[key] for key in ("n", "m", "instance")}
        for label in (*EXTRACTORS, "walk"):
            times = [run[f"{label}_cpu_ms"] for run in runs]
            part = entry.setdefault(label, counted.get(label, {}))
            part["cpu_ms"] = round(statistics.median(times), 3)
            part["cpu_ms_runs"] = [round(t, 3) for t in times]
        row[side] = entry
    return row


def differences(row: dict) -> list[str]:
    base, change = row["base"], row["change"]
    found = [] if base["instance"] == change["instance"] else ["instance"]
    return found + [
        f"{label}.{key}"
        for label in EXTRACTORS
        for key in COMPARED
        if base[label][key] != change[label][key]
    ]


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, check=True).stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--out", default=str(ROOT / "BENCH_degree_walk.json"))
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    parser.add_argument("--counted", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure, bool(args.counted))))
        return 0
    if not args.base:
        parser.error("--base is required")
    base_rev = git("rev-parse", args.base).decode().strip()
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=BytesIO(git("archive", base_rev, "src"))) as tar:
            tar.extractall(tmp, filter="data")
        sides = {"base": Path(tmp) / "src", "change": ROOT / "src"}
        for name in [*THIN, *GENERATED, RING]:
            row = rows[name] = compare(sides, name, args.repeat)
            moved = differences(row)
            if moved:
                print(f"{name}: {', '.join(moved)} differ: {row}", file=sys.stderr)
                return 1
            print(name, {side: {label: row[side][label]["cpu_ms"]
                                for label in (*EXTRACTORS, "walk")}
                         for side in sides}, file=sys.stderr)
    thin = {
        label: {side: round(statistics.median(rows[name][side][label]["cpu_ms"]
                                               for name in THIN), 3)
                for side in ("base", "change")}
        for label in (*EXTRACTORS, "walk")
    }
    result = {
        "command": shlex.join(["python3", "tools/bench_sweep.py", *sys.argv[1:]]),
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpu_count": os.cpu_count(),
            "base": base_rev,
            "change": git("rev-parse", "HEAD").decode().strip()
            + (" + working tree" if git("status", "--porcelain", "src") else ""),
        },
        "repeat": args.repeat,
        "thin_median_cpu_ms": thin,
        "instances": rows,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
