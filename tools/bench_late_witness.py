"""Before/after cost of ``is_k_vsb(g, 3)``, on false verdicts, whose
witness search is most of their work, and on true ones.

    python3 tools/bench_late_witness.py --base REV [--out FILE] [--repeat R]

Extracts ``src/`` of git revision REV (``git archive``) into a temporary
directory and runs every instance on it ("base") and on the ``src/``
next to this script ("change").  Per instance and side it records the
verdict's witness, the CPU time of ``is_k_vsb(g, 3)`` (median of R
runs, in ms), and from one further run the number of ``_Table.count``
visits and ``_disjoint_paths`` calls and the tracemalloc peak (KB).
Each run has a fresh Python process, and the sides alternate, since on
a shared machine the speed of a process can differ from the next one's
by a third.  It fails if the two sides report different witnesses, or
a different number of visits or calls, and writes everything as JSON
(default ``BENCH_late_witness.json``).  A run takes about a quarter of
an hour, most of it in the traced runs of the sparse instances, since
tracemalloc slows their many allocations several-fold.

Instances: near-miss copies of ``generate(InstanceSpec(n, seed=1))`` in
which vertex 7 keeps only its two highest in-neighbours (n = 50 with
800 initial arcs, as pinned in the tests, then n = 100, 200, 400); four
sparse false inputs at n = 1,000, whose kept paths are few; and three
true verdicts: the perfbench ``check`` instance
``generate(InstanceSpec(50, 800, 100000))`` and
``generate(InstanceSpec(n, seed=1))`` at n = 200 and 1,000.
"""
from __future__ import annotations

import argparse
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
import tracemalloc
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NEAR_MISS = {"near_miss_n50": (50, 800), "near_miss_n100": (100, None),
             "near_miss_n200": (200, None), "near_miss_n400": (400, None)}
SPARSE = ("directed_cycle_n1000", "bidirected_cycle_n1000",
          "directed_square_cycle_n1000", "bidirected_path_n1000")
TRUE = {"check_n50": (50, 800, 100000), "generated_n200": (200, None, 1),
        "generated_n1000": (1000, None, 1)}
COUNTERS = ("witness", "table_visits", "disjoint_paths_calls")


def build(name: str):
    """The instance called ``name``, from the vsbgraph on sys.path."""
    from vsbgraph import Digraph, InstanceSpec, generate

    if name in TRUE:
        return generate(InstanceSpec(*TRUE[name])).graph
    if name in NEAR_MISS:
        n, m = NEAR_MISS[name]
        g = generate(InstanceSpec(n, m, 1)).graph
        a, b = sorted(g.in_neighbors(7))[-2:]
        return Digraph(n, [(x, y) for x, y in g.edges() if y != 7 or x in (a, b)])
    n = 1000
    ring = [(i, (i + 1) % n) for i in range(n)]
    path = [(i, i + 1) for i in range(n - 1)]
    arcs = {
        "directed_cycle_n1000": ring,
        "bidirected_cycle_n1000": ring + [(v, u) for u, v in ring],
        "directed_square_cycle_n1000": ring + [(i, (i + 2) % n) for i in range(n)],
        "bidirected_path_n1000": path + [(v, u) for u, v in path],
    }[name]
    return Digraph(n, arcs)


def measure(name: str, traced: bool) -> dict:
    """Time is_k_vsb(g, 3) on one instance, or count and trace it."""
    from vsbgraph import connectivity

    g = build(name)
    if not traced:
        start = time.process_time()
        report = connectivity.is_k_vsb(g, 3)
        return {"witness": str(report.witness),
                "cpu_ms": (time.process_time() - start) * 1000}
    # a first run, untraced, makes the allocations that only the first
    # call of a process makes
    connectivity.is_k_vsb(g, 3)
    tally = {"table_visits": 0, "disjoint_paths_calls": 0}
    count, disjoint_paths = connectivity._Table.count, connectivity._disjoint_paths

    def counting_visits(table, *args):
        tally["table_visits"] += 1
        return count(table, *args)

    def counting_paths(*args):
        tally["disjoint_paths_calls"] += 1
        return disjoint_paths(*args)

    connectivity._Table.count = counting_visits
    connectivity._disjoint_paths = counting_paths
    tracemalloc.start()
    report = connectivity.is_k_vsb(g, 3)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"n": g.n, "m": g.m, "witness": str(report.witness), **tally,
            "tracemalloc_peak_kb": round(peak / 1024, 1)}


def run_side(src: Path, name: str, traced: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, __file__, "--measure", name, "--traced", str(int(traced))],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def compare(sides: dict[str, Path], name: str, repeat: int) -> dict:
    """Both sides of one instance: ``repeat`` timed runs each, the order
    alternating, then one traced run each."""
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(repeat):
        for side in list(sides)[:: 1 if i % 2 == 0 else -1]:
            runs[side].append(run_side(sides[side], name, False))
    row = {}
    for side, timed in runs.items():
        times = [run["cpu_ms"] for run in timed]
        row[side] = {
            **run_side(sides[side], name, True),
            "cpu_ms": round(statistics.median(times), 2),
            "cpu_ms_runs": [round(t, 2) for t in times],
        }
        if {run["witness"] for run in timed} != {row[side]["witness"]}:
            raise SystemExit(f"{name}: {side} runs report different witnesses")
    return row


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, check=True).stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--out", default=str(ROOT / "BENCH_late_witness.json"))
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure, bool(args.traced))))
        return 0
    if not args.base:
        parser.error("--base is required")
    base_rev = git("rev-parse", args.base).decode().strip()
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=BytesIO(git("archive", base_rev, "src"))) as tar:
            tar.extractall(tmp, filter="data")
        sides = {"base": Path(tmp) / "src", "change": ROOT / "src"}
        for name in [*NEAR_MISS, *SPARSE, *TRUE]:
            row = rows[name] = compare(sides, name, args.repeat)
            if any(row["base"][key] != row["change"][key] for key in COUNTERS):
                print(f"{name}: witnesses or counts differ: {row}", file=sys.stderr)
                return 1
            print(name, {side: row[side]["cpu_ms"] for side in sides}, file=sys.stderr)
    result = {
        "command": shlex.join(["python3", "tools/bench_late_witness.py",
                               *sys.argv[1:]]),
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "base": base_rev,
            "change": git("rev-parse", "HEAD").decode().strip()
            + (" + working tree" if git("status", "--porcelain", "src") else ""),
        },
        "repeat": args.repeat,
        "instances": rows,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
