"""Before/after cost of the greedy sweeps, of ``is_k_vsb``, of file ingest,
of instance generation or of a fresh CLI process.

    python3 tools/bench_compare.py SUITE --base REV --out FILE [--repeat R]

Runs every instance of SUITE on ``src/`` of git revision REV, extracted
by ``git archive`` ("base"), and on the ``src/`` next to this script
("change"), timed and then counted in one process per side.  FILE gets,
per instance and side, the instance's size and digest, the counts and,
per operation, the median time (``cpu_ms``, in ms) and each run's
(``cpu_ms_runs``).  The run exits 1 at the first instance whose sides
differ in the instance or a compared field; the other counts are
recorded for each side without a gate.

The in-process suites (all but ``startup``) time both sides in one
process per instance, since on a shared machine one process can run a
third faster than the next, which hides changes of a few percent: the
base's package is imported as ``vsbgraph_base`` next to ``vsbgraph``,
each side builds the instance and, per operation, the two sides
alternate in R pairs (R at least 2), the order in a pair alternating
too.  A side's time in a pair is the least of 5 consecutive calls (of
one call from 0.1 s up), since on a shared VM a call now and then reads
a few ms more CPU time than its work takes.  A first pair of single
calls is discarded, since it is slow on both sides.  ``cpu_ms_runs``
holds the times of the R pairs, and the instance's ``paired`` entry
holds, per operation, each pair's ratio change/base (``ratios``), their
median (``ratio_median``) and their 10-90% band (``ratio_p10``,
``ratio_p90``).

``sweep`` times ``minimal_k_vsb(g, 3)``, ``two_phase_3vsb(g)``, the
degree-only walk alone (``extraction._walk`` at k=3 in input order) and
two-phase's 2-vsb backbone alone (``compute_2vsb_spanning(g)``, whose
cost is diluted in two-phase's by the k=3 sweep).
For the two extractors and the backbone it compares ``full_tests``,
``flow_tests``, the ``removed`` list and a SHA-256 digest of the output
(subgraph, removed, protected), and records the output edges and the
calls of ``Digraph.remove_edge`` and ``restore_edge``.  Instances: the perfbench
``thin`` instances of its first 10 units (n=16, m=8n, instance seeds
from 100000 whose 128 sampled arcs are already 3-vsb), which also get
their median, ``generate(InstanceSpec(n, seed=1))`` at n = 100, 400 and
1,000, and ``block_ring(67)`` from the tests, whose degree-only results
fail their check, so both extractors fall back.  R=5 takes a few minutes.

``verdict`` times ``is_k_vsb(g, 3)``, compares its witness, and records
its ``_Table.count`` visits, its ``_disjoint_paths`` calls and its
tracemalloc peak (KB).  The two counters are costs that a change to the
witness search moves on purpose; the tier-1 tests pin their exact values
on the near-misses at n = 50, 100 and 200 and on ``check_n50_near_miss``.
Instances: near-miss copies of ``generate(InstanceSpec(n, seed=1))``
in which vertex 7 keeps only its two highest in-neighbours (n = 50
with 800 initial arcs, as pinned in the tests, then n = 100, 200,
400); four sparse false inputs at
n = 1,000, whose kept paths are few; the near-miss of the perfbench
``check`` workload (``check_n50_near_miss``, witness {12, 13}); and
four true verdicts: the perfbench ``check`` instance
``generate(InstanceSpec(50, 800, 100000))``,
``generate(InstanceSpec(n, seed=1))`` at n = 200 and 1,000, and the
sparse output ``minimal_k_vsb(g, 3).subgraph`` of the latter, whose
test is the one a clean sweep makes of its result.  R=1 takes minutes,
mostly in the traced runs of the sparse false instances.

``ingest`` times ``parse_edge_list`` on the instance's edge-list text,
``Digraph(n, edges)`` on its edge list, ``g.copy()`` and, as
``cli_check``, an in-process ``cli.main(["check", "--k", "3", "--in",
FILE])`` on a file of that text, its output captured; it compares
SHA-256 digests of the text and of ``serialize_edge_list`` of the parsed
graph, and ``cli_check``'s stdout and exit code.  Instances: the
perfbench ``check`` instance, the same text with a comment line before
every 100th line, and ``generate(InstanceSpec(1000, seed=1))``.  R=5
takes about a minute.

``generate`` times ``random_digraph(spec)`` and ``generate(spec)``,
compares the SHA-256 digest of the sample and ``edges_added_in_growth``,
and records each operation's tracemalloc peak (KB).  Instances: the
perfbench ``grow`` specs of its first 5 units (n=12, m0=48, seeds from
100000), the ``check`` instance's spec (50, 800, 100000),
``InstanceSpec(n, seed=1)`` at n = 100 and 1,000, and the complete
sample ``InstanceSpec(300, 89700, 2)``, whose arcs fill the whole arc
space.  R=5 takes about a minute.

``startup`` times whole fresh processes instead: each timed process
starts one child, ``python -m vsbgraph check --k 3`` on the instance's
edge-list file, or ``python -c "import vsbgraph"`` for the instance
``import_vsbgraph``, and records the child's CPU time (user plus system,
``cpu_ms``) and its wall time (``wall_ms``), the medians over R timed
processes per side, the sides alternating; it compares the child's
stdout and exit code.  Instances: ``import_vsbgraph``, the perfbench
``check`` instance and ``generate(InstanceSpec(1000, seed=1))``.  One
child's CPU time spreads by tens of ms from run to run, so take R=15;
that takes about two minutes.
"""
from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import hashlib
import importlib
import inspect
import io
import json
import os
import platform
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from functools import reduce
from io import BytesIO
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PAIR_CALLS, SLOW_MS = 5, 100  # calls per side in a pair, below SLOW_MS
THIN = tuple(f"thin_{unit}" for unit in range(10))
GROW = tuple(f"grow_{unit}" for unit in range(5))
EXTRACTORS = ("minimal", "two_phase", "backbone")
SIDES = ("base", "change")


def build(name: str, lib):
    """The instance called ``name``, made with the vsbgraph package
    ``lib``; None for ``import_vsbgraph``, which has no graph."""
    if name == "import_vsbgraph":
        return None
    if name == "block_ring_67":
        sys.path.insert(0, str(ROOT / "tests"))
        from graphutil import block_ring

        ring = block_ring(67)
        return lib.Digraph(ring.n, ring.edges())
    if name == "check_n50_near_miss":
        return check_near_miss(lib)
    spec = instance_spec(name, lib)
    if spec is not None:
        return lib.generate(spec).graph
    if name in THIN:
        seed, found = 100000, -1
        while True:
            if lib.is_k_vsb(lib.random_digraph(lib.InstanceSpec(16, 128, seed)), 3):
                found += 1
                if f"thin_{found}" == name:
                    return lib.generate(lib.InstanceSpec(16, 128, seed)).graph
            seed += 1
    n = int(name.rpartition("_n")[2])
    if name.startswith("minimal_output_"):
        g = lib.generate(lib.InstanceSpec(n, seed=1)).graph
        return lib.minimal_k_vsb(g, 3).subgraph
    if name.startswith("near_miss_"):
        g = lib.generate(lib.InstanceSpec(n, 800 if n == 50 else None, 1)).graph
        a, b = sorted(g._in[7])[-2:]
        return lib.Digraph(n, [(x, y) for x, y in g.edges() if y != 7 or x in (a, b)])
    ring = [(i, (i + 1) % n) for i in range(n)]
    path = [(i, i + 1) for i in range(n - 1)]
    return lib.Digraph(n, {
        "directed_cycle": ring,
        "bidirected_cycle": ring + [(v, u) for u, v in ring],
        "directed_square_cycle": ring + [(i, (i + 2) % n) for i in range(n)],
        "bidirected_path": path + [(v, u) for u, v in path],
    }[name.rpartition("_n")[0]])


def check_near_miss(lib):
    """The near-miss copy of the perfbench ``check`` instance that
    perfbench/run.py builds at its default seed: a seeded vertex v keeps
    only its two highest in-neighbours a and b, which swaps of ids
    renumber to 12 and 13, so the witness is {12, 13}."""
    seed = 100000
    g = lib.generate(lib.InstanceSpec(50, 800, seed)).graph
    v = random.Random(seed).randrange(g.n)
    a, b = sorted(g._in[v])[-2:]
    new_id = list(range(g.n))
    for old, target in zip((a, b), (12, 13)):
        holder = new_id.index(target)
        new_id[old], new_id[holder] = target, new_id[old]
    return lib.Digraph(g.n, [
        (new_id[x], new_id[y]) for x, y in g.edges() if y != v or x in (a, b)
    ])


def instance_spec(name: str, lib):
    """The InstanceSpec whose generated graph is the instance ``name``,
    or None for an instance built otherwise."""
    InstanceSpec = lib.InstanceSpec
    if name in ("check_n50", "check_n50_commented"):
        return InstanceSpec(50, 800, 100000)
    if name in GROW:
        return InstanceSpec(12, 48, 100000 + GROW.index(name))
    if name == "complete_n300":
        return InstanceSpec(300, 89700, 2)
    if name.startswith("generated_n"):
        return InstanceSpec(int(name.removeprefix("generated_n")), seed=1)
    return None


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def counting(tally: dict, key: str, fn):
    """fn, adding one to tally[key] at each call."""
    def counted(*args):
        tally[key] += 1
        return fn(*args)

    return counted


def sweep_operations(lib, g, name: str) -> dict:
    extraction = lib.extraction
    params, rest = inspect.signature(extraction._walk).parameters, []
    # the walk took a protected set before its callers passed only the
    # arcs that may go, a required local flag before it read counts, and
    # a Digraph before it took a graph's arcs and slacks (each call gets
    # fresh slacks, which the walk lowers in place)
    if "protected" in params:
        rest.append(frozenset())
    if params["local"].default is not None:
        rest.append(False)
    if "slacks" in params:
        slacks = lib.connectivity._slacks
        walk = lambda: extraction._walk(g._edges, 3, g.edges(), slacks(g, 3))
    else:
        walk = lambda: extraction._walk(g, 3, g.edges(), *rest)
    return {"minimal": lambda: extraction.minimal_k_vsb(g, 3),
            "two_phase": lambda: extraction.two_phase_3vsb(g),
            "walk": walk,
            "backbone": lambda: extraction.compute_2vsb_spanning(g)}


def sweep_counts(lib, g, name: str) -> dict:
    """Each extractor's stats and digest, with Digraph.remove_edge and
    restore_edge counted; the process ends after this, so the wrappers
    stay in place."""
    Digraph = lib.Digraph
    tally = {"remove_edge": 0, "restore_edge": 0}
    for method in tally:
        setattr(Digraph, method, counting(tally, method, getattr(Digraph, method)))
    operations, row = sweep_operations(lib, g, name), {}
    for label in EXTRACTORS:
        tally.update(remove_edge=0, restore_edge=0)
        result = operations[label]()
        row[label] = {
            "full_tests": result.stats.full_tests,
            "flow_tests": result.stats.flow_tests,
            "edges_out": result.stats.edges_out,
            "remove_edge_calls": tally["remove_edge"],
            "restore_edge_calls": tally["restore_edge"],
            "removed": sha(repr(tuple(result.removed))),
            "digest": sha(lib.serialize_edge_list(result.subgraph)
                          + repr(tuple(result.removed))
                          + repr(tuple(result.protected))),
        }
    return row


def verdict_operations(lib, g, name: str) -> dict:
    is_k_vsb = lib.connectivity.is_k_vsb
    return {"is_k_vsb": lambda: is_k_vsb(g, 3)}


def verdict_counts(lib, g, name: str) -> dict:
    """The witness, the counted table visits and _disjoint_paths calls and
    the tracemalloc peak of one is_k_vsb(g, 3); the wrappers stay."""
    connectivity = lib.connectivity
    # a first run, untraced, makes the allocations that only the first
    # call of a process makes
    connectivity.is_k_vsb(g, 3)
    tally = {"table_visits": 0, "disjoint_paths_calls": 0}
    connectivity._Table.count = counting(tally, "table_visits",
                                         connectivity._Table.count)
    connectivity._disjoint_paths = counting(tally, "disjoint_paths_calls",
                                            connectivity._disjoint_paths)
    tracemalloc.start()
    report = connectivity.is_k_vsb(g, 3)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"witness": str(report.witness), **tally,
            "tracemalloc_peak_kb": round(peak / 1024, 1)}


def ingest_text(lib, g, name: str) -> str:
    """g's edge-list text; the ``_commented`` instance gets a comment
    line before every 100th line."""
    lines = lib.serialize_edge_list(g).splitlines(keepends=True)
    if name.endswith("_commented"):
        lines = [("# comment\n" if i % 100 == 0 else "") + line
                 for i, line in enumerate(lines)]
    return "".join(lines)


def edge_list_file(text: str, name: str) -> str:
    """A temporary file holding text, deleted when this process exits."""
    handle, path = tempfile.mkstemp(prefix=f"{name}_", suffix=".txt")
    atexit.register(os.unlink, path)
    with os.fdopen(handle, "w", encoding="ascii") as file:
        file.write(text)
    return path


def cli_check(lib, g, name: str) -> Callable[[], tuple[str, int]]:
    """In-process ``cli.main(["check", "--k", "3", "--in", path])`` on the
    file of g's ingest text, as a function that runs it once and returns
    its captured stdout and its exit code."""
    main = importlib.import_module(f"{lib.__name__}.cli").main
    path = edge_list_file(ingest_text(lib, g, name), name)
    argv = ["check", "--k", "3", "--in", path]

    def run() -> tuple[str, int]:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
        return out.getvalue(), code

    return run


def ingest_operations(lib, g, name: str) -> dict:
    Digraph, parse_edge_list = lib.Digraph, lib.parse_edge_list
    text, edges = ingest_text(lib, g, name), g.edges()
    return {"parse_edge_list": lambda: parse_edge_list(text),
            "Digraph": lambda: Digraph(g.n, edges),
            "copy": g.copy,
            "cli_check": cli_check(lib, g, name)}


def ingest_counts(lib, g, name: str) -> dict:
    """Digests of the text and of the graph parsed from it, and the
    stdout and exit code of ``cli_check``."""
    text = ingest_text(lib, g, name)
    stdout, code = cli_check(lib, g, name)()
    return {"text": sha(text),
            "parsed": sha(lib.serialize_edge_list(lib.parse_edge_list(text))),
            "cli_check": {"stdout": stdout, "returncode": code}}


def startup_process(lib, g, name: str) -> Callable[[], subprocess.CompletedProcess]:
    """The fresh process the startup suite times, as a function that runs
    it once: ``import vsbgraph``, or ``check --k 3`` on g's edge-list file
    (a temporary file, deleted when this process exits)."""
    command = [sys.executable, "-c", "import vsbgraph"]
    if g is not None:
        path = edge_list_file(lib.serialize_edge_list(g), name)
        command = [sys.executable, "-m", "vsbgraph", "check", "--k", "3",
                   "--in", path]
    return lambda: subprocess.run(command, capture_output=True, text=True)


def startup_operations(lib, g, name: str) -> dict:
    return {"process": startup_process(lib, g, name)}


def startup_counts(lib, g, name: str) -> dict:
    """The child's stdout and exit code."""
    done = startup_process(lib, g, name)()
    return {"stdout": done.stdout, "returncode": done.returncode}


def generate_operations(lib, g, name: str) -> dict:
    generate, random_digraph = lib.generate, lib.random_digraph
    spec = instance_spec(name, lib)
    return {"random_digraph": lambda: random_digraph(spec),
            "generate": lambda: generate(spec)}


def generate_counts(lib, g, name: str) -> dict:
    """The sample's digest, the growth count and each operation's
    tracemalloc peak (KB); building the instance made the allocations
    that only a process's first draw makes."""
    row, results = {}, {}
    for label, fn in generate_operations(lib, g, name).items():
        tracemalloc.start()
        results[label] = fn()
        row[f"{label}_tracemalloc_peak_kb"] = round(
            tracemalloc.get_traced_memory()[1] / 1024, 1)
        tracemalloc.stop()
    return {"sample": sha(lib.serialize_edge_list(results["random_digraph"])),
            "edges_added_in_growth": results["generate"].edges_added_in_growth,
            **row}


def cpu_ms(fn) -> float:
    gc.disable()
    try:
        start = time.process_time()
        fn()
        return (time.process_time() - start) * 1000
    finally:
        gc.enable()


def child_ms(fn) -> dict:
    """``cpu_ms`` and ``wall_ms`` of one call of fn, which runs a child
    process: the CPU time is the child's, user plus system."""
    def child_cpu_s() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    cpu, wall = child_cpu_s(), time.perf_counter()
    fn()
    wall = time.perf_counter() - wall
    return {"cpu_ms": (child_cpu_s() - cpu) * 1000, "wall_ms": wall * 1000}


class Suite(NamedTuple):
    instances: list[str]
    operations: Callable  # (lib, g, name) -> {label: function to time}
    counts: Callable  # (lib, g, name) -> the counting process's fields
    compared: list[str]  # fields whose sides must agree
    # function -> {metric: ms}, for a suite timed in fresh processes;
    # None: the sides are timed in pairs in one process
    timer: Callable | None = None


SUITES = {
    "sweep": Suite([*THIN, "generated_n100", "generated_n400", "generated_n1000",
                    "block_ring_67"],
                   sweep_operations, sweep_counts,
                   [f"{label}.{key}" for label in EXTRACTORS
                    for key in ("digest", "removed", "full_tests", "flow_tests")]),
    "verdict": Suite(["near_miss_n50", "near_miss_n100", "near_miss_n200",
                      "near_miss_n400", "directed_cycle_n1000",
                      "bidirected_cycle_n1000", "directed_square_cycle_n1000",
                      "bidirected_path_n1000", "check_n50", "check_n50_near_miss",
                      "generated_n200", "generated_n1000", "minimal_output_n1000"],
                     verdict_operations, verdict_counts, ["witness"]),
    "ingest": Suite(["check_n50", "check_n50_commented", "generated_n1000"],
                    ingest_operations, ingest_counts,
                    ["text", "parsed", "cli_check.stdout", "cli_check.returncode"]),
    "generate": Suite([*GROW, "check_n50", "generated_n100", "generated_n1000",
                       "complete_n300"],
                      generate_operations, generate_counts,
                      ["sample", "edges_added_in_growth"]),
    "startup": Suite(["import_vsbgraph", "check_n50", "generated_n1000"],
                     startup_operations, startup_counts,
                     ["stdout", "returncode"], child_ms),
}


def measure(suite: str, name: str, counted: bool) -> dict:
    """Count the suite's fields on one instance, or time each operation
    with the suite's timer."""
    import vsbgraph

    spec = SUITES[suite]
    g = build(name, vsbgraph)
    row: dict = {} if g is None else {
        "n": g.n, "m": g.m, "instance": sha(vsbgraph.serialize_edge_list(g))}
    if counted:
        return {**row, **spec.counts(vsbgraph, g, name)}
    for label, fn in spec.operations(vsbgraph, g, name).items():
        for metric, ms in spec.timer(fn).items():
            row.setdefault(metric, {})[label] = ms
    return row


def paired(suite: str, name: str, pairs: int) -> dict:
    """Both sides of one instance in one process, the base imported as
    ``vsbgraph_base``: per operation, one pair that is discarded and then
    ``pairs`` more, the order in a pair alternating.  A side's time in a
    pair is the least of PAIR_CALLS consecutive calls, or one call where
    the discarded pair took over SLOW_MS: on a shared VM a call now and
    then reads several ms more CPU time than its work takes, and the
    least of a few calls drops those reads.  Per side, the instance
    digest and each operation's median ``cpu_ms`` and its runs; under
    ``paired``, per operation, the ratios change/base of the pairs, their
    median and their 10-90% band."""
    import vsbgraph
    import vsbgraph_base

    libs = {"base": vsbgraph_base, "change": vsbgraph}
    spec, operations, row = SUITES[suite], {}, {}
    for side, lib in libs.items():
        g = build(name, lib)
        row[side] = {"instance": sha(lib.serialize_edge_list(g))}
        operations[side] = spec.operations(lib, g, name)
    row["paired"] = {}
    for label in operations["change"]:
        fns = {side: operations[side][label] for side in SIDES}
        calls = 1 if max(cpu_ms(fn) for fn in fns.values()) > SLOW_MS else PAIR_CALLS
        times: dict[str, list[float]] = {side: [] for side in SIDES}
        for i in range(pairs):
            for side in SIDES[:: 1 if i % 2 else -1]:
                times[side].append(min(cpu_ms(fns[side]) for _ in range(calls)))
        for side in SIDES:
            kept = [round(t, 3) for t in times[side]]
            row[side][label] = {"cpu_ms": round(statistics.median(kept), 3),
                                "cpu_ms_runs": kept}
        ratios = [change / base for base, change in zip(times["base"], times["change"])]
        p10, *_, p90 = statistics.quantiles(ratios, n=10, method="inclusive")
        row["paired"][label] = {
            "ratio_median": round(statistics.median(ratios), 4),
            "ratio_p10": round(p10, 4), "ratio_p90": round(p90, 4),
            "ratios": [round(r, 4) for r in ratios]}
    return row


def run_side(suite: str, pythonpath: str, name: str, *flags: str) -> dict:
    command = [sys.executable, __file__, suite, "--measure", name, *flags]
    return json.loads(subprocess.run(
        command, env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, check=True).stdout)


def timed_sides(suite: str, paths: dict[str, str], name: str, repeat: int) -> dict:
    """Per side, the instance digest and, per operation, the median of
    ``repeat`` timed processes and each one, the order alternating; for a
    suite with a timer."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(repeat):
        for side in SIDES[:: 1 if i % 2 == 0 else -1]:
            runs[side].append(run_side(suite, paths[side], name))
    timed = {}
    for side, side_runs in runs.items():
        instances = {run.get("instance") for run in side_runs}
        if len(instances) > 1:
            raise SystemExit(f"{name}: {side} built different instances")
        entry = timed[side] = {"instance": instances.pop()}
        for metric in ("cpu_ms", "wall_ms"):
            for label in side_runs[0].get(metric, ()):
                times = [run[metric][label] for run in side_runs]
                entry[label] = {**entry.get(label, {}),
                                metric: round(statistics.median(times), 3),
                                f"{metric}_runs": [round(t, 3) for t in times]}
    return timed


def compare(suite: str, paths: dict[str, str], name: str, repeat: int) -> dict:
    """Both sides of one instance: timed in one process of ``repeat``
    pairs (:func:`paired`), or in ``repeat`` processes each if the suite
    has a timer (:func:`timed_sides`), then counted in one process each."""
    if SUITES[suite].timer is None:
        timed = run_side(suite, paths["paired"], name, "--repeat", str(repeat))
    else:
        timed = timed_sides(suite, paths, name, repeat)
    row = {}
    for side in SIDES:
        entry = row[side] = run_side(suite, paths[side], name, "--counted", "1")
        if timed[side].pop("instance") != entry.get("instance"):
            raise SystemExit(f"{name}: {side} built different instances")
        for label, part in timed[side].items():
            entry[label] = {**entry.get(label, {}), **part}
    if "paired" in timed:
        row["paired"] = timed["paired"]
    return row


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, check=True).stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed pairs, or for startup timed processes per side")
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    parser.add_argument("--counted", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.repeat < 2 and not SUITES[args.suite].timer:
        parser.error(f"--repeat must be at least 2 for {args.suite}: one pair has no band")
    if args.measure:
        if args.counted or SUITES[args.suite].timer:
            row = measure(args.suite, args.measure, bool(args.counted))
        else:
            row = paired(args.suite, args.measure, args.repeat)
        print(json.dumps(row))
        return 0
    if not (args.base and args.out):
        parser.error("--base and --out are required")
    instances, compared = SUITES[args.suite].instances, SUITES[args.suite].compared
    base_rev = git("rev-parse", args.base).decode().strip()
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=BytesIO(git("archive", base_rev, "src"))) as tar:
            tar.extractall(tmp, filter="data")
        # the base package again, under a name of its own, for paired()
        base_src, change_src = Path(tmp) / "src", ROOT / "src"
        shutil.copytree(base_src / "vsbgraph", Path(tmp) / "paired" / "vsbgraph_base")
        paths = {"base": str(base_src), "change": str(change_src),
                 "paired": os.pathsep.join([str(change_src), str(Path(tmp) / "paired")])}
        for name in instances:
            row = rows[name] = compare(args.suite, paths, name, args.repeat)
            moved = [path for path in ["instance", *compared]
                     if len({reduce(dict.get, path.split("."), row[side])
                             for side in SIDES}) > 1]
            if moved:
                print(f"{name}: {', '.join(moved)} differ: {row}", file=sys.stderr)
                return 1
            print(name, {side: {label: part["cpu_ms"]
                                for label, part in row[side].items()
                                if isinstance(part, dict) and "cpu_ms" in part}
                         for side in SIDES},
                  {label: part["ratio_median"]
                   for label, part in row.get("paired", {}).items()}, file=sys.stderr)
    result = {
        "command": shlex.join(["python3", "tools/bench_compare.py", *sys.argv[1:]]),
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
    }
    if args.suite == "sweep":
        result["thin_median_cpu_ms"] = {
            label: {side: round(statistics.median(
                rows[name][side][label]["cpu_ms"] for name in THIN), 3)
                for side in SIDES}
            for label in (*EXTRACTORS, "walk")
        }
    result["instances"] = rows
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
