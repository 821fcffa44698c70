"""vsbgraph benchmark: one workload per invocation, single process and thread.

    python3 perfbench/run.py --workload thin --seed 1 --seconds 30 --trace 0

Workloads (instance seeds start at ``seed * 100000``):

* ``thin``: ``minimal_k_vsb(g, 3)`` then ``two_phase_3vsb(g)`` on one
  generated instance per unit, n=16 and m=8n (seeds that need growth
  are skipped).
* ``grow``: ``generate(InstanceSpec(12, 48, s))`` per unit, plus one
  ``random_digraph`` call on the same spec; no extraction.
* ``check``: in-process ``cli.main(["check", "--k", "3", ...])`` on one
  n=50, m0=16n instance (true verdict) and on a near-miss copy with one
  vertex trimmed to in-degree 2 (false verdict), once each per unit.

Units run back to back until ``--seconds`` of wall time have passed
(at least one unit).  Each operation is timed in process CPU time with
the garbage collector paused, as ``vsbgraph.harness._timed_extractions``
does, and checked outside the timed region.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the metrics are the end-to-end ones
(``primary_s`` and ``secondary_s`` are the medians of the workload's two
operations, named per workload in the ``#`` lines above the JSON), with
``--trace 1`` the per-layer ones from a run with every layer wrapped.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_ROUNDS = 3
CALIBRATION_PERIOD_S = 0.25
UNIT_STRIDE = 100_000

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402


def import_vsbgraph() -> Any:
    """The package from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import vsbgraph
    except ImportError as exc:
        raise SystemExit(f"error: cannot import vsbgraph from {SRC}: {exc}")
    if Path(vsbgraph.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: vsbgraph imported from {vsbgraph.__file__}")
    return vsbgraph


def instance_seed(seed: int, unit: int) -> int:
    return seed * UNIT_STRIDE + unit


def pin_key(n: int, m0: int, seed: int, suffix: str = "") -> str:
    return f"{n},{m0},{seed}{suffix}"


def load_pins() -> dict[str, Any]:
    return json.loads((HERE / "pins.json").read_text())


def cpu_call(fn: Callable[..., Any], *args: Any) -> tuple[Any, float]:
    """Result and CPU seconds of one call, garbage collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        result = fn(*args)
        t1 = time.process_time()
    finally:
        if was_enabled:
            gc.enable()
    return result, t1 - t0


def calibrated(seconds: float, ref_before: float, ref_after: float) -> float:
    """CPU seconds rescaled to the speed at which a reference sample takes
    ``calibration.NOMINAL_S``, from the samples on either side."""
    return seconds * calibration.NOMINAL_S * 2 / (ref_before + ref_after)


def import_probe_s() -> float:
    """CPU seconds a fresh interpreter spends importing vsbgraph."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import vsbgraph", str(SRC)],
        cwd=ROOT, check=True, capture_output=True, timeout=60,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


class Run:
    """Timings, counts and failures of one benchmark run.

    ``samples`` holds each operation's CPU seconds as measured and
    ``scaled`` the same times calibrated by the reference samples taken
    before and after the operation: a sample is taken before an
    operation once ``CALIBRATION_PERIOD_S`` have passed since the last,
    and at the end of the run.
    """

    def __init__(self, ref: float) -> None:
        self.samples: dict[str, list[float]] = {"primary": [], "secondary": []}
        self.scaled: dict[str, list[float]] = {"primary": [], "secondary": []}
        self.refs = [ref]
        self.attempted = 0
        self.failed = 0
        self._ref_at = time.monotonic()
        self._uncalibrated: list[tuple[str, float]] = []

    def op(self, kind: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Time one operation; an exception counts as a failed operation."""
        if time.monotonic() - self._ref_at >= CALIBRATION_PERIOD_S:
            self.calibrate()
        self.attempted += 1
        try:
            result, seconds = cpu_call(fn, *args)
        except Exception:
            self.crashed()
            return None
        self.samples[kind].append(seconds)
        self._uncalibrated.append((kind, seconds))
        return result

    def calibrate(self) -> None:
        """Take a reference sample; scale the operations timed since the last."""
        after = calibration.sample()
        scale = calibrated(1.0, self.refs[-1], after)
        for kind, seconds in self._uncalibrated:
            self.scaled[kind].append(seconds * scale)
        self._uncalibrated.clear()
        self.refs.append(after)
        self._ref_at = time.monotonic()

    def crashed(self) -> None:
        """Count the exception being handled as a failed operation."""
        self.failed += 1
        traceback.print_exc()

    def verify(self, problems: list[str]) -> None:
        """Count the last operation as failed if its check found problems."""
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"verification failed: {problem}", file=sys.stderr)


def pin_problems(pins: dict[str, str], key: str, text: str) -> list[str]:
    expected = pins.get(key)
    if expected is not None and expected != checks.digest(text):
        return [f"instance {key} differs from its pinned digest"]
    return []


class Workload:
    """One benchmark workload: builds a unit's inputs, then runs the unit.

    ``names`` are the workload's names for its primary and secondary
    operation; ``first`` collects per-layer values read off unit 0.
    """

    names: tuple[str, str]
    n: int
    m0: int

    def __init__(self, lib: Any, seed: int, pins: dict[str, Any], workdir: Path) -> None:
        self.lib, self.seed, self.pins, self.workdir = lib, seed, pins, workdir
        self.first: dict[str, float] = {}

    def inputs(self, unit: int) -> Any:
        raise NotImplementedError

    def unit(self, unit: int, inputs: Any, run: Run) -> None:
        raise NotImplementedError

    def report(self) -> dict[str, tuple[float, str]]:
        """Extra ``#`` lines: name -> (value, unit)."""
        return {}


class Thin(Workload):
    """Both extractors on n=16, m=8n instances, one instance per unit."""

    names = ("minimal_s", "two_phase_s")
    n, m0 = 16, 128

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.chosen: dict[int, int] = {}
        self.edges_per_n: dict[str, list[float]] = {"minimal": [], "two_phase": []}

    def inputs(self, unit: int) -> tuple[str, Any, list[str]]:
        """The next instance seed whose m0 sampled arcs are already 3-vsb.

        At m0=8n growth adds arcs for some seeds (0 to 72 at n=30), and
        an extraction's cost grows with its edge count; keeping m = 8n
        exactly keeps the run-to-run spread of the timings small.
        """
        lib = self.lib
        seed = self.chosen[unit - 1] + 1 if unit else instance_seed(self.seed, 0)
        while not lib.is_k_vsb(lib.random_digraph(lib.InstanceSpec(self.n, self.m0, seed)), 3):
            seed += 1
        self.chosen[unit] = seed
        g = lib.generate(lib.InstanceSpec(self.n, self.m0, seed)).graph
        key = pin_key(self.n, self.m0, seed)
        return key, g, pin_problems(self.pins["instances"], key, lib.serialize_edge_list(g))

    def unit(self, unit: int, inputs: Any, run: Run) -> None:
        from vsbgraph import extraction

        key, g, problems = inputs
        recorded = self.pins["outputs"].get(key, {})
        for kind, label, fn, args in (
            ("primary", "minimal", extraction.minimal_k_vsb, (g, 3)),
            ("secondary", "two_phase", extraction.two_phase_3vsb, (g,)),
        ):
            result = run.op(kind, fn, *args)
            if result is None:
                continue
            run.verify(problems + checks.extraction(
                g, result, self.lib.is_k_vsb, two_phase=label == "two_phase"
            ))
            problems = []
            sub = result.subgraph
            self.edges_per_n[label].append(sub.m / g.n)
            out_digest = checks.digest(self.lib.serialize_edge_list(sub))
            match = {None: "none", out_digest: "match"}.get(recorded.get(label), "differs")
            print(f"# output {key} {label} sha256={out_digest} recorded={match}")
            if unit == 0:
                self.first[f"extraction.{label}.edges_per_n"] = sub.m / g.n
                if label == "minimal":
                    self.first["extraction.minimal.drop_frac"] = len(result.removed) / g.m
                else:
                    self.first["extraction.backbone.edges"] = len(result.protected)

    def report(self) -> dict[str, tuple[float, str]]:
        return {
            f"{label}_edges_per_n": (statistics.mean(values), "edges/n")
            for label, values in self.edges_per_n.items() if values
        }


class Grow(Workload):
    """Instance generation with growth: n=12, m0=4n, one instance per unit."""

    names = ("gen_s", "random_digraph_s")
    n, m0 = 12, 48

    def inputs(self, unit: int) -> Any:
        return self.lib.InstanceSpec(self.n, self.m0, instance_seed(self.seed, unit))

    def unit(self, unit: int, spec: Any, run: Run) -> None:
        from vsbgraph import generator

        instance = run.op("primary", generator.generate, spec)
        if instance is not None:
            g = instance.graph
            problems = pin_problems(
                self.pins["instances"], pin_key(self.n, self.m0, spec.seed),
                self.lib.serialize_edge_list(g),
            )
            if instance.spec != spec or g.m != spec.initial_edges + instance.edges_added_in_growth:
                problems.append("instance spec or edge count is inconsistent")
            if not self.lib.is_k_vsb(g, 3).verdict:
                problems.append("generated instance is not 3-vsb")
            run.verify(problems)
            if unit == 0:
                self.first["generator.grow.arcs_added"] = instance.edges_added_in_growth
        sample = run.op("secondary", generator.random_digraph, spec)
        if sample is not None:
            problems = []
            if (sample.n, sample.m) != (spec.n, spec.initial_edges):
                problems.append("random_digraph has the wrong size")
            elif instance is not None and instance.graph.edges()[: sample.m] != sample.edges():
                problems.append("generated instance does not start with its sample")
            run.verify(problems)


class Check(Workload):
    """``vsbgraph check --k 3`` on an n=50, m0=16n instance and a near-miss."""

    names = ("check_pass_s", "check_fail_s")
    n, m0 = 50, 800
    fail_pair = (n // 4, n // 4 + 1)

    def inputs(self, unit: int) -> Any:
        """One instance for the whole run; units reuse it."""
        if unit:
            return self.built
        lib = self.lib
        seed = instance_seed(self.seed, 0)
        g = lib.generate(lib.InstanceSpec(self.n, self.m0, seed)).graph
        # Trim a seeded vertex v to its two highest-numbered in-neighbours
        # a and b, then renumber so that a and b become fail_pair.  Deleting
        # both cuts v off, so is_k_vsb fails at that pair; the fixed pair
        # puts the failure at the same point of the lexicographic
        # enumeration (about 45% of a true verdict's checks) for every
        # seed, where the original ids would move it by several percent.
        v = random.Random(seed).randrange(self.n)
        a, b = sorted(g.in_neighbors(v))[-2:]
        new_id = list(range(self.n))
        for old, target in zip((a, b), self.fail_pair):
            holder = new_id.index(target)
            new_id[old], new_id[holder] = target, new_id[old]
        near = lib.Digraph(g.n, [
            (new_id[x], new_id[y]) for x, y in g.edges() if y != v or x in (a, b)
        ])
        key = pin_key(self.n, self.m0, seed)
        paths = []
        problems = []
        for suffix, graph in (("", g), (",near-miss", near)):
            text = lib.serialize_edge_list(graph)
            problems += pin_problems(self.pins["instances"], key + suffix, text)
            path = self.workdir / f"check{suffix.replace(',', '-')}.txt"
            path.write_text(text, encoding="ascii")
            paths.append(str(path))
        self.built = (paths, near.edges(), problems)
        return self.built

    def unit(self, unit: int, inputs: Any, run: Run) -> None:
        from vsbgraph import cli

        (good, bad), near_edges, problems = inputs

        def check(path: str) -> tuple[int, str]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(["check", "--k", "3", "--in", path])
            return code, out.getvalue()

        result = run.op("primary", check, good)
        if result is not None:
            run.verify((problems if unit == 0 else []) + checks.check_pass(*result))
        result = run.op("secondary", check, bad)
        if result is not None:
            run.verify(checks.check_fail(*result, self.n, near_edges))


WORKLOADS = {"thin": Thin, "grow": Grow, "check": Check}


def git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_rev": git_rev(),
        "process_time_resolution_s": time.get_clock_info("process_time").resolution,
        "machine": platform.machine(),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool
) -> tuple[Run, dict[str, Any], Workload, tracing.Tracer | None, int]:
    """Set up ``SETUP_ROUNDS`` times, then run units until ``seconds`` pass."""
    lib = import_vsbgraph()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = WORKLOADS[name](lib, seed, load_pins(), Path(tmp))
        setup = []
        ref = calibration.sample()
        for _ in range(SETUP_ROUNDS):
            probe = import_probe_s()
            inputs, build = cpu_call(workload.inputs, 0)
            after = calibration.sample()
            setup.append(calibrated(probe + build, ref, after))
            ref = after
        run = Run(ref)
        tracer = tracing.Tracer() if trace else None
        deadline = time.monotonic() + seconds
        units = 0
        with tracer or contextlib.nullcontext():
            if tracer is not None:
                tracing.install(tracer)
            while units == 0 or time.monotonic() < deadline:
                if units:
                    if tracer is not None:
                        tracer.unit = -1  # input building belongs to no unit
                    try:
                        inputs = workload.inputs(units)
                    except Exception:
                        run.attempted += 1
                        run.crashed()
                        break
                if tracer is not None:
                    tracer.unit = units
                workload.unit(units, inputs, run)
                units += 1
        run.calibrate()
    extra = {"setup_s": statistics.median(setup), "setup_rounds": setup}
    return run, extra, workload, tracer, units


PER_LAYER_FIRST_UNIT = (
    "extraction.minimal.drop_frac",
    "extraction.minimal.edges_per_n",
    "extraction.two_phase.edges_per_n",
    "extraction.backbone.edges",
    "generator.grow.arcs_added",
)


def _unit_of(key: str) -> str:
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac"):
        return "frac"
    if key.endswith("edges_per_n"):
        return "edges/n"
    return "count"


PER_LAYER_UNITS = {
    key: _unit_of(key)
    for key in (
        *PER_LAYER_FIRST_UNIT,
        "digraph.remove_restore.calls", "digraph.remove_restore.self_ms",
        "digraph.parse.self_ms", "connectivity.is_k_vsb.calls",
        "connectivity.is_k_vsb.self_ms", "connectivity.is_k_vsb.pass_frac",
        "connectivity.is_k_vsb.pass_ms", "connectivity.is_k_vsb.fail_ms",
        "extraction.minimal.tests", "extraction.minimal.self_ms",
        "extraction.two_phase.tests", "extraction.two_phase.self_ms",
        "extraction.backbone.tests", "extraction.backbone.self_ms",
        "generator.random_digraph.self_ms", "generator.grow.self_ms",
        "generator.grow.tests", "cli.check.self_ms", "trace.overhead_frac",
        "trace.primary_s", "trace.secondary_s",
    )
}


def medians_of(samples: dict[str, list[float]]) -> dict[str, float]:
    return {
        kind: statistics.median(values) if values else 0.0
        for kind, values in samples.items()
    }


def layer_values(
    workload: Workload, tracer: tracing.Tracer, units: int, medians: dict[str, float]
) -> dict[str, float]:
    """Every per-layer metric of a traced run; 0 for a layer it never ran."""
    layers = tracing.layer_metrics(tracer.spans, units, tracing.span_cost_ns())
    layers.update({key: 0 for key in PER_LAYER_FIRST_UNIT})
    layers.update(workload.first)
    layers["trace.primary_s"] = medians["primary"]
    layers["trace.secondary_s"] = medians["secondary"]
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    run, extra, workload, tracer, units = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} units {units}")
    raw = medians_of(run.samples)
    medians = medians_of(run.scaled)
    print(f"# reference sample = {statistics.median(run.refs):.6f} s median of "
          f"{len(run.refs)} (calibrated times assume {calibration.NOMINAL_S} s)")
    for kind, label in zip(("primary", "secondary"), workload.names):
        count = len(run.samples[kind])
        print(f"# {label} = {kind}_s = {medians[kind]:.6f} s calibrated, "
              f"{raw[kind]:.6f} s measured (median of {count})")
    for label, (value, unit) in workload.report().items():
        print(f"# {label} = {value:.6f} {unit}")
    print(f"# failed_frac = {run.failed / run.attempted:.6f} ({run.failed} of {run.attempted})")
    print(f"# setup_s = {extra['setup_s']:.6f} s calibrated (median of {extra['setup_rounds']})")
    print(f"# peak_rss_mb = {peak_rss_mb:.3f} MB")

    if tracer is None:
        metrics = {
            "setup_s": (extra["setup_s"], "s"),
            "primary_s": (medians["primary"], "s"),
            "secondary_s": (medians["secondary"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        layers = layer_values(workload, tracer, units, medians)
        metrics = {key: (value, PER_LAYER_UNITS[key]) for key, value in layers.items()}
        spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        with spans_file.open("w") as handle:
            for record in tracing.span_records(tracer.spans):
                handle.write(json.dumps(record) + "\n")
        print(f"# spans {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
