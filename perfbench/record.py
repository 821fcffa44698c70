"""Run the benchmark over several seeds and record the results.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/record.py --workloads thin --seeds 11-15

Each (workload, seed) runs ``run.py`` once with tracing off, in a child
process, for ``run_seconds`` from ``BENCHMARK.json``; the first seed of
each workload also runs once with tracing on.  For every end-to-end
metric the summary gives the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (interquartile
distance over the median) next to the metric's bound.  The tracing
overhead is the traced run's operation medians over the untraced run's
on the same seed, minus one.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(l[6:]) for l in lines if l.startswith("# env "))
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "wall_s": wall, "env": env, "result": json.loads(lines[-1]),
    }


def summarize(values: list[float]) -> dict[str, Any]:
    median = statistics.median(values)
    summary: dict[str, Any] = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
    return summary


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    report: dict[str, Any] = {}
    for workload in args.workloads.split(","):
        plain = []
        for seed in args.seeds:
            plain.append(run_once(workload, seed, args.seconds, 0))
            result = plain[-1]["result"]
            print(f"{workload} seed {seed} wall {plain[-1]['wall_s']:.1f} s "
                  f"failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        traced = run_once(workload, args.seeds[0], args.seconds, 1)
        runs += plain + [traced]
        first = plain[0]["result"]["metrics"]
        layers = traced["result"]["metrics"]
        metrics = {}
        for name in bounds:
            summary = summarize([r["result"]["metrics"][name]["value"] for r in plain])
            summary["bound"] = bounds[name]
            metrics[name] = summary
            print(f"  {name}: median {summary['median']:.6g} "
                  f"spread {summary.get('spread', 0):.4f} (bound {bounds[name]})")
        report[workload] = {
            "end_to_end": metrics,
            "failed": sum(r["result"]["failed"] for r in plain),
            "attempted": sum(r["result"]["attempted"] for r in plain),
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in layers.items()},
            "tracing_overhead": {
                kind: layers[f"trace.{kind}_s"]["value"] / first[f"{kind}_s"]["value"] - 1
                for kind in ("primary", "secondary")
            },
        }
        print(f"  tracing overhead {report[workload]['tracing_overhead']}", flush=True)
    record = {
        "env": runs[0]["env"],
        "run_seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": report,
        "runs": runs,
    }
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
