"""Rewrite ``perfbench/pins.json`` from the code at hand.

    python3 perfbench/pins.py

For the default seed the file pins:

* ``instances``: SHA-256 digests of ``serialize_edge_list`` for the
  instances a run starts with.  ``run.py`` counts a mismatch as a failed
  operation, because ``(n, m0, seed)`` pins a generated instance exactly.
* ``outputs``: digests of both extractors' outputs on the first ``thin``
  instances.  ``run.py`` prints whether they match; it never fails on
  them, so byte-identity across commits can be read off a run.
* ``counters``: the deterministic per-layer numbers of a traced first
  unit of each workload (``test_pins.py`` checks them).

Run it only when a change is meant to alter one of these.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Any

import run

DEFAULT_SEED = 1
PINNED_UNITS = {"thin": 4, "grow": 200}
OUTPUT_UNITS = 2


def instance_pins(seed: int) -> dict[str, str]:
    lib = run.import_vsbgraph()
    pins: dict[str, str] = {}
    thin = run.Thin(lib, seed, {"instances": {}}, Path("."))
    for unit in range(PINNED_UNITS["thin"]):
        key, g, _ = thin.inputs(unit)
        pins[key] = run.checks.digest(lib.serialize_edge_list(g))
    grow = run.Grow
    for unit in range(PINNED_UNITS["grow"]):
        spec = lib.InstanceSpec(grow.n, grow.m0, run.instance_seed(seed, unit))
        text = lib.serialize_edge_list(lib.generate(spec).graph)
        pins[run.pin_key(grow.n, grow.m0, spec.seed)] = run.checks.digest(text)
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        check = run.Check(lib, seed, {"instances": {}}, Path(tmp))
        check.inputs(0)
        key = run.pin_key(check.n, check.m0, run.instance_seed(seed, 0))
        for suffix, name in (("", "check.txt"), (",near-miss", "check-near-miss.txt")):
            pins[key + suffix] = run.checks.digest((Path(tmp) / name).read_text())
    return pins


def output_pins(seed: int) -> dict[str, dict[str, str]]:
    lib = run.import_vsbgraph()
    thin = run.Thin(lib, seed, {"instances": {}}, Path("."))
    pins = {}
    for unit in range(OUTPUT_UNITS):
        key, g, _ = thin.inputs(unit)
        pins[key] = {
            label: run.checks.digest(lib.serialize_edge_list(result.subgraph))
            for label, result in (
                ("minimal", lib.minimal_k_vsb(g, 3)),
                ("two_phase", lib.two_phase_3vsb(g)),
            )
        }
    return pins


def counters(name: str, seed: int) -> dict[str, Any]:
    """Deterministic per-layer numbers of one traced unit of a workload."""
    result, _, workload, tracer, units = run.run_workload(name, seed, 0, True)
    if result.failed:
        raise RuntimeError(f"{name}: {result.failed} operations failed")
    layers = run.layer_values(workload, tracer, units, run.medians_of(result.scaled))
    return {
        key: value
        for key, value in sorted(layers.items())
        if run.PER_LAYER_UNITS[key] in ("count", "edges/n")
        or (key.endswith("frac") and not key.startswith("trace."))
    }


def main() -> None:
    path = run.HERE / "pins.json"
    pins = {
        "seed": DEFAULT_SEED,
        "instances": instance_pins(DEFAULT_SEED),
        "outputs": output_pins(DEFAULT_SEED),
        "counters": {},
    }
    # The counter runs check instances against the file, so write the
    # new instance digests first.
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    pins["counters"] = {
        name: counters(name, DEFAULT_SEED) for name in sorted(run.WORKLOADS)
    }
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
