"""The benchmark still runs against the package.

``perfbench/run.py`` calls the package through its public names, and its
tracer (``perfbench/tracing.py``) replaces some of them by name:
``Digraph.remove_edge`` and ``restore_edge``, and ``is_k_vsb`` in the
namespaces of ``extraction``, ``generator`` and ``cli``.  A change that
drops or renames one of them breaks the benchmark without failing any
other test.  Each workload runs here for one unit, untraced and traced,
in a child process; a traced run writes its spans under ``.perfbench/``.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["thin", "grow", "check"])
def test_one_unit_runs_and_checks_out(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stderr
    # thin pins each output's digest; a changed output reads "differs"
    recorded = [line.rsplit("recorded=", 1)[1] for line in lines if "recorded=" in line]
    assert "differs" not in recorded
    assert recorded or workload != "thin"
