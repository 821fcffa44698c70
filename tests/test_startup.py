"""What a fresh process loads: importing the package, or running a CLI
command that draws no random numbers, loads neither numpy nor the
process pool.  One subprocess runs every step, since the test process
itself has both loaded already."""
import json
import os
import subprocess
import sys
from pathlib import Path

from vsbgraph import serialize_edge_list

from graphutil import complete_bidirected

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("numpy", "concurrent.futures.process")

# after each step, prints which HEAVY modules are loaded and the exit code
PROBE = """
import json, sys
heavy, src, out = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
steps = {}
def note(step, code=None):
    steps[step] = {"loaded": [m for m in heavy if m in sys.modules], "code": code}
import vsbgraph
note("import vsbgraph")
import vsbgraph.cli
note("import vsbgraph.cli")
note("check", vsbgraph.cli.main(["check", "--k", "3", "--in", src]))
note("gen", vsbgraph.cli.main(["gen", "--n", "10", "--seed", "1", "--out", out]))
print(json.dumps(steps))
"""


def test_only_random_draws_load_numpy(tmp_path):
    src = tmp_path / "k5.txt"
    src.write_text(serialize_edge_list(complete_bidirected(5)), encoding="ascii")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(HEAVY), str(src),
         str(tmp_path / "gen.txt")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout.splitlines()[-1])
    assert steps == {
        "import vsbgraph": {"loaded": [], "code": None},
        "import vsbgraph.cli": {"loaded": [], "code": None},
        "check": {"loaded": [], "code": 0},
        "gen": {"loaded": ["numpy"], "code": 0},
    }
