"""Cold start: scipy stays unloaded until a command needs it.

Importing scipy.special costs more than the rest of the package, so only
the KS p-value of limit-dist may load scipy, and only on first use.  Each
check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import hermite_ou.cli
from hermite_ou.cli import main

seen = {"import": scipy_modules()}
runs = {
    "simulate-partial-sum": ["simulate", "--process", "hermite", "--q", "2", "--n", "16",
                             "--m", "4", "--out", "z.csv"],
    "simulate-fbm-ou": ["simulate", "--process", "ou", "--q", "1", "--n", "16", "--out", "x.csv"],
    "estimate": ["estimate", "--input", "x.csv", "--x0", "1"],
}
for kind in ("maximal", "consistency", "covariance-audit"):
    with open(kind + ".cfg", "w") as fh:
        fh.write(f"kind = {kind}\\nq = 2\\nn = 16\\nm = 4\\nT = 1,2\\nreplications = 2\\n")
    runs[kind] = ["experiment", "--config", kind + ".cfg", "--out-dir", "out"]
codes = {}
for name, argv in runs.items():
    codes[name] = main(argv)
    seen[name] = scipy_modules()

from hermite_ou.harness import ks_two_sample

ks_two_sample([0.0, 1.0, 2.0], [0.5, 1.5])
seen["ks_two_sample"] = scipy_modules()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_commands_without_scipy_calls_leave_scipy_special_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), HERMITE_OU_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=False, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["codes"].values()) == {0}, result["codes"]
    seen = result.pop("seen")
    loaded_by_ks = seen.pop("ks_two_sample")
    assert seen == dict.fromkeys(seen, []), seen
    assert "scipy.special" in loaded_by_ks
