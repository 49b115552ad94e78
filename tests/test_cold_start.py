"""Cold start: no command loads scipy or numpy.ma.

The package needs numpy only; scipy is a test dependency, for the oracles.
numpy.ma costs each cold process milliseconds and half a MiB; np.median and
np.quantile import it, so the limit-dist gap median and 90 % quantile are
sorted-array forms of them, checked here bit for bit against numpy.
Every command, each of the four experiment kinds and the KS p-value run in
one fresh interpreter, which must end with no such module loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_ou.harness import _median, _quantile

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys

def unwanted_modules():
    return sorted(m for m in sys.modules if m in ("scipy", "numpy.ma") or m.startswith(("scipy.", "numpy.ma.")))

import hermite_ou.cli
from hermite_ou.cli import main

seen = {"import": unwanted_modules()}
runs = {
    "simulate-partial-sum": ["simulate", "--process", "hermite", "--q", "2", "--n", "16",
                             "--m", "4", "--out", "z.csv"],
    "simulate-fbm-ou": ["simulate", "--process", "ou", "--q", "1", "--n", "16", "--out", "x.csv"],
    "estimate": ["estimate", "--input", "x.csv", "--x0", "1"],
}
for kind in ("maximal", "consistency", "covariance-audit", "limit-dist"):
    with open(kind + ".cfg", "w") as fh:
        fh.write(f"kind = {kind}\\nq = 2\\nn = 16\\nm = 4\\nT = 1,2\\nreplications = 2\\n"
                 "ks_samples = 2\\n")
    runs[kind] = ["experiment", "--config", kind + ".cfg", "--out-dir", "out"]
codes = {}
for name, argv in runs.items():
    codes[name] = main(argv)
    seen[name] = unwanted_modules()

from hermite_ou.harness import ks_two_sample

ks_two_sample([0.0, 1.0, 2.0], [0.5, 1.5])
seen["ks_two_sample"] = unwanted_modules()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_no_command_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), HERMITE_OU_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=False, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["codes"].values()) == {0}, result["codes"]
    seen = result["seen"]
    assert set(seen) == {"import", *result["codes"], "ks_two_sample"}
    assert seen == dict.fromkeys(seen, []), seen


# ties from a few repeated values; no NaN and no -0.0, as in absolute gaps
_GAPS = st.lists(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.0, 1e300)), min_size=1, max_size=60
)


@settings(max_examples=300, deadline=None)
@given(_GAPS, st.one_of(st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0)))
def test_median_and_quantile_are_numpys_bit_for_bit(values, q):
    gaps = np.array(values)
    assert _median(gaps).hex() == float(np.median(gaps)).hex()
    assert _quantile(gaps, q).hex() == float(np.quantile(gaps, q)).hex()
