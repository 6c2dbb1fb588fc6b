"""The package runs on numpy alone: SciPy is a test dependency only.

A fresh interpreter marks ``scipy`` unimportable before importing
``hamlq``, runs the golden check, the CLI's golden report, an analysis that
takes the staircase's rotated-basis path and both kinds of trajectory
solve, and then finds no SciPy module loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import hamlq

TESTS = Path(__file__).resolve().parent
SRC = Path(hamlq.__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError

import numpy as np
from conftest import staircase_embedded
from hamlq import TrajectoryProblem, analyze, cli, golden_check, solve_nonrecursive, staircase

assert golden_check().passed
assert cli.main(["golden", "--report"]) == 0

sysq = staircase_embedded(np.random.default_rng(5), 3, 2, rotate=True)
bundle = analyze(sysq)
assert bundle.report.n_c == 3
assert not np.array_equal(staircase(sysq).T, np.eye(sysq.n))

x0 = np.ones(sysq.n)
xf = np.linalg.matrix_power(sysq.A, 6) @ x0  # reached with zero input
for end in (None, xf):
    prob = TrajectoryProblem(sys=sysq, x0=x0, k_f=6, xf=end)
    solve_nonrecursive(prob, bundle.riccati, bundle.gramian)

loaded = [name for name, mod in sys.modules.items() if name.split(".")[0] == "scipy" and mod]
assert loaded == [], loaded
"""


def test_runs_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "rank_v2 = 3 vs n = 4" in proc.stdout
