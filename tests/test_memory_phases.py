"""``tools/memory_phases.py`` on a small stable and a small unstable ``analyze-mix``
item and on the ``traj-many`` item with the largest peak."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "memory_phases.py"
PHASES = [
    "staircase", "DARE", "res1", "Gramian", "rank", "V2", "res2", "V1", "bootstrap", "Newton",
    "boundary", "propagation", "outputs", "cost",
]


def test_memory_phases_reports_every_phase():
    res = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT / "src"), "stable-n20-0", "unstable-n4-0"],
        capture_output=True, text=True, check=False,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    rows = {}
    for line in res.stdout.splitlines():
        fields = line.split()
        if fields and fields[0] in PHASES:
            rows[fields[0]] = [float(v) for v in fields[1:4]]
    assert list(rows) == PHASES
    for held, peak, after in rows.values():
        assert peak >= max(held, after)
    peaks = [line.split()[0] for line in res.stdout.splitlines() if line.endswith("<- peak")]
    assert len(peaks) == 3 and peaks[-1] == "outputs", peaks
    # the returned V1 is assembled last, while the solver's own P is held;
    # analyze then rebinds P to a view of V1, so by the return that n x n
    # array is gone (less the bundle's small objects, about 0.1 n x n here)
    assert rows["V1"][1] - rows["V1"][2] > 0.5
    # the trajectory phases follow one another: each starts where the one
    # before ended, and x, p and u, about 2.2 (k_f + 1) x n arrays, outlive
    # the outputs phase, whose peak (three such arrays) is the solve's
    traj = ["boundary", "propagation", "outputs", "cost"]
    for before, after in zip(traj, traj[1:]):
        assert rows[before][2] == rows[after][0]
    assert 2.0 < rows["outputs"][2] < 2.5
    assert 2.9 < rows["outputs"][1] < 3.5
    assert "solve_nonrecursive singular-dd-n20/" in res.stdout
