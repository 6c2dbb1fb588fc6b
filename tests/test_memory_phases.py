"""``tools/memory_phases.py`` on a small stable and a small unstable ``analyze-mix`` item."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "memory_phases.py"
PHASES = ["staircase", "DARE", "Gramian", "rank", "V1", "res1", "V2", "res2", "bootstrap", "Newton"]


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
    assert res.stdout.count("<- peak") == 2
    # analyze rebinds P to a view of V1 once V1 exists, so the solver's own
    # P, one n x n array, is gone before the first residual check starts
    assert rows["V1"][2] - rows["res1"][0] > 0.9
