"""``tools/bitwise_outputs.py compare`` and ``compare --oracle`` on small hand-written captures."""

import importlib.util
import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hamlq import SystemQuadruple, solve_dare
from hamlq.errors import HamlqError
from oracle import sqrt_riccati_cost

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bitwise_outputs.py"
SHOWN = 5  # the tool's differing records printed per field name


@pytest.fixture(scope="module")
def free_record(request):
    """Key, solved record and ``J*`` of the shortest free-end ``traj-many`` item of seed 1."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    request.addfinalizer(lambda: sys.path.remove(str(ROOT / "perfbench")))
    import workloads

    items = [it for it in workloads.build("traj-many", 1) if it.prob.free_terminal]
    item = min(items, key=lambda it: it.prob.k_f)
    t = workloads.execute(item, workloads.solve_systems({item.sys_key: item.sys}))
    record = {"x": t.x, "p": t.p, "u": t.u, "J": t.J}
    return ("traj", 1, item.id), record, sqrt_riccati_cost(item.prob)


@pytest.fixture(scope="module")
def dare_record():
    """Key and record of the first seed-7 Riccati sweep system that ``solve_dare`` solves."""
    spec = importlib.util.spec_from_file_location("bitwise_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins the BLAS thread count on import
        spec.loader.exec_module(tool)
    for index, system in enumerate(tool.sweep(7)):
        try:
            return ("dare", 7, index), tool._ric_record(solve_dare(SystemQuadruple(*system)))
        except HamlqError:
            continue
    raise AssertionError("no seed-7 sweep system solves")


def oracle_compare(tmp_path, rec_a, rec_b):
    paths = []
    for name, records in (("a.pkl", rec_a), ("b.pkl", rec_b)):
        path = tmp_path / name
        path.write_bytes(pickle.dumps(records))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(TOOL), "compare", "--oracle", *paths],
        capture_output=True, text=True, check=False,
    )


@pytest.mark.parametrize("shift, code", [(1e-10, 0), (1e-6, 1)])
def test_oracle_compare_fails_when_a_free_end_J_leaves_the_band(tmp_path, free_record, shift, code):
    key, rec, j_star = free_record
    assert abs(rec["J"] - j_star) <= 1e-12 * (1.0 + j_star)
    moved = dict(rec, J=rec["J"] + shift * (1.0 + j_star))
    res = oracle_compare(tmp_path, {key: rec}, {key: moved})
    assert res.returncode == code, res.stdout + res.stderr
    flip = f"flip {' '.join(map(str, key))} inside -> outside"
    assert (flip in res.stdout) == bool(code)
    assert ("(left the band)" in res.stdout) == bool(code)


@pytest.mark.parametrize("solved_in, code", [("A", 1), ("B", 0)])
def test_oracle_compare_fails_when_a_riccati_sweep_solve_is_lost(tmp_path, dare_record, solved_in, code):
    key, rec = dare_record
    raised = ("raised", "SingularWeight", "innovation weight D'D + B'PB is singular to working tolerance")
    a, b = (rec, raised) if solved_in == "A" else (raised, rec)
    res = oracle_compare(tmp_path, {key: a}, {key: b})
    assert res.returncode == code, res.stdout + res.stderr
    verdicts = "solved -> SingularWeight" if solved_in == "A" else "SingularWeight -> solved"
    assert f"flip {' '.join(map(str, key))} {verdicts}" in res.stdout
    assert f"dare verdicts in {solved_in}: seed 7: solved 1" in res.stdout


def test_compare_ends_with_one_line_per_field_name(tmp_path, free_record):
    key, rec, _ = free_record
    rec = dict(rec, alpha=np.ones(2), beta=np.zeros(2))
    setup = {"ric.P": np.eye(2), "ric.K": np.ones((1, 2)), "gram.W": np.eye(2)}
    a = {("traj", 1, f"t{i}"): rec for i in range(SHOWN + 3)}
    a.update({("setup", 1, "s"): setup, ("traj", 1, "raised"): ("raised", "BoundaryInconsistent", "m")})
    b = {**a, ("setup", 1, "s"): dict(setup, **{"ric.K": 2 * setup["ric.K"]})}
    scale = 1.0 + np.max(np.abs(rec["p"]))
    for i in range(SHOWN + 3):
        b[("traj", 1, f"t{i}")] = dict(rec, p=rec["p"] + (i + 1) * 1e-9 * scale)
    paths = []
    for name, records in (("a.pkl", a), ("b.pkl", b)):
        (tmp_path / name).write_bytes(pickle.dumps(records))
        paths.append(str(tmp_path / name))
    res = subprocess.run(
        [sys.executable, str(TOOL), "compare", *paths], capture_output=True, text=True, check=False,
    )
    assert res.returncode == 1, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    # each field name's first SHOWN differing records are listed, not all
    assert sum(line.startswith("differs") and line.split()[4] == "p" for line in lines) == SHOWN
    assert lines[-1] == (
        f"p: {SHOWN + 3} differ, largest {(SHOWN + 3) * 1e-9:.1e}; ric.K: 1 differ, largest 5.0e-01; "
        "x, u, J, alpha, beta, ric.P, gram.*, raised: 0"
    )
