"""``tools/bitwise_outputs.py compare --oracle`` on two small hand-written captures."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from oracle import sqrt_riccati_cost

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bitwise_outputs.py"


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
