"""Tests of the benchmark itself (not of hamlq).

    python3 -m pytest perfbench

They live outside ``tests/`` so the package's own suite, and its runtime
limit, do not include them.
"""

import contextlib
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import systems  # noqa: E402
import workloads  # noqa: E402
from hamlq import analyze, closed_loop_gramian, solve_dare, solve_nonrecursive  # noqa: E402
from hamlq.errors import HamlqError  # noqa: E402
from hamlq.lqtraj import TrajectoryProblem  # noqa: E402
from tracing import SITES, Tracer  # noqa: E402


def _arrays(items):
    out = []
    for it in items:
        out += [it.id, it.sys.A, it.sys.B, it.sys.C, it.sys.D]
        if it.prob is not None:
            out += [it.prob.x0, it.prob.k_f, it.prob.xf]
    return out


def _same(a, b):
    return len(a) == len(b) and all(
        (x is None and y is None) or (x is not None and y is not None and np.array_equal(x, y))
        for x, y in zip(a, b)
    )


@pytest.mark.parametrize("workload", [*workloads.WORKLOADS, "cli"])
def test_generators_are_deterministic_in_the_seed(workload, tmp_path):
    def build(seed):
        if workload == "cli":
            return workloads.cli_items(seed, tmp_path)
        return workloads.build(workload, seed)

    first = _arrays(build(7))
    again = _arrays(build(7))
    other = _arrays(build(8))
    assert _same(first, again)
    assert not _same(first, other)


def test_zero_row_generator_keeps_its_promised_structure():
    rng = np.random.default_rng(3)
    sysq, expect = systems.zero_row_embedded(rng, 3, 4, rotate=False)
    A_u = sysq.A[3:, 3:]
    assert np.all(A_u[expect.zero_rows[0] - 1] == 0.0)
    assert checks.spectral_radius(A_u) < 1.0
    assert np.all(sysq.B[3:] == 0.0)


def _golden_analysis():
    sysq, expect = systems.golden()
    bundle = analyze(sysq)
    rep = bundle.report
    args = (rep.n_c, rep.zero_rows_Au, rep.rank_v2, rep.rank_vbar2)
    return sysq, expect, bundle, args


def test_analysis_check_accepts_golden_and_rejects_a_perturbed_P():
    sysq, expect, bundle, args = _golden_analysis()
    P, K = bundle.riccati.P, bundle.riccati.K
    P_ref = checks.dare_reference(sysq)
    assert checks.analysis_failures(sysq, expect, P, K, *args, P_ref) == []

    bumped = P.copy()
    bumped[0, 0] *= 1.0 + 1e-6
    failed = checks.analysis_failures(sysq, expect, bumped, K, *args, P_ref)
    assert any(f.startswith("dare_residual") for f in failed)
    assert any(f.startswith("scipy_dare") for f in failed)


def test_analysis_check_rejects_wrong_structure_and_unstable_gain():
    sysq, expect, bundle, (n_c, zero_rows, rank_v2, rank_vbar2) = _golden_analysis()
    P, K = bundle.riccati.P, bundle.riccati.K
    failed = checks.analysis_failures(sysq, expect, P, K, n_c + 1, [1], rank_v2 + 1, rank_vbar2 - 1, None)
    assert [f.split(":")[0] for f in failed] == ["n_c", "zero_rows_Au", "rank_vbar2", "rank_v2"]
    failed = checks.riccati_failures(sysq, P, np.zeros_like(K) + 10.0, None)
    assert any(f.startswith("spectral_radius") for f in failed)


@pytest.mark.parametrize("xf", [None, "fixed"])
def test_trajectory_check_rejects_one_altered_step(xf):
    sysq, _ = systems.golden()
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(4)
    k_f = 30
    xf = systems.simulate_endpoint(rng, sysq, x0, k_f) if xf else None
    ric = solve_dare(sysq)
    traj = solve_nonrecursive(TrajectoryProblem(sysq, x0, k_f, xf), ric, closed_loop_gramian(sysq, ric))
    assert checks.trajectory_failures(sysq, x0, xf, traj.x, traj.p, traj.u, traj.J) == []

    for name, expected in (("x", "dynamics"), ("p", "costate"), ("u", "stationarity")):
        arr = getattr(traj, name).copy()
        arr[k_f // 2, 0] += 1e-4
        seq = {"x": traj.x, "p": traj.p, "u": traj.u, name: arr}
        failed = checks.trajectory_failures(sysq, x0, xf, seq["x"], seq["p"], seq["u"], traj.J)
        assert any(f.startswith(expected) for f in failed), (name, failed)
    failed = checks.trajectory_failures(sysq, x0, xf, traj.x, traj.p, traj.u, traj.J * (1 + 1e-6))
    assert [f.split(":")[0] for f in failed] == ["cost"]


def test_cli_check_rejects_an_altered_csv_entry(tmp_path):
    item = next(it for it in workloads.cli_items(1, tmp_path) if it.id == "trajectory-csv")
    out = workloads.cli_inprocess(item.argv)
    assert workloads.check(item, out, None) == []
    lines = out.stdout.splitlines()
    cells = lines[10].split(",")
    cells[1] = repr(float(cells[1]) + 1e-3)
    lines[10] = ",".join(cells)
    bad = workloads.CliOutput(0, "\n".join(lines) + "\n")
    assert any(f.startswith("dynamics") for f in workloads.check(item, bad, None))


def test_attribution_of_known_defects():
    expect = systems.Expect(n_c=100)
    assert checks.attribute("NotStabilizable", ["raised NotStabilizable"], expect, None, True) == "dare-bootstrap"
    assert checks.attribute("NotStabilizable", ["raised NotStabilizable"], expect, None, False) == "unexplained"
    assert checks.attribute("BoundaryInconsistent", ["raised BoundaryInconsistent"]) == "boundary-solve"
    assert checks.attribute(None, ["boundary_end: 3e-07"]) == "boundary-solve"
    assert checks.attribute(None, ["boundary_x0: 1e-08"]) == "boundary-solve"
    assert checks.attribute(None, ["stationarity: 2e-08", "boundary_end: 3e-07"]) == "boundary-solve"
    assert checks.attribute(None, ["stationarity: 2e-08"]) == "unexplained"
    assert checks.attribute(None, ["n_c: 92 != 100"], expect, 92) == "krylov-staircase"
    assert checks.attribute(None, ["n_c: 101 != 100"], expect, 101) == "unexplained"
    assert checks.attribute(None, ["n_c: 92 != 100", "dare_residual: 1e-3"], expect, 92) == "unexplained"


def _namespaces():
    mods = {name for name, *_ in SITES}
    return {m: dict(vars(importlib.import_module(m))) for m in mods}


def test_traced_run_leaves_module_namespaces_unchanged(tmp_path):
    before = _namespaces()
    items = workloads.analyze_items(1)[:2] + workloads.traj_items(1)[:3]
    items += workloads.cli_items(1, tmp_path)[:1]
    solved = workloads.solve_systems({it.sys_key: it.sys for it in items if it.kind == "traj"})
    tracer = Tracer()
    tracer.install()
    try:
        for op, item in enumerate(items):
            tracer.op = op
            with tracer.span("op"), contextlib.suppress(HamlqError):
                workloads.execute(item, solved)
    finally:
        tracer.restore()
    after = _namespaces()
    for mod, names in before.items():
        assert after[mod].keys() == names.keys()
        assert all(after[mod][k] is v for k, v in names.items()), mod

    m = tracer.layer_metrics(len(items))
    assert m["hamsubspace.analyze.calls"] > 0
    assert m["riccati.newton.lyap_solves"] > 0
    assert m["lqtraj.solve_nonrecursive.calls"] == 3 / len(items)
    assert m["golden.golden_check.calls"] == 1 / len(items)
    # every span of the op-level root covers its children
    for sid, name, start, end, parent, op in tracer.spans:
        if parent is not None:
            p = tracer.spans[parent]
            assert p[2] <= start <= end <= p[3] and p[5] == op


def test_install_twice_is_refused_and_restore_is_complete():
    before = _namespaces()
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    after = _namespaces()
    assert all(after[m][k] is v for m, names in before.items() for k, v in names.items())


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        [0, "riccati.solve_dare", 0.0, 1.0, None, 0],
        [1, "matcore.solve_linear", 0.1, 0.3, 0, 0],
        [2, "stablyap.solve_dlyap_stable", 0.4, 0.9, 0, 0],
        [3, "stablyap.solve_dlyap_stable", 0.5, 0.6, 2, 0],
    ]
    m = tracer.layer_metrics(ops=1)
    assert m["riccati.solve_dare.self_ms"] == pytest.approx(300.0)
    assert m["stablyap.solve_dlyap_stable.calls"] == 2
    # the nested call of the same group is not counted twice
    assert m["stablyap.solve_dlyap_stable.ms"] == pytest.approx(500.0)
    assert m["stablyap.solve_dlyap_stable.self_ms"] == pytest.approx(500.0)
