
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import full_column_rank_D, random_stabilizable, same_bits, stable_matrix, traced_peak
from hamlq.errors import BoundaryInconsistent
from hamlq.lqtraj import (
    Trajectory,
    TrajectoryProblem,
    _propagate,
    _squares,
    cost,
    solve_nonrecursive,
    stage_costs,
)
from hamlq.matcore import DEFAULT_TOL, EPS, _vec_norm, fro_norm, solve_linear
from hamlq.reachdecomp import SystemQuadruple
from hamlq.riccati import solve_dare
from hamlq.stablyap import closed_loop_gramian
from oracle import Infeasible, kkt_oracle, sqrt_riccati_cost

ROOT = (1.0 + np.sqrt(65.0)) / 8.0


def simple_system():
    return SystemQuadruple(
        A=np.array([[0.5, 0.1], [0.0, 0.3]]),
        B=np.eye(2),
        C=np.vstack([np.eye(2), np.zeros((2, 2))]),
        D=np.vstack([np.zeros((2, 2)), np.eye(2)]),
    )


def solve_all(sys):
    ric = solve_dare(sys)
    return ric, closed_loop_gramian(sys, ric)


def check_dynamics(traj, sys):
    scale = 1e-9 * (1 + np.max(np.abs(traj.x)) + np.max(np.abs(traj.u)))
    pred = traj.x[:-1] @ sys.A.T + traj.u @ sys.B.T
    assert np.max(np.abs(traj.x[1:] - pred)) <= scale


def check_stationarity(traj, sys):
    # adjoint and input equations of the stacked two-point system
    scale = 1e-8 * (1 + np.max(np.abs(traj.x)) + np.max(np.abs(traj.p)) + np.max(np.abs(traj.u)))
    adj = traj.x[:-1] @ (sys.C.T @ sys.C).T + traj.p[1:] @ sys.A + traj.u @ (sys.C.T @ sys.D).T
    assert np.max(np.abs(traj.p[:-1] - adj)) <= scale
    stat = traj.x[:-1] @ (sys.D.T @ sys.C).T + traj.p[1:] @ sys.B + traj.u @ (sys.D.T @ sys.D).T
    assert np.max(np.abs(stat)) <= scale


def test_problem_validation():
    sys = simple_system()
    with pytest.raises(ValueError, match="x0"):
        TrajectoryProblem(sys, np.zeros(3), 5)
    with pytest.raises(ValueError, match="k_f"):
        TrajectoryProblem(sys, np.zeros(2), 0)
    with pytest.raises(ValueError, match="xf"):
        TrajectoryProblem(sys, np.zeros(2), 5, xf=np.zeros(1))
    with pytest.raises(ValueError, match="x0 must be finite"):
        TrajectoryProblem(sys, np.array([np.inf, 0.0]), 5)
    with pytest.raises(ValueError, match="xf must be finite"):
        TrajectoryProblem(sys, np.zeros(2), 5, xf=np.array([0.0, np.nan]))
    with pytest.raises(ValueError, match="x0 has an entry that is not a number"):
        TrajectoryProblem(sys, [{}, 0.0], 5)
    with pytest.raises(ValueError, match="x0 has an entry that is not a number"):
        TrajectoryProblem(sys, [1j, 0.0], 5)
    with pytest.raises(ValueError, match="xf has an entry that is not a number"):
        TrajectoryProblem(sys, np.zeros(2), 5, xf=[0.0, 2 + 1j])
    with pytest.raises(ValueError, match="x0 has an entry that is not a number"):
        TrajectoryProblem(sys, [np.complex128(1 + 2j), 0.0], 5)
    with pytest.raises(ValueError, match="x0 must be real"):
        TrajectoryProblem(sys, np.array([1 + 2j, 0]), 5)
    with pytest.raises(ValueError, match="xf must be real"):
        TrajectoryProblem(sys, np.zeros(2), 5, xf=np.zeros(2, dtype=complex))
    for k_f in (True, float("inf"), float("nan"), None, [3]):
        with pytest.raises(ValueError, match="^k_f must be a positive integer"):
            TrajectoryProblem(sys, np.zeros(2), k_f)
    assert TrajectoryProblem(sys, np.zeros(2), 5).free_terminal
    assert not TrajectoryProblem(sys, np.zeros(2), 5, xf=np.ones(2)).free_terminal


@pytest.mark.parametrize("xf", [None, [0.0]], ids=["free", "fixed"])
def test_solve_rejects_a_solution_of_another_system(golden_sys, xf):
    # golden's ric and gram have 4 states; the check comes before any
    # product, where numpy would otherwise fail on a broadcast deep in the solve
    ric, gram = solve_all(golden_sys)
    one = SystemQuadruple(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
    with pytest.raises(ValueError, match="prob has 1 states, ric 4 and gram 4"):
        solve_nonrecursive(TrajectoryProblem(one, [1.0], 3, xf=xf), ric, gram)


def test_zero_start_free_endpoint_is_zero():
    sys = simple_system()
    ric, gram = solve_all(sys)
    traj = solve_nonrecursive(TrajectoryProblem(sys, np.zeros(2), 7), ric, gram)
    assert traj.J == 0.0
    np.testing.assert_allclose(traj.alpha, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(traj.beta, np.zeros(2), atol=1e-12)
    np.testing.assert_allclose(traj.x, np.zeros((8, 2)), atol=1e-12)
    np.testing.assert_allclose(traj.u, np.zeros((7, 2)), atol=1e-12)


def test_single_step_reach_with_identity_b():
    sys = simple_system()
    ric, gram = solve_all(sys)
    x0 = np.array([1.0, -2.0])
    xf = np.array([0.5, 0.25])
    traj = solve_nonrecursive(TrajectoryProblem(sys, x0, 1, xf=xf), ric, gram)
    u0 = xf - sys.A @ x0
    np.testing.assert_allclose(traj.u[0], u0, atol=1e-9)
    y = sys.C @ x0 + sys.D @ u0
    assert abs(traj.J - float(y @ y)) <= 1e-9 * (1 + abs(traj.J))


def test_trajectory_satisfies_hamiltonian_equations(golden_sys):
    ric, gram = solve_all(golden_sys)
    rng = np.random.default_rng(41)
    for k_f in (1, 2, 5, 13):
        x0 = rng.standard_normal(4)
        traj = solve_nonrecursive(TrajectoryProblem(golden_sys, x0, k_f), ric, gram)
        np.testing.assert_allclose(traj.x[0], x0, atol=1e-10)
        np.testing.assert_allclose(traj.p[-1], np.zeros(4), atol=1e-8 * (1 + np.max(np.abs(traj.p))))
        check_dynamics(traj, golden_sys)
        check_stationarity(traj, golden_sys)


def test_recursion_oracle_single_step():
    sys = SystemQuadruple(
        A=np.array([[0.9]]),
        B=np.array([[1.0]]),
        C=np.array([[2.0], [0.0]]),
        D=np.array([[0.0], [1.0]]),
    )
    traj = kkt_oracle(TrajectoryProblem(sys, np.array([3.0]), 1))
    # one step to go: u0 = -(D'D)^-1 D'C x0 = 0 here, J = |C x0|^2
    np.testing.assert_allclose(traj.u[0], [0.0], atol=1e-12)
    assert abs(traj.J - 36.0) <= 1e-10


def test_recursion_oracle_approaches_stationary_solution():
    sys = SystemQuadruple(
        A=np.array([[0.5]]),
        B=np.array([[1.0]]),
        C=np.array([[1.0], [0.0]]),
        D=np.array([[0.0], [1.0]]),
    )
    x0 = np.array([1.0])
    traj = kkt_oracle(TrajectoryProblem(sys, x0, 60))
    # long horizons converge to the stationary value x0' P x0
    assert abs(traj.J - ROOT) <= 1e-8
    zero = kkt_oracle(TrajectoryProblem(sys, np.zeros(1), 10))
    assert zero.J == 0.0


def test_free_endpoint_matches_recursion_oracle():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 20:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        # strictly tall D keeps the trajectory comparison well conditioned;
        # square D admits exact output zeroing along possibly unstable
        # inverse-plant dynamics and the optimum is then a blowup trajectory
        p = m + 1 + int(rng.integers(0, 2))
        A = stable_matrix(rng, n, radius=float(rng.uniform(0.2, 0.9)))
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        D = full_column_rank_D(rng, p, m)
        sys = SystemQuadruple(A=A, B=B, C=C, D=D)
        try:
            ric, gram = solve_all(sys)
        except Exception:
            continue
        checked += 1
        prob = TrajectoryProblem(sys, rng.standard_normal(n), int(rng.integers(1, 15)))
        ours = solve_nonrecursive(prob, ric, gram)
        ref = kkt_oracle(prob)
        scale = 1e-8 * (1 + np.max(np.abs(ref.x)) + np.max(np.abs(ref.u)))
        assert np.max(np.abs(ours.x - ref.x)) <= scale
        assert np.max(np.abs(ours.u - ref.u)) <= scale
        assert abs(ours.J - ref.J) <= 1e-8 * (1 + abs(ref.J))


def test_free_endpoint_cost_ties_oracle_on_golden(golden_sys):
    # D has a zero column here, so inputs are nonunique but the cost is not
    ric, gram = solve_all(golden_sys)
    rng = np.random.default_rng(43)
    for _ in range(5):
        prob = TrajectoryProblem(golden_sys, rng.standard_normal(4), int(rng.integers(1, 12)))
        ours = solve_nonrecursive(prob, ric, gram)
        ref = kkt_oracle(prob)
        assert abs(ours.J - ref.J) <= 1e-8 * (1 + abs(ref.J))


@pytest.mark.parametrize("k_f", [200, 300])
def test_oracle_stays_below_stationary_cost_at_long_horizons(golden_sys, k_f):
    # The stationary feedback costs at most x0' P x0 over any horizon, so no
    # optimum lies above it. Golden has singular D'D, where a backward
    # Riccati recursion with pseudoinverse stage weights diverges.
    ric, gram = solve_all(golden_sys)
    x0 = np.random.default_rng(49).standard_normal(4)
    prob = TrajectoryProblem(golden_sys, x0, k_f)
    ref = kkt_oracle(prob)
    assert ref.J <= float(x0 @ ric.P @ x0) * (1 + 1e-8)
    ours = solve_nonrecursive(prob, ric, gram)
    assert abs(ours.J - ref.J) <= 1e-8 * (1 + abs(ref.J))
    check_dynamics(ref, golden_sys)
    check_stationarity(ref, golden_sys)


def test_fixed_endpoint_matches_kkt_oracle(golden_sys):
    ric, gram = solve_all(golden_sys)
    rng = np.random.default_rng(44)
    checked = 0
    while checked < 10:
        x0 = rng.standard_normal(4)
        k_f = int(rng.integers(2, 10))
        # drive to a reachable endpoint by simulating a random input sequence
        x = x0.copy()
        for _ in range(k_f):
            x = golden_sys.A @ x + golden_sys.B @ rng.standard_normal(2)
        prob = TrajectoryProblem(golden_sys, x0, k_f, xf=x)
        ours = solve_nonrecursive(prob, ric, gram)
        ref = kkt_oracle(prob)
        checked += 1
        assert abs(ours.J - ref.J) <= 1e-8 * (1 + abs(ref.J))
        assert np.max(np.abs(ours.x[-1] - x)) <= 1e-8 * (1 + np.max(np.abs(x)))
        # the oracle is a true minimizer over input sequences, never above
        # the cost of any feasible competitor by more than rounding
        assert ref.J <= ours.J + 1e-8 * (1 + abs(ours.J))
        check_dynamics(ours, golden_sys)


def test_fixed_endpoint_random_regular_systems():
    rng = np.random.default_rng(45)
    checked = 0
    while checked < 10:
        sys = random_stabilizable(rng, int(rng.integers(1, 5)), 2, 3)
        try:
            ric, gram = solve_all(sys)
        except Exception:
            continue
        x0 = rng.standard_normal(sys.n)
        k_f = int(rng.integers(2, 8))
        x = x0.copy()
        for _ in range(k_f):
            x = sys.A @ x + sys.B @ rng.standard_normal(sys.m)
        prob = TrajectoryProblem(sys, x0, k_f, xf=x)
        # feasible by construction: a raise here fails the test
        ours = solve_nonrecursive(prob, ric, gram)
        ref = kkt_oracle(prob)
        checked += 1
        assert abs(ours.J - ref.J) <= 1e-8 * (1 + abs(ref.J))


def test_fixed_endpoint_reduced_solve_matches_full_boundary_lstsq():
    # With k_f >= n steps and m >= 2 inputs the seeded plants are reachable,
    # the fixed-end S = W - phi W phi' is nonsingular, and eliminating alpha
    # through the identity block gives the full system's unique solution.
    rng = np.random.default_rng(50)
    for _ in range(40):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        sys = random_stabilizable(rng, n, m, m + int(rng.integers(0, 2)))
        ric, gram = solve_all(sys)
        k_f = int(rng.integers(n, n + 5))
        x0, xf = rng.standard_normal(n), rng.standard_normal(n)
        ours = solve_nonrecursive(TrajectoryProblem(sys, x0, k_f, xf=xf), ric, gram)
        phi = np.linalg.matrix_power(gram.A_K, k_f)
        M = np.block([[np.eye(n), gram.W @ phi.T], [phi, gram.W]])
        z = np.linalg.lstsq(M, np.concatenate([x0, xf]), rcond=None)[0]
        got = np.concatenate([ours.alpha, ours.beta])
        assert np.max(np.abs(got - z)) <= 1e-10 * np.max(np.abs(z)), (n, m, k_f)


def assembled_boundary_solve(prob, ric, gram, cfg=DEFAULT_TOL):
    """``(alpha, beta)`` from the assembled ``2n x 2n`` boundary system ``M z = rhs``:
    ``S`` and ``r`` sliced from ``M`` and ``rhs``, and consistency judged on
    ``|M z - rhs|``. Raises ``BoundaryInconsistent`` where that test fails."""
    n, P, W = prob.sys.n, ric.P, gram.W
    phi = np.linalg.matrix_power(gram.A_K, prob.k_f)
    PW_I = P @ W
    PW_I.reshape(-1)[:: n + 1] -= 1.0
    M = np.empty((2 * n, 2 * n))
    M[:n, :n] = 0.0
    np.fill_diagonal(M[:n, :n], 1.0)
    M[:n, n:] = W @ phi.T
    rhs = np.empty(2 * n)
    rhs[:n] = prob.x0
    if prob.free_terminal:
        M[n:, :n], M[n:, n:], rhs[n:] = P @ phi, PW_I, 0.0
    else:
        M[n:, :n], M[n:, n:], rhs[n:] = phi, W, prob.xf
    M12, M21 = M[:n, n:], M[n:, :n]
    S = M[n:, n:] - M21 @ M12
    r = rhs[n:] - M21 @ prob.x0
    z = np.empty(2 * n)
    z[n:] = np.linalg.lstsq(S, r, rcond=cfg.rank_tol_factor * max(S.shape))[0]
    z[:n] = prob.x0 - M12 @ z[n:]
    residual, norm = np.linalg.norm(M @ z - rhs), np.linalg.norm
    if residual > cfg.residual_tol * (1.0 + norm(rhs) + norm(M) * norm(z)):
        raise BoundaryInconsistent(f"boundary system residual {residual:.3e} exceeds tolerance")
    return z[:n], z[n:]


def assert_blockwise_solve_matches_assembled(prob, ric, gram):
    """Same ``alpha`` and ``beta`` bits, zero signs included, and the same verdict."""
    try:
        want = assembled_boundary_solve(prob, ric, gram)
    except BoundaryInconsistent:
        with pytest.raises(BoundaryInconsistent, match="endpoint not attainable"):
            solve_nonrecursive(prob, ric, gram)
        return False
    traj = solve_nonrecursive(prob, ric, gram)
    for got, ref in zip((traj.alpha, traj.beta), want):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    return True


def test_blockwise_boundary_solve_matches_assembled_system_bitwise(golden_sys):
    # golden, free end: k_f 84-109 fail the residual test, the rest pass
    ric, gram = solve_all(golden_sys)
    x0 = np.random.default_rng(3).standard_normal(4)
    solved = [
        assert_blockwise_solve_matches_assembled(TrajectoryProblem(golden_sys, x0, k_f), ric, gram)
        for k_f in range(1, 151)
    ]
    assert 0 < solved.count(False) < len(solved)
    # seeded plants, fixed ends, horizons shorter than n included
    rng, solved = np.random.default_rng(52), []
    for _ in range(30):
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        sys = random_stabilizable(rng, n, m, m + int(rng.integers(0, 2)))
        ric, gram = solve_all(sys)
        x0, xf = rng.standard_normal(n), rng.standard_normal(n)
        for k_f in (1, n, 3 * n):
            prob = TrajectoryProblem(sys, x0, k_f, xf=xf)
            solved.append(assert_blockwise_solve_matches_assembled(prob, ric, gram))
    assert 0 < solved.count(False) < len(solved)
    # the drift plant: every free end solves, no fixed end with x2(k_f) = 1 does
    sys = drift_system()
    ric, gram = solve_all(sys)
    for k_f in range(1, 30):
        prob = TrajectoryProblem(sys, np.ones(2), k_f)
        assert assert_blockwise_solve_matches_assembled(prob, ric, gram)
        for x0 in (np.zeros(2), np.ones(2)):
            prob = TrajectoryProblem(sys, x0, k_f, xf=np.array([0.0, 1.0]))
            assert not assert_blockwise_solve_matches_assembled(prob, ric, gram)


def test_sqrt_riccati_oracle_is_exact_where_known(golden_sys):
    # golden's free-end optimum is (c'x0)^2, c the second row of C, at
    # every horizon; the stable scalar plant's tends to x0' P x0 = ROOT
    x0 = np.random.default_rng(3).standard_normal(4)
    want = float(golden_sys.C[1] @ x0) ** 2
    for k_f in (1, 2, 10, 100, 1000):
        got = sqrt_riccati_cost(TrajectoryProblem(golden_sys, x0, k_f))
        assert abs(got - want) <= 1e-12 * (1 + want), k_f
    scalar = SystemQuadruple(
        A=np.array([[0.5]]),
        B=np.array([[1.0]]),
        C=np.array([[1.0], [0.0]]),
        D=np.array([[0.0], [1.0]]),
    )
    assert abs(sqrt_riccati_cost(TrajectoryProblem(scalar, np.ones(1), 60)) - ROOT) <= 1e-12
    # short horizons on seeded plants, where the dense oracle is trustworthy
    rng = np.random.default_rng(51)
    for _ in range(10):
        sys = random_stabilizable(rng, int(rng.integers(1, 5)), 2, 3)
        prob = TrajectoryProblem(sys, rng.standard_normal(sys.n), int(rng.integers(1, 15)))
        J_star = sqrt_riccati_cost(prob)
        assert abs(J_star - kkt_oracle(prob).J) <= 1e-10 * (1 + J_star)
    with pytest.raises(ValueError, match="free-endpoint"):
        sqrt_riccati_cost(TrajectoryProblem(scalar, np.ones(1), 3, xf=np.zeros(1)))


def test_golden_free_end_cost_is_optimal(golden_sys):
    # the achieved cost against the exact optimum J*, not only the
    # first-order relations: the boundary matrix's nullity lets a
    # stationary-looking trajectory cost more than J*
    ric, gram = solve_all(golden_sys)
    x0 = np.random.default_rng(3).standard_normal(4)
    for k_f in range(1, 41):
        prob = TrajectoryProblem(golden_sys, x0, k_f)
        J_star = sqrt_riccati_cost(prob)
        J = solve_nonrecursive(prob, ric, gram).J
        assert abs(J - J_star) <= 1e-12 * (1 + J_star), k_f


def drift_system():
    """The second state is pure drift: x2 can only follow 0.3^k x2(0)."""
    return SystemQuadruple(
        A=np.array([[0.5, 0.0], [0.0, 0.3]]),
        B=np.array([[1.0], [0.0]]),
        C=np.array([[1.0, 1.0], [0.0, 0.0]]),
        D=np.array([[0.0], [1.0]]),
    )


def test_unreachable_endpoint_raises():
    sys = drift_system()
    ric, gram = solve_all(sys)
    prob = TrajectoryProblem(sys, np.zeros(2), 4, xf=np.array([0.0, 1.0]))
    with pytest.raises(BoundaryInconsistent, match="endpoint not attainable"):
        solve_nonrecursive(prob, ric, gram)
    with pytest.raises(Infeasible, match="endpoint not attainable"):
        kkt_oracle(prob)


@pytest.mark.filterwarnings("error")
def test_boundary_verdict_fails_outside_float_range(golden_sys):
    # The residual or its scale overflows to inf or NaN, against which a plain
    # "residual > tol * scale" holds false and lets J = inf or NaN through.
    # The typed error is all the caller sees: no numpy warning comes first.
    overflowing = [
        (golden_sys, [1e308, 1e308, 0.0, 0.0], 5, None),
        (golden_sys, [1e308, 1e308, 0.0, 0.0], 5, np.zeros(4)),
        (golden_sys, [1e200, 1.0, 1.0, 1.0], 5, None),
        (drift_system(), [1e308, 1e308], 4, None),
    ]
    for sys, x0, k_f, xf in overflowing:
        prob = TrajectoryProblem(sys, np.array(x0), k_f, xf=xf)
        with pytest.raises(BoundaryInconsistent, match="is not finite"):
            solve_nonrecursive(prob, *solve_all(sys))
    prob = TrajectoryProblem(golden_sys, np.array([1e150, 1.0, 1.0, 1.0]), 5)
    traj = solve_nonrecursive(prob, *solve_all(golden_sys))
    assert 1e300 < traj.J < np.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, k_f, xf", [(4.47e153, 2, np.zeros(4)), (5.01e153, 1, None)])
def test_overflow_after_the_boundary_verdict_raises_the_typed_error(golden_sys, scale, k_f, xf):
    # The boundary system is finite and consistent; the cost then overflows.
    prob = TrajectoryProblem(golden_sys, scale * np.array([1.0, 1.0, 0.0, 0.0]), k_f, xf=xf)
    with pytest.raises(BoundaryInconsistent, match="overflows float64"):
        solve_nonrecursive(prob, *solve_all(golden_sys))


def test_a_non_finite_cost_numpy_does_not_flag_raises_the_typed_error(golden_sys, monkeypatch):
    # A dot that a multi-threaded BLAS splits across worker threads can
    # overflow without numpy seeing it; the solve's last check still turns
    # the infinite J into the typed error.
    from hamlq import lqtraj

    monkeypatch.setattr(lqtraj, "cost", lambda traj, sys: math.inf)
    prob = TrajectoryProblem(golden_sys, np.ones(4), 5)
    with pytest.raises(BoundaryInconsistent, match="in the trajectory's propagation, outputs or cost"):
        solve_nonrecursive(prob, *solve_all(golden_sys))


def test_cost_helpers():
    sys = SystemQuadruple(
        A=np.zeros((2, 2)),
        B=np.eye(2),
        C=np.eye(2),
        D=np.zeros((2, 2)),
    )
    ric, gram = solve_all(sys)
    traj = solve_nonrecursive(TrajectoryProblem(sys, np.array([3.0, 4.0]), 1), ric, gram)
    costs = stage_costs(traj, sys)
    assert costs.shape == (1,)
    assert abs(costs[0] - 25.0) <= 1e-10
    assert abs(cost(traj, sys) - traj.J) <= 1e-12 * (1 + abs(traj.J))

    zero = solve_nonrecursive(TrajectoryProblem(sys, np.zeros(2), 3), ric, gram)
    assert cost(zero, sys) == 0.0


def test_cost_recompute_matches_reported(golden_sys):
    ric, gram = solve_all(golden_sys)
    rng = np.random.default_rng(46)
    for _ in range(5):
        prob = TrajectoryProblem(golden_sys, rng.standard_normal(4), int(rng.integers(1, 15)))
        traj = solve_nonrecursive(prob, ric, gram)
        assert abs(cost(traj, golden_sys) - traj.J) <= 1e-12 * (1 + abs(traj.J))


def reference_solve(prob, ric, gram, cfg=DEFAULT_TOL):
    """The solve as it stood before its single error context and its one
    dot for ``J``: a zero end vector at a free end, the boundary phase
    under ``np.errstate(over="ignore")`` and the outputs under
    a second ``np.errstate(over="raise")``, and ``J`` the sum of the stage
    costs ``(y * y).sum(axis=1)``, ``y = x C' + u D'``. Returns the
    trajectory and those stage costs."""
    sysq, k_f, n = prob.sys, prob.k_f, prob.sys.n
    P, K, W = ric.P, ric.K, gram.W
    with np.errstate(over="ignore", invalid="ignore"):
        squares, phi = _squares(gram.A_K, k_f)
        x0, M12 = prob.x0, W.dot(phi.T)
        if prob.free_terminal:
            M21, M22, norm_M22, end = P.dot(phi), gram.Vbar2[n:], gram.norm_PW_I, np.zeros(n)
        else:
            M21, M22, norm_M22, end = phi, W, gram.norm_W, prob.xf
        beta = np.linalg.lstsq(M22 - M21.dot(M12), end - M21.dot(x0), rcond=cfg.rank_tol_factor * n)[0]
        M12_beta = M12.dot(beta)
        alpha = x0 - M12_beta
        end_row = M21.dot(alpha) + M22.dot(beta)
        top, bottom = _vec_norm(alpha + M12_beta - x0), _vec_norm(end_row - end)
        norm_M = math.hypot(math.sqrt(n), fro_norm(M12), fro_norm(M21), norm_M22)
        norm_z = math.hypot(_vec_norm(alpha), _vec_norm(beta))
        residual = math.hypot(top, bottom)
        scale = 1.0 + math.hypot(_vec_norm(x0), _vec_norm(end)) + norm_M * norm_z
        if not (math.isfinite(residual) and math.isfinite(scale)):
            raise BoundaryInconsistent("is not finite")
        if residual > cfg.residual_tol * scale:
            raise BoundaryInconsistent(f"boundary system residual {residual:.3e} exceeds tolerance")
    with np.errstate(over="raise", invalid="raise"):
        fwd, bwd = _propagate(squares, phi, alpha, beta, k_f)
        u = fwd[:-1].dot(K.T)
        u += bwd[1:].dot(gram.u_gain.T)
        x = bwd.dot(W.T)
        x += fwd
        p = x.dot(P.T)
        p -= bwd
        if prob.free_terminal:
            p[k_f] = end_row
        y = x[:-1].dot(sysq.C.T) + u.dot(sysq.D.T)
        costs = np.multiply(y, y, out=y).sum(axis=1)
    return Trajectory(x=x, p=p, u=u, J=float(costs.sum()), alpha=alpha, beta=beta), costs


def assert_matches_reference(prob, ric, gram):
    """``alpha``, ``beta``, ``x``, ``p``, ``u`` and the stage costs with the
    reference's bits, zero signs included, the same verdict, and ``J``
    within ``2 k_f p eps J`` of the reference's stage sum. Returns whether
    the problem solved."""
    try:
        want, want_costs = reference_solve(prob, ric, gram)
    except BoundaryInconsistent as exc:
        with pytest.raises(BoundaryInconsistent, match=re.escape(str(exc))):
            solve_nonrecursive(prob, ric, gram)
        return False
    traj = solve_nonrecursive(prob, ric, gram)
    for name in ("alpha", "beta", "x", "p", "u"):
        assert same_bits(getattr(traj, name), getattr(want, name)), name
    assert same_bits(stage_costs(traj, prob.sys), want_costs)
    assert abs(traj.J - want.J) <= 2 * prob.k_f * prob.sys.p * EPS * want.J
    return True


@pytest.fixture(scope="module")
def traj_many_systems(request):
    """The ``traj-many`` benchmark's ten systems, golden among them, by name."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    request.addfinalizer(lambda: sys.path.remove(bench))
    import workloads

    return {key: sysq for key, (sysq, _) in workloads.traj_systems().items()}


def test_outputs_keep_the_reference_bits_and_J_its_bound(traj_many_systems):
    # One error context and J as one dot change no bit
    # of the returned sequences, and J only within its rounding bound.
    rng = np.random.default_rng(53)
    solved = failed = 0
    for key, sysq in traj_many_systems.items():
        ric, gram = solve_all(sysq)
        for k_f in (1, 2, 3, 63, 64, 65, 200):
            x0 = rng.standard_normal(sysq.n)
            x = x0.copy()
            for _ in range(k_f):
                x = sysq.A @ x + sysq.B @ rng.standard_normal(sysq.m)
            for xf in (None, x):
                if assert_matches_reference(TrajectoryProblem(sysq, x0, k_f, xf=xf), ric, gram):
                    solved += 1
                else:
                    failed += 1
    assert solved >= 100 and failed >= 1, (solved, failed)
    # Free ends whose right side -P phi x0 is all zeros: x0 = +0 and -0 on
    # golden, and x0 = (0, 1) on a plant whose second state is costless
    # drift, so that P's second column and row are exact zeros.
    decoupled = SystemQuadruple(
        A=np.diag([0.5, 0.3]), B=np.array([[1.0], [0.0]]),
        C=np.array([[1.0, 0.0], [0.0, 0.0]]), D=np.array([[0.0], [1.0]]),
    )
    ric, gram = solve_all(decoupled)
    x0 = np.array([0.0, 1.0])
    for k_f in (1, 3, 64):
        assert not (ric.P @ np.linalg.matrix_power(gram.A_K, k_f) @ x0).any()
        assert assert_matches_reference(TrajectoryProblem(decoupled, x0, k_f), ric, gram)
    golden = traj_many_systems["golden"]
    ric, gram = solve_all(golden)
    for x0 in (np.zeros(4), -np.zeros(4)):
        for k_f in (1, 5, 65):
            assert assert_matches_reference(TrajectoryProblem(golden, x0, k_f), ric, gram)


def power_list_propagate(prob, ric, gram, alpha, beta):
    """The propagation by a stored list of A_K powers that doubling replaced.

    Starts from the solver's own ``alpha`` and ``beta`` and returns, for
    each of x, p, u, the sequence together with the size of the two mode
    terms summed into it.
    """
    sys, k_f, n = prob.sys, prob.k_f, prob.sys.n
    P, K, A_K, W = ric.P, ric.K, gram.A_K, gram.W
    pows = [np.eye(n)]
    for _ in range(k_f):
        pows.append(pows[-1] @ A_K)
    u_gain = K @ W @ A_K.T + solve_linear(ric.Rw, sys.B.T)
    PW_I = P @ W - np.eye(n)
    x = np.empty((k_f + 1, n))
    p = np.empty((k_f + 1, n))
    u = np.empty((k_f, sys.m))
    F = np.empty((k_f + 1, n))
    G = np.empty((k_f + 1, n))
    for k in range(k_f + 1):
        fwd = pows[k] @ alpha
        bwd = pows[k_f - k].T @ beta
        x[k] = fwd + W @ bwd
        p[k] = P @ fwd + PW_I @ bwd
        if k < k_f:
            u[k] = K @ fwd + u_gain @ (pows[k_f - 1 - k].T @ beta)
        F[k], G[k] = fwd, bwd

    def size(fwd_map, bwd_map, rows=slice(None), shift=0):
        # largest |fwd_map| |F| + |bwd_map| |G| entry, the rounding scale of the sum
        terms = np.abs(F[rows]) @ np.abs(fwd_map).T
        terms += np.abs(G[shift:][: len(terms)]) @ np.abs(bwd_map).T
        return np.max(terms)

    return {
        "x": (x, size(np.eye(n), W)),
        "p": (p, size(P, PW_I)),
        "u": (u, size(K, u_gain, slice(-1), 1)),
    }


@pytest.mark.parametrize("n", [None, 1, 4, 12])
def test_doubling_matches_power_list_propagation(golden_sys, n):
    # n=None is the golden system; the others have a zero column in D.
    # Tolerances are relative to |map| |mode| summed into each output, the
    # scale of its rounding: golden free-end solutions near k_f = 64 carry an
    # anticausal mode of size 1e6 that P W - I nearly annihilates, leaving
    # costates of size 1e-10 that differ in their leading digits.
    rng = np.random.default_rng(47 + (n or 0))
    if n is None:
        sys = golden_sys
    else:
        sys = random_stabilizable(rng, n, 2, 3, singular_D=True)
    ric, gram = solve_all(sys)
    solved = 0
    for k_f in (1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 200):
        x0 = rng.standard_normal(sys.n)
        x = x0.copy()
        for _ in range(k_f):
            x = sys.A @ x + sys.B @ rng.standard_normal(sys.m)
        for xf in (None, x):
            prob = TrajectoryProblem(sys, x0, k_f, xf=xf)
            try:
                ours = solve_nonrecursive(prob, ric, gram)
            except BoundaryInconsistent:
                continue
            solved += 1
            ref = power_list_propagate(prob, ric, gram, ours.alpha, ours.beta)
            for name, (want, terms) in ref.items():
                got = getattr(ours, name)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * terms, (name, k_f, xf is None)
    assert solved >= 20


def doubling_propagate(A_K, phi, alpha, beta, k_f):
    """Mode sequences by doubling, each square formed from the one before.

    An independent chain of ``step.dot(step)`` squares, the propagation as it
    stood before the solver shared its squares with ``phi``.
    """
    fwd = np.empty((k_f + 1, alpha.shape[0]))
    bwd = np.empty_like(fwd)
    fwd[0], bwd[k_f] = alpha, beta
    fwd[k_f], bwd[0] = phi @ alpha, phi.T @ beta
    step, j = A_K, 1
    while j < k_f:
        t = min(j, k_f - j)
        fwd[:t].dot(step.T, out=fwd[j : j + t])
        bwd[k_f - t + 1 :].dot(step, out=bwd[k_f - j - t + 1 : k_f - j + 1])
        j += t
        if j < k_f:
            step = step.dot(step)
    return fwd, bwd


@pytest.mark.parametrize("n", [None, 3, 12])
def test_outputs_are_plain_sums_bitwise(golden_sys, n):
    # x and u must be, to the last bit and sign of zero, the plain sums of
    # the causal and anticausal products over the propagated modes, and p
    # must be P x less the anticausal mode, with a free end's last row the
    # boundary system's bottom row; the solver forms them in place in another
    # order of operands, from squares it shares with phi, and reads P W - I
    # and the input gain from gram.
    rng = np.random.default_rng(49 + (n or 0))
    sys = golden_sys if n is None else random_stabilizable(rng, n, 3, 4, singular_D=n == 3)
    ric, gram = solve_all(sys)
    P, K, A_K, W = ric.P, ric.K, gram.A_K, gram.W
    PW_I = P @ W - np.eye(sys.n)
    u_gain = K @ W @ A_K.T + solve_linear(ric.Rw, sys.B.T)
    solved = 0
    for k_f in (1, 2, 63, 199):
        x0 = rng.standard_normal(sys.n)
        x = x0.copy()
        for _ in range(k_f):
            x = sys.A @ x + sys.B @ rng.standard_normal(sys.m)
        for start, xf in ((x0, None), (x0, x), (-np.zeros(sys.n), None)):
            try:
                traj = solve_nonrecursive(TrajectoryProblem(sys, start, k_f, xf=xf), ric, gram)
            except BoundaryInconsistent:
                continue
            solved += 1
            phi = np.linalg.matrix_power(A_K, k_f)
            fwd, bwd = doubling_propagate(A_K, phi, traj.alpha, traj.beta, k_f)
            want = {
                "x": fwd + bwd @ W.T,
                "p": traj.x @ P.T - bwd,
                "u": fwd[:-1] @ K.T + bwd[1:] @ u_gain.T,
            }
            if xf is None:
                want["p"][k_f] = (P @ phi) @ traj.alpha + PW_I @ traj.beta
            for name, ref in want.items():
                got = getattr(traj, name)
                assert np.array_equal(got, ref), (name, k_f, xf is None)
                assert np.array_equal(np.signbit(got), np.signbit(ref)), (name, k_f, xf is None)
    assert solved >= 9


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 3, 7, 20])
def test_squares_match_matrix_power_bitwise(n, order):
    # phi must be np.linalg.matrix_power's product to the last bit, k_f = 2
    # and 3 (its short cuts) included, and each square must equal both
    # matrix_power's and a plain chain of step.dot(step) squares.
    A_K = np.asarray(stable_matrix(np.random.default_rng(50 + n), n, radius=0.99), order=order)
    chain = [A_K]
    for _ in range(10):  # 2^10 <= 1100 < 2^11
        chain.append(chain[-1].dot(chain[-1]))
    for i, z in enumerate(chain):
        assert same_bits(z, np.linalg.matrix_power(A_K, 2**i)), i
    for k_f in range(1, 1101):
        squares, phi = _squares(A_K, k_f)
        assert len(squares) == k_f.bit_length(), k_f
        assert all(same_bits(z, c) for z, c in zip(squares, chain)), k_f
        assert same_bits(phi, np.linalg.matrix_power(A_K, k_f)), k_f
    assert _squares(A_K, 1)[1] is A_K


def layouts(rng, rows, cols):
    """A ``rows x cols`` operand in each layout the solve meets: C- and
    F-ordered arrays and the transposed views of both."""
    M, T = rng.standard_normal((rows, cols)), rng.standard_normal((cols, rows))
    return [M, np.asfortranarray(M), T.T, np.asfortranarray(T).T]


def test_dot_matches_matmul_bitwise():
    # The solver forms its products with ndarray.dot, which dispatches faster
    # than @, and relies on the two giving the same bits on every operand kind
    # it uses: squares, transposed views, row slices of a stacked sequence,
    # vectors on either side, rows written through out=, and a flattened
    # product dotted with itself (the cost). A BLAS build that rounds them
    # differently fails here instead of moving the outputs.
    rng = np.random.default_rng(52)
    for n in range(1, 41):
        squares = layouts(rng, n, n)
        v = rng.standard_normal(n)
        for a in squares:
            assert same_bits(a.dot(v), a @ v), n
            assert same_bits(v.dot(a), v @ a), n
            assert same_bits(a.dot(v, out=np.empty((2, n))[1]), a @ v), n
            for b in squares:
                assert same_bits(a.dot(b), a @ b), n
        for rows in (1, 2, 7, 33):
            stack = rng.standard_normal((rows + 1, n))
            for cols in (1, 3, n):
                for b in layouts(rng, n, cols):
                    for s in (stack[:-1], stack[1:]):
                        want = s @ b
                        assert same_bits(s.dot(b), want), (n, rows, cols)
                        out = np.empty((rows + 1, cols))
                        assert same_bits(s.dot(b, out=out[1:]), want), (n, rows, cols)
                        y = want.ravel()
                        assert same_bits(np.asarray(y.dot(y)), np.asarray(y @ y)), (n, rows, cols)


def test_propagation_memory_is_linear_in_horizon():
    # a stored list of A_K powers would need (k_f + 1) n^2 doubles = 80 MB
    rng = np.random.default_rng(48)
    sys = random_stabilizable(rng, 50, 3, 4)
    ric, gram = solve_all(sys)
    prob = TrajectoryProblem(sys, rng.standard_normal(50), 4000)
    peak = traced_peak(lambda: solve_nonrecursive(prob, ric, gram))
    assert peak < 16 * 2**20


def test_trajectory_peak_memory_is_a_few_outputs():
    # At most three (k_f + 1) x n arrays are held at once, plus u: the two
    # mode sequences and x, then x, bwd and p once fwd is freed. This reads
    # 3.2 at n = 20, k_f = 199, and 3.1 at n = 50, k_f = 4000.
    for n, k_f in ((50, 4000), (20, 199)):
        rng = np.random.default_rng(48)
        sys = random_stabilizable(rng, n, 3, 4)
        ric, gram = solve_all(sys)
        prob = TrajectoryProblem(sys, rng.standard_normal(n), k_f)
        peak = traced_peak(lambda: solve_nonrecursive(prob, ric, gram))
        assert peak < 3.5 * (k_f + 1) * n * 8, (n, k_f, peak / ((k_f + 1) * n * 8))
