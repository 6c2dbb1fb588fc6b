import tracemalloc

import numpy as np
import pytest

from conftest import full_column_rank_D, random_stabilizable, stable_matrix
from hamlq.errors import BoundaryInconsistent, Infeasible
from hamlq.lqtraj import (
    TrajectoryProblem,
    _chain_power,
    cost,
    kkt_oracle,
    solve_nonrecursive,
    stage_costs,
)
from hamlq.matcore import solve_linear
from hamlq.reachdecomp import SystemQuadruple
from hamlq.riccati import solve_dare
from hamlq.stablyap import closed_loop_gramian

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
    with pytest.raises(ValueError, match="finite"):
        TrajectoryProblem(sys, np.array([np.inf, 0.0]), 5)
    assert TrajectoryProblem(sys, np.zeros(2), 5).free_terminal
    assert not TrajectoryProblem(sys, np.zeros(2), 5, xf=np.ones(2)).free_terminal


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


def test_unreachable_endpoint_raises():
    # second state is pure drift: x2 can only follow 0.3^k x2(0)
    sys = SystemQuadruple(
        A=np.array([[0.5, 0.0], [0.0, 0.3]]),
        B=np.array([[1.0], [0.0]]),
        C=np.array([[1.0, 1.0], [0.0, 0.0]]),
        D=np.array([[0.0], [1.0]]),
    )
    ric, gram = solve_all(sys)
    prob = TrajectoryProblem(sys, np.zeros(2), 4, xf=np.array([0.0, 1.0]))
    with pytest.raises(BoundaryInconsistent, match="endpoint not attainable"):
        solve_nonrecursive(prob, ric, gram)
    with pytest.raises(Infeasible, match="endpoint not attainable"):
        kkt_oracle(prob)


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


@pytest.mark.parametrize("n, radius", [(1, 0.5), (3, 0.9), (8, 0.05), (20, 0.08)])
def test_chain_power_matches_reference_bitwise(n, radius):
    # The boundary matrix's A_K^{k_f} must be the product I A_K ... A_K to
    # the last bit: near-singular boundary systems sit at the residual
    # cutoff, and an ulp decides them. Radii 0.05 and 0.08 drive the powers
    # through subnormal numbers to zero within 300 steps.
    A_K = stable_matrix(np.random.default_rng(60 + n), n, radius=radius)
    tiny = np.finfo(np.float64).tiny
    ref = np.eye(n)
    subnormal = False
    for k_f in range(1, 301):
        ref = ref @ A_K
        phi = _chain_power(A_K, k_f)
        assert np.array_equal(phi, ref), k_f
        assert np.array_equal(np.signbit(phi), np.signbit(ref)), k_f
        subnormal |= bool(np.any((ref != 0.0) & (np.abs(ref) < tiny)))
    assert subnormal == (radius < 0.1)


def power_list_solve(prob, ric, gram):
    """The propagation by a stored list of A_K powers that doubling replaced.

    Returns alpha, beta and, for each of x, p, u, the sequence together with
    the size of the two mode terms summed into it.
    """
    sys, k_f, n = prob.sys, prob.k_f, prob.sys.n
    P, K, A_K, W = ric.P, ric.K, ric.A_K, gram.W
    pows = [np.eye(n)]
    for _ in range(k_f):
        pows.append(pows[-1] @ A_K)
    phi = pows[k_f]
    top = np.hstack([np.eye(n), W @ phi.T])
    if prob.free_terminal:
        bottom = np.hstack([P @ phi, P @ W - np.eye(n)])
        rhs = np.concatenate([prob.x0, np.zeros(n)])
    else:
        bottom = np.hstack([phi, W])
        rhs = np.concatenate([prob.x0, prob.xf])
    M = np.vstack([top, bottom])
    z, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    residual = float(np.linalg.norm(M @ z - rhs))
    scale = 1.0 + float(np.linalg.norm(rhs)) + float(np.linalg.norm(M, "fro") * np.linalg.norm(z))
    if residual > 1e-10 * scale:
        raise BoundaryInconsistent("boundary system residual exceeds tolerance")
    alpha, beta = z[:n], z[n:]
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

    return alpha, beta, {
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
                alpha, beta, ref = power_list_solve(prob, ric, gram)
            except BoundaryInconsistent:
                # the boundary solve is shared, so it must fail the same way
                with pytest.raises(BoundaryInconsistent):
                    solve_nonrecursive(prob, ric, gram)
                continue
            solved += 1
            ours = solve_nonrecursive(prob, ric, gram)
            assert np.array_equal(ours.alpha, alpha)
            assert np.array_equal(ours.beta, beta)
            for name, (want, terms) in ref.items():
                got = getattr(ours, name)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * terms, (name, k_f, xf is None)
    assert solved >= 20


def test_propagation_memory_is_linear_in_horizon():
    # a stored list of A_K powers would need (k_f + 1) n^2 doubles = 80 MB
    rng = np.random.default_rng(48)
    sys = random_stabilizable(rng, 50, 3, 4)
    ric, gram = solve_all(sys)
    prob = TrajectoryProblem(sys, rng.standard_normal(50), 4000)
    tracemalloc.start()
    try:
        solve_nonrecursive(prob, ric, gram)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
