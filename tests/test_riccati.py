import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import count_calls, hidden_left_null_space, is_psd, random_stabilizable, same_bits, traced_peak
from conftest import unstable_modes
from hamlq import riccati
from hamlq.errors import BoundaryInconsistent, ConvergenceFailure, HamlqError, NotStabilizable, SingularWeight
from hamlq.hamsubspace import residuals_v1, residuals_v2
from hamlq.lqtraj import TrajectoryProblem, solve_nonrecursive
from hamlq.matcore import DEFAULT_TOL
from hamlq.reachdecomp import SystemQuadruple, staircase
from hamlq.riccati import solve_dare
from hamlq.stablyap import closed_loop_gramian, stability_certificate

ROOT = (1.0 + np.sqrt(65.0)) / 8.0


def dare_residual(sys, sol):
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    P = sol.P
    S = C.T @ D
    lhs = A.T @ P @ A + C.T @ C
    cross = (A.T @ P @ B + S) @ np.linalg.solve(sol.Rw, B.T @ P @ A + S.T)
    return np.max(np.abs(lhs - cross - P))


def closed_loop(sys, sol):
    """``A + B K``, the closed loop of a Riccati solution."""
    return sys.A + sys.B @ sol.K


def test_trivial_no_cost_on_state():
    # C = 0 makes P = 0 the stabilizing solution and K = 0 the gain
    sys = SystemQuadruple(
        A=np.diag([0.5, 0.25]),
        B=np.eye(2),
        C=np.zeros((2, 2)),
        D=np.eye(2),
    )
    sol = solve_dare(sys)
    np.testing.assert_allclose(sol.P, np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(sol.K, np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(sol.Rw, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(closed_loop(sys, sol), sys.A, atol=1e-12)


def test_scalar_cross_term_root():
    # a=0.5, b=c=d=1: the quadratic for P has roots 0 and -3/4, and the
    # stabilizing root is P = 0 with K = -1, closed loop -0.5
    sys = SystemQuadruple(
        A=np.array([[0.5]]),
        B=np.array([[1.0]]),
        C=np.array([[1.0]]),
        D=np.array([[1.0]]),
    )
    sol = solve_dare(sys)
    assert abs(sol.P[0, 0]) <= 1e-12
    assert abs(sol.K[0, 0] + 1.0) <= 1e-12
    assert abs(closed_loop(sys, sol)[0, 0] + 0.5) <= 1e-12


def test_scalar_decoupled_root():
    # stacked outputs keep the state and input penalties separate, so the
    # closed form is P = (1 + sqrt(65)) / 8
    sys = SystemQuadruple(
        A=np.array([[0.5]]),
        B=np.array([[1.0]]),
        C=np.array([[1.0], [0.0]]),
        D=np.array([[0.0], [1.0]]),
    )
    sol = solve_dare(sys)
    assert abs(sol.P[0, 0] - ROOT) <= 1e-12
    assert abs(sol.K[0, 0] + 0.5 * ROOT / (1.0 + ROOT)) <= 1e-12
    assert abs(sol.Rw[0, 0] - (1.0 + ROOT)) <= 1e-12


def test_solution_invariants_random():
    rng = np.random.default_rng(21)
    solved = 0
    while solved < 40:
        sys = random_stabilizable(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        try:
            sol = solve_dare(sys)
        except (NotStabilizable, SingularWeight):
            continue
        solved += 1
        p_scale = 1 + np.linalg.norm(sol.P, "fro")
        assert dare_residual(sys, sol) <= 1e-12 * p_scale
        # gain identity: Rw K = -(B' P A + D' C)
        gain_res = sol.Rw @ sol.K + sys.B.T @ sol.P @ sys.A + sys.D.T @ sys.C
        assert np.max(np.abs(gain_res)) <= 1e-10 * p_scale
        assert np.max(np.abs(sol.P - sol.P.T)) <= 1e-12 * p_scale
        assert is_psd(sol.P)
        assert stability_certificate(closed_loop(sys, sol))


def test_not_stabilizable_raises():
    sys = SystemQuadruple(
        A=np.array([[2.0]]),
        B=np.zeros((1, 1)),
        C=np.array([[1.0]]),
        D=np.array([[1.0]]),
    )
    with pytest.raises(NotStabilizable):
        solve_dare(sys)


def newton_counter(monkeypatch):
    """A ``solve_dare`` that also returns its Newton step count, one Smith solve each."""
    calls = count_calls(monkeypatch, riccati, ["solve_dlyap_stable"])

    def solve(sys):
        calls["solve_dlyap_stable"] = 0
        return solve_dare(sys), calls["solve_dlyap_stable"]

    return solve


def scipy_dare(sys):
    return scipy.linalg.solve_discrete_are(sys.A, sys.B, sys.C.T @ sys.C, sys.D.T @ sys.D, s=sys.C.T @ sys.D)


@pytest.mark.parametrize("n", [4, 10, 20, 50])
def test_unstable_a_bootstraps_with_one_certificate(n, monkeypatch):
    # A has 1-3 unstable modes, so K = 0 is rejected and the doubling gain
    # is certified: with the final closed loop, three certificates at most.
    # The gain solves the plant's own regularized equation, so Newton starts
    # next to P and needs at most 5 steps (7-12 from unit weights).
    certificates = []

    def counting_certificate(M, cfg=riccati.DEFAULT_TOL):
        certificates.append(M.shape)
        return stability_certificate(M, cfg)

    monkeypatch.setattr(riccati, "stability_certificate", counting_certificate)
    solve = newton_counter(monkeypatch)
    rng = np.random.default_rng(300 + n)
    for _ in range(3):
        sys = unstable_modes(rng, n)
        certificates.clear()
        sol, steps = solve(sys)
        assert len(certificates) <= 3
        assert steps <= 5
        P_ref = scipy_dare(sys)
        assert np.linalg.norm(sol.P - P_ref) <= 1e-9 * np.linalg.norm(P_ref)
        assert stability_certificate(closed_loop(sys, sol))


@pytest.mark.parametrize("factor", [1e-4, 1e-2, 1.0])
def test_delta_inside_working_range(factor, monkeypatch):
    # From DELTA = 1e-6 down to 1e-10 the Newton counts stay flat; above it
    # the gain sits O(DELTA) off the optimum and Newton needs more steps, and
    # the bootstrap first broke down at 1e-11.
    monkeypatch.setattr(riccati, "DELTA", riccati.DELTA * factor)
    solve = newton_counter(monkeypatch)
    rng = np.random.default_rng(77)
    for n in (4, 4, 10, 10, 20, 20):
        sys = unstable_modes(rng, n)
        sol, steps = solve(sys)
        assert steps <= 5
        assert stability_certificate(closed_loop(sys, sol))


def test_bootstrap_breakdown_is_typed(monkeypatch):
    # Far below the working range the regularization drowns in the rounding
    # of C'C - S R^-1 S' and the gain fails its certificate: a typed error,
    # with no numpy warning and no ValueError from the certificate's input
    # check.
    monkeypatch.setattr(riccati, "DELTA", 1e-16)
    rng = np.random.default_rng(78)
    verdicts = []
    for n in (4, 4, 10, 10, 20):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                solve_dare(unstable_modes(rng, n))
                verdicts.append("solved")
            except NotStabilizable:
                verdicts.append("NotStabilizable")
    assert "NotStabilizable" in verdicts


@pytest.mark.parametrize("gain", [np.nan, np.inf, np.finfo(float).max])
def test_non_finite_bootstrap_gain_raises(gain, monkeypatch):
    # A gain with a non-finite entry, or one whose closed loop A + B K
    # overflows, is no certified gain: NotStabilizable, not the certificate's
    # ValueError for non-finite input.
    def broken(A, B, C, S, R, cfg):
        return np.full((B.shape[1], A.shape[0]), gain), 3

    monkeypatch.setattr(riccati, "_doubling_gain", broken)
    sys = unstable_modes(np.random.default_rng(79), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotStabilizable, match="failed the stability certificate after 3 steps"):
            solve_dare(sys)


@pytest.mark.parametrize("mode", [1e100, 1e200])
def test_doubling_overflow_raises_not_stabilizable(mode):
    # A reachable mode this large makes the first doubling step overflow
    # float64: the typed error, with no numpy warning first.
    sys = SystemQuadruple(
        A=np.diag([mode, 0.5]),
        B=np.array([[1.0], [1.0]]),
        C=np.eye(2),
        D=np.ones((2, 1)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotStabilizable, match="structured doubling diverged.* left float64 range"):
            solve_dare(sys)


def test_unstable_singular_dd_gets_certified_gain(monkeypatch):
    # D'D singular: the regularized R_d > 0 still gives a gain, Newton
    # certifies it, and the solution is SciPy's
    solve = newton_counter(monkeypatch)
    rng = np.random.default_rng(80)
    for n in (4, 10, 20):
        sys = unstable_modes(rng, n)
        sys.D[:, -1] = 0.0
        assert np.linalg.matrix_rank(sys.D.T @ sys.D) < sys.D.shape[1]
        sol, steps = solve(sys)
        assert steps <= 5
        assert stability_certificate(closed_loop(sys, sol))
        P_ref = scipy_dare(sys)
        assert np.linalg.norm(sol.P - P_ref) <= 1e-9 * np.linalg.norm(P_ref)


def test_unstable_zero_cost_gets_certified_gain():
    # C = 0 and D = 0: the regularized equation is DELTA times the unit
    # weights, so its gain is certified; Newton then finds P = 0 with the
    # singular weight Rw = 0, the typed verdict for this plant.
    sys = unstable_modes(np.random.default_rng(81), 10)
    sys = SystemQuadruple(sys.A, sys.B, np.zeros_like(sys.C), np.zeros_like(sys.D))
    K, _ = doubling_gain(sys)
    assert stability_certificate(sys.A + sys.B @ K)
    with pytest.raises(SingularWeight):
        solve_dare(sys)


def test_stable_a_never_bootstraps(monkeypatch, golden_sys):
    # K = 0 is certified at once, so the doubling never runs and nothing in
    # the stable path moves
    calls = count_calls(monkeypatch, riccati, ["_doubling_gain"])
    rng = np.random.default_rng(82)
    for sys in [golden_sys] + [random_stabilizable(rng, n, 2, 2) for n in (1, 4, 10, 20)]:
        solve_dare(sys)
    assert calls["_doubling_gain"] == 0
    solve_dare(unstable_modes(rng, 4))
    assert calls["_doubling_gain"] == 1


@pytest.mark.parametrize("a", [2.0, 1.0, -1.0, 1.0 + 1e-7])
def test_unstabilizable_raises_without_warnings(a):
    # the mode a is unreachable and not strictly stable, so no gain exists
    sys = SystemQuadruple(
        A=np.diag([a, 0.5]),
        B=np.array([[0.0], [1.0]]),
        C=np.eye(2),
        D=np.ones((2, 1)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotStabilizable):
            solve_dare(sys)


def test_singular_weight_raises():
    # wide D with a zero column leaves Rw = D'D singular when P = 0
    sys = SystemQuadruple(
        A=np.array([[0.5]]),
        B=np.array([[1.0, 0.0]]),
        C=np.array([[0.0]]),
        D=np.array([[1.0, 0.0]]),
    )
    with pytest.raises(SingularWeight):
        solve_dare(sys)


def test_restricted_matches_full_when_fully_reachable():
    rng = np.random.default_rng(22)
    sys = random_stabilizable(rng, 3, 2, 3)
    st = staircase(sys)
    assert st.n_c == 3
    full = solve_dare(sys)
    rest = solve_dare(SystemQuadruple(st.A_c, st.B_c, st.C_c, sys.D))
    Pt = st.T.T @ full.P @ st.T
    assert np.max(np.abs(Pt - rest.P)) <= 1e-8 * (1 + np.linalg.norm(full.P, "fro"))


def test_restricted_matches_projected_golden(golden_sys):
    st = staircase(golden_sys)
    full = solve_dare(golden_sys)
    rest = solve_dare(SystemQuadruple(st.A_c, st.B_c, st.C_c, golden_sys.D))
    Pt = st.T.T @ full.P @ st.T
    n_c = st.n_c
    scale = 1e-8 * (1 + np.linalg.norm(full.P, "fro"))
    assert np.max(np.abs(Pt[:n_c, :n_c] - rest.P)) <= scale
    # the gain in the staircase basis splits as K T = [K_c  K_u]
    K_c = (full.K @ st.T)[:, :n_c]
    assert np.max(np.abs(K_c - rest.K)) <= scale


def test_restricted_scalar_padded():
    # an unreachable zero mode changes nothing about the reachable block
    sys = SystemQuadruple(
        A=np.array([[0.5, 0.0], [0.0, 0.0]]),
        B=np.array([[1.0], [0.0]]),
        C=np.array([[1.0, 0.0], [0.0, 0.0]]),
        D=np.array([[0.0], [1.0]]),
    )
    st = staircase(sys)
    assert st.n_c == 1
    rest = solve_dare(SystemQuadruple(st.A_c, st.B_c, st.C_c, sys.D))
    assert abs(rest.P[0, 0] - ROOT) <= 1e-12


def test_restricted_requires_reachable_modes():
    sys = SystemQuadruple(
        A=np.array([[0.5]]),
        B=np.zeros((1, 1)),
        C=np.array([[1.0]]),
        D=np.array([[1.0]]),
    )
    st = staircase(sys)
    assert st.n_c == 0
    with pytest.raises(ValueError):
        SystemQuadruple(st.A_c, st.B_c, st.C_c, sys.D)


@pytest.mark.parametrize(
    "case, scale",
    [("p-zero", 1.0), ("p-zero", 1e3), ("p-zero", 1e4), ("golden", 1e4)],
)
def test_residual_judged_against_its_terms(case, scale, golden_sys):
    # p-zero: square invertible D, so P = 0 while C'C and L'K grow as
    # scale^2; a residual judged against 1 + ||P|| failed on rounding alone
    # at 1e3 and 1e4. golden: P itself grows as scale^2.
    if case == "p-zero":
        sys = hidden_left_null_space(np.random.default_rng(24), 2, 0, False, scale)
        assert sys.D.shape[0] == sys.D.shape[1]
    else:
        sys = SystemQuadruple(golden_sys.A, golden_sys.B, scale * golden_sys.C, scale * golden_sys.D)
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    sol = solve_dare(sys)
    Q = C.T @ C
    P_ref = scipy.linalg.solve_discrete_are(A, B, Q, D.T @ D, s=C.T @ D)
    assert np.max(np.abs(sol.P - P_ref)) <= 1e-9 * (1.0 + np.max(np.abs(Q)))
    L = B.T @ sol.P @ A + D.T @ C
    terms = [A.T @ sol.P @ A, Q, L.T @ sol.K, sol.P]
    residual = np.linalg.norm(terms[0] + terms[1] + terms[2] - terms[3], "fro")
    assert residual <= 1e-10 * (1.0 + max(np.linalg.norm(t, "fro") for t in terms))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "c_scale, d_scale, product",
    [(1e155, 1e155, "C'D"), (1.0, 1e155, "D'D"), (1e155, 1.0, "Newton forcing")],
)
def test_overflowing_cost_products_raise_one_typed_error(golden_sys, c_scale, d_scale, product):
    # Finite (C, D) whose products overflow float64: the typed error is all
    # the caller sees, with no numpy warning first and no ValueError from
    # the Smith solver's input check.
    g = golden_sys
    sys = SystemQuadruple(A=g.A, B=g.B, C=c_scale * g.C, D=d_scale * g.D)
    with pytest.raises(ConvergenceFailure, match=f"{product}.* overflows float64"):
        solve_dare(sys)


@pytest.mark.filterwarnings("error")
def test_large_cost_scales_solve_to_the_scaled_solution(golden_sys):
    # (C, D) x 10^k scales P by 10^(2k) and the Gramian W by 10^(-2k). From
    # k = 76.25, where max|P| nears 1.1e154, to k = 153 fro_norm's plain sum
    # of squares overflowed, the Smith iterate's norm read inf, and
    # solve_dare raised NotStabilizable ("Newton iterate lost closed-loop
    # stability") on this stabilizable plant. The squares of W's entries
    # underflow there as well; read as zero norms they stopped the Smith
    # loop after one doubling.
    g = golden_sys
    ric0 = solve_dare(g)
    gram0 = closed_loop_gramian(g, ric0)
    for k in (76.25, 80, 100, 120, 150):
        s = 10.0**k
        sys = SystemQuadruple(g.A, g.B, s * g.C, s * g.D)
        ric = solve_dare(sys)
        assert np.max(np.abs(ric.P / s / s - ric0.P)) <= 1e-15 * np.max(np.abs(ric0.P)), k
        gram = closed_loop_gramian(sys, ric)
        assert gram.iterations == gram0.iterations, k
        assert np.max(np.abs(gram.W * s * s - gram0.W)) <= 1e-14 * np.max(np.abs(gram0.W)), k
        if k == 100:
            # Both checks run without a warning and read rounding level.
            v1, v2 = residuals_v1(sys, ric, gram), residuals_v2(sys, ric, gram)
            assert all(math.isfinite(r) for r in (*dataclasses.astuple(v1), *dataclasses.astuple(v2)))
            assert max(v1.dynamics_rel, v1.costate_rel, v1.stationarity_rel) < 1e-10
            assert max(v2.dynamics_rel, v2.costate_rel, v2.stationarity_rel) < 1e-10
            # The trajectory verdict's norms still overflow at this scale
            # (ROADMAP item 16).
            with pytest.raises(BoundaryInconsistent, match="overflows float64"):
                solve_nonrecursive(TrajectoryProblem(sys, np.ones(4), 5), ric, gram)
    s = 10.0**153
    with pytest.raises(ConvergenceFailure, match="overflows float64"):
        solve_dare(SystemQuadruple(g.A, g.B, s * g.C, s * g.D))


def test_overflowing_innovation_weight_raises_one_typed_error(golden_sys):
    # Golden with B x 1e160: the plant data and the cost products are finite,
    # but B'PB overflows in the first Newton step. It leaked a numpy warning
    # and then a ValueError from the gain's solve.
    g = golden_sys
    sys = SystemQuadruple(A=g.A, B=1e160 * g.B, C=g.C, D=g.D)
    with pytest.raises(ConvergenceFailure, match=r"D'D \+ B'PB overflows float64"):
        solve_dare(sys)


@pytest.mark.parametrize("c", [1e-150, 1e-155, 1e-160, 1e-200])
def test_subnormal_cost_scale_raises_a_typed_error(c):
    # The bootstrap scales its weights by the power of two nearest the
    # inverse of their largest entry; for a subnormal entry (c = 1e-155 and
    # 1e-160 here) that power overflowed, an untyped OverflowError
    sys = SystemQuadruple(
        A=[[1.5, 1.0], [0.0, 0.5]], B=[[0.0], [1.0]], C=c * np.eye(2), D=c * np.ones((2, 1))
    )
    with pytest.raises(HamlqError):
        solve_dare(sys)


@pytest.mark.filterwarnings("error")
def test_tiny_cost_of_a_stable_plant_raises_singular_weight():
    # p < m, so D'D + B'PB is singular; its largest entry is 8.7e-321 and
    # abs_zero_tol times it underflows to zero, so a failed Cholesky
    # factorization of it once passed the pivot test and the final pivot
    # test raised numpy's LinAlgError
    sys = SystemQuadruple(A=[[0.42]], B=[[-0.554, 0.846]], C=[[1e-160]], D=[[0.0, 0.0]])
    with pytest.raises(SingularWeight):
        solve_dare(sys)


@pytest.mark.filterwarnings("error")
def test_overflowing_state_weight_of_unstable_plant_raises_one_typed_error():
    # C'D and D'D are finite, but the bootstrap's C'C overflows float64
    sys = unstable_modes(np.random.default_rng(62), 4)
    sys = SystemQuadruple(sys.A, sys.B, 1e155 * sys.C, 1e-10 * sys.D)
    with pytest.raises(ConvergenceFailure, match="C'C overflows float64"):
        solve_dare(sys)


def test_newton_peak_memory():
    # P and the Smith solve's four arrays, the forcing among them as the W
    # it is written over and A_K' as the E it is written over: 5.18 n x n
    # matrices. Holding C'C through every Newton step and a second copy of
    # A_K' inside the Smith solve put the peak at 12.0, a fifth Smith buffer
    # at 8.19, the forcing held next to the Smith solve's W at 7.19, and A_K
    # held next to the Smith solve's copy of A_K' at 6.19.
    n = 100
    sys = random_stabilizable(np.random.default_rng(61), n, 3, 3)
    peak = traced_peak(lambda: solve_dare(sys))
    assert peak < 5.3 * n * n * 8, peak / (n * n * 8)


def doubling_reference(A, B, C, D, cfg=DEFAULT_TOL):
    """The regularized structured-doubling loop written with plain
    expressions: the arithmetic ``riccati._doubling_gain`` must repeat,
    operation for operation."""
    n, m = B.shape
    S, R, CtC = C.T @ D, D.T @ D, C.T @ C
    s = max(np.max(np.diag(CtC), initial=0.0), np.max(np.diag(R), initial=0.0)) or 1.0
    c = 2.0 ** -math.frexp(s)[1]
    reg = riccati.DELTA * (c * s)
    R_reg = c * R + reg * np.eye(m)
    Y = np.linalg.solve(np.linalg.cholesky(R_reg), np.concatenate((B.T, (c * S).T), axis=1))
    Bs, Ss = Y[:, :n], Y[:, n:]
    Ak = A - Bs.T @ Ss
    G = Bs.T @ Bs
    H = c * CtC - Ss.T @ Ss + reg * np.eye(n)
    I = np.eye(n)
    prev_dh = np.inf
    for it in range(1, cfg.max_iter + 1):
        X = np.linalg.solve(I + G @ H, np.concatenate((Ak, G), axis=1))
        A_next = Ak @ X[:, :n]
        G_sum = G + Ak @ X[:, n:] @ Ak.T
        H_sum = H + Ak.T @ H @ X[:, :n]
        G_next = 0.5 * (G_sum + G_sum.T)
        H_next = 0.5 * (H_sum + H_sum.T)
        dh = np.linalg.norm(H_next - H)
        h_scale = 1.0 + np.linalg.norm(H_next)
        Ak, G, H = A_next, G_next, H_next
        if riccati._settled(dh, prev_dh, h_scale):
            return -np.linalg.solve(R_reg + B.T @ H @ B, B.T @ H @ A + c * S.T), it
        prev_dh = dh
    raise AssertionError("reference doubling did not settle")


def doubling_gain(sys, cfg=DEFAULT_TOL):
    """``riccati._doubling_gain`` called with the cost products ``solve_dare`` forms."""
    return riccati._doubling_gain(sys.A, sys.B, sys.C, sys.C.T @ sys.D, sys.D.T @ sys.D, cfg)


@pytest.mark.parametrize("n, m, seed", [(1, 1, 70), (4, 2, 71), (10, 1, 72), (20, 3, 73), (50, 3, 74), (100, 3, 61)])
def test_doubling_gain_matches_plain_loop_bitwise(n, m, seed):
    # The in-place identity, the reused symmetrization buffer and the early
    # drops change no operation: the gain and the step count are the plain
    # loop's, bit for bit.
    sys = unstable_modes(np.random.default_rng(seed), n, k=min(3, n), m=m)
    K, steps = doubling_gain(sys)
    K_ref, steps_ref = doubling_reference(sys.A, sys.B, sys.C, sys.D)
    assert steps == steps_ref
    assert same_bits(K, K_ref)


@pytest.mark.parametrize("cost", ["singular-dd", "scaled", "zero"])
@pytest.mark.parametrize("n, m, seed", [(4, 2, 71), (20, 3, 73)])
def test_doubling_gain_matches_plain_loop_bitwise_on_other_costs(n, m, seed, cost):
    # D'D singular, a cost far from unit size and no cost at all take the
    # same expressions
    sys = unstable_modes(np.random.default_rng(seed), n, k=min(3, n), m=m)
    if cost == "singular-dd":
        sys.D[:, -1] = 0.0
    scale = {"singular-dd": 1.0, "scaled": 3e-5, "zero": 0.0}[cost]
    sys = SystemQuadruple(sys.A, sys.B, scale * sys.C, scale * sys.D)
    K, steps = doubling_gain(sys)
    K_ref, steps_ref = doubling_reference(sys.A, sys.B, sys.C, sys.D)
    assert steps == steps_ref
    assert same_bits(K, K_ref)


def test_doubling_gain_ignores_power_of_two_cost_scaling():
    # The DARE is homogeneous in (Q, R, S), so its gain is the same for every
    # cost scale; the bootstrap brings the weights to unit size by a power of
    # two, so a power-of-two rescaling of (C, D) leaves every bit unchanged.
    sys = unstable_modes(np.random.default_rng(75), 10)
    K, steps = doubling_gain(sys)
    for k in (-40, -3, 5, 60):
        K_k, steps_k = doubling_gain(SystemQuadruple(sys.A, sys.B, 2.0**k * sys.C, 2.0**k * sys.D))
        assert same_bits(K_k, K)
        assert steps_k == steps


def test_doubling_peak_memory():
    # A_k, G, H, one scratch array and the n x 2n solve result, with I + G H
    # and the concatenation alive only through the solve. Holding the
    # identity, the concatenation and the solve result through every
    # product, with fresh arrays for each symmetrization and for H_next - H,
    # put the peak at 11.03 n x n matrices; it reads 9.03.
    n = 100
    sys = unstable_modes(np.random.default_rng(61), n)
    S, R = sys.C.T @ sys.D, sys.D.T @ sys.D
    riccati._doubling_gain(sys.A, sys.B, sys.C, S, R, DEFAULT_TOL)
    peak = traced_peak(lambda: riccati._doubling_gain(sys.A, sys.B, sys.C, S, R, DEFAULT_TOL))
    assert peak < 9.5 * n * n * 8, peak / (n * n * 8)
