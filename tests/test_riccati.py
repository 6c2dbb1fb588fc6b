import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import hidden_left_null_space, is_psd, random_stabilizable, unstable_modes
from hamlq import riccati
from hamlq.errors import NotStabilizable, SingularWeight
from hamlq.reachdecomp import SystemQuadruple, staircase
from hamlq.riccati import solve_dare
from hamlq.stablyap import stability_certificate

ROOT = (1.0 + np.sqrt(65.0)) / 8.0


def dare_residual(sys, sol):
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    P = sol.P
    S = C.T @ D
    lhs = A.T @ P @ A + C.T @ C
    cross = (A.T @ P @ B + S) @ np.linalg.solve(sol.Rw, B.T @ P @ A + S.T)
    return np.max(np.abs(lhs - cross - P))


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
    np.testing.assert_allclose(sol.A_K, sys.A, atol=1e-12)


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
    assert abs(sol.A_K[0, 0] + 0.5) <= 1e-12


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
    assert abs(sol.A_K[0, 0] - (0.5 + sol.K[0, 0])) <= 1e-12


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
        assert stability_certificate(sol.A_K)


def test_not_stabilizable_raises():
    sys = SystemQuadruple(
        A=np.array([[2.0]]),
        B=np.zeros((1, 1)),
        C=np.array([[1.0]]),
        D=np.array([[1.0]]),
    )
    with pytest.raises(NotStabilizable):
        solve_dare(sys)


@pytest.mark.parametrize("n", [4, 10, 20, 50])
def test_unstable_a_bootstraps_with_one_certificate(n, monkeypatch):
    # A has 1-3 unstable modes, so K = 0 is rejected and the doubling gain
    # is certified: with the final closed loop, three certificates at most
    certificates = []

    def counting_certificate(M, cfg=riccati.DEFAULT_TOL):
        certificates.append(M.shape)
        return stability_certificate(M, cfg)

    monkeypatch.setattr(riccati, "stability_certificate", counting_certificate)
    rng = np.random.default_rng(300 + n)
    for _ in range(3):
        sys = unstable_modes(rng, n)
        certificates.clear()
        sol = solve_dare(sys)
        assert len(certificates) <= 3
        P_ref = scipy.linalg.solve_discrete_are(
            sys.A, sys.B, sys.C.T @ sys.C, sys.D.T @ sys.D, s=sys.C.T @ sys.D
        )
        assert np.linalg.norm(sol.P - P_ref) <= 1e-9 * np.linalg.norm(P_ref)
        assert stability_certificate(sol.A_K)


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
