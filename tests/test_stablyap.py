import numpy as np
import pytest

from conftest import stable_matrix, staircase_embedded
from hamlq.errors import NotStable
from hamlq.matcore import is_psd, singular_values
from hamlq.reachdecomp import SystemQuadruple, staircase
from hamlq.riccati import solve_dare
from hamlq.stablyap import closed_loop_gramian, solve_dlyap_stable, stability_certificate


def smith_residual(A_K, Q, W):
    """Frobenius norm of ``A_K W A_K' + Q - W``."""
    return np.linalg.norm(A_K @ W @ A_K.T + Q - W, "fro")


def test_zero_loop_returns_forcing():
    Q = np.array([[2.0, 1.0], [1.0, 3.0]])
    sol = solve_dlyap_stable(np.zeros((2, 2)), Q)
    np.testing.assert_allclose(sol.W, Q)


def test_scalar_geometric_series():
    sol = solve_dlyap_stable(np.array([[0.5]]), np.array([[1.0]]))
    np.testing.assert_allclose(sol.W, [[4.0 / 3.0]], rtol=1e-12)
    assert smith_residual(0.5 * np.eye(1), np.eye(1), sol.W) <= 1e-12


def test_not_stable_raises_with_trace():
    with pytest.raises(NotStable) as exc:
        solve_dlyap_stable(np.array([[2.0]]), np.eye(1))
    assert exc.value.trace
    assert len(exc.value.trace) >= 1
    # unit spectral radius: no overflow, the budget runs out instead
    with pytest.raises(NotStable):
        solve_dlyap_stable(np.eye(2), np.eye(2))


def test_stability_certificate():
    assert stability_certificate(np.zeros((3, 3)))
    assert not stability_certificate(np.eye(2))
    assert stability_certificate(np.array([[0.5, 0.0], [0.0, 0.0]]))
    assert not stability_certificate(np.array([[2.0]]))
    assert not stability_certificate(np.array([[1.0]]))


def test_certificate_validates_shape():
    with pytest.raises(ValueError):
        stability_certificate(np.ones((2, 3)))


def test_residual_contract_random_stable():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        A_K = stable_matrix(rng, n, radius=float(rng.uniform(0.1, 0.95)))
        G = rng.standard_normal((n, n))
        Q = G @ G.T
        sol = solve_dlyap_stable(A_K, Q)
        assert smith_residual(A_K, Q, sol.W) <= 1e-10 * (1 + np.linalg.norm(sol.W, "fro"))
        assert np.max(np.abs(sol.W - sol.W.T)) <= 1e-12 * max(1.0, np.max(np.abs(sol.W)))
        assert is_psd(sol.W)


def test_golden_gramian_matches_reference_block(golden_sys):
    ric = solve_dare(golden_sys)
    gram = closed_loop_gramian(golden_sys, ric)
    W_c_ref = np.array([[0.4708, -0.5165], [-0.5165, 1.1828]])
    assert np.max(np.abs(gram.W[:2, :2] - W_c_ref)) <= 5e-5
    assert np.max(np.abs(gram.W[2:, :])) <= 5e-5
    assert np.max(np.abs(gram.W[:, 2:])) <= 5e-5


def test_gramian_block_structure_dual_route():
    # full-system W projected to the staircase basis must agree with the
    # Gramian computed from the restricted data alone
    rng = np.random.default_rng(11)
    for i in range(10):
        s = staircase_embedded(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)), rotate=bool(i % 2))
        st = staircase(s)
        ric = solve_dare(s)
        gram = closed_loop_gramian(s, ric)

        Wt = st.T.T @ gram.W @ st.T
        n_c = st.n_c
        scale = 1e-8 * (1 + np.linalg.norm(gram.W, "fro"))
        assert np.max(np.abs(Wt[n_c:, :])) <= scale
        assert np.max(np.abs(Wt[:, n_c:])) <= scale

        sub = SystemQuadruple(st.A_c, st.B_c, st.C_c, s.D)
        W_c = closed_loop_gramian(sub, solve_dare(sub)).W
        assert np.max(np.abs(Wt[:n_c, :n_c] - W_c)) <= scale

        # the reachable block is strictly positive definite
        assert singular_values(W_c)[-1] > 0
        assert is_psd(W_c)


def test_restricted_gain_stabilizes_reachable_part(golden_sys):
    st = staircase(golden_sys)
    ric = solve_dare(golden_sys)
    KT = ric.K @ st.T
    K_c, K_u = KT[:, : st.n_c], KT[:, st.n_c :]
    assert K_c.shape == (2, 2)
    assert K_u.shape == (2, 2)
    assert stability_certificate(st.A_c + st.B_c @ K_c)
