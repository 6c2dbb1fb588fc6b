import numpy as np
import pytest

from hamlq.errors import SingularMatrix
from hamlq.golden import REFERENCE_V2
from hamlq.matcore import (
    DEFAULT_TOL,
    EPS,
    ToleranceConfig,
    as_matrix,
    is_psd,
    rank,
    singular_values,
    solve_linear,
)


def test_tolerance_defaults():
    cfg = ToleranceConfig()
    assert cfg.rank_tol_factor == EPS
    assert cfg.abs_zero_tol == 1e-12
    assert cfg.residual_tol == 1e-10
    assert cfg.max_iter == 100
    assert cfg.staircase_tol_factor is None
    assert cfg.staircase_factor == cfg.rank_tol_factor


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(rank_tol_factor=-1.0)
    with pytest.raises(ValueError):
        ToleranceConfig(max_iter=0)
    with pytest.raises(ValueError):
        ToleranceConfig(residual_tol=-1e-3)


@pytest.mark.parametrize("max_iter", [50.0, 2.5, True, "50", None])
def test_tolerance_rejects_non_integer_max_iter(max_iter):
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        ToleranceConfig(max_iter=max_iter)


def test_tolerance_accepts_numpy_integer_max_iter():
    assert ToleranceConfig(max_iter=np.int64(7)).max_iter == 7


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0], "v")
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0]], "M")
    M = as_matrix([[1, 2], [3, 4]], "M")
    assert M.dtype == np.float64


def test_solve_linear_identity():
    X = solve_linear(np.eye(2), np.array([[3.0], [7.0]]))
    np.testing.assert_allclose(X, [[3.0], [7.0]])


def test_solve_linear_diagonal():
    X = solve_linear(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 4.0]))
    np.testing.assert_allclose(X, [1.0, 1.0])


def test_solve_linear_permutation():
    X = solve_linear(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([3.0, 7.0]))
    np.testing.assert_allclose(X, [7.0, 3.0])


def test_solve_linear_singular():
    with pytest.raises(SingularMatrix):
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))
    with pytest.raises(SingularMatrix):
        solve_linear(np.zeros((2, 2)), np.eye(2))


def test_solve_linear_backward_error():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        M = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        b = rng.standard_normal(n)
        x = solve_linear(M, b)
        assert np.linalg.norm(M @ x - b) <= 1e-9 * np.linalg.norm(M) * (1 + np.linalg.norm(b))


def test_rank_basic():
    assert rank(np.eye(3)) == 3
    assert rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert rank(np.zeros((3, 2))) == 0


def test_rank_of_reference_v2_is_three():
    assert rank(REFERENCE_V2) == 3


def test_rank_transpose_invariant():
    rng = np.random.default_rng(2)
    for _ in range(20):
        M = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        assert rank(M) == rank(M.T)


def test_rank_tolerance_override():
    M = np.diag([1.0, 1e-9])
    assert rank(M) == 2
    assert rank(M, tol_factor=1e-6) == 1


def test_singular_values():
    np.testing.assert_allclose(singular_values(np.diag([3.0, 1.0])), [3.0, 1.0])
    np.testing.assert_allclose(
        singular_values(np.array([[0.0, 1.0], [0.0, 0.0]])), [1.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        singular_values(np.array([[1.0, 2.0], [2.0, 4.0]])), [5.0, 0.0], atol=1e-14
    )


def test_singular_values_properties():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        s = singular_values(M)
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)
        assert abs(np.sum(s**2) - np.linalg.norm(M, "fro") ** 2) <= 1e-10 * (
            1 + np.linalg.norm(M, "fro") ** 2
        )


def test_is_psd():
    assert is_psd(np.eye(2))
    assert not is_psd(np.array([[-1.0]]))
    assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not is_psd(np.array([[1.0, 5.0], [0.0, 1.0]]))  # not symmetric
    assert is_psd(np.zeros((3, 3)))
    v = np.array([[1.0], [2.0], [-1.0]])
    assert is_psd(v @ v.T)  # rank deficient but PSD


def test_default_tol_is_shared_instance():
    assert DEFAULT_TOL == ToleranceConfig()
