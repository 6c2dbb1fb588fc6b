import dataclasses

import numpy as np
import pytest

from hamlq.errors import SingularMatrix
from hamlq.golden import REFERENCE_V2
from hamlq.matcore import (
    DEFAULT_TOL,
    EPS,
    ToleranceConfig,
    as_matrix,
    fro_norm,
    rank,
    residual_norms,
    solve_linear,
)


def test_tolerance_defaults():
    cfg = ToleranceConfig()
    assert cfg.rank_tol_factor == EPS
    assert cfg.abs_zero_tol == 1e-12
    assert cfg.residual_tol == 1e-10
    assert cfg.max_iter == 100
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "rank_tol_factor",
        "abs_zero_tol",
        "residual_tol",
        "max_iter",
    ]


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


@pytest.mark.parametrize("entries", [{"x": 1}, [[1.0, {}]], [[1, [2]]], [["abc"]]])
def test_as_matrix_names_the_matrix_with_a_non_numeric_entry(entries):
    with pytest.raises(ValueError, match="^B has an entry that is not a number"):
        as_matrix(entries, "B")


@pytest.mark.parametrize(
    "a", [np.array([[1 + 2j]]), np.array([[1 + 0j]]), np.ones((2, 2), np.complex64)]
)
def test_as_matrix_rejects_a_complex_array(a):
    # numpy's own conversion keeps only the real part, with a ComplexWarning
    with pytest.raises(ValueError, match="^B must be real, got a complex array"):
        as_matrix(a, "B")


def test_as_matrix_accepts_numeric_strings():
    np.testing.assert_array_equal(as_matrix([["1", "2.5"]], "M"), [[1.0, 2.5]])


def test_solve_linear_identity():
    X = solve_linear(np.eye(2), np.array([[3.0], [7.0]]))
    np.testing.assert_allclose(X, [[3.0], [7.0]])


def test_solve_linear_diagonal():
    X = solve_linear(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 4.0]))
    np.testing.assert_allclose(X, [1.0, 1.0])


def test_solve_linear_singular():
    with pytest.raises(SingularMatrix):
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))
    with pytest.raises(SingularMatrix):
        solve_linear(np.zeros((2, 2)), np.eye(2))


def test_solve_linear_backward_error():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        G = rng.standard_normal((n, n))
        M = G @ G.T + np.eye(n)
        b = rng.standard_normal(n)
        x = solve_linear(M, b)
        assert np.linalg.norm(M @ x - b) <= 1e-9 * np.linalg.norm(M) * (1 + np.linalg.norm(b))


def test_solve_linear_bitwise_equals_numpy_solve():
    # A matrix result is Fortran-ordered, as LAPACK's dgetrs writes it: the
    # layout of a gain decides how later products with it round.
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 20, 50):
        G = rng.standard_normal((n, n))
        M = G @ G.T + n * np.eye(n)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            assert np.array_equal(solve_linear(M, rhs), np.linalg.solve(M, rhs))
        # a Fortran-ordered M and a strided rhs give the same bits
        rhs = rng.standard_normal((2 * n, 4))[::2]
        x = solve_linear(np.asfortranarray(M), rhs)
        assert np.array_equal(x, np.linalg.solve(M, rhs))
        assert x.flags.f_contiguous


@pytest.mark.parametrize(
    "M, rhs, error",
    [
        (np.zeros((0, 0)), np.zeros(0), SingularMatrix),
        (np.ones((3, 3)), np.ones(3), SingularMatrix),
        (np.diag([1.0, 1e-13]), np.ones(2), SingularMatrix),
        (np.ones((2, 3)), np.ones(2), ValueError),
        (np.eye(2), np.ones(3), ValueError),
        (np.eye(2), np.ones((2, 2, 1)), ValueError),
        (np.eye(2), np.array([1.0, np.inf]), ValueError),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2), ValueError),
        (np.ones(2), np.ones(2), ValueError),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2), SingularMatrix),
    ],
)
def test_solve_linear_rejects(M, rhs, error):
    with pytest.raises(error):
        solve_linear(M, rhs)


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
    assert rank(M, ToleranceConfig(rank_tol_factor=1e-6)) == 1


def test_default_tol_is_shared_instance():
    assert DEFAULT_TOL == ToleranceConfig()


def test_fro_norm_equals_numpy_norm_bitwise():
    # fro_norm takes np.linalg.norm's own path; the operands cover every
    # layout the solvers hand it, and entries spread over ten decades make
    # the summation order show in the last bits.
    rng = np.random.default_rng(31)
    for shape in [(0, 0), (1, 1), (1, 9), (7, 3), (20, 20), (64, 33)]:
        X = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, size=shape)
        views = [X, np.asfortranarray(X), X.T, X[::2, ::3], X[::-1, ::2].T, np.asfortranarray(X)[1:, :]]
        for V in views:
            assert fro_norm(V) == float(np.linalg.norm(V, "fro"))
        for v in (X.ravel(), X.ravel()[::3], X.T.ravel()[::-2]):
            assert fro_norm(v) == float(np.linalg.norm(v))


def test_residual_norms_equals_the_plain_sum_and_writes_no_input():
    # terms are summed left to right, as the plain expression does, and a
    # term that is an input matrix (a single factor) is never accumulated into
    rng = np.random.default_rng(32)
    A, X, Y, Z = (rng.standard_normal((6, 6)) * 10.0 ** rng.uniform(-4, 4, (6, 6)) for _ in range(4))
    B = rng.standard_normal((6, 2))
    U = rng.standard_normal((2, 6))
    inputs = [M.copy() for M in (A, X, Y, Z, B, U)]
    cases = [
        ([(A,), (B, U)], Z, (A, B @ U, Z), A + B @ U - Z),
        ([(A, X), (Y,), (X.T, A, Y)], Z, (A @ X, Y, X.T @ A @ Y, Z), A @ X + Y + X.T @ A @ Y - Z),
        ([(Y,), (A, X), (B, U)], None, (Y, A @ X, B @ U), Y + A @ X + B @ U),
    ]
    for products, minus, terms, residual in cases:
        raw = fro_norm(residual)
        assert residual_norms(products, minus) == (
            raw,
            raw / (1.0 + max(fro_norm(t) for t in terms)),
        )
    for before, after in zip(inputs, (A, X, Y, Z, B, U)):
        assert np.array_equal(before, after)
