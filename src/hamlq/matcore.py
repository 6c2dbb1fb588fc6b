"""Dense real-matrix kernels used throughout the package.

All routines operate on plain two-dimensional ``numpy.float64`` arrays.
Inputs are validated to be finite; non-finite entries raise ``ValueError``
instead of propagating NaNs silently. Every function is pure and safe for
concurrent use.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, SingularMatrix

EPS = float(np.finfo(np.float64).eps)
# the least norm whose plain sum of squares is a normal float64
_SQRT_TINY = math.sqrt(float(np.finfo(np.float64).tiny))
_INF = math.inf

__all__ = [
    "EPS",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_matrix",
    "fro_norm",
    "residual_norms",
    "solve_linear",
    "rank",
    "range_basis",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerance policy shared by all solvers.

    Parameters
    ----------
    rank_tol_factor : float
        Singular values below ``sigma_max * max(rows, cols) * rank_tol_factor``
        are treated as zero when counting rank. Defaults to the unit roundoff
        of binary64.
    abs_zero_tol : float
        Threshold for treating pivots and rows as zero. Its four uses:
        ``solve_linear``'s squared Cholesky pivots, relative to ``max|M|``;
        ``solve_dare``'s on its final ``Rw``, absolutely (ROADMAP item 4);
        the staircase's ``T = I`` rows and ``zero_row_indices``, a row's
        largest entry relative to the matrix's.
    residual_tol : float
        Acceptance threshold for equation residuals (Riccati, Lyapunov,
        boundary systems), relative to the size of what the residual is
        formed from: one plus the largest of the Riccati equation's terms,
        the Smith iterate, or one plus ``|rhs| + |M|_F |z|`` for a boundary
        system ``M z = rhs``.
    max_iter : int
        Iteration budget for the doubling and Newton loops.
    """

    rank_tol_factor: float = EPS
    abs_zero_tol: float = 1e-12
    residual_tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        for name in ("rank_tol_factor", "abs_zero_tol", "residual_tol"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")


DEFAULT_TOL = ToleranceConfig()


def _float_array(a, name: str) -> np.ndarray:
    """``a`` as a new float64 array, or ``ValueError`` naming ``name``.

    numpy would keep only the real part of complex input, with a warning. An
    array's dtype is checked, free on the hot paths; in other input, numpy
    scalars become Python numbers, so a complex entry fails the conversion.
    """
    is_array = isinstance(a, (np.ndarray, np.generic))
    if is_array and a.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got a complex array")
    try:  # a dict, a complex number, a ragged row, a non-numeric string, a huge int
        if not is_array and (probe := np.asarray(a)).dtype.kind in "cO":
            a = np.frompyfunc(lambda v: v.item() if isinstance(v, np.generic) else v, 1, 1)(probe)
        return np.array(a, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} has an entry that is not a number: {exc}") from exc


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a new finite 2-D float64 array or raise ``ValueError``."""
    return _checked_matrix(_float_array(a, name), name)


def _checked_matrix(a, name: str) -> np.ndarray:
    """``a`` itself, checked as ``as_matrix`` checks, when a float64 array, else ``as_matrix(a)``."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64):
        return as_matrix(a, name)
    if a.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _finite_product(M: np.ndarray, name: str, data: str = "the cost data (C, D)") -> np.ndarray:
    """``M``, a product formed from finite ``data`` under ``np.errstate``,
    or ``ConvergenceFailure`` when it overflowed float64."""
    if not np.isfinite(M).all():
        raise ConvergenceFailure(f"{name} overflows float64: {data} are too large to solve with")
    return M


def fro_norm(X: np.ndarray) -> float:
    """Frobenius norm of an array (2-norm of a vector), as ``np.linalg.norm`` computes it.

    ``np.linalg.norm(X, "fro")`` takes this same path, a dot product of the
    entries in memory order, behind several microseconds of argument
    handling. ``order="K"`` keeps that summation order for transposed and
    strided operands; a C-order ravel of a transposed matrix would sum in
    another order and round differently.

    Only where that plain sum overflows, or is below the least normal
    float64 with a nonzero entry, are the entries first scaled by a power of
    two near ``max|X|``. So a norm of at least ``_SQRT_TINY`` keeps its bits,
    an entry above about 1.3e154 no longer reads as an infinite norm, and
    entries below about 1.5e-154 no longer lose their squares to underflow.
    An infinite or NaN entry still gives a non-finite norm, and a norm
    beyond float64 range is ``inf``. numpy reports the plain sum's overflow
    as the caller's ``np.errstate`` says: under ``over="ignore"`` the
    rescaled norm is returned, and under ``over="raise"`` the overflow is
    raised.
    """
    v = X.ravel(order="K")
    norm = math.sqrt(v.dot(v))
    if _SQRT_TINY <= norm < _INF:
        return norm
    big = max(v.max(initial=0.0), -v.min(initial=0.0))
    if not 0.0 < big < _INF:  # a NaN or infinite entry, or no nonzero one
        return norm
    e = math.frexp(big)[1]
    v = np.ldexp(v, -e)
    try:
        return math.ldexp(math.sqrt(v.dot(v)), e)
    except OverflowError:
        return _INF  # beyond float64 range


def _vec_norm(v: np.ndarray) -> float:
    """2-norm of a 1-D array: ``fro_norm``'s plain sum of squares, without its rescale."""
    return math.sqrt(v.dot(v))


def _sym_into(M: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``(M' + M) / 2`` written over ``M`` and returned, with ``buf`` as scratch.

    ``M' + M``, not ``M + M'``: numpy's ufunc would buffer-copy the
    transposed operand, while a copy assignment takes it by strides. IEEE
    addition commutes, so the bits are those of ``0.5 * (M + M.T)``.
    """
    buf[:] = M.T
    buf += M
    return np.multiply(buf, 0.5, out=M)


def residual_norms(products, minus: np.ndarray | None = None) -> tuple[float, float]:
    """Frobenius norm of ``t_0 + t_1 + ... - minus``, raw and over ``1 + max`` term norm.

    Term ``t_i`` is the left-to-right product of the factors ``products[i]``.
    Each is formed, measured, added into one accumulator (a copy of ``t_0``,
    as a term may be an input) and dropped, so one term is held at a time and
    the sum rounds as the plain left-to-right expression does. Scaling by the
    terms the residual is summed from, ``minus`` among them, keeps the
    relative value free of the cancellation a scale from the solution misses.
    """
    acc, norms = None, []
    # a product or sum that overflows float64 makes its norm, and so the
    # result, non-finite without a numpy warning; fro_norm scales a finite
    # array whose plain sum of squares alone overflows
    with np.errstate(over="ignore", invalid="ignore"):
        for factors in products:
            term = functools.reduce(np.matmul, factors)
            norms.append(fro_norm(term))
            acc = term.copy() if acc is None else np.add(acc, term, out=acc)
            del term
        if minus is not None:
            norms.append(fro_norm(minus))
            acc -= minus
        raw = fro_norm(acc)
    return raw, raw / (1.0 + max(norms))


def solve_linear(M, rhs, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Solve ``M @ X = rhs`` for a symmetric positive definite ``M``.

    ``rhs`` may be a vector or a matrix with matching row count. Raises
    ``SingularMatrix`` when the Cholesky factorization of ``M`` fails or its
    smallest squared pivot falls below ``abs_zero_tol * max|M|``. The solve
    is ``np.linalg.solve``; a matrix result is returned Fortran-ordered,
    because the layout of a gain decides how later products with it round.
    float64 arrays are checked in place, not copied; neither is written.
    """
    M = _checked_matrix(M, "M")
    n, nc = M.shape
    if n != nc:
        raise ValueError(f"M must be square, got {M.shape}")
    r = rhs if isinstance(rhs, np.ndarray) and rhs.dtype == np.float64 else _float_array(rhs, "rhs")
    if r.ndim not in (1, 2) or r.shape[0] != n:
        raise ValueError(f"rhs row count {r.shape[0] if r.ndim else '?'} does not match M ({n})")
    if r.size and not np.isfinite(r).all():
        raise ValueError("rhs contains non-finite entries")

    scale = float(np.abs(M).max()) if M.size else 0.0
    try:
        min_pivot = float(np.linalg.cholesky(M).diagonal().min()) ** 2 if scale else 0.0
    except np.linalg.LinAlgError:  # not positive definite: singular at every scale,
        min_pivot = -_INF  # also where abs_zero_tol * scale underflows to zero
    if scale == 0.0 or min_pivot < cfg.abs_zero_tol * scale:
        raise SingularMatrix(
            f"matrix is singular to working tolerance (min pivot "
            f"{min_pivot:.3e}, scale {scale:.3e})"
        )
    x = np.linalg.solve(M, r)
    return x if r.ndim == 1 else np.asfortranarray(x)


def _svd_rank(M, cfg: ToleranceConfig, compute_uv: bool, shape=None):
    """Thin SVD of ``M`` and its rank, counted at the cutoff for ``max(shape or M.shape)``.

    A float64 array is checked in place, not copied; the SVD only reads it.
    """
    M = _checked_matrix(M, "M")
    try:
        out = np.linalg.svd(M, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"singular value iteration did not converge: {exc}") from exc
    s = out[1] if compute_uv else out
    cutoff = s.max(initial=0.0) * max(shape or M.shape) * cfg.rank_tol_factor
    return out, int(np.count_nonzero(s > cutoff))


def rank(M, cfg: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above ``sigma_max * max(dims) * rank_tol_factor``.

    The zero matrix has rank 0.
    """
    return _svd_rank(M, cfg, False)[1]


def range_basis(M, cfg: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """``U`` of the thin SVD of ``M`` and ``r = rank(M, cfg)`` read off the same SVD.

    ``U[:, :r]`` is an orthonormal basis of the column span of ``M``.
    """
    (U, _, _), r = _svd_rank(M, cfg, True)
    return U, r
