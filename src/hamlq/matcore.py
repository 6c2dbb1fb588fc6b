"""Dense real-matrix kernels used throughout the package.

All routines operate on plain two-dimensional ``numpy.float64`` arrays.
Inputs are validated to be finite; non-finite entries raise ``ValueError``
instead of propagating NaNs silently. Every function is pure and safe for
concurrent use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import ConvergenceFailure, SingularMatrix

EPS = float(np.finfo(np.float64).eps)

__all__ = [
    "EPS",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_matrix",
    "fro_norm",
    "residual_norms",
    "solve_linear",
    "rank",
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
        Threshold for treating pivots, rows and asymmetries as zero, relative
        to the magnitude of the matrix at hand.
    residual_tol : float
        Acceptance threshold for equation residuals (Riccati, Lyapunov,
        boundary systems), relative to the size of what the residual is
        formed from: one plus the largest of the Riccati equation's terms,
        the Smith iterate, or one plus ``|rhs| + |M| |z|`` for a boundary
        system.
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


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float64 array or raise ``ValueError``."""
    m = np.array(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def fro_norm(X: np.ndarray) -> float:
    """Frobenius norm of an array (2-norm of a vector), as ``np.linalg.norm`` computes it.

    ``np.linalg.norm(X, "fro")`` takes this same path, a dot product of the
    entries in memory order, behind several microseconds of argument
    handling. ``order="K"`` keeps that summation order for transposed and
    strided operands; a C-order ravel of a transposed matrix would sum in
    another order and round differently.
    """
    v = X.ravel(order="K")
    return math.sqrt(v.dot(v))


def residual_norms(residual: np.ndarray, terms) -> tuple[float, float]:
    """Frobenius norm of ``residual`` and that norm over ``1 + max`` of the terms' norms.

    ``terms`` are the matrices the residual is summed from, so the relative
    value is free of the cancellation that a scale taken from the solution
    alone misses.
    """
    raw = fro_norm(residual)
    return raw, raw / (1.0 + max(fro_norm(t) for t in terms))


def _max_abs(m: np.ndarray) -> float:
    return float(np.abs(m).max()) if m.size else 0.0


def solve_linear(M, rhs, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Solve ``M @ X = rhs`` by LU elimination with row pivoting.

    ``rhs`` may be a vector or a matrix with matching row count. Raises
    ``SingularMatrix`` when any pivot magnitude falls below
    ``abs_zero_tol * max|M|``. Calls LAPACK ``dgetrf`` and ``dgetrs``, the
    routines ``scipy.linalg.lu_factor`` and ``lu_solve`` wrap, directly.
    """
    M = as_matrix(M, "M")
    n, nc = M.shape
    if n != nc:
        raise ValueError(f"M must be square, got {M.shape}")
    r = np.array(rhs, dtype=np.float64)
    vector = r.ndim == 1
    if vector:
        r = r[:, None]
    if r.ndim != 2 or r.shape[0] != n:
        raise ValueError(f"rhs row count {r.shape[0] if r.ndim else '?'} does not match M ({n})")
    if r.size and not np.isfinite(r).all():
        raise ValueError("rhs contains non-finite entries")

    scale = _max_abs(M)
    min_pivot = 0.0
    # dgetrf rejects n = 0; an exactly zero pivot, which its info flags,
    # fails the pivot test below.
    if scale > 0.0:
        lu, piv, _ = dgetrf(M)
        min_pivot = float(np.abs(lu.diagonal()).min())
    if scale == 0.0 or min_pivot < cfg.abs_zero_tol * scale:
        raise SingularMatrix(
            f"matrix is singular to working tolerance (min pivot "
            f"{min_pivot:.3e}, scale {scale:.3e})"
        )
    x, _ = dgetrs(lu, piv, r)
    return x[:, 0] if vector else x


def rank(M, cfg: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above ``sigma_max * max(dims) * rank_tol_factor``.

    The zero matrix has rank 0.
    """
    M = as_matrix(M, "M")
    try:
        s = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"singular value iteration did not converge: {exc}") from exc
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > s[0] * max(M.shape) * cfg.rank_tol_factor))
