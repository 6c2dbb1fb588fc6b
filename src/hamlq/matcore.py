"""Dense real-matrix kernels used throughout the package.

All routines operate on plain two-dimensional ``numpy.float64`` arrays.
Inputs are validated to be finite; non-finite entries raise ``ValueError``
instead of propagating NaNs silently. Every function is pure and safe for
concurrent use.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, SingularMatrix

EPS = float(np.finfo(np.float64).eps)

__all__ = [
    "EPS",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_matrix",
    "solve_linear",
    "singular_values",
    "rank",
    "is_psd",
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
        boundary systems), relative to ``1 + norm(solution)``.
    max_iter : int
        Iteration budget for the doubling and Newton loops.
    staircase_tol_factor : float, optional
        Separate rank-tolerance factor for the reachability decomposition;
        structural decisions can be tuned independently of generic rank
        queries. ``None`` falls back to ``rank_tol_factor``.
    """

    rank_tol_factor: float = EPS
    abs_zero_tol: float = 1e-12
    residual_tol: float = 1e-10
    max_iter: int = 100
    staircase_tol_factor: float | None = None

    def __post_init__(self):
        for name in ("rank_tol_factor", "abs_zero_tol", "residual_tol"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")
        if self.staircase_tol_factor is not None and not self.staircase_tol_factor >= 0.0:
            raise ValueError("staircase_tol_factor must be nonnegative")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")

    @property
    def staircase_factor(self) -> float:
        if self.staircase_tol_factor is None:
            return self.rank_tol_factor
        return self.staircase_tol_factor


DEFAULT_TOL = ToleranceConfig()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float64 array or raise ``ValueError``."""
    m = np.array(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def solve_linear(M, rhs, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Solve ``M @ X = rhs`` by LU elimination with row pivoting.

    ``rhs`` may be a vector or a matrix with matching row count. Raises
    ``SingularMatrix`` when any pivot magnitude falls below
    ``abs_zero_tol * max|M|``.
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
    if r.size and not np.all(np.isfinite(r)):
        raise ValueError("rhs contains non-finite entries")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    pivots = np.abs(np.diag(lu))
    scale = _max_abs(M)
    if scale == 0.0 or float(pivots.min()) < cfg.abs_zero_tol * scale:
        raise SingularMatrix(
            f"matrix is singular to working tolerance (min pivot "
            f"{pivots.min() if pivots.size else 0.0:.3e}, scale {scale:.3e})"
        )
    x = scipy.linalg.lu_solve((lu, piv), r, check_finite=False)
    return x[:, 0] if vector else x


def singular_values(M) -> np.ndarray:
    """Singular values of ``M`` in nonincreasing order."""
    M = as_matrix(M, "M")
    try:
        return np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"singular value iteration did not converge: {exc}") from exc


def rank(M, cfg: ToleranceConfig = DEFAULT_TOL, *, tol_factor: float | None = None) -> int:
    """Numerical rank: singular values above ``sigma_max * max(dims) * factor``.

    The factor defaults to ``cfg.rank_tol_factor``; the zero matrix has rank 0.
    """
    M = as_matrix(M, "M")
    s = singular_values(M)
    if s.size == 0 or s[0] == 0.0:
        return 0
    factor = cfg.rank_tol_factor if tol_factor is None else tol_factor
    return int(np.count_nonzero(s > s[0] * max(M.shape) * factor))


def is_psd(M, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether ``M`` is symmetric positive semidefinite within tolerance.

    Symmetry is required up to ``abs_zero_tol * max|M|``; semidefiniteness is
    probed by a Cholesky factorization of the symmetrized matrix shifted by
    ``abs_zero_tol * (1 + max|M|)`` on the diagonal, so the zero matrix counts
    as positive semidefinite.
    """
    M = as_matrix(M, "M")
    n, nc = M.shape
    if n != nc:
        raise ValueError(f"M must be square, got {M.shape}")
    if n == 0:
        return True
    scale = _max_abs(M)
    if _max_abs(M - M.T) > cfg.abs_zero_tol * scale:
        return False
    sym = 0.5 * (M + M.T)
    shift = cfg.abs_zero_tol * (1.0 + scale)
    try:
        np.linalg.cholesky(sym + shift * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True
