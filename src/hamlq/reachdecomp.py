"""Reachability staircase decomposition.

Computes an orthogonal change of basis ``T = [T1 T2]`` whose leading columns
span the reachable subspace of ``(A, B)``, exposing the block-triangular
partition

    T' A T = [A_c  A_cu]      T' B = [B_c]      C T = [C_c  C_u]
             [ 0   A_u ]             [ 0 ]

with a reachable pair ``(A_c, B_c)`` on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import DEFAULT_TOL, ToleranceConfig, _svd_rank, as_matrix, range_basis

__all__ = [
    "SystemQuadruple",
    "StaircaseForm",
    "staircase",
    "zero_row_indices",
]


@dataclass
class SystemQuadruple:
    """A discrete-time plant ``x+ = A x + B u``, ``y = C x + D u``."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        self.B = as_matrix(self.B, "B")
        self.C = as_matrix(self.C, "C")
        self.D = as_matrix(self.D, "D")
        n, na = self.A.shape
        if n != na:
            raise ValueError(f"A must be square, got {self.A.shape}")
        if n < 1:
            raise ValueError("A must have at least one state")
        if self.B.shape[0] != n:
            raise ValueError(f"B must have {n} rows to match A, got {self.B.shape[0]}")
        if self.B.shape[1] < 1:
            raise ValueError("B must have at least one column")
        if self.C.shape[1] != n:
            raise ValueError(f"C must have {n} columns to match A, got {self.C.shape[1]}")
        if self.C.shape[0] < 1:
            raise ValueError("C must have at least one row")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise ValueError(
                f"D must be {self.C.shape[0]}x{self.B.shape[1]} to match C and B, "
                f"got {self.D.shape}"
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass
class StaircaseForm:
    """Orthogonal staircase basis and the partitioned system blocks."""

    T: np.ndarray
    n_c: int
    A_c: np.ndarray
    A_cu: np.ndarray
    A_u: np.ndarray
    B_c: np.ndarray
    C_c: np.ndarray
    C_u: np.ndarray

    @property
    def n_u(self) -> int:
        return self.A_u.shape[0]


def staircase(sys: SystemQuadruple, cfg: ToleranceConfig = DEFAULT_TOL) -> StaircaseForm:
    """Orthogonal similarity transformation exposing the reachable part.

    The Krylov matrix ``[B, AB, ..., A^(n-1) B]``, written block by block
    into one array, has ``n m >= n`` columns and factors as ``R'Q'``, with
    ``Q R`` the QR factorization of its transpose, so the ``n x n`` factor
    ``R'`` has its singular values, which give its numerical rank ``n_c``
    (cutoff taken at the Krylov shape ``max(n, n m)``), and its left
    singular vectors ``U``:

    * if the reachable subspace is already spanned by the leading ``n_c``
      coordinate axes (no entry of the Krylov matrix below them exceeds
      ``cfg.abs_zero_tol`` times its largest entry), ``T`` is the identity,
      so systems in staircase form keep their coordinates and blocks;
    * otherwise ``T = U``, whose leading ``n_c`` columns span that subspace.

    ``n_c`` may be 0 (nothing reachable) or ``n`` (fully reachable); the
    corresponding blocks are then empty.
    """
    A, B, C = sys.A, sys.B, sys.C
    n, m = sys.n, sys.m
    kry = np.empty((n, n * m))
    kry[:, :m] = prev = B
    for i in range(m, n * m, m):
        prev = np.matmul(A, prev, out=kry[:, i : i + m])
    Rt = np.linalg.qr(kry.T, mode="r").T
    n_c = _svd_rank(Rt, cfg, False, kry.shape)[1]

    row_tol = cfg.abs_zero_tol * float(np.max(np.abs(kry)))
    bottom = kry[n_c:, :]
    if bottom.size == 0 or float(np.max(np.abs(bottom))) <= row_tol:
        T = np.eye(n)
        At, Bt, Ct = A.copy(), B.copy(), C.copy()
    else:
        T = range_basis(Rt, cfg)[0]
        At = T.T @ A @ T
        Bt = T.T @ B
        Ct = C @ T
    return StaircaseForm(
        T=T,
        n_c=n_c,
        A_c=At[:n_c, :n_c],
        A_cu=At[:n_c, n_c:],
        A_u=At[n_c:, n_c:],
        B_c=Bt[:n_c, :],
        C_c=Ct[:, :n_c],
        C_u=Ct[:, n_c:],
    )


def zero_row_indices(M, cfg: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """1-based indices of the rows of ``M`` that are zero relative to ``max|M|``.

    A row is zero when its infinity norm is at most ``cfg.abs_zero_tol *
    max|M|``, so scaling ``M`` keeps its zero rows; every row of the zero
    matrix is zero.
    """
    M = as_matrix(M, "M")
    if M.size == 0:
        return []
    tol = cfg.abs_zero_tol * float(np.max(np.abs(M)))
    row_norms = np.max(np.abs(M), axis=1)
    return [int(i) + 1 for i in np.nonzero(row_norms <= tol)[0]]
