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
import scipy.linalg

from .matcore import DEFAULT_TOL, ToleranceConfig, as_matrix, rank

__all__ = [
    "SystemQuadruple",
    "StaircaseForm",
    "reachability_matrix",
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


def reachability_matrix(A, B) -> np.ndarray:
    """Krylov block matrix ``[B, AB, ..., A^(n-1) B]``."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def staircase(sys: SystemQuadruple, cfg: ToleranceConfig = DEFAULT_TOL) -> StaircaseForm:
    """Orthogonal similarity transformation exposing the reachable part.

    The reachable dimension ``n_c`` is the numerical rank of the Krylov
    matrix. The basis is chosen
    deterministically:

    * if the reachable subspace is already spanned by the leading ``n_c``
      coordinate axes (the Krylov matrix has numerically zero rows below
      them), ``T`` is the identity, so systems supplied in staircase form
      keep their coordinates;
    * otherwise ``T`` comes from a column-pivoted Householder QR of the
      Krylov matrix (pivot on the largest remaining column norm).

    ``n_c`` may be 0 (nothing reachable) or ``n`` (fully reachable); the
    corresponding blocks are then empty.
    """
    A, B, C = sys.A, sys.B, sys.C
    n = sys.n
    kry = reachability_matrix(A, B)
    n_c = rank(kry, cfg)

    row_tol = cfg.abs_zero_tol * (1.0 + (float(np.max(np.abs(kry))) if kry.size else 0.0))
    bottom = kry[n_c:, :]
    if bottom.size == 0 or float(np.max(np.abs(bottom))) <= row_tol:
        T = np.eye(n)
    else:
        Qfull, _, _ = scipy.linalg.qr(kry, pivoting=True, mode="full")
        T = Qfull

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
    """1-based indices of rows with infinity norm below the zero threshold."""
    M = as_matrix(M, "M")
    if M.size == 0:
        return []
    tol = cfg.abs_zero_tol * (1.0 + float(np.max(np.abs(M))))
    row_norms = np.max(np.abs(M), axis=1) if M.shape[1] else np.zeros(M.shape[0])
    return [int(i) + 1 for i in np.nonzero(row_norms <= tol)[0]]
