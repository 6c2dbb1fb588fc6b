"""Reachability staircase decomposition.

Computes an orthogonal change of basis ``T = [T1 T2]`` whose leading columns
span the reachable subspace of ``(A, B)``, exposing the block-triangular
partition

    T' A T = [A_c  A_cu]      T' B = [B_c]      C T = [C_c  C_u]
             [ 0   A_u ]             [ 0 ]

with a reachable pair ``(A_c, B_c)`` on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import DEFAULT_TOL, ToleranceConfig, _checked_matrix, _svd_rank, as_matrix, range_basis

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


def _krylov_factor(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Triangular factor ``R`` of the Krylov matrix's transpose, ``K' = Q R``.

    The blocks ``A^k B``, ``k < n``, are written transposed, ``m`` rows at a
    time, into one buffer under the current triangular factor. Before a
    block that would not fit, the buffer is folded: ``np.linalg.qr(...,
    mode="r")`` of its rows is put back on top, so the ``n x nm`` Krylov
    matrix is never held. Only then is the previous block copied, as the
    fold writes over its rows. The buffer has ``max(n + m ceil(n/m),
    min(nm, 128))`` rows, so each fold leaves room for at least ``n`` rows
    of whole blocks, and a Krylov matrix of at most 128 rows is held whole
    and folded once: at that size a second QR call costs more time than the
    rows cost memory. Returns the ``n x n`` factor, a view of the buffer
    (zero rows pad a factor of fewer than ``n`` rows).

    The blocks keep their relative sizes. The rounding errors of each
    product grow through the later blocks with the plant's own dynamics,
    and the rank cutoff, relative to the largest block, is what keeps them
    out of ``n_c``; a block scaled up to unit size would carry its errors
    above the cutoff wherever the reachable part decays faster than the
    unreachable one. Powers of two rescale only to stay in float64 range.
    ``B`` is brought to a largest entry in ``[0.5, 1)``, which changes no
    relative size. ``A`` is brought there too when its largest entry lies
    outside ``2^±400``, where its unscaled products over- or underflow. A
    product raises the largest entry of a block at most ``n max|A|`` times,
    so every ``500 / log2(n max|A|)`` products (never, when ``n max|A| <=
    1``) the block is checked: one whose largest entry passes ``2^400`` is
    brought to ``[0.5, 1)`` with every row before it, and no entry ever
    passes ``2^900`` (rows that underflow lie far under the cutoff).
    """
    n, m = B.shape
    rows = max(n + m * -(-n // m), min(n * m, 128))
    buf = np.empty((rows, n))

    def fold(fill):  # the factor of buf[:fill] into its top rows; returns its row count
        R = np.linalg.qr(buf[:fill], mode="r")
        buf[: len(R)] = R
        return len(R)

    b_max = float(np.abs(B).max())
    if not b_max:  # nothing is reachable
        return np.zeros((n, n))
    a_max = float(np.abs(A).max())
    if a_max and not 2.0**-400 <= a_max <= 2.0**400:
        A = np.ldexp(A, -math.frexp(a_max)[1])
        a_max = 1.0
    growth = math.log2(n * a_max) if a_max else 0.0
    check_every = int(500 / growth) if growth > 0.0 else n
    At = A.T
    block = np.ldexp(B.T, -math.frexp(b_max)[1], out=buf[:m])
    top, fill = 0, m  # rows of buf holding the current factor, rows written
    for k in range(1, n):
        if fill + m > rows:
            block = block.copy()
            top = fill = fold(fill)
        block = np.matmul(block, At, out=buf[fill : fill + m])
        fill += m
        if not k % check_every and (big := float(np.abs(block).max())) > 2.0**400:
            np.ldexp(buf[:fill], -math.frexp(big)[1], out=buf[:fill])
    if fill > top:
        top = fold(fill)
    buf[top:n] = 0.0
    return buf[:n]


def staircase(sys: SystemQuadruple, cfg: ToleranceConfig = DEFAULT_TOL) -> StaircaseForm:
    """Orthogonal similarity transformation exposing the reachable part.

    ``n_c`` is the numerical rank of the Krylov matrix ``K = [B, AB, ...,
    A^(n-1) B]``. It has ``n m >= n`` columns and factors as ``R'Q'``, with
    ``Q R`` the QR factorization of its transpose. ``R`` is folded up from
    the blocks as they are formed (``_krylov_factor``), so the Krylov matrix
    itself is never held; the blocks keep their relative sizes, rescaled
    together by powers of two only to stay in float64 range. The ``n x n``
    factor ``R'`` has the Krylov matrix's singular values, which give
    ``n_c`` (cutoff taken at the Krylov shape ``max(n, n m)``), and its left
    singular vectors ``U``. As ``K K' = R'R``, row ``i`` of ``R'`` is zero
    exactly where row ``i`` of ``K`` is:

    * if the reachable subspace is already spanned by the leading ``n_c``
      coordinate axes (every row of ``R'`` below them is in
      ``zero_row_indices(R', cfg)``), ``T`` is the identity, so systems in
      staircase form keep their coordinates and blocks;
    * otherwise ``T = U``, whose leading ``n_c`` columns span that subspace.

    ``n_c`` may be 0 (nothing reachable) or ``n`` (fully reachable); the
    corresponding blocks are then empty. From ``n = 64`` on, with ``m <=
    n``, the call peaks at about 5.2 ``n x n`` arrays: the fold buffer of
    ``n + m ceil(n/m)`` rows and ``np.linalg.qr``'s copy of it.
    """
    A, B, C = sys.A, sys.B, sys.C
    n, m = sys.n, sys.m
    Rt = _krylov_factor(A, B).T
    n_c = _svd_rank(Rt, cfg, False, (n, n * m))[1]
    # n_c == n leaves no row to test, so the rows are not scanned
    if n_c == n or set(range(n_c + 1, n + 1)) <= set(zero_row_indices(Rt, cfg)):
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
    M = _checked_matrix(M, "M")  # a float64 array in place: it is only read
    if M.size == 0:
        return []
    row_norms = np.abs(M).max(axis=1)
    tol = cfg.abs_zero_tol * float(row_norms.max())
    return [int(i) + 1 for i in np.nonzero(row_norms <= tol)[0]]
