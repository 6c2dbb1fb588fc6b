"""Seeded system generators for the hamlq benchmark.

Each generator draws from the ``numpy.random.Generator`` it is given and
returns the system together with the structure the construction guarantees
(``Expect``), which the correctness checks compare the program's report
against. The same seed always yields the same systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from hamlq.golden import golden_system
from hamlq.reachdecomp import SystemQuadruple


@dataclass(frozen=True)
class Expect:
    """Structure known from the construction.

    ``zero_rows`` is the exact ``zero_rows_Au`` list when the generator keeps
    the staircase basis (so ``T = I``), ``None`` when the system is rotated:
    which rows of ``A_u`` vanish depends on the basis, so only their count
    (the rank deficiency of ``V2``) is checked then. ``rank_drop`` is that
    count, or ``None`` where the construction says nothing about ``V2``.
    """

    n_c: int
    zero_rows: tuple[int, ...] | None = None
    rank_drop: int | None = None


def stable_matrix(rng, k: int, radius: float) -> np.ndarray:
    """Random k x k matrix scaled to spectral radius ``radius``."""
    M = rng.standard_normal((k, k))
    return M * (radius / float(np.max(np.abs(np.linalg.eigvals(M)))))


def random_orthogonal(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def change_basis(sysq: SystemQuadruple, T: np.ndarray) -> SystemQuadruple:
    """The system in the coordinates x' = T x, for orthogonal T."""
    return SystemQuadruple(A=T @ sysq.A @ T.T, B=T @ sysq.B, C=sysq.C @ T.T, D=sysq.D)


def golden() -> tuple[SystemQuadruple, Expect]:
    """The paper's reference system: n_c = 2, A_u row 2 is zero, rank V2 = 3."""
    return golden_system(), Expect(n_c=2, zero_rows=(2,), rank_drop=1)


def generic_stable(rng, n: int, radius: float, m: int = 3, p: int = 3, singular_D: bool = False):
    """A of spectral radius ``radius`` < 1 with generic B, so (A, B) is
    reachable: n_c = n.

    ``singular_D`` zeroes the last column of D, making D'D singular.
    """
    A = stable_matrix(rng, n, radius)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = rng.standard_normal((p, m))
    if singular_D:
        D[:, -1] = 0.0
    return SystemQuadruple(A=A, B=B, C=C, D=D), Expect(n_c=n)


def unstable_modes(rng, n: int, k: int, m: int = 3, p: int = 3):
    """Generic B with ``k`` real unstable modes (|lambda| in 1.05..1.5).

    A generic B reaches every mode, so the system is stabilizable and
    n_c = n; a stabilizing DARE solution exists.
    """
    lam = rng.uniform(1.05, 1.5, k) * rng.choice([-1.0, 1.0], k)
    A0 = scipy.linalg.block_diag(stable_matrix(rng, n - k, radius=0.8), np.diag(lam))
    T = random_orthogonal(rng, n)
    A = T @ A0 @ T.T
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = rng.standard_normal((p, m))
    return SystemQuadruple(A=A, B=B, C=C, D=D), Expect(n_c=n)


def zero_row_embedded(rng, n_c: int, n_u: int, rotate: bool, m: int = 2, p: int = 3):
    """Block-triangular system whose stable unreachable block has one zero row.

    ``rotate`` hides the staircase behind a random orthogonal change of
    basis. Either way n_c is known and V2 loses exactly one rank.
    """
    row = int(rng.integers(1, n_u + 1))
    keep = [j for j in range(n_u) if j != row - 1]
    A_u = np.zeros((n_u, n_u))
    A_u[np.ix_(keep, keep)] = stable_matrix(rng, n_u - 1, radius=0.6)
    A_u[keep, row - 1] = rng.standard_normal(n_u - 1)
    A = np.block(
        [
            [stable_matrix(rng, n_c, radius=0.7), rng.standard_normal((n_c, n_u))],
            [np.zeros((n_u, n_c)), A_u],
        ]
    )
    B = np.vstack([rng.standard_normal((n_c, m)), np.zeros((n_u, m))])
    C = rng.standard_normal((p, n_c + n_u))
    D = rng.standard_normal((p, m))
    sysq = SystemQuadruple(A=A, B=B, C=C, D=D)
    if rotate:
        sysq = change_basis(sysq, random_orthogonal(rng, n_c + n_u))
    zero_rows = None if rotate else (row,)
    return sysq, Expect(n_c=n_c, zero_rows=zero_rows, rank_drop=1)


def simulate_endpoint(rng, sysq: SystemQuadruple, x0: np.ndarray, k_f: int) -> np.ndarray:
    """State after ``k_f`` steps of random inputs from ``x0``: a feasible ``xf``."""
    u = rng.standard_normal((k_f, sysq.m))
    x = x0.copy()
    for k in range(k_f):
        x = sysq.A @ x + sysq.B @ u[k]
    return x
