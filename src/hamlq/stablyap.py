"""Discrete Lyapunov (Stein) equations for stable closed loops.

The solver accumulates the series ``W = sum_i A^i Q A'^i`` with the Smith
doubling recurrence. Stability is certified by the same repeated squaring,
``A^(2^k)``, stopped once a norm of the power drops below one, so no
eigenvalue solver is needed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotStable
from .matcore import DEFAULT_TOL, ToleranceConfig, as_matrix, fro_norm
from .matcore import solve_linear  # noqa: F401  (the benchmark tracer wraps this name)

__all__ = [
    "GramianSolution",
    "solve_dlyap_stable",
    "closed_loop_gramian",
    "stability_certificate",
]


@dataclass
class GramianSolution:
    """Solution of ``A_K W A_K' + Q = W`` with convergence diagnostics."""

    W: np.ndarray
    iterations: int


def solve_dlyap_stable(A_K, Q, cfg: ToleranceConfig = DEFAULT_TOL) -> GramianSolution:
    """Solve the discrete Lyapunov equation ``A_K W A_K' + Q = W``.

    Uses the Smith doubling recurrence

        W <- W + E W E',    E <- E @ E,

    starting from ``W = Q``, ``E = A_K``, which converges quadratically for
    discrete-stable ``A_K`` and symmetric positive semidefinite ``Q``.

    Parameters
    ----------
    A_K : (n, n) array_like
        Closed-loop matrix; must have spectral radius below one.
    Q : (n, n) array_like
        Symmetric positive semidefinite forcing term.
    cfg : ToleranceConfig
        ``residual_tol`` controls the stopping test (update norm relative to
        the current iterate); ``max_iter`` bounds the number of doublings.

    Returns
    -------
    GramianSolution
        Symmetrized solution and number of doublings.

    Raises
    ------
    NotStable
        When the update norms fail to decay within ``max_iter`` doublings or
        the iterates overflow. The update-norm trace is attached.
    """
    A = as_matrix(A_K, "A_K")
    n, nc = A.shape
    if n != nc:
        raise ValueError(f"A_K must be square, got {A.shape}")
    Qm = as_matrix(Q, "Q")
    if Qm.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got {Qm.shape}")

    W = 0.5 * (Qm + Qm.T)
    # Each product keeps the operand layouts of the plain expression
    # ``E @ W @ E.T`` (C-ordered E and W), whose rounding depends on them;
    # only the allocations are gone.
    E = np.ascontiguousarray(A)
    E_next, EW, update = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    trace: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.max_iter + 1):
            E.dot(W, out=EW).dot(E.T, out=update)
            update_norm = fro_norm(update)
            trace.append(update_norm)
            W += update
            np.add(W, W.T, out=EW)
            np.multiply(EW, 0.5, out=W)
            w_norm = fro_norm(W)
            # A non-finite entry of W makes w_norm non-finite at once; one of
            # E makes the next update, and so its norm, non-finite.
            if not (math.isfinite(update_norm) and math.isfinite(w_norm)):
                raise NotStable(
                    f"Smith iteration overflowed after {it} doublings; "
                    "A_K is not discrete-stable",
                    trace=trace,
                )
            if update_norm <= cfg.residual_tol * w_norm:
                return GramianSolution(W=W, iterations=it)
            E, E_next = E.dot(E, out=E_next), E
    raise NotStable(
        f"Smith update norms did not decay within {cfg.max_iter} doublings",
        trace=trace,
    )


def closed_loop_gramian(sys, ric, cfg: ToleranceConfig = DEFAULT_TOL) -> GramianSolution:
    """Weighted reachability Gramian of the closed loop.

    Solves ``A_K W A_K' + B Rw^{-1} B' = W`` for the feedback data in
    ``ric``. In the reachability basis the solution has the block form
    ``diag(W_c, 0)`` with a positive definite reachable block.
    """
    forcing = sys.B @ ric.Rw_inv_Bt
    forcing = 0.5 * (forcing + forcing.T)
    return solve_dlyap_stable(ric.A_K, forcing, cfg)


def stability_certificate(M, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True once a power ``M^(2^k)``, ``k <= cfg.max_iter``, has Frobenius norm below one.

    Every matrix norm bounds the spectral radius, so ``rho(M)^(2^k) <=
    ||M^(2^k)||_F < 1`` proves ``rho(M) < 1`` without an eigensolver. The
    powers of a stable ``M`` decay to zero, so some ``k`` succeeds unless
    they overflow first. Each step is one squaring. A non-finite norm or
    ``cfg.max_iter`` squarings without success give False.
    """
    E = as_matrix(M, "M")
    if E.shape[0] != E.shape[1]:
        raise ValueError(f"M must be square, got {E.shape}")
    # Squarings alternate between two buffers; the first reads M in its own
    # layout, as ``E @ E`` would.
    squares = (np.empty(E.shape), np.empty(E.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        norm = fro_norm(E)
        for k in range(cfg.max_iter):
            if norm < 1.0 or not math.isfinite(norm):
                break
            E = E.dot(E, out=squares[k & 1])
            norm = fro_norm(E)
    return norm < 1.0
