"""Discrete Lyapunov (Stein) equations for stable closed loops.

The solver accumulates the series ``W = sum_i A^i Q A'^i`` with the Smith
doubling recurrence. Convergence of that series doubles as the package's
stability certificate, so no eigenvalue solver is needed anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotStable
from .matcore import DEFAULT_TOL, ToleranceConfig, as_matrix
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
    E = A.copy()
    trace: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.max_iter + 1):
            update = E @ W @ E.T
            update_norm = float(np.linalg.norm(update, "fro"))
            trace.append(update_norm)
            W = W + update
            W = 0.5 * (W + W.T)
            E = E @ E
            w_norm = float(np.linalg.norm(W, "fro"))
            # Norms can hit inf through squaring before any entry does, so
            # both the entries and the norms must stay finite.
            if not (
                np.all(np.isfinite(W))
                and np.all(np.isfinite(E))
                and np.isfinite(update_norm)
                and np.isfinite(w_norm)
            ):
                raise NotStable(
                    f"Smith iteration overflowed after {it} doublings; "
                    "A_K is not discrete-stable",
                    trace=trace,
                )
            if update_norm <= cfg.residual_tol * w_norm:
                return GramianSolution(W=W, iterations=it)
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
    """True iff the Smith iteration for ``(M, I)`` converges.

    Convergence of the series is equivalent to the spectral radius of ``M``
    being below one, which makes this an eigensolver-free stability test.
    """
    M = as_matrix(M, "M")
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be square, got {M.shape}")
    try:
        solve_dlyap_stable(M, np.eye(M.shape[0]), cfg)
    except NotStable:
        return False
    return True
