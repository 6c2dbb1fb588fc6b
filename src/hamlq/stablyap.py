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
from .matcore import DEFAULT_TOL, ToleranceConfig, _sym_into, as_matrix, fro_norm, solve_linear

__all__ = [
    "GramianSolution",
    "ClosedLoopGramian",
    "solve_dlyap_stable",
    "closed_loop_gramian",
    "stability_certificate",
]


@dataclass
class GramianSolution:
    """Solution of ``A_K W A_K' + Q = W`` with convergence diagnostics.

    ``solve_dlyap_stable`` returns ``W`` as its own array.
    ``closed_loop_gramian`` returns the subclass ``ClosedLoopGramian``,
    whose ``W`` is a view of the top half of its ``Vbar2``.
    """

    W: np.ndarray
    iterations: int


def solve_dlyap_stable(A_K, Q, cfg: ToleranceConfig = DEFAULT_TOL) -> GramianSolution:
    """Solve the discrete Lyapunov equation ``A_K W A_K' + Q = W``.

    Uses the Smith doubling recurrence

        W <- W + E W E',    E <- E @ E,

    starting from ``W = Q``, ``E = A_K``, which converges quadratically for
    discrete-stable ``A_K`` and symmetric positive semidefinite ``Q``.

    The loop holds five ``n x n`` arrays: ``E`` (the one copy of ``A_K``,
    C-ordered), ``W``, and buffers for ``E W``, ``E W E'`` and the next
    ``E``. The copy of ``Q`` is dropped once ``W`` is formed.

    Parameters
    ----------
    A_K : (n, n) array_like
        Closed-loop matrix; must have spectral radius below one.
    Q : (n, n) array_like
        Positive semidefinite forcing term; only its symmetric part
        ``(Q + Q') / 2`` is used.
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
    # Each product keeps the operand layouts of the plain expression
    # ``E @ W @ E.T`` (C-ordered E and W), whose rounding depends on them;
    # only the allocations are gone.
    E = np.ascontiguousarray(as_matrix(A_K, "A_K"))
    n, nc = E.shape
    if n != nc:
        raise ValueError(f"A_K must be square, got {E.shape}")
    Qm = as_matrix(Q, "Q")
    if Qm.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got {Qm.shape}")

    # W = (Q + Q') / 2 is formed through the EW buffer into a fresh C-ordered
    # array, the layout the plain expression gives for either layout of Q,
    # and the copy of Q goes before the loop's buffers exist.
    EW = np.add(Qm, Qm.T, out=np.empty((n, n)))
    W = np.multiply(EW, 0.5)
    del Qm
    E_next, update = np.empty((n, n)), np.empty((n, n))
    trace: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.max_iter + 1):
            E.dot(W, out=EW).dot(E.T, out=update)
            update_norm = fro_norm(update)
            trace.append(update_norm)
            W += update
            _sym_into(W, EW)
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


@dataclass
class ClosedLoopGramian(GramianSolution):
    """The closed-loop Gramian with the backward-family blocks built from it.

    ``Vbar2 = [W; P W - I]`` is one ``(2n, n)`` array and ``W`` is a view of
    its top half, so no second copy of ``W`` exists. ``u_gain = K W A_K' +
    Rw^{-1} B'`` is the input row of the backward family. ``norm_W`` and
    ``norm_PW_I`` are the Frobenius norms ``fro_norm`` gives of ``W`` and of
    ``P W - I``, the two blocks a trajectory solve's boundary verdict scales
    by. All of these depend only on the system, so ``analyze`` and every
    trajectory solve read them instead of forming them again.
    """

    Vbar2: np.ndarray
    u_gain: np.ndarray
    norm_W: float
    norm_PW_I: float


def closed_loop_gramian(sys, ric, cfg: ToleranceConfig = DEFAULT_TOL) -> ClosedLoopGramian:
    """Weighted reachability Gramian of the closed loop, with its backward family.

    Solves ``A_K W A_K' + B Rw^{-1} B' = W`` for the feedback data in
    ``ric``. In the reachability basis the solution has the block form
    ``diag(W_c, 0)`` with a positive definite reachable block.
    ``Rw^{-1} B'`` is solved here, its only use; ``solve_dare``'s last
    Newton step has already solved ``Rw`` under the same ``cfg``.
    ``solve_dlyap_stable`` symmetrizes the forcing ``B Rw^{-1} B'``.

    ``W`` is copied into the top half of ``Vbar2 = [W; P W - I]`` and the
    returned ``W`` is a view of it; the bottom half is ``P W`` formed in
    place with one subtracted on its diagonal only, the same bits as
    ``P @ W - np.eye(n)``. ``u_gain = K W A_K' + Rw^{-1} B'`` and the norms
    of both halves of ``Vbar2`` are formed once here as well.
    """
    Rw_inv_Bt = solve_linear(ric.Rw, sys.B.T, cfg)
    sol = solve_dlyap_stable(ric.A_K, sys.B @ Rw_inv_Bt, cfg)
    n = sol.W.shape[0]
    Vbar2 = np.empty((2 * n, n))
    W = Vbar2[:n]
    W[:] = sol.W
    np.dot(ric.P, W, out=Vbar2[n:])
    Vbar2[n:].reshape(-1)[:: n + 1] -= 1.0  # the diagonal of P W
    u_gain = ric.K @ W @ ric.A_K.T + Rw_inv_Bt
    return ClosedLoopGramian(
        W=W, iterations=sol.iterations, Vbar2=Vbar2, u_gain=u_gain,
        norm_W=fro_norm(W), norm_PW_I=fro_norm(Vbar2[n:]),
    )


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
