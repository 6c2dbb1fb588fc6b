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
from .matcore import DEFAULT_TOL, ToleranceConfig, _checked_matrix, _finite_product, _sym_into
from .matcore import fro_norm, solve_linear

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

    ``solve_dlyap_stable`` returns ``W`` as its own array, or as the
    forcing itself when the caller lets it be overwritten.
    ``closed_loop_gramian`` returns the subclass ``ClosedLoopGramian``,
    whose ``W`` is a view of the top half of its ``Vbar2``.
    """

    W: np.ndarray
    iterations: int


def solve_dlyap_stable(A_K, Q, cfg: ToleranceConfig = DEFAULT_TOL, overwrite=False) -> GramianSolution:
    """Solve the discrete Lyapunov equation ``A_K W A_K' + Q = W``.

    Uses the Smith doubling recurrence

        W <- W + E W E',    E <- E @ E,

    starting from ``W = Q``, ``E = A_K``, which converges quadratically for
    discrete-stable ``A_K`` and symmetric positive semidefinite ``Q``.

    The loop holds four ``n x n`` arrays: ``E`` (the one copy of ``A_K``,
    C-ordered, or ``A_K`` itself when the caller lets it be overwritten),
    ``W``, and buffers for ``E W`` and ``E W E'``. Each next ``E`` is formed
    in the ``E W E'`` buffer, free once the update is added to ``W``, and
    the old ``E`` becomes that buffer. ``Q`` is checked in place, not
    copied.

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
    overwrite : bool
        Let the solve take its inputs in place, so a caller that formed the
        closed loop and the forcing for this solve alone does not hold them
        beside its arrays: ``A_K`` becomes ``E``, its powers and the loop's
        products written over it, and ``W`` is formed over ``Q``. Each is
        taken only when it is a writable C-contiguous float64 array, and
        ``Q`` only when it shares no memory with ``A_K``; any other is
        copied. Otherwise, and by default, both are left unchanged.

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
    E = _owned(_checked_matrix(A_K, "A_K"), overwrite)
    n, nc = E.shape
    if n != nc:
        raise ValueError(f"A_K must be square, got {E.shape}")
    Qm = _checked_matrix(Q, "Q")
    if Qm.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got {Qm.shape}")

    # W = (Q' + Q) / 2 in a C-ordered array, the bits of 0.5 * (Q + Q.T)
    # for either layout of Q, with the EW buffer as scratch.
    W = _owned(Qm, overwrite and not np.may_share_memory(Qm, E))
    del Qm
    EW = np.empty((n, n))
    _sym_into(W, EW)
    update = np.empty((n, n))
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
            E, update = E.dot(E, out=update), E
    raise NotStable(
        f"Smith update norms did not decay within {cfg.max_iter} doublings",
        trace=trace,
    )


def _owned(M: np.ndarray, overwrite: bool) -> np.ndarray:
    """``M`` itself when it may be overwritten and is a writable C-contiguous
    array, else a C-ordered copy of it."""
    if overwrite and M.flags.c_contiguous and M.flags.writeable:
        return M
    return np.array(M, order="C")


@dataclass
class ClosedLoopGramian(GramianSolution):
    """The closed-loop Gramian with the closed loop and the backward-family blocks.

    ``A_K = A + B K`` is the closed loop, the bits of ``solve_dare``'s: it
    advances ``V1 = [I; P; K]``, and ``Vbar2 A_K'`` are the state and
    costate rows of the backward family ``V2``.
    ``Vbar2 = [W; P W - I]`` is one ``(2n, n)`` array and ``W`` is a view of
    its top half, so no second copy of ``W`` exists. ``u_gain = K W A_K' +
    Rw^{-1} B'`` is the input row of the backward family. ``norm_W`` and
    ``norm_PW_I`` are the Frobenius norms ``fro_norm`` gives of ``W`` and of
    ``P W - I``, the two blocks a trajectory solve's boundary verdict scales
    by. All of these depend only on the system, so ``analyze``, the residual
    checks, the bases and every trajectory solve read them instead of
    forming them again.
    """

    A_K: np.ndarray
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
    Newton step has already solved ``Rw`` under the same ``cfg``. The
    forcing ``B Rw^{-1} B'`` serves the Smith solve alone, which forms
    ``W`` over it; one that overflows float64 raises ``ConvergenceFailure``.

    The closed loop ``A_K = A + B K`` is formed twice, as ``solve_dare``
    forms it, so with its bits: once for the Smith solve, which takes it in
    place, and once after ``W`` is copied out of the solve's result, to be
    kept. No copy of it is held beside the solve's.

    ``W`` is copied into the top half of ``Vbar2 = [W; P W - I]`` and the
    returned ``W`` is a view of it; the bottom half is ``P W`` formed in
    place with one subtracted on its diagonal only, the same bits as
    ``P @ W - np.eye(n)``. ``u_gain = K W A_K' + Rw^{-1} B'`` and the norms
    of both halves of ``Vbar2`` are formed once here as well.
    """
    Rw_inv_Bt = solve_linear(ric.Rw, sys.B.T, cfg)
    # A finite B can still overflow the forcing; the overflow is reported
    # once, as a typed error, not as numpy warnings first
    with np.errstate(over="ignore", invalid="ignore"):
        forcing = _finite_product(
            sys.B @ Rw_inv_Bt, "the Gramian forcing B Rw^{-1} B'", "the plant data (B, D)"
        )
    sol = solve_dlyap_stable(sys.A + sys.B @ ric.K, forcing, cfg, overwrite=True)
    n, iterations = sol.W.shape[0], sol.iterations
    Vbar2 = np.empty((2 * n, n))
    W = Vbar2[:n]
    W[:] = sol.W
    del sol, forcing  # one array, as the solve formed W over the forcing
    np.dot(ric.P, W, out=Vbar2[n:])
    Vbar2[n:].reshape(-1)[:: n + 1] -= 1.0  # the diagonal of P W
    A_K = sys.A + sys.B @ ric.K
    u_gain = ric.K @ W @ A_K.T + Rw_inv_Bt
    return ClosedLoopGramian(
        W=W, iterations=iterations, A_K=A_K, Vbar2=Vbar2, u_gain=u_gain,
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
    E = _checked_matrix(M, "M")  # a float64 array in place: it is only read
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
