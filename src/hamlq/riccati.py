"""Stabilizing solutions of the discrete algebraic Riccati equation.

The LQ data enters through the output pair: with stage cost
``|C x + D u|^2`` the equation solved is

    P = A'PA + C'C - (A'PB + C'D) (D'D + B'PB)^{-1} (B'PA + D'C)

and the stabilizing feedback uses the sign convention ``A_K = A + B K``
with ``K = -(D'D + B'PB)^{-1} (B'PA + D'C)``.

The solver first needs any stabilizing gain. ``K = 0`` serves when ``A`` is
already stable. Otherwise the gain comes from the auxiliary equation with
the same ``(A, B)`` and unit weights ``Q = I``, ``R = I``, ``S = 0``: it is
detectable with ``R > 0`` by construction, so the structure-preserving
doubling algorithm (Chu, Fan & Lin 2005) reaches its stabilizing solution
quadratically whenever ``(A, B)`` is stabilizable, and the real cost
(a singular ``D'D`` included) plays no part. The gain is certified once.
Value iteration on the real equation from ``P = 0`` is not used: with a
square invertible ``D`` the reduced state weight ``C'(I - D(D'D)^{-1}D')C``
vanishes, ``P = 0`` is itself a (non-stabilizing) solution, and the
iteration sits on it until rounding, amplified by the unstable modes,
pushes it off.

Newton steps (Hewer 1971) then refine the gain on the real equation; each
is a single Smith-doubling Lyapunov solve and converges from any
stabilizing gain. ``RiccatiSolution.iterations`` counts the doubling steps
plus the Newton steps. Stability is certified by ``stability_certificate``:
some power ``A_K^(2^k)``, formed by repeated squaring, has Frobenius norm
below one, which bounds the spectral radius below one. No eigenvalue is
ever computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NotStabilizable, NotStable, SingularMatrix, SingularWeight
from .matcore import DEFAULT_TOL, EPS, ToleranceConfig, _sym_into, fro_norm, residual_norms, solve_linear
from .reachdecomp import SystemQuadruple
from .stablyap import solve_dlyap_stable, stability_certificate

__all__ = ["RiccatiSolution", "solve_dare"]


@dataclass
class RiccatiSolution:
    """Stabilizing Riccati solution with gain and innovation weight.

    ``P`` is symmetric positive semidefinite, ``Rw = D'D + B'PB`` is strictly
    positive definite, and ``A_K = A + B K`` is discrete-stable (certified by
    a power of norm below one).
    """

    P: np.ndarray
    K: np.ndarray
    Rw: np.ndarray
    A_K: np.ndarray
    iterations: int


def _settled(change: float, prev_change: float, scale: float) -> bool:
    """Whether an iterate's change has reached its relative floor.

    True once the change is a few roundoffs of ``scale``, or once it stops
    decreasing while already below ``sqrt(EPS) * scale`` (rounding floor).
    """
    if change <= 64.0 * EPS * scale:
        return True
    return change >= prev_change and change <= np.sqrt(EPS) * scale


def _finite_product(M: np.ndarray, name: str) -> np.ndarray:
    """``M``, a product formed from finite cost data under ``np.errstate``,
    or ``ConvergenceFailure`` when it overflowed float64."""
    if not np.isfinite(M).all():
        raise ConvergenceFailure(
            f"{name} overflows float64: the cost data (C, D) are too large to solve with"
        )
    return M


def _doubling_gain(A, B, cfg: ToleranceConfig):
    """Gain of the auxiliary DARE ``(A, B, Q = I, R = I, S = 0)``; returns (K, steps).

    Structure-preserving doubling: with ``G_0 = B B'``, ``H_0 = I`` and
    ``W = I + G_k H_k``,

        A_{k+1} = A_k W^{-1} A_k
        G_{k+1} = G_k + A_k W^{-1} G_k A_k'
        H_{k+1} = H_k + A_k' H_k W^{-1} A_k

    and ``H_k`` reaches the ``2^k``-th value-iteration iterate, converging
    quadratically to the stabilizing solution when ``(A, B)`` is
    stabilizable. ``W`` is nonsingular for positive semidefinite ``G`` and
    ``H``; one LU of it is applied to ``[A_k, G_k]``. An unreachable mode on
    or outside the unit circle makes ``H_k`` grow without bound, which ends
    in a non-finite iterate or an exhausted ``cfg.max_iter``.

    Each step holds ``A_k``, ``G_k``, ``H_k``, one scratch array and the
    ``n x 2n`` solve result; ``W`` and the concatenation go as soon as the
    solve returns, ``H_k`` once ``H_{k+1} - H_k`` is formed, and the solve
    result once ``G_{k+1}`` is. The products, sums and operand layouts are
    those of the plain expressions, and so are the bits.
    """
    n, m = B.shape
    Ak = A
    G = B @ B.T
    H = np.eye(n)
    buf = np.empty((n, n))  # each symmetrization's transpose, then H_{k+1} - H_k
    prev_dh = np.inf
    for it in range(1, cfg.max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            # W = I + G H on the product's diagonal; adding 0.0 first turns
            # its -0.0 entries into +0.0, as the identity's zeros do
            Wk = G @ H
            Wk += 0.0
            Wk.reshape(-1)[:: n + 1] += 1.0
            try:
                X = np.linalg.solve(Wk, np.concatenate((Ak, G), axis=1))
            except np.linalg.LinAlgError as exc:
                raise NotStabilizable(
                    f"structured doubling broke down at step {it}: "
                    "I + G H is singular or not finite"
                ) from exc
            del Wk
            A_next = Ak @ X[:, :n]
            H_next = _sym_into(H + Ak.T @ H @ X[:, :n], buf)
            dh = fro_norm(np.subtract(H_next, H, out=buf))
            h_scale = 1.0 + fro_norm(H_next)
            del H
            G_next = _sym_into(G + Ak @ X[:, n:] @ Ak.T, buf)
            del X
        # A non-finite entry of H makes both norms non-finite at once; one of
        # A_k or G breaks the next step's solve or makes its norms non-finite.
        if not (math.isfinite(dh) and math.isfinite(h_scale)):
            raise NotStabilizable(
                f"structured doubling diverged after {it} steps; "
                "no stabilizing feedback exists for this system"
            )
        Ak, G, H = A_next, G_next, H_next
        if _settled(dh, prev_dh, h_scale):
            K = -np.linalg.solve(np.eye(m) + B.T @ H @ B, B.T @ H @ A)
            return K, it
        prev_dh = dh
    raise NotStabilizable(
        f"structured doubling did not settle within {cfg.max_iter} steps; "
        "no stabilizing feedback was found"
    )


def solve_dare(sys: SystemQuadruple, cfg: ToleranceConfig = DEFAULT_TOL) -> RiccatiSolution:
    """Stabilizing Riccati solution of one system.

    The reachable part's solution is this one on ``SystemQuadruple(st.A_c,
    st.B_c, st.C_c, D)``; it equals the leading ``n_c`` block of ``T' P T``.

    Parameters
    ----------
    sys : SystemQuadruple
        Plant data; ``(A, B)`` must be stabilizable and the stabilizing
        solution must exist with a strictly positive definite innovation
        weight.
    cfg : ToleranceConfig
        Tolerances and iteration budget.

    Raises
    ------
    NotStabilizable
        No stabilizing feedback could be certified.
    SingularWeight
        ``D'D + B'PB`` is singular at the solution.
    ConvergenceFailure
        Iteration budget exhausted, residual above tolerance, or ``C'D``,
        ``D'D`` or a Newton step's forcing ``(C + D K)'(C + D K)`` overflows.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = A.shape[0]
    # Finite cost data can still overflow in these products; the overflow is
    # reported once, as a typed error, not as numpy warnings first.
    with np.errstate(over="ignore", invalid="ignore"):
        S = _finite_product(C.T @ D, "C'D")
        R = _finite_product(D.T @ D, "D'D")

    # Phase 1: find any certified stabilizing gain. K = 0 works whenever A
    # is already stable (and keeps the Newton weights maximal, since policy
    # costs only decrease from there). Otherwise take the gain of the
    # auxiliary unit-weight equation, found by structured doubling.
    boot_iters = 0
    if stability_certificate(A, cfg):
        K = np.zeros((B.shape[1], n))
    else:
        K, boot_iters = _doubling_gain(A, B, cfg)
        if not stability_certificate(A + B @ K, cfg):
            raise NotStabilizable(
                f"doubling gain failed the stability certificate after "
                f"{boot_iters} steps; no stabilizing feedback was found"
            )

    # Phase 2: Newton (policy iteration) refinement. Each step solves the
    # closed-loop cost equation P = A_K' P A_K + (C + D K)'(C + D K), which
    # keeps the right-hand side positive semidefinite by construction and
    # converges quadratically from a stabilizing gain. P = 0 only serves the
    # first step's change and is made after the bootstrap, not held through it.
    P = np.zeros((n, n))
    newton_iters = 0
    prev_dp = np.inf
    for it in range(1, cfg.max_iter + 1):
        newton_iters = it
        CK = C + D @ K
        A_K = A + B @ K
        with np.errstate(over="ignore", invalid="ignore"):
            forcing = _finite_product(CK.T @ CK, "the Newton forcing (C + D K)'(C + D K)")
        try:  # the forcing serves this solve alone: W is written over it
            P_new = solve_dlyap_stable(A_K.T, forcing, cfg, overwrite_q=True).W
        except NotStable as exc:
            raise NotStabilizable(
                "Newton iterate lost closed-loop stability; system violates "
                "the operational assumptions"
            ) from exc
        BtP = B.T @ P_new
        Rw = _sym_into(R + BtP @ B, np.empty_like(R))
        L = BtP @ A + S.T
        try:
            K = -solve_linear(Rw, L, cfg)
        except SingularMatrix as exc:
            raise SingularWeight(
                "innovation weight D'D + B'PB is singular to working tolerance"
            ) from exc
        dp = fro_norm(P_new - P)
        P = P_new
        if _settled(dp, prev_dp, 1.0 + fro_norm(P)):
            break  # the residual check below decides
        prev_dp = dp
    else:
        raise ConvergenceFailure(
            f"Newton refinement did not settle within {cfg.max_iter} iterations"
        )

    # P, Rw, L and K are the last iterate's; P needs no symmetrizing, as the
    # Smith solution is exactly symmetric. The solve for K has already
    # factored Rw, so its Cholesky factorization exists.
    if float(np.min(np.diag(np.linalg.cholesky(Rw))) ** 2) <= cfg.abs_zero_tol:
        raise SingularWeight(
            "innovation weight D'D + B'PB has a pivot at or below the zero tolerance"
        )
    A_K = A + B @ K

    # The residual is judged against the largest term it is summed from, not
    # against P alone: with a square invertible D the solution is P = 0
    # while C'C and L'K grow with the cost, and their rounding is the floor.
    residual, rel = residual_norms(((A.T, P, A), (C.T, C), (L.T, K)), P)
    if rel > cfg.residual_tol:
        raise ConvergenceFailure(
            f"Riccati residual {residual:.3e} ({rel:.3e} relative) exceeds tolerance "
            "after convergence"
        )
    if not stability_certificate(A_K, cfg):
        raise NotStabilizable("final closed loop failed the stability certificate")
    return RiccatiSolution(
        P=P,
        K=K,
        Rw=Rw,
        A_K=A_K,
        iterations=boot_iters + newton_iters,
    )
