"""Stabilizing solutions of the discrete algebraic Riccati equation.

The LQ data enters through the output pair: with stage cost
``|C x + D u|^2`` the equation solved is

    P = A'PA + C'C - (A'PB + C'D) (D'D + B'PB)^{-1} (B'PA + D'C)

and the stabilizing feedback uses the sign convention ``A_K = A + B K``
with ``K = -(D'D + B'PB)^{-1} (B'PA + D'C)``.

The solver first needs any stabilizing gain. ``K = 0`` serves when ``A`` is
already stable, and is kept there: any other start moves the rounding of
``P`` and ``K``, and some free-end trajectory outcomes hinge on that
rounding until their boundary solve is made robust (ROADMAP item 2).
Otherwise the gain comes from the plant's own cost, regularized: ``Q =
C'C + DELTA s I``, ``R = D'D + DELTA s I`` and ``S = C'D``, with ``s`` the
largest entry of ``C'C`` and ``D'D``. ``Q > 0`` makes that equation
detectable and ``R > 0`` keeps its gain defined, the same guarantee unit
weights ``(I, I, 0)`` give: the structure-preserving doubling algorithm
(Chu, Fan & Lin 2005) reaches its stabilizing solution quadratically
whenever ``(A, B)`` is stabilizable, a singular ``D'D`` included. Unlike
the unit-weight gain, this one sits ``O(DELTA)`` from the real one, so
Newton needs 2-5 steps instead of 7-12. The gain is certified once. Value iteration on the unregularized equation from ``P = 0`` is not
used: with a square invertible ``D`` the reduced state weight
``C'(I - D(D'D)^{-1}D')C`` vanishes, ``P = 0`` is itself a
(non-stabilizing) solution, and the iteration sits on it until rounding,
amplified by the unstable modes, pushes it off. ``DELTA s I`` keeps the
regularized equation off it.

Newton steps (Hewer 1971) then refine the gain on the real equation; each
is a single Smith-doubling Lyapunov solve and converges from any
stabilizing gain. ``RiccatiSolution.iterations`` counts the doubling steps
plus the Newton steps. Stability is certified by ``stability_certificate``:
some power ``A_K^(2^k)``, formed by repeated squaring, has Frobenius norm
below one, which bounds the spectral radius below one. No eigenvalue is
ever computed.

Each of ``solve_dare`` and ``_doubling_gain`` runs its whole body under one
numpy error context that ignores overflow; a named finiteness check or a
stability certificate finds each overflow and raises it once, typed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NotStabilizable, NotStable, SingularMatrix, SingularWeight
from .matcore import DEFAULT_TOL, EPS, ToleranceConfig, _finite_product, _sym_into, fro_norm, residual_norms
from .matcore import solve_linear
from .reachdecomp import SystemQuadruple
from .stablyap import solve_dlyap_stable, stability_certificate

__all__ = ["RiccatiSolution", "solve_dare"]

# Regularization of the bootstrap's weights, relative to the cost's largest
# entry. On the benchmark's unstable plants the Newton counts are flat from
# 1e-10 to 1e-6 and grow above it (4-6 steps at 1e-4), as the gain moves
# O(DELTA) off the real one; below 1e-11 DELTA drowns in the rounding of
# C'C - S R^-1 S' and the bootstrap breaks down.
DELTA = 1e-6


@dataclass
class RiccatiSolution:
    """Stabilizing Riccati solution with gain and innovation weight.

    ``P`` is symmetric positive semidefinite, ``Rw = D'D + B'PB`` is strictly
    positive definite, and the closed loop ``A + B K`` is discrete-stable
    (certified by a power of norm below one). The closed loop itself is not
    kept here: ``closed_loop_gramian`` forms it, with the same bits, and
    keeps it as ``ClosedLoopGramian.A_K`` beside the blocks it moves.
    """

    P: np.ndarray
    K: np.ndarray
    Rw: np.ndarray
    iterations: int


def _settled(change: float, prev_change: float, scale: float) -> bool:
    """Whether an iterate's change has reached its relative floor.

    True once the change is a few roundoffs of ``scale``, or once it stops
    decreasing while already below ``sqrt(EPS) * scale`` (rounding floor).
    """
    if change <= 64.0 * EPS * scale:
        return True
    return change >= prev_change and change <= np.sqrt(EPS) * scale


def _doubling_gain(A, B, C, S, R, cfg: ToleranceConfig):
    """Gain of the plant's own DARE, regularized by ``DELTA``; returns (K, steps).

    ``S = C'D`` and ``R = D'D`` are the cost products ``solve_dare`` has
    formed. With ``s`` the largest entry of ``C'C`` and ``D'D`` (1 for a zero
    cost) the weights are ``Q_d = C'C + DELTA s I``, ``R_d = D'D + DELTA s I``
    and ``S``, all multiplied by the power of two ``c`` in ``(0.5/s, 1/s]``
    (for a subnormal ``s``, the one of the smallest normal ``s``, as that
    power would overflow). That leaves the gain unchanged, as the equation
    is homogeneous in its weights, and makes ``H_k`` of unit size, so the
    settling test (relative to ``1 + |H|``) reads alike at every cost scale;
    it is exact, so a power-of-two rescaling of ``(C, D)`` changes no bit.
    The cross term is eliminated through the Cholesky factor ``L`` of
    ``R_d``: with ``[Bs Ss] = L^{-1} [B' S']``,

        A_0 = A - B R_d^{-1} S' = A - Bs' Ss
        G_0 = B R_d^{-1} B'     = Bs' Bs
        H_0 = C'(I - D R_d^{-1} D')C + DELTA s I = C'C - Ss' Ss + DELTA s I

    Structure-preserving doubling then runs with ``W = I + G_k H_k``:

        A_{k+1} = A_k W^{-1} A_k
        G_{k+1} = G_k + A_k W^{-1} G_k A_k'
        H_{k+1} = H_k + A_k' H_k W^{-1} A_k

    and ``H_k`` reaches the ``2^k``-th value-iteration iterate. ``H_0 >=
    DELTA s I`` makes the regularized equation detectable and ``R_d > 0``, so
    it has a stabilizing solution, reached quadratically, whenever ``(A, B)``
    is stabilizable: the guarantee unit weights ``(I, I, 0)`` give, but with
    a gain that starts Newton next to the real ``P``. Neither a singular
    ``D'D`` nor a square invertible ``D`` (whose reduced state weight
    vanishes, so that ``P = 0`` solves the unregularized equation without
    stabilizing) changes that, as long as ``DELTA s`` stays above the
    rounding of ``C'C - Ss' Ss``. The gain is ``K = -(R_d + B'HB)^{-1}
    (B'HA + S')``.

    ``W`` is nonsingular for positive semidefinite ``G`` and ``H``; one LU of
    it is applied to ``[A_k, G_k]``. An unreachable mode on or outside the
    unit circle makes ``H_k`` grow without bound, which ends in a non-finite
    iterate or an exhausted ``cfg.max_iter``. A non-finite iterate, a
    singular ``W`` or ``R_d + B'HB`` and an exhausted budget raise
    ``NotStabilizable``, an ``R_d`` that rounding leaves indefinite (cost data
    too small to solve with) ``SingularWeight``; a non-finite gain is left
    to the caller's certificate.

    Each step holds ``A_k``, ``G_k``, ``H_k``, one scratch array and the
    ``n x 2n`` solve result; ``A_0`` is dropped after the first step, ``W``
    and the concatenation as soon as the solve returns, ``H_k`` once
    ``H_{k+1} - H_k`` is formed, and the solve result once ``G_{k+1}`` is.
    The products, sums and operand layouts are those of the plain
    expressions, and so are the bits.
    """
    n, m = B.shape
    with np.errstate(over="ignore", invalid="ignore"):
        H = _finite_product(C.T @ C, "C'C")
        # the largest entry of a positive semidefinite matrix is on its diagonal
        s = max(float(np.max(H.diagonal(), initial=0.0)), float(np.max(R.diagonal(), initial=0.0))) or 1.0
        # the power of two in (0.5/s, 1/s]; for a subnormal s, where that
        # overflows, the one for the smallest normal s
        c = math.ldexp(1.0, -max(math.frexp(s)[1], -1021))
        reg = DELTA * (c * s)
        H *= c
        R_reg = c * R + reg * np.eye(m)
        try:
            Y = np.linalg.solve(np.linalg.cholesky(R_reg), np.concatenate((B.T, c * S.T), axis=1))
        except np.linalg.LinAlgError as exc:  # rounding has made R_d indefinite
            raise SingularWeight(
                "the regularized weight D'D + DELTA s I is not positive definite: "
                "the cost data (C, D) are too small to solve with"
            ) from exc
        Bs, Ss = Y[:, :n], Y[:, n:]
        Ak = A - Bs.T @ Ss
        G = Bs.T @ Bs
        H -= Ss.T @ Ss
        H.reshape(-1)[:: n + 1] += reg
        del Y, Bs, Ss
        buf = np.empty((n, n))  # each symmetrization's transpose, then H_{k+1} - H_k
        prev_dh = np.inf
        for it in range(1, cfg.max_iter + 1):
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
                    f"structured doubling diverged after {it} steps: an iterate left "
                    "float64 range, so the plant is not stabilizable or its data are "
                    "too large to solve with"
                )
            Ak, G, H = A_next, G_next, H_next
            if _settled(dh, prev_dh, h_scale):
                BtH = B.T @ H
                try:
                    K = -np.linalg.solve(R_reg + BtH @ B, BtH @ A + c * S.T)
                except np.linalg.LinAlgError as exc:
                    raise NotStabilizable(
                        f"structured doubling settled after {it} steps on a singular "
                        "or non-finite R + B'HB; no stabilizing feedback was found"
                    ) from exc
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
        ``D'D + B'PB`` is singular at the solution, or the bootstrap's
        regularized weight is too small to factor.
    ConvergenceFailure
        Iteration budget exhausted, residual above tolerance, or ``C'D``,
        ``D'D``, ``C'C`` (formed only when ``A`` is not certified stable), a
        Newton step's forcing ``(C + D K)'(C + D K)``, its weight ``D'D +
        B'PB`` or its ``B'PA + S'`` overflows.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = A.shape[0]
    # Finite data can still overflow float64 in any product below. numpy is
    # silenced once, here, and each overflow is found by a named finiteness
    # check or certificate and reported once, as a typed error.
    with np.errstate(over="ignore", invalid="ignore"):
        S = _finite_product(C.T @ D, "C'D")
        R = _finite_product(D.T @ D, "D'D")

        # Phase 1: find any certified stabilizing gain. K = 0 works whenever A
        # is already stable (and keeps the Newton weights maximal, since policy
        # costs only decrease from there). Otherwise take the gain of the
        # regularized real-cost equation, found by structured doubling. A gain
        # too large for float64 is no certified gain either.
        boot_iters = 0
        if stability_certificate(A, cfg):
            K = np.zeros((B.shape[1], n))
        else:
            K, boot_iters = _doubling_gain(A, B, C, S, R, cfg)
            A_K = A + B @ K
            if not (np.isfinite(A_K).all() and stability_certificate(A_K, cfg)):
                raise NotStabilizable(
                    f"doubling gain failed the stability certificate after "
                    f"{boot_iters} steps; no stabilizing feedback was found"
                )
            del A_K

        # Phase 2: Newton (policy iteration) refinement. Each step solves the
        # closed-loop cost equation P = A_K' P A_K + (C + D K)'(C + D K), which
        # keeps the right-hand side positive semidefinite by construction and
        # converges quadratically from a stabilizing gain. P = 0 only serves the
        # first step's change and is made after the bootstrap, not held through it.
        P = np.zeros((n, n))
        prev_dp = np.inf
        for it in range(1, cfg.max_iter + 1):
            CK = C + D @ K
            forcing = _finite_product(CK.T @ CK, "the Newton forcing (C + D K)'(C + D K)")
            # A_K' C-ordered: the closed loop and the forcing serve this
            # solve alone, which writes over both. A copy, not a ufunc on
            # transposed operands, which would buffer-copy them.
            A_Kt = (A + B @ K).T.copy()
            try:
                P_new = solve_dlyap_stable(A_Kt, forcing, cfg, overwrite=True).W
            except NotStable as exc:
                raise NotStabilizable(
                    "Newton iterate lost closed-loop stability; system violates "
                    "the operational assumptions"
                ) from exc
            del A_Kt
            BtP = B.T @ P_new
            data = "the plant or cost data"
            Rw = _sym_into(R + BtP @ B, np.empty_like(R))
            Rw = _finite_product(Rw, "the innovation weight D'D + B'PB", data)
            L = _finite_product(BtP @ A + S.T, "B'PA + S'", data)
            dp, p_scale = fro_norm(P_new - P), 1.0 + fro_norm(P_new)
            try:
                K = -solve_linear(Rw, L, cfg)
            except SingularMatrix as exc:
                raise SingularWeight(
                    "innovation weight D'D + B'PB is singular to working tolerance"
                ) from exc
            P = P_new
            if _settled(dp, prev_dp, p_scale):
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

        # The residual is judged against the largest term it is summed from, not
        # against P alone: with a square invertible D the solution is P = 0
        # while C'C and L'K grow with the cost, and their rounding is the floor.
        residual, rel = residual_norms(((A.T, P, A), (C.T, C), (L.T, K)), P)
        if rel > cfg.residual_tol:
            raise ConvergenceFailure(
                f"Riccati residual {residual:.3e} ({rel:.3e} relative) exceeds tolerance "
                "after convergence"
            )
        if not stability_certificate(A + B @ K, cfg):
            raise NotStabilizable("final closed loop failed the stability certificate")
    return RiccatiSolution(P=P, K=K, Rw=Rw, iterations=boot_iters + it)
