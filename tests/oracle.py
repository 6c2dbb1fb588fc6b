"""References for finite-horizon trajectories and their optimal cost.

``kkt_oracle`` solves the same problem as ``hamlq.lqtraj.solve_nonrecursive``
by an independent route, a least-squares solve over the stacked input
sequence, so the tests can compare the two. It is a short-horizon reference,
not a general solver.

``sqrt_riccati_cost`` gives the exact free-end optimum ``J*`` by the
square-root Riccati difference recursion (Morf & Kailath 1975): it
propagates a cost-to-go factor, never a trajectory, so nothing in it grows
with the horizon. It returns a cost only, with no trajectory to compare.

Range over which it was measured trustworthy (free end, against the exact
optimum ``J*`` of ``sqrt_riccati_cost``):

* golden, ``x0 = default_rng(3).standard_normal(4)``, ``J* = 0.04412``: within
  1e-6 of ``J*`` up to ``k_f = 120``; from ``k_f = 150`` on it returns the
  stationary cost ``x0' P x0 = 13.07`` instead;
* a seeded ``n = 2`` plant with ``rho(A) = 1.38`` and ``D = 0``: 2.20 at
  ``k_f = 100`` and 1.05e11 at ``k_f = 150``, where ``J* = 0.4684``.

The powers ``A^i`` in the stacked blocks lose the components that decay or
grow fastest, so long horizons, unstable plants and plants with invariant
zeros outside the unit circle leave its range first. The suite compares
against it at ``k_f <= 20``, on a stable scalar plant at ``k_f = 60``, and on
golden at ``k_f = 200, 300``. There both the oracle and the solver return
``x0' P x0`` rather than ``J*``, so that test only shows that they agree and
stay below the stationary cost. Fixed-endpoint solves agreed with
``solve_nonrecursive`` to 6 digits on golden and on the benchmark's
``regular-n3``, ``regular-n10`` and ``singular-dd-n8`` plants at
``k_f = 3..80``: agreement, not a proof of optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from hamlq.lqtraj import TrajectoryProblem, cost
from hamlq.matcore import DEFAULT_TOL, ToleranceConfig


class Infeasible(Exception):
    """The requested terminal state is not reachable within the horizon."""


@dataclass
class OracleTrajectory:
    """State, costate and input sequences with the achieved cost.

    ``x`` and ``p`` have ``k_f + 1`` rows (steps 0..k_f), ``u`` has ``k_f``
    rows.
    """

    x: np.ndarray
    p: np.ndarray
    u: np.ndarray
    J: float


def _lstsq(M: np.ndarray, rhs: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Minimum-norm least-squares solution of ``M z = rhs`` under ``cfg``'s rank cutoff.

    The solver's own helper is not reused, so the two routes share no solve.
    """
    return np.linalg.lstsq(M, rhs, rcond=cfg.rank_tol_factor * max(M.shape))[0]


def kkt_oracle(prob: TrajectoryProblem, cfg: ToleranceConfig = DEFAULT_TOL) -> OracleTrajectory:
    """Dense least-squares oracle over the stacked input sequence, either endpoint.

    The stacked outputs are ``y = M_u u + y0`` with ``M_u`` block Toeplitz
    in the Markov blocks ``H_0 = D``, ``H_i = C A^{i-1} B``. A fixed endpoint
    restricts ``u`` to ``u_part + N z``, with ``u_part`` the minimum-norm
    solution of the endpoint constraint ``G u = xf - A^{k_f} x0`` and ``N``
    an orthonormal basis of the null space of ``G``; a free endpoint takes
    ``u_part = 0`` and ``N = I``. The minimum-norm ``z`` minimizing
    ``|M_u (u_part + N z) + y0|`` then gives the minimum-norm optimal input.
    Costates run the adjoint recursion ``p_k = C' y_k + A' p_{k+1}`` from
    ``p_{k_f} = 0`` (free endpoint) or from the terminal costate that best
    fits the stationarity rows ``D' y_k + B' p_{k+1} = 0`` (fixed endpoint).
    Every rank cutoff is ``cfg.rank_tol_factor * max(shape)`` relative to
    the largest singular value.

    Raises
    ------
    Infeasible
        ``xf`` is not reachable from ``x0`` in ``k_f`` steps.
    """
    sysq, k_f = prob.sys, prob.k_f
    A, B, C, D = sysq.A, sysq.B, sysq.C, sysq.D
    n, m, p_dim = sysq.n, sysq.m, sysq.p

    # One recurrence fills A^i [B  x0] for i = 0..k_f.
    AX = np.empty((k_f + 1, n, m + 1))
    AX[0] = np.column_stack([B, prob.x0])
    for i in range(k_f):
        AX[i + 1] = A @ AX[i]
    AiB, Aix = AX[:, :, :m], AX[:, :, m]

    # Block (k, j) of M_u is H_{k-j}; blocks above the diagonal index the
    # trailing zero block.
    H = np.concatenate([D[None], C @ AiB[: k_f - 1], np.zeros((1, p_dim, m))])
    lag = np.subtract.outer(np.arange(k_f), np.arange(k_f))
    M_u = H[np.where(lag >= 0, lag, k_f)].transpose(0, 2, 1, 3).reshape(k_f * p_dim, k_f * m)
    y0 = (Aix[:k_f] @ C.T).ravel()

    if prob.free_terminal:
        u_part, N = np.zeros(k_f * m), np.eye(k_f * m)
    else:
        # Block j of G is A^{k_f-1-j} B.
        G = AiB[k_f - 1 :: -1].transpose(1, 0, 2).reshape(n, k_f * m)
        r = prob.xf - Aix[k_f]
        u_part = _lstsq(G, r, cfg)
        gap = float(np.linalg.norm(G @ u_part - r))
        if gap > cfg.residual_tol * (1.0 + float(np.linalg.norm(r))):
            raise Infeasible(
                f"terminal state misses by {gap:.3e}: endpoint not attainable "
                "from x0 in k_f steps"
            )
        N = scipy.linalg.null_space(G, rcond=cfg.rank_tol_factor * max(G.shape))
    z = _lstsq(M_u @ N, -(M_u @ u_part + y0), cfg)
    u = (u_part + N @ z).reshape(k_f, m)

    x = np.empty((k_f + 1, n))
    x[0] = prob.x0
    for k in range(k_f):
        x[k + 1] = A @ x[k] + B @ u[k]
    y = x[:-1] @ C.T + u @ D.T

    def adjoint(p_end):
        p = np.empty((k_f + 1, n))
        p[k_f] = p_end
        for k in range(k_f - 1, -1, -1):
            p[k] = C.T @ y[k] + A.T @ p[k + 1]
        return p

    p = adjoint(np.zeros(n))
    if not prob.free_terminal:
        # p_{k+1} moves by (A')^{k_f-1-k} p_end, so the stationarity rows in
        # p_end have coefficient matrix G'.
        p = adjoint(_lstsq(G.T, -(y @ D + p[1:] @ B).ravel(), cfg))

    traj = OracleTrajectory(x=x, p=p, u=u, J=0.0)
    traj.J = cost(traj, sysq)
    return traj


def sqrt_riccati_cost(prob: TrajectoryProblem, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Free-end optimal cost ``J* = |R_{k_f} x0|^2`` by the square-root Riccati recursion.

    The cost-to-go with ``j`` steps left is ``V_j(x) = |R_j x|^2``, with
    ``R_0`` of 0 rows. One step minimizes ``|C x + D u|^2 + |R_j (A x + B u)|^2
    = |G x + F u|^2`` over ``u``, with ``F = [D; R_j B]`` and
    ``G = [C; R_j A]``: the minimum is the part of ``G x`` in the left null
    space of ``F``, so ``R_{j+1} = U_2' G`` for ``U_2`` an orthonormal basis
    of it (SVD, cutoff ``cfg.rank_tol_factor * max(F.shape)`` relative to the
    largest singular value). Once ``R_{j+1}`` has more than ``n`` rows it is
    replaced by the triangular factor of its QR, which keeps ``|R x|``.
    """
    if not prob.free_terminal:
        raise ValueError("sqrt_riccati_cost takes a free-endpoint problem")
    sysq = prob.sys
    A, B, C, D = sysq.A, sysq.B, sysq.C, sysq.D
    R = np.zeros((0, sysq.n))
    for _ in range(prob.k_f):
        F = np.vstack([D, R @ B])
        G = np.vstack([C, R @ A])
        U, s, _ = np.linalg.svd(F)
        cutoff = s.max(initial=0.0) * max(F.shape) * cfg.rank_tol_factor
        R = U[:, int(np.count_nonzero(s > cutoff)) :].T @ G
        if R.shape[0] > sysq.n:
            R = np.linalg.qr(R, mode="r")
    v = R @ prob.x0
    return float(v @ v)
