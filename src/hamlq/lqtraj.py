"""Finite-horizon LQ trajectories without backward recursion.

Every optimal trajectory of the finite-horizon problem

    min  J = sum_{k=0}^{k_f-1} |C x_k + D u_k|^2   s.t.  x_{k+1} = A x_k + B u_k

is a combination of a causal mode propagated by ``A_K`` and an anticausal
mode propagated by ``A_K'`` from the far end:

    x_k = A_K^k a + W (A_K')^{k_f-k} b
    p_k = P A_K^k a + (P W - I)(A_K')^{k_f-k} b
    u_k = K A_K^k a + (K W A_K' + Rw^{-1} B')(A_K')^{k_f-1-k} b

so a solve reduces to one 2n-by-2n boundary system in ``(a, b)``. The two
mode sequences ``A_K^k a`` and ``(A_K')^j b`` are then filled by doubling:
each round multiplies the rows already known by the next power ``A_K^{2^i}``,
so propagation costs about ``log2 k_f`` stacked products and ``O(k_f n)``
memory, the size of the output. One independent oracle cross-checks it
for both endpoint kinds: a dense least-squares solve over the stacked input
sequence, equality-constrained when the endpoint is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BoundaryInconsistent, Infeasible
from .matcore import DEFAULT_TOL, ToleranceConfig, fro_norm
from .matcore import solve_linear  # noqa: F401  (the benchmark tracer wraps this name)
from .reachdecomp import SystemQuadruple
from .riccati import RiccatiSolution
from .stablyap import GramianSolution

__all__ = [
    "TrajectoryProblem",
    "Trajectory",
    "solve_nonrecursive",
    "kkt_oracle",
    "cost",
    "stage_costs",
]


@dataclass
class TrajectoryProblem:
    """One finite-horizon problem: system, start state, horizon, endpoint.

    ``xf is None`` means a free endpoint with transversality ``p_{k_f} = 0``;
    otherwise the state must hit ``xf`` at step ``k_f``.
    """

    sys: SystemQuadruple
    x0: np.ndarray
    k_f: int
    xf: np.ndarray | None = None

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=np.float64))
        if self.x0.ndim != 1 or self.x0.shape[0] != self.sys.n:
            raise ValueError(f"x0 must be a vector of length n={self.sys.n}")
        if not np.all(np.isfinite(self.x0)):
            raise ValueError("x0 must be finite")
        if int(self.k_f) != self.k_f or self.k_f < 1:
            raise ValueError("k_f must be a positive integer")
        self.k_f = int(self.k_f)
        if self.xf is not None:
            self.xf = np.atleast_1d(np.asarray(self.xf, dtype=np.float64))
            if self.xf.ndim != 1 or self.xf.shape[0] != self.sys.n:
                raise ValueError(f"xf must be a vector of length n={self.sys.n}")
            if not np.all(np.isfinite(self.xf)):
                raise ValueError("xf must be finite")

    @property
    def free_terminal(self) -> bool:
        return self.xf is None


@dataclass
class Trajectory:
    """State, costate and input sequences with the achieved cost.

    ``x`` and ``p`` have ``k_f + 1`` rows (steps 0..k_f), ``u`` has ``k_f``
    rows. ``alpha`` and ``beta`` are the causal/anticausal parameters when
    the trajectory came from the nonrecursive solver, ``None`` otherwise.
    """

    x: np.ndarray
    p: np.ndarray
    u: np.ndarray
    J: float
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None


def stage_costs(traj: Trajectory, sys: SystemQuadruple) -> np.ndarray:
    """Per-step costs ``|C x_k + D u_k|^2`` for k = 0..k_f-1."""
    y = traj.x[:-1] @ sys.C.T + traj.u @ sys.D.T
    return np.multiply(y, y, out=y).sum(axis=1)


def cost(traj: Trajectory, sys: SystemQuadruple) -> float:
    """Recompute the objective from scratch."""
    return float(stage_costs(traj, sys).sum())


def _lstsq(M: np.ndarray, rhs: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Minimum-norm least-squares solution of ``M z = rhs``.

    Singular values at or below ``cfg.rank_tol_factor * max(M.shape)`` times
    the largest count as zero, numpy's own cutoff at ``DEFAULT_TOL``.
    """
    return np.linalg.lstsq(M, rhs, rcond=cfg.rank_tol_factor * max(M.shape))[0]


def _chain_power(A_K: np.ndarray, k_f: int) -> np.ndarray:
    """``A_K^{k_f}`` as the left-to-right product ``I A_K ... A_K``.

    ``I A_K = A_K`` exactly, so the product starts from ``A_K``; each further
    factor is one product into whichever of two buffers does not hold the
    current power.
    """
    phi, spare = A_K.copy(), np.empty(A_K.shape)
    for _ in range(k_f - 1):
        phi.dot(A_K, out=spare)
        phi, spare = spare, phi
    return phi


def _propagate(A_K: np.ndarray, phi: np.ndarray, alpha: np.ndarray, beta: np.ndarray, k_f: int):
    """Rows ``fwd[k] = A_K^k alpha`` and ``bwd[k] = (A_K')^k beta``, k = 0..k_f.

    Rows below ``k_f`` are filled by doubling: with rows ``[0, j)`` known,
    rows ``[j, j + t)`` are rows ``[0, t)`` advanced by ``A_K^j``, which is
    then squared. Row ``k_f`` is taken from ``phi = A_K^{k_f}``, the power
    in the boundary matrix, so the end states and costates meet the boundary
    equations as closely as the solve did even where large modes cancel.
    """
    fwd = np.empty((k_f + 1, alpha.shape[0]))
    bwd = np.empty_like(fwd)
    fwd[0], bwd[0] = alpha, beta
    fwd[k_f], bwd[k_f] = phi @ alpha, phi.T @ beta
    step, j = A_K, 1
    while j < k_f:
        t = min(j, k_f - j)
        fwd[:t].dot(step.T, out=fwd[j : j + t])
        bwd[:t].dot(step, out=bwd[j : j + t])
        j += t
        if j < k_f:
            step = step.dot(step)
    return fwd, bwd


def solve_nonrecursive(
    prob: TrajectoryProblem,
    ric: RiccatiSolution,
    gram: GramianSolution,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> Trajectory:
    """Solve in closed form from the Riccati solution and Gramian.

    The boundary system pairs the ``k = 0`` state equation with either the
    transversality condition ``p_{k_f} = 0`` (free endpoint) or the terminal
    state equation (fixed endpoint). It is solved by minimum-norm least
    squares because the matrix can be singular when optimal controls are
    nonunique; an explicit residual check guards consistency.

    ``phi = A_K^{k_f}`` in the boundary matrix is the left-to-right product
    ``I A_K ... A_K``, one product per step into two reused buffers, not a
    product of squares: near-singular boundary matrices sit close to the
    residual cutoff, and the few ulps by which squaring changes ``phi`` move
    some of them across it. With ``np.linalg.matrix_power`` in its place,
    the benchmark's ``traj-many`` failure count changed on 3 of seeds 1-30
    (seed 2: 8 to 9, seed 18: 7 to 6, seed 19: 8 to 7). Only the
    propagation after the solve uses squaring. For the same reason every
    product and sum here is the one the plain expressions would compute,
    bit for bit; only calls and allocations were removed.

    Raises
    ------
    BoundaryInconsistent
        The boundary residual exceeds tolerance (endpoint not attainable
        from ``x0`` in ``k_f`` steps, or the problem is degenerate).
    """
    sysq, k_f = prob.sys, prob.k_f
    n = sysq.n
    P, K, A_K, W = ric.P, ric.K, ric.A_K, gram.W

    phi = _chain_power(A_K, k_f)
    eye = np.eye(n)
    PW_I = P @ W - eye
    M = np.empty((2 * n, 2 * n))
    M[:n, :n] = eye
    M[:n, n:] = W @ phi.T
    rhs = np.empty(2 * n)
    rhs[:n] = prob.x0
    if prob.free_terminal:
        M[n:, :n] = P @ phi
        M[n:, n:] = PW_I
        rhs[n:] = 0.0
    else:
        M[n:, :n] = phi
        M[n:, n:] = W
        rhs[n:] = prob.xf

    z = _lstsq(M, rhs, cfg)
    residual = fro_norm(M @ z - rhs)
    scale = 1.0 + fro_norm(rhs) + fro_norm(M) * fro_norm(z)
    if residual > cfg.residual_tol * scale:
        raise BoundaryInconsistent(
            f"boundary system residual {residual:.3e} exceeds tolerance: "
            "endpoint not attainable from x0 in k_f steps, or the problem is degenerate"
        )
    del M  # not needed past the check; the output arrays below set the peak
    alpha, beta = z[:n], z[n:]

    # The anticausal mode at step k is bwd[k_f - k]: products are taken on
    # bwd in storage order and reversed after, as matmul on a reversed view
    # would skip BLAS. The sums for p and u are formed in their first term.
    fwd, bwd = _propagate(A_K, phi, alpha, beta, k_f)
    u_gain = K @ W @ A_K.T + ric.Rw_inv_Bt
    x = fwd + (bwd @ W.T)[::-1]
    p = fwd @ P.T
    p += (bwd @ PW_I.T)[::-1]
    u = fwd[:-1] @ K.T
    u += (bwd[:-1] @ u_gain.T)[::-1]

    traj = Trajectory(x=x, p=p, u=u, J=0.0, alpha=alpha, beta=beta)
    traj.J = cost(traj, sysq)
    return traj


def kkt_oracle(prob: TrajectoryProblem, cfg: ToleranceConfig = DEFAULT_TOL) -> Trajectory:
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

    traj = Trajectory(x=x, p=p, u=u, J=0.0)
    traj.J = cost(traj, sysq)
    return traj
