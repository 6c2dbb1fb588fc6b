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
memory, the size of the output. Two independent oracles are provided for
cross-checking: the classical backward Riccati recursion (free endpoint)
and a dense equality-constrained least-squares solve over the stacked
input sequence (fixed endpoint).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BoundaryInconsistent, Infeasible
from .matcore import DEFAULT_TOL, ToleranceConfig
from .matcore import solve_linear  # noqa: F401  (the benchmark tracer wraps this name)
from .reachdecomp import SystemQuadruple
from .riccati import RiccatiSolution
from .stablyap import GramianSolution

__all__ = [
    "TrajectoryProblem",
    "Trajectory",
    "solve_nonrecursive",
    "riccati_recursion_oracle",
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
    return np.sum(y * y, axis=1)


def cost(traj: Trajectory, sys: SystemQuadruple) -> float:
    """Recompute the objective from scratch."""
    return float(np.sum(stage_costs(traj, sys)))


def _power_list(M: np.ndarray, top: int) -> list[np.ndarray]:
    pows = [np.eye(M.shape[0])]
    for _ in range(top):
        pows.append(pows[-1] @ M)
    return pows


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
        np.matmul(fwd[:t], step.T, out=fwd[j : j + t])
        np.matmul(bwd[:t], step, out=bwd[j : j + t])
        j += t
        if j < k_f:
            step = step @ step
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
    ``I A_K ... A_K``, not a product of squares: near-singular boundary
    matrices sit close to the residual cutoff, and the few ulps by which
    squaring changes ``phi`` move some of them across it. Only the
    propagation after the solve uses squaring.

    Raises
    ------
    BoundaryInconsistent
        The boundary residual exceeds tolerance (endpoint not attainable
        from ``x0`` in ``k_f`` steps, or the problem is degenerate).
    """
    sysq, k_f = prob.sys, prob.k_f
    n = sysq.n
    P, K, A_K, W = ric.P, ric.K, ric.A_K, gram.W

    phi = np.eye(n)
    for _ in range(k_f):
        phi = phi @ A_K

    top = np.hstack([np.eye(n), W @ phi.T])
    if prob.free_terminal:
        bottom = np.hstack([P @ phi, P @ W - np.eye(n)])
        rhs = np.concatenate([prob.x0, np.zeros(n)])
    else:
        bottom = np.hstack([phi, W])
        rhs = np.concatenate([prob.x0, prob.xf])
    M = np.vstack([top, bottom])

    z, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    residual = float(np.linalg.norm(M @ z - rhs))
    scale = 1.0 + float(np.linalg.norm(rhs)) + float(np.linalg.norm(M, "fro") * np.linalg.norm(z))
    if residual > cfg.residual_tol * scale:
        raise BoundaryInconsistent(
            f"boundary system residual {residual:.3e} exceeds tolerance: "
            "endpoint not attainable from x0 in k_f steps, or the problem is degenerate"
        )
    alpha, beta = z[:n], z[n:]

    # The anticausal mode at step k is bwd[k_f - k]: products are taken on
    # bwd in storage order and reversed after, as matmul on a reversed view
    # would skip BLAS.
    fwd, bwd = _propagate(A_K, phi, alpha, beta, k_f)
    u_gain = K @ W @ A_K.T + ric.Rw_inv_Bt
    x = fwd + (bwd @ W.T)[::-1]
    p = fwd @ P.T + (bwd @ (P @ W - np.eye(n)).T)[::-1]
    u = fwd[:-1] @ K.T + (bwd[:-1] @ u_gain.T)[::-1]

    traj = Trajectory(x=x, p=p, u=u, J=0.0, alpha=alpha, beta=beta)
    traj.J = cost(traj, sysq)
    return traj


def riccati_recursion_oracle(prob: TrajectoryProblem) -> Trajectory:
    """Classical backward recursion oracle for the free-endpoint problem.

    Runs the finite-horizon Riccati difference recursion from ``P_{k_f} = 0``
    with pseudoinverse stage weights (so a singular ``D'D`` is handled),
    takes the minimum-norm stage minimizer, then simulates forward. Costates
    are ``p_k = P_k x_k``.
    """
    if not prob.free_terminal:
        raise ValueError("the recursion oracle only covers the free-endpoint problem")
    sysq, k_f = prob.sys, prob.k_f
    A, B, C, D = sysq.A, sysq.B, sysq.C, sysq.D
    Q, S, R = C.T @ C, C.T @ D, D.T @ D

    P_seq = [None] * (k_f + 1)
    G_seq = [None] * k_f  # feedback at step k, u_k = G_k x_k
    P_seq[k_f] = np.zeros((sysq.n, sysq.n))
    for k in range(k_f - 1, -1, -1):
        Pn = P_seq[k + 1]
        Rw_k = R + B.T @ Pn @ B
        L_k = B.T @ Pn @ A + S.T
        G_k = -np.linalg.pinv(Rw_k, hermitian=True) @ L_k
        P_k = A.T @ Pn @ A + Q + L_k.T @ G_k
        P_seq[k] = 0.5 * (P_k + P_k.T)
        G_seq[k] = G_k

    x = np.empty((k_f + 1, sysq.n))
    p = np.empty((k_f + 1, sysq.n))
    u = np.empty((k_f, sysq.m))
    x[0] = prob.x0
    for k in range(k_f):
        u[k] = G_seq[k] @ x[k]
        p[k] = P_seq[k] @ x[k]
        x[k + 1] = A @ x[k] + B @ u[k]
    p[k_f] = P_seq[k_f] @ x[k_f]

    traj = Trajectory(x=x, p=p, u=u, J=0.0)
    traj.J = cost(traj, sysq)
    return traj


def kkt_oracle(prob: TrajectoryProblem, cfg: ToleranceConfig = DEFAULT_TOL) -> Trajectory:
    """Dense constrained least-squares oracle for the fixed-endpoint problem.

    Minimizes the objective over the stacked input sequence subject to the
    linear endpoint constraint, picking the minimum-norm input among the
    minimizers. Costates are recovered afterwards by fitting the terminal
    costate to the stationarity conditions in a least-squares sense and
    running the adjoint recursion backward.

    Raises
    ------
    Infeasible
        ``xf`` is not reachable from ``x0`` in ``k_f`` steps.
    """
    if prob.free_terminal:
        raise ValueError("the constrained oracle needs a fixed endpoint")
    sysq, k_f = prob.sys, prob.k_f
    A, B, C, D = sysq.A, sysq.B, sysq.C, sysq.D
    n, m, p_dim = sysq.n, sysq.m, sysq.p

    apows = _power_list(A, k_f)

    # Endpoint constraint G u_stacked = xf - A^{k_f} x0.
    G = np.hstack([apows[k_f - 1 - j] @ B for j in range(k_f)])
    r = prob.xf - apows[k_f] @ prob.x0
    u_part = np.linalg.pinv(G) @ r
    gap = float(np.linalg.norm(G @ u_part - r))
    if gap > cfg.residual_tol * (1.0 + float(np.linalg.norm(r))):
        raise Infeasible(
            f"terminal state misses by {gap:.3e}: endpoint not attainable "
            "from x0 in k_f steps"
        )

    # Stacked output map y = M_u u_stacked + y0.
    M_u = np.zeros((k_f * p_dim, k_f * m))
    for k in range(k_f):
        rows = slice(k * p_dim, (k + 1) * p_dim)
        M_u[rows, k * m : (k + 1) * m] = D
        for j in range(k):
            M_u[rows, j * m : (j + 1) * m] = C @ apows[k - 1 - j] @ B
    y0 = np.concatenate([C @ (apows[k] @ prob.x0) for k in range(k_f)])

    N = scipy.linalg.null_space(G)
    if N.shape[1] > 0:
        E = M_u @ N
        f = M_u @ u_part + y0
        z, *_ = np.linalg.lstsq(E, -f, rcond=None)
        u_opt = u_part + N @ z
        # Minimum-norm input among the cost minimizers.
        Nn = scipy.linalg.null_space(E)
        if Nn.shape[1] > 0:
            free_dirs = N @ Nn
            u_opt = u_opt - free_dirs @ (free_dirs.T @ u_opt)
    else:
        u_opt = u_part

    u = u_opt.reshape(k_f, m)
    x = np.empty((k_f + 1, n))
    x[0] = prob.x0
    for k in range(k_f):
        x[k + 1] = A @ x[k] + B @ u[k]

    # Costate recovery: every p_k is affine in p_{k_f} through the adjoint
    # recursion p_k = C'C x_k + A' p_{k+1} + C'D u_k; choose p_{k_f} so the
    # stationarity rows D'C x_k + B' p_{k+1} + D'D u_k vanish as nearly as
    # possible, then run the recursion with that choice.
    coef = np.eye(n)
    const = np.zeros(n)
    rows_coef, rows_rhs = [], []
    for k in range(k_f - 1, -1, -1):
        rows_coef.append(B.T @ coef)
        rows_rhs.append(-(D.T @ C @ x[k] + D.T @ D @ u[k] + B.T @ const))
        coef_k = A.T @ coef
        const_k = C.T @ C @ x[k] + A.T @ const + C.T @ D @ u[k]
        coef, const = coef_k, const_k
    lhs = np.vstack(rows_coef)
    rhs_vec = np.concatenate(rows_rhs)
    p_end, *_ = np.linalg.lstsq(lhs, rhs_vec, rcond=None)

    p = np.empty((k_f + 1, n))
    p[k_f] = p_end
    for k in range(k_f - 1, -1, -1):
        p[k] = C.T @ C @ x[k] + A.T @ p[k + 1] + C.T @ D @ u[k]

    traj = Trajectory(x=x, p=p, u=u, J=0.0)
    traj.J = cost(traj, sysq)
    return traj
