"""Finite-horizon LQ trajectories without backward recursion.

Every optimal trajectory of the finite-horizon problem

    min  J = sum_{k=0}^{k_f-1} |C x_k + D u_k|^2   s.t.  x_{k+1} = A x_k + B u_k

is a combination of a causal mode propagated by ``A_K`` and an anticausal
mode propagated by ``A_K'`` from the far end:

    x_k = A_K^k a + W (A_K')^{k_f-k} b
    p_k = P x_k - (A_K')^{k_f-k} b
    u_k = K A_K^k a + (K W A_K' + Rw^{-1} B')(A_K')^{k_f-1-k} b

so a solve reduces to one boundary system in ``(a, b)``, solved from its
blocks: ``a`` is eliminated through the identity block, which leaves one
n-by-n system in ``b``. The squares ``A_K^{2^i}``, ``2^i <= k_f``, are
formed once per solve; ``A_K^{k_f}`` in the boundary blocks is built from
them with ``np.linalg.matrix_power``'s products. The mode sequences
``A_K^k a`` and ``(A_K')^{k_f-k} b`` are then filled by doubling, each round
multiplying the rows already known by the next square: about ``log2 k_f``
stacked products and ``O(k_f n)`` memory, the size of the output. Both are
stored by step ``k``, so ``x`` and ``u`` are each a plain sum of two stacked
products. ``p`` is one product of ``x`` less the anticausal mode:
``(x_k, p_k)`` is ``[I; P] A_K^k a + [W; P W - I] (A_K')^{k_f-k} b``, a
point of the forward structural invariant subspace plus one of the
backward, so ``p_k - P x_k = -(A_K')^{k_f-k} b``. The blocks ``W``,
``P W - I`` and ``K W A_K' + Rw^{-1} B'``, and the norms of the first two
that the boundary verdict scales by, depend only on the system and are read
from ``closed_loop_gramian``'s result.

A solve is about 25 products of small operands: the squares, ``A_K^{k_f}``,
the boundary blocks and verdict, the far rows of the modes, the outputs and
the stage costs. At the sizes of many short solves (n <= 20, k_f <= 200)
their per-call dispatch, not their arithmetic, sets most of a solve's cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryInconsistent
from .matcore import DEFAULT_TOL, ToleranceConfig, _float_array, fro_norm
from .matcore import solve_linear  # noqa: F401  (the benchmark tracer wraps this name)
from .reachdecomp import SystemQuadruple
from .riccati import RiccatiSolution
from .stablyap import ClosedLoopGramian

__all__ = [
    "TrajectoryProblem",
    "Trajectory",
    "solve_nonrecursive",
    "cost",
    "stage_costs",
]


# Every product below is ``ndarray.dot``, not ``@``: on these 2-D and 1-D
# float64 operands both make the same BLAS call on the same operand layouts,
# so the bits are the same (``test_dot_matches_matmul_bitwise`` checks each
# operand kind used here), but ``dot`` dispatches in about half the time.


def _vec_norm(v: np.ndarray) -> float:
    """2-norm of a contiguous vector, the sum ``fro_norm`` takes without its ravel."""
    return math.sqrt(v.dot(v))


def _state_vector(v, name: str, n: int) -> np.ndarray:
    """``v`` as a finite float64 vector of length ``n`` or ``ValueError``."""
    v = np.atleast_1d(_float_array(v, name))
    if v.ndim != 1 or v.shape[0] != n:
        raise ValueError(f"{name} must be a vector of length n={n}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


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
        self.x0 = _state_vector(self.x0, "x0", self.sys.n)
        try:  # int() raises for inf, nan and None; a bool is rejected as for max_iter
            valid = not isinstance(self.k_f, bool) and int(self.k_f) == self.k_f and self.k_f >= 1
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise ValueError(f"k_f must be a positive integer, got {self.k_f!r}")
        self.k_f = int(self.k_f)
        if self.xf is not None:
            self.xf = _state_vector(self.xf, "xf", self.sys.n)

    @property
    def free_terminal(self) -> bool:
        return self.xf is None


@dataclass
class Trajectory:
    """State, costate and input sequences with the achieved cost.

    ``x`` and ``p`` have ``k_f + 1`` rows (steps 0..k_f), ``u`` has ``k_f``
    rows. ``alpha`` and ``beta`` are the causal and anticausal parameters
    the sequences are propagated from. At a free end, ``p[k_f]`` is the
    transversality row of the boundary system, ``P phi alpha + (P W - I)
    beta``, as the consistency check measured it; every other row of ``p``
    is ``P x_k - (A_K')^{k_f-k} beta``.
    """

    x: np.ndarray
    p: np.ndarray
    u: np.ndarray
    J: float
    alpha: np.ndarray
    beta: np.ndarray


def stage_costs(traj: Trajectory, sys: SystemQuadruple) -> np.ndarray:
    """Per-step costs ``|C x_k + D u_k|^2`` for k = 0..k_f-1."""
    y = traj.x[:-1].dot(sys.C.T) + traj.u.dot(sys.D.T)
    return np.multiply(y, y, out=y).sum(axis=1)


def cost(traj: Trajectory, sys: SystemQuadruple) -> float:
    """Recompute the objective from scratch."""
    return float(stage_costs(traj, sys).sum())


def _squares(A_K: np.ndarray, k_f: int):
    """The squares ``A_K^(2^i)``, ``2^i <= k_f``, and ``phi = A_K^{k_f}`` built from them.

    Each square is one product of the one before with itself, formed once
    per solve. ``phi`` takes exactly ``np.linalg.matrix_power``'s products:
    ``A_K`` itself at ``k_f = 1``, ``(A A) A`` at ``k_f = 3``, and otherwise
    the squares of the set bits of ``k_f`` multiplied in from the least
    significant bit, each on the right.
    """
    squares = [A_K]
    while 2 ** len(squares) <= k_f:
        squares.append(squares[-1].dot(squares[-1]))
    if k_f == 3:
        return squares, squares[1].dot(A_K)
    phi = None
    for i, z in enumerate(squares):
        if k_f >> i & 1:
            phi = z if phi is None else phi.dot(z)
    return squares, phi


def _propagate(squares, phi: np.ndarray, alpha: np.ndarray, beta: np.ndarray, k_f: int):
    """Rows ``fwd[k] = A_K^k alpha`` and ``bwd[k] = (A_K')^{k_f-k} beta``, k = 0..k_f.

    Each sequence is filled by doubling away from its start, ``fwd`` from
    row 0 up and ``bwd`` from row ``k_f`` down: in round ``i``, with ``j =
    2^i`` rows known, the next ``t`` are the ``t`` nearest the start advanced
    by ``squares[i] = A_K^j``. The far rows, ``fwd[k_f]`` and ``bwd[0]``,
    are taken from ``phi = A_K^{k_f}``, the power in the boundary blocks, so
    the end states and costates meet the boundary equations as closely as
    the solve did even where large modes cancel.
    """
    fwd = np.empty((k_f + 1, alpha.shape[0]))
    bwd = np.empty_like(fwd)
    fwd[0], bwd[k_f] = alpha, beta
    phi.dot(alpha, out=fwd[k_f])
    phi.T.dot(beta, out=bwd[0])
    j = 1
    for step in squares:
        if j == k_f:
            break
        t = min(j, k_f - j)
        fwd[:t].dot(step.T, out=fwd[j : j + t])
        bwd[k_f - t + 1 :].dot(step, out=bwd[k_f - j - t + 1 : k_f - j + 1])
        j += t
    return fwd, bwd


def solve_nonrecursive(
    prob: TrajectoryProblem,
    ric: RiccatiSolution,
    gram: ClosedLoopGramian,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> Trajectory:
    """Solve in closed form from the Riccati solution and Gramian.

    The boundary system ``[[I, M12], [M21, M22]] [alpha; beta] = [x0; end]``
    pairs the ``k = 0`` state equation (``M12 = W phi'``) with either the
    transversality condition ``p_{k_f} = 0`` (free endpoint: ``M21 = P phi``,
    ``M22 = P W - I``, ``end = 0``) or the terminal state equation (fixed
    endpoint: ``M21 = phi``, ``M22 = W``, ``end = xf``). It is solved from
    these three blocks, never assembled: ``alpha = x0 - M12 beta``, and
    ``beta`` solves ``S beta = r``, ``S = M22 - M21 M12``, ``r = end - M21 x0``:

    * fixed end: ``S = W - phi W phi'``, the ``k_f``-step closed-loop
      Gramian ``sum_{k<k_f} A_K^k B Rw^{-1} B' (A_K')^k``, and
      ``r = xf - phi x0``;
    * free end: ``S = P (W - phi W phi') - I`` up to rounding, and
      ``r = -P phi x0``.

    ``S`` is solved by minimum-norm least squares because it can be singular
    when optimal controls are nonunique, so ``beta`` is the minimum-norm
    solution; ``(alpha, beta)`` need not be the minimum-norm solution of
    the full system. Consistency is judged on the full system's residual,
    summed over its two block rows, against ``cfg.residual_tol`` times
    ``1 + |[x0; end]| + |M|_F |[alpha; beta]|``, with
    ``|M|_F^2 = n + |M12|^2 + |M21|^2 + |M22|^2``.

    The squares ``A_K^{2^i}``, ``2^i <= k_f``, are formed once and serve
    both ``phi = A_K^{k_f}``, built from them with exactly
    ``np.linalg.matrix_power``'s products (at most ``2 log2 k_f`` products in
    all), and every round of the propagation; ``phi`` also gives the
    propagation's last rows. At ``k_f = 1`` it is ``A_K`` itself, so nothing
    writes into it. ``W``, ``P W - I`` (the bottom half of ``gram.Vbar2``,
    read only by the free-end block), their norms ``gram.norm_W`` and
    ``gram.norm_PW_I`` (the verdict's ``|M22|``) and the input gain
    ``gram.u_gain`` come from ``gram``, which must be
    ``closed_loop_gramian``'s result for ``ric``.

    The outputs are ``u``, then ``x = W bwd + fwd`` from the two mode
    sequences, then ``p = P x - bwd``; at a free end ``p[k_f]`` is then
    replaced by the bottom block row ``M21 alpha + M22 beta`` that the
    consistency check measured, so the returned costate meets ``p_{k_f} = 0``
    as closely as the solve did. Each sequence is freed once it is last
    read, so the working set is about three ``(k_f + 1) x n`` arrays plus
    ``u``.

    Raises
    ------
    ValueError
        ``prob``, ``ric`` and ``gram`` do not have the same number of states.
    BoundaryInconsistent
        The boundary residual exceeds tolerance (endpoint not attainable
        from ``x0`` in ``k_f`` steps, or the problem is degenerate), or it
        or its scale is not finite.
    """
    sysq, k_f = prob.sys, prob.k_f
    n = sysq.n
    P, K, W = ric.P, ric.K, gram.W
    if not n == P.shape[0] == W.shape[0]:
        raise ValueError(
            f"prob has {n} states, ric {P.shape[0]} and gram {W.shape[0]}: not solved for prob.sys"
        )

    # An overflow here ends in the not-finite verdict below, not in a warning:
    # an overflowing square makes the last square, and so phi, non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        squares, phi = _squares(gram.A_K, k_f)
        # Singular values of S at or below ``cfg.rank_tol_factor * n`` times the
        # largest count as zero, numpy's own cutoff at ``DEFAULT_TOL``.
        x0, M12 = prob.x0, W.dot(phi.T)
        if prob.free_terminal:
            M21, M22, norm_M22, end = P.dot(phi), gram.Vbar2[n:], gram.norm_PW_I, np.zeros(n)
        else:
            M21, M22, norm_M22, end = phi, W, gram.norm_W, prob.xf
        beta = np.linalg.lstsq(M22 - M21.dot(M12), end - M21.dot(x0), rcond=cfg.rank_tol_factor * n)[0]
        M12_beta = M12.dot(beta)
        alpha = x0 - M12_beta
        # the full system's residual and scale, one block row at a time; at a
        # free end the bottom row's left side is the costate p_{k_f}
        end_row = M21.dot(alpha) + M22.dot(beta)
        top, bottom = _vec_norm(alpha + M12_beta - x0), _vec_norm(end_row - end)
        norm_M = math.hypot(math.sqrt(n), fro_norm(M12), fro_norm(M21), norm_M22)
        norm_z = math.hypot(_vec_norm(alpha), _vec_norm(beta))
        residual = math.hypot(top, bottom)
        scale = 1.0 + math.hypot(_vec_norm(x0), _vec_norm(end)) + norm_M * norm_z
        if not (math.isfinite(residual) and math.isfinite(scale)):
            raise BoundaryInconsistent(
                f"boundary system residual {residual:.3e} or its scale {scale:.3e} "
                "is not finite: the problem overflows float64"
            )
        if residual > cfg.residual_tol * scale:
            raise BoundaryInconsistent(
                f"boundary system residual {residual:.3e} exceeds tolerance: "
                "endpoint not attainable from x0 in k_f steps, or the problem is degenerate"
            )
    del M12, M21, M22  # frees M12 and a free end's P phi; phi and gram hold the rest

    fwd, bwd = _propagate(squares, phi, alpha, beta, k_f)
    del squares, phi
    u = fwd[:-1].dot(K.T)
    u += bwd[1:].dot(gram.u_gain.T)
    x = bwd.dot(W.T)
    x += fwd
    del fwd
    p = x.dot(P.T)
    p -= bwd
    del bwd  # free before the cost adds its own arrays
    if prob.free_terminal:
        p[k_f] = end_row  # the row the transversality check measured

    traj = Trajectory(x=x, p=p, u=u, J=0.0, alpha=alpha, beta=beta)
    traj.J = cost(traj, sysq)
    return traj
