"""Invariant subspace bases of the discrete LQ boundary-value system.

A finite-horizon LQ problem with stage cost ``|C x + D u|^2`` couples the
state ``x``, costate ``p`` and input ``u`` through three stacked relations:

    x_{k+1} = A x_k + B u_k
    p_k     = C'C x_k + A' p_{k+1} + C'D u_k
    0       = D'C x_k + B' p_{k+1} + D'D u_k

This module builds closed-form bases for the solution families of that
system out of the stabilizing Riccati solution ``(P, K, Rw)`` and the
closed-loop Gramian ``W`` with the closed loop ``A_K = A + B K`` it keeps:

* ``V1 = [I; P; K]`` spans the forward (stable) family, advanced by ``A_K``.
* ``Vbar2 = [W; P W - I]`` spans the backward family in state/costate
  coordinates and always has full column rank ``n``.
* ``V2 = [W A_K'; (P W - I) A_K'; K W A_K' + Rw^{-1} B']`` is the backward
  family one step in with its input row attached; its rank is that of the
  plant data ``[A B]``, so it drops below ``n`` exactly when ``[A B]`` has a
  left null space.

``A_K``, ``Vbar2`` and the input row ``K W A_K' + Rw^{-1} B'`` depend only
on the system; ``closed_loop_gramian`` forms them once, next to ``W``, and
both this module and the trajectory solver read them from there.

``analyze`` returns the Riccati solution, the Gramian and a dimension
report whose ranks read no basis. A caller that wants a basis or a residual
check calls ``assemble_*`` or ``residuals_*`` on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import DEFAULT_TOL, ToleranceConfig, rank, residual_norms
from .matcore import solve_linear  # noqa: F401  (the benchmark tracer wraps this name)
from .reachdecomp import SystemQuadruple, staircase, zero_row_indices
from .riccati import RiccatiSolution, solve_dare
from .stablyap import ClosedLoopGramian, closed_loop_gramian

__all__ = [
    "ResidualNorms",
    "DimensionReport",
    "AnalysisBundle",
    "assemble_v1",
    "assemble_vbar2",
    "assemble_v2",
    "residuals_v1",
    "residuals_v2",
    "analyze",
]


@dataclass
class ResidualNorms:
    """Frobenius norms of the three stacked-relation residuals.

    ``dynamics`` checks the state update row, ``costate`` the adjoint row,
    ``stationarity`` the input row. The ``*_rel`` values divide each norm by
    one plus the largest constituent term, so they are comparable across
    problem scales.
    """

    dynamics: float
    costate: float
    stationarity: float
    dynamics_rel: float
    costate_rel: float
    stationarity_rel: float

    @property
    def max_rel(self) -> float:
        return max(self.dynamics_rel, self.costate_rel, self.stationarity_rel)


def assemble_v1(ric: RiccatiSolution) -> np.ndarray:
    """Forward-family basis ``[I; P; K]``, shape (2n + m, n).

    Writes the three blocks into one new C-ordered array, the bits of
    ``np.vstack([np.eye(n), P, K])`` without the identity's own array, and
    leaves ``ric`` as it is.
    """
    n, m = ric.P.shape[0], ric.K.shape[0]
    V1 = np.zeros((2 * n + m, n))
    V1[:n].reshape(-1)[:: n + 1] = 1.0  # the identity's diagonal
    V1[n : 2 * n] = ric.P
    V1[2 * n :] = ric.K
    return V1


def assemble_vbar2(ric: RiccatiSolution, gram: ClosedLoopGramian) -> np.ndarray:
    """Backward-family basis ``[W; P W - I]``, shape (2n, n), always rank n.

    ``closed_loop_gramian`` forms it once per system; this returns that
    array, not a copy, and ``gram.W`` is a view of its top half.
    """
    return gram.Vbar2


def assemble_v2(ric: RiccatiSolution, gram: ClosedLoopGramian) -> np.ndarray:
    """Backward-family basis with input row, shape (2n + m, n).

    The state and costate rows are exactly ``gram.Vbar2 @ gram.A_K.T``; the
    input row is a copy of ``gram.u_gain = K W A_K' + Rw^{-1} B'``.
    """
    n = ric.P.shape[0]
    out = np.empty((2 * n + ric.K.shape[0], n))
    np.dot(gram.Vbar2, gram.A_K.T, out=out[: 2 * n])
    out[2 * n :] = gram.u_gain
    return out


def _relation_residuals(sys: SystemQuadruple, X, Lam, U, X_next, Lam_next) -> ResidualNorms:
    """Residuals of the three stacked relations for the blocks of ``[X; L; U]``.

    ``X_next`` and ``Lam_next`` are the next-step state and costate blocks:

        A X + B U              = X_+
        C'C X + A'L_+ + C'D U  = L
        D'C X + B'L_+ + D'D U  = 0

    ``X = None`` stands for the identity, and each product with it is left
    out: its other factor is that product exactly, up to the sign of zeros,
    which no sum or norm here sees. ``A`` then enters C-ordered, the layout
    of ``A @ I``, because a norm sums in memory order.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    x = () if X is None else (X,)
    A_X = (np.ascontiguousarray(A),) if X is None else (A, X)

    d, dr = residual_norms((A_X, (B, U)), X_next)
    c, cr = residual_norms(((C.T, C, *x), (A.T, Lam_next), (C.T, D, U)), Lam)
    s, sr = residual_norms(((D.T, C, *x), (B.T, Lam_next), (D.T, D, U)))
    return ResidualNorms(d, c, s, dr, cr, sr)


def residuals_v1(sys: SystemQuadruple, ric: RiccatiSolution, gram: ClosedLoopGramian) -> ResidualNorms:
    """Check that ``V1 = [I; P; K]`` satisfies the relations with advance ``A_K``.

    ``A_K`` is read from ``gram``, which holds it, not formed again. The
    next-step blocks ``V1[:2n] @ A_K = [A_K; P A_K]`` are formed in that
    shape (``P @ A_K`` rounds otherwise) from a ``V1`` dropped at once, and
    only ``P A_K`` is kept; the identity block is left out. ``P``, ``K``
    and ``A_K`` are read C-ordered, as the solvers return them, before any
    product: a norm sums in memory order, and a product with an F-ordered
    factor may round otherwise, so a caller's solution in another layout
    gets the same bits.
    """
    n = sys.n
    P, K, A_K = (np.ascontiguousarray(M) for M in (ric.P, ric.K, gram.A_K))
    Lam_next = (assemble_v1(ric)[: 2 * n] @ A_K)[n:].copy()
    return _relation_residuals(sys, None, P, K, A_K, Lam_next)


def residuals_v2(sys: SystemQuadruple, ric: RiccatiSolution, gram: ClosedLoopGramian) -> ResidualNorms:
    """Check that ``V2`` steps backward onto ``Vbar2 = [W; P W - I]``.

    Forms ``Vbar2 A_K'`` and reads the input row from ``gram.u_gain``, so no
    ``V2`` is held. ``A_K`` and ``u_gain`` are read C-ordered, as in
    ``residuals_v1``.
    """
    Vbar2, n = gram.Vbar2, sys.n
    XL = np.dot(Vbar2, np.ascontiguousarray(gram.A_K).T)
    U = np.ascontiguousarray(gram.u_gain)
    return _relation_residuals(sys, XL[:n], XL[n:], U, Vbar2[:n], Vbar2[n:])


@dataclass
class DimensionReport:
    """Counts and ranks a caller needs to judge solvability and degeneracy.

    The three ranks have closed forms, valid for any ``P``, ``W`` and ``K``
    with ``A_K = A + B K`` and ``Rw`` invertible:

    * ``rank_v1 = n``: ``V1'V1 = I + P'P + K'K`` is at least ``I``.
    * ``rank_vbar2 = n``: ``[W; P W - I] x = 0`` gives ``W x = 0`` and then
      ``x = 0``.
    * ``rank_v2 = rank [A B] = n_c + rank A_u``: the state and costate rows
      of ``V2 x = 0`` give ``A_K' x = 0``, the input row then gives
      ``B' x = 0``, so ``ker V2 = ker [A B]'``.

    ``zero_rows_Au`` lists the 1-based rows of the unreachable diagonal
    block that vanish. ``rank_deficiency_v2 = n - rank_v2`` equals their
    count when the other rows of ``A_u`` are independent. The rows are read
    in the basis of the unreachable subspace that the staircase's SVD
    returns, so they depend on that basis: a rotated plant whose ``A_u`` has
    a zero row in another basis may report ``rank_deficiency_v2 = 1`` and
    no zero row.
    """

    n: int
    m: int
    p: int
    n_c: int
    n_u: int
    rank_v1: int
    rank_v2: int
    rank_vbar2: int
    zero_rows_Au: list[int] = field(default_factory=list)
    rank_deficiency_v2: int = 0
    tolerances: ToleranceConfig = DEFAULT_TOL


@dataclass
class AnalysisBundle:
    """What ``analyze`` computed for one system: the plant, the Riccati
    solution, the closed-loop Gramian (with ``Vbar2``) and the report."""

    sys: SystemQuadruple
    riccati: RiccatiSolution
    gramian: ClosedLoopGramian
    report: DimensionReport


def analyze(sys: SystemQuadruple, cfg: ToleranceConfig = DEFAULT_TOL) -> AnalysisBundle:
    """Full structural analysis of one system.

    Runs the reachability decomposition, decides ``rank [A B]``, solves the
    Riccati equation, computes the closed-loop Gramian with ``Vbar2`` and
    fills in the dimension report. The staircase form is dropped once
    ``n_c`` and the zero rows of ``A_u`` are read off it, and no basis or
    residual check is formed. The rank reads plant data only, so it runs
    before the Riccati solve, which runs with no staircase held. The
    staircase folds its Krylov blocks as it forms them and, from ``n = 64``
    on, peaks at about 5.2 ``n x n`` arrays, which sets the call's peak
    memory on a stable plant: each Smith solve takes the closed loop it is
    handed in place, so the Newton steps and the Gramian, which keeps
    ``A_K``, peak at about 5.1. On an unstable plant the Riccati bootstrap
    may set it.
    """
    st = staircase(sys, cfg)
    n_c, zero_rows_Au = st.n_c, zero_row_indices(st.A_u, cfg)
    del st
    # V1 and Vbar2 have rank n by construction, and ker V2 = ker [A B]' (see
    # DimensionReport), so the only rank decision is on plant data and does
    # not depend on the scale of the cost.
    rank_v2 = rank(np.hstack([sys.A, sys.B]), cfg)
    ric = solve_dare(sys, cfg)
    gram = closed_loop_gramian(sys, ric, cfg)
    report = DimensionReport(
        n=sys.n,
        m=sys.m,
        p=sys.p,
        n_c=n_c,
        n_u=sys.n - n_c,
        rank_v1=sys.n,
        rank_v2=rank_v2,
        rank_vbar2=sys.n,
        zero_rows_Au=zero_rows_Au,
        rank_deficiency_v2=sys.n - rank_v2,
        tolerances=cfg,
    )
    return AnalysisBundle(sys=sys, riccati=ric, gramian=gram, report=report)
