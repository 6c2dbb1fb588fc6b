"""Invariant subspace bases of the discrete LQ boundary-value system.

A finite-horizon LQ problem with stage cost ``|C x + D u|^2`` couples the
state ``x``, costate ``p`` and input ``u`` through three stacked relations:

    x_{k+1} = A x_k + B u_k
    p_k     = C'C x_k + A' p_{k+1} + C'D u_k
    0       = D'C x_k + B' p_{k+1} + D'D u_k

This module builds closed-form bases for the solution families of that
system out of the stabilizing Riccati solution ``(P, K, Rw, A_K)`` and the
closed-loop Gramian ``W``:

* ``V1 = [I; P; K]`` spans the forward (stable) family, advanced by ``A_K``.
* ``Vbar2 = [W; P W - I]`` spans the backward family in state/costate
  coordinates and always has full column rank ``n``.
* ``V2 = [W A_K'; (P W - I) A_K'; K W A_K' + Rw^{-1} B']`` is the backward
  family one step in with its input row attached; its rank is that of the
  plant data ``[A B]``, so it drops below ``n`` exactly when ``[A B]`` has a
  left null space.

``Vbar2`` and the input row ``K W A_K' + Rw^{-1} B'`` depend only on the
system; ``closed_loop_gramian`` forms them once, next to ``W``, and both
this module and the trajectory solver read them from there.

``analyze`` bundles the decomposition, Riccati solution, Gramian, bases,
the residual checks of those same bases and a dimension report in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import DEFAULT_TOL, ToleranceConfig, rank, residual_norms
from .matcore import solve_linear  # noqa: F401  (the benchmark tracer wraps this name)
from .reachdecomp import StaircaseForm, SystemQuadruple, staircase, zero_row_indices
from .riccati import RiccatiSolution, solve_dare
from .stablyap import ClosedLoopGramian, closed_loop_gramian

__all__ = [
    "ResidualNorms",
    "InvariantBases",
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
    leaves ``ric`` as it is. ``analyze`` calls it twice: once for the
    residual check, whose copy it then drops, and once last, when it
    rebinds ``ric.P`` to the rows ``n:2n`` of the result.
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

    The state and costate rows are exactly ``gram.Vbar2 @ ric.A_K.T``; the
    input row is a copy of ``gram.u_gain = K W A_K' + Rw^{-1} B'``.
    """
    n = ric.P.shape[0]
    out = np.empty((2 * n + ric.K.shape[0], n))
    np.dot(gram.Vbar2, ric.A_K.T, out=out[: 2 * n])
    out[2 * n :] = gram.u_gain
    return out


def _relation_residuals(sys: SystemQuadruple, V: np.ndarray, V_next: np.ndarray) -> ResidualNorms:
    """Residuals of the three stacked relations for ``V = [X; L; U]``.

    ``V_next = [X_+; L_+]`` holds the next-step state and costate blocks:

        A X + B U              = X_+
        C'C X + A'L_+ + C'D U  = L
        D'C X + B'L_+ + D'D U  = 0
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = sys.n
    X, Lam, U = V[:n], V[n : 2 * n], V[2 * n :]
    X_next, Lam_next = V_next[:n], V_next[n:]

    d, dr = residual_norms(((A, X), (B, U)), X_next)
    c, cr = residual_norms(((C.T, C, X), (A.T, Lam_next), (C.T, D, U)), Lam)
    s, sr = residual_norms(((D.T, C, X), (B.T, Lam_next), (D.T, D, U)))
    return ResidualNorms(d, c, s, dr, cr, sr)


def residuals_v1(sys: SystemQuadruple, V1: np.ndarray, A_K: np.ndarray) -> ResidualNorms:
    """Check that ``V1 = [I; P; K]`` satisfies the relations with advance ``A_K``.

    The next-step blocks are ``V1[:2n] @ A_K = [A_K; P A_K]``.
    """
    return _relation_residuals(sys, V1, V1[: 2 * sys.n] @ A_K)


def residuals_v2(sys: SystemQuadruple, V2: np.ndarray, Vbar2: np.ndarray) -> ResidualNorms:
    """Check that ``V2`` steps backward onto ``Vbar2 = [W; P W - I]``."""
    return _relation_residuals(sys, V2, Vbar2)


@dataclass
class InvariantBases:
    V1: np.ndarray
    V2: np.ndarray
    Vbar2: np.ndarray


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
    count when the other rows of ``A_u`` are independent.
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
    """Everything ``analyze`` computed for one system.

    Two outputs are views into a basis, so each ``n x n`` block is held once:
    ``riccati.P`` is the rows ``n:2n`` of ``bases.V1`` and ``gramian.W`` the
    top half of ``bases.Vbar2`` (``bases.Vbar2 is gramian.Vbar2``). Writing
    into ``V1`` or ``Vbar2`` changes ``P`` or ``W``. ``residuals_v1`` was
    taken from an equal copy of ``V1``, formed right after the Riccati solve
    and dropped before the Gramian; ``bases.V1`` is assembled last.
    """

    sys: SystemQuadruple
    staircase: StaircaseForm
    riccati: RiccatiSolution
    gramian: ClosedLoopGramian
    bases: InvariantBases
    residuals_v1: ResidualNorms
    residuals_v2: ResidualNorms
    report: DimensionReport


def analyze(sys: SystemQuadruple, cfg: ToleranceConfig = DEFAULT_TOL) -> AnalysisBundle:
    """Full structural analysis of one system.

    Runs the reachability decomposition, solves the Riccati equation,
    checks ``V1 = [I; P; K]`` against it, computes the closed-loop Gramian
    with ``Vbar2``, assembles ``V2``, checks it and fills in the dimension
    report. ``bases.Vbar2`` is ``gramian.Vbar2`` itself, so ``P W`` is
    formed once.

    Each residual triple is taken while the fewest outputs are held: the
    first from a ``V1`` that is dropped at once, before the Gramian exists,
    the second before the returned ``V1`` exists. That ``V1`` is assembled
    last, with the same bits, and ``riccati.P`` is rebound to its
    C-contiguous view ``V1[n:2n]`` (the same bits), so the solver's own
    ``P`` is freed, as ``W`` is a view of ``Vbar2``. Holding one ``V1``
    throughout would put its ``(2n + m) x n`` under both residual checks'
    temporaries and under the Gramian's Smith solve. ``K`` stays its own
    Fortran-ordered array: a C-ordered view would round later products with
    it differently.
    """
    st = staircase(sys, cfg)
    ric = solve_dare(sys, cfg)
    res1 = residuals_v1(sys, assemble_v1(ric), ric.A_K)
    gram = closed_loop_gramian(sys, ric, cfg)

    # V1 and Vbar2 have rank n by construction, and ker V2 = ker [A B]' (see
    # DimensionReport), so the only rank decision is on plant data and does
    # not depend on the scale of the cost.
    rank_v2 = rank(np.hstack([sys.A, sys.B]), cfg)

    V2 = assemble_v2(ric, gram)
    Vbar2 = assemble_vbar2(ric, gram)  # gram's own array, not a copy
    res2 = residuals_v2(sys, V2, Vbar2)

    report = DimensionReport(
        n=sys.n,
        m=sys.m,
        p=sys.p,
        n_c=st.n_c,
        n_u=st.n_u,
        rank_v1=sys.n,
        rank_v2=rank_v2,
        rank_vbar2=sys.n,
        zero_rows_Au=zero_row_indices(st.A_u, cfg),
        rank_deficiency_v2=sys.n - rank_v2,
        tolerances=cfg,
    )
    V1 = assemble_v1(ric)
    ric.P = V1[sys.n : 2 * sys.n]  # P is held once, inside V1
    return AnalysisBundle(
        sys=sys,
        staircase=st,
        riccati=ric,
        gramian=gram,
        bases=InvariantBases(V1=V1, V2=V2, Vbar2=Vbar2),
        residuals_v1=res1,
        residuals_v2=res2,
        report=report,
    )

