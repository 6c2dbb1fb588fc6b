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
from .stablyap import GramianSolution, closed_loop_gramian

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
    """Forward-family basis ``[I; P; K]``, shape (2n + m, n)."""
    n = ric.P.shape[0]
    return np.vstack([np.eye(n), ric.P, ric.K])


def assemble_vbar2(ric: RiccatiSolution, gram: GramianSolution) -> np.ndarray:
    """Backward-family basis ``[W; P W - I]``, shape (2n, n), always rank n."""
    n = ric.P.shape[0]
    out = np.empty((2 * n, n))
    out[:n] = gram.W
    np.dot(ric.P, gram.W, out=out[n:])
    out[n:].reshape(-1)[:: n + 1] -= 1.0  # the diagonal of P W
    return out


def assemble_v2(ric: RiccatiSolution, gram: GramianSolution) -> np.ndarray:
    """Backward-family basis with input row, shape (2n + m, n).

    The state and costate rows are exactly ``assemble_vbar2(ric, gram) @
    ric.A_K.T``; the input row is ``K W A_K' + Rw^{-1} B'``.
    """
    n = ric.P.shape[0]
    out = np.empty((2 * n + ric.K.shape[0], n))
    np.dot(assemble_vbar2(ric, gram), ric.A_K.T, out=out[: 2 * n])
    np.add(ric.K @ gram.W @ ric.A_K.T, ric.Rw_inv_Bt, out=out[2 * n :])
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
    sys: SystemQuadruple
    staircase: StaircaseForm
    riccati: RiccatiSolution
    gramian: GramianSolution
    bases: InvariantBases
    residuals_v1: ResidualNorms
    residuals_v2: ResidualNorms
    report: DimensionReport


def analyze(sys: SystemQuadruple, cfg: ToleranceConfig = DEFAULT_TOL) -> AnalysisBundle:
    """Full structural analysis of one system.

    Runs the reachability decomposition, solves the Riccati equation,
    computes the closed-loop Gramian, assembles all three bases, evaluates
    both residual triples and fills in the dimension report.
    """
    st = staircase(sys, cfg)
    ric = solve_dare(sys, cfg)
    gram = closed_loop_gramian(sys, ric, cfg)

    # V1 and Vbar2 have rank n by construction, and ker V2 = ker [A B]' (see
    # DimensionReport), so the only rank decision is on plant data and does
    # not depend on the scale of the cost.
    rank_v2 = rank(np.hstack([sys.A, sys.B]), cfg)

    # each residual triple is taken before the next basis adds to the peak
    V1 = assemble_v1(ric)
    res1 = residuals_v1(sys, V1, ric.A_K)
    V2 = assemble_v2(ric, gram)
    Vbar2 = assemble_vbar2(ric, gram)
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

