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
  family one step in with its input row attached; its rank can drop below
  ``n`` exactly when the unreachable part of ``A`` has zero rows.

``analyze`` bundles the decomposition, Riccati solution, Gramian, bases,
residual checks and a dimension report in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import DEFAULT_TOL, ToleranceConfig, rank
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
    "dimension_report",
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


def _norms(residual: np.ndarray, terms) -> tuple[float, float]:
    raw = float(np.linalg.norm(residual, "fro"))
    scale = 1.0 + max(float(np.linalg.norm(t, "fro")) for t in terms)
    return raw, raw / scale


def assemble_v1(ric: RiccatiSolution) -> np.ndarray:
    """Forward-family basis ``[I; P; K]``, shape (2n + m, n)."""
    n = ric.P.shape[0]
    return np.vstack([np.eye(n), ric.P, ric.K])


def assemble_vbar2(ric: RiccatiSolution, gram: GramianSolution) -> np.ndarray:
    """Backward-family basis ``[W; P W - I]``, shape (2n, n), always rank n."""
    n = ric.P.shape[0]
    return np.vstack([gram.W, ric.P @ gram.W - np.eye(n)])


def assemble_v2(ric: RiccatiSolution, gram: GramianSolution) -> np.ndarray:
    """Backward-family basis with input row, shape (2n + m, n).

    The state and costate rows are exactly ``assemble_vbar2(ric, gram) @
    ric.A_K.T``; the input row is ``K W A_K' + Rw^{-1} B'``.
    """
    top = assemble_vbar2(ric, gram) @ ric.A_K.T
    input_row = ric.K @ gram.W @ ric.A_K.T + ric.Rw_inv_Bt
    return np.vstack([top, input_row])


def residuals_v1(sys: SystemQuadruple, ric: RiccatiSolution) -> ResidualNorms:
    """Check that ``V1`` satisfies the stacked relations with advance ``A_K``.

    Plugging ``x = I``, ``p = P``, ``u = K`` and next-step values
    ``x_+ = A_K``, ``p_+ = P A_K`` into the three relations gives:

        A + B K             = A_K
        C'C + A'P A_K + C'D K = P
        D'C + B'P A_K + D'D K = 0
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    P, K, A_K = ric.P, ric.K, ric.A_K

    r_dyn = A + B @ K - A_K
    t_dyn = (A, B @ K, A_K)
    r_cos = C.T @ C + A.T @ P @ A_K + C.T @ D @ K - P
    t_cos = (C.T @ C, A.T @ P @ A_K, C.T @ D @ K, P)
    r_sta = D.T @ C + B.T @ P @ A_K + D.T @ D @ K
    t_sta = (D.T @ C, B.T @ P @ A_K, D.T @ D @ K)

    d, dr = _norms(r_dyn, t_dyn)
    c, cr = _norms(r_cos, t_cos)
    s, sr = _norms(r_sta, t_sta)
    return ResidualNorms(d, c, s, dr, cr, sr)


def residuals_v2(
    sys: SystemQuadruple, ric: RiccatiSolution, gram: GramianSolution
) -> ResidualNorms:
    """Check that ``V2`` steps backward onto ``Vbar2``.

    With ``X = W A_K'``, ``U = K W A_K' + Rw^{-1} B'`` and next-step blocks
    ``x_+ = W``, ``p_+ = P W - I`` the relations read:

        A X + B U                     = W
        C'C X + A'(P W - I) + C'D U   = (P W - I) A_K'
        D'C X + B'(P W - I) + D'D U   = 0
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    P, K, A_K = ric.P, ric.K, ric.A_K
    W = gram.W

    X = W @ A_K.T
    Lam = (P @ W - np.eye(A.shape[0])) @ A_K.T
    Lam_next = P @ W - np.eye(A.shape[0])
    U = K @ W @ A_K.T + ric.Rw_inv_Bt

    r_dyn = A @ X + B @ U - W
    t_dyn = (A @ X, B @ U, W)
    r_cos = C.T @ C @ X + A.T @ Lam_next + C.T @ D @ U - Lam
    t_cos = (C.T @ C @ X, A.T @ Lam_next, C.T @ D @ U, Lam)
    r_sta = D.T @ C @ X + B.T @ Lam_next + D.T @ D @ U
    t_sta = (D.T @ C @ X, B.T @ Lam_next, D.T @ D @ U)

    d, dr = _norms(r_dyn, t_dyn)
    c, cr = _norms(r_cos, t_cos)
    s, sr = _norms(r_sta, t_sta)
    return ResidualNorms(d, c, s, dr, cr, sr)


@dataclass
class InvariantBases:
    V1: np.ndarray
    V2: np.ndarray
    Vbar2: np.ndarray
    rank_v1: int
    rank_v2: int
    rank_vbar2: int


@dataclass
class DimensionReport:
    """Counts and ranks a caller needs to judge solvability and degeneracy.

    ``zero_rows_Au`` lists the 1-based rows of the unreachable diagonal
    block that vanish; each such row forces one zero column in ``V2`` in the
    staircase basis, so ``rank_deficiency_v2 = n - rank_v2`` matches their
    count for generic data.
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

    V1 = assemble_v1(ric)
    V2 = assemble_v2(ric, gram)
    Vbar2 = assemble_vbar2(ric, gram)
    bases = InvariantBases(
        V1=V1,
        V2=V2,
        Vbar2=Vbar2,
        rank_v1=rank(V1, cfg),
        rank_v2=rank(V2, cfg),
        rank_vbar2=rank(Vbar2, cfg),
    )

    res1 = residuals_v1(sys, ric)
    res2 = residuals_v2(sys, ric, gram)

    report = DimensionReport(
        n=sys.n,
        m=sys.m,
        p=sys.p,
        n_c=st.n_c,
        n_u=st.n_u,
        rank_v1=bases.rank_v1,
        rank_v2=bases.rank_v2,
        rank_vbar2=bases.rank_vbar2,
        zero_rows_Au=zero_row_indices(st.A_u, cfg),
        rank_deficiency_v2=sys.n - bases.rank_v2,
        tolerances=cfg,
    )
    return AnalysisBundle(
        sys=sys,
        staircase=st,
        riccati=ric,
        gramian=gram,
        bases=bases,
        residuals_v1=res1,
        residuals_v2=res2,
        report=report,
    )


def dimension_report(sys: SystemQuadruple, cfg: ToleranceConfig = DEFAULT_TOL) -> DimensionReport:
    """Shortcut for ``analyze(sys, cfg).report``."""
    return analyze(sys, cfg).report
