"""Built-in reference example with known five-digit results.

A fourth-order system with two inputs whose stage weight D'D is singular
and whose unreachable block has a zero row. For this system the backward
basis V2 loses rank (3 instead of n = 4) while Vbar2 keeps full rank. The
expected V2 and Vbar2 are stored to the five displayed digits and the check
recomputes them from scratch, comparing entrywise first and falling back to
a subspace-level comparison only if that fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hamsubspace
from .hamsubspace import AnalysisBundle, analyze
from .matcore import DEFAULT_TOL, ToleranceConfig, range_basis
from .reachdecomp import SystemQuadruple

__all__ = [
    "ENTRYWISE_TOL",
    "ANGLE_TOL",
    "RESIDUAL_TOL",
    "REFERENCE_V2",
    "REFERENCE_VBAR2",
    "golden_system",
    "GoldenResult",
    "golden_check",
]

ENTRYWISE_TOL = 5e-5  # reference values carry five digits
ANGLE_TOL = 1e-6
RESIDUAL_TOL = 1e-8

_A = [
    [0.3, -0.4, 0.5, 0.6],
    [0.1, 0.2, 0.1, 0.1],
    [0.0, 0.0, 0.5, 0.0],
    [0.0, 0.0, 0.0, 0.0],
]
_B = [
    [1.0, 0.2],
    [2.0, 3.0],
    [0.0, 0.0],
    [0.0, 0.0],
]
_C = [
    [1.0, 2.0, 3.0, 4.0],
    [2.0, 1.0, 5.0, 6.0],
]
_D = [
    [10.0, 0.0],
    [0.0, 0.0],
]

REFERENCE_V2 = np.array(
    [
        [0.3661, -0.4314, 0.0, 0.0],
        [-0.7323, 0.8629, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [-0.0, 0.0, 0.0, 0.0],
        [0.0, -0.0, 0.0, 0.0],
        [1.8443, -1.1885, -0.5, 0.0],
        [-0.0, 0.0, 0.0, 0.0],
        [0.1098, -0.1294, 0.0, 0.0],
        [-0.2088, 0.4374, 0.0, 0.0],
    ]
)

REFERENCE_VBAR2 = np.array(
    [
        [0.4708, -0.5165, 0.0, 0.0],
        [-0.5165, 1.1828, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [-0.0, 0.0, 0.0, 0.0],
        [0.0, -0.0, 0.0, 0.0],
        [3.6885, -2.377, -1.0, 0.0],
        [2.7295, 0.5411, 0.0, -1.0],
    ]
)


def golden_system() -> SystemQuadruple:
    """The embedded reference quadruple."""
    return SystemQuadruple(A=_A, B=_B, C=_C, D=_D)


@dataclass
class GoldenResult:
    """Outcome of the reference check.

    ``passed`` is the overall verdict. The fallback fields stay ``None``
    unless the entrywise comparison failed and the subspace-level criterion
    was evaluated.
    """

    passed: bool
    entrywise_pass: bool
    max_dev_v2: float
    loc_v2: tuple[int, int]
    max_dev_vbar2: float
    loc_vbar2: tuple[int, int]
    fallback_pass: bool | None
    max_angle_v2: float | None
    max_angle_vbar2: float | None
    max_residual_rel: float
    bundle: AnalysisBundle


def _max_deviation(computed: np.ndarray, reference: np.ndarray):
    dev = np.abs(computed - reference)
    flat = int(np.argmax(dev))
    i, j = np.unravel_index(flat, dev.shape)
    return float(dev[i, j]), (int(i) + 1, int(j) + 1)


def _largest_angle(computed: np.ndarray, reference: np.ndarray, cfg: ToleranceConfig) -> float:
    """Largest principal angle between the column spans, ranks cut as ``cfg`` says.

    With ``qa``, ``qb`` the leading left singular vectors it is the arcsine of
    ``sigma_max(qb - qa qa' qb)`` (Bjorck & Golub 1973), accurate for small angles.
    """
    ua, ra = range_basis(computed, cfg)
    ub, rb = range_basis(reference, cfg)
    if ra != rb:
        return float(np.pi / 2)
    qa, qb = ua[:, :ra], ub[:, :rb]
    sines = np.linalg.svd(qb - qa @ (qa.T @ qb), compute_uv=False)
    return float(np.arcsin(min(sines.max(initial=0.0), 1.0)))


def golden_check(
    sys: SystemQuadruple | None = None, cfg: ToleranceConfig = DEFAULT_TOL
) -> GoldenResult:
    """Recompute V2 and Vbar2 for the reference system and compare.

    Passing a perturbed ``sys`` exercises the failure path (one not of the
    reference's shape raises ``ValueError``); by default the embedded
    quadruple is used. Entrywise agreement within ``ENTRYWISE_TOL`` passes
    directly. Otherwise column spans are compared through the largest
    principal angle and all six residual identities must hold, and that
    fallback verdict is reported distinctly.
    """
    sys = golden_system() if sys is None else sys
    if (2 * sys.n + sys.m, sys.n) != REFERENCE_V2.shape:
        raise ValueError(f"golden_check needs the reference's 4 states and 2 inputs, got {sys.n} and {sys.m}")
    bundle = analyze(sys, cfg)
    ric, gram = bundle.riccati, bundle.gramian
    # the residual checks first, so neither runs with V2 held
    max_residual = max(
        hamsubspace.residuals_v1(sys, ric, gram).max_rel, hamsubspace.residuals_v2(sys, ric, gram).max_rel
    )
    V2, Vbar2 = hamsubspace.assemble_v2(ric, gram), hamsubspace.assemble_vbar2(ric, gram)

    dev2, loc2 = _max_deviation(V2, REFERENCE_V2)
    devb, locb = _max_deviation(Vbar2, REFERENCE_VBAR2)
    entrywise = dev2 <= ENTRYWISE_TOL and devb <= ENTRYWISE_TOL

    fallback = None
    ang2 = angb = None
    if not entrywise:
        ang2 = _largest_angle(V2, REFERENCE_V2, cfg)
        angb = _largest_angle(Vbar2, REFERENCE_VBAR2, cfg)
        fallback = (
            ang2 <= ANGLE_TOL and angb <= ANGLE_TOL and max_residual <= RESIDUAL_TOL
        )

    return GoldenResult(
        passed=entrywise or bool(fallback),
        entrywise_pass=entrywise,
        max_dev_v2=dev2,
        loc_v2=loc2,
        max_dev_vbar2=devb,
        loc_vbar2=locb,
        fallback_pass=fallback,
        max_angle_v2=ang2,
        max_angle_vbar2=angb,
        max_residual_rel=max_residual,
        bundle=bundle,
    )
