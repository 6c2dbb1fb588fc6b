"""Structural analysis and nonrecursive solution of discrete-time LQ problems.

The package computes, for a plant (A, B) with stage cost |C x + D u|^2:

* the stabilizing Riccati solution (P, K, Rw) and closed loop A_K = A + B K,
* the closed-loop Gramian W,
* closed-form bases V1, V2, Vbar2 for the forward and backward solution
  families of the coupled state/costate/input relations, with rank
  diagnostics explaining when V2 loses rank,
* finite-horizon trajectories in closed form from the Riccati solution and
  the Gramian, without a backward recursion.
"""

from .errors import (
    BoundaryInconsistent,
    ConvergenceFailure,
    HamlqError,
    NotStabilizable,
    NotStable,
    SingularMatrix,
    SingularWeight,
)
from .golden import GoldenResult, golden_check, golden_system
from .hamsubspace import (
    AnalysisBundle,
    DimensionReport,
    InvariantBases,
    ResidualNorms,
    analyze,
    assemble_v1,
    assemble_v2,
    assemble_vbar2,
    residuals_v1,
    residuals_v2,
)
from .lqtraj import (
    Trajectory,
    TrajectoryProblem,
    cost,
    solve_nonrecursive,
    stage_costs,
)
from .matcore import DEFAULT_TOL, ToleranceConfig
from .reachdecomp import (
    StaircaseForm,
    SystemQuadruple,
    staircase,
    zero_row_indices,
)
from .riccati import RiccatiSolution, solve_dare
from .stablyap import (
    ClosedLoopGramian,
    GramianSolution,
    closed_loop_gramian,
    solve_dlyap_stable,
    stability_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "HamlqError",
    "SingularMatrix",
    "ConvergenceFailure",
    "NotStabilizable",
    "SingularWeight",
    "NotStable",
    "BoundaryInconsistent",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "SystemQuadruple",
    "StaircaseForm",
    "staircase",
    "zero_row_indices",
    "ClosedLoopGramian",
    "GramianSolution",
    "solve_dlyap_stable",
    "closed_loop_gramian",
    "stability_certificate",
    "RiccatiSolution",
    "solve_dare",
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
    "TrajectoryProblem",
    "Trajectory",
    "solve_nonrecursive",
    "cost",
    "stage_costs",
    "GoldenResult",
    "golden_check",
    "golden_system",
]
