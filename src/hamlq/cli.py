"""Command-line front end.

Three subcommands:

* ``analyze <file> [--full] [--tol x]`` runs the structural analysis on a
  system read from JSON and prints a report.
* ``trajectory <file> --x0 a,b,... --kf N [--xf a,b,...]`` solves one
  finite-horizon problem and writes the trajectory as CSV or JSON.
* ``golden [--report]`` recomputes the built-in reference example and
  compares against the stored five-digit matrices.

Input files hold a single JSON object with row-major matrices, e.g.
``{"A": [[...]], "B": [[...]], "C": [[...]], "D": [[...]]}``. Exit codes:
0 success, 1 reference check failed, 2 invalid input, 3 assumption
violation, 4 convergence failure, 5 boundary system inconsistent, 6 out of
memory (for example a trajectory whose ``k_f + 1`` rows cannot be
allocated).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

import numpy as np

from .errors import (
    BoundaryInconsistent,
    ConvergenceFailure,
    NotStabilizable,
    NotStable,
    SingularWeight,
)
from . import hamsubspace
from .golden import golden_check
from .hamsubspace import analyze
from .lqtraj import TrajectoryProblem, solve_nonrecursive, stage_costs
from .matcore import DEFAULT_TOL, ToleranceConfig
from .reachdecomp import SystemQuadruple
from .riccati import solve_dare
from .stablyap import closed_loop_gramian

__all__ = ["main", "run"]

# Exit code of each error a subcommand reports; the first matching row wins,
# and an error no row names propagates. json.JSONDecodeError is a ValueError.
_EXIT_CODES = {
    OSError: 2,
    ValueError: 2,
    NotStabilizable: 3,
    SingularWeight: 3,
    ConvergenceFailure: 4,
    NotStable: 4,
    BoundaryInconsistent: 5,
    MemoryError: 6,
}


def load_system(path: str) -> SystemQuadruple:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("input must be a JSON object with matrices A, B, C, D")
    for name in "ABCD":
        if name not in doc:
            raise ValueError(f"input is missing matrix {name}")
    return SystemQuadruple(A=doc["A"], B=doc["B"], C=doc["C"], D=doc["D"])


def _parse_vector(text: str, name: str) -> np.ndarray:
    """Comma-separated numbers; an empty field is an entry left out."""
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"{name} must be a comma-separated list of numbers with no empty field") from exc


def _system_and_tolerances(args) -> tuple[SystemQuadruple, ToleranceConfig]:
    """The ``input`` system and the ``--tol`` policy both subcommands share."""
    cfg = DEFAULT_TOL
    if args.tol is not None:
        cfg = dataclasses.replace(DEFAULT_TOL, rank_tol_factor=args.tol)
    return load_system(args.input), cfg


def _residual_dict(res) -> dict:
    return {
        "dynamics": res.dynamics,
        "costate": res.costate,
        "stationarity": res.stationarity,
    }


def cmd_analyze(args) -> int:
    sysq, cfg = _system_and_tolerances(args)
    bundle = analyze(sysq, cfg)
    ric, gram = bundle.riccati, bundle.gramian
    doc = dataclasses.asdict(bundle.report)
    doc["residuals"] = {
        "v1": _residual_dict(hamsubspace.residuals_v1(sysq, ric, gram)),
        "v2": _residual_dict(hamsubspace.residuals_v2(sysq, ric, gram)),
    }
    doc["iterations"] = {
        "riccati": ric.iterations,
        "gramian": gram.iterations,
    }
    if args.full:
        doc["system"] = {
            "A": sysq.A.tolist(),
            "B": sysq.B.tolist(),
            "C": sysq.C.tolist(),
            "D": sysq.D.tolist(),
        }
        doc["matrices"] = {
            "P": ric.P.tolist(),
            "K": ric.K.tolist(),
            "W": gram.W.tolist(),
            "V1": hamsubspace.assemble_v1(ric).tolist(),
            "V2": hamsubspace.assemble_v2(ric, gram).tolist(),
            "Vbar2": hamsubspace.assemble_vbar2(ric, gram).tolist(),
        }
    print(json.dumps(doc, indent=2))
    return 0


def _trajectory_csv(sysq, x: list, p: list, u: list, costs: list, J: float) -> str:
    """One row per step 0..k_f, then the total; the terminal step has no
    input and no stage cost, so its cells are empty."""
    n, m = sysq.n, sysq.m
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["k"]
        + [f"x{i}" for i in range(1, n + 1)]
        + [f"p{i}" for i in range(1, n + 1)]
        + [f"u{i}" for i in range(1, m + 1)]
        + ["stage_cost"]
    )
    steps = zip(x, p, u + [[""] * m], costs + [""])
    writer.writerows([k, *xk, *pk, *uk, ck] for k, (xk, pk, uk, ck) in enumerate(steps))
    writer.writerow(["total"] + [""] * (2 * n + m) + [J])
    return buf.getvalue()


def cmd_trajectory(args) -> int:
    sysq, cfg = _system_and_tolerances(args)
    x0 = _parse_vector(args.x0, "--x0")
    xf = _parse_vector(args.xf, "--xf") if args.xf is not None else None
    prob = TrajectoryProblem(sys=sysq, x0=x0, k_f=args.kf, xf=xf)

    ric = solve_dare(sysq, cfg)
    gram = closed_loop_gramian(sysq, ric, cfg)
    traj = solve_nonrecursive(prob, ric, gram, cfg)

    # csv writes a float with str(), the same shortest round-trip text that
    # json.dumps writes, so both formats print the same digits.
    x, p, u = traj.x.tolist(), traj.p.tolist(), traj.u.tolist()
    costs = stage_costs(traj, sysq).tolist()
    if args.format == "json":
        doc = {
            "k_f": prob.k_f,
            "x": x,
            "p": p,
            "u": u,
            "stage_costs": costs,
            "J": traj.J,
            "alpha": traj.alpha.tolist(),
            "beta": traj.beta.tolist(),
        }
        out = json.dumps(doc, indent=2) + "\n"
    else:
        out = _trajectory_csv(sysq, x, p, u, costs, traj.J)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_golden(args) -> int:
    result = golden_check()
    verdict = "PASS (entrywise)" if result.entrywise_pass else "entrywise FAIL"
    print(
        f"{verdict}: max |dev| V2 = {result.max_dev_v2:.2e} at {result.loc_v2}, "
        f"Vbar2 = {result.max_dev_vbar2:.2e} at {result.loc_vbar2}"
    )
    if not result.entrywise_pass:
        verdict = "PASS" if result.fallback_pass else "FAIL"
        print(
            f"fallback (subspace) {verdict}: largest principal angle "
            f"V2 = {result.max_angle_v2:.2e}, Vbar2 = {result.max_angle_vbar2:.2e}, "
            f"max relative residual = {result.max_residual_rel:.2e}"
        )
    if args.report:
        rep = result.bundle.report
        print(f"rank_v2 = {rep.rank_v2} vs n = {rep.n}")
        print(f"rank_vbar2 = {rep.rank_vbar2}")
        print(f"zero_rows_Au = {rep.zero_rows_Au}")
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamlq",
        description="Invariant subspace bases and nonrecursive trajectories "
        "for discrete-time LQ problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("input", help="JSON file with matrices A, B, C, D")
    system.add_argument("--tol", type=float, default=None, help="rank tolerance factor override")

    pa = sub.add_parser("analyze", parents=[system], help="structural analysis of a system file")
    pa.add_argument("--full", action="store_true", help="include matrices in the report")
    pa.set_defaults(func=cmd_analyze)

    pt = sub.add_parser("trajectory", parents=[system], help="solve one finite-horizon problem")
    pt.add_argument("--x0", required=True, help="initial state, comma separated")
    pt.add_argument("--kf", required=True, type=int, help="horizon length")
    pt.add_argument("--xf", default=None, help="terminal state, comma separated")
    pt.add_argument("--out", default=None, help="output file (default stdout)")
    pt.add_argument("--format", choices=("json", "csv"), default="csv")
    pt.set_defaults(func=cmd_trajectory)

    pg = sub.add_parser("golden", help="check the built-in reference example")
    pg.add_argument("--report", action="store_true", help="also print rank diagnostics")
    pg.set_defaults(func=cmd_golden)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
