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
violation, 4 convergence failure, 5 endpoint/boundary infeasible.
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
    Infeasible,
    NotStabilizable,
    NotStable,
    SingularWeight,
)
from .golden import golden_check
from .hamsubspace import analyze
from .lqtraj import TrajectoryProblem, solve_nonrecursive, stage_costs
from .matcore import DEFAULT_TOL, ToleranceConfig
from .reachdecomp import SystemQuadruple
from .riccati import solve_dare
from .stablyap import closed_loop_gramian

__all__ = ["main", "run"]


def load_system(path: str) -> SystemQuadruple:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("input must be a JSON object with matrices A, B, C, D")
    mats = {}
    for name in ("A", "B", "C", "D"):
        if name not in doc:
            raise ValueError(f"input is missing matrix {name}")
        mats[name] = doc[name]
    return SystemQuadruple(A=mats["A"], B=mats["B"], C=mats["C"], D=mats["D"])


def _parse_vector(text: str, name: str) -> np.ndarray:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{name} must be a comma-separated list of numbers") from exc
    if not values:
        raise ValueError(f"{name} must contain at least one number")
    return np.array(values)


def _tolerances(args) -> ToleranceConfig:
    if getattr(args, "tol", None) is not None:
        return dataclasses.replace(DEFAULT_TOL, rank_tol_factor=args.tol)
    return DEFAULT_TOL


def _residual_dict(res) -> dict:
    return {
        "dynamics": res.dynamics,
        "costate": res.costate,
        "stationarity": res.stationarity,
    }


def cmd_analyze(args) -> int:
    cfg = _tolerances(args)
    sysq = load_system(args.input)
    bundle = analyze(sysq, cfg)
    doc = dataclasses.asdict(bundle.report)
    doc["residuals"] = {
        "v1": _residual_dict(bundle.residuals_v1),
        "v2": _residual_dict(bundle.residuals_v2),
    }
    doc["iterations"] = {
        "riccati": bundle.riccati.iterations,
        "gramian": bundle.gramian.iterations,
    }
    if args.full:
        doc["system"] = {
            "A": bundle.sys.A.tolist(),
            "B": bundle.sys.B.tolist(),
            "C": bundle.sys.C.tolist(),
            "D": bundle.sys.D.tolist(),
        }
        doc["matrices"] = {
            "P": bundle.riccati.P.tolist(),
            "K": bundle.riccati.K.tolist(),
            "W": bundle.gramian.W.tolist(),
            "V1": bundle.bases.V1.tolist(),
            "V2": bundle.bases.V2.tolist(),
            "Vbar2": bundle.bases.Vbar2.tolist(),
        }
    print(json.dumps(doc, indent=2))
    return 0


def _trajectory_csv(traj, sysq) -> str:
    n, m = sysq.n, sysq.m
    costs = stage_costs(traj, sysq)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = (
        ["k"]
        + [f"x{i}" for i in range(1, n + 1)]
        + [f"p{i}" for i in range(1, n + 1)]
        + [f"u{i}" for i in range(1, m + 1)]
        + ["stage_cost"]
    )
    writer.writerow(header)
    k_f = traj.u.shape[0]
    for k in range(k_f + 1):
        row = [k] + [repr(float(v)) for v in traj.x[k]] + [repr(float(v)) for v in traj.p[k]]
        if k < k_f:
            row += [repr(float(v)) for v in traj.u[k]] + [repr(float(costs[k]))]
        else:
            row += [""] * m + [""]
        writer.writerow(row)
    writer.writerow(["total"] + [""] * (2 * n + m) + [repr(float(traj.J))])
    return buf.getvalue()


def cmd_trajectory(args) -> int:
    cfg = _tolerances(args)
    sysq = load_system(args.input)
    x0 = _parse_vector(args.x0, "--x0")
    xf = _parse_vector(args.xf, "--xf") if args.xf is not None else None
    prob = TrajectoryProblem(sys=sysq, x0=x0, k_f=args.kf, xf=xf)

    ric = solve_dare(sysq, cfg)
    gram = closed_loop_gramian(sysq, ric, cfg)
    traj = solve_nonrecursive(prob, ric, gram, cfg)

    if args.format == "json":
        out = json.dumps(
            {
                "k_f": prob.k_f,
                "x": traj.x.tolist(),
                "p": traj.p.tolist(),
                "u": traj.u.tolist(),
                "stage_costs": stage_costs(traj, sysq).tolist(),
                "J": traj.J,
                "alpha": traj.alpha.tolist(),
                "beta": traj.beta.tolist(),
            },
            indent=2,
        )
    else:
        out = _trajectory_csv(traj, sysq)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out if out.endswith("\n") else out + "\n")
    else:
        print(out, end="" if out.endswith("\n") else "\n")
    return 0


def cmd_golden(args) -> int:
    result = golden_check()
    if result.entrywise_pass:
        print(
            f"PASS (entrywise): max |dev| V2 = {result.max_dev_v2:.2e} "
            f"at {result.loc_v2}, Vbar2 = {result.max_dev_vbar2:.2e} at {result.loc_vbar2}"
        )
    else:
        print(
            f"entrywise FAIL: max |dev| V2 = {result.max_dev_v2:.2e} at {result.loc_v2}, "
            f"Vbar2 = {result.max_dev_vbar2:.2e} at {result.loc_vbar2}"
        )
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

    pa = sub.add_parser("analyze", help="structural analysis of a system file")
    pa.add_argument("input", help="JSON file with matrices A, B, C, D")
    pa.add_argument("--full", action="store_true", help="include matrices in the report")
    pa.add_argument("--tol", type=float, default=None, help="rank tolerance factor override")
    pa.set_defaults(func=cmd_analyze)

    pt = sub.add_parser("trajectory", help="solve one finite-horizon problem")
    pt.add_argument("input", help="JSON file with matrices A, B, C, D")
    pt.add_argument("--x0", required=True, help="initial state, comma separated")
    pt.add_argument("--kf", required=True, type=int, help="horizon length")
    pt.add_argument("--xf", default=None, help="terminal state, comma separated")
    pt.add_argument("--out", default=None, help="output file (default stdout)")
    pt.add_argument("--format", choices=("json", "csv"), default="csv")
    pt.add_argument("--tol", type=float, default=None, help="rank tolerance factor override")
    pt.set_defaults(func=cmd_trajectory)

    pg = sub.add_parser("golden", help="check the built-in reference example")
    pg.add_argument("--report", action="store_true", help="also print rank diagnostics")
    pg.set_defaults(func=cmd_golden)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotStabilizable, SingularWeight) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceFailure, NotStable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (BoundaryInconsistent, Infeasible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


def run() -> None:
    raise SystemExit(main())
