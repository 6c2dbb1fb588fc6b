"""The benchmark's workloads: seeded operation mixes, how one operation runs,
and how its output is checked.

Every workload is a fixed list of ``Item``s built from the seed alone; the
timed run cycles through that list in order, so each pass does the same work.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hamlq.cli
from hamlq import hamsubspace, lqtraj, riccati, stablyap
from hamlq.errors import HamlqError
from hamlq.lqtraj import TrajectoryProblem

import checks
import systems

WORKLOADS = ("analyze-mix", "traj-many")
CLI_EXIT_ERRORS = {3: "NotStabilizable", 5: "BoundaryInconsistent"}  # hamlq.cli exit codes


@dataclass
class Item:
    """One operation of a workload.

    ``kind`` is ``analyze`` (``analyze(sys)``), ``traj`` (``solve_nonrecursive``
    on the solved system ``sys_key``) or ``cli`` (in-process ``hamlq <argv>``,
    run only by a traced run to measure the cli layer).
    """

    id: str
    kind: str
    sys: object
    expect: systems.Expect | None = None
    prob: TrajectoryProblem | None = None
    sys_key: str | None = None
    argv: list[str] = field(default_factory=list)


@dataclass
class CliOutput:
    code: int
    stdout: str


def _rngs(seed: int):
    """Independent streams for systems and for problems on them."""
    return np.random.default_rng([seed, 0]), np.random.default_rng([seed, 1])


def analyze_items(seed: int) -> list[Item]:
    """Every path through ``analyze``: K = 0 Newton-only at growing n, the
    value-iteration bootstrap, n_c < n with a rank drop, singular D'D.

    Most kinds are drawn several times, with spectral radii of A spread evenly
    over 0.3..0.9 (they set the Smith doubling counts). The systems are the
    same for every seed: drawn per seed, the unstable-mode systems alone
    moved a run's median and tail by a quarter, as the bootstrap's length
    and outcome vary from draw to draw. The seed instead draws an orthogonal
    change of basis for every system whose check does not depend on its
    basis: a new input with the same spectrum, reachability and DARE
    solution up to the change of basis, so the same work.
    """
    rng = np.random.default_rng([0, 0])
    basis_rng = np.random.default_rng([seed, 2])

    def radius(i, count):
        return 0.3 + 0.6 * (i + 0.5) / count

    built = [("golden", systems.golden())]
    for n, count in ((20, 4), (50, 3), (100, 2)):
        built += [(f"stable-n{n}-{i}", systems.generic_stable(rng, n, radius(i, count))) for i in range(count)]
    built.append(("stable-n200", systems.generic_stable(rng, 200, 0.6)))
    for n, count in ((4, 4), (10, 4), (20, 2), (50, 2)):
        built += [(f"unstable-n{n}-{i}", systems.unstable_modes(rng, n, k=min(3, n // 2))) for i in range(count)]
    for n_c, n_u, rot, count in ((3, 3, False, 6), (12, 8, True, 3), (60, 40, True, 1)):
        tag = f"zero-row-n{n_c + n_u}" + ("-rotated" if rot else "")
        built += [(f"{tag}-{i}", systems.zero_row_embedded(rng, n_c, n_u, rot)) for i in range(count)]
    for n, count in ((10, 6), (30, 3)):
        built += [
            (f"singular-dd-n{n}-{i}", systems.generic_stable(rng, n, radius(i, count), singular_D=True))
            for i in range(count)
        ]
    items = []
    for name, (sysq, expect) in built:
        if name != "golden" and expect.zero_rows is None:
            sysq = systems.change_basis(sysq, systems.random_orthogonal(basis_rng, sysq.n))
        items.append(Item(name, "analyze", sysq, expect))
    return items


def traj_systems() -> dict[str, tuple]:
    """Systems of traj-many, keyed by name; the same for every seed.

    With systems drawn per seed, trajectory run time swung with the
    closed-loop spectral radius, which decides how many powers of A_K pass
    through subnormal numbers. The seed draws the problems on them instead.
    """
    rng = np.random.default_rng([0, 0])
    out = {"golden": systems.golden()}
    sizes = [(n, True) for n in (5, 8, 12, 16, 20)] + [(n, False) for n in (3, 6, 10, 15)]
    for n, singular in sizes:
        name = f"{'singular-dd' if singular else 'regular'}-n{n}"
        out[name] = systems.generic_stable(rng, n, float(rng.uniform(0.3, 0.9)), singular_D=singular)
    return out


def traj_items(seed: int) -> list[Item]:
    """24 problems per system, k_f uniform in 1..200 drawn once from each of
    24 equal strata, half of them with a fixed end, so every seed covers the
    horizons alike."""
    _, rng = _rngs(seed)
    items = []
    for key, (sysq, _) in traj_systems().items():
        strata = rng.permutation(24)
        k_fs = 1 + ((strata + rng.random(24)) * 200 / 24).astype(int)
        cases = [(int(k_f), bool(j % 2)) for j, k_f in enumerate(k_fs)]
        for j, (k_f, fixed) in enumerate(cases):
            x0 = rng.standard_normal(sysq.n)
            xf = systems.simulate_endpoint(rng, sysq, x0, k_f) if fixed else None
            prob = TrajectoryProblem(sys=sysq, x0=x0, k_f=k_f, xf=xf)
            end = "fixed" if fixed else "free"
            items.append(Item(f"{key}/{j}-kf{k_f}-{end}", "traj", sysq, prob=prob, sys_key=key))
    return items


def cli_items(seed: int, workdir: Path) -> list[Item]:
    """The three subcommands on JSON files written to ``workdir``: the cli
    layer, which a traced run measures in-process after its timed passes."""
    rng, _ = _rngs(seed)
    golden_sys, golden_expect = systems.golden()
    sys50, expect50 = systems.generic_stable(rng, 50, float(rng.uniform(0.3, 0.9)))
    files = {"golden.json": golden_sys, "sys50.json": sys50}
    for name, sysq in files.items():
        doc = {k: getattr(sysq, k).tolist() for k in "ABCD"}
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    x0 = rng.standard_normal(golden_sys.n)
    x0_arg = "--x0=" + ",".join(repr(float(v)) for v in x0)  # "=": x0 may start with "-"
    traj = ["trajectory", str(workdir / "golden.json"), x0_arg, "--kf", "5000"]
    prob = TrajectoryProblem(sys=golden_sys, x0=x0, k_f=5000)
    return [
        Item("golden", "cli", golden_sys, golden_expect, argv=["golden", "--report"]),
        Item("analyze", "cli", sys50, expect50, argv=["analyze", str(workdir / "sys50.json"), "--full"]),
        Item("trajectory-csv", "cli", golden_sys, prob=prob, argv=traj + ["--format", "csv"]),
        Item("trajectory-json", "cli", golden_sys, prob=prob, argv=traj + ["--format", "json"]),
    ]


def build(workload: str, seed: int) -> list[Item]:
    if workload == "analyze-mix":
        return analyze_items(seed)
    if workload == "traj-many":
        return traj_items(seed)
    raise ValueError(f"unknown workload {workload!r}")


def solve_systems(named: dict) -> dict[str, object]:
    """Once-per-system set-up of the trajectory workloads: DARE and Gramian.

    A system whose set-up raises maps to the error, which each operation on
    it then reports.
    """
    solved = {}
    for key, sysq in named.items():
        try:
            ric = riccati.solve_dare(sysq)
            solved[key] = (ric, stablyap.closed_loop_gramian(sysq, ric))
        except HamlqError as exc:
            solved[key] = exc
    return solved


def cli_inprocess(argv: list[str]) -> CliOutput:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = hamlq.cli.main(argv)
    return CliOutput(code, buf.getvalue())


def execute(item: Item, solved: dict):
    """Run one operation.

    Module attributes are looked up at call time, so a traced run sees the
    wrapped functions."""
    if item.kind == "analyze":
        return hamsubspace.analyze(item.sys)
    if item.kind == "traj":
        setup = solved[item.sys_key]
        if isinstance(setup, HamlqError):
            raise setup.with_traceback(None)
        return lqtraj.solve_nonrecursive(item.prob, *setup)
    return cli_inprocess(item.argv)


def fingerprint(item: Item, out, exc: BaseException | None) -> tuple:
    """Summary that ties a timed operation's output to the checked one."""
    if exc is not None:
        return ("raised", type(exc).__name__)
    if item.kind == "analyze":
        rep = out.report
        norms = (np.linalg.norm(out.riccati.P), np.linalg.norm(out.gramian.W))
        return (rep.n_c, rep.rank_v1, rep.rank_v2, rep.rank_vbar2, tuple(rep.zero_rows_Au), *map(float, norms))
    if item.kind == "traj":
        return (out.J, float(np.linalg.norm(out.x)), float(np.linalg.norm(out.u)))
    return (out.code, hashlib.sha256(out.stdout.encode("utf-8")).hexdigest())


def same_fingerprint(a: tuple, b: tuple, rtol: float = 1e-9) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, float) and isinstance(y, float):
            if not abs(x - y) <= rtol * max(abs(x), abs(y), 1.0):
                return False
        elif x != y:
            return False
    return True


def _parse_csv_trajectory(text: str, n: int, m: int):
    rows = list(csv.reader(io.StringIO(text)))
    body, total = rows[1:-1], rows[-1]
    if total[0] != "total":
        raise ValueError("missing total row")
    x = np.array([[float(v) for v in r[1 : 1 + n]] for r in body])
    p = np.array([[float(v) for v in r[1 + n : 1 + 2 * n]] for r in body])
    u = np.array([[float(v) for v in r[1 + 2 * n : 1 + 2 * n + m]] for r in body[:-1]])
    return x, p, u, float(total[-1])


def _check_cli(item: Item, out: CliOutput, p_ref) -> list[str]:
    if out.code != 0:
        return [f"exit_code: {out.code}"]
    sysq = item.sys
    sub = item.argv[0]
    try:
        if sub == "golden":
            want = ("PASS", "rank_v2 = 3 vs n = 4", "rank_vbar2 = 4", "zero_rows_Au = [2]")
            return [f"golden_output: missing {w!r}" for w in want if w not in out.stdout]
        if sub == "analyze":
            doc = json.loads(out.stdout)
            mats = doc["matrices"]
            return checks.analysis_failures(
                sysq, item.expect, np.array(mats["P"]), np.array(mats["K"]), doc["n_c"],
                doc["zero_rows_Au"], doc["rank_v2"], doc["rank_vbar2"], p_ref,
            )
        if "json" in item.argv:
            doc = json.loads(out.stdout)
            x, p, u, J = (np.array(doc["x"]), np.array(doc["p"]), np.array(doc["u"]), float(doc["J"]))
        else:
            x, p, u, J = _parse_csv_trajectory(out.stdout, sysq.n, sysq.m)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output: {type(exc).__name__}: {exc}"]
    return checks.trajectory_failures(sysq, item.prob.x0, item.prob.xf, x, p, u, J)


def check(item: Item, out, p_ref) -> list[str]:
    """Failed checks of one completed operation (empty when correct)."""
    if item.kind == "analyze":
        rep = out.report
        return checks.analysis_failures(
            item.sys, item.expect, out.riccati.P, out.riccati.K, rep.n_c, rep.zero_rows_Au,
            rep.rank_v2, rep.rank_vbar2, p_ref,
        )
    if item.kind == "traj":
        prob = item.prob
        return checks.trajectory_failures(item.sys, prob.x0, prob.xf, out.x, out.p, out.u, out.J)
    return _check_cli(item, out, p_ref)


def needs_reference(item: Item, exc_name: str | None) -> bool:
    """Whether checking or attributing this outcome needs SciPy's DARE."""
    return item.kind == "analyze" or item.argv[:1] == ["analyze"] or exc_name == "NotStabilizable"


def reported_n_c(item: Item, out):
    if item.kind == "analyze":
        return out.report.n_c
    if item.argv[:1] == ["analyze"] and out.code == 0:
        return json.loads(out.stdout)["n_c"]
    return None


def exception_name(item: Item, out, exc) -> str | None:
    """The hamlq error an operation raised, or that its CLI exit code stands for."""
    if exc is not None:
        return type(exc).__name__
    if item.kind == "cli":
        return CLI_EXIT_ERRORS.get(out.code)
    return None
