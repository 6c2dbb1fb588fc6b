import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hamlq.cli as cli
from hamlq.errors import (
    BoundaryInconsistent,
    ConvergenceFailure,
    NotStabilizable,
    NotStable,
    SingularWeight,
)
from conftest import CHECKERS, big_b_plant, count_calls, krylov_overflow_plant
from hamlq import hamsubspace
from hamlq.golden import golden_system
from hamlq.hamsubspace import DimensionReport, analyze, assemble_v2, assemble_vbar2
from hamlq.lqtraj import TrajectoryProblem
from hamlq.matcore import DEFAULT_TOL
from hamlq.reachdecomp import SystemQuadruple
from oracle import kkt_oracle


@pytest.fixture()
def golden_file(tmp_path):
    sys = golden_system()
    path = tmp_path / "golden.json"
    path.write_text(
        json.dumps({"A": sys.A.tolist(), "B": sys.B.tolist(), "C": sys.C.tolist(), "D": sys.D.tolist()})
    )
    return str(path)


def write_system(tmp_path, name, **mats):
    path = tmp_path / name
    path.write_text(json.dumps(mats))
    return str(path)


def test_analyze_golden(golden_file, capsys):
    assert cli.main(["analyze", golden_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 4
    assert doc["n_c"] == 2
    assert doc["rank_v1"] == 4
    assert doc["rank_v2"] == 3
    assert doc["rank_vbar2"] == 4
    assert doc["zero_rows_Au"] == [2]
    assert doc["rank_deficiency_v2"] == 1
    residuals = [v for which in ("v1", "v2") for v in doc["residuals"][which].values()]
    assert len(residuals) == 6 and all(0.0 <= v < 1e-10 for v in residuals), residuals
    assert doc["iterations"]["riccati"] >= 1
    assert "matrices" not in doc


@pytest.mark.parametrize(
    "extra, cfg",
    [
        ([], DEFAULT_TOL),
        (["--tol", "1e-10"], dataclasses.replace(DEFAULT_TOL, rank_tol_factor=1e-10)),
        (["--full"], DEFAULT_TOL),
    ],
)
def test_analyze_json_is_the_report(golden_file, capsys, extra, cfg):
    assert cli.main(["analyze", golden_file, *extra]) == 0
    doc = json.loads(capsys.readouterr().out)
    keys = [f.name for f in dataclasses.fields(DimensionReport)] + ["residuals", "iterations"]
    if "--full" in extra:
        keys += ["system", "matrices"]
    assert list(doc) == keys
    assert doc["tolerances"] == dataclasses.asdict(cfg)


def test_analyze_full_round_trip(golden_file, capsys):
    assert cli.main(["analyze", golden_file, "--full"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # JSON floats are written with repr fidelity, so reconstruction is exact
    sys2 = SystemQuadruple(
        A=doc["system"]["A"], B=doc["system"]["B"], C=doc["system"]["C"], D=doc["system"]["D"]
    )
    bundle = analyze(sys2)
    ric, gram = bundle.riccati, bundle.gramian
    assert np.array_equal(assemble_v2(ric, gram), np.array(doc["matrices"]["V2"]))
    assert np.array_equal(assemble_vbar2(ric, gram), np.array(doc["matrices"]["Vbar2"]))
    assert np.array_equal(ric.P, np.array(doc["matrices"]["P"]))


def test_analyze_full_forms_each_check_and_basis_once(golden_file, capsys, monkeypatch):
    # Through the hamsubspace module's own names, so a tracer that wraps
    # them sees every call; the staircase is formed once, inside analyze,
    # and V1 twice: once inside residuals_v1, once for the report.
    calls = count_calls(monkeypatch, hamsubspace, CHECKERS)
    assert cli.main(["analyze", golden_file, "--full"]) == 0
    assert calls == dict(dict.fromkeys(CHECKERS, 1), assemble_v1=2, _relation_residuals=2)
    assert {"V1", "V2", "Vbar2"} <= json.loads(capsys.readouterr().out)["matrices"].keys()


def test_analyze_missing_matrix(tmp_path, capsys):
    path = write_system(tmp_path, "nob.json", A=[[0.5]], C=[[1.0]], D=[[1.0]])
    assert cli.main(["analyze", path]) == 2
    assert "missing matrix B" in capsys.readouterr().err


def test_analyze_bad_dimensions(tmp_path, capsys):
    path = write_system(tmp_path, "bad.json", A=[[0.5]], B=[[1.0], [0.0]], C=[[1.0]], D=[[1.0]])
    assert cli.main(["analyze", path]) == 2
    assert "B" in capsys.readouterr().err


@pytest.mark.parametrize(
    "B, D",
    [
        ({"x": 1}, [[1.0]]),
        ([[1.0, {}]], [[1.0, 0.0]]),
        ([[1, [2]]], [[1.0, 0.0]]),
        ([["abc"]], [[1.0]]),
        ([[10**400]], [[1.0]]),  # JSON integers have no size limit
    ],
    ids=["object-matrix", "object-entry", "ragged-row", "unparseable-string", "huge-int"],
)
def test_analyze_non_numeric_entry(tmp_path, capsys, B, D):
    path = write_system(tmp_path, "obj.json", A=[[0.5]], B=B, C=[[1.0]], D=D)
    assert cli.main(["analyze", path]) == 2
    assert capsys.readouterr().err.startswith("error: B ")


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["analyze", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_unstabilizable(tmp_path, capsys):
    path = write_system(tmp_path, "unstab.json", A=[[2.0]], B=[[0.0]], C=[[1.0]], D=[[1.0]])
    assert cli.main(["analyze", path]) == 3
    assert "error:" in capsys.readouterr().err


def test_analyze_singular_weight(tmp_path, capsys):
    path = write_system(
        tmp_path, "singw.json", A=[[0.5]], B=[[1.0, 0.0]], C=[[0.0]], D=[[1.0, 0.0]]
    )
    assert cli.main(["analyze", path]) == 3
    assert "singular" in capsys.readouterr().err


def test_analyze_tiny_cost_singular_weight_exits_3(tmp_path, capsys):
    # the Riccati solve's pivot test once raised numpy's LinAlgError here,
    # which exited 2, as bad input
    path = write_system(
        tmp_path, "tiny.json", A=[[0.42]], B=[[-0.554, 0.846]], C=[[1e-160]], D=[[0.0, 0.0]]
    )
    assert cli.main(["analyze", path]) == 3
    assert "singular" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code",
    [
        (ConvergenceFailure, 4),
        (NotStable, 4),
        (NotStabilizable, 3),
        (SingularWeight, 3),
        (BoundaryInconsistent, 5),
        (MemoryError, 6),
        (ValueError, 2),
        (OSError, 2),
    ],
)
def test_analyze_convergence_failure_exit(golden_file, monkeypatch, capsys, error, code):
    def boom(sysq, cfg):
        raise error("iteration stalled")

    monkeypatch.setattr(cli, "analyze", boom)
    assert cli.main(["analyze", golden_file]) == code
    captured = capsys.readouterr()
    assert captured.err == "error: iteration stalled\n"
    assert captured.out == ""


def test_trajectory_csv(golden_file, capsys):
    assert cli.main(["trajectory", golden_file, "--x0", "1,0,0,0", "--kf", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "k,x1,x2,x3,x4,p1,p2,p3,p4,u1,u2,stage_cost"
    assert len(lines) == 1 + 4 + 1  # header, k = 0..3, totals
    final = lines[4].split(",")
    assert final[0] == "3"
    # no input and no stage cost at the terminal step
    assert final[9] == "" and final[10] == "" and final[11] == ""
    total = lines[5].split(",")
    assert total[0] == "total"
    assert all(cell == "" for cell in total[1:-1])
    J = float(total[-1])

    sys = golden_system()
    ref = kkt_oracle(TrajectoryProblem(sys, np.array([1.0, 0, 0, 0]), 3))
    assert abs(J - ref.J) <= 1e-8 * (1 + abs(ref.J))


def test_trajectory_json_to_file(golden_file, tmp_path):
    out = tmp_path / "traj.json"
    rc = cli.main(
        ["trajectory", golden_file, "--x0", "1,0,0,0", "--kf", "5", "--out", str(out), "--format", "json"]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["k_f"] == 5
    assert len(doc["x"]) == 6
    assert len(doc["u"]) == 5
    assert len(doc["stage_costs"]) == 5
    sys = golden_system()
    ref = kkt_oracle(TrajectoryProblem(sys, np.array([1.0, 0, 0, 0]), 5))
    assert abs(doc["J"] - ref.J) <= 1e-8 * (1 + abs(ref.J))


@pytest.mark.parametrize(
    "extra, cfg",
    [
        ([], DEFAULT_TOL),
        (["--tol", "1e-10"], dataclasses.replace(DEFAULT_TOL, rank_tol_factor=1e-10)),
    ],
)
def test_trajectory_tol_reaches_every_solve(golden_file, monkeypatch, capsys, extra, cfg):
    names, seen = ("solve_dare", "closed_loop_gramian", "solve_nonrecursive"), {}
    for name in names:
        real = getattr(cli, name)

        def record(*args, _name=name, _real=real):
            seen[_name] = args[-1]
            return _real(*args)

        monkeypatch.setattr(cli, name, record)
    assert cli.main(["trajectory", golden_file, "--x0", "1,0,0,0", "--kf", "3", *extra]) == 0
    assert seen == dict.fromkeys(names, cfg)


def test_trajectory_zero_start(golden_file, capsys):
    assert cli.main(["trajectory", golden_file, "--x0", "0,0,0,0", "--kf", "2"]) == 0
    total = capsys.readouterr().out.strip().split("\n")[-1].split(",")
    assert float(total[-1]) == 0.0


@pytest.fixture()
def drift_file(tmp_path):
    """A plant whose second state is pure drift: x2 can only follow 0.3^k x2(0)."""
    return write_system(
        tmp_path,
        "drift.json",
        A=[[0.5, 0.0], [0.0, 0.3]],
        B=[[1.0], [0.0]],
        C=[[1.0, 1.0], [0.0, 0.0]],
        D=[[0.0], [1.0]],
    )


def test_trajectory_unattainable_endpoint(drift_file, capsys):
    rc = cli.main(["trajectory", drift_file, "--x0", "0,0", "--kf", "4", "--xf", "0,1"])
    assert rc == 5
    assert "endpoint not attainable" in capsys.readouterr().err


def run_fresh(*args):
    """``hamlq ARGS`` in a fresh interpreter with numpy's default warning
    filters, as the installed script runs; returns the exit code and the
    stderr lines."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "from hamlq.cli import run; run()", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stderr.splitlines()


def test_trajectory_overflow_prints_one_error_line(drift_file):
    # the typed error must be all that reaches stderr
    code, lines = run_fresh("trajectory", drift_file, "--x0=1e308,1e308", "--kf", "4")
    assert code == 5
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


@pytest.mark.parametrize("args", [
    ["--x0=4.47e153,4.47e153,0,0", "--kf", "2", "--xf", "0,0,0,0", "--format", "json"],
    ["--x0=5.01e153,5.01e153,0,0", "--kf", "1"],
])
def test_trajectory_overflowing_cost_prints_one_error_line(golden_file, args):
    # a finite, consistent boundary system whose cost overflows: exit 5, not J = inf
    code, lines = run_fresh("trajectory", golden_file, *args)
    assert code == 5
    assert len(lines) == 1 and lines[0].startswith("error:") and "overflows" in lines[0], lines


def test_analyze_overflowing_cost_prints_one_error_line(tmp_path):
    # Finite (C, D) x 1e155, whose products C'D, D'D and (C + D K)'(C + D K)
    # overflow: one typed error (exit 4), no numpy warning and no "invalid
    # input" (exit 2) from the Smith solver's check of its forcing.
    g = golden_system()
    path = write_system(tmp_path, "golden-1e155.json", A=g.A.tolist(), B=g.B.tolist(),
                        C=(1e155 * g.C).tolist(), D=(1e155 * g.D).tolist())
    code, lines = run_fresh("analyze", path)
    assert code == 4
    assert len(lines) == 1 and lines[0].startswith("error:") and "overflows" in lines[0], lines


@pytest.mark.parametrize("plant", ["A*1e12", "golden-B*1e160"])
def test_analyze_overflowing_plant_prints_one_error_line(tmp_path, plant):
    # Finite plants whose Krylov blocks (A x 1e12, n = 30) or Newton weight
    # B'PB (golden with B x 1e160) overflow unscaled: one typed error, exit 3
    # (no certified gain) or 4 (overflow), and no numpy warning.
    if plant == "A*1e12":
        sysq = krylov_overflow_plant()
    else:
        g = golden_system()
        sysq = SystemQuadruple(A=g.A, B=1e160 * g.B, C=g.C, D=g.D)
    path = write_system(tmp_path, f"{plant}.json", **{k: getattr(sysq, k).tolist() for k in "ABCD"})
    code, lines = run_fresh("analyze", path)
    assert code == (3 if plant == "A*1e12" else 4)
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_analyze_overflowing_gramian_forcing_exits_4(tmp_path, capsys):
    # Finite B = [1e200; 1e200], whose Gramian forcing B Rw^{-1} B'
    # overflows: exit 4 with one typed error line, not exit 2 ("bad input")
    # from the Smith solve's check of its forcing after a numpy warning.
    sysq = big_b_plant()
    path = write_system(tmp_path, "big-B.json", **{k: getattr(sysq, k).tolist() for k in "ABCD"})
    assert cli.main(["analyze", path]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "overflows" in lines[0], lines


def test_trajectory_oversized_horizon_is_out_of_memory(drift_file, capsys):
    # The boundary solve succeeds; the (k_f + 1) x n outputs (14.2 PiB here)
    # cannot be allocated, and the request fails before any page is touched.
    rc = cli.main(["trajectory", drift_file, "--x0", "1,1", "--kf", "1000000000000000"])
    assert rc == 6
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate"), captured.err
    assert captured.out == ""


def test_trajectory_bad_vector(golden_file, capsys):
    assert cli.main(["trajectory", golden_file, "--x0", "1,zzz", "--kf", "3"]) == 2
    assert "--x0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "vectors",
    [["--x0", "1,,0"], ["--x0", "1,0,"], ["--x0", "1,0", "--xf", "0,,1"]],
    ids=["x0-inner", "x0-trailing", "xf"],
)
def test_trajectory_rejects_an_empty_field(drift_file, capsys, vectors):
    # an empty field is an entry left out: skipping it would solve from a
    # shorter vector than the one written
    assert cli.main(["trajectory", drift_file, "--kf", "4", *vectors]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {vectors[-2]} ") and "empty field" in err


def test_trajectory_vector_allows_spaces(drift_file, capsys):
    assert cli.main(["trajectory", drift_file, "--x0", " 1 , 0 ", "--kf", "2"]) == 0
    spaced = capsys.readouterr().out
    assert cli.main(["trajectory", drift_file, "--x0", "1,0", "--kf", "2"]) == 0
    assert capsys.readouterr().out == spaced


def test_golden_command(capsys):
    assert cli.main(["golden"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "fallback" not in out


def test_golden_command_report(capsys):
    assert cli.main(["golden", "--report"]) == 0
    out = capsys.readouterr().out
    assert "rank_v2 = 3 vs n = 4" in out
    assert "rank_vbar2 = 4" in out
    assert "zero_rows_Au = [2]" in out


def test_golden_command_failure_exit(monkeypatch, capsys):
    real = cli.golden_check

    def fail():
        res = real()
        return type(res)(
            passed=False,
            entrywise_pass=False,
            max_dev_v2=1.0,
            loc_v2=(1, 1),
            max_dev_vbar2=1.0,
            loc_vbar2=(1, 1),
            fallback_pass=False,
            max_angle_v2=0.5,
            max_angle_vbar2=0.5,
            max_residual_rel=1.0,
            bundle=res.bundle,
        )

    monkeypatch.setattr(cli, "golden_check", fail)
    assert cli.main(["golden"]) == 1
    out = capsys.readouterr().out
    assert "entrywise FAIL" in out
    assert "fallback (subspace) FAIL" in out


@pytest.mark.parametrize("args, code", [(["golden"], 0), (["analyze", "no-such-system.json"], 2)])
def test_module_runs_the_cli(args, code):
    # python -m hamlq.cli runs the same front end as the console script
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hamlq.cli", *args], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith("PASS") if code == 0 else proc.stderr.startswith("error:")


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_run_raises_system_exit(monkeypatch):
    monkeypatch.setattr(cli.sys, "argv", ["hamlq", "golden"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0
