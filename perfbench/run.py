#!/usr/bin/env python3
"""Benchmark of hamlq's structural analysis and trajectory solver.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` lists the workloads with the reason for each, and every
metric with its unit. One run, driven from this single closed-loop client
process with BLAS pinned to one thread:

1. runs every operation of the seeded mix once, untimed and under
   tracemalloc, and checks each output with the benchmark's own code;
2. cycles through the mix in whole passes for ``--seconds``: with
   ``--trace 0`` untraced, with a fresh process measuring set-up
   (``import hamlq`` plus the once-per-system DARE and Gramian) before each
   seventh of the run; with ``--trace 1`` half untraced, half traced, and
   then measures the cli layer: the CLI subcommands, checked and traced
   in-process, and the interpreter start and ``import hamlq`` in fresh
   processes.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
ones with ``--trace 1``). ``attempted`` and ``failed`` count the operations
of the checked pass, so they depend on the seed alone. The lines before it
describe the machine, list every failed operation by item id with the known
defect it shows, and print each metric with its unit. The full result, and
the spans of a traced run, are written under ``.perfbench_out/``.
``correct`` is false when a failure matches none of the known defects or a
timed output differs from the checked one.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# One BLAS thread: on a two-vCPU machine two OpenBLAS threads made small-n
# analyze calls up to 25x slower and erratic. Must be set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# The program under test is the checkout's own source tree, never an
# installed copy; child processes get the same path.
if not (SRC / "hamlq" / "__init__.py").is_file():
    sys.exit(f"error: no hamlq sources under {SRC}")
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = str(SRC)

import numpy as np  # noqa: E402

import hamlq  # noqa: E402
from hamlq.errors import HamlqError  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_PROBES = 7  # measured fresh processes, after one warm-up
CLI_PROBES = 5
CLI_SECONDS = 1.0  # whole passes over the CLI subcommands in a traced run
# Each operation of the mix is timed as its best over the run's passes, and
# the time metrics summarize those best times over the mix. On the shared
# machine the benchmark was defined on, speed changed by up to 1.5x from
# second to second, and that, not the program, decided medians and means of
# the raw samples; the best of many passes is taken in the fast state. The tail is the highest percentile of the mix with at
# least TAIL_BEYOND operations beyond it; a workload's mix has a fixed size,
# so the percentile is fixed too.
TAIL_BEYOND = 10


def tail_pct(n_items: int) -> float:
    return 100.0 * (1.0 - TAIL_BEYOND / n_items)


@dataclass
class Outcome:
    """Result of the untimed, checked run of one item."""

    fingerprint: tuple
    failures: list
    defect: str | None
    peak_alloc: int
    out_bytes: int
    p_ref: object


@dataclass
class Timing:
    seconds: list = field(default_factory=list)  # wall time of every operation
    passed: int = 0
    mismatched: list = field(default_factory=list)  # item ids whose output differed


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def machine() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hamlq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def probe(cmd: list, key: str | None) -> float:
    """Seconds of one fresh process: ``key=None`` times the whole process,
    otherwise the child reports the time as ``key`` in its last JSON line."""
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)
    wall = perf_counter() - t0
    return wall if key is None else json.loads(proc.stdout.splitlines()[-1])[key]


def median_of_probes(cmd: list, key: str | None, probes: int) -> float:
    """Median over ``probes`` fresh processes, after one warm-up that fills
    the bytecode and file caches."""
    probe(cmd, key)
    return statistics.median(probe(cmd, key) for _ in range(probes))


def run_one(item, solved):
    try:
        return workloads.execute(item, solved), None
    except HamlqError as exc:
        return None, exc


def correctness_pass(items, solved) -> list:
    """Run every item once, untimed, under tracemalloc, and check it."""
    outcomes, refs = [], {}
    for item in items:
        tracemalloc.start()
        try:
            out, exc = run_one(item, solved)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        exc_name = workloads.exception_name(item, out, exc)
        p_ref = None
        if workloads.needs_reference(item, exc_name):
            if id(item.sys) not in refs:
                refs[id(item.sys)] = checks.dare_reference(item.sys)
            p_ref = refs[id(item.sys)]
        failures = [f"raised {exc_name}"] if exc_name else workloads.check(item, out, p_ref)
        defect = None
        if failures:
            n_c = workloads.reported_n_c(item, out) if exc is None else None
            defect = checks.attribute(exc_name, failures, item.expect, n_c, checks.stabilizes(item.sys, p_ref))
        out_bytes = len(out.stdout.encode("utf-8")) if item.kind == "cli" else 0
        outcomes.append(Outcome(workloads.fingerprint(item, out, exc), failures, defect, peak, out_bytes, p_ref))
    return outcomes


def timed_passes(items, outcomes, solved, seconds, tracer=None, t=None) -> Timing:
    """Cycle through the mix in whole passes until ``seconds`` have elapsed.

    An operation passes when its item passed the checked run and its output
    matches the checked one or, failing that, passes the checks itself.
    The operations are added to ``t`` when it is given.
    """
    t = Timing() if t is None else t
    start = perf_counter()
    while True:
        for item, ref in zip(items, outcomes):
            span = nullcontext()
            if tracer is not None:
                tracer.op = len(t.seconds)
                span = tracer.span(f"cli.main.{item.id}" if item.kind == "cli" else f"op.{item.kind}")
            with span:
                t0 = perf_counter()
                out, exc = run_one(item, solved)
                t.seconds.append(perf_counter() - t0)
            if ref.defect is not None:
                continue
            if workloads.same_fingerprint(workloads.fingerprint(item, out, exc), ref.fingerprint) or (
                exc is None and not workloads.check(item, out, ref.p_ref)
            ):
                t.passed += 1
            else:
                t.mismatched.append(item.id)
        if perf_counter() - start >= seconds:
            return t


def best_ms(timing: Timing, n_items: int) -> np.ndarray:
    """Each operation's best wall time over the whole passes of a run."""
    return 1e3 * np.min(np.reshape(timing.seconds, (-1, n_items)), axis=0)


def end_to_end(outcomes, timing: Timing) -> dict:
    ms = best_ms(timing, len(outcomes))
    passes = len(timing.seconds) // len(outcomes)
    return {
        "op_ms_p50": float(np.median(ms)),
        "op_ms_tail": float(np.percentile(ms, tail_pct(len(ms)))),
        # passed operations of one pass over the pass's time at best speed
        "ops_per_s": timing.passed / passes / (ms.sum() / 1e3),
        "peak_alloc_mb": max(o.peak_alloc for o in outcomes) / 2**20,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(items, outcomes, untraced: Timing, traced: Timing, tracer: Tracer) -> dict:
    ops = len(traced.seconds)
    m = tracer.layer_metrics(ops)
    m["lqtraj.us_per_step"], m["lqtraj.fixed_ms"] = tracer.step_fit()
    traj_peaks = [o.peak_alloc for it, o in zip(items, outcomes) if it.kind == "traj"]
    m["lqtraj.peak_alloc_mb"] = max(traj_peaks, default=0) / 2**20
    m["trace.overhead_ratio"] = (len(untraced.seconds) / sum(untraced.seconds)) / (ops / sum(traced.seconds))
    m["fail_ratio"] = sum(o.defect is not None for o in outcomes) / len(outcomes)
    return m


def cli_layer(items, outcomes, tracer: Tracer) -> dict:
    """Metrics of the cli and golden layers, from the CLI subcommands run
    in-process under ``tracer`` and from fresh interpreters."""
    m = {"cli.interpreter_ms": 1e3 * median_of_probes([sys.executable, "-c", "pass"], None, CLI_PROBES)}
    import_cmd = [
        sys.executable,
        "-c",
        "import json, time; t = time.perf_counter(); import hamlq; "
        "print(json.dumps({'import_s': time.perf_counter() - t}))",
    ]
    m["cli.import_ms"] = 1e3 * median_of_probes(import_cmd, "import_s", CLI_PROBES)
    for item, o in zip(items, outcomes):
        spans = [s[3] - s[2] for s in tracer.spans if s[1] == f"cli.main.{item.id}"]
        m[f"cli.main.{item.id}.ms"] = 1e3 * sum(spans) / len(spans)
        m[f"cli.out_bytes.{item.id}"] = o.out_bytes
    golden = tracer.layer_metrics(1)
    m["golden.golden_check.ms"] = golden["golden.golden_check.ms"] / golden["golden.golden_check.calls"]
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(hamlq.__file__).resolve().parent != (SRC / "hamlq").resolve():
        print(f"error: imported hamlq from {hamlq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    items = workloads.build(args.workload, args.seed)
    n_mix = len(items)
    solved = workloads.solve_systems({it.sys_key: it.sys for it in items if it.kind == "traj"})
    outcomes = correctness_pass(items, solved)

    tracer = None
    if args.trace:
        untraced = timed_passes(items, outcomes, solved, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_passes(items, outcomes, solved, args.seconds / 2, tracer=tracer)
        finally:
            tracer.restore()
        measured = per_layer(items, outcomes, untraced, traced, tracer)

        workdir = OUT / f"{tag}-inputs"
        workdir.mkdir(exist_ok=True)
        cli_items = workloads.cli_items(args.seed, workdir)
        cli_outcomes = correctness_pass(cli_items, {})
        cli_tracer = Tracer()
        cli_tracer.install()
        try:
            cli_timing = timed_passes(cli_items, cli_outcomes, {}, CLI_SECONDS, tracer=cli_tracer)
        finally:
            cli_tracer.restore()
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
        measured.update(cli_layer(cli_items, cli_outcomes, cli_tracer))
        runs = [untraced, traced, cli_timing]
        items, outcomes = items + cli_items, outcomes + cli_outcomes
    else:
        # One set-up probe before each of SETUP_PROBES equal parts of the
        # timed run: fresh-process start-up moved by up to 1.6x with the
        # machine's speed over minutes, so the probes sample the whole run.
        setup_cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload]
        probe(setup_cmd, "setup_s")  # warm-up: fills the bytecode and file caches
        timing, setups = Timing(), []
        for _ in range(SETUP_PROBES):
            setups.append(probe(setup_cmd, "setup_s"))
            timed_passes(items, outcomes, solved, args.seconds / SETUP_PROBES, t=timing)
        runs = [timing]
        measured = end_to_end(outcomes, timing)
        measured["setup_s"] = statistics.median(setups)

    failed_items = [
        {"item": it.id, "defect": o.defect, "failures": o.failures}
        for it, o in zip(items, outcomes)
        if o.defect is not None
    ]
    mismatched = sorted({i for r in runs for i in r.mismatched})
    correct = not mismatched and all(f["defect"] != "unexplained" for f in failed_items)
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}

    samples = len(runs[0].seconds)
    pct = tail_pct(n_mix)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "items": n_mix,
        "timed_operations": samples,
        "passes": samples // n_mix,
        "tail_percentile": pct,
        "tail_items_beyond": TAIL_BEYOND,
        "known_defects": checks.KNOWN_DEFECTS,
        "failed_items": failed_items,
        "mismatched_items": mismatched,
        "metrics": metrics,
        # wall time of every operation of the first timed run, in mix order
        "op_seconds": runs[0].seconds,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    if tracer is not None:
        tracer.dump(OUT / f"{tag}-spans.jsonl")

    print("# machine " + json.dumps(report["machine"]))
    for f in failed_items:
        print(f"# failed {f['item']} [{f['defect']}]: {'; '.join(f['failures'])}")
    for item_id in mismatched:
        print(f"# timed output differs from the checked one: {item_id}")
    print(f"# {n_mix} items, {samples} timed operations in {samples // n_mix} passes; "
          f"op_ms_tail is p{pct:.4g} of the items' best times ({TAIL_BEYOND} items beyond)")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": len(failed_items), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
