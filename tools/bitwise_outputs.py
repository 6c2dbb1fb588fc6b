#!/usr/bin/env python3
"""Capture every output of the benchmark's workloads for one source tree, and
compare two captures for bitwise equality or against the optimal cost.

    python3 tools/bitwise_outputs.py capture SRC_DIR OUT.pkl [SEED ...]
    python3 tools/bitwise_outputs.py compare A.pkl B.pkl
    python3 tools/bitwise_outputs.py compare --oracle A.pkl B.pkl

``capture`` imports ``hamlq`` from ``SRC_DIR`` and runs, for each seed
(default 1-10), every ``analyze-mix`` item and every ``traj-many`` set-up and
trajectory, built by this checkout's ``perfbench/workloads.py``. It records
each result object whole, every dataclass field ``k`` of a part named
``name`` as ``name.k``, so a field a change adds to a result type or removes
from it shows in the next capture without an edit here. An analysis records
its Riccati solution ``ric``, its Gramian ``gram`` and its ``report``, and
what the public functions form after ``analyze`` returns: the ``staircase``
of the plant with the analysis's tolerances, ``residuals_v1`` and
``residuals_v2``, and the ``bases`` ``V1``, ``V2`` and ``Vbar2``. A
trajectory system records ``ric`` and ``gram``, a trajectory every field of
its ``Trajectory`` unprefixed (``x``, ``p``, ``u``, ``J``, ``alpha``,
``beta``). Every error raised is recorded as its type and message, and each
of the benchmark's four ``cli_items`` (``golden --report``, ``analyze
--full``, and ``trajectory --kf 5000`` as CSV and as JSON), run in-process
on files written to a temporary directory, as its exit code and stdout
bytes. Whatever the seeds, it also records ``ric`` of the Riccati sweep as
``("dare", seed, index)`` records: ``SWEEP_COUNT`` unstable plants per seed
of ``SWEEPS`` (seed 7: n 2..12, spectral radius of ``A`` 1.05..1.6; seed 8:
n 2..20, radius 1.05..3.0), with m 1..3, p 1..4, standard normal ``B``,
``C``, ``D`` and the last column of ``D`` zeroed with probability 0.3. Each
sweep solve turns warnings into errors, so a warning is recorded as the
error it raised. Run ``capture`` once per tree, each in its own process,
with the same BLAS build and thread count (it pins one thread, as the
benchmark does).

``compare`` requires the same records with the same fields,
``np.array_equal`` arrays, equal scalars and identical errors, and exits
non-zero if one differs. A field that one capture's record has and the
other's lacks differs, and is printed as ``only in A`` or ``only in B``. It
prints the first ``SHOWN`` differing records of each field name (an error,
on either side, is the field ``raised``); for two real arrays or scalars of
one shape it also prints how far they moved, ``max|a-b| / (1 + max|a|)``
with ``a`` from the first file. The summary names the largest such move and
counts arrays that are equal but differ in their bytes (zeros of opposite
sign). The last line gives, for each field name, how many records differ
and the largest move, then the names that never differ, for example
``p: 2183 differ, largest 2.8e-08; ric.*, x, u, J, alpha, beta: 0``.

``compare --oracle`` judges a change that moves bits on purpose. It
rebuilds each ``traj`` record's problem from this checkout's
``perfbench/workloads.py`` and computes the free-end optimum ``J*`` with
``tests/oracle.py``'s ``sqrt_riccati_cost``, from the problem data alone.
For every free-end record it prints ``|J - J*| / (1 + J*)`` of both files
(``raised`` for an error). It then summarizes, per file, how many free-end
records lie inside the band ``|J - J*| <= 1e-8 (1 + J*)``, and per seed how
many records raised and how many failed as the benchmark counts them (raised,
or failed ``perfbench/checks.py``'s ``trajectory_failures``). It lists every
record whose verdict (inside or outside the band, or returned for a fixed
end; raised; failing the checks) flips, marking those that leave the band
from A to B and those that enter it, and the largest move
``|J_B - J_A| / (1 + |J_A|)`` of a fixed-end ``J``. Each ``dare`` record
present gets a verdict: ``solved`` when ``|P - P_ref|_F / (1 + |P_ref|_F)
<= AGREE`` for SciPy's ``P_ref`` (``perfbench/checks.py``'s
``dare_reference``) or SciPy fails, else ``solved-off``, or the name of the
error raised; it prints each file's counts per seed, with the total
``ric.iterations`` (bootstrap plus Newton steps) of the records that
returned, and every verdict that flips. It exits non-zero if a record
leaves the band, a seed's raised or failed ``traj`` count rises in B, or a
sweep seed's ``solved`` count falls.
Other records are not judged: plain ``compare`` checks those. Both modes
unpickle their arguments, so give them only files ``capture`` wrote.
"""

import math
import os
import pickle
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import asdict
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
BAND = 1e-8  # a free-end J within BAND * (1 + J*) of J* counts as optimal
AGREE = 1e-8  # a solved sweep system whose P is this close to SciPy's counts as solved
SHOWN = 5  # differing records printed per field name; the last line counts them all
SWEEP_COUNT = 300  # systems per sweep seed
SWEEPS = {7: (12, 1.05, 1.6), 8: (20, 1.05, 3.0)}  # seed: (n_max, spectral radius range)


def sweep(seed: int):
    """The ``SWEEP_COUNT`` systems ``(A, B, C, D)`` of one sweep seed, in order."""
    rng = np.random.default_rng(seed)
    n_max, r_lo, r_hi = SWEEPS[seed]
    for _ in range(SWEEP_COUNT):
        n = int(rng.integers(2, n_max + 1))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(r_lo, r_hi) / float(np.max(np.abs(np.linalg.eigvals(A))))
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        D = rng.standard_normal((p, m))
        if rng.uniform() < 0.3:
            D[:, -1] = 0.0
        yield A, B, C, D


def _record(**parts) -> dict:
    """One record: every field ``k`` of each named part, a dataclass or a dict, as ``name.k``."""
    return {
        f"{name}.{k}": v
        for name, part in parts.items()
        for k, v in (part if isinstance(part, dict) else asdict(part)).items()
    }


def _error(exc) -> tuple:
    return ("raised", type(exc).__name__, str(exc))


def capture(src: str, out: str, seeds) -> None:
    src_dir = Path(src).resolve()
    sys.path[:0] = [str(src_dir), str(BENCH)]
    import hamlq
    import workloads
    from hamlq import hamsubspace as hs
    from hamlq.errors import HamlqError

    if Path(hamlq.__file__).resolve().parent != src_dir / "hamlq":
        sys.exit(f"error: imported hamlq from {hamlq.__file__}, not {src_dir}")
    records = {}
    for seed in seeds:
        for item in workloads.build("analyze-mix", seed):
            try:
                b = workloads.execute(item, {})
            except HamlqError as exc:
                records[("analyze", seed, item.id)] = _error(exc)
                continue
            ric, gram = b.riccati, b.gramian
            records[("analyze", seed, item.id)] = _record(
                ric=ric,
                gram=gram,
                staircase=hs.staircase(b.sys, b.report.tolerances),
                residuals_v1=hs.residuals_v1(b.sys, ric, gram),
                residuals_v2=hs.residuals_v2(b.sys, ric, gram),
                bases={"V1": hs.assemble_v1(ric), "V2": hs.assemble_v2(ric, gram),
                       "Vbar2": hs.assemble_vbar2(ric, gram)},
                report=b.report,
            )
        items = workloads.build("traj-many", seed)
        solved = workloads.solve_systems({it.sys_key: it.sys for it in items})
        for key, setup in solved.items():
            records[("setup", seed, key)] = (
                _error(setup) if isinstance(setup, HamlqError) else _record(ric=setup[0], gram=setup[1])
            )
        for item in items:
            try:
                t = workloads.execute(item, solved)
            except HamlqError as exc:
                records[("traj", seed, item.id)] = _error(exc)
                continue
            records[("traj", seed, item.id)] = asdict(t)
        with tempfile.TemporaryDirectory() as workdir:
            for item in workloads.cli_items(seed, Path(workdir)):
                res = workloads.cli_inprocess(item.argv)
                records[("cli", seed, item.id)] = {"code": res.code, "stdout": res.stdout.encode("utf-8")}
    for seed in SWEEPS:
        for index, (A, B, C, D) in enumerate(sweep(seed)):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rec = _record(ric=hamlq.solve_dare(hamlq.SystemQuadruple(A, B, C, D)))
            except (HamlqError, Warning) as exc:
                rec = _error(exc)
            records[("dare", seed, index)] = rec
    with open(out, "wb") as fh:
        pickle.dump(records, fh)
    print(f"captured {len(records)} records for seeds {list(seeds)} and sweep seeds "
          f"{list(SWEEPS)} from {src_dir}")


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and np.array_equal(a, b)
        )
    return a == b


def _moved(a, b) -> float | None:
    """``max|a-b| / (1 + max|a|)`` of two non-empty real arrays or scalars of one shape, else ``None``."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or not a.size or a.dtype.kind not in "biuf" or b.dtype.kind not in "biuf":
        return None
    a, b = a.astype(np.float64), b.astype(np.float64)
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a))))


def _load_pair(path_a: str, path_b: str):
    """Both captures, or ``None`` after printing how their records differ."""
    with open(path_a, "rb") as fh:
        a = pickle.load(fh)
    with open(path_b, "rb") as fh:
        b = pickle.load(fh)
    if a.keys() != b.keys():
        print(f"different records: {sorted(a.keys() ^ b.keys())[:10]}")
        return None
    return a, b


def _by_field(fields: dict) -> str:
    """One line: each field name's count of differing records and largest
    move, then the names that never differ, a dotted group as ``group.*``
    when none of its names differs."""
    changed, same = [], []
    for name, (count, move) in fields.items():
        if count:
            changed.append(f"{name}: {count} differ" + (f", largest {move:.1e}" if move is not None else ""))
            continue
        group = name.split(".")[0] + "."
        whole = "." in name and not any(c for other, (c, _) in fields.items() if other.startswith(group))
        same.append(group + "*" if whole else name)
    same = list(dict.fromkeys(same))
    return "; ".join(changed + ([", ".join(same) + ": 0"] if same else []))


def compare(path_a: str, path_b: str) -> int:
    pair = _load_pair(path_a, path_b)
    if pair is None:
        return 1
    a, b = pair
    compared = differing = signed_zeros = 0
    largest = (0.0, None)
    fields = {}  # name -> [records that differ, largest move or None]
    for key, ra in a.items():
        rb = b[key]
        if isinstance(ra, tuple) or isinstance(rb, tuple):  # an error on either side
            ra, rb = {"raised": ra}, {"raised": rb}
        for name in dict.fromkeys([*ra, *rb]):  # A's fields, then those only in B
            compared += 1
            stats = fields.setdefault(name, [0, None])
            if name not in ra or name not in rb:
                differing += 1
                stats[0] += 1
                if stats[0] <= SHOWN:
                    print("differs", key, name, "only in", "A" if name in ra else "B")
                continue
            va, vb = ra[name], rb[name]
            if not _same(va, vb):
                differing += 1
                stats[0] += 1
                moved = _moved(va, vb)
                if moved is not None:
                    stats[1] = max(moved, stats[1] or 0.0)
                    if moved > largest[0]:
                        largest = (moved, (key, name))
                if stats[0] <= SHOWN:
                    detail = [f"moved {moved:.3e}"] if moved is not None else [va, vb] if name == "raised" else []
                    print("differs", key, name, *detail)
            elif isinstance(va, np.ndarray) and va.tobytes() != vb.tobytes():
                signed_zeros += 1
    kinds = {}
    for kind, *_ in a:
        kinds[kind] = kinds.get(kind, 0) + 1
    raised = sum(isinstance(v, tuple) for v in a.values())
    print(f"{len(a)} records {kinds}, {raised} raised, {compared} fields compared, "
          f"{differing} differ, {signed_zeros} equal but with zeros of opposite sign")
    if largest[1] is not None:
        print(f"largest move {largest[0]:.3e} at", *largest[1])
    print(_by_field(fields))
    return 1 if differing else 0


def _verdict(rec, gap, fails) -> str:
    if isinstance(rec, tuple):
        return "raised"
    band = "returned" if gap is None else "inside" if gap <= BAND else "outside"
    return f"{band}, fails checks" if fails else band


def compare_oracle(path_a: str, path_b: str) -> int:
    pair = _load_pair(path_a, path_b)
    if pair is None:
        return 1
    a, b = pair
    sys.path[:0] = [str(ROOT / "src"), str(BENCH), str(ROOT / "tests")]
    import workloads
    from checks import trajectory_failures
    from oracle import sqrt_riccati_cost

    keys = sorted(k for k in a if k[0] == "traj")
    seeds = sorted({seed for _, seed, _ in keys})
    problems = {(seed, it.id): it.prob for seed in seeds for it in workloads.build("traj-many", seed)}
    inside = {"A": 0, "B": 0}
    raised = {side: dict.fromkeys(seeds, 0) for side in "AB"}
    failed = {side: dict.fromkeys(seeds, 0) for side in "AB"}
    flips, left, entered, free, largest = [], [], [], 0, (0.0, None)
    for key in keys:
        _, seed, item_id = key
        prob = problems[(seed, item_id)]
        j_star = sqrt_riccati_cost(prob) if prob.free_terminal else None
        verdicts, gaps, in_band = {}, {}, {}
        for side, rec in (("A", a[key]), ("B", b[key])):
            fails = isinstance(rec, tuple) or bool(trajectory_failures(
                prob.sys, prob.x0, prob.xf, rec["x"], rec["p"], rec["u"], rec["J"]))
            raised[side][seed] += isinstance(rec, tuple)
            failed[side][seed] += fails
            if j_star is not None and not isinstance(rec, tuple):
                gaps[side] = abs(rec["J"] - j_star) / (1.0 + j_star)
            in_band[side] = gaps.get(side, math.inf) <= BAND
            inside[side] += in_band[side]
            verdicts[side] = _verdict(rec, gaps.get(side), fails)
        if j_star is not None:
            free += 1
            shown = [f"{gaps[s]:.3e}" if s in gaps else "raised" for s in "AB"]
            print("free", seed, item_id, f"J* {j_star:.6e}", *shown)
        elif "raised" not in verdicts.values():
            moved = abs(b[key]["J"] - a[key]["J"]) / (1.0 + abs(a[key]["J"]))
            if moved > largest[0]:
                largest = (moved, key)
        if verdicts["A"] != verdicts["B"]:
            flips.append((key, verdicts["A"], verdicts["B"]))
        if in_band["A"] != in_band["B"]:
            (left if in_band["A"] else entered).append(key)
    rose = [s for s in seeds if raised["B"][s] > raised["A"][s] or failed["B"][s] > failed["A"][s]]
    print(f"{len(keys)} traj records, {free} free-end; inside {BAND:g} (1 + J*): "
          f"A {inside['A']}, B {inside['B']}; {len(left)} left the band, {len(entered)} entered it")
    for name, count in (("raised", raised), ("failed (raised or failing perfbench's checks)", failed)):
        for side in "AB":
            per_seed = " ".join(f"{s}:{c}" for s, c in count[side].items())
            print(f"{name} in {side}: {sum(count[side].values())}, per seed {per_seed}")
    for key, va, vb in flips:
        note = " (left the band)" if key in left else " (entered the band)" if key in entered else ""
        print("flip", *key, f"{va} -> {vb}{note}")
    if rose:
        print("raised or failed count rose on seeds", *rose)
    print(f"largest fixed-end J move {largest[0]:.3e} at", *(largest[1] or ["none"]))
    fell = _judge_dare(a, b)
    return 1 if left or rose or fell else 0


def _dare_verdict(rec, P_ref) -> str:
    if isinstance(rec, tuple):
        return rec[1]
    if P_ref is None:
        return "solved"
    err = np.linalg.norm(rec["ric.P"] - P_ref) / (1.0 + np.linalg.norm(P_ref))
    return "solved" if err <= AGREE else "solved-off"


def _judge_dare(a, b) -> list:
    """Print both files' verdicts of the ``dare`` records present, per seed,
    and every verdict that flips; return the seeds whose ``solved`` count
    falls from A to B."""
    from checks import dare_reference
    from hamlq import SystemQuadruple

    keys = {key for key in a if key[0] == "dare"}
    seeds = sorted({seed for _, seed, _ in keys})
    counts = {side: {seed: Counter() for seed in seeds} for side in "AB"}
    steps = {side: dict.fromkeys(seeds, 0) for side in "AB"}  # ric.iterations of the records that returned
    flips = []
    for seed in seeds:
        for index, system in enumerate(sweep(seed)):
            key = ("dare", seed, index)
            if key not in keys:
                continue
            P_ref = dare_reference(SystemQuadruple(*system))
            verdicts = {side: _dare_verdict(rec[key], P_ref) for side, rec in (("A", a), ("B", b))}
            for side, rec in (("A", a[key]), ("B", b[key])):
                counts[side][seed][verdicts[side]] += 1
                if not isinstance(rec, tuple):
                    steps[side][seed] += rec["ric.iterations"]
            if verdicts["A"] != verdicts["B"]:
                flips.append((key, verdicts["A"], verdicts["B"]))
    print(f"{len(keys)} dare records, {len(flips)} verdicts flip")
    for side in "AB":
        per_seed = "; ".join(
            f"seed {seed}: " + ", ".join(f"{v} {c}" for v, c in sorted(count.items()))
            + f" (ric.iterations {steps[side][seed]})"
            for seed, count in counts[side].items()
        )
        print(f"dare verdicts in {side}: {per_seed or 'none'}")
    for key, va, vb in flips:
        print("flip", *key, f"{va} -> {vb}")
    fell = [s for s in seeds if counts["B"][s]["solved"] < counts["A"][s]["solved"]]
    if fell:
        print("solved count of the Riccati sweep fell on seeds", *fell)
    return fell


def main(argv) -> int:
    if len(argv) >= 3 and argv[0] == "capture":
        capture(argv[1], argv[2], [int(s) for s in argv[3:]] or range(1, 11))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    if len(argv) == 4 and argv[:2] == ["compare", "--oracle"]:
        return compare_oracle(argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
