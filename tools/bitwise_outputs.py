#!/usr/bin/env python3
"""Capture every output of the benchmark's workloads for one source tree, or
compare two captures for bitwise equality.

    python3 tools/bitwise_outputs.py capture SRC_DIR OUT.pkl [SEED ...]
    python3 tools/bitwise_outputs.py compare A.pkl B.pkl

``capture`` imports ``hamlq`` from ``SRC_DIR`` and runs, for each seed
(default 1-10), every ``analyze-mix`` item and every ``traj-many`` set-up and
trajectory, built by this checkout's ``perfbench/workloads.py``. It records
``P``, ``K``, ``Rw``, ``A_K``, ``Rw_inv_Bt``, ``W``, the iteration counts,
the ``StaircaseForm`` (``T``, ``n_c`` and the six blocks ``A_c``, ``A_cu``,
``A_u``, ``B_c``, ``C_c``, ``C_u``), the three bases, both residual triples
and every ``DimensionReport`` field of each analysis; the same Riccati and Gramian data of each trajectory
system; ``x``, ``p``, ``u``, ``J``, ``alpha`` and ``beta`` of each
trajectory; the type and message of every error raised; and the exit code
and stdout bytes of the benchmark's four ``cli_items`` (``golden --report``,
``analyze --full``, and ``trajectory --kf 5000`` as CSV and as JSON), run
in-process on files written to a temporary directory. Run it once per tree,
each in its own process, with the same BLAS build and thread count (it pins
one thread, as the benchmark does).

``compare`` requires the same records, ``np.array_equal`` arrays, equal
scalars and identical errors, prints each difference, and exits non-zero if
there is one. For two arrays of one shape that differ it also prints how far
they moved, ``max|a-b| / (1 + max|a|)`` with ``a`` from the first file, and
the summary names the largest such move. It also counts arrays that are
equal but differ in their bytes (zeros of opposite sign). It unpickles its
arguments, so give it only files ``capture`` wrote.
"""

import os
import pickle
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
RIC_FIELDS = ("P", "K", "Rw", "A_K", "Rw_inv_Bt", "iterations")


def _setup_record(ric, gram) -> dict:
    rec = {f"ric.{k}": getattr(ric, k) for k in RIC_FIELDS}
    rec.update({"gram.W": gram.W, "gram.iterations": gram.iterations})
    return rec


def _error(exc) -> tuple:
    return ("raised", type(exc).__name__, str(exc))


def capture(src: str, out: str, seeds) -> None:
    src_dir = Path(src).resolve()
    sys.path[:0] = [str(src_dir), str(BENCH)]
    import hamlq
    import workloads
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
            rec = _setup_record(b.riccati, b.gramian)
            rec.update({f"staircase.{k}": v for k, v in asdict(b.staircase).items()})
            rec.update({f"bases.{k}": v for k, v in asdict(b.bases).items()})
            rec.update({f"report.{k}": v for k, v in asdict(b.report).items() if k != "tolerances"})
            rec.update({f"residuals_v1.{k}": v for k, v in asdict(b.residuals_v1).items()})
            rec.update({f"residuals_v2.{k}": v for k, v in asdict(b.residuals_v2).items()})
            records[("analyze", seed, item.id)] = rec
        items = workloads.build("traj-many", seed)
        solved = workloads.solve_systems({it.sys_key: it.sys for it in items})
        for key, setup in solved.items():
            records[("setup", seed, key)] = (
                _error(setup) if isinstance(setup, HamlqError) else _setup_record(*setup)
            )
        for item in items:
            try:
                t = workloads.execute(item, solved)
            except HamlqError as exc:
                records[("traj", seed, item.id)] = _error(exc)
                continue
            records[("traj", seed, item.id)] = {
                "x": t.x, "p": t.p, "u": t.u, "J": t.J, "alpha": t.alpha, "beta": t.beta,
            }
        with tempfile.TemporaryDirectory() as workdir:
            for item in workloads.cli_items(seed, Path(workdir)):
                res = workloads.cli_inprocess(item.argv)
                records[("cli", seed, item.id)] = {"code": res.code, "stdout": res.stdout.encode("utf-8")}
    with open(out, "wb") as fh:
        pickle.dump(records, fh)
    print(f"captured {len(records)} records for seeds {list(seeds)} from {src_dir}")


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
    """``max|a-b| / (1 + max|a|)`` of two non-empty real arrays of one shape, else ``None``."""
    if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
        return None
    if a.shape != b.shape or not a.size or a.dtype.kind not in "biuf" or b.dtype.kind not in "biuf":
        return None
    a, b = a.astype(np.float64), b.astype(np.float64)
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a))))


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, "rb") as fh:
        a = pickle.load(fh)
    with open(path_b, "rb") as fh:
        b = pickle.load(fh)
    if a.keys() != b.keys():
        print(f"different records: {sorted(a.keys() ^ b.keys())[:10]}")
        return 1
    fields = differing = signed_zeros = 0
    largest = (0.0, None)
    for key, ra in a.items():
        rb = b[key]
        if isinstance(ra, tuple) or isinstance(rb, tuple):
            fields += 1
            if ra != rb:
                differing += 1
                print("differs", key, ra, rb)
            continue
        for name, va in ra.items():
            fields += 1
            if not _same(va, rb[name]):
                differing += 1
                moved = _moved(va, rb[name])
                if moved is None:
                    print("differs", key, name)
                else:
                    print("differs", key, name, f"moved {moved:.3e}")
                    if moved > largest[0]:
                        largest = (moved, (key, name))
            elif isinstance(va, np.ndarray) and va.tobytes() != rb[name].tobytes():
                signed_zeros += 1
    kinds = {}
    for kind, *_ in a:
        kinds[kind] = kinds.get(kind, 0) + 1
    raised = sum(isinstance(v, tuple) for v in a.values())
    print(f"{len(a)} records {kinds}, {raised} raised, {fields} fields compared, "
          f"{differing} differ, {signed_zeros} equal but with zeros of opposite sign")
    if largest[1] is not None:
        print(f"largest move {largest[0]:.3e} at", *largest[1])
    return 1 if differing else 0


def main(argv) -> int:
    if len(argv) >= 3 and argv[0] == "capture":
        capture(argv[1], argv[2], [int(s) for s in argv[3:]] or range(1, 11))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
