#!/usr/bin/env python3
"""Random sweep of ``solve_dare`` against SciPy's DARE on unstable plants.

    python3 tools/dare_sweep.py run SRC_DIR OUT.json [SEED ...]
    python3 tools/dare_sweep.py compare A.json B.json

``run`` imports ``hamlq`` from ``SRC_DIR`` and, for each seed (default 7
and 8), draws ``COUNT`` systems with ``(A, B)`` generically reachable and
``A`` unstable, then records for each one the verdict of ``solve_dare`` (the
name of the error it raised, or ``solved``), the relative distance
``|P - P_ref|_F / (1 + |P_ref|_F)`` to SciPy's ``solve_discrete_are`` and the
warnings either emitted. The sweeps:

* seed 7: n 2..12, spectral radius of ``A`` 1.05..1.6;
* seed 8 (harder): n 2..20, spectral radius 1.05..3.0;

both with m 1..3, p 1..4, standard normal ``B``, ``C`` and ``D``, and the last
column of ``D`` zeroed with probability 0.3, so ``D'D`` is often singular.

``compare`` prints every system whose verdict moved between two runs of the
same seeds (a solved system counts as ``solved`` or ``solved-off`` by whether
it agrees with SciPy to ``AGREE``), then the verdict counts of each run. Run
each tree in its own process with the same BLAS build; one BLAS thread is
pinned here.
"""

import json
import os
import sys
import warnings
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

COUNT = 300
AGREE = 1e-8
SWEEPS = {7: (12, 1.05, 1.6), 8: (20, 1.05, 3.0)}  # seed: (n_max, radius range)


def draw(rng, n_max, r_lo, r_hi):
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
    return A, B, C, D


def _scipy_dare(A, B, C, D):
    try:
        return scipy.linalg.solve_discrete_are(A, B, C.T @ C, D.T @ D, s=C.T @ D)
    except (ValueError, np.linalg.LinAlgError):
        return None


def run(src: str, out: str, seeds) -> None:
    src_dir = Path(src).resolve()
    sys.path.insert(0, str(src_dir))
    import hamlq

    if Path(hamlq.__file__).resolve().parent != src_dir / "hamlq":
        sys.exit(f"error: imported hamlq from {hamlq.__file__}, not {src_dir}")
    records = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for index in range(COUNT):
            A, B, C, D = draw(rng, *SWEEPS[seed])
            rec = {"seed": seed, "index": index, "n": A.shape[0], "m": B.shape[1], "p": C.shape[0]}
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                P_ref = _scipy_dare(A, B, C, D)
                try:
                    P = hamlq.solve_dare(hamlq.SystemQuadruple(A, B, C, D)).P
                    rec["verdict"] = "solved"
                except hamlq.HamlqError as exc:
                    P, rec["verdict"] = None, type(exc).__name__
            rec["warnings"] = len(caught)
            rec["scipy"] = P_ref is not None
            if P is not None and P_ref is not None:
                rec["err"] = float(np.linalg.norm(P - P_ref) / (1.0 + np.linalg.norm(P_ref)))
            records.append(rec)
    Path(out).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} systems from {src_dir}: {summary(records)}")


def verdict(rec) -> str:
    if rec["verdict"] == "solved" and rec.get("err", 0.0) > AGREE:
        return "solved-off"
    return rec["verdict"]


def summary(records) -> str:
    by_seed = {}
    for rec in records:
        by_seed.setdefault(rec["seed"], Counter())[verdict(rec)] += 1
    warned = sum(rec["warnings"] > 0 for rec in records)
    parts = [f"seed {s}: " + ", ".join(f"{k} {v}" for k, v in sorted(c.items())) for s, c in by_seed.items()]
    return "; ".join(parts) + f"; {warned} with warnings"


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    if [(r["seed"], r["index"]) for r in a] != [(r["seed"], r["index"]) for r in b]:
        print("the two runs cover different systems")
        return 2
    moved = 0
    for ra, rb in zip(a, b):
        if verdict(ra) != verdict(rb):
            moved += 1
            print(
                f"seed {ra['seed']} system {ra['index']} (n {ra['n']}, m {ra['m']}, p {ra['p']}): "
                f"{verdict(ra)} -> {verdict(rb)}, err {ra.get('err')} -> {rb.get('err')}"
            )
    print(f"{moved} of {len(a)} verdicts moved")
    print(f"A: {summary(a)}")
    print(f"B: {summary(b)}")
    return 1 if moved else 0


def main(argv) -> int:
    if len(argv) >= 3 and argv[0] == "run":
        seeds = [int(s) for s in argv[3:]] or sorted(SWEEPS)
        if not set(seeds) <= set(SWEEPS):
            print(f"error: seeds must be among {sorted(SWEEPS)}", file=sys.stderr)
            return 2
        run(argv[1], argv[2], seeds)
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
