#!/usr/bin/env python3
"""Run a seeded sweep of the fuzz harness and report every failing draw.

    python3 tools/fuzz_sweep.py SEED DRAWS

Draws ``DRAWS`` plants from ``numpy.random.default_rng(SEED)`` with
``tests/test_fuzz.py``'s ``fuzz_plant`` and runs each through its
``run_draw`` (the library calls, without the CLI), with warnings as errors,
as the seeded test does over its own 1000 draws. Every failing draw is
printed as its index, ``n``, the failing call and what went wrong: an
untyped error (a leaked numpy warning among them), a non-finite result or a
``J`` off its stage-cost sum. The last line counts the draws and the
failures. Exits non-zero if any draw failed. Imports ``hamlq`` from this
checkout's ``src`` and pins one BLAS thread, as the benchmark does.
"""

import os
import sys
import time
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from test_fuzz import fuzz_plant, run_draw  # noqa: E402


def sweep(seed: int, draws: int) -> int:
    """Print each failure of ``draws`` draws of ``seed``; returns the failure count."""
    rng = np.random.default_rng(seed)
    failures, start = 0, time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for draw in range(draws):
            sysq = fuzz_plant(rng)
            for name, what in run_draw(rng, sysq):
                failures += 1
                print(f"draw {draw} (n={sysq.n}): {name}: {what}", flush=True)
    print(f"seed {seed}: {draws} draws, {failures} failures in {time.perf_counter() - start:.1f} s")
    return failures


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/fuzz_sweep.py SEED DRAWS", file=sys.stderr)
        return 2
    return 1 if sweep(int(argv[0]), int(argv[1])) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
