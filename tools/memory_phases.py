#!/usr/bin/env python3
"""Tracemalloc profile of ``analyze`` and ``solve_dare``, phase by phase.

    python3 tools/memory_phases.py SRC_DIR [ITEM [UNSTABLE_ITEM]]

Imports ``hamlq`` from ``SRC_DIR`` and builds the ``analyze-mix`` items of
seed 1 with this checkout's ``perfbench/workloads.py``. For ``ITEM``
(default ``stable-n200``) it runs ``hamsubspace.analyze`` once untraced, then
once under tracemalloc with each phase's function wrapped in the
``hamsubspace`` namespace: staircase, DARE, Gramian, rank, ``V1``, ``res1``,
``V2`` and ``res2``. For ``UNSTABLE_ITEM`` (default ``unstable-n50-0``) it
splits ``riccati.solve_dare`` into the structured-doubling bootstrap
(``riccati._doubling_gain``) and the Newton phase that follows it, up to
the return.

Each phase prints three figures in units of one ``n x n`` float64 array:
``held`` (traced memory when it starts), ``peak`` (the highest traced memory
while it runs, from ``tracemalloc.reset_peak``) and ``after`` (traced memory
when it returns). The phase with the largest peak sets the item's
``peak_alloc_mb``; that figure, in MB, is printed for the whole call, as
the benchmark measures it. Run each tree in its own process; one BLAS
thread is pinned, as in the benchmark.
"""

import os
import sys
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SEED = 1

# (phase label, module attribute wrapped) in the order analyze calls them
ANALYZE_PHASES = (
    ("staircase", "staircase"),
    ("DARE", "solve_dare"),
    ("Gramian", "closed_loop_gramian"),
    ("rank", "rank"),
    ("V1", "assemble_v1"),
    ("res1", "residuals_v1"),
    ("V2", "assemble_v2"),
    ("res2", "residuals_v2"),
)


def _phase(rows, label, fn):
    """``fn`` wrapped to append ``(label, held, peak, after)`` in bytes to ``rows``."""

    def wrapped(*args, **kwargs):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args, **kwargs)
        after, peak = tracemalloc.get_traced_memory()
        rows.append((label, held, peak, after))
        tracemalloc.reset_peak()
        return out

    return wrapped


def _traced(call, module, phases, rows):
    """Run ``call()`` traced with ``phases`` wrapped in ``module``, appending
    their rows to ``rows``; returns the whole call's peak."""
    originals = {attr: getattr(module, attr) for _, attr in phases}
    for label, attr in phases:
        setattr(module, attr, _phase(rows, label, originals[attr]))
    tracemalloc.start()
    try:
        call()
        # reset_peak discards the earlier phases' peaks; theirs are in rows
        peak = max([tracemalloc.get_traced_memory()[1]] + [row[2] for row in rows])
    finally:
        tracemalloc.stop()
        for attr, fn in originals.items():
            setattr(module, attr, fn)
    return peak


def _print(title, n, rows, peak):
    unit = n * n * 8
    print(f"{title}: n = {n}, peak {peak / unit:.2f} n x n = {peak / 2**20:.3f} MB")
    print(f"  {'phase':<10}{'held':>8}{'peak':>8}{'after':>8}")
    for label, held, top, after in rows:
        mark = "  <- peak" if top == peak else ""
        print(f"  {label:<10}{held / unit:8.2f}{top / unit:8.2f}{after / unit:8.2f}{mark}")


def main(argv) -> None:
    if not 1 <= len(argv) <= 3:
        sys.exit(__doc__.split("\n\n")[1])
    src_dir = Path(argv[0]).resolve()
    item_id = argv[1] if len(argv) > 1 else "stable-n200"
    unstable_id = argv[2] if len(argv) > 2 else "unstable-n50-0"
    sys.path[:0] = [str(src_dir), str(BENCH)]
    import hamlq
    import workloads
    from hamlq import hamsubspace, riccati

    if Path(hamlq.__file__).resolve().parent != src_dir / "hamlq":
        sys.exit(f"error: imported hamlq from {hamlq.__file__}, not {src_dir}")
    items = {item.id: item for item in workloads.build("analyze-mix", SEED)}
    for wanted in (item_id, unstable_id):
        if wanted not in items:
            sys.exit(f"error: no analyze-mix item {wanted!r}; one of {', '.join(items)}")

    sysq = items[item_id].sys
    hamsubspace.analyze(sysq)  # warm-up: first-call allocations are not the program's
    rows = []
    peak = _traced(lambda: hamsubspace.analyze(sysq), hamsubspace, ANALYZE_PHASES, rows)
    _print(f"analyze {item_id}", sysq.n, rows, peak)

    sysq = items[unstable_id].sys
    riccati.solve_dare(sysq)
    rows = []

    def solve():
        riccati.solve_dare(sysq)
        # the Newton phase runs from the bootstrap's return to solve_dare's
        after, top = tracemalloc.get_traced_memory()
        rows.append(("Newton", rows[0][3] if rows else 0, top, after))

    peak = _traced(solve, riccati, [("bootstrap", "_doubling_gain")], rows)
    _print(f"solve_dare {unstable_id}", sysq.n, rows, peak)


if __name__ == "__main__":
    main(sys.argv[1:])
