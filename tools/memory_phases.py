#!/usr/bin/env python3
"""Tracemalloc profile of ``analyze``, ``solve_dare`` and ``solve_nonrecursive``, phase by phase.

    python3 tools/memory_phases.py SRC_DIR [ITEM [UNSTABLE_ITEM]]

Imports ``hamlq`` from ``SRC_DIR`` and builds the ``analyze-mix`` and
``traj-many`` items of seed 1 with this checkout's ``perfbench/workloads.py``.
For ``ITEM`` (default ``stable-n200``) it runs ``hamsubspace.analyze`` once
untraced, then once under tracemalloc with each phase's function wrapped in
the ``hamsubspace`` namespace. The phases follow ``analyze``: staircase,
rank, DARE and Gramian; ``analyze`` drops the staircase form before the
rank. Two rows follow for what a caller forms from the bundle after
``analyze`` returns, with the bundle held, in the order ``hamlq analyze
--full`` forms them: ``residuals`` calls ``residuals_v1`` and
``residuals_v2``, and ``bases`` then calls ``assemble_v1``,
``assemble_v2`` and ``assemble_vbar2`` and holds the three bases. For
``UNSTABLE_ITEM`` (default
``unstable-n50-0``) it splits ``riccati.solve_dare`` into the
structured-doubling bootstrap (``riccati._doubling_gain``) and the Newton
phase that follows it, up to the return. For the ``traj-many`` item with
the largest tracemalloc peak, each item solved once as the benchmark does,
it splits ``lqtraj.solve_nonrecursive`` into the boundary solve (from the
call to ``_propagate``), the propagation (``_propagate``), the outputs (from
``_propagate``'s return to ``cost``) and the cost (``cost``).

Each phase prints three figures: ``held`` (traced memory when it starts),
``peak`` (the highest traced memory while it runs, from
``tracemalloc.reset_peak``) and ``after`` (traced memory when it ends), in
units of one ``n x n`` float64 array for ``analyze`` and ``solve_dare`` and
of one ``(k_f + 1) x n`` array, the size of a trajectory's state sequence,
for ``solve_nonrecursive``. The phase with the largest peak sets the item's
``peak_alloc_mb``; that figure, in MB, is printed for the whole call, as the
benchmark measures it. The benchmark forms no residual check and no basis,
so the ``residuals`` and ``bases`` rows are not part of that call and their
peaks may exceed it. Run
each tree in its own process; one BLAS thread is pinned, as in the
benchmark.
"""

import os
import sys
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SEED = 1

# (phase label, first mark, last mark) in the order analyze reaches them,
# then the checks and bases formed after it returns, up to the return
ANALYZE_PHASES = (
    ("staircase", "staircase>", "staircase<"),
    ("rank", "rank>", "rank<"),
    ("DARE", "solve_dare>", "solve_dare<"),
    ("Gramian", "closed_loop_gramian>", "closed_loop_gramian<"),
    ("residuals", "analyze<", "residuals_v2<"),
    ("bases", "residuals_v2<", "return"),
)
ANALYZE_WRAPPED = ("analyze", "staircase", "rank", "solve_dare", "closed_loop_gramian", "residuals_v2")
# (phase label, first mark, last mark): a phase runs from one mark to another
DARE_PHASES = (
    ("bootstrap", "_doubling_gain>", "_doubling_gain<"),
    ("Newton", "_doubling_gain<", "return"),
)
TRAJ_PHASES = (
    ("boundary", "call", "_propagate>"),
    ("propagation", "_propagate>", "_propagate<"),
    ("outputs", "_propagate<", "cost>"),
    ("cost", "cost>", "cost<"),
)


def _marked(call, module, attrs):
    """Run ``call()`` under tracemalloc with each function ``attrs`` names in
    ``module`` wrapped to mark its entry (``attr>``) and return (``attr<``).

    Returns the marks, ``(name, traced, peak since the mark before)`` in
    bytes, from ``call`` at the start to ``return`` at the end, which is
    taken while ``call``'s result is still held. They are stored in buffers
    made before tracing starts, so keeping them allocates nothing the marks
    would count."""
    names, figures, count = [None] * 256, np.zeros((256, 2), dtype=np.int64), [0]

    def mark(name):
        names[count[0]] = name
        figures[count[0]] = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        count[0] += 1

    def wrap(attr, fn):
        enter, leave = f"{attr}>", f"{attr}<"

        def wrapped(*args, **kwargs):
            mark(enter)
            out = fn(*args, **kwargs)
            mark(leave)
            return out

        return wrapped

    originals = {attr: getattr(module, attr) for attr in attrs}
    for attr, fn in originals.items():
        setattr(module, attr, wrap(attr, fn))
    tracemalloc.start()
    try:
        mark("call")
        result = call()
        mark("return")
        del result
    finally:
        tracemalloc.stop()
        for attr, fn in originals.items():
            setattr(module, attr, fn)
    return [(name, int(held), int(peak)) for name, (held, peak) in zip(names[: count[0]], figures)]


def _rows(marks, phases, end_mark="return"):
    """``(label, held, peak, after)`` of each ``(label, first mark, last mark)``
    in ``phases``, and the peak of the call up to the first ``end_mark``.
    Marks are matched in order: a phase's first mark is the next one of that
    name from where the phase before ended, and its last mark the next one
    of that name after it."""

    def find(name, start):
        return next(i for i in range(start, len(marks)) if marks[i][0] == name)

    rows, end = [], 0
    for label, first, last in phases:
        i = find(first, end)
        end = find(last, i + 1)
        rows.append((label, marks[i][1], max(m[2] for m in marks[i + 1 : end + 1]), marks[end][1]))
    return rows, max(m[2] for m in marks[: find(end_mark, 0) + 1])


def _print(title, unit, unit_name, rows, peak):
    print(f"{title}, peak {peak / unit:.2f} {unit_name} = {peak / 2**20:.3f} MB")
    print(f"  {'phase':<16}{'held':>8}{'peak':>8}{'after':>8}")
    for label, held, top, after in rows:
        mark = "  <- peak" if top == peak else ""
        print(f"  {label:<16}{held / unit:8.2f}{top / unit:8.2f}{after / unit:8.2f}{mark}")


def _largest_peak(items, solved, execute, errors):
    """The item whose solve, traced alone as the benchmark does, peaks highest;
    items that raise ``errors`` are passed over."""
    peaks = {}
    for item in items:
        tracemalloc.start()
        try:
            execute(item, solved)
            peaks[item.id] = tracemalloc.get_traced_memory()[1]
        except errors:
            pass
        finally:
            tracemalloc.stop()
    return max(peaks, key=peaks.get)


def main(argv) -> None:
    if not 1 <= len(argv) <= 3:
        sys.exit(__doc__.split("\n\n")[1])
    src_dir = Path(argv[0]).resolve()
    item_id = argv[1] if len(argv) > 1 else "stable-n200"
    unstable_id = argv[2] if len(argv) > 2 else "unstable-n50-0"
    sys.path[:0] = [str(src_dir), str(BENCH)]
    import hamlq
    import workloads
    from hamlq import hamsubspace, lqtraj, riccati
    from hamlq.errors import HamlqError

    if Path(hamlq.__file__).resolve().parent != src_dir / "hamlq":
        sys.exit(f"error: imported hamlq from {hamlq.__file__}, not {src_dir}")
    items = {item.id: item for item in workloads.build("analyze-mix", SEED)}
    for wanted in (item_id, unstable_id):
        if wanted not in items:
            sys.exit(f"error: no analyze-mix item {wanted!r}; one of {', '.join(items)}")
    traj = {item.id: item for item in workloads.build("traj-many", SEED)}
    solved = workloads.solve_systems({it.sys_key: it.sys for it in traj.values()})
    traj_id = _largest_peak(traj.values(), solved, workloads.execute, HamlqError)

    def analyze_and_read(sysq):
        bundle = hamsubspace.analyze(sysq)
        ric, gram = bundle.riccati, bundle.gramian
        hamsubspace.residuals_v1(sysq, ric, gram), hamsubspace.residuals_v2(sysq, ric, gram)
        bases = (hamsubspace.assemble_v1(ric), hamsubspace.assemble_v2(ric, gram),
                 hamsubspace.assemble_vbar2(ric, gram))
        return bundle, bases

    sysq = items[item_id].sys
    analyze_and_read(sysq)  # warm-up: first-call allocations are not the program's
    marks = _marked(lambda: analyze_and_read(sysq), hamsubspace, ANALYZE_WRAPPED)
    rows, peak = _rows(marks, ANALYZE_PHASES, "analyze<")
    _print(f"analyze {item_id}: n = {sysq.n}", sysq.n**2 * 8, "n x n", rows, peak)

    sysq = items[unstable_id].sys
    riccati.solve_dare(sysq)
    rows, peak = _rows(_marked(lambda: riccati.solve_dare(sysq), riccati, ["_doubling_gain"]), DARE_PHASES)
    _print(f"solve_dare {unstable_id}: n = {sysq.n}", sysq.n**2 * 8, "n x n", rows, peak)

    item = traj[traj_id]
    n, k_f = item.sys.n, item.prob.k_f
    marks = _marked(lambda: workloads.execute(item, solved), lqtraj, ["_propagate", "cost"])
    rows, peak = _rows(marks, TRAJ_PHASES)
    _print(f"solve_nonrecursive {traj_id}: n = {n}, k_f = {k_f}", (k_f + 1) * n * 8, "(k_f + 1) x n", rows, peak)


if __name__ == "__main__":
    main(sys.argv[1:])
