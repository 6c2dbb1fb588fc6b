"""Spans around calls into hamlq's layers, recorded from outside the package.

``Tracer.install`` replaces each public function named in ``SITES`` under
the name the calling module imported it as, so a call from
``hamlq.riccati`` into ``solve_dlyap_stable`` opens a span nested inside the
``riccati.solve_dare`` span that made it. ``restore`` puts every original
back; ``hamlq`` itself is never edited. Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from hamlq.errors import BoundaryInconsistent, NotStable

# (module whose namespace is patched, attribute, span name, call-site counter)
SITES = [
    ("hamlq.hamsubspace", "analyze", "hamsubspace.analyze", None),
    ("hamlq.golden", "analyze", "hamsubspace.analyze", None),
    ("hamlq.cli", "analyze", "hamsubspace.analyze", None),
    ("hamlq.hamsubspace", "staircase", "reachdecomp.staircase", None),
    ("hamlq.hamsubspace", "solve_dare", "riccati.solve_dare", None),
    ("hamlq.cli", "solve_dare", "riccati.solve_dare", None),
    ("hamlq.riccati", "stability_certificate", "stablyap.stability_certificate",
     "riccati.bootstrap.certificates"),
    ("hamlq.riccati", "solve_dlyap_stable", "stablyap.solve_dlyap_stable",
     "riccati.newton.lyap_solves"),
    ("hamlq.stablyap", "solve_dlyap_stable", "stablyap.solve_dlyap_stable", None),
    ("hamlq.hamsubspace", "closed_loop_gramian", "stablyap.closed_loop_gramian", None),
    ("hamlq.cli", "closed_loop_gramian", "stablyap.closed_loop_gramian", None),
    ("hamlq.hamsubspace", "assemble_v1", "hamsubspace.assemble_v1", None),
    ("hamlq.hamsubspace", "assemble_v2", "hamsubspace.assemble_v2", None),
    ("hamlq.hamsubspace", "assemble_vbar2", "hamsubspace.assemble_vbar2", None),
    ("hamlq.hamsubspace", "residuals_v1", "hamsubspace.residuals_v1", None),
    ("hamlq.hamsubspace", "residuals_v2", "hamsubspace.residuals_v2", None),
    ("hamlq.hamsubspace", "rank", "hamsubspace.rank", None),
    ("hamlq.hamsubspace", "solve_linear", "matcore.solve_linear", None),
    ("hamlq.riccati", "solve_linear", "matcore.solve_linear", None),
    ("hamlq.stablyap", "solve_linear", "matcore.solve_linear", None),
    ("hamlq.lqtraj", "solve_linear", "matcore.solve_linear", None),
    ("hamlq.lqtraj", "solve_nonrecursive", "lqtraj.solve_nonrecursive", None),
    ("hamlq.cli", "solve_nonrecursive", "lqtraj.solve_nonrecursive", None),
    ("hamlq.lqtraj", "cost", "lqtraj.cost", None),
    ("hamlq.cli", "golden_check", "golden.golden_check", None),
]

# per-layer metric prefix -> span names whose time it sums
GROUPS = {
    "reachdecomp.staircase": ("reachdecomp.staircase",),
    "riccati.solve_dare": ("riccati.solve_dare",),
    "stablyap.stability_certificate": ("stablyap.stability_certificate",),
    "stablyap.solve_dlyap_stable": ("stablyap.solve_dlyap_stable",),
    "stablyap.closed_loop_gramian": ("stablyap.closed_loop_gramian",),
    "hamsubspace.analyze": ("hamsubspace.analyze",),
    "hamsubspace.assemble": (
        "hamsubspace.assemble_v1",
        "hamsubspace.assemble_v2",
        "hamsubspace.assemble_vbar2",
    ),
    "hamsubspace.residuals": ("hamsubspace.residuals_v1", "hamsubspace.residuals_v2"),
    "hamsubspace.rank": ("hamsubspace.rank",),
    "matcore.solve_linear": ("matcore.solve_linear",),
    "lqtraj.solve_nonrecursive": ("lqtraj.solve_nonrecursive",),
    "lqtraj.cost": ("lqtraj.cost",),
    "golden.golden_check": ("golden.golden_check",),
}


class Tracer:
    """In-memory span recorder. A span is [id, name, start, end, parent, op]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.kf_seconds: list[tuple[int, float]] = []  # solve_nonrecursive (k_f, duration)
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, site_counter: str | None):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if site_counter:
                counters[site_counter] += 1
            with self.span(name) as rec:
                try:
                    result = fn(*args, **kwargs)
                except NotStable:
                    # closed_loop_gramian passes its solver's error on: count it once
                    if name == "stablyap.solve_dlyap_stable":
                        counters["stablyap.solve_dlyap_stable.not_stable"] += 1
                    raise
                except BoundaryInconsistent:
                    counters["lqtraj.boundary_inconsistent"] += 1
                    raise
            if name == "riccati.solve_dare":
                counters["riccati.iterations"] += result.iterations
            elif name == "stablyap.solve_dlyap_stable":
                counters["stablyap.solve_dlyap_stable.doublings"] += result.iterations
            elif name == "lqtraj.solve_nonrecursive":
                counters["lqtraj.steps"] += args[0].k_f + 1
                self.kf_seconds.append((args[0].k_f, rec[3] - rec[2]))
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for mod_name, attr, name, site_counter in SITES:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original, name, site_counter))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation counts and times of every layer, from the spans.

        A group's time covers only its outermost spans, so a traced function
        that calls another of the same group is not counted twice. Self time
        is a span's duration minus the time its child spans cover.
        """
        names = {s[0]: s[1] for s in self.spans}
        child_s = Counter()
        for s in self.spans:
            if s[4] is not None:
                child_s[s[4]] += s[3] - s[2]
        out: dict[str, float] = {}
        for prefix, members in GROUPS.items():
            calls = total = self_s = 0.0
            for s in self.spans:
                if s[1] not in members:
                    continue
                calls += 1
                self_s += s[3] - s[2] - child_s[s[0]]
                parent = s[4]
                while parent is not None and names[parent] not in members:
                    parent = self.spans[parent][4]
                if parent is None:
                    total += s[3] - s[2]
            out[f"{prefix}.calls"] = calls / ops
            out[f"{prefix}.ms"] = 1e3 * total / ops
            out[f"{prefix}.self_ms"] = 1e3 * self_s / ops
        for key, value in self.counters.items():
            out[key] = value / ops
        return out

    def step_fit(self) -> tuple[float, float]:
        """Slope (us per step) and intercept (ms) of solve time against k_f."""
        if len({kf for kf, _ in self.kf_seconds}) < 2:
            return 0.0, 0.0
        kf, sec = np.array(self.kf_seconds, dtype=float).T
        slope, intercept = np.polyfit(kf, sec, 1)
        return 1e6 * float(slope), 1e3 * float(intercept)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
