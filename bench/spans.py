"""Spans and counts around the program's public functions.

The wrappers replace names where the program looks them up (for example
`cli.solve_hybrid` and `solver.reduce`), so the program itself is not
edited.  Spans are kept in memory; `Tracer.layers` turns them into
per-layer self times and counts.
"""

from __future__ import annotations

import functools
import os
import time


def _method_span(*args, **kwargs):
    method = kwargs.get("method", args[4] if len(args) > 4 else "reduce_lift")
    return "solver.direct_lp" if method == "direct_lp" else "solver.lift"


def _file_bytes(_result, args, _kwargs):
    return os.path.getsize(args[1])


def _members(result, _args, _kwargs):
    return sum(sample.size for sample in result[0])


def _pivots(result, _args, _kwargs):
    return result.iterations


def _cells(result, _args, _kwargs):
    return result.size


def _entries(result, _args, _kwargs):
    return result.masses.size


def _targets():
    """(owner, attribute, span name or a function of the call's arguments,
    counter of the call's result or None) for every wrapped name, and the
    Coupling class whose from_entries constructor is wrapped too."""
    from hedonic_match import cli, core, diagnostics, solver, surplus

    hybrid = ("solve_hybrid", _method_span, _pivots)
    fixed = ("solve_tripartite_fixed_alpha", "solver.fixed_alpha", _pivots)
    out = [
        (cli, "main", "cli", None),
        (cli, *hybrid), (solver, *hybrid),
        (cli, *fixed), (solver, *fixed),
        (solver, "solve_bipartite", "solver.transport", _pivots),
        (solver, "reduce", "reduction.reduce", None),
        (diagnostics, "reduce", "reduction.reduce", None),
        (solver, "project", "core.project", None),
        (cli, "verify_stability", "diagnostics.stability", None),
        (cli, "check_purity", "diagnostics.purity", None),
        (cli, "compute_prices", "diagnostics.prices", None),
        (cli, "support_dimension", "diagnostics.support_dimension", None),
        (cli, "sample_splitting_sets", "diagnostics.splitting", _members),
        (cli, "dump_json", "serialize.write", _file_bytes),
        (cli, "potentials_to_csv", "serialize.write", _file_bytes),
    ]
    out += [(cli, name, "diagnostics.twists", None)
            for name in ("check_compatibility_1d", "check_tss_bilinear",
                         "check_tzss_bilinear", "check_strictly_hedonic")]
    for cls in vars(surplus).values():
        if isinstance(cls, type) and "value_grid" in vars(cls):
            out.append((cls, "value_grid", "surplus.value_grid", _cells))
    return out, core.Coupling


class Tracer:
    """Records (name, start, end, parent, count) for each wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, self._stack[-1] if self._stack else None, 0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                rec[4] = counter(result, args, kwargs)
            return result
        return traced

    def install(self) -> None:
        targets, coupling = _targets()
        for owner, attr, name, counter in targets:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, self._wrap(vars(owner)[attr], name, counter))
        self._saved.append((coupling, "from_entries", vars(coupling)["from_entries"]))
        from_entries = self._wrap(coupling.from_entries, "core.coupling", _entries)
        coupling.from_entries = staticmethod(from_entries)

    def remove(self) -> None:
        """Put back every name that install() replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op(self, fn, *args):
        """Run one operation under a root span named "op"."""
        return self._wrap(fn, "op", None)(*args)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: total self time, total duration, calls and count.

        Self time is a span's duration minus the time its children cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for t, (name, start, end, _, count) in enumerate(self.spans):
            agg = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0,
                                        "calls": 0, "count": 0})
            agg["self_s"] += (end - start) - child_time[t]
            agg["total_s"] += end - start
            agg["calls"] += 1
            agg["count"] += count
        return out
