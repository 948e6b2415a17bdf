"""Span recorder for the traced run.

Wrappers are installed at the names callers look functions up by (for
example ``qrabi.cli.sweep_spectrum`` or ``qrabi.wigner.build_full``), so
the program itself is not changed.  Each span records a name, start, end,
parent and thread; spans stay in memory until the worker prints them.  A
wrapped name that a later version of qrabi no longer has is reported as
absent rather than treated as an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from pathlib import Path


def _rows(a, _result) -> dict:
    return {"output.rows": len(a["rows"]), "output.bytes": os.path.getsize(a["path"])}


def _plot_bytes(a, _result) -> dict:
    path = Path(a["path"])
    if a["fmt"] == "gnuplot":
        files = (path.with_suffix(".gp"), path.with_suffix(".dat"))
    else:
        files = (path,)
    return {"plotting.bytes": sum(os.path.getsize(f) for f in files)}


# (module, attribute, span name, counter over the bound arguments and result)
WRAPPED = (
    ("qrabi.cli", "sweep_spectrum", "spectra.sweep_spectrum",
     lambda a, r: {"spectra.sweep_points": len(a["g_grid"])}),
    ("qrabi.cli", "find_avoided_crossings", "spectra.find_avoided_crossings", None),
    ("qrabi.cli", "entropy_sweep", "entanglement.entropy_sweep", None),
    ("qrabi.cli", "ground_state_wigner", "wigner.ground_state_wigner",
     lambda a, r: {"wigner.grid_points": a["grid"].n_q * a["grid"].n_p}),
    ("qrabi.cli", "spectrum_table", "output.table", None),
    ("qrabi.cli", "entropy_table", "output.table", None),
    ("qrabi.cli", "wigner_table", "output.table", None),
    ("qrabi.cli", "crossings_table", "output.table", None),
    ("qrabi.cli", "write_csv", "output.write_csv", _rows),
    ("qrabi.cli", "write_json", "output.write_json", _rows),
    ("qrabi.cli", "write_manifest", "cli.write_manifest", None),
    ("qrabi.cli", "emit_plot", "plotting.emit_plot", _plot_bytes),
    ("qrabi.spectra", "build_full", "model.build_full", None),
    ("qrabi.entanglement", "build_full", "model.build_full", None),
    ("qrabi.entanglement", "ground_state", "entanglement.ground_state", None),
    ("qrabi.entanglement", "partial_trace", "entanglement.partial_trace", None),
    ("qrabi.wigner", "build_full", "model.build_full", None),
    ("qrabi.wigner", "ground_state", "entanglement.ground_state", None),
    ("qrabi.wigner", "partial_trace", "entanglement.partial_trace", None),
    ("qrabi.wigner", "wigner", "wigner.wigner", None),
)


class Tracer:
    """In-memory span list plus counters, safe to record from pool threads.

    A span's parent is the innermost open span on its own thread; a span
    opened on a thread with nothing open (a sweep's pool worker) takes the
    innermost open span of the thread that installed the tracer.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._count_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

    def count(self, values: dict) -> None:
        with self._count_lock:
            for key, value in values.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def install(self) -> None:
        """Replace every name in WRAPPED that exists with a recording wrapper."""
        for module_name, attr, span, counter in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(span, fn, counter))

    def _wrap(self, span: str, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(span, fn, *args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    self.count(counter(bound.arguments, result))
                except (KeyError, AttributeError, TypeError, OSError):
                    # a renamed parameter: the count reads as absent
                    self.absent.append(f"{span} count")
            return result

        return wrapper

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}


# per-layer metrics of the traced run: (name, unit)
LAYER_METRICS = (
    ("output.table_s", "s"),
    ("output.write_csv_s", "s"),
    ("output.write_json_s", "s"),
    ("output.rows", "count"),
    ("output.bytes", "bytes"),
    ("plotting.emit_plot_s", "s"),
    ("plotting.bytes", "bytes"),
    ("spectra.sweep_spectrum_s", "s"),
    ("spectra.sweep_points", "count"),
    ("spectra.find_avoided_crossings_s", "s"),
    ("model.build_full_s", "s"),
    ("model.build_full_calls", "count"),
    ("entanglement.entropy_sweep_s", "s"),
    ("entanglement.ground_state_s", "s"),
    ("entanglement.ground_state_calls", "count"),
    ("entanglement.partial_trace_s", "s"),
    ("wigner.ground_state_wigner_s", "s"),
    ("wigner.wigner_s", "s"),
    ("wigner.grid_points", "count"),
    ("cli.main_s", "s"),
    ("cli.write_manifest_s", "s"),
    ("spectra.top_s", "s"),
    ("entanglement.top_s", "s"),
    ("wigner.top_s", "s"),
    ("output.top_s", "s"),
    ("plotting.top_s", "s"),
    ("cli.top_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
)

LAYERS = ("spectra", "entanglement", "wigner", "output", "plotting", "cli")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(trace: dict, wall_s: float) -> dict:
    """Per-layer figures of one traced iteration.

    ``<span>_s`` is busy time summed over calls and threads; ``_calls`` is
    the number of calls.  ``cli.main_s`` is self time: the main span minus
    the time its children on the same thread cover.  ``<layer>.top_s`` sums
    the layer's top-level spans (direct children of ``cli.main``), and
    ``trace.coverage`` is their total over the iteration's ``wall_s``.
    """
    spans = [tuple(s) for s in trace["spans"]]
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple]] = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)

    figures = {name: 0.0 for name, _ in LAYER_METRICS}
    table: dict[str, dict] = {}
    for span_id, name, start, end, parent, thread in spans:
        own = [(c[2], c[3]) for c in children.get(span_id, ()) if c[5] == thread]
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - _covered(own)
    for name, row in table.items():
        if f"{name}_s" in figures:
            figures[f"{name}_s"] = row["total_s"]
        if f"{name}_calls" in figures:
            figures[f"{name}_calls"] = row["calls"]
    # the main span's total is the iteration itself; its self time is the cli layer's own work
    figures["cli.main_s"] = table.get("cli.main", {}).get("self_s", 0.0)
    for key, value in trace["counts"].items():
        if key in figures:
            figures[key] = value

    top = [s for s in spans
           if s[4] in by_id and by_id[s[4]][1] == "cli.main" and by_id[s[4]][5] == s[5]]
    for layer in LAYERS:
        figures[f"{layer}.top_s"] = sum(s[3] - s[2] for s in top if s[1].split(".")[0] == layer)
    figures["trace.coverage"] = sum(s[3] - s[2] for s in top) / wall_s
    return {"figures": figures, "spans": table, "absent": trace["absent"]}
