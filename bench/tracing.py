"""Per-layer spans for the traced run, recorded from outside the program.

``install`` wraps each layer's public functions and rebinds the wrapper in
every fracrelax module namespace that holds the original (``kinetics`` and
``volterra`` import ``build_weights`` and ``ml_eval`` by name, for example).
Mittag-Leffler spans are named after ``MLResult.regime``.  Extended-precision
passes are counted at the program's boundary with mpmath: the ``mp`` name of
``fracrelax.mittag_leffler`` is replaced by a proxy whose ``workdps``
context records a span.

Spans stay in memory (parallel arrays: start, end, name, parent) and are
written once, when the run ends.  A layer's self time is its span time
minus the time of its direct child spans.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# module -> [(function, span name)]; a span name of None means "name it after
# the result" (the Mittag-Leffler regime, or skip the dispatching call).
LAYERS = {
    "fracrelax.gammafn": [("gamma", "gammafn"), ("reciprocal_gamma", "gammafn")],
    "fracrelax.mittag_leffler": [("ml_eval_detailed", None)],
    "fracrelax.kinetics": [
        ("closed_form_curve", "kinetics.closed_form"),
        ("neumann_curve", "kinetics.neumann"),
        ("integral_equation_residual", "kinetics.residual"),
        ("differential_equation_residual", "kinetics.residual"),
    ],
    "fracrelax.riemann_liouville": [
        ("build_weights", "riemann_liouville.weights"),
        ("rl_integral_numeric", "riemann_liouville.integral"),
        ("rl_derivative_numeric", "riemann_liouville.derivative"),
    ],
    "fracrelax.volterra": [("solve_volterra", None), ("picard_iterate", "volterra.picard")],
    "fracrelax.verification": [("run_verification", "verification.ladder")],
    "fracrelax.cli": [("main", "cli")],
}
ML_REGIMES = ("series", "spectral", "asymptotic")
MP_SPAN = "mittag_leffler.mp"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(name_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- installing the wrappers ------------------------------------------

    def _wrap(self, fn, span_name: str | None):
        name = self.name
        open_, close = self.open, self.close
        if fn.__name__ == "ml_eval_detailed":
            error_id = self.name_id("mittag_leffler.error")
            regime_ids = {r: self.name_id(f"mittag_leffler.{r}") for r in ML_REGIMES}
            counters = self.counters

            def wrapper(*args, **kwargs):
                idx = open_(error_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                regime_id = regime_ids.get(result.regime)
                if regime_id is None:
                    regime_id = regime_ids[result.regime] = self.name_id(
                        f"mittag_leffler.{result.regime}")
                name[idx] = regime_id
                counters["mittag_leffler.terms"] += result.terms
                return result
        elif fn.__name__ == "solve_volterra":
            march_id = self.name_id("volterra.march")

            def wrapper(problem, cfg, *args, **kwargs):
                if cfg.scheme == "picard":  # picard_iterate records its own span
                    return fn(problem, cfg, *args, **kwargs)
                idx = open_(march_id)
                try:
                    return fn(problem, cfg, *args, **kwargs)
                finally:
                    close(idx)
        else:
            span_id = self.name_id(span_name)
            weights = fn.__name__ == "build_weights"
            counters = self.counters

            def wrapper(*args, **kwargs):
                idx = open_(span_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                if weights:
                    counters["riemann_liouville.weights.bytes"] += sum(
                        v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray)
                    )
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "fracrelax" and not modname.startswith("fracrelax."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import importlib

        for modname, entries in LAYERS.items():
            module = importlib.import_module(modname)
            for fname, span_name in entries:
                original = getattr(module, fname)
                self._rebind(original, self._wrap(original, span_name))
        ml = importlib.import_module("fracrelax.mittag_leffler")
        self._undo.append((ml, "mp", ml.mp))
        ml.mp = _MpBoundary(ml.mp, self)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    # -- reading the spans ---------------------------------------------------

    def arrays(self):
        # copies: a live view would stop the arrays from growing
        return tuple(np.frombuffer(a, dtype=a.typecode).copy()
                     for a in (self.start, self.end, self.name, self.parent))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts, busy times and self times of the recorded spans.

        Spans of one name never nest here, so summing their durations counts
        no time twice.
        """
        start, end, name, parent = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)

        def total(per_name, prefix):
            return sum(per_name[i] for i, s in enumerate(self.names)
                       if s == prefix or (s.startswith(prefix + ".") and s != MP_SPAN))

        m: dict[str, tuple[float, str]] = {
            "gammafn.calls": (int(total(calls, "gammafn")), "count"),
            "gammafn.busy_s": (float(total(busy, "gammafn")), "s"),
            "mittag_leffler.calls": (int(total(calls, "mittag_leffler")), "count"),
            "mittag_leffler.busy_s": (float(total(busy, "mittag_leffler")), "s"),
        }
        for regime in ML_REGIMES:
            span = f"mittag_leffler.{regime}"
            m[f"{span}.calls"] = (int(total(calls, span)), "count")
            m[f"{span}.busy_s"] = (float(total(busy, span)), "s")
        m["mittag_leffler.terms"] = (int(self.counters["mittag_leffler.terms"]), "count")
        mp_id = self._ids.get(MP_SPAN)
        m["mittag_leffler.mp_passes"] = (0 if mp_id is None else int(calls[mp_id]), "count")
        m["mittag_leffler.mp_busy_s"] = (0.0 if mp_id is None else float(busy[mp_id]), "s")
        m["riemann_liouville.weights.calls"] = (
            int(total(calls, "riemann_liouville.weights")), "count")
        m["riemann_liouville.weights.bytes"] = (
            int(self.counters["riemann_liouville.weights.bytes"]), "bytes")
        for span in ("riemann_liouville.weights", "riemann_liouville.integral",
                     "riemann_liouville.derivative"):
            m[f"{span}.busy_s"] = (float(total(busy, span)), "s")
        for span in ("kinetics.closed_form", "kinetics.neumann", "kinetics.residual",
                     "volterra.march", "volterra.picard", "verification.ladder", "cli"):
            m[f"{span}.self_s"] = (float(total(own, span)), "s")
        return m

    def write(self, path: Path) -> None:
        """Write the spans: arrays in an .npz, the name table as JSON inside it."""
        start, end, name, parent = self.arrays()
        # spans of one operation share the index of its root span
        op = np.arange(len(start))
        for i in range(len(start)):
            if parent[i] >= 0:
                op[i] = op[parent[i]]
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, start=start, end=end, name=name, parent=parent, op=op,
                 names=np.array(json.dumps(self.names)))


class _MpBoundary:
    """Stands in for mpmath inside fracrelax.mittag_leffler; times workdps."""

    def __init__(self, mp, tracer: Tracer):
        self._mp = mp
        self._tracer = tracer
        self._span_id = tracer.name_id(MP_SPAN)

    def __getattr__(self, attr):
        return getattr(self._mp, attr)

    @contextlib.contextmanager
    def workdps(self, dps):
        idx = self._tracer.open(self._span_id)
        try:
            with self._mp.workdps(dps):
                yield
        finally:
            self._tracer.close(idx)
