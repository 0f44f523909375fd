"""Span tracer for the traced benchmark run.

Two kinds of wrapper, both installed from the benchmark's own files:

* `patch_fft` replaces the scipy.fft transform entry points. It must run
  before cnls_lab is imported, so that the modules' `from scipy.fft import
  fftn` copies bind the wrappers. A transform is not a span: its count,
  points and time are added to the innermost open span of its thread.
* `install` wraps every public module-level function of cnls_lab wherever
  the function object is bound, `from .x import f` copies included. Private
  helpers (leading underscore) are never wrapped; their time is the self
  time of the public function that called them.

Spans stay in memory, each with its parent and thread id, and `write` saves
them at the end. A span opened on a worker thread with nothing open on that
thread (ground_state's pool) takes the main thread's innermost open span
as parent, since that is the call which caused it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.fft

FFT_ENTRY_POINTS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)

# span record fields
ID, NAME, PARENT, TID, T0, T1, FFT_CALLS, FFT_POINTS, FFT_S, RAISED = range(10)

MASS_DRIFT_MAX = 1e-12  # criterion 07


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans = []
        self.names = []
        self.counters = defaultdict(float)
        self.checks = []  # (metric, value, ok) from observers, drained per task
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()
        self._lock = threading.Lock()
        # transforms called with no span open
        self._loose = [-1, -1, -1, -1, 0.0, 0.0, 0, 0, 0.0, False]
        self._observers = {
            "dynamics.evolve": self._observe_evolve,
            "minimize.minimize_on": self._observe_minimize,
            "snapshots.save_snapshot": self._observe_snapshot,
            "snapshots.load_snapshot": self._observe_snapshot,
        }

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers -----------------------------------------------------------

    def patch_fft(self) -> None:
        for name in FFT_ENTRY_POINTS:
            setattr(scipy.fft, name, self._wrap_fft(getattr(scipy.fft, name)))

    def _wrap_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(x, *args, **kwargs):
            if not tracer.recording:
                return fn(x, *args, **kwargs)
            t0 = perf_counter()
            out = fn(x, *args, **kwargs)
            elapsed = perf_counter() - t0
            stack = tracer._stack()
            rec = stack[-1] if stack else tracer._loose
            rec[FFT_CALLS] += 1
            rec[FFT_POINTS] += np.size(x)
            rec[FFT_S] += elapsed
            return out

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every loaded module of package and
        start recording."""
        prefix = package.__name__ + "."
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(prefix)]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        self.recording = True

    def _wrap(self, fn, name):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        observer = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][ID]
            else:
                main = tracer._main
                parent = main[-1][ID] if main and stack is not main else -1
            rec = [next(tracer._ids), name_id, parent, threading.get_ident(), 0.0, 0.0, 0, 0, 0.0, False]
            stack.append(rec)
            rec[T0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[T1] = perf_counter()
                stack.pop()
                tracer.spans.append(rec)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    # -- observers: counts read off arguments and results -------------------

    def _add(self, **counts) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counters[key] += value

    def _observe_evolve(self, args, kwargs, log) -> None:
        config = args[2] if len(args) > 2 else kwargs["config"]
        t_last = log.snapshots[-1][0]
        self._add(**{"dynamics.steps": round(t_last / config.dt), "dynamics.samples": len(log.times)})
        drift = 0.0
        for mass in (log.mass1, log.mass2):
            scale = mass[0] if mass[0] > 0 else log.mass1[0] + log.mass2[0]
            drift = max(drift, float(np.abs(mass - mass[0]).max() / scale))
        # the pinned bound covers runs that reach t_end; a run stopped by the
        # blow-up guard reports its drift without a gate
        self.checks.append(("dynamics.mass_drift_max", drift, log.aborted or drift <= MASS_DRIFT_MAX))

    def _observe_minimize(self, args, kwargs, result) -> None:
        self._add(**{"minimize.iterations": result.iterations})
        self.checks.append(("minimize.residual_max", result.residual, True))

    def _observe_snapshot(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self._add(**{"snapshots.bytes": os.path.getsize(path)})

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """Totals over every recorded span, keyed by per-layer metric name."""
        # ids grow with opening time, so a parent sorts before its children
        spans = sorted(self.spans, key=lambda r: r[ID])
        children = defaultdict(list)
        for r in spans:
            if r[PARENT] >= 0:
                children[r[PARENT]].append((r[T0], r[T1]))

        out = defaultdict(float, self.counters)
        in_evolve = set()
        evolve_fft = 0
        for r in spans:
            layer, _, func = self.names[r[NAME]].partition(".")
            duration = r[T1] - r[T0]
            covered = _union_length(children.get(r[ID], ()), r[T0], r[T1])
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += duration - covered - r[FFT_S]
            out["fft.calls"] += r[FFT_CALLS]
            out["fft.points"] += r[FFT_POINTS]
            out["fft.s"] += r[FFT_S]
            if func == "evolve" or r[PARENT] in in_evolve:
                in_evolve.add(r[ID])
                evolve_fft += r[FFT_CALLS]
            if func == "evolve":
                out["dynamics.evolve_s"] += duration
            elif func == "minimize_on":
                out["minimize.minimize_on_s"] += duration
                out["minimize.failed"] += r[RAISED]
            elif func in ("orbit_distance", "scale_field"):
                out[f"{layer}.{func}_calls"] += 1
                out[f"{layer}.{func}_s"] += duration
            elif layer == "snapshots":
                out["snapshots.s"] += duration
        out["fft.calls"] += self._loose[FFT_CALLS]
        out["fft.points"] += self._loose[FFT_POINTS]
        out["fft.s"] += self._loose[FFT_S]
        out["fft.evolve_calls"] = evolve_fft
        return out

    def write(self, path) -> None:
        """Save the spans as JSON lines: one header line, then one
        [id, name, parent, thread, t0, t1, fft_calls, fft_points, fft_s,
        raised] list per span."""
        spans = sorted(self.spans, key=lambda r: r[ID])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "parent", "thread", "t0", "t1",
                                            "fft_calls", "fft_points", "fft_s", "raised"]}) + "\n")
            for r in spans:
                row = list(r)
                row[NAME] = self.names[r[NAME]]
                fh.write(json.dumps(row) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
