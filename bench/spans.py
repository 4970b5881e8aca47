"""Spans around the public functions of the mfland modules, recorded from outside.

``Tracer.install`` replaces every public function of each layer module with a
timing wrapper, in every ``mfland`` namespace that bound the function (``cli``,
``verify`` and ``oracle`` import functions by name) and in ``verify.ALL_CHECKS``.
Spans are kept in memory as ``(id, parent, op, name, t0, t1, ok)`` and turned
into per-layer numbers by ``Tracer.summary``; ``Tracer.write`` saves them.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("model", "calculus", "canonical", "spectrum", "oracle", "orbit",
          "flow", "verify", "cli")

SPECTRUM_ENTRIES = ("spectrum_full_rank_scaled", "spectrum_deficient_rank",
                    "spectrum_zero_family", "spectrum_balanced")


def _spectrum_counts(rep):
    nbytes = sum(e.vector.G.nbytes + e.vector.H.nbytes for e in rep.eigpairs)
    return {"spectrum.eigpairs": len(rep.eigpairs), "spectrum.eigvec_bytes": nbytes}


# Work counters read off return values, after the span has closed.
COUNTERS = {f"spectrum.{name}": _spectrum_counts for name in SPECTRUM_ENTRIES}
COUNTERS["oracle.dense_hessian"] = lambda h: {
    "oracle.dense_hessian.bytes_computed": 8 * h.dim * h.dim}
COUNTERS["flow.integrate_flow"] = lambda traj: {"flow.steps": traj.steps}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = 0
        self._stack = []
        self._next_id = 1

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self.op, name, t0, t1, ok))
                if ok and counter is not None:
                    for key, val in counter(out).items():
                        self.counts[key] += val

        return traced

    def install(self):
        """Wrap the public functions of every layer, wherever they are bound."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mfland.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "mfland" and not modname.startswith("mfland."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        verify = sys.modules["mfland.verify"]
        verify.ALL_CHECKS[:] = [(name, wrappers.get(fn, fn))
                                for name, fn in verify.ALL_CHECKS]

    def merge(self, spans, counts):
        """Add spans and counts recorded by another process (ids re-based)."""
        base = self._next_id
        top = 0
        for sid, parent, _op, name, t0, t1, ok in spans:
            self.spans.append((sid + base, parent + base if parent else 0,
                               self.op, name, t0, t1, ok))
            top = max(top, sid)
        self._next_id = base + top + 1
        for key, val in counts.items():
            self.counts[key] += val

    def summary(self):
        """Per-name calls, self seconds and failed calls.

        Self time is a span's duration minus the durations of its child spans;
        spans nest strictly because each process traces one thread.
        """
        child = defaultdict(float)
        for _sid, parent, _op, _name, t0, t1, _ok in self.spans:
            if parent:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "failed": 0})
        for sid, _parent, _op, name, t0, t1, ok in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[sid]
            row["failed"] += 0 if ok else 1
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def read(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return [tuple(s) for s in data["spans"]], data["counts"]
