"""In-memory timing spans around calls into the public functions of hde.

A span records its name, start, end, parent span and the operation it
belongs to; the spans of one operation share that operation's id.  Spans
stay in memory until the benchmark writes them out at the end of a run.

`Tracer.install` replaces every public function of the hde modules, in every
hde module namespace that refers to it, by a wrapper that opens a span named
``<module>.<function>``.  Calls between hde modules, and calls from one
public function to another inside a module, are therefore traced without
touching hde's source or any private name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

LAYERS = ("dag", "scores", "htd", "tpr", "iso", "thresholds", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # (op, span_id, parent_id, name, start, end, attrs)
        self.ops = {}  # op id -> {"kind": ..., "cycle": ...}
        self.op = None
        self._next_span = 0
        self._stack = []
        self._patched = []

    def begin_op(self, kind, cycle):
        self.op = len(self.ops)
        self.ops[self.op] = {"kind": kind, "cycle": cycle}
        return self.op

    def _record(self, name, fn, args, kwargs, hook):
        sid = self._next_span
        self._next_span += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        attrs = {}
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.op, sid, parent, name, start, end, attrs))
        if hook is not None:
            hook(attrs, args, kwargs, result)
        return result

    def absorb(self, spans):
        """Add the spans another process recorded to the current operation."""
        offset = self._next_span
        for _, sid, parent, name, start, end, attrs in spans:
            self.spans.append((self.op, offset + sid,
                               None if parent is None else offset + parent,
                               name, start, end, attrs))
            self._next_span = max(self._next_span, offset + sid + 1)

    def install(self, hooks=None):
        """Wrap the public functions of every hde module; undo with restore()."""
        hooks = hooks or {}
        mods = [importlib.import_module("hde")] + [
            importlib.import_module(f"hde.{m}") for m in LAYERS]
        wrappers = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("hde.")):
                    continue
                w = wrappers.get(obj)
                if w is None:
                    name = f"{obj.__module__.split('.')[1]}.{obj.__name__}"
                    w = wrappers[obj] = self._wrap(obj, name, hooks.get(name))
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, w)

    def restore(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs, hook)
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end, attrs in self.spans:
                rec = {"op": op, "span": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                if op is not None:
                    rec.update(self.ops[op])
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def span_cost(reps=20000, rounds=5):
    """Seconds one span adds to a call: a wrapped no-op against the bare one.

    Plain and wrapped rounds alternate, and each takes the median of its
    rounds, so a change of host speed during the measurement hits both.
    """
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "calibration.noop", None)
    times = {noop: [], wrapped: []}
    for _ in range(rounds):
        for fn in (noop, wrapped):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            times[fn].append(time.perf_counter() - t0)
        tracer.spans.clear()
    cost = (statistics.median(times[wrapped])
            - statistics.median(times[noop])) / reps
    return max(cost, 0.0)


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover.

    Children of one span never overlap (calls are synchronous), so their
    durations add up.
    """
    child_total = defaultdict(float)
    for _, _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_total[parent] += end - start
    return {sid: (end - start) - child_total[sid]
            for _, sid, _, _, start, end, _ in spans}
