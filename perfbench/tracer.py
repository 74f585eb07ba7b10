"""Spans and call counts around the public functions of each cliffdyn layer.

The tracer patches the functions named in ``layers.TRACED`` wherever the
package binds them: the defining module, every module that took the name
with ``from ... import``, tuples that hold it (``acceptance.CRITERIA``) and,
for methods, the class.  Nothing in ``src/`` changes: ``Tracer.installed``
binds the wrappers for a block of ops and restores the originals after it.

Spans stay in memory for the op and are reduced to flat per-op totals when
it ends.  A span opened on a thread that has no open span (a worker of
``run_all``'s pool) takes as parent the innermost span open on the op's own
thread.  Self time is attributed by sweeping the op's wall time: at each
instant the time is split evenly among the innermost open spans of the
threads that are working, where a span that waits for a child on another
thread is not working.  The self times of all spans, the op's root span
included, therefore add up to the op's wall time exactly.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import layers

ROOT = "op"


def _replace_in(value, old, new):
    """``value`` with ``old`` replaced by ``new`` in tuples up to two deep."""
    if value is old:
        return new
    if isinstance(value, tuple):
        items = tuple(_replace_in(v, old, new) if isinstance(v, tuple) or v is old else v
                      for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._bindings: list[tuple[object, str, object, object]] | None = None
        self._root_thread = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}
        # span record: [name, start, end, parent index, thread id, failed]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.captured: dict[str, list] = defaultdict(list)

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, capture: str | None):
        sig = inspect.signature(fn) if capture else None
        spans, stacks, lock = self.spans, self._stacks, self._lock

        def traced(*args, **kwargs):
            if capture:
                value = sig.bind(*args, **kwargs).arguments[capture]
                with lock:
                    self.captured[name].append(id(value) if capture == "sample" else value)
            tid = threading.get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            parent = stack[-1] if stack else stacks[self._root_thread][-1]
            rec = [name, perf_counter(), 0.0, parent, tid, False]
            with lock:
                index = len(spans)
                spans.append(rec)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, name: str):
        counts, errors, lock = self.counts, self.errors, self._lock

        def counted(*args, **kwargs):
            with lock:
                counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                with lock:
                    errors[name] += 1
                raise

        counted.__wrapped__ = fn
        return counted

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """Every (owner, attribute, original, wrapped) binding, in patch order."""
        plan = []

        def patch(owner, attr, value):
            plan.append((owner, attr, getattr(owner, attr), value))
            setattr(owner, attr, value)

        package = [m for key, m in sys.modules.items()
                   if key == "cliffdyn" or key.startswith("cliffdyn.")]
        steps = {f"{layer}.{fn}" for layer, fns in layers.STEP_COUNTED.items() for fn in fns}
        try:
            for layer, table in layers.TRACED.items():
                module = importlib.import_module(f"cliffdyn.{layer}")
                for fn_name, mode in table.items():
                    name = f"{layer}.{fn_name}"
                    capture = ("steps" if name in steps else
                               "sample" if name == "current_algebra.charge_algebra" else None)
                    owner, _, attr = f"{fn_name}".rpartition(".")
                    owner = getattr(module, owner) if owner else module
                    orig = owner.__dict__[attr] if owner is not module else getattr(module, attr)
                    wrapper = (self._span_wrapper(orig, name, capture) if mode == "span"
                               else self._count_wrapper(orig, name))
                    if owner is not module:
                        patch(owner, attr, wrapper)
                        continue
                    for mod in package:
                        for key, value in list(vars(mod).items()):
                            new = _replace_in(value, orig, wrapper)
                            if new is not value:
                                patch(mod, key, new)
        finally:
            for owner, attr, old, _ in reversed(plan):
                setattr(owner, attr, old)
        return plan

    @contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block, then restore."""
        if self._bindings is None:
            self._bindings = self._plan()
        try:
            for owner, attr, _, new in self._bindings:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old, _ in reversed(self._bindings):
                setattr(owner, attr, old)

    @contextmanager
    def op(self):
        """Trace one op inside ``installed``: reset, open the root span, close it."""
        self.spans.clear()
        self._stacks.clear()
        self.counts.clear()
        self.errors.clear()
        self.captured.clear()
        self._root_thread = threading.get_ident()
        self._stacks[self._root_thread] = [0]
        root = [ROOT, perf_counter(), 0.0, None, self._root_thread, False]
        self.spans.append(root)
        try:
            yield
        finally:
            root[2] = perf_counter()

    # -- reduction -----------------------------------------------------------------

    def totals(self) -> Counter:
        """Flat totals of the last op, in seconds and counts (see ``add``)."""
        spans = self.spans
        attributed = attribute_self_time(spans)
        out = Counter({"op.count": 1, "op.wall_s": spans[0][2] - spans[0][1],
                       "trace.uncovered_s": attributed[0]})
        criteria = {f"acceptance.{fn}" for fn in layers.CRITERIA}
        threads = set()
        for index in range(1, len(spans)):
            name, start, end, _, tid, failed = spans[index]
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += attributed[index]
            out[f"{layer}.self_s"] += attributed[index]
            out[f"{layer}.errors"] += failed
            if name in criteria:
                out["acceptance.criteria_span_s"] += end - start
                threads.add(tid)
        for name, n in self.counts.items():
            out[f"{name}.calls"] += n
        for name, n in self.errors.items():
            out[f"{name.split('.', 1)[0]}.errors"] += n
        out["acceptance.threads"] = len(threads)
        for layer, fns in layers.STEP_COUNTED.items():
            for fn in fns:
                steps = sum(self.captured.get(f"{layer}.{fn}", ()))
                out[f"{layer}.{fn}.steps"] = steps
                out[f"{layer}.steps"] += steps
        samples = self.captured.get("current_algebra.charge_algebra", ())
        out["current_algebra.charge_algebra.distinct"] = len(set(samples))
        return out


def add(acc: Counter, totals: Counter) -> None:
    """Add one op's totals into a round's; thread counts take the maximum."""
    for key, value in totals.items():
        if key == "acceptance.threads":
            acc[key] = max(acc[key], value)
        else:
            acc[key] += value


def attribute_self_time(spans: list[list]) -> list[float]:
    """Split the root span's wall time among the spans, as the module doc says."""
    events = []
    for index, rec in enumerate(spans):
        events.append((rec[1], 1, index))
        events.append((rec[2], 0, index))
    events.sort()
    open_by_thread: dict[int, list[int]] = defaultdict(list)
    waiting = Counter()
    attributed = [0.0] * len(spans)
    prev = events[0][0]
    for t, starting, index in events:
        if t > prev:
            tops = [stack[-1] for stack in open_by_thread.values() if stack]
            working = [i for i in tops if not waiting[i]] or tops
            for i in working:
                attributed[i] += (t - prev) / len(working)
            prev = t
        _, _, _, parent, tid, _ = spans[index]
        cross = parent is not None and spans[parent][4] != tid
        if starting:
            open_by_thread[tid].append(index)
            waiting[parent] += cross
        else:
            open_by_thread[tid].remove(index)
            waiting[parent] -= cross
    return attributed


def derive(totals: Counter) -> dict[str, float]:
    """Per-op statistics of one round from the summed totals of its ops.

    Times, calls, steps, errors and bytes become per-op means; each
    function time (``<layer>.<fn>.total_s`` / ``self_s``) also gets a share
    of the op wall, and each layer its self-time share.
    """
    n = totals["op.count"]
    wall = totals["op.wall_s"]
    out: dict[str, float] = {}
    for key, value in totals.items():
        if key.endswith(("_s", ".calls", ".errors", ".steps", "_bytes")):
            out[key] = value / n
        if key.endswith(("total_s", "self_s")) and key.count(".") > 1:
            out[key[:-2] + "_share"] = value / wall
    for layer in layers.LAYERS:
        out[f"{layer}.self_s"] = totals[f"{layer}.self_s"] / n
        out[f"{layer}.share"] = totals[f"{layer}.self_s"] / wall
        out[f"{layer}.errors"] = totals[f"{layer}.errors"] / n
    out["trace.uncovered_share"] = totals["trace.uncovered_s"] / wall
    out["trace.accounted"] = (totals["trace.uncovered_s"] + sum(
        totals[f"{layer}.self_s"] for layer in layers.LAYERS)) / wall
    out["acceptance.threads"] = totals["acceptance.threads"]
    run_all = totals["acceptance.run_all.total_s"]
    out["acceptance.run_all.overlap"] = (totals["acceptance.criteria_span_s"] / run_all
                                         if run_all else 0.0)
    distinct = totals["current_algebra.charge_algebra.distinct"]
    out["current_algebra.charge_algebra.repeat_ratio"] = (
        totals["current_algebra.charge_algebra.calls"] / distinct if distinct else 0.0)
    steps = totals["particle.integrate.steps"]
    out["particle.integrate.us_per_step"] = (
        1e6 * totals["particle.integrate.self_s"] / steps if steps else 0.0)
    steps = totals["matrixmech.steps"]
    spent = sum(totals[f"matrixmech.{fn}.total_s"] for fn in layers.STEP_COUNTED["matrixmech"])
    out["matrixmech.us_per_step"] = 1e6 * spent / steps if steps else 0.0
    return out
