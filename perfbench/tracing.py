"""Span tracing for the benchmark's traced run.

The traced run installs class-level wrappers around the public entry points
of each layer (:func:`install`).  A wrapper records one span -- name, start,
end and parent span -- while the tracer is armed, and optionally folds the
layer's own counters into :attr:`Tracer.counts`.  The benchmark arms the
tracer only around its timed calls, so set-up, input generation, oracle
checks and the host reference loop leave no spans.

Spans opened on the session's worker thread have no open span of their own
thread; their parent is the innermost span open on the main thread, which is
blocked waiting for them (the dispatch that caused them).

A layer's self time is its span's duration minus the part of that interval
its child spans cover (:func:`self_times`).  Layers that a later change
removes simply stop producing spans: their metrics then read 0.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from collections import defaultdict

_NAME, _START, _END, _PARENT = range(4)


class Tracer:
    """In-memory span and counter store; records only while ``armed``."""

    def __init__(self) -> None:
        self.armed = False
        self.spans = []
        self.counts = defaultdict(float)
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._gc_start = None

    def begin(self, name: str) -> int:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if ident != self._main and main else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- runtime (garbage collector) ----------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter() if self.armed else None
        elif self._gc_start is not None:
            self.counts["runtime.gc_pause_s"] += time.perf_counter() - self._gc_start
            if info.get("generation") == 2:
                self.counts["runtime.gc_gen2_collections"] += 1
            self._gc_start = None

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")


def self_times(spans) -> dict:
    """Sum, per span name, of duration minus the time covered by child spans."""
    children = defaultdict(list)
    for span in spans:
        if span[_PARENT] >= 0:
            children[span[_PARENT]].append((span[_START], span[_END]))
    totals = defaultdict(float)
    for index, span in enumerate(spans):
        start, end = span[_START], span[_END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        totals[span[_NAME]] += (end - start) - covered
    return totals


def _wrap(tracer, owner, attr, span, before=None, after=None, suppress=False):
    """Replace ``owner.attr`` with a span-recording wrapper (if it exists).

    ``before(args)`` runs ahead of the span and its return value reaches
    ``after(args, result, state)``, which runs after the span closes: counter
    reads stay out of the measured interval.  ``suppress`` records no spans
    nested inside this one (used for classifier builds, whose thousands of
    rule installs would otherwise land in the update-engine metrics).
    """
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return
    binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    function = raw.__func__ if binder else raw

    def wrapper(*args, **kwargs):
        if not tracer.armed:
            return function(*args, **kwargs)
        state = before(args) if before else None
        index = tracer.begin(span)
        if suppress:
            tracer.armed = False
        try:
            result = function(*args, **kwargs)
        finally:
            if suppress:
                tracer.armed = True
            tracer.end(index)
        if after:
            after(args, result, state)
        return result

    wrapper.__wrapped__ = function
    setattr(owner, attr, binder(wrapper) if binder else wrapper)


_FASTPATH_COUNTERS = (
    "header_hits", "header_misses", "field_hits", "field_misses",
    "result_hits", "result_misses", "combiner_hits", "combiner_misses",
    "epoch_flushes",
)
_FLOWCACHE_COUNTERS = ("lookups", "hits")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every traced layer (traced run only)."""
    from repro.analysis.depindex import DependencyIndex
    from repro.api.control import Txn
    from repro.controller import fabric
    from repro.core.classifier import ConfigurableClassifier
    from repro.core.label_combiner import LabelCombiner
    from repro.core.result import Classification
    from repro.core.update_engine import UpdateEngine
    from repro.fields.vectorized import BatchWalker
    from repro.hardware.rule_filter import RuleFilterMemory
    from repro.perf.fastpath import FastPathAccelerator
    from repro.perf.flowcache import FlowCache
    from repro.perf.parallel import ParallelSession
    from repro.perf.transport import PackedChunk

    count = tracer.count

    def counter_delta(prefix, names):
        def before(args):
            return [getattr(args[0], name, 0) for name in names]

        def after(args, result, state):
            for name, old in zip(names, state):
                count(f"{prefix}.{name}", getattr(args[0], name, 0) - old)

        return before, after

    _wrap(tracer, BatchWalker, "resolve", "fields.resolve",
          after=lambda args, result, state: count("fields.values_resolved", len(args[1])))
    _wrap(tracer, LabelCombiner, "combine_with_cache", "core.label_combiner.combine",
          after=lambda args, result, state: count("core.label_combiner.calls"))
    _wrap(tracer, RuleFilterMemory, "lookup_batch", "hardware.rule_filter.probe",
          after=lambda args, result, state: count("hardware.rule_filter.keys_probed", len(result)))
    _wrap(tracer, Classification, "from_lookup", "core.result.assemble",
          after=lambda args, result, state: count("core.result.records_built"))

    fastpath_before, fastpath_delta = counter_delta("perf.fastpath", _FASTPATH_COUNTERS)

    def fastpath_after(args, result, state):
        fastpath_delta(args, result, state)
        count("perf.fastpath.packets", len(result))

    _wrap(tracer, FastPathAccelerator, "classify_batch", "perf.fastpath.classify_batch",
          before=fastpath_before, after=fastpath_after)
    _wrap(tracer, FastPathAccelerator, "note_commit", "perf.fastpath.note_commit",
          *counter_delta("perf.fastpath", ("scoped_entries_dropped",)))
    # Dependency registrations have no public counter that survives the
    # overflow reset, so the registration hook itself is counted.
    original_note = FastPathAccelerator.__dict__.get("_note_registrations")
    if original_note is not None:
        def note_registrations(self, amount):
            if tracer.armed:
                count("perf.fastpath.dep_registrations", amount)
            return original_note(self, amount)

        FastPathAccelerator._note_registrations = note_registrations

    flow_before, flow_delta = counter_delta("perf.flowcache", _FLOWCACHE_COUNTERS)

    def flowcache_after(args, result, state):
        flow_delta(args, result, state)
        count("perf.flowcache.packets", len(result))
        tracer.counts["perf.flowcache.entries"] = len(args[0])

    _wrap(tracer, FlowCache, "classify_batch", "perf.flowcache.classify_batch",
          before=flow_before, after=flowcache_after)
    _wrap(tracer, FlowCache, "note_commit", "perf.flowcache.note_commit",
          *counter_delta("perf.flowcache", ("surgical_drops",)))

    _wrap(tracer, PackedChunk, "headers", "perf.transport.unpack",
          after=lambda args, result, state: count("perf.transport.packets", len(result)))
    _wrap(tracer, ParallelSession, "feed", "perf.parallel.feed",
          after=lambda args, result, state: count("perf.parallel.packets", len(result)))
    _wrap(tracer, ParallelSession, "__init__", "perf.parallel.open",
          after=lambda args, result, state: count("perf.parallel.sessions_opened"))

    _wrap(tracer, Txn, "commit", "api.control.commit",
          before=lambda args: len(args[0]),
          after=lambda args, result, ops: (count("api.control.commits"),
                                           count("api.control.ops", ops)))
    _wrap(tracer, UpdateEngine, "insert_rule", "core.update_engine.insert")
    _wrap(tracer, UpdateEngine, "delete_rule", "core.update_engine.delete")
    _wrap(tracer, DependencyIndex, "add_rule", "analysis.depindex.update")
    _wrap(tracer, DependencyIndex, "remove_rule", "analysis.depindex.update")

    _wrap(tracer, fabric, "plan_placement", "controller.fabric.plan")
    _wrap(tracer, fabric, "commit_switch_deltas", "controller.fabric.switch_commit")
    _wrap(tracer, fabric.FabricController, "serve", "controller.fabric.serve",
          after=lambda args, result, state: (
              count("controller.fabric.packets", result.packets),
              count("controller.fabric.hop_lookups", result.hop_lookups)))

    _wrap(tracer, ConfigurableClassifier, "from_ruleset", "core.classifier.build",
          suppress=True)
    tracer.watch_gc()


def traced_iter(tracer: Tracer, iterator, span: str):
    """Yield from ``iterator``, recording each ``next()`` as one span."""
    while True:
        index = tracer.begin(span) if tracer.armed else None
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            if index is not None:
                tracer.end(index)
        yield item
