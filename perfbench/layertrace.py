"""Span recorder for the traced run.

The program is not instrumented: :class:`Tracer` wraps the public calls of
each layer from here (class attributes and module functions), records one
span per call (name, start, end, id, parent) in memory, and derives each
layer's self time -- a span's duration minus its same-thread child spans.

The virtual kernel runs its processes in lockstep on OS threads.  A
blocking kernel call (``sleep``, a future ``wait``, a channel ``get``, a
semaphore ``acquire`` that has to wait) is a span of its own, so a caller's
self time excludes the time other simulated processes ran while it was
blocked.  ``kernel.run`` is the scheduler's span: its self time is its
duration minus every process's running time, i.e. the scheduler loop plus
the thread handoffs, which is what ``kernel.us_per_block`` divides by the
number of blocking calls.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

_now = time.perf_counter_ns


class Tracer:
    """Installs the wrappers, records spans and counters, removes them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: name -> [count, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._run_id = 0
        self._proc_active_ns = 0
        self._generation = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: int = 0) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][2]
        frame = [name, _now(), next(self._ids), parent, 0]
        stack.append(frame)
        return frame

    def end(self, frame: list, hidden_ns: int = 0) -> None:
        """Close ``frame``; ``hidden_ns`` is time inside it that belongs
        to other threads (the processes a ``kernel.run`` resumed)."""
        t1 = _now()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        name, t0, span_id, parent, child_ns = frame
        dur = t1 - t0
        if stack:
            stack[-1][4] += dur
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child_ns - hidden_ns
        self.spans.append((name, t0, t1, span_id, parent))

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- process activity (for the scheduler's self time) ----------------

    def _mark_active(self) -> None:
        self._local.active_since = (self._generation, _now())

    def _close_active(self) -> None:
        mark = getattr(self._local, "active_since", None)
        self._local.active_since = None
        # A mark left from before the last install() belongs to a thread
        # that resumed while the wrappers were off: its time is unknown.
        if mark is not None and mark[0] == self._generation:
            self._proc_active_ns += _now() - mark[1]

    # -- wrappers --------------------------------------------------------

    def _span_call(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(frame)

        return wrapper

    def _blocking_call(self, fn, will_block):
        """A kernel primitive: a ``kernel.block`` span when it waits."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            if not will_block(obj):
                return fn(obj, *args, **kwargs)
            tracer._close_active()
            frame = tracer.begin("kernel.block")
            try:
                return fn(obj, *args, **kwargs)
            finally:
                tracer.end(frame)
                tracer._mark_active()

        return wrapper

    def _process_body(self, fn):
        tracer = self
        parent = self._run_id

        def body(*args):
            frame = tracer.begin("kernel.proc", parent)
            tracer._mark_active()
            try:
                return fn(*args)
            finally:
                tracer._close_active()
                tracer.end(frame)

        return body

    def _wrap_spawn(self, fn):
        tracer = self

        @functools.wraps(fn)
        def spawn(kernel, body, *args, **kwargs):
            frame = tracer.begin("kernel.spawn")
            try:
                return fn(kernel, tracer._process_body(body), *args,
                          **kwargs)
            finally:
                tracer.end(frame)

        return spawn

    def _wrap_run(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run(kernel, *args, **kwargs):
            frame = tracer.begin("kernel.run")
            outer, tracer._run_id = tracer._run_id, frame[2]
            active0 = tracer._proc_active_ns
            try:
                return fn(kernel, *args, **kwargs)
            finally:
                tracer._run_id = outer
                tracer.end(frame, tracer._proc_active_ns - active0)

        return run

    def _wrap_dumps(self, fn):
        """Counts the bytes pickled on behalf of a copy-semantics copy."""
        tracer = self

        @functools.wraps(fn)
        def dumps(value):
            blob = fn(value)
            stack = tracer._stack()
            if stack and stack[-1][0] == "transport.copy":
                tracer.count("transport.copy_bytes", len(blob))
            return blob

        return dumps

    def _wrap_claim(self, fn):
        tracer = self

        @functools.wraps(fn)
        def claim(cache, token):
            frame = tracer.begin("rmi.claim")
            try:
                is_new, slot = fn(cache, token)
            finally:
                tracer.end(frame)
            if not is_new:
                tracer.count("rmi.dedup_hits")
            return is_new, slot

        return claim

    # -- install / remove --------------------------------------------------

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module_name: str, attr: str, make) -> None:
        """Replace a module function everywhere it was imported by name."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self, checkers=()) -> "Tracer":
        from repro.agents.app_oa import AppOA
        from repro.agents.objects import ObjectHolder
        from repro.analysis import runner
        from repro.kernel import virtual as kv
        from repro.rmi.reliability import ReplayCache, RetryPolicy
        from repro.simnet.world import SimWorld
        from repro.sysmon import sampler
        from repro.transport.rpc import Transport
        from repro.util import serialization

        self._generation += 1
        span = self._span_call
        self._patch_attr(kv.VirtualKernel, "run",
                         self._wrap_run(kv.VirtualKernel.run))
        self._patch_attr(kv.VirtualKernel, "spawn",
                         self._wrap_spawn(kv.VirtualKernel.spawn))
        self._patch_attr(kv.VirtualKernel, "sleep", self._blocking_call(
            kv.VirtualKernel.sleep, lambda kernel: True))
        self._patch_attr(kv.VirtualFuture, "wait", self._blocking_call(
            kv.VirtualFuture.wait, lambda fut: not fut.done()))
        self._patch_attr(kv.VirtualChannel, "get", self._blocking_call(
            kv.VirtualChannel.get, lambda chan: len(chan) == 0))
        self._patch_attr(kv.VirtualSemaphore, "acquire", self._blocking_call(
            kv.VirtualSemaphore.acquire, lambda sem: sem._value <= 0))
        self._patch_attr(Transport, "send",
                         span("transport.send", Transport.send))
        self._patch_attr(Transport, "reliable_rpc",
                         span("rmi.reliable", Transport.reliable_rpc))
        self._patch_attr(RetryPolicy, "backoff",
                         span("rmi.backoff", RetryPolicy.backoff))
        self._patch_attr(ReplayCache, "claim",
                         self._wrap_claim(ReplayCache.claim))
        self._patch_attr(ObjectHolder, "dispatch_invoke",
                         span("agents.dispatch", ObjectHolder.dispatch_invoke))
        self._patch_attr(AppOA, "migrate_object",
                         span("agents.migrate", AppOA.migrate_object))
        self._patch_attr(SimWorld, "compute",
                         span("simnet.compute", SimWorld.compute))
        self._patch_attr(SimWorld, "transfer_delay",
                         span("simnet.transfer", SimWorld.transfer_delay))
        self._patch_function(serialization.__name__, "deep_copy_via_pickle",
                             lambda fn: span("transport.copy", fn))
        self._patch_function(serialization.__name__, "dumps",
                             self._wrap_dumps)
        self._patch_function(sampler.__name__, "sample_dynamic",
                             lambda fn: span("nas.sample", fn))
        self._patch_function(runner.__name__, "load_project",
                             lambda fn: span("analysis.parse", fn))
        for checker in checkers:
            klass = type(checker)
            if "check" in klass.__dict__ and not any(
                owner is klass and attr == "check"
                for owner, attr, _ in self._patches
            ):
                self._patch_attr(klass, "check", span(
                    f"analysis.check.{checker.name}", klass.check))
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def self_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[2]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def total_ns(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[1]

    def write(self, path: str, meta: dict) -> None:
        """Spans as JSON: names are interned, times are microseconds from
        the first span's start."""
        names: dict[str, int] = {}
        base = min((s[1] for s in self.spans), default=0)
        rows = [
            [names.setdefault(name, len(names)),
             round((t0 - base) / 1e3, 3), round((t1 - base) / 1e3, 3),
             span_id, parent]
            for name, t0, t1, span_id, parent in self.spans
        ]
        doc = dict(meta)
        doc["columns"] = ["name", "start_us", "end_us", "id", "parent"]
        doc["names"] = list(names)
        doc["spans"] = rows
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
