"""In-memory span recorder and the out-of-program wrappers that feed it.

The benchmark traces the pipeline from the outside: it replaces the
public functions of each ``repro.*`` layer with wrappers that record one
span per call, then puts the originals back. A span carries its name, the
span that was open on the same thread when it started (its parent), its
wall interval and the thread CPU time it consumed. Spans stay in memory
and are written once, after the traced pass (the span-tree model of
Sigelman et al., "Dapper", 2010).

Only synchronous functions are wrapped, so a span can never be suspended
mid-call by the event loop, and a per-thread stack of open spans gives
the right parent even for the serving layer's coroutines. Spans recorded
in a worker thread are roots of that thread's tree.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable


class Span:
    """One recorded call."""

    __slots__ = ("id", "name", "parent", "thread", "start", "end", "cpu", "attrs")

    def __init__(self, id, name, parent, thread, start, end, cpu, attrs):
        self.id = id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = end
        self.cpu = cpu
        self.attrs = attrs

    @property
    def wall(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.spans: list[Span] = []
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs, measure=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``;
        ``measure(args, kwargs, result)`` may return attributes to store."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        cpu0 = self._cpu_clock()
        t0 = self._clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = self._clock()
            cpu1 = self._cpu_clock()
            stack.pop()
        attrs = measure(args, kwargs, result) if measure is not None else None
        # list.append is atomic under the interpreter lock.
        self.spans.append(
            Span(span_id, name, parent, threading.get_ident(), t0, t1, cpu1 - cpu0, attrs)
        )
        return result

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda s: s.id):
                out.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its wall time minus the part of its interval that its
    child spans cover (children may overlap, so their union is removed)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.wall - covered
    return out


class Patcher:
    """Swaps wrappers in where callers look functions up, and restores
    the originals afterwards.

    A module function is replaced in its own module and in every loaded
    ``repro`` module that imported it by name (``sz_lr`` and ``base`` bind
    the lossless functions that way). A method is replaced on its class.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _wrapper(self, original, name, measure):
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, measure)

        return traced

    def swap(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` by ``replacement`` until :meth:`restore`."""
        # vars(), not getattr(): a classmethod must be saved as the
        # descriptor, not as a method bound to its class.
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def function(self, module, attr: str, name: str, measure=None) -> None:
        original = getattr(module, attr)
        traced = self._wrapper(original, name, measure)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name.split(".")[0] == "repro" and vars(mod).get(attr) is original:
                self.swap(mod, attr, traced)

    def method(self, cls, attr: str, name: str, measure=None) -> None:
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            traced = classmethod(self._wrapper(original.__func__, name, measure))
        else:
            traced = self._wrapper(original, name, measure)
        self.swap(cls, attr, traced)

    def patched(self) -> list[tuple[object, str]]:
        """Every (owner, attribute) currently replaced."""
        return [(owner, attr) for owner, attr, _ in self._saved]

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
