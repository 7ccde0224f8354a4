"""Span tracer that wraps public functions of the package's layer modules.

The tracer swaps each public function attribute of a module for a wrapper
that records a span, and puts the originals back on exit.  Calls that a
module makes through its own globals (``fit_peaks`` -> ``evaluate_lines``,
``odmr_contrast`` -> ``steady_state``) and calls that ``cli`` makes through
``module.attr`` therefore show up as nested spans.  A name bound into
another module at import time (``from .spin import ordered_eigensystem``
in ``dipolar``) keeps pointing at the original and is not seen.

Spans stay in memory.  Each holds its name, parent, thread, wall interval,
the thread's own CPU time, the process CPU clock at both ends, and, when
allocation tracking is on, the ``tracemalloc`` peak above its start.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    thread: int
    t0: float
    pcpu0: float
    tcpu0: float
    t1: float = 0.0
    pcpu1: float = 0.0
    tcpu1: float = 0.0
    mem_base: int = 0
    mem_peak: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def thread_cpu(self) -> float:
        return self.tcpu1 - self.tcpu0

    @property
    def alloc_peak(self) -> int:
        return self.mem_peak - self.mem_base


def public_functions(module):
    """Names of the functions a module defines itself and does not hide."""
    return [name for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


class Tracer:
    """Records spans for the functions it wraps while installed.

    ``targets`` maps a module to the function names to wrap; a span is
    named ``<last part of module name>.<function>``.  ``result_attrs``
    maps a span name to a function of the call's return value whose dict
    is stored on the span.
    """

    def __init__(self, targets, track_alloc: bool = False, result_attrs=None):
        self.targets = targets
        self.track_alloc = track_alloc
        self.result_attrs = result_attrs or {}
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._open: set[int] = set()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _sync_peak(self) -> None:
        # tracemalloc keeps one process-wide peak: fold it into every open
        # span before resetting it, so nested spans do not erase the peaks
        # of their parents
        _, peak = tracemalloc.get_traced_memory()
        for idx in self._open:
            span = self.spans[idx]
            span.mem_peak = max(span.mem_peak, peak)
        tracemalloc.reset_peak()

    def _enter(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                # a pool thread: attribute it to the span that is open on
                # the main thread, which submitted the work
                parent = self._main_stack[-1]
            else:
                parent = None
            span = Span(name, parent, threading.get_ident(), time.perf_counter(),
                        time.process_time(), time.thread_time())
            if self.track_alloc:
                self._sync_peak()
                span.mem_base = span.mem_peak = tracemalloc.get_traced_memory()[0]
            self.spans.append(span)
            idx = len(self.spans) - 1
            self._open.add(idx)
        stack.append(idx)
        return idx

    def _exit(self, idx: int, result) -> None:
        span = self.spans[idx]
        span.t1 = time.perf_counter()
        span.pcpu1 = time.process_time()
        span.tcpu1 = time.thread_time()
        self._stack().pop()
        with self._lock:
            if self.track_alloc:
                self._sync_peak()
            self._open.discard(idx)
        extract = self.result_attrs.get(span.name)
        if extract is not None and result is not None:
            span.attrs.update(extract(result))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(idx, result)
        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for module, names in self.targets.items():
                short = module.__name__.rsplit(".", 1)[-1]
                for name in names:
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name, self._wrap(f"{short}.{name}", original))
            if self.track_alloc:
                tracemalloc.start()
            yield self
        finally:
            if self.track_alloc:
                tracemalloc.stop()
            for module, name, original in reversed(saved):
                setattr(module, name, original)


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.t0, span.t1))
    return [span.wall - _union_length(children.get(i, ())) for i, span in enumerate(spans)]


def outermost(spans: list[Span], prefix: str) -> list[Span]:
    """Spans of one layer that are not nested inside another span of it."""
    out = []
    for span in spans:
        if not span.name.startswith(prefix):
            continue
        parent = span.parent
        while parent is not None and not spans[parent].name.startswith(prefix):
            parent = spans[parent].parent
        if parent is None:
            out.append(span)
    return out


def concurrent_cpu(spans: list[Span]) -> float:
    """Process CPU time spent while at least one of the spans was open.

    Spans that overlap in time (one per pool thread) are merged first, so
    CPU burnt by two concurrent calls is counted once, not twice.
    """
    total = 0.0
    group_end = float("-inf")
    group_cpu0 = group_cpu1 = 0.0
    for span in sorted(spans, key=lambda s: s.t0):
        if span.t0 > group_end:
            total += group_cpu1 - group_cpu0
            group_cpu0, group_cpu1, group_end = span.pcpu0, span.pcpu1, span.t1
        elif span.t1 > group_end:
            group_cpu1, group_end = span.pcpu1, span.t1
    return total + group_cpu1 - group_cpu0


def span_tree(spans: list[Span]) -> list[dict]:
    """Spans aggregated by call path: calls, total, self and thread-CPU ms."""
    selfs = self_times(spans)
    paths: list[str] = []
    rows: dict[str, dict] = {}
    for span, own in zip(spans, selfs):
        path = span.name if span.parent is None else f"{paths[span.parent]}/{span.name}"
        paths.append(path)
        row = rows.setdefault(path, {"path": path, "calls": 0, "total_ms": 0.0,
                                     "self_ms": 0.0, "thread_cpu_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += span.wall * 1e3
        row["self_ms"] += own * 1e3
        row["thread_cpu_ms"] += span.thread_cpu * 1e3
    return sorted(rows.values(), key=lambda r: r["path"])
