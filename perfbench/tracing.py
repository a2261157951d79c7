"""In-memory spans around bandedvar's public functions, for the traced run.

A hook rebinds a library function at every module attribute that holds it,
so a call is recorded whether the benchmark makes it or another library
function does (``bench`` calling ``rss_surface``, ``simulate_var`` calling
``is_stationary``). Nothing in the library is edited: the rebinding happens
here, only while a traced task runs, and is undone afterwards.

Spans are kept in memory and summarised when the run ends. A span's self
time is its duration minus the part of its interval covered by other spans
of the same thread, so work a worker thread does for a span on the calling
thread is not subtracted from it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


class HookError(RuntimeError):
    """A function the traced run must hook does not exist."""


@dataclass(frozen=True)
class Span:
    name: str
    thread: int
    task: int
    start: float
    end: float
    cpu_s: float  # process CPU time (all threads) spent inside the span


class Recorder:
    """Thread-safe store of finished spans and per-task work counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))  # task -> name -> amount
        self.task = -1  # set by the task loop before each task starts

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount) -> None:
        with self._lock:
            self.counts[self.task][name] += amount


class Hooks:
    """Rebind named library functions to span-recording wrappers.

    ``targets`` maps a span name ``"<module>.<function>"`` (module relative
    to ``package``) to a counter ``(recorder, bound_arguments, result)`` or
    None. A missing target raises :class:`HookError` at install time, so a
    renamed function fails the run instead of silently losing its span.
    """

    def __init__(self, package, recorder: Recorder, targets: dict):
        self.package = package
        self.recorder = recorder
        self.targets = targets
        self._undo = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("hooks already installed")
        prefix = self.package.__name__
        try:
            for name, counter in self.targets.items():
                module_name, attr = name.rsplit(".", 1)
                module = importlib.import_module(f"{prefix}.{module_name}")
                original = getattr(module, attr, None)
                if not callable(original):
                    raise HookError(f"hook target {prefix}.{name} is missing")
                wrapper = _wrap(self.recorder, name, original, counter)
                for mod in _package_modules(prefix):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            mod, key, original = self._undo.pop()
            setattr(mod, key, original)


def _package_modules(prefix: str):
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == prefix or name.startswith(prefix + "."))
    ]


def _wrap(recorder: Recorder, name: str, fn, counter):
    signature = inspect.signature(fn) if counter is not None else None

    def wrapper(*args, **kwargs):
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            recorder.add(
                Span(name, threading.get_ident(), recorder.task, start, end,
                     time.process_time() - cpu0)
            )
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counter(recorder, bound.arguments, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def self_times(spans) -> list:
    """Self time of each span: duration minus the union of the parts of its
    interval that other spans of the same thread cover."""
    out = [0.0] * len(spans)
    by_thread = defaultdict(list)
    for idx, span in enumerate(spans):
        by_thread[span.thread].append(idx)
    for idxs in by_thread.values():
        # Enclosing spans sort before the spans they contain.
        idxs.sort(key=lambda k: (spans[k].start, -spans[k].end))
        for pos, k in enumerate(idxs):
            span = spans[k]
            covered, reach = 0.0, span.start
            for k2 in idxs[pos + 1 :]:
                other = spans[k2]
                if other.start >= span.end:
                    break
                lo, hi = max(other.start, reach), min(other.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[k] = (span.end - span.start) - covered
    return out


def union_length(spans) -> float:
    """Length of the union of the spans' intervals."""
    total, reach = 0.0, float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        lo, hi = max(span.start, reach), span.end
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def task_breakdown(spans, task_thread: int, task_wall: float) -> dict:
    """Per-span calls, busy and self time of one task, and its accounting.

    ``spans_self_s`` sums self time over the spans of the thread that ran the
    task; ``untraced_s`` is the task wall time outside every such span. The
    two add up to ``task_s``. Spans on worker threads run while the calling
    thread waits inside a span, so their self time is reported apart, as
    ``worker_self_s``.
    """
    selfs = self_times(spans)
    per_span = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    spans_self = worker_self = 0.0
    for span, self_s in zip(spans, selfs):
        entry = per_span[span.name]
        entry["calls"] += 1
        entry["busy_s"] += span.end - span.start
        entry["self_s"] += self_s
        if span.thread == task_thread:
            spans_self += self_s
        else:
            worker_self += self_s
    untraced = task_wall - union_length([s for s in spans if s.thread == task_thread])
    return {
        "spans": dict(per_span),
        "task_s": task_wall,
        "spans_self_s": spans_self,
        "untraced_s": untraced,
        "worker_self_s": worker_self,
    }
