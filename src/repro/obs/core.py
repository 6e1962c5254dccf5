"""The instrumentation core: metric registry, spans, cross-process stitching.

Everything here is stdlib-only and **disabled by default**.  The single
module-level flag (:func:`enable` / :func:`disable` / :func:`enabled`)
guards a no-op fast path: with observability off, :func:`span` returns a
shared inert context manager without allocating, and the metric helpers
(:func:`inc`, :func:`observe`, :func:`set_gauge`) return before touching
the registry.  The strict/refinement hot loops this library spent PRs
4-9 speeding up therefore pay one predicate per *operation boundary*
(a query, a sim run, a chunk) and nothing per round or per message —
per-round accounting is the job of :class:`repro.sim.trace.Tracer`,
whose summary is folded into the enclosing span's attributes instead.

Spans
-----
:func:`span` is a context manager producing one *event dict* on exit:
JSON-safe, so events cross the shard ``Pipe`` and the engine's task
envelopes as-is.  Nesting is tracked per thread; cross-process edges are
explicit: the parent calls :func:`export_context` and ships the small
dict to the worker, the worker brackets its work in
:func:`collect_remote` and ships the captured events back, the parent
calls :func:`ingest`.  Within a process, a thread working on another's
behalf joins its trace through :func:`attach`.  Span ids embed the pid,
and timestamps come from ``time.monotonic_ns()`` — CLOCK_MONOTONIC is
system-wide on Linux, so parent and worker clocks agree and the
stitched trace orders correctly across process boundaries.

Metrics
-------
:class:`Registry` holds counters, gauges and histograms keyed by
``(name, labels-tuple)``.  Writes are a dict update under a lock cheap
enough to be irrelevant next to any operation worth measuring (the hot
loops never write metrics; boundaries do).  Histograms store count /
sum / fixed log-spaced buckets, enough for the Prometheus exposition
and the warehouse ``telemetry`` table.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Registry",
    "SpanHandle",
    "attach",
    "collect_remote",
    "disable",
    "drain_events",
    "enable",
    "enabled",
    "export_context",
    "ingest",
    "inc",
    "observe",
    "registry",
    "reset",
    "set_gauge",
    "span",
    "take_snapshot",
    "trace_events",
]

# ---------------------------------------------------------------------------
# the one flag

#: ``REPRO_OBS=1`` in the environment turns recording on at import time —
#: the hook for instrumenting a process whose entry point you do not
#: control (a shard worker inherits the parent's environment, so a
#: service started under ``REPRO_OBS=1`` records everywhere).
_ENABLED = os.environ.get("REPRO_OBS", "") not in ("", "0")


def enabled() -> bool:
    """True when instrumentation is recording."""
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


# ---------------------------------------------------------------------------
# metric registry

#: Log-spaced latency buckets (seconds): 100us .. ~100s, factor ~3.16.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.000316,
    0.001,
    0.00316,
    0.01,
    0.0316,
    0.1,
    0.316,
    1.0,
    3.16,
    10.0,
    31.6,
    100.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Registry:
    """Counters, gauges and histograms keyed by ``(name, label-tuple)``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, _LabelKey], float] = {}
        self._gauges: Dict[Tuple[str, _LabelKey], float] = {}
        # name -> {label key -> [count, sum, bucket counts]}
        self._histograms: Dict[
            Tuple[str, _LabelKey], List[Any]
        ] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}
        self.writes = 0

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value
            self.writes += 1

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = float(value)
            self.writes += 1

    def observe(
        self,
        name: str,
        value: float,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            cell = self._histograms.get(key)
            if cell is None:
                self._buckets.setdefault(name, buckets)
                cell = [0, 0.0, [0] * (len(self._buckets[name]) + 1)]
                self._histograms[key] = cell
            cell[0] += 1
            cell[1] += value
            edges = self._buckets[name]
            cell[2][bisect.bisect_left(edges, value)] += 1
            self.writes += 1

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe copy of every metric, for exporters and tests."""
        with self._lock:
            counters = [
                {"name": n, "labels": dict(lk), "value": v}
                for (n, lk), v in sorted(self._counters.items())
            ]
            gauges = [
                {"name": n, "labels": dict(lk), "value": v}
                for (n, lk), v in sorted(self._gauges.items())
            ]
            histograms = [
                {
                    "name": n,
                    "labels": dict(lk),
                    "count": cell[0],
                    "sum": cell[1],
                    "buckets": list(self._buckets[n]),
                    "bucket_counts": list(cell[2]),
                }
                for (n, lk), cell in sorted(self._histograms.items())
            ]
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._buckets.clear()
            self.writes = 0


#: The process-global registry all helpers write into.
registry = Registry()


def inc(name: str, value: float = 1.0, **labels: Any) -> None:
    if not _ENABLED:
        return
    registry.inc(name, value, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    if not _ENABLED:
        return
    registry.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    if not _ENABLED:
        return
    registry.observe(name, value, **labels)


# ---------------------------------------------------------------------------
# spans

#: Bounded event buffer: old events fall off rather than grow unbounded
#: in a long-lived service process.
TRACE_BUFFER_CAP = 10000

_events: "deque[Dict[str, Any]]" = deque(maxlen=TRACE_BUFFER_CAP)
_events_lock = threading.Lock()
_span_counter = itertools.count(1)
_tls = threading.local()


def _new_id() -> str:
    # pid-qualified so ids minted in forked shard/engine workers can
    # never collide with the parent's when the events are stitched
    return f"{os.getpid():x}-{next(_span_counter):x}"


def _stack() -> List[Dict[str, Any]]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


class SpanHandle:
    """The live side of one span: attribute bag plus identity.

    ``recording`` is True on real spans and False on the shared no-op
    instance, so callers can skip building expensive attributes::

        with obs.span("sim.run") as sp:
            ...
            if sp.recording:
                sp.set("tracer", tracer.summary())
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs", "_t0")

    recording = True

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._t0 = 0

    def set(self, key: str, value: Any) -> None:
        self.attrs[key] = value


class _NoopSpan:
    """Shared inert span: no allocation, no state, absorbs all calls."""

    __slots__ = ()

    recording = False
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    attrs: Dict[str, Any] = {}

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    __slots__ = ("handle",)

    def __init__(self, handle: SpanHandle) -> None:
        self.handle = handle

    def __enter__(self) -> SpanHandle:
        h = self.handle
        _stack().append({"trace_id": h.trace_id, "span_id": h.span_id})
        h._t0 = time.monotonic_ns()
        return h

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        end = time.monotonic_ns()
        h = self.handle
        stack = _stack()
        if stack and stack[-1]["span_id"] == h.span_id:
            stack.pop()
        event = {
            "name": h.name,
            "trace_id": h.trace_id,
            "span_id": h.span_id,
            "parent_id": h.parent_id,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "start_us": h._t0 // 1000,
            "dur_us": max(0, (end - h._t0) // 1000),
        }
        if h.attrs:
            event["attrs"] = h.attrs
        if exc_type is not None:
            event["error"] = exc_type.__name__
        with _events_lock:
            _events.append(event)


def span(name: str, **attrs: Any):
    """Context manager timing one named operation.

    When obs is disabled this returns a shared no-op object — no
    allocation, no clock read.  When enabled, entering pushes the span
    onto the calling thread's stack (children nest under it) and exiting
    appends one JSON-safe event dict to the process trace buffer.
    """
    if not _ENABLED:
        return _NOOP_SPAN
    stack = _stack()
    if stack:
        top = stack[-1]
        trace_id = top["trace_id"]
        parent_id: Optional[str] = top["span_id"]
    else:
        remote = getattr(_tls, "remote_parent", None)
        if remote is not None:
            trace_id = remote["trace_id"]
            parent_id = remote["span_id"]
        else:
            trace_id = _new_id()
            parent_id = None
    return _LiveSpan(SpanHandle(name, trace_id, _new_id(), parent_id, attrs))


def current_context() -> Optional[Dict[str, str]]:
    """The innermost live span's ``{trace_id, span_id}``, or None."""
    stack = getattr(_tls, "stack", None)
    if stack:
        return dict(stack[-1])
    return getattr(_tls, "remote_parent", None)


def export_context() -> Optional[Dict[str, str]]:
    """Span context to ship across a process boundary (None when off)."""
    if not _ENABLED:
        return None
    return current_context()


@contextlib.contextmanager
def attach(ctx: Optional[Dict[str, str]]) -> Iterator[None]:
    """Parent this thread's root spans to ``ctx``, an
    :func:`export_context` dict taken on another thread, until exit:
    work a thread does on another's behalf joins that one's trace.
    Inert for None, which :func:`export_context` returns while off."""
    if ctx is None:
        yield
        return
    previous = getattr(_tls, "remote_parent", None)
    _tls.remote_parent = ctx
    try:
        yield
    finally:
        _tls.remote_parent = previous


def trace_events() -> List[Dict[str, Any]]:
    """A copy of the buffered trace events, oldest first."""
    with _events_lock:
        return list(_events)


def drain_events() -> List[Dict[str, Any]]:
    """Return the buffered events and empty the buffer."""
    with _events_lock:
        out = list(_events)
        _events.clear()
    return out


def ingest(events: Optional[List[Dict[str, Any]]]) -> None:
    """Append events captured in another process to this buffer."""
    if not events:
        return
    with _events_lock:
        _events.extend(events)


class collect_remote:
    """Worker-side bracket for work done on behalf of a remote parent.

    ``ctx`` is the parent's :func:`export_context` dict (or None, in
    which case the bracket is inert and ``.events`` stays empty).  On
    entry obs is enabled and a fresh buffer swapped in; spans opened
    inside parent to ``ctx``.  On exit the previous state is restored —
    whether or not the worker inherited an enabled flag or buffered
    events via fork — and the captured events are exposed as
    ``.events``, ready to ship back verbatim::

        with obs.collect_remote(ctx) as collected:
            record = compute(...)
        reply = ("ok", record, collected.events)
    """

    def __init__(self, ctx: Optional[Dict[str, str]]) -> None:
        self._ctx = ctx
        self.events: List[Dict[str, Any]] = []
        self._saved: Optional[Tuple[bool, List[Dict[str, Any]], Any]] = None

    def __enter__(self) -> "collect_remote":
        if self._ctx is None:
            return self
        global _ENABLED
        with _events_lock:
            inherited = list(_events)
            _events.clear()
        self._saved = (
            _ENABLED,
            inherited,
            getattr(_tls, "remote_parent", None),
        )
        _ENABLED = True
        _tls.remote_parent = dict(self._ctx)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._saved is None:
            return
        global _ENABLED
        was_enabled, inherited, prev_remote = self._saved
        with _events_lock:
            self.events = list(_events)
            _events.clear()
            _events.extend(inherited)
        _ENABLED = was_enabled
        _tls.remote_parent = prev_remote


def take_snapshot() -> Dict[str, Any]:
    """Registry snapshot plus trace buffer size — the `/metrics` payload."""
    snap = registry.snapshot()
    snap["trace_events_buffered"] = len(_events)
    snap["enabled"] = _ENABLED
    return snap


def reset() -> None:
    """Disable, clear the registry, trace buffer and thread-local state.

    Test isolation helper; not used on any production path.
    """
    global _ENABLED
    _ENABLED = False
    registry.clear()
    with _events_lock:
        _events.clear()
    _tls.stack = []
    _tls.remote_parent = None
