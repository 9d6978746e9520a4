"""Span-based request tracing across client, server, journal, and standby.

One client request crosses the retry loop, the server's session thread,
governor admission, rewrite, columnar execution, the WAL group commit,
and (for mutations) the standby's apply thread. The match tracer
(:mod:`repro.obs.trace`) explains *one* phase of that journey in depth;
this module strings every hop of it onto a single ``trace_id`` with
per-hop timing:

* A **trace** is born in :class:`~repro.server.client.ReproClient` (or
  wherever the caller mints one) subject to **head sampling**: the coin
  is flipped once, at the root, and every downstream hop inherits the
  decision. Sampled requests carry ``{"trace": {"trace_id", "parent"}}``
  on the wire; unsampled requests carry nothing and cost nothing.
* A **span** is one timed hop — ``client.attempt``, ``server.request``,
  ``admission.wait``, ``db.rewrite``, ``wal.fsync``, ``standby.apply``
  — with a ``span_id``, its parent's id, wall-clock start, duration in
  milliseconds, and free-form attributes (the rewrite span carries the
  statement's :class:`~repro.obs.trace.MatchTrace` as a dict).
* Finished spans land in a bounded thread-safe ring
  (:class:`SpanBuffer`), dumpable as plain JSON or as Chrome
  ``trace_event`` objects (load the dump in ``chrome://tracing`` /
  Perfetto).

**Zero cost when off.** Mirroring :mod:`repro.testing.faults`, the
only global state is the module-level :data:`TRACER` slot. Every instrumentation site guards on it first::

    t = spans.TRACER
    if t is not None: ...

and the convenience helpers (:func:`child`, :func:`record`,
:func:`active`) return the shared :data:`NOOP` singleton / ``None``
after that same one-global-load test, so the disabled path allocates
nothing. ``SET TRACE SAMPLE <rate>|OFF`` (see
:func:`set_sample_rate`) is the runtime switch.

Span context propagates through a per-thread slot: entering a span
(``with span:``) makes it the parent for :func:`child`/:func:`record`
on that thread, and :func:`attach` re-enters an existing span on a
different thread (the server creates the request span on the event
loop and attaches it on the worker thread that executes the request).
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import deque
from random import Random

_local = threading.local()


class _NoopSpan:
    """The disabled path: one shared, allocation-free stand-in that
    accepts every :class:`Span` method and is falsy (``if span:`` tells
    real from no-op)."""

    __slots__ = ()
    trace_id = None
    span_id = None

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, key, value) -> "_NoopSpan":  # noqa: ARG002
        return self

    def child(self, name, **attrs) -> "_NoopSpan":  # noqa: ARG002
        return self

    def record(self, name, started_pc, **attrs) -> None:  # noqa: ARG002
        return None

    def finish(self, **attrs) -> None:  # noqa: ARG002
        return None

    def context(self) -> None:
        return None


NOOP = _NoopSpan()


def _span_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed hop of a trace. Truthful (``bool(span)`` is True),
    context-managed (entering publishes it as this thread's parent,
    exiting finishes it), and cheap: finishing renders the span to a
    plain dict appended to the tracer's ring."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "service",
                 "start_ts", "_start_pc", "attrs", "_buffer", "_prev",
                 "_done")

    def __init__(self, buffer: "SpanBuffer", name: str, trace_id: str,
                 parent_id: str | None, service: str, attrs: dict):
        self.trace_id = trace_id
        self.span_id = _span_id()
        self.parent_id = parent_id
        self.name = name
        self.service = service
        self.start_ts = time.time()
        self._start_pc = time.perf_counter()
        self.attrs = attrs
        self._buffer = buffer
        self._prev = None
        self._done = False

    # ------------------------------------------------------------------
    def set(self, key: str, value) -> "Span":
        self.attrs[key] = value
        return self

    def child(self, name: str, **attrs) -> "Span":
        """A new live span under this one (caller finishes it)."""
        return Span(self._buffer, name, self.trace_id, self.span_id,
                    self.service, attrs)

    def record(self, name: str, started_pc: float, **attrs) -> None:
        """A retroactively-completed child covering ``[started_pc,
        now]`` (``started_pc`` is a ``perf_counter`` stamp) — the shape
        for instrumenting an existing timed block without restructuring
        it."""
        duration_ms = (time.perf_counter() - started_pc) * 1e3
        self._buffer.append({
            "trace_id": self.trace_id,
            "span_id": _span_id(),
            "parent_id": self.span_id,
            "name": name,
            "service": self.service,
            "start_ts": time.time() - duration_ms / 1e3,
            "duration_ms": duration_ms,
            "attrs": attrs,
        })

    def finish(self, **attrs) -> None:
        """Close the span and append it to the ring (idempotent)."""
        if self._done:
            return
        self._done = True
        if attrs:
            self.attrs.update(attrs)
        self._buffer.append({
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "service": self.service,
            "start_ts": self.start_ts,
            "duration_ms": (time.perf_counter() - self._start_pc) * 1e3,
            "attrs": self.attrs,
        })

    def context(self) -> dict:
        """The wire representation a downstream hop continues from."""
        return {"trace_id": self.trace_id, "parent": self.span_id}

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._prev = getattr(_local, "span", None)
        _local.span = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _local.span = self._prev
        if exc is not None and "error" not in self.attrs:
            self.attrs["error"] = f"{type(exc).__name__}: {exc}"
        self.finish()
        return False


class _Attach:
    """Re-enter an existing span on the current thread WITHOUT finishing
    it on exit (the creator owns the span's lifetime)."""

    __slots__ = ("_span", "_prev")

    def __init__(self, span: Span):
        self._span = span
        self._prev = None

    def __enter__(self) -> Span:
        self._prev = getattr(_local, "span", None)
        _local.span = self._span
        return self._span

    def __exit__(self, *exc_info) -> bool:
        _local.span = self._prev
        return False


class SpanBuffer:
    """A bounded, thread-safe ring of finished spans (plain dicts)."""

    def __init__(self, capacity: int = 4096):
        self._lock = threading.Lock()
        self._spans: deque[dict] = deque(maxlen=capacity)
        self.capacity = capacity
        #: spans evicted by the ring bound (appended past capacity)
        self.dropped = 0

    def append(self, entry: dict) -> None:
        with self._lock:
            if len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def snapshot(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def for_trace(self, trace_id: str) -> list[dict]:
        return [s for s in self.snapshot() if s["trace_id"] == trace_id]

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, default=str)

    def to_chrome(self) -> list[dict]:
        """Chrome ``trace_event`` complete (``"ph": "X"``) events —
        ``json.dump`` the list and load it in Perfetto/chrome://tracing.
        Spans of one trace share a ``pid`` slot so they nest visually."""
        events = []
        pids: dict[str, int] = {}
        for span in self.snapshot():
            pid = pids.setdefault(span["trace_id"], len(pids) + 1)
            events.append({
                "name": span["name"],
                "cat": span["service"],
                "ph": "X",
                "ts": span["start_ts"] * 1e6,
                "dur": span["duration_ms"] * 1e3,
                "pid": pid,
                "tid": 1,
                "args": {
                    "trace_id": span["trace_id"],
                    "span_id": span["span_id"],
                    "parent_id": span["parent_id"],
                    **span["attrs"],
                },
            })
        return events


class Tracer:
    """Mints sampled trace roots and continues inbound trace contexts.

    ``sample_rate`` is the head-sampling probability for *new* traces
    (1.0 = everything, the default); continuations always record — the
    upstream sampler already decided, and unsampled requests ship no
    context to continue. ``seed`` pins the sampling stream for
    deterministic tests."""

    def __init__(self, sample_rate: float = 1.0, capacity: int = 4096,
                 service: str = "repro", seed: int | None = None):
        self.sample_rate = float(sample_rate)
        self.service = service
        self.buffer = SpanBuffer(capacity)
        self._rng = Random(seed)
        self._rng_lock = threading.Lock()
        #: sampled-in trace roots minted
        self.started = 0
        #: head-sampled-away trace roots (no spans recorded)
        self.skipped = 0

    # ------------------------------------------------------------------
    def sample(self) -> bool:
        rate = self.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        with self._rng_lock:
            return self._rng.random() < rate

    def start_trace(self, name: str, **attrs):
        """A fresh trace root, subject to head sampling (:data:`NOOP`
        when the coin says no — the whole request then costs nothing)."""
        if not self.sample():
            self.skipped += 1
            return NOOP
        self.started += 1
        return Span(self.buffer, name, uuid.uuid4().hex, None,
                    self.service, attrs)

    def continue_trace(self, name: str, context, **attrs):
        """Continue a trace from a wire ``{"trace_id", "parent"}``
        context (:data:`NOOP` when the request carried none)."""
        if not isinstance(context, dict):
            return NOOP
        trace_id = context.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return NOOP
        parent = context.get("parent")
        if not isinstance(parent, str):
            parent = None
        return Span(self.buffer, name, trace_id, parent, self.service,
                    attrs)

    def root_for(self, name: str, trace_id: str | None = None, **attrs):
        """A detached span root: joined to ``trace_id`` when the origin
        is known (standby apply with a shipped trace id), otherwise a
        fresh sampled root (refresh-scheduler work, untraced records)."""
        if trace_id:
            return Span(self.buffer, name, trace_id, None, self.service,
                        attrs)
        return self.start_trace(name, **attrs)


# ----------------------------------------------------------------------
#: The installed tracer, or None (tracing off — the default). Every
#: instrumentation site reads this slot exactly once per entry.
TRACER: Tracer | None = None


def install(sample_rate: float = 1.0, capacity: int = 4096,
            service: str = "repro", seed: int | None = None) -> Tracer:
    """Install a fresh process tracer (replacing any prior one)."""
    global TRACER
    TRACER = Tracer(sample_rate, capacity, service, seed)
    return TRACER


def uninstall() -> None:
    """Disable tracing; the slot goes back to None (no-op hot path)."""
    global TRACER
    TRACER = None


def set_sample_rate(rate: float | None) -> Tracer | None:
    """``SET TRACE SAMPLE <rate>|OFF``: ``None``/0 uninstalls the
    tracer; a rate installs one (or retunes the live one, keeping its
    buffered spans)."""
    global TRACER
    if rate is None or rate <= 0.0:
        TRACER = None
        return None
    if TRACER is None:
        TRACER = Tracer(sample_rate=rate)
    else:
        TRACER.sample_rate = float(rate)
    return TRACER


def active() -> Span | None:
    """The innermost span on this thread, or None when tracing is off
    or this request was not sampled."""
    if TRACER is None:
        return None
    return getattr(_local, "span", None)


def current_trace_id() -> str | None:
    """The active trace id on this thread (event log, EXPLAIN ANALYZE)."""
    if TRACER is None:
        return None
    span = getattr(_local, "span", None)
    return span.trace_id if span is not None else None


def child(name: str, **attrs):
    """A context-managed child of this thread's active span
    (:data:`NOOP` when there is none)."""
    if TRACER is None:
        return NOOP
    parent = getattr(_local, "span", None)
    if parent is None:
        return NOOP
    return parent.child(name, **attrs)


def record(name: str, started_pc: float, **attrs) -> None:
    """Append a completed child span covering ``[started_pc, now]``
    under this thread's active span; no-op otherwise."""
    if TRACER is None:
        return
    parent = getattr(_local, "span", None)
    if parent is None:
        return
    parent.record(name, started_pc, **attrs)


def attach(span):
    """Context manager publishing ``span`` as the current thread's
    parent without finishing it on exit (cross-thread hand-off)."""
    if span is None or span is NOOP:
        return NOOP
    return _Attach(span)
