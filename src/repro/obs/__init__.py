"""Observability: match tracing, metrics registry, spans, ops events.

See ``docs/OBSERVABILITY.md`` for the trace event schema, the
reject-reason catalog mapped to paper sections, the metric names, the
request-span model (``repro.obs.spans``), and the ops event log
(``repro.obs.events``).
"""

from repro.obs.events import EventLog
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import Span, SpanBuffer, Tracer
from repro.obs.trace import (
    REASONS,
    MatchTrace,
    describe_box,
)

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REASONS",
    "MatchTrace",
    "Span",
    "SpanBuffer",
    "Tracer",
    "describe_box",
]
