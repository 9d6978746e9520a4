"""Thread-safe metrics registry — counters, gauges, histograms.

One :class:`MetricsRegistry` per :class:`repro.engine.database.Database`
absorbs every counter surface the system grew piecemeal — the matching
fast path (each rewrite's :class:`repro.rewrite.cache.RewriteStats` is
flushed into it once), the refresh scheduler, the rewrite sandbox —
plus the phase timers (parse/bind/match/compensate/execute) recorded
around query execution. Everything is exposed two ways:

* :meth:`MetricsRegistry.to_json` — a structured dict/JSON dump for
  tooling and the benchmark snapshot (``BENCH_rewrite.json``);
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  (``# TYPE`` headers, ``_count``/``_sum``/``_bucket`` series for
  histograms), so a scraper can be pointed at a dump file or endpoint.

All mutation is lock-protected per metric; creating a metric takes the
registry lock once and returns the same object on every subsequent call
with the same name, so hot paths can cache the metric object and skip
the name lookup entirely.
"""

from __future__ import annotations

import json
import threading
import time

#: default histogram bucket upper bounds, in the unit the caller observes
#: (phase timers observe milliseconds)
DEFAULT_BUCKETS = (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0)


class Counter:
    """A monotonic (but resettable) integer counter."""

    kind = "counter"
    #: the value a new or reset metric holds
    _zero = 0
    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = self._zero
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        self.swap()

    def swap(self) -> dict:
        """Atomically capture-and-zero: returns :meth:`describe` of the
        pre-reset state. Concurrent ``inc`` calls land entirely before
        or entirely after the swap — never half in each epoch."""
        with self._lock:
            snapshot = {"type": self.kind, "value": self._value}
            self._value = self._zero
        return snapshot

    def describe(self) -> dict:
        return {"type": self.kind, "value": self._value}


class Gauge(Counter):
    """A value that can go up and down (queue depths, pending deltas)."""

    kind = "gauge"
    _zero = 0.0
    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """A fixed-bucket histogram tracking count/sum/min/max.

    Buckets are cumulative upper bounds (Prometheus-style, with an
    implicit ``+Inf``). The default boundaries suit millisecond timings.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str, help: str = "", buckets: tuple = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float | None:
        with self._lock:
            return self._sum / self._count if self._count else None

    def reset(self) -> None:
        self.swap()

    def swap(self) -> dict:
        """Atomically capture-and-zero (see :meth:`Counter.swap`)."""
        with self._lock:
            snapshot = self._describe_locked()
            self._counts = [0] * (len(self.buckets) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None
        return snapshot

    def _describe_locked(self) -> dict:
        return {
            "type": self.kind,
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self._sum / self._count if self._count else None,
            "p50": self._quantile_locked(0.50),
            "p95": self._quantile_locked(0.95),
            "p99": self._quantile_locked(0.99),
        }

    def describe(self) -> dict:
        # One lock acquisition for the whole snapshot: reading the
        # fields bare would let a concurrent observe() land between
        # count and sum and hand callers a torn pair.
        with self._lock:
            return self._describe_locked()

    def _quantile_locked(self, q: float) -> float | None:
        if self._count == 0:
            return None
        rank = q * self._count
        running = 0
        previous_bound = 0.0
        for bound, count in zip(self.buckets, self._counts):
            if count:
                if running + count >= rank:
                    # Linear interpolation within the bucket, clamped to
                    # the observed range so a single observation reports
                    # itself rather than a bucket boundary.
                    fraction = (rank - running) / count
                    value = previous_bound + fraction * (bound - previous_bound)
                    return min(max(value, self._min), self._max)
                running += count
            previous_bound = bound
        # Landed in the +Inf bucket: the best bounded answer is the max.
        return self._max

    def expose(self) -> tuple[list[tuple[float, int]], float, int]:
        """One consistent ``(cumulative buckets, sum, count)`` snapshot
        for the Prometheus exporter — taken under a single lock so the
        ``+Inf`` bucket always equals ``_count``."""
        with self._lock:
            counts = list(self._counts)
            total_sum = self._sum
            total_count = self._count
        out = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out, total_sum, total_count


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    ``counter()``/``gauge()``/``histogram()`` are get-or-create: the
    first call registers the metric, later calls return the same object
    (asking for an existing name as a different kind raises, which
    catches naming collisions early).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- registration --------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """``labels`` select one series of a labelled counter: each
        label set is its own :class:`Counter`, registered (and dumped)
        under the Prometheus series name ``name{key="value"}``."""
        if labels:
            pairs = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
            name = f"{name}{{{pairs}}}"
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    # -- access --------------------------------------------------------
    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def series(self, name: str, label: str) -> dict[str, float]:
        """The series of a counter labelled by ``label`` alone, as
        ``{label value: count}``."""
        prefix = f'{name}{{{label}="'
        with self._lock:
            return {
                key[len(prefix):-2]: metric.value
                for key, metric in sorted(self._metrics.items())
                if key.startswith(prefix)
            }

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> dict[str, dict]:
        """Zero every registered metric via snapshot-and-swap, returning
        ``{name: pre-reset describe()}``.

        Each metric is captured and zeroed atomically under its own
        lock, so a writer racing the reset (say, the refresh worker
        mid-apply using ``Counter.inc``) either lands in the returned
        snapshot or in the fresh epoch — an increment is never torn
        across the two the way a naive read-then-clear (or a caller's
        ``get``/``set`` pair straddling the reset) could lose it.
        """
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.swap() for name, metric in metrics}

    # -- timing --------------------------------------------------------
    def observe_ms(self, name: str, started: float) -> float:
        """Record elapsed milliseconds since ``started`` (a
        ``perf_counter`` stamp) into histogram ``name``; returns the
        elapsed milliseconds."""
        elapsed = (time.perf_counter() - started) * 1e3
        self.histogram(name).observe(elapsed)
        return elapsed

    # -- exposition ----------------------------------------------------
    def to_dict(self) -> dict[str, dict]:
        """``{name: {type, value | count/sum/min/max/mean}}``, sorted."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.describe() for name, metric in metrics}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: list[str] = []
        family = None
        for name, metric in metrics:
            # the series of a labelled counter share one HELP/TYPE header
            base = name.partition("{")[0]
            if base != family:
                family = base
                if metric.help:
                    lines.append(f"# HELP {base} {_escape_help(metric.help)}")
                lines.append(f"# TYPE {base} {metric.kind}")
            if isinstance(metric, Histogram):
                buckets, total_sum, total_count = metric.expose()
                for bound, cumulative in buckets:
                    label = "+Inf" if bound == float("inf") else _format(bound)
                    lines.append(f'{name}_bucket{{le="{label}"}} {cumulative}')
                lines.append(f"{name}_sum {_format(total_sum)}")
                lines.append(f"{name}_count {total_count}")
            else:
                lines.append(f"{name} {_format(metric.value)}")
        return "\n".join(lines) + "\n"


def _format(value: float) -> str:
    """Render ints without a trailing ``.0`` (Prometheus-friendly)."""
    if isinstance(value, bool):
        return str(int(value))
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    """Escape a HELP string per the exposition format (0.0.4)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")
