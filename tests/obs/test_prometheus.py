"""Prometheus text exposition and the histogram quantile estimator."""

import threading

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry


def _parse_samples(text: str) -> dict[str, str]:
    """``{sample_name_with_labels: value}`` for non-comment lines."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = value
    return samples


class TestExposition:
    def make_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("hits", "cache hits").inc(3)
        registry.gauge("depth").set(2.5)
        hist = registry.histogram("lat_ms", "latency", buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 5.0, 100.0):
            hist.observe(value)
        return registry

    def test_type_and_help_lines(self):
        text = self.make_registry().to_prometheus()
        assert "# TYPE hits counter" in text
        assert "# HELP hits cache hits" in text
        assert "# TYPE depth gauge" in text
        assert "# TYPE lat_ms histogram" in text
        assert text.endswith("\n")

    def test_scalar_samples(self):
        samples = _parse_samples(self.make_registry().to_prometheus())
        assert samples["hits"] == "3"
        assert samples["depth"] == "2.5"

    def test_histogram_bucket_series(self):
        text = self.make_registry().to_prometheus()
        bucket_lines = [
            line for line in text.splitlines()
            if line.startswith("lat_ms_bucket")
        ]
        # le labels in ascending order, ending with +Inf
        assert bucket_lines == [
            'lat_ms_bucket{le="1"} 1',
            'lat_ms_bucket{le="10"} 3',
            'lat_ms_bucket{le="+Inf"} 4',
        ]
        samples = _parse_samples(text)
        assert samples["lat_ms_sum"] == "107.5"
        assert samples["lat_ms_count"] == "4"
        # +Inf cumulative equals _count: one consistent snapshot
        assert samples['lat_ms_bucket{le="+Inf"}'] == samples["lat_ms_count"]

    def test_cumulative_buckets_are_monotonic(self):
        hist = Histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.2, 0.4, 3.0, 7.0, 7.5, 50.0):
            hist.observe(value)
        cumulative = [count for _, count in hist.expose()[0]]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == hist.count

    def test_help_escaping(self):
        registry = MetricsRegistry()
        registry.counter("weird", "line one\nback\\slash")
        text = registry.to_prometheus()
        assert "# HELP weird line one\\nback\\\\slash" in text
        assert "\nline one" not in text  # the newline never splits a line

    def test_expose_snapshot_consistent_under_writers(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                hist.observe(0.5)
                hist.observe(100.0)

        threads = [threading.Thread(target=writer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                buckets, _, count = hist.expose()
                assert buckets[-1][1] == count
        finally:
            stop.set()
            for thread in threads:
                thread.join()


class TestQuantiles:
    def test_empty_histogram(self):
        hist = Histogram("h")
        assert hist.describe()["p50"] is None
        assert hist.describe()["p99"] is None

    def test_single_observation_reports_itself(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        hist.observe(3.0)
        # clamped to the observed range, not the bucket boundary
        assert hist.describe()["p50"] == 3.0
        assert hist.describe()["p99"] == 3.0

    def test_interpolation_within_bucket(self):
        hist = Histogram("h", buckets=(0.0, 100.0))
        for value in (10.0, 20.0, 30.0, 90.0):
            hist.observe(value)
        # all 4 land in (0, 100]: p50 interpolates halfway up the bucket
        assert hist.describe()["p50"] == pytest.approx(50.0)
        # ...and the top end clamps to the observed range
        assert hist.describe()["p99"] == 90.0

    def test_overflow_bucket_reports_max(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        for _ in range(99):
            hist.observe(500.0)
        assert hist.describe()["p99"] == 500.0

    def test_describe_includes_percentiles(self):
        hist = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in range(1, 101):
            hist.observe(float(value))
        described = hist.describe()
        for key in ("p50", "p95", "p99"):
            assert described[key] is not None
        assert described["p50"] <= described["p95"] <= described["p99"]
        assert described["p99"] <= described["max"] == 100.0

    def test_quantiles_monotone_in_q(self):
        hist = Histogram("h")
        for value in (0.05, 0.3, 0.7, 2.0, 8.0, 40.0, 900.0, 9000.0):
            hist.observe(value)
        described = hist.describe()
        values = [described[key] for key in ("p50", "p95", "p99")]
        assert values == sorted(values)
        assert values[-1] == 9000.0


class TestLabelledCounters:
    def make_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("recomputes", "full recomputations", summary="AST8").inc(2)
        registry.counter("recomputes", "full recomputations", summary="AST2").inc()
        registry.counter("recomputes_other").inc(5)
        return registry

    def test_each_label_set_is_its_own_series(self):
        registry = self.make_registry()
        assert registry.counter("recomputes", summary="AST8").value == 2
        assert registry.series("recomputes", "summary") == {"AST2": 1, "AST8": 2}
        assert registry.series("absent", "summary") == {}

    def test_series_share_one_header(self):
        text = self.make_registry().to_prometheus()
        assert text.count("# TYPE recomputes counter") == 1
        assert text.count("# HELP recomputes full recomputations") == 1
        samples = _parse_samples(text)
        assert samples['recomputes{summary="AST8"}'] == "2"
        assert samples['recomputes{summary="AST2"}'] == "1"
        assert samples["recomputes_other"] == "5"
