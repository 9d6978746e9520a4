"""The structured ops event log: ring, bounded file, trace stamping,
and the subsystem emitters (breaker, quarantine)."""

import json

import pytest

from repro.cli import demo_database
from repro.governor.breaker import CircuitBreaker
from repro.obs import events, spans
from repro.obs.events import EventLog


@pytest.fixture(autouse=True)
def clean_obs():
    spans.uninstall()
    events.LOG.clear()
    yield
    spans.uninstall()
    events.LOG.clear()


class TestEventLog:
    def test_ring_is_bounded_and_tail_is_oldest_first(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("tick", n=i)
        assert len(log) == 3
        assert log.emitted == 5
        assert [e["n"] for e in log.tail()] == [2, 3, 4]
        assert [e["n"] for e in log.tail(2)] == [3, 4]

    def test_entry_shape(self):
        log = EventLog()
        entry = log.emit("server.start", host="h", port=1)
        assert entry["event"] == "server.start"
        assert entry["host"] == "h"
        assert isinstance(entry["ts"], float)
        assert "trace_id" not in entry  # no active span

    def test_trace_id_stamped_from_active_span(self):
        log = EventLog()
        tracer = spans.install()
        with tracer.start_trace("req") as root:
            entry = log.emit("conn.open", client="c1")
        assert entry["trace_id"] == root.trace_id
        explicit = log.emit("conn.close", trace_id="override")
        assert explicit["trace_id"] == "override"

    def test_jsonl_file_and_rewrite_bound(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=path, capacity=4, max_file_lines=6)
        for i in range(6):
            log.emit("tick", n=i)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["n"] for line in lines] == list(range(6))
        # crossing the bound rewrites the file down to the ring
        log.emit("tick", n=6)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["n"] for line in lines] == [3, 4, 5, 6]
        log.close()

    def test_configure_counts_existing_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"ts": 0, "event": "old"}\n' * 4)
        log = EventLog(capacity=8, max_file_lines=5)
        log.configure(path)
        log.emit("new", n=1)  # line 5: at the bound, kept
        log.emit("new", n=2)  # line 6: crosses it -> rewrite from ring
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["event"] for e in lines] == ["new", "new"]
        log.close()

    def test_module_level_log(self):
        events.emit("module.test", k=1)
        assert events.tail(1)[0]["event"] == "module.test"


class TestSubsystemEmitters:
    def test_breaker_lifecycle_events(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=2, cooldown_s=10.0, clock=lambda: clock[0]
        )
        breaker.record_timeout("shape")
        breaker.record_timeout("shape")  # closed -> open
        assert [e["event"] for e in events.tail()] == ["breaker.open"]
        assert breaker.should_skip("shape") is True
        clock[0] = 11.0
        assert breaker.should_skip("shape") is False  # half-open probe
        breaker.record_success("shape")  # probe succeeded -> closed
        assert [e["event"] for e in events.tail()] == [
            "breaker.open", "breaker.half_open", "breaker.close",
        ]
        close = events.tail()[-1]
        assert close["fingerprint"] == "shape"

    def test_breaker_success_below_threshold_is_silent(self):
        breaker = CircuitBreaker(threshold=3)
        breaker.record_timeout("shape")
        breaker.record_success("shape")
        assert events.tail() == []

    def test_quarantine_and_readmit_events(self):
        db = demo_database()
        try:
            db.quarantine_summary("ast1", "poisoned by test")
            assert [e["event"] for e in events.tail()] == [
                "summary.quarantine"
            ]
            entry = events.tail()[0]
            assert entry["summary"].lower() == "ast1"
            assert entry["reason"] == "poisoned by test"
            # a successful full refresh re-admits the summary
            db.refresh_summary_tables()
            assert [e["event"] for e in events.tail()] == [
                "summary.quarantine", "summary.recompute", "summary.readmit",
            ]
            assert events.tail()[1]["reason"] == "REFRESH requested"
        finally:
            db.close()
