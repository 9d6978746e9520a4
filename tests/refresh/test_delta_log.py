"""Unit tests for the delta log and the refresh policy value types."""

import pytest

from repro.refresh.log import DeltaBatch, DeltaLog
from repro.refresh.policy import RefreshAge, RefreshState


class TestDeltaLog:
    def test_append_assigns_monotonic_lsns(self):
        log = DeltaLog()
        first = log.append("Trans", [(1,)], +1)
        second = log.append("Loc", [(2,)], -1)
        assert (first.seq, second.seq) == (1, 2)
        assert log.lsn == 2
        assert len(log) == 2

    def test_rows_are_frozen_tuples(self):
        log = DeltaLog()
        batch = log.append("Trans", [[1, "a"], [2, "b"]], +1)
        assert batch.rows == ((1, "a"), (2, "b"))

    def test_pending_for_filters_by_table_and_lsn(self):
        log = DeltaLog()
        log.append("Trans", [(1,)], +1)  # lsn 1
        log.append("Loc", [(2,)], +1)  # lsn 2
        log.append("Trans", [(3,)], -1)  # lsn 3
        pending = log.pending_for({"trans"}, after=1)
        assert [batch.seq for batch in pending] == [3]
        both = log.pending_for({"Trans", "LOC"}, after=0)
        assert [batch.seq for batch in both] == [1, 2, 3]

    def test_prune_drops_consumed_batches(self):
        log = DeltaLog()
        for _ in range(3):
            log.append("Trans", [(1,)], +1)
        assert log.prune(2) == 2
        assert [batch.seq for batch in log.batches()] == [3]
        assert log.lsn == 3  # pruning never rewinds the clock

    def test_restore_roundtrip(self):
        log = DeltaLog()
        batches = [DeltaBatch(5, "trans", +1, ((1,),))]
        log.restore(7, batches)
        assert log.lsn == 7
        assert log.pending_for({"trans"}, after=0) == batches
        # restoring with a stale lsn keeps the newest batch's seq
        log.restore(1, batches)
        assert log.lsn == 5

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            DeltaBatch(1, "t", 0, ())


class TestRefreshAge:
    def test_zero_admits_only_fresh(self):
        age = RefreshAge.CURRENT
        assert age.admits(0)
        assert not age.admits(1)

    def test_any_admits_everything(self):
        assert RefreshAge.ANY.admits(10**9)

    def test_bounded_lag(self):
        age = RefreshAge(3)
        assert age.admits(3)
        assert not age.admits(4)

    def test_keys_distinguish_tolerances(self):
        keys = {RefreshAge.ANY.key, RefreshAge.CURRENT.key, RefreshAge(3).key}
        assert len(keys) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RefreshAge(-1)

    def test_describe(self):
        assert RefreshAge.ANY.describe() == "ANY"
        assert RefreshAge(2).describe() == "2"


class TestRefreshState:
    def test_defaults_immediate_and_fresh(self):
        state = RefreshState()
        assert not state.is_deferred
        assert not state.is_stale
        assert state.describe() == "immediate"

    def test_deferred_describe(self):
        state = RefreshState(mode="deferred", pending_deltas=2, last_refresh_lsn=7)
        assert state.is_deferred and state.is_stale
        assert "2 pending" in state.describe()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            RefreshState(mode="lazy")


class TestHighWater:
    def test_append_advances_high_water_and_change_count(self):
        log = DeltaLog()
        log.append("Trans", [(1,)], +1)  # lsn 1
        log.append("Loc", [(2,)], +1)  # lsn 2
        log.append("Trans", [(3,)], -1)  # lsn 3
        assert log.high_water("trans") == 3
        assert log.high_water("Trans") == 3  # case-insensitive
        assert log.high_water("loc") == 2
        assert log.change_count("trans") == 2
        assert log.change_count("loc") == 1

    def test_unchanged_table_reads_zero(self):
        log = DeltaLog()
        assert log.high_water("never") == 0
        assert log.change_count("never") == 0

    def test_note_write_consumes_lsn_without_staging(self):
        log = DeltaLog()
        lsn = log.note_write("Trans")
        assert lsn == 1
        assert log.lsn == 1
        assert len(log) == 0  # no batch stored
        assert log.high_water("trans") == 1
        assert log.change_count("trans") == 1
        # batches appended later keep the shared clock monotone
        batch = log.append("Trans", [(1,)], +1)
        assert batch.seq == 2
        assert log.high_water("trans") == 2
        assert log.change_count("trans") == 2

    def test_bulk_accessors(self):
        log = DeltaLog()
        log.note_write("A")
        log.note_write("B")
        assert log.change_counts(["A", "C"]) == {"a": 1, "c": 0}

    def test_restore_rebuilds_marks_from_batches(self):
        log = DeltaLog()
        batches = [
            DeltaBatch(3, "trans", +1, ((1,),)),
            DeltaBatch(5, "loc", +1, ((2,),)),
        ]
        log.restore(9, batches)
        assert log.high_water("trans") == 3
        assert log.high_water("loc") == 5
        assert log.change_count("trans") == 1
        # marks from pruned batches are gone — the documented-safe loss
        assert log.high_water("cust") == 0
