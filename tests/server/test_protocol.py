"""Wire-protocol unit tests: framing, bit-identity, error mapping."""

from __future__ import annotations

import datetime
import math

import pytest

from repro.catalog.sample import credit_card_catalog
from repro.engine.table import Table
from repro.errors import QueryRejected, QueryTimeout, ReproError
from repro.server import protocol


class TestMessageRoundTrip:
    def test_simple_message(self):
        message = {"op": "query", "id": 7, "sql": "SELECT 1"}
        line = protocol.encode_message(message)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert protocol.decode_message(line) == message

    def test_dates_survive_tagged(self):
        day = datetime.date(1996, 2, 29)
        line = protocol.encode_message({"value": day})
        assert protocol.decode_message(line) == {"value": day}

    def test_floats_bit_identical(self):
        values = [0.1, 1 / 3, 1e308, 5e-324, -0.0, 123456789.987654321]
        decoded = protocol.decode_message(
            protocol.encode_message({"values": values})
        )["values"]
        for sent, got in zip(values, decoded):
            assert math.copysign(1.0, sent) == math.copysign(1.0, got)
            assert sent == got and sent.hex() == got.hex()

    def test_unicode_and_null(self):
        message = {"s": "naïve — ünïcödé", "n": None, "b": True}
        assert protocol.decode_message(protocol.encode_message(message)) == message

    def test_bad_lines_raise_protocol_error(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(b"[1, 2, 3]\n")


def over_the_wire(table: Table) -> Table:
    """``table`` through the server's miss path and the client's decode."""
    line = protocol.encode_reply(
        {"ok": True, "cache": "miss"}, protocol.encode_table_fragment(table)
    )
    reply = protocol.decode_message(line)
    assert reply["ok"] is True and reply["cache"] == "miss"
    return protocol.decode_table(reply["table"])


def assert_bit_identical(restored: Table, table: Table):
    assert restored.columns == table.columns
    assert len(restored) == len(table)
    for got, sent in zip(restored.columns_data(), table.columns_data()):
        assert len(got) == len(sent)
        for a, b in zip(got, sent):
            assert type(a) is type(b)
            if isinstance(a, float):
                assert a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))
            else:
                assert a == b


class TestTableRoundTrip:
    def test_values_and_order_preserved(self):
        table = Table(
            ["id", "day", "price", "name"],
            [
                (1, datetime.date(1990, 1, 15), 110.25, "tv"),
                (2, None, -0.0, None),
                (3, datetime.date(2000, 12, 31), 1 / 3, "radio"),
            ],
        )
        restored = over_the_wire(table)
        assert_bit_identical(restored, table)
        assert list(restored.rows) == list(table.rows)
        assert isinstance(restored.rows[0], tuple)

    def test_payload_is_column_major_and_never_builds_rows(self, monkeypatch):
        table = Table(["a", "b"], [(1, "x"), (2, "y"), (3, None)])
        monkeypatch.setattr(
            Table, "_materialize_rows",
            lambda self: pytest.fail("encoding must not materialize rows"),
        )
        payload = protocol.encode_table(table)
        assert payload == {"columns": ["a", "b"],
                           "data": [[1, 2, 3], ["x", "y", None]]}
        assert protocol.encode_table_fragment(table) == (
            b'{"columns":["a","b"],"data":[[1,2,3],["x","y",null]]}'
        )

    def test_ints_floats_and_non_finite_values(self):
        table = Table.from_columns(
            ["i", "f"],
            [
                [0, -1, 2**63 - 1, -(2**63), 2**80, None],
                [0.1, 5e-324, 1e308, float("nan"), float("inf"),
                 float("-inf")],
            ],
        )
        assert_bit_identical(over_the_wire(table), table)

    def test_dates_inside_nullable_columns(self):
        days = [datetime.date(1996, 2, 29), None, datetime.date(1, 1, 1), None]
        table = Table.from_columns(["day", "n"], [days, [None, 1, None, 2]])
        assert_bit_identical(over_the_wire(table), table)

    def test_empty_result_keeps_its_columns(self):
        restored = over_the_wire(Table(["a", "b"]))
        assert restored.columns == ["a", "b"]
        assert len(restored) == 0 and list(restored.rows) == []

    def test_schema_loaded_table(self):
        schema = credit_card_catalog().table("Trans")
        row = (1, 2, 3, 4, datetime.date(1990, 6, 15), 5, 10.5, 0.1)
        table = Table.from_schema(schema, [row, row[:6] + (0.1 + 0.2, 0.0)])
        restored = over_the_wire(table)
        assert_bit_identical(restored, table)
        assert restored.rows[0] == row

    def test_envelope_without_table(self):
        line = protocol.encode_reply({"ok": True, "status": "done", "id": 3})
        assert line == protocol.encode_message(
            {"ok": True, "status": "done", "id": 3}
        )

    def test_bad_payload_raises(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_table({"columns": ["a"]})
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_table({"columns": ["a"], "rows": [[1]]})
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_table({"columns": ["a", "b"], "data": [[1], []]})


class TestErrorMapping:
    def test_payload_carries_type_and_message(self):
        payload = protocol.error_payload(QueryRejected("too busy"))
        assert payload == {"type": "QueryRejected", "message": "too busy"}

    def test_known_types_map_back(self):
        assert protocol.error_class("QueryRejected") is QueryRejected
        assert protocol.error_class("QueryTimeout") is QueryTimeout

    def test_unknown_types_fall_back(self):
        assert protocol.error_class("SomethingNew") is ReproError
        assert protocol.error_class("ValueError") is ReproError
        assert protocol.error_class("") is ReproError
