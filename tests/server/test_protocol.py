"""Wire-protocol unit tests: framing, bit-identity, error mapping."""

from __future__ import annotations

import datetime
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_only_the_date_tag_is_revived(self):
        """A spill run's tags mean nothing on the wire: a request
        carrying one gets it back as the dict it sent."""
        message = {"op": "query", "sql": {"$set": [1]}, "id": {"$tuple": [2]}}
        assert protocol.decode_message(protocol.encode_message(message)) == message

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

    def test_a_packed_column_in_a_request_stays_a_dict(self):
        """Only the table decoder unpacks ``$f8``: anywhere else in a
        message it is the dict that was sent."""
        message = {"op": "query", "sql": {"$f8": "mpmZmZmZuT8="}}
        assert protocol.decode_message(protocol.encode_message(message)) == message

    def test_bad_lines_raise_protocol_error(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(b"[1, 2, 3]\n")

    def test_a_line_that_is_not_utf8_raises_protocol_error(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_message(b'{"op": "\xff"}\n')


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

    def test_a_float_column_is_packed_little_endian(self):
        table = Table.from_columns(["f"], [[0.1]])
        assert protocol.encode_table_fragment(table) == (
            b'{"columns":["f"],"data":[{"$f8":"mpmZmZmZuT8="}]}'
        )

    @pytest.mark.parametrize("column", [
        {"$f8": "mpm!ZmZm"},  # not base64
        {"$f8": "mpmZmZmZ"},  # 6 bytes: not a multiple of 8
        {"$f8": 8},
        {"$f4": "AAAAAA=="},  # any other key
        {"$f8": "", "n": 1},
        {},
    ])
    def test_a_malformed_packed_column_raises(self, column):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_table({"columns": ["f"], "data": [column]})


def double(pattern: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


#: every double bit pattern: NaNs with any payload and sign included
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, math.inf, -math.inf]),
    st.integers(1, 2**52 - 1).map(lambda payload: double(0x7FF << 52 | payload)),
    st.integers(0, 2**64 - 1).map(double),
)


def wire_payload(table: Table) -> dict:
    """``table``'s payload as the client's message decoder leaves it."""
    line = protocol.encode_reply({"ok": True}, protocol.encode_table_fragment(table))
    return protocol.decode_message(line)["table"]


@settings(max_examples=settings.default.max_examples // 2, deadline=None)
@given(values=st.lists(FLOATS, min_size=1, max_size=6))
def test_a_float_column_round_trips_bit_for_bit(values):
    payload = wire_payload(Table.from_columns(["f"], [values]))
    assert list(payload["data"][0]) == ["$f8"]
    restored = protocol.decode_table(payload).columns_data()[0]
    assert all(type(v) is float for v in restored)
    assert [bits(v) for v in restored] == [bits(v) for v in values]


@settings(max_examples=settings.default.max_examples // 2, deadline=None)
@given(
    values=st.lists(FLOATS, max_size=4),
    other=st.sampled_from([None, 0, 7, True, False, 2**80]),
    at=st.integers(0, 4),
)
def test_a_column_mixing_floats_stays_a_list(values, other, at):
    values.insert(at, other)
    payload = wire_payload(Table.from_columns(["f"], [values]))
    assert type(payload["data"][0]) is list
    restored = protocol.decode_table(payload).columns_data()[0]
    assert [(type(v), repr(v)) for v in restored] == [
        (type(v), repr(v)) for v in values
    ]


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
