"""Scalar-function registry."""

import datetime

import pytest

from repro.errors import ExecutionError
from repro.expr.functions import lookup_function


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert lookup_function("YEAR") is lookup_function("year")
        assert lookup_function("nope") is None

    def test_arity_checks(self):
        assert lookup_function("year").check_arity(1)
        assert not lookup_function("year").check_arity(2)
        assert lookup_function("round").check_arity(1)
        assert lookup_function("round").check_arity(2)
        assert not lookup_function("round").check_arity(3)
        assert lookup_function("coalesce").check_arity(7)  # variadic
        assert not lookup_function("coalesce").check_arity(0)

    def test_null_propagation_flags(self):
        assert lookup_function("year").null_propagating
        assert not lookup_function("coalesce").null_propagating


class TestImplementations:
    DATE = datetime.date(1991, 8, 4)  # a Sunday

    def test_date_parts(self):
        assert lookup_function("year").impl(self.DATE) == 1991
        assert lookup_function("quarter").impl(self.DATE) == 3
        assert lookup_function("dayofweek").impl(self.DATE) == 1  # Sunday=1

    def test_dayofweek_full_week(self):
        values = [
            lookup_function("dayofweek").impl(self.DATE + datetime.timedelta(days=i))
            for i in range(7)
        ]
        assert values == [1, 2, 3, 4, 5, 6, 7]

    def test_mod(self):
        assert lookup_function("mod").impl(7, 3) == 1
        with pytest.raises(ExecutionError):
            lookup_function("mod").impl(7, 0)

    def test_string_functions(self):
        assert lookup_function("upper").impl("abc") == "ABC"
        assert lookup_function("lower").impl("ABC") == "abc"
        assert lookup_function("length").impl("abcd") == 4

    def test_rounding_family(self):
        assert lookup_function("round").impl(2.567, 1) == 2.6
        assert lookup_function("round").impl(2.5) == 2  # banker's rounding
        assert lookup_function("floor").impl(2.9) == 2
        assert lookup_function("ceil").impl(2.1) == 3

    def test_coalesce(self):
        impl = lookup_function("coalesce").impl
        assert impl(None, None, 3, 4) == 3
        assert impl(None, None) is None


class TestStringFunctions:
    def test_substr(self):
        impl = lookup_function("substr").impl
        assert impl("credit", 1, 4) == "cred"
        assert impl("credit", 3) == "edit"
        assert impl("credit", 0, 2) == "cr"  # clamps to start
        with pytest.raises(ExecutionError):
            impl("credit", 1, -1)

    def test_substring_alias(self):
        assert lookup_function("substring").impl("abc", 2) == "bc"

    def test_concat(self):
        assert lookup_function("concat").impl("a", "b", 3) == "ab3"

    def test_trim(self):
        assert lookup_function("trim").impl("  x  ") == "x"

    def test_end_to_end_in_query(self, tiny_db):
        result = tiny_db.execute(
            "select substr(city, 1, 3) as c3, trim(concat(state, '')) as st "
            "from Loc where lid = 1",
            use_summary_tables=False,
        )
        assert result.rows == [("San", "CA")]
