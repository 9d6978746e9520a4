"""Catalog schema and constraint tests."""

import pytest

from repro.catalog import (
    Catalog,
    Column,
    DataType,
    ForeignKeyConstraint,
    TableSchema,
    UniqueKey,
)
from repro.errors import CatalogError


def make_pair() -> Catalog:
    catalog = Catalog()
    catalog.add_table(
        TableSchema(
            "Dim",
            [Column("id", DataType.INTEGER), Column("name", DataType.STRING)],
            keys=[UniqueKey(("id",), is_primary=True)],
        )
    )
    catalog.add_table(
        TableSchema(
            "Fact",
            [
                Column("fid", DataType.INTEGER),
                Column("dim_id", DataType.INTEGER),
                Column("amount", DataType.FLOAT),
            ],
            keys=[UniqueKey(("fid",), is_primary=True)],
        )
    )
    return catalog


class TestTableSchema:
    def test_column_lookup(self):
        schema = make_pair().table("Dim")
        assert schema.column("id").dtype is DataType.INTEGER

    def test_unknown_column_raises(self):
        schema = make_pair().table("Dim")
        with pytest.raises(CatalogError):
            schema.column("missing")

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema(
                "T",
                [Column("a", DataType.INTEGER), Column("a", DataType.STRING)],
            )

    def test_empty_table_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("T", [])

    def test_invalid_column_name_rejected(self):
        with pytest.raises(CatalogError):
            Column("not valid", DataType.INTEGER)

    def test_key_must_reference_columns(self):
        with pytest.raises(CatalogError):
            TableSchema(
                "T",
                [Column("a", DataType.INTEGER)],
                keys=[UniqueKey(("b",))],
            )

    def test_superset_of_key_is_unique(self):
        schema = make_pair().table("Dim")
        assert schema.is_unique_key({"id"})
        assert schema.is_unique_key({"id", "name"})
        assert not schema.is_unique_key({"name"})


class TestCatalog:
    def test_case_insensitive_lookup(self):
        catalog = make_pair()
        assert catalog.table("dim").name == "Dim"
        assert catalog.has_table("FACT")

    def test_duplicate_table_rejected(self):
        catalog = make_pair()
        with pytest.raises(CatalogError):
            catalog.add_table(TableSchema("dim", [Column("x", DataType.INTEGER)]))

    def test_drop_table(self):
        catalog = make_pair()
        catalog.add_foreign_key(
            ForeignKeyConstraint("Fact", ("dim_id",), "Dim", ("id",))
        )
        catalog.drop_table("Dim")
        assert not catalog.has_table("Dim")
        assert catalog.foreign_keys == []

    def test_foreign_key_requires_unique_target(self):
        catalog = make_pair()
        with pytest.raises(CatalogError):
            catalog.add_foreign_key(
                ForeignKeyConstraint("Fact", ("dim_id",), "Dim", ("name",))
            )

    def test_foreign_key_column_count_mismatch(self):
        with pytest.raises(CatalogError):
            ForeignKeyConstraint("Fact", ("a", "b"), "Dim", ("id",))

    def test_find_foreign_key(self):
        catalog = make_pair()
        catalog.add_foreign_key(
            ForeignKeyConstraint("Fact", ("dim_id",), "Dim", ("id",))
        )
        assert catalog.find_foreign_key("fact", "dim") is not None
        assert catalog.find_foreign_key("dim", "fact") is None


class TestLosslessJoin:
    def setup_method(self):
        self.catalog = make_pair()
        self.catalog.add_foreign_key(
            ForeignKeyConstraint("Fact", ("dim_id",), "Dim", ("id",))
        )

    def test_ri_join_is_lossless(self):
        assert self.catalog.ri_join_is_lossless(
            "Fact", {"dim_id"}, "Dim", {"id"}, {("dim_id", "id")}
        )

    def test_wrong_columns_not_lossless(self):
        assert not self.catalog.ri_join_is_lossless(
            "Fact", {"fid"}, "Dim", {"id"}, {("fid", "id")}
        )

    def test_nullable_fk_not_lossless(self):
        catalog = Catalog()
        catalog.add_table(
            TableSchema(
                "Dim",
                [Column("id", DataType.INTEGER)],
                keys=[UniqueKey(("id",), is_primary=True)],
            )
        )
        catalog.add_table(
            TableSchema(
                "Fact",
                [Column("dim_id", DataType.INTEGER, nullable=True)],
            )
        )
        catalog.add_foreign_key(
            ForeignKeyConstraint("Fact", ("dim_id",), "Dim", ("id",))
        )
        assert not catalog.ri_join_is_lossless(
            "Fact", {"dim_id"}, "Dim", {"id"}, {("dim_id", "id")}
        )

    def test_no_constraint_not_lossless(self):
        assert not self.catalog.ri_join_is_lossless(
            "Dim", {"id"}, "Fact", {"dim_id"}, {("id", "dim_id")}
        )
