"""Schemas, keys, and referential-integrity constraints.

The matcher relies on catalog metadata in two places the paper calls out
explicitly:

* **Lossless extra joins** (Section 4.1.1, condition 1): an extra subsumer
  child is harmless when a non-nullable foreign key joins to the extra
  child's unique key, so the join neither drops nor duplicates rows.
* **Rejoin multiplicity** (Section 4.2.1): re-joining a dimension on its
  unique key is 1:N with the dimension on the "1" side, which lets the
  compensation skip regrouping.

Both facts are derived from :class:`UniqueKey` and
:class:`ForeignKeyConstraint` entries stored here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.types import DataType
from repro.errors import CatalogError


@dataclass(frozen=True)
class Column:
    """A named, typed column. ``nullable`` defaults to False because the
    paper's supergroup matching assumes non-nullable grouping inputs."""

    name: str
    dtype: DataType
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class UniqueKey:
    """A uniqueness constraint over one or more columns."""

    columns: tuple[str, ...]
    is_primary: bool = False

    def __post_init__(self) -> None:
        if not self.columns:
            raise CatalogError("unique key needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise CatalogError(f"duplicate column in key: {self.columns}")


@dataclass(frozen=True)
class ForeignKeyConstraint:
    """An RI constraint: ``child_table(child_columns)`` references
    ``parent_table(parent_columns)``, which must be a unique key."""

    child_table: str
    child_columns: tuple[str, ...]
    parent_table: str
    parent_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.child_columns) != len(self.parent_columns):
            raise CatalogError(
                "foreign key column count mismatch: "
                f"{self.child_columns} vs {self.parent_columns}"
            )


class TableSchema:
    """An ordered set of columns plus key constraints for one table."""

    def __init__(
        self,
        name: str,
        columns: list[Column],
        keys: list[UniqueKey] | None = None,
    ):
        if not columns:
            raise CatalogError(f"table {name!r} has no columns")
        seen: set[str] = set()
        for column in columns:
            if column.name in seen:
                raise CatalogError(f"duplicate column {column.name!r} in {name!r}")
            seen.add(column.name)
        self.name = name
        self.columns = list(columns)
        self.keys = list(keys or [])
        self._by_name = {column.name: column for column in columns}
        for key in self.keys:
            for column_name in key.columns:
                if column_name not in self._by_name:
                    raise CatalogError(
                        f"key column {column_name!r} not in table {name!r}"
                    )

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(f"no column {name!r} in table {self.name!r}") from None

    def is_unique_key(self, columns: set[str]) -> bool:
        """True if some declared key is a subset of ``columns`` (a superset
        of a unique key is itself unique)."""
        return any(set(key.columns) <= columns for key in self.keys)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(self.column_names)
        return f"TableSchema({self.name}: {cols})"


@dataclass
class Catalog:
    """A collection of table schemas and RI constraints."""

    tables: dict[str, TableSchema] = field(default_factory=dict)
    foreign_keys: list[ForeignKeyConstraint] = field(default_factory=list)

    def add_table(self, schema: TableSchema) -> TableSchema:
        key = schema.name.lower()
        if key in self.tables:
            raise CatalogError(f"table {schema.name!r} already defined")
        self.tables[key] = schema
        return schema

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self.tables:
            raise CatalogError(f"no table named {name!r}")
        del self.tables[key]
        self.foreign_keys = [
            fk
            for fk in self.foreign_keys
            if fk.child_table.lower() != key and fk.parent_table.lower() != key
        ]

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def table(self, name: str) -> TableSchema:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def add_foreign_key(self, constraint: ForeignKeyConstraint) -> None:
        child = self.table(constraint.child_table)
        parent = self.table(constraint.parent_table)
        for column_name in constraint.child_columns:
            child.column(column_name)
        for column_name in constraint.parent_columns:
            parent.column(column_name)
        if not parent.is_unique_key(set(constraint.parent_columns)):
            raise CatalogError(
                f"RI target {constraint.parent_table}{constraint.parent_columns} "
                "is not a unique key"
            )
        self.foreign_keys.append(constraint)

    def find_foreign_key(
        self, child_table: str, parent_table: str
    ) -> ForeignKeyConstraint | None:
        """The RI constraint from ``child_table`` to ``parent_table``, if any."""
        for constraint in self.foreign_keys:
            if (
                constraint.child_table.lower() == child_table.lower()
                and constraint.parent_table.lower() == parent_table.lower()
            ):
                return constraint
        return None

    def ri_join_is_lossless(
        self,
        child_table: str,
        child_columns: set[str],
        parent_table: str,
        parent_columns: set[str],
        column_pairs: set[tuple[str, str]],
    ) -> bool:
        """Decide whether an equi-join is lossless for the child side.

        The join must equate exactly a declared foreign key of
        ``child_table`` with its referenced unique key in ``parent_table``,
        and every FK column must be non-nullable (a NULL FK value would
        drop the child row). ``column_pairs`` holds the joined
        (child_column, parent_column) pairs.
        """
        constraint = self.find_foreign_key(child_table, parent_table)
        if constraint is None:
            return False
        required = set(zip(constraint.child_columns, constraint.parent_columns))
        if not required <= column_pairs:
            return False
        child = self.table(child_table)
        return all(
            not child.column(name).nullable for name in constraint.child_columns
        )
