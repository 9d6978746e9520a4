"""Execution engine: tables, aggregates, executor, and the Database facade."""

from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.persist import load_database, save_database
from repro.engine.reference import ReferenceExecutor
from repro.engine.table import Table, tables_equal

__all__ = [
    "Database",
    "Executor",
    "ReferenceExecutor",
    "Table",
    "load_database",
    "save_database",
    "tables_equal",
]
