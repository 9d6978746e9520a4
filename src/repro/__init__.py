"""repro — Answering Complex SQL Queries Using Automatic Summary Tables.

A faithful reproduction of the SIGMOD 2000 paper by Zaharioudakis,
Cochrane, Lapis, Pirahesh and Urata (IBM DB2 UDB): a Query Graph Model,
a bottom-up matching algorithm with compensation construction, expression
translation/derivation, multidimensional (CUBE/ROLLUP/GROUPING SETS)
matching, and the surrounding machinery — SQL front end, execution
engine, summary-table maintenance and advisor.

Quickstart::

    from repro import Database, credit_card_catalog

    db = Database(credit_card_catalog())
    db.load("Trans", rows)
    db.create_summary_table("AST1", "SELECT faid, flid, ... GROUP BY ...")
    result = db.execute("SELECT ...")      # rewritten over AST1 if possible
    print(db.rewrite("SELECT ...").sql)    # see the rewritten SQL
"""

from repro.asts.advisor import Advisor, AdvisorResult
from repro.asts.definition import SummaryTable
from repro.asts.maintenance import maintain_delete, maintain_insert
from repro.catalog.sample import credit_card_catalog
from repro.catalog.schema import (
    Catalog,
    Column,
    ForeignKeyConstraint,
    TableSchema,
    UniqueKey,
)
from repro.catalog.types import DataType
from repro.engine.database import Database
from repro.engine.pipeline import WriteRun
from repro.engine.persist import (
    RecoveryReport,
    load_database,
    save_database,
    verify_database,
)
from repro.engine.reference import ReferenceExecutor
from repro.engine.table import Table, tables_equal
from repro.errors import (
    BindError,
    CatalogError,
    ExecutionError,
    ReproError,
    RewriteError,
    SqlSyntaxError,
    UnsupportedSqlError,
)
from repro.matching.navigator import match_graphs, root_matches
from repro.obs import (
    REASONS,
    Counter,
    Gauge,
    Histogram,
    MatchTrace,
    MetricsRegistry,
)
from repro.qgm.build import build_graph
from repro.qgm.display import render_graph
from repro.qgm.fingerprint import GraphFingerprint, fingerprint
from repro.qgm.unparse import to_sql
from repro.rewrite.cache import RewriteStats
from repro.rewrite.index import SummarySignature, graph_signature
from repro.rewrite.rewriter import RewriteResult, rewrite_query
from repro.sql.parser import parse, parse_expression

__version__ = "1.0.0"

__all__ = [
    "Advisor",
    "AdvisorResult",
    "BindError",
    "Catalog",
    "CatalogError",
    "Column",
    "Counter",
    "DataType",
    "Database",
    "ExecutionError",
    "ForeignKeyConstraint",
    "Gauge",
    "GraphFingerprint",
    "Histogram",
    "MatchTrace",
    "MetricsRegistry",
    "REASONS",
    "RecoveryReport",
    "ReproError",
    "ReferenceExecutor",
    "RewriteError",
    "RewriteResult",
    "RewriteStats",
    "SummarySignature",
    "SqlSyntaxError",
    "SummaryTable",
    "Table",
    "TableSchema",
    "UniqueKey",
    "UnsupportedSqlError",
    "WriteRun",
    "build_graph",
    "credit_card_catalog",
    "fingerprint",
    "graph_signature",
    "load_database",
    "maintain_delete",
    "maintain_insert",
    "match_graphs",
    "parse",
    "parse_expression",
    "render_graph",
    "save_database",
    "rewrite_query",
    "root_matches",
    "tables_equal",
    "to_sql",
    "verify_database",
    "__version__",
]
