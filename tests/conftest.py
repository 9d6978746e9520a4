"""Shared fixtures: small, deterministic databases."""

from __future__ import annotations

import datetime

import pytest
from hypothesis import settings

from repro.catalog import credit_card_catalog
from repro.engine import Database
from repro.workloads import populate_credit_db, small_config

# ``--hypothesis-profile=chaos`` (CI's chaos job) runs the properties that
# read their count from the active profile at 3 000 examples.
settings.register_profile("chaos", max_examples=3000, deadline=None)


@pytest.fixture
def tiny_db() -> Database:
    """A hand-written six-row database where every expected value can be
    checked by eye (used by executor and matching unit tests)."""
    db = Database(credit_card_catalog())
    d = datetime.date
    db.load(
        "Loc",
        [
            (1, "San Jose", "CA", "USA"),
            (2, "Paris", "IdF", "France"),
            (3, "Austin", "TX", "USA"),
        ],
    )
    db.load("PGroup", [(1, "TV"), (2, "Radio")])
    db.load("Cust", [(1, "Alice", "CA"), (2, "Bob", "TX")])
    db.load("Acct", [(10, 1, "gold"), (20, 2, "silver")])
    rows = []
    for tid, (faid, flid, pgid, y, m, qty, price, disc) in enumerate(
        [
            (10, 1, 1, 1990, 1, 2, 110.0, 0.2),
            (10, 1, 1, 1990, 2, 1, 150.0, 0.3),
            (10, 2, 2, 1991, 3, 3, 30.0, 0.15),
            (20, 3, 1, 1991, 6, 1, 400.0, 0.15),
            (20, 3, 2, 1991, 7, 2, 50.0, 0.2),
            (20, 3, 1, 1992, 1, 1, 500.0, 0.3),
        ],
        start=1,
    ):
        rows.append((tid, pgid, flid, faid, d(y, m, 15), qty, price, disc))
    db.load("Trans", rows)
    return db


@pytest.fixture(scope="session")
def small_db() -> Database:
    """A generated ~2k-transaction database shared across the session
    (treat as read-only)."""
    db = Database(credit_card_catalog())
    populate_credit_db(db, small_config())
    return db


def fresh_small_db() -> Database:
    """A private copy of the generated database, for tests that mutate."""
    db = Database(credit_card_catalog())
    populate_credit_db(db, small_config())
    return db
