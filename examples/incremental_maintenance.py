"""Keeping summary tables fresh (related problem (c)).

Simulates a nightly load: a batch of new transactions arrives (and is
then taken back), and every summary table is brought up to date —
incrementally where the view shape allows it, by recomputation where it
does not — with both costs measured.

Run:  python examples/incremental_maintenance.py
"""

import datetime
import random
import time

from repro import (
    Database,
    credit_card_catalog,
    maintain_delete,
    maintain_insert,
    tables_equal,
)
from repro.workloads import bench_config, populate_credit_db

MAINTAINABLE_AST = """
select faid, flid, year(date) as year, count(*) as cnt, sum(qty) as sqty
from Trans
group by faid, flid, year(date)
"""

# A select-only join view: its change is the view over the new rows.
JOIN_AST = """
select tid, faid, status, country, qty * price as value
from Trans, Loc, Acct
where lid = flid and faid = aid and disc >= 0.1
"""

# An aggregation block plus a scalar subquery: groups merge, the scalar
# follows its own delta and is broadcast into its column.
SHARE_AST = """
select flid, year(date) as year, count(*) as cnt,
       (select count(*) from Trans) as totcnt
from Trans
group by flid, year(date)
"""

# Aggregation over aggregation (the paper's AST8) and a view without a
# COUNT(*): each discards groups its delta rule needs. Their first write
# (for the second: its first delete) is one recompute that keeps those
# groups as hidden auxiliary state; every write after it cascades through
# them and stays incremental.
HISTOGRAM_AST = """
select year, tcnt, count(*) as mcnt
from (select year(date) as year, month(date) as month, count(*) as tcnt
      from Trans
      group by year(date), month(date))
group by year, tcnt
"""

MONTHLY_VALUE_AST = """
select year(date) as year, month(date) as month, sum(qty * price) as value
from Trans
group by year(date), month(date)
"""

AVG_AST = """
select faid, avg(price) as avg_price
from Trans
group by faid
"""


def new_batch(db: Database, size: int) -> list[tuple]:
    rng = random.Random(42)
    base = db.table("Trans")
    next_tid = max(row[0] for row in base.rows) + 1
    accounts = sorted(set(base.column_values("faid")))
    cities = sorted(set(base.column_values("flid")))
    rows = []
    for i in range(size):
        rows.append(
            (
                next_tid + i,
                rng.randint(1, 10),
                rng.choice(cities),
                rng.choice(accounts),
                datetime.date(1993, rng.randint(1, 12), rng.randint(1, 28)),
                rng.randint(1, 5),
                round(rng.uniform(5, 900), 2),
                0.1,
            )
        )
    return rows


def main() -> None:
    db = Database(credit_card_catalog())
    counts = populate_credit_db(db, bench_config(0.5))
    db.create_summary_table("DailyCounts", MAINTAINABLE_AST)
    db.create_summary_table("DiscountedSales", JOIN_AST)
    db.create_summary_table("CityShare", SHARE_AST)
    db.create_summary_table("AvgPrices", AVG_AST)
    db.create_summary_table("MonthHistogram", HISTOGRAM_AST)
    db.create_summary_table("MonthlyValue", MONTHLY_VALUE_AST)

    batch = new_batch(db, size=counts["Trans"] // 100)
    print(
        f"nightly load: {len(batch)} new transactions on top of "
        f"{counts['Trans']} existing\n"
    )

    start = time.perf_counter()
    report = maintain_insert(db, "Trans", batch)
    elapsed = time.perf_counter() - start
    print(f"maintenance finished in {elapsed * 1e3:.1f} ms")
    for name in report.incremental:
        print(f"  {name:<16} maintained incrementally (summary-delta)")
    for name, reason in report.recomputed.items():
        print(f"  {name:<16} recomputed: {reason}")
    assert set(report.incremental) == {
        "DailyCounts", "DiscountedSales", "CityShare", "MonthlyValue",
    }
    assert set(report.recomputed) == {"AvgPrices", "MonthHistogram"}

    # MonthlyValue's first delete is its one recompute; from then on, and
    # for MonthHistogram since the load, deletes are incremental too
    first, rest = batch[: len(batch) // 10], batch[len(batch) // 10 :]
    print("\ntaking the batch back, a tenth of it first:")
    for victims, expected in (
        (first, {"AvgPrices", "MonthlyValue"}),
        (rest, {"AvgPrices"}),
    ):
        start = time.perf_counter()
        report = maintain_delete(db, "Trans", victims)
        took = time.perf_counter() - start
        print(
            f"  {len(victims)} deletes in {took * 1e3:.1f} ms, "
            f"recomputed: {', '.join(report.recomputed)}"
        )
        assert set(report.recomputed) == expected
    assert {"MonthHistogram", "MonthlyValue"} <= set(report.incremental)

    print("\nverifying against full recomputation:")
    for key, summary in db.summary_tables.items():
        fresh = db.execute(summary.sql, use_summary_tables=False)
        ok = tables_equal(summary.table, fresh)
        print(f"  {summary.name:<16} {'consistent' if ok else 'STALE!'}")
        assert ok

    start = time.perf_counter()
    db.refresh_summary_tables()
    recompute = time.perf_counter() - start
    print(
        f"\nfor comparison, recomputing everything takes "
        f"{recompute * 1e3:.1f} ms "
        f"({recompute / elapsed:.1f}x the incremental path)"
    )


if __name__ == "__main__":
    main()
