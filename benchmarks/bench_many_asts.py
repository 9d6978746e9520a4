"""Rewrite latency as the number of registered ASTs grows.

The paper assumes a handful of summary tables; real deployments register
dozens to hundreds. This benchmark measures the cost of the rewrite
decision from SQL text (``Database.rewrite(text)``, so the timing
includes binding the text: a cold bind, or on a repeat a substitution
into the shape cache's template) at 1 / 8 / 64 / 256 registered ASTs,
comparing:

* **cache off** — the baseline: candidate index pruning, then full
  bottom-up navigation per surviving candidate, with the shape cache
  off (``db.configure_fast_path(cache=False)``), so every text binds
  cold and every decision is matched;
* **cold** — shape cache on but empty (first sight of the query
  shape): what filing a shape and its decision adds to a miss;
* **repeat** — the same query shape again: the text's shape entry
  holds the decision and the recorded match is replayed directly.

The ``pruned`` column reports how many candidates the index dropped.

It also cross-checks correctness: the rewritten SQL must be
bit-identical across all three modes, at every AST count.

Run standalone (``PYTHONPATH=src python benchmarks/bench_many_asts.py``)
or with ``--fast`` for a seconds-long CI smoke run.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro.bench.figures import AST1, Q1
from repro.catalog.sample import credit_card_catalog
from repro.engine.database import Database
from repro.workloads.datagen import populate_credit_db, small_config

#: the query under test matches AST1 via the Figure 2 compensation
MATCHING_AST = ("AST1", AST1)
QUERY = Q1

#: decoy templates, cycled with a varying literal so each AST is distinct.
#: The first four have no Trans — the candidate index prunes them outright
#: for any Trans query. The rest overlap on Trans and survive pruning, so
#: the navigator still has to reject them the hard way.
DECOY_TEMPLATES = [
    "select lid, city, state, country from Loc where lid > {k}",
    "select pgid, pgname from PGroup where pgid > {k}",
    "select aid, acid, status from Acct where aid > {k}",
    "select cid, cname, cstate from Cust where cid > {k}",
    "select fpgid, month(date) as month, count(*) as cnt, sum(qty) as q "
    "from Trans where qty > {q} group by fpgid, month(date)",
    "select tid, qty, price from Trans where qty > {q} and price > {k}",
    "select tid, faid, city from Trans, Loc where flid = lid and qty > {q}",
]


def build_database(ast_count: int) -> Database:
    """A small credit-card database with AST1 plus ``ast_count - 1`` decoys."""
    database = Database(credit_card_catalog())
    populate_credit_db(database, small_config())
    name, sql = MATCHING_AST
    database.create_summary_table(name, sql)
    for index in range(ast_count - 1):
        template = DECOY_TEMPLATES[index % len(DECOY_TEMPLATES)]
        decoy_sql = template.format(k=index, q=index % 5)
        database.create_summary_table(f"DECOY_{index}", decoy_sql)
    return database


def time_rewrites(database: Database, runs: int, clear_cache: bool) -> tuple[float, list[str]]:
    """Median seconds per rewrite decision of the query's text (bind
    included) over ``runs`` rewrites.

    ``clear_cache=True`` empties the shape cache before every run, so
    every measurement is a cold (cache-miss) bind and rewrite.
    """
    samples = []
    sqls = []
    for _ in range(runs):
        if clear_cache:
            # toggling the cache off drops every entry; back on is empty
            database.configure_fast_path(cache=False)
            database.configure_fast_path(cache=True)
        start = time.perf_counter()
        result = database.rewrite(QUERY)
        samples.append(time.perf_counter() - start)
        if result is None:
            raise SystemExit("benchmark error: query no longer matches AST1")
        sqls.append(result.sql)
    return statistics.median(samples), sqls


def run_point(ast_count: int, runs: int) -> dict:
    database = build_database(ast_count)

    database.configure_fast_path(cache=False)
    uncached, uncached_sqls = time_rewrites(database, runs, clear_cache=False)

    database.configure_fast_path(cache=True)
    database.metrics.reset()
    cold, cold_sqls = time_rewrites(database, runs, clear_cache=True)
    cold_stats = database.rewrite_stats()

    database.metrics.reset()
    # one untimed warm-up populates the cache; every timed run then hits it
    database.rewrite(QUERY)
    repeat, repeat_sqls = time_rewrites(database, runs, clear_cache=False)
    repeat_stats = database.rewrite_stats()

    sqls = set(uncached_sqls + cold_sqls + repeat_sqls)
    if len(sqls) != 1:
        raise SystemExit(
            "CORRECTNESS FAILURE: rewritten SQL differs between modes "
            f"at {ast_count} ASTs:\n" + "\n---\n".join(sorted(sqls))
        )
    if repeat_stats["cache_hits"] < runs:
        raise SystemExit(
            "benchmark error: repeat runs were not served from the "
            f"shape cache (cache_hits={repeat_stats['cache_hits']})"
        )
    return {
        "asts": ast_count,
        "uncached": uncached,
        "cold": cold,
        "repeat": repeat,
        "pruned": cold_stats["candidates_pruned"],
        "considered": cold_stats["candidates_considered"],
        "cache_hits": repeat_stats["cache_hits"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI smoke mode: fewer AST counts and repetitions, no "
        "speedup thresholds (timing is too noisy on shared runners)",
    )
    parser.add_argument(
        "--runs", type=int, default=None, help="repetitions per measurement"
    )
    args = parser.parse_args(argv)

    counts = [1, 8] if args.fast else [1, 8, 64, 256]
    runs = args.runs or (3 if args.fast else 15)

    print(f"rewrite-decision latency for Figure 2's Q1 ({runs} runs/point)")
    header = (
        f"{'ASTs':>5} {'cache off ms':>12} {'cold ms':>9} {'repeat ms':>10} "
        f"{'cold x':>7} {'repeat x':>9} {'pruned':>7}"
    )
    print(header)
    print("-" * len(header))

    failures = []
    for count in counts:
        point = run_point(count, runs)
        cold_ratio = point["cold"] / point["uncached"]
        repeat_speedup = point["uncached"] / point["repeat"]
        print(
            f"{point['asts']:>5} {point['uncached'] * 1e3:>12.3f} "
            f"{point['cold'] * 1e3:>9.3f} {point['repeat'] * 1e3:>10.3f} "
            f"{cold_ratio:>7.2f} {repeat_speedup:>8.1f}x "
            f"{point['pruned']:>4}/{point['considered']}"
        )
        if not args.fast and count >= 64:
            if repeat_speedup < 5.0:
                failures.append(
                    f"{count} ASTs: repeat speedup {repeat_speedup:.1f}x < 5x"
                )
            if cold_ratio > 1.2:
                failures.append(
                    f"{count} ASTs: cold ratio {cold_ratio:.2f} > 1.2"
                )

    print()
    print("rewritten SQL identical across cache off / cold / repeat at every point")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("PASS: repeat >= 5x at 64+ ASTs, cold <= 1.2x cache off" if not args.fast
          else "smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
