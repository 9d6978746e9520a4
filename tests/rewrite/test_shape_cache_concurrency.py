"""The shape path under concurrent catalog changes.

Two threads issue fresh bindings of one query shape — each one files,
confirms or instantiates the shape's template — while a third flips
``summary.enabled`` on the template's winner and creates and drops
another summary that would win. A template is validated like any other
entry (epoch + admissible set, captured before matching), so whatever
interleaving happens every answer is the base tables' and the sandbox
catches nothing. The chaos CI job runs this file 25 times.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.bench.figures import make_database
from repro.engine.table import tables_equal
from repro.obs import events

from tests.rewrite.test_shape_cache import CONFIG, FIGURE_ASTS

QUERY = (
    "select flid, year(date) as year, count(*) as cnt from Trans "
    "where year(date) > 1990 group by flid, year(date) having count(*) > {}"
)
#: what AST7 holds, under another name: as small, so it wins by turns
RIVAL = (
    "select flid, year(date) as year, count(*) as cnt from Trans "
    "group by flid, year(date)"
)
SECONDS = 2.5


def test_fresh_bindings_stay_right_while_the_catalog_changes():
    db = make_database(CONFIG)
    for name, sql in FIGURE_ASTS.items():
        db.create_summary_table(name, sql)
    expected = {
        value: db.execute(QUERY.format(value), use_summary_tables=False)
        for value in range(12)
    }
    stop = threading.Event()
    failures: list[str] = []
    answered = [0, 0]

    def reader(slot: int) -> None:
        # x.25 / x.75: the two readers never issue the same statement,
        # and no statement repeats, so none is an exact-key hit
        serial = 0
        try:
            while not stop.is_set():
                value = serial % 12
                fraction = (serial // 12) * 2 + slot
                sql = QUERY.format(f"{value}.{fraction:06d}1")
                if not tables_equal(db.execute(sql), expected[value]):
                    failures.append(sql)
                serial += 1
                answered[slot] += 1
        except Exception as error:  # reported below
            failures.append(repr(error))

    def ddl() -> None:
        # changes in bursts of three: the 1 ms pauses make many templates
        # stale in flight; after each burst the catalog holds still until
        # a template was filed, confirmed (two cold matches) and used
        # again, or for 0.2 s; about a hundred changes a round
        def settle() -> None:
            hits = db.rewrite_stats()["cache_shape_hits"]
            deadline = time.monotonic() + 0.2
            while (
                db.rewrite_stats()["cache_shape_hits"] == hits
                and time.monotonic() < deadline and not stop.is_set()
            ):
                time.sleep(0.005)

        steps = (
            lambda: setattr(db.summary_tables["ast7"], "enabled", False),
            lambda: db.create_summary_table("RIVAL", RIVAL),
            lambda: setattr(db.summary_tables["ast7"], "enabled", True),
            lambda: db.set_summary_table_enabled("AST11", False),
            lambda: db.drop_summary_table("RIVAL"),
            lambda: db.set_summary_table_enabled("AST11", True),
        )
        try:
            while not stop.is_set():
                for n, step in enumerate(steps):
                    step()
                    if n % 3 == 2:
                        settle()
                    else:
                        time.sleep(0.001)
        except Exception as error:  # reported below
            failures.append(repr(error))

    events.LOG.clear()
    before = db.rewrite_stats()
    threads = [
        threading.Thread(target=reader, args=(0,)),
        threading.Thread(target=reader, args=(1,)),
        threading.Thread(target=ddl),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        time.sleep(SECONDS)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    after = db.rewrite_stats()
    delta = {name: after[name] - before[name] for name in after}
    assert delta["rewrite_errors"] == 0
    assert not [
        e for e in events.tail(events.LOG.capacity)
        if e["event"] == "rewrite.sandboxed"
    ]
    assert delta["queries"] >= sum(answered) > 20
    assert delta["cache_shape_hits"] > 0 and delta["cache_misses"] > 0
    assert delta["cache_hits"] + delta["cache_negative_hits"] + delta[
        "cache_misses"
    ] == delta["queries"]
    db.close()
