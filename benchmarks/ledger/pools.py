"""Seeded statement pools: the paper's figure queries as one-slot templates.

Each of the eleven figure queries (``repro.bench.figures.FIGURES``) gets
one numeric slot ``{v}`` — a ``HAVING``/``WHERE`` threshold placed so
the figure's AST still matches. A threshold has a near-unbounded value
space, which the ``adhoc`` pool needs: no statement text may repeat
within a run, so the 256-entry result cache and the rewrite decision
cache (both keyed on constants) never hit. Low-cardinality slots
(``country``, ``month(date) >= m``) cannot give that, so they stay fixed.

The slot range of a template comes from its *profile*: one base-table
query, run once at set-up, that returns the thresholded measure for
every candidate output row. The same profile is the run-time oracle for
row counts: a reply to slot value ``v`` must have exactly as many rows
as the profile has measures ``> v``.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

#: ad hoc slot values per template and run; a run that needs more fails
ADHOC_VALUES = 4096
DASHBOARD_SIZE = 32
ORACLE_SAMPLE = 64
_GRID = 1 << 20


@dataclass(frozen=True)
class Template:
    name: str
    #: statement text with one ``{v}`` slot
    sql: str
    #: base-table query returning the slot's measure per candidate row
    profile_sql: str
    measure: str
    #: lowest slot value for which the profile still describes the result
    floor: float = 0.0


TEMPLATES: tuple[Template, ...] = (
    Template(
        "fig02_q1",
        "select faid, state, year(date) as year, count(*) as cnt "
        "from Trans, Loc where flid = lid and country = 'USA' "
        "group by faid, state, year(date) having count(*) > {v}",
        "select faid, state, year(date) as year, count(*) as cnt "
        "from Trans, Loc where flid = lid and country = 'USA' "
        "group by faid, state, year(date)",
        "cnt",
    ),
    Template(
        "fig05_q2",
        "select aid, status, qty * price * (1 - disc) as amt "
        "from Trans, PGroup, Acct where pgid = fpgid and faid = aid "
        "and price > {v} and disc > 0.1 and pgname = 'TV'",
        "select price from Trans, PGroup, Acct where pgid = fpgid "
        "and faid = aid and price > 100 and disc > 0.1 and pgname = 'TV'",
        "price",
        floor=100.0,
    ),
    Template(
        "fig06_q4",
        "select year(date) as year, sum(qty * price) as value from Trans "
        "group by year(date) having sum(qty * price) > {v}",
        "select year(date) as year, sum(qty * price) as value from Trans "
        "group by year(date)",
        "value",
    ),
    Template(
        "fig07_q6",
        "select year(date) % 100 as yr, sum(qty * price) as value "
        "from Trans where month(date) >= 6 group by year(date) % 100 "
        "having sum(qty * price) > {v}",
        "select year(date) % 100 as yr, sum(qty * price) as value "
        "from Trans where month(date) >= 6 group by year(date) % 100",
        "value",
    ),
    Template(
        "fig08_q7",
        "select lid, year(date) as year, count(*) as cnt from Trans, Loc "
        "where flid = lid and country = 'USA' group by lid, year(date) "
        "having count(*) > {v}",
        "select lid, year(date) as year, count(*) as cnt from Trans, Loc "
        "where flid = lid and country = 'USA' group by lid, year(date)",
        "cnt",
    ),
    Template(
        "fig10_q8",
        "select tcnt, count(*) as ycnt from (select year(date) as year, "
        "count(*) as tcnt from Trans group by year(date)) "
        "where tcnt > {v} group by tcnt",
        "select tcnt, count(*) as ycnt from (select year(date) as year, "
        "count(*) as tcnt from Trans group by year(date)) group by tcnt",
        "tcnt",
    ),
    Template(
        "fig11_q10",
        "select flid, count(*) / (select count(*) from Trans) as cntpct "
        "from Trans, Loc where flid = lid and country = 'USA' "
        "group by flid having count(*) > {v}",
        "select flid, count(*) as cnt from Trans, Loc "
        "where flid = lid and country = 'USA' group by flid",
        "cnt",
    ),
    Template(
        "fig13_q11_1",
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "where year(date) > 1990 group by flid, year(date) "
        "having count(*) > {v}",
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "where year(date) > 1990 group by flid, year(date)",
        "cnt",
    ),
    Template(
        "fig13_q11_2",
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "where month(date) >= 6 group by flid, year(date) "
        "having count(*) > {v}",
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "where month(date) >= 6 group by flid, year(date)",
        "cnt",
    ),
    Template(
        "fig14_q12_1",
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "where year(date) > 1990 "
        "group by grouping sets ((flid, year(date)), (year(date))) "
        "having count(*) > {v}",
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "where year(date) > 1990 "
        "group by grouping sets ((flid, year(date)), (year(date)))",
        "cnt",
    ),
    Template(
        "fig14_q12_2",
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "where year(date) > 1990 "
        "group by grouping sets ((flid), (year(date))) "
        "having count(*) > {v}",
        "select flid, year(date) as year, count(*) as cnt from Trans "
        "where year(date) > 1990 "
        "group by grouping sets ((flid), (year(date)))",
        "cnt",
    ),
)


@dataclass(frozen=True)
class Statement:
    template: str
    sql: str
    #: rows a correct reply has, on the data the pool was profiled on
    rows: int


class Pools:
    """The ``adhoc`` and ``dashboard`` pools for one seed and one
    database. ``database`` is only read (eleven base-table profile
    queries); the server never sees anything but the generated text."""

    def __init__(self, database, seed: int):
        rng = random.Random(seed)
        count = len(TEMPLATES)
        # Each template draws its values once, without repetition: the
        # first ADHOC_VALUES feed the ad hoc sequence, the rest the
        # dashboard pool and the set-up oracle, so a measured ad hoc
        # statement is never already in the result cache.
        per_dashboard = -(-DASHBOARD_SIZE // count)
        per_oracle = -(-ORACLE_SAMPLE // count)
        self._measures: dict[str, list[float]] = {}
        self._values: dict[str, list[float]] = {}
        for template in TEMPLATES:
            profile = database.execute(
                template.profile_sql, use_summary_tables=False
            )
            column = list(profile.columns).index(template.measure)
            measures = sorted(float(row[column]) for row in profile.rows)
            if not measures:
                raise ValueError(f"{template.name}: empty profile")
            self._measures[template.name] = measures
            # Between a quarter and half of a large measure (the ninth
            # decile, so a cube's grand totals do not set the scale):
            # above the stray one-row groups the data generator scatters,
            # below the bulk, so every result is non-empty and stays the
            # size class of the figure's own (fig05_q2 thousands of rows,
            # fig10_q8 one) on any scale of the schema.
            large = measures[len(measures) * 9 // 10]
            high = large / 2
            low = max(template.floor, large / 4)
            step = (high - low) / _GRID
            cells = rng.sample(
                range(_GRID), ADHOC_VALUES + per_dashboard + per_oracle
            )
            self._values[template.name] = [
                round(low + step * cell, 6) for cell in cells
            ]
        self.dashboard = [
            self._nth(i, ADHOC_VALUES) for i in range(DASHBOARD_SIZE)
        ]
        #: ad hoc statements for the set-up oracle, plus per template the
        #: two edge cases aggregate rewriting gets wrong first: a
        #: threshold above every measure (empty result, empty groups)
        #: and one below every measure (every duplicate group survives)
        self.oracle_sample = [
            self._nth(i, ADHOC_VALUES + per_dashboard)
            for i in range(ORACLE_SAMPLE)
        ]
        for template in TEMPLATES:
            measures = self._measures[template.name]
            self.oracle_sample.append(self.bind(template, measures[-1] + 1.0))
            self.oracle_sample.append(
                self.bind(template, max(template.floor, measures[0] - 1.0))
            )

    def _nth(self, index: int, offset: int = 0) -> Statement:
        """Templates round-robin; each turn takes the next slot value."""
        template = TEMPLATES[index % len(TEMPLATES)]
        value = self._values[template.name][offset + index // len(TEMPLATES)]
        return self.bind(template, value)

    def bind(self, template: Template, value: float) -> Statement:
        measures = self._measures[template.name]
        rows = len(measures) - bisect.bisect_right(measures, value)
        return Statement(
            template.name, template.sql.format(v=repr(value)), rows
        )

    def adhoc(self, index: int) -> Statement:
        """Statement ``index`` of the run's ad hoc sequence."""
        if index // len(TEMPLATES) >= ADHOC_VALUES:
            raise IndexError("ad hoc pool exhausted; raise ADHOC_VALUES")
        return self._nth(index)
