"""The load generator: closed-loop connections and the numbers they give.

Closed loop — each connection sends its next statement only after the
reply to the previous one — because the callers being modelled (report
tools, a loader) wait for their answers. Two connections on the two
cores of the sandbox; with the server in its own process the generator's
decoding never holds the server's interpreter lock.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass

from repro.errors import ReproError

#: first key the writer inserts; far above the generated ``Trans.tid``s
FIRST_WRITE_TID = 1_000_000
DELETE_EVERY = 8
READS_PER_WRITE = 8


@dataclass
class Sample:
    start: float
    ms: float
    kind: str  # "read" | "write"
    template: str
    #: None, or why the statement counts as failed
    error: str | None


def _timed(kind: str, template: str, sql: str, send, check=None) -> Sample:
    """Send one statement; an error reply, or a reply ``check`` objects
    to, makes the sample a failed one."""
    start = time.perf_counter()
    error = None
    try:
        reply = send(sql)
        if check is not None:
            error = check(reply)
    except ReproError as failure:
        error = f"{type(failure).__name__}: {failure}"
    elapsed = (time.perf_counter() - start) * 1000.0
    if error is not None:
        error = f"{error}: {sql}"
    return Sample(start, elapsed, kind, template, error)


class Reader:
    """SELECTs from one shared source, so two connections split one
    deterministic sequence between them; with ``check_rows`` a reply
    with another row count than the statement was profiled with fails."""

    def __init__(self, statements, use_summary_tables: bool = True,
                 check_rows: bool = True):
        self._next = iter(statements)
        self._lock = threading.Lock()
        self.use_summary_tables = use_summary_tables
        self.check_rows = check_rows

    def read(self, client) -> Sample:
        with self._lock:
            statement = next(self._next)

        def check(reply):
            if self.check_rows and len(reply.table) != statement.rows:
                return f"{len(reply.table)} rows, expected {statement.rows}"
            return None

        return _timed(
            "read", statement.template, statement.sql,
            lambda sql: client.query(
                sql, use_summary_tables=self.use_summary_tables
            ),
            check,
        )

    def run(self, server, deadline: float, samples: list[Sample]) -> None:
        with server.connect() as client:
            while time.perf_counter() < deadline:
                samples.append(self.read(client))


class Writer:
    """Single-row ``INSERT INTO Trans``; every ``DELETE_EVERY``-th
    statement deletes the oldest row this writer inserted. ``live`` is
    the set of keys whose insert was acknowledged and not deleted —
    what a restarted server must still hold."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._tids = itertools.count(FIRST_WRITE_TID)
        self._turn = 0
        self.live: dict[int, str] = {}

    def _row(self, tid: int) -> str:
        rng = self._rng
        return (
            f"({tid}, {rng.randint(1, 10)}, {rng.randint(1, 60)}, "
            f"{rng.randint(1, 120)}, date '{rng.randint(1990, 1992)}-"
            f"{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}', "
            f"{rng.randint(1, 5)}, {round(rng.uniform(5.0, 900.0), 2)}, "
            f"{rng.choice([0.0, 0.05, 0.1, 0.15, 0.2, 0.25])})"
        )

    def write(self, send) -> Sample:
        """Issue the next statement through ``send(sql)``. Only an
        acknowledged statement changes ``live``: those are the only ones
        the durability check may hold the server to."""
        self._turn += 1
        delete = self._turn % DELETE_EVERY == 0 and bool(self.live)
        if delete:
            tid = next(iter(self.live))
            row = self.live[tid]
        else:
            tid = next(self._tids)
            row = self._row(tid)
        verb = "delete from" if delete else "insert into"
        sample = _timed(
            "write", verb.split()[0], f"{verb} Trans values {row}", send
        )
        if sample.error is None:
            if delete:
                del self.live[tid]
            else:
                self.live[tid] = row
        return sample


class WriterBesideReader:
    """``ingest_mixed``: connection A writes one row, connection B then
    reads ``READS_PER_WRITE`` statements of its pool, and so on. The two
    take turns instead of overlapping because this server cannot overlap
    them without failing: a SELECT that scans a table while a write
    swaps or shrinks its column lists dies with "list index out of
    range" (about one read in 200 on fig05_q2; README, first findings),
    and a workload on which statements fail cannot be gated."""

    def __init__(self, writer: Writer, reader: Reader):
        self.writer = writer
        self.reader = reader

    def run(self, server, deadline: float, samples: list[Sample]) -> None:
        with server.connect() as writing, server.connect() as reading:
            while time.perf_counter() < deadline:
                samples.append(self.writer.write(writing.query))
                for _ in range(READS_PER_WRITE):
                    samples.append(self.reader.read(reading))


def drive(server, roles, warmup: float, window: float):
    """Run each role on its own thread for ``warmup + window`` seconds;
    returns the samples of the warm-up and those of the window."""
    buckets: list[list[Sample]] = [[] for _ in roles]
    begin = time.perf_counter()
    deadline = begin + warmup + window
    errors: list[BaseException] = []

    def guarded(role, bucket):
        try:
            role.run(server, deadline, bucket)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=guarded, args=(role, bucket))
        for role, bucket in zip(roles, buckets)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    cut = begin + warmup
    samples = [sample for bucket in buckets for sample in bucket]
    return (
        [s for s in samples if s.start < cut],
        [s for s in samples if s.start >= cut],
    )


def stream_metrics(samples: list[Sample], window: float,
                   tail: float) -> dict[str, float]:
    """Throughput, median and tail (nearest rank) of one statement
    stream over the whole window. Medians of slices of the window were
    tried and dropped: they were never steadier, and a sparse stream
    (four writes a second) quantises them."""
    latencies = sorted(sample.ms for sample in samples)
    rank = math.ceil(len(latencies) * tail)
    return {
        "qps": len(latencies) / window,
        "p50_ms": statistics.median(latencies),
        "tail_ms": latencies[rank - 1],
        "samples": len(latencies),
        "beyond_tail": len(latencies) - rank,
    }
