"""Set-up and tear-down: the database, the server process, the oracle.

The server under test is the shipped one, started the way an operator
would (``python -m repro serve``) as a separate process, so the load
generator never shares an interpreter lock with it. Everything the rig
writes lives under ``benchmarks/ledger/.work/``.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.bench.figures import FIGURES, make_database
from repro.engine.persist import save_database
from repro.engine.reference import ReferenceExecutor
from repro.engine.table import tables_equal
from repro.errors import ReproError
from repro.server.client import ConnectionLost, ReproClient
from repro.workloads.datagen import GeneratorConfig, bench_config

from calibrate import REFERENCE_MS
from pools import Pools

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
WORK_ROOT = LEDGER_DIR / ".work"

#: flush policy of the journal. ``os`` (write, no fsync) survives the
#: SIGKILL the durability check delivers; fsync latency on a shared
#: sandbox disk is noise, not a property of the code.
WAL_SYNC = "os"
CHECKPOINT_EVERY = 32
#: 432 ``Trans`` rows: the reference executor builds full cartesian
#: products, and fig05_q2 joins three tables
REFERENCE_CONFIG = GeneratorConfig(
    customers=6, accounts_per_customer=2, cities=12,
    transactions_per_account_year=12,
)


class WrongAnswer(ReproError):
    """An oracle disagreement: the run is incorrect, whatever its speed."""


def figure_asts() -> dict[str, str]:
    """The nine distinct ASTs of the paper's figures, by name."""
    return {name: sql for name, sql, _query, _pattern in FIGURES.values()}


def build_database(config, timings: dict[str, float] | None = None):
    """The credit-card star schema with all nine figure ASTs installed."""
    started = time.perf_counter()
    database = make_database(config)
    loaded = time.perf_counter()
    for name, sql in figure_asts().items():
        database.create_summary_table(name, sql)
    if timings is not None:
        timings["workloads.datagen_s"] = loaded - started
        timings["asts.materialize_s"] = time.perf_counter() - loaded
    return database


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServerProcess:
    """``python -m repro serve`` on a saved database and a journal."""

    def __init__(self, work: Path):
        self.work = work
        self.db_dir = work / "db"
        self.wal_dir = work / "wal"
        self.port = _free_port()
        self.process: subprocess.Popen | None = None
        self._log = None

    def command(self) -> list[str]:
        return [
            sys.executable, "-m", "repro", "serve",
            "--open", str(self.db_dir),
            "--port", str(self.port),
            "--wal", str(self.wal_dir),
            "--sync", WAL_SYNC,
            "--checkpoint-every", str(CHECKPOINT_EVERY),
        ]

    def start(self, timeout: float = 60.0) -> float:
        """Start (or restart, recovering the journal) and wait for the
        first ``ping``; returns the seconds that took."""
        started = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
        ))
        self._log = open(self.work / "server.log", "ab")
        self.process = subprocess.Popen(
            self.command(), env=env, cwd=self.work,
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        deadline = started + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}; "
                    f"see {self.work / 'server.log'}"
                )
            try:
                with self.connect() as client:
                    client.ping()
                return time.perf_counter() - started
            except ConnectionLost:
                if time.perf_counter() > deadline:
                    self.stop(kill=True)
                    raise RuntimeError("server did not answer a ping in time")
                time.sleep(0.01)

    def connect(self) -> ReproClient:
        return ReproClient("127.0.0.1", self.port, timeout=60.0)

    def stop(self, kill: bool = False) -> None:
        """SIGTERM (graceful drain) or SIGKILL, then wait for the exit."""
        if self.process is not None:
            if self.process.poll() is None:
                self.process.send_signal(
                    signal.SIGKILL if kill else signal.SIGTERM
                )
                try:
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            self.process = None
        if self._log is not None:
            self._log.close()
            self._log = None

    # -- /proc readings of the server process ---------------------------
    def cpu_seconds(self) -> float:
        """utime + stime of the server so far."""
        assert self.process is not None
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_mb(self, field: str = "VmRSS") -> float:
        """Resident memory now, or with ``VmHWM`` its high-water mark."""
        assert self.process is not None
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no {field} in /proc status")


class SpeedProbe:
    """``calibrate.py`` as a child process, and its readings."""

    def __init__(self):
        WORK_ROOT.mkdir(exist_ok=True)
        self._path = WORK_ROOT / f"probe-{os.getpid()}.txt"
        self._out = open(self._path, "w")
        self._process = subprocess.Popen(
            [sys.executable, str(LEDGER_DIR / "calibrate.py")],
            stdout=self._out,
        )

    def factor(self, begin: float, end: float) -> float:
        """How much slower than the reference speed the machine ran
        between the wall-clock times ``begin`` and ``end`` (1.0 = at
        reference speed): mean CPU time of a probe pass over the
        reference. Timings are divided by it, rates multiplied."""
        readings = []
        for line in self._path.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2 and begin <= float(fields[0]) <= end:
                readings.append(float(fields[1]))
        if len(readings) < 3:
            raise RuntimeError("the speed probe gave no readings")
        return statistics.mean(readings) * 1000.0 / REFERENCE_MS

    def close(self) -> None:
        self._process.kill()
        self._process.wait()
        self._out.close()
        self._path.unlink(missing_ok=True)


@dataclass
class Rig:
    """One finished set-up: the in-process database the pools were
    profiled on, the running server, and what each step cost."""

    database: object
    server: ServerProcess
    timings: dict[str, float]

    def close(self) -> None:
        self.server.stop()
        shutil.rmtree(self.server.work, ignore_errors=True)


def set_up() -> Rig:
    """Data, nine ASTs, save, server start to first ping. Returns with
    the server running; ``timings['setup_s']`` is the whole of it,
    ``timings['began']``/``['ended']`` its wall-clock interval."""
    started = time.perf_counter()
    timings: dict[str, float] = {"began": time.time()}
    database = build_database(bench_config(1.0), timings)
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"run-{os.getpid()}-{time.monotonic_ns()}"
    work.mkdir()
    server = ServerProcess(work)
    saving = time.perf_counter()
    save_database(database, server.db_dir)
    timings["engine.persist_save_s"] = time.perf_counter() - saving
    try:
        timings["server.start_s"] = server.start()
    except BaseException:
        server.stop(kill=True)
        shutil.rmtree(work, ignore_errors=True)
        raise
    timings["setup_s"] = time.perf_counter() - started
    timings["ended"] = time.time()
    return Rig(database, server, timings)


# ----------------------------------------------------------------------
# the oracle
def verify_templates(seed: int, pick) -> int:
    """AST answer == base-table answer == the naive reference executor,
    for the statements ``pick(pools)`` selects from the pools of
    ``seed``, on a copy of the schema small enough for the reference's
    cartesian products (it is an independent engine: no pushdown, no
    hash join, grouping by sorting). Returns the statements checked."""
    database = build_database(REFERENCE_CONFIG)
    statements = pick(Pools(database, seed))
    for statement in statements:
        rewritten = database.execute(statement.sql)
        base = database.execute(statement.sql, use_summary_tables=False)
        reference = ReferenceExecutor(database.tables).run(
            database.bind(statement.sql)
        )
        _require_equal(statement, "AST vs base (small copy)", rewritten, base)
        _require_equal(statement, "base vs reference", base, reference)
        _require_rows(statement, len(reference))
    return len(statements)


def verify_server(client: ReproClient, statements, rows: bool = True) -> int:
    """The server's AST answer == its ``use_summary_tables=False``
    answer (bag equality), and with ``rows`` both have the row count
    the statement was profiled with."""
    for statement in statements:
        rewritten = client.query(statement.sql).table
        base = client.query(statement.sql, use_summary_tables=False).table
        _require_equal(statement, "server AST vs base", rewritten, base)
        if rows:
            _require_rows(statement, len(base))
    return len(statements)


def _require_equal(statement, what: str, left, right) -> None:
    if not tables_equal(left, right):
        raise WrongAnswer(
            f"{what}: {len(left)} vs {len(right)} rows differ for "
            f"{statement.template}: {statement.sql}"
        )


def _require_rows(statement, rows: int) -> None:
    if rows != statement.rows:
        raise WrongAnswer(
            f"{statement.template}: {rows} rows, profile says "
            f"{statement.rows}: {statement.sql}"
        )
