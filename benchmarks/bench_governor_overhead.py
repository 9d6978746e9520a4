"""Governor overhead on the many-ASTs workload: disarmed must be free.

The query governor threads cooperative budget checks through all five
phases (parse / bind / match / compensate / execute). Its contract is
zero cost when disarmed: every instrumented site reads the thread-local
scope once per entry point and guards on ``is not None``, so a database
with no limits configured pays only the admission attribute check and a
handful of thread-local reads per query.

This benchmark pins that contract on the many-ASTs workload (64
registered summary tables, cold decision cache each run, so the matcher
dominates):

* **baseline** — the ungoverned pipeline body
  (``Database._run_stages`` called directly), i.e. the pipeline
  with no admission gate and no governor scope. The per-site
  ``is not None`` branches remain — they are one attribute read per
  token/pairing against work units measured in microseconds, below
  what wall-clock timing can resolve;
* **disarmed** — the public ``Database.execute`` path with no limits
  set: admission check + ``open_scope() -> None`` + scope passthrough;
* **armed** — ``Database.execute`` with effectively-infinite limits
  (huge timeout / maxrows / match budget), so every tick, checkpoint,
  and per-pairing budget charge actually runs. Reported for context;
  armed cost is real, bounded work, not a regression.

The gate: ``disarmed / baseline <= --limit`` (default 1.03, the ISSUE's
<=3% pin). Emits ``BENCH_governor.json`` for CI artifact diffing.

Run standalone (``PYTHONPATH=src python
benchmarks/bench_governor_overhead.py``) or with ``--fast`` for a
seconds-long CI smoke run (fewer ASTs/runs; the threshold is still
*printed* but not enforced — shared-runner timing is too noisy to gate).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_many_asts import QUERY, build_database  # noqa: E402

HUGE_TIMEOUT_MS = 1e9
HUGE_MAX_ROWS = 10**12
HUGE_MATCH_BUDGET = 10**9


def _fresh_cache(database) -> None:
    # toggling the cache off drops every entry; back on is empty
    database.configure_fast_path(cache=False)
    database.configure_fast_path(cache=True)


def time_pipeline(database, runs: int, mode: str) -> float:
    """Median seconds per cold-cache pipeline run in one of the modes."""
    samples = []
    for _ in range(runs):
        _fresh_cache(database)
        if mode == "baseline":
            start = time.perf_counter()
            database._run_stages(QUERY, QUERY, True, None, None, False)
            samples.append(time.perf_counter() - start)
        else:
            start = time.perf_counter()
            database.execute(QUERY)
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def set_limits(database, armed: bool) -> None:
    governor = database.governor
    governor.timeout_ms = HUGE_TIMEOUT_MS if armed else None
    governor.max_rows = HUGE_MAX_ROWS if armed else None
    governor.match_budget = HUGE_MATCH_BUDGET if armed else None


def run(ast_count: int, runs: int) -> dict:
    database = build_database(ast_count)
    database.configure_fast_path(index=True, cache=True)

    set_limits(database, armed=False)
    time_pipeline(database, max(2, runs // 3), "baseline")  # warm-up

    # Interleave the modes so drift (GC, frequency scaling) hits all
    # three equally instead of biasing whichever ran last.
    baseline_s, disarmed_s, armed_s = [], [], []
    rounds = 3
    per_round = max(3, runs // rounds)
    for _ in range(rounds):
        set_limits(database, armed=False)
        baseline_s.append(time_pipeline(database, per_round, "baseline"))
        disarmed_s.append(time_pipeline(database, per_round, "execute"))
        set_limits(database, armed=True)
        armed_s.append(time_pipeline(database, per_round, "execute"))
    set_limits(database, armed=False)

    baseline = statistics.median(baseline_s)
    disarmed = statistics.median(disarmed_s)
    armed = statistics.median(armed_s)
    assert database.governor.open_scope() is None  # disarmed means OFF
    database.close()
    return {
        "asts": ast_count,
        "runs_per_mode": rounds * per_round,
        "baseline_ms": baseline * 1e3,
        "disarmed_ms": disarmed * 1e3,
        "armed_ms": armed * 1e3,
        "disarmed_ratio": disarmed / baseline,
        "armed_ratio": armed / baseline,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI smoke mode: fewer ASTs and repetitions; the limit is "
        "printed but not enforced (shared runners are too noisy)",
    )
    parser.add_argument(
        "--runs", type=int, default=None, help="total runs per mode"
    )
    parser.add_argument(
        "--limit",
        type=float,
        default=1.03,
        help="max allowed disarmed/baseline ratio (default 1.03 = +3%%)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=Path("BENCH_governor.json"),
        help="where to write the machine-readable result",
    )
    args = parser.parse_args(argv)

    asts = 8 if args.fast else 64
    runs = args.runs or (6 if args.fast else 21)

    print(
        f"governor overhead on the many-ASTs workload "
        f"({asts} ASTs, cold decision cache, {runs} runs/mode)"
    )
    point = run(asts, runs)
    print(f"  baseline (ungoverned body) {point['baseline_ms']:>9.3f} ms")
    print(
        f"  disarmed (execute, no limits) {point['disarmed_ms']:>6.3f} ms "
        f"= {point['disarmed_ratio']:.3f}x"
    )
    print(
        f"  armed (huge limits)        {point['armed_ms']:>9.3f} ms "
        f"= {point['armed_ratio']:.3f}x"
    )

    point["limit"] = args.limit
    point["fast"] = args.fast
    point["passed"] = point["disarmed_ratio"] <= args.limit
    args.json.write_text(json.dumps(point, indent=2) + "\n")
    print(f"wrote {args.json}")

    if point["passed"]:
        print(
            f"PASS: disarmed ratio {point['disarmed_ratio']:.3f} "
            f"<= {args.limit:g}"
        )
        return 0
    message = (
        f"disarmed ratio {point['disarmed_ratio']:.3f} > {args.limit:g}"
    )
    if args.fast:
        print(f"note: {message} (not enforced in --fast mode)")
        return 0
    print(f"FAIL: {message}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
