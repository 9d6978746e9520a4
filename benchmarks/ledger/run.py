"""The performance ledger: one seeded benchmark, four workloads.

    python3 benchmarks/ledger/run.py --workload adhoc_ast --seed 1 \\
        --seconds 10 --trace 0 [--out run.json]
    python3 benchmarks/ledger/run.py --all --repeat 10 --out set.json

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` (``--traced``) the per-layer ones; the last line of
standard output is one JSON object. The exit code is non-zero on a wrong
answer or a lost acknowledged write. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
# The program under test. A checkout without src/ has nothing to
# measure: the imports below fail and the command exits non-zero.
sys.path.insert(0, str(REPO_ROOT / "src"))

import drive  # noqa: E402
import rig  # noqa: E402
import staged  # noqa: E402
from pools import Pools  # noqa: E402

WORKLOADS = ("adhoc_ast", "adhoc_base", "dashboard_cached", "ingest_mixed")
SETUP_REPEATS = 2
WARMUP_SHARE = 0.1
PINGS = 300


@functools.cache
def contract() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def stamp(seed: int, seconds: float, server_command: list[str]) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    model = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "seed": seed,
        "window_s": seconds,
        "connections": 2,
        "loop": "closed",
        "wal_sync": rig.WAL_SYNC,
        "server_command": server_command,
    }


# ----------------------------------------------------------------------
def reads_for(workload: str, pools):
    """The endless SELECT sequence of ``workload``."""
    if workload.startswith("adhoc"):
        return (pools.adhoc(i) for i in itertools.count())
    return itertools.cycle(pools.dashboard)


def roles_for(workload: str, pools, seed: int):
    """The threads of the generator; two connections in every workload."""
    if workload == "ingest_mixed":
        # every write changes what the statements return, so their row
        # counts are checked after the run instead (AST == base)
        reader = drive.Reader(reads_for(workload, pools), check_rows=False)
        return [drive.WriterBesideReader(drive.Writer(seed), reader)]
    reader = drive.Reader(
        reads_for(workload, pools),
        use_summary_tables=workload != "adhoc_base",
    )
    return [reader, reader]


def oracle_statements(workload: str, pools):
    """The statements the set-up oracle checks in full for ``workload``:
    the pool it draws from (a sample of it, for the ad hoc sequence)."""
    if workload.startswith("adhoc"):
        return pools.oracle_sample
    return pools.dashboard


@functools.cache
def units() -> dict[str, str]:
    spec = contract()
    return {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}


def at_reference_speed(values: dict, factor: float) -> dict:
    """Scale what was measured while the machine ran ``factor`` times
    slower than the reference speed (see calibrate.py): timings are
    divided by it, rates multiplied, everything else left alone."""
    unit_of = units()
    scaled = {}
    for name, value in values.items():
        unit = unit_of.get(name)
        if unit in ("ms", "s"):
            value = value / factor
        elif unit == "1/s":
            value = value * factor
        scaled[name] = value
    return scaled


def set_up_repeatedly(repeats: int, probe):
    """Set up ``repeats`` times and keep the last. One set-up is: data,
    nine ASTs, save, server start to the first ping. Returns the rig and
    each set-up's seconds, measured and at reference speed."""
    the_rig = None
    measured, scaled = [], []
    try:
        for _ in range(repeats):
            if the_rig is not None:
                the_rig.close()
            the_rig = rig.set_up()
            timings = the_rig.timings
            timings["factor"] = probe.factor(timings["began"], timings["ended"])
            measured.append(timings["setup_s"])
            scaled.append(timings["setup_s"] / timings["factor"])
    except BaseException:
        if the_rig is not None:
            the_rig.close()
        raise
    return the_rig, measured, scaled


def check_durability(server, writer, pools) -> dict:
    """SIGKILL the server, restart it on the same journal, and require
    the acknowledged inserts minus the acknowledged deletes, exactly;
    then the dashboard pool, AST == base, on the recovered server."""
    server.stop(kill=True)
    recover_s = server.start()
    with server.connect() as client:
        present = {
            row[0] for row in client.query(
                f"select tid from Trans where tid >= {drive.FIRST_WRITE_TID}"
            ).table.rows
        }
        expected = set(writer.live)
        if present != expected:
            raise rig.WrongAnswer(
                f"after SIGKILL and restart: {len(expected - present)} "
                f"acknowledged write(s) lost, {len(present - expected)} "
                "unacknowledged or deleted row(s) present"
            )
        # the pool's row counts were profiled before the writes; that
        # the two plans agree is what must still hold
        reverified = rig.verify_server(client, pools.dashboard, rows=False)
    return {
        "acked_live_keys": len(expected),
        "recover_s": recover_s,
        "reverified": reverified,
    }


def counter(metrics: dict, name: str, field: str = "value") -> float:
    return float(metrics.get(name, {}).get(field, 0.0))


def measure(server, roles, seconds: float, traced: bool) -> dict:
    """Warm-up and window against the running server, with the server's
    counters, CPU and memory read around them."""
    with server.connect() as control:
        before = control.metrics()
        checkpoints = control.status()["wal"]["checkpoints"]
        began = time.time()
        resident = server.rss_mb()
        cpu = server.cpu_seconds()
        warm_up, samples = drive.drive(
            server, roles, warmup=seconds * WARMUP_SHARE, window=seconds
        )
        cpu = server.cpu_seconds() - cpu
        ended = time.time()
        after = control.metrics()
        checkpoints = control.status()["wal"]["checkpoints"] - checkpoints
        pings = []
        for _ in range(PINGS if traced else 0):
            begin = time.perf_counter()
            control.ping()
            pings.append((time.perf_counter() - begin) * 1000.0)
    reads = [s for s in samples if s.kind == "read"]
    writes = [s for s in samples if s.kind == "write"]
    errors = [s.error for s in samples if s.error is not None]
    everything = drive.stream_metrics(samples, seconds, tail=0.95)
    read = drive.stream_metrics(reads, seconds, tail=0.95)
    values = {
        "qps": everything["qps"],
        "p50_ms": everything["p50_ms"],
        "p95_ms": everything["tail_ms"],
        # Before the load, not after it: under load the server's memory
        # follows the collector's timing (ingest_mixed ends anywhere
        # between 115 and 170 MB), which no bound can hold.
        "server_rss_mb": resident,
        "server.rss_growth_mb": server.rss_mb("VmHWM") - resident,
        # CPU and statements both cover warm-up and window, as one ratio
        "server_cpu_ms_per_req": cpu * 1000.0 / (len(warm_up) + len(samples)),
        "read_qps": read["qps"],
        "read_p50_ms": read["p50_ms"],
        "read_p95_ms": read["tail_ms"],
        "failed_frac": len(errors) / len(samples),
    }
    counts = {
        "all": everything["samples"], "beyond_p95": everything["beyond_tail"],
        "read": read["samples"], "read_beyond_p95": read["beyond_tail"],
    }
    if writes:
        write = drive.stream_metrics(writes, seconds, tail=0.90)
        values.update(
            write_qps=write["qps"], write_p50_ms=write["p50_ms"],
            write_p90_ms=write["tail_ms"],
        )
        counts.update(
            write=write["samples"], write_beyond_p90=write["beyond_tail"],
        )
    if pings:
        values["client.ping_ms"] = statistics.median(pings)
    by_template: dict[str, list[float]] = {}
    for sample in reads:
        by_template.setdefault(sample.template, []).append(sample.ms)
    for template, latencies in by_template.items():
        values[f"client.p50_ms.{template}"] = statistics.median(latencies)
    return {
        "values": values, "counts": counts, "interval": (began, ended),
        "attempted": len(samples), "errors": errors,
        "before": before, "after": after, "checkpoints": checkpoints,
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False) -> dict:
    probe = rig.SpeedProbe()
    the_rig = None
    try:
        the_rig, setups, setups_scaled = set_up_repeatedly(
            1 if traced or smoke else SETUP_REPEATS, probe
        )
        server = the_rig.server
        # the oracle: its time is the benchmark's, not the program's
        # set-up, and is reported beside setup_s, not inside it
        oracle_started = time.perf_counter()
        pools = Pools(the_rig.database, seed)
        roles = roles_for(workload, pools, seed)
        pick = functools.partial(oracle_statements, workload)
        with server.connect() as client:
            verified = rig.verify_server(client, pick(pools))
        templates_verified = rig.verify_templates(seed, pick)
        oracle_s = time.perf_counter() - oracle_started

        window = measure(server, roles, seconds, traced)
        factor = probe.factor(*window["interval"])
        measured = dict(window["values"], setup_s=statistics.median(setups))
        scaled = at_reference_speed(window["values"], factor)
        scaled["setup_s"] = statistics.median(setups_scaled)
        result = {
            "workload": workload,
            "traced": traced,
            "stamp": stamp(seed, seconds, server.command()),
            "oracle": {
                "templates_vs_reference": templates_verified,
                "server_ast_vs_base": verified,
                "oracle_s": oracle_s,
            },
            "attempted": window["attempted"],
            "failed": len(window["errors"]),
            "errors": window["errors"][:5],
            "samples": window["counts"],
            "setup_runs_s": setups,
            "speed_factor": factor,
            "measured": measured,
            "values": scaled,
        }
        if workload == "ingest_mixed":
            result["durability"] = check_durability(
                server, roles[0].writer, pools
            )
        if traced:
            layers, result["spans"] = per_layer(
                workload, seed, the_rig, pools, window, result, probe,
                60 if smoke else None,
            )
            result["values"].update(layers)
    finally:
        if the_rig is not None:
            the_rig.close()
        probe.close()
    return result


def per_layer(workload, seed, the_rig, pools, window, result, probe, limit):
    """The staged replay plus the counter deltas of the untraced window,
    every timing at reference speed."""
    before, after = window["before"], window["after"]

    def delta(name: str, field: str = "value") -> float:
        return counter(after, name, field) - counter(before, name, field)

    requests = limit or staged.REPLAY_REQUESTS
    writes: list[str] = []
    if workload == "ingest_mixed":
        # the writer's first statements, one per READS_PER_WRITE reads
        writer = drive.Writer(seed)
        for _ in range(min(staged.REPLAY_WRITES, requests // drive.READS_PER_WRITE)):
            writer.write(writes.append)
        requests = len(writes) * drive.READS_PER_WRITE
    use_asts = workload != "adhoc_base"
    reads = [
        (s.sql, s.template, use_asts)
        for s in itertools.islice(reads_for(workload, pools), requests)
    ]
    warm = []
    if not workload.startswith("adhoc"):
        warm = [(s.sql, s.template, True) for s in pools.dashboard]
    began = time.time()
    replayed = staged.replay(the_rig.server.work, reads, writes, warm)
    layers = at_reference_speed(
        replayed["layers"], probe.factor(began, time.time())
    )
    timings = the_rig.timings
    layers.update(at_reference_speed(
        {name: value for name, value in timings.items() if "." in name},
        timings["factor"],
    ))
    values = result["values"]
    lookups = delta("cache.hits") + delta("cache.stale_hits") + delta("cache.misses")
    decisions = delta("rewrite_queries")
    # executor_rows is a histogram of the rows each executor run returned
    returned = delta("executor_rows", "sum")
    layers.update({
        "server.unattributed_ms":
            values["read_p50_ms"] - layers["staged.read_total_p50_ms"],
        "server.unattributed_write_ms":
            values.get("write_p50_ms", 0.0) - layers["staged.write_total_p50_ms"],
        "rewrite.decision_cache_hit_ratio":
            (delta("rewrite_cache_hits") + delta("rewrite_cache_negative_hits"))
            / decisions if decisions else 0.0,
        "engine.rows_in_per_row_out":
            delta("executor_batch_rows") / returned if returned else 0.0,
        "result_cache.hit_ratio":
            (delta("cache.hits") + delta("cache.stale_hits")) / lookups
            if lookups else 0.0,
        "result_cache.evictions": delta("cache.evictions"),
        "result_cache.invalidations": delta("cache.invalidations"),
        "result_cache.bytes": counter(after, "cache.bytes"),
        "replication.checkpoints": window["checkpoints"],
    })
    if "durability" in result:
        # the restart is its own interval; close enough to the window's
        layers["replication.wal_recover_s"] = (
            result["durability"]["recover_s"] / result["speed_factor"]
        )
    return layers, replayed["spans"]


# ----------------------------------------------------------------------
def emit(result: dict, out: str | None) -> int:
    """Print every metric by name and unit; the contract's JSON last."""
    spec = contract()
    values = result["values"]
    listed = spec["per_layer"] if result["traced"] else spec["end_to_end"]
    metrics = {}
    for entry in listed:
        # a layer a workload never enters reads 0 (no calls, no time)
        value = values.get(entry["name"], 0.0) if result["traced"] else values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(f"== {result['workload']} seed={result['stamp']['seed']} "
          f"window={result['stamp']['window_s']}s "
          f"{'traced' if result['traced'] else 'untraced'}; timings at "
          f"reference speed (machine ran {result['speed_factor']:.3f}x slower)")
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>14.4f} {metric['unit']}")
    if not result["traced"]:
        for name in sorted(set(values) - set(metrics)):
            print(f"  {name:<38} {values[name]:>14.4f}")
    print(f"  samples {result['samples']}  failed {result['failed']}"
          f"/{result['attempted']}  set-ups {result['setup_runs_s']} s")
    if "durability" in result:
        print(f"  durability {result['durability']}")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    if out is None and result["traced"]:
        out = str(LEDGER_DIR / ".work" / f"trace-{result['workload']}.json")
    if out is not None:
        Path(out).write_text(json.dumps(result, indent=1))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Alternate the workloads ``--repeat`` times, one seed per round,
    and write the whole set to ``--out``."""
    gated = [entry["name"] for entry in contract()["end_to_end"]]
    runs = []
    for round_ in range(args.repeat):
        for workload in WORKLOADS:
            seed = args.seed + round_
            result = run_workload(workload, seed, args.seconds, False, args.smoke)
            runs.append(result)
            print(f"{workload} seed={seed} " + " ".join(
                f"{name}={result['values'][name]:.4g}" for name in gated
            ), flush=True)
    derived = paper_speedup(runs)
    print(f"derived.paper_speedup = {derived['paper_speedup']:.2f}x "
          "(qps adhoc_ast / qps adhoc_base)")
    for template, ratio in derived["per_template"].items():
        print(f"  {template:<14} {ratio:8.2f}x")
    Path(args.out).write_text(json.dumps(
        {"runs": runs, "derived": derived}, indent=1
    ))
    return 1 if any(run["failed"] for run in runs) else 0


def paper_speedup(runs: list[dict]) -> dict:
    """The paper's own metric: rewritten against original, overall (qps)
    and per template (median client latency, base / AST)."""
    def median_of(workload: str, name: str) -> float:
        return statistics.median(
            run["values"][name] for run in runs if run["workload"] == workload
        )

    prefix = "client.p50_ms."
    return {
        "paper_speedup":
            median_of("adhoc_ast", "qps") / median_of("adhoc_base", "qps"),
        "per_template": {
            name[len(prefix):]:
                median_of("adhoc_base", name) / median_of("adhoc_ast", name)
            for name in sorted(runs[0]["values"]) if name.startswith(prefix)
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", help="write the full result (and spans) here")
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, --repeat times")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="2 s windows, one set-up, 60 replayed requests")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(contract()["run_seconds"])
    if args.all:
        if not args.out:
            parser.error("--all needs --out")
        return run_all(args)
    if not args.workload:
        parser.error("give --workload or --all")
    result = run_workload(
        args.workload, args.seed, args.seconds,
        bool(args.trace or args.traced), args.smoke,
    )
    return emit(result, args.out)


if __name__ == "__main__":
    sys.exit(main())
