"""Batch-executor throughput: the batch-size sweep.

The columnar executor processes relations as whole column batches with
selection vectors; the morsel size (``batch_rows``) controls how much
work each inner loop does between scheduling/tick points. This benchmark
measures raw rows/sec on the three hot shapes over the mini TPC-D data:

* **scan** — filter + arithmetic projection + scalar aggregate (Q6 shape);
* **join** — hash join Lineitem ⋈ Orders with a post-join aggregate;
* **group-by** — hash grouping with four aggregates (Q1 shape);

each at batch sizes 1 / 256 / 4096. Batch 1 degenerates to row-at-a-time
morsels and shows the per-batch overhead floor; 4096 is ``BATCH_ROWS``.
(The thread-parallel scaling section went with the path it measured —
docs/EXECUTOR.md, "Why there is no thread-parallel path".)

Run standalone (``PYTHONPATH=src python
benchmarks/bench_executor_batch.py``) or with ``--fast`` for a
seconds-long CI smoke run. Emits ``BENCH_executor.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.engine import Executor  # noqa: E402
from repro.qgm import build_graph  # noqa: E402
from repro.workloads import tpcd  # noqa: E402

SHAPES = {
    "scan": (
        "select sum(extendedprice * (1 - discount)) as revenue "
        "from Lineitem where quantity < 24 and discount >= 0.02"
    ),
    "join": (
        "select orderpriority, count(*) as n, sum(extendedprice) as total "
        "from Lineitem, Orders where lorderkey = orderkey "
        "group by orderpriority"
    ),
    "group-by": (
        "select returnflag, linestatus, sum(quantity) as sum_qty, "
        "sum(extendedprice) as sum_base, avg(discount) as avg_disc, "
        "count(*) as cnt from Lineitem group by returnflag, linestatus"
    ),
}
BATCH_SIZES = (1, 256, 4096)


def _median_seconds(run, reps: int) -> float:
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def bench(orders: int, reps: int) -> dict:
    database = tpcd.build_tpcd_db(orders=orders)
    lineitem = len(database.tables["lineitem"])
    input_rows = {
        "scan": lineitem,
        "join": lineitem + len(database.tables["orders"]),
        "group-by": lineitem,
    }
    graphs = {
        name: build_graph(sql, database.catalog)
        for name, sql in SHAPES.items()
    }

    result: dict = {"orders": orders, "reps": reps, "shapes": {}}
    for name, graph in graphs.items():
        by_batch = {}
        for batch_rows in BATCH_SIZES:
            executor = Executor(database.tables, batch_rows=batch_rows)
            executor.run(graph)  # warm-up
            seconds = _median_seconds(lambda: executor.run(graph), reps)
            by_batch[str(batch_rows)] = {
                "ms": seconds * 1e3,
                "rows_per_sec": input_rows[name] / seconds,
            }
        result["shapes"][name] = {
            "input_rows": input_rows[name],
            "by_batch_rows": by_batch,
        }

    database.close()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI smoke mode: smaller database, fewer repetitions",
    )
    parser.add_argument("--orders", type=int, default=None)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument(
        "--json",
        type=Path,
        default=Path("BENCH_executor.json"),
        help="where to write the machine-readable result",
    )
    args = parser.parse_args(argv)
    orders = args.orders or (300 if args.fast else 2000)
    reps = args.reps or (3 if args.fast else 7)

    result = bench(orders, reps)
    args.json.write_text(json.dumps(result, indent=2) + "\n")

    print(f"mini TPC-D orders={orders}, reps={reps} (median)")
    for name, shape in result["shapes"].items():
        parts = ", ".join(
            f"batch {b}: {v['rows_per_sec'] / 1e3:8.1f}k rows/s"
            f" ({v['ms']:7.2f} ms)"
            for b, v in shape["by_batch_rows"].items()
        )
        print(f"  {name:<9} {parts}")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
