"""Compare two sets of ledger runs, one row per (workload, metric).

    python3 benchmarks/ledger/compare.py A.json B.json

``A`` is the base, ``B`` the candidate; both are files written by
``run.py --all --repeat N --out``. A metric has *regressed* when B's
median is worse than A's by more than the bound ``BENCHMARK.json`` fixes
for it. It is *unresolved*, not unchanged, when either side's own
run-to-run spread (interquartile range over median) is wider than that
bound: then the runs cannot tell. Exits non-zero unless every row is ok.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def values_by_pair(path: str, metrics) -> dict[tuple[str, str], list[float]]:
    pairs: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for metric in metrics:
            pairs.setdefault((run["workload"], metric), []).append(
                run["values"][metric]
            )
    return pairs


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def compare(base_path: str, candidate_path: str) -> list[dict]:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    base = values_by_pair(base_path, metrics)
    candidate = values_by_pair(candidate_path, metrics)
    rows = []
    for (workload, name), base_values in base.items():
        entry = metrics[name]
        candidate_values = candidate[(workload, name)]
        a = statistics.median(base_values)
        b = statistics.median(candidate_values)
        worse = (b - a) / a if entry["better"] == "lower" else (a - b) / a
        widest = max(spread(base_values), spread(candidate_values))
        if widest > entry["bound"]:
            verdict = "unresolved"
        elif worse > entry["bound"]:
            verdict = "regressed"
        else:
            verdict = "ok"
        rows.append({
            "workload": workload, "metric": name, "unit": entry["unit"],
            "base": a, "candidate": b, "ratio": b / a,
            "bound": entry["bound"], "spread": widest,
            "runs": (len(base_values), len(candidate_values)),
            "verdict": verdict,
        })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows = compare(*argv)
    print(f"{'workload':<17}{'metric':<23}{'base':>12}{'candidate':>12}"
          f"{'B/A':>8}{'bound':>7}{'spread':>8}  verdict")
    for row in rows:
        print(f"{row['workload']:<17}{row['metric']:<23}"
              f"{row['base']:>12.4f}{row['candidate']:>12.4f}"
              f"{row['ratio']:>8.3f}{row['bound']:>7.2f}{row['spread']:>8.3f}"
              f"  {row['verdict']}  ({row['unit']}, of base "
              f"{row['base']:.4f}, runs {row['runs'][0]}/{row['runs'][1]})")
    return 0 if all(row["verdict"] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
