"""Compare two ``run.py --out`` reports, metric by metric.

    python benchmarks/e2e/compare.py BASE.json CHANGE.json

For every (workload, end-to-end metric) it prints both medians with their
quartiles, the relative change (positive = worse) against the metric's
bound from BENCHMARK.json, and a verdict:

* exact metrics compare for equality: ``same``, or ``better``/``worse``
  by the metric's direction;
* ``unresolved`` when the base's own spread (q3 - q1, as a share of its
  median) is wider than the bound, unless every change sample beats
  every base sample (then ``better``);
* ``worse`` when the change's median is worse by more than the bound;
* ``better`` when the medians differ by more than the base's spread and
  the change wins at least nine tenths of the sample pairs;
* a gain needs at least :data:`MIN_PAIRS` samples a side; with fewer it
  reads ``same`` (or ``unresolved``);
* ``same`` otherwise;
* ``info`` for metrics without a bound (stopwatch times, peak memory).

Exits 1 when any verdict is ``worse`` or a metric is missing from one side.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Fewest sample pairs on which a gain may be claimed.
MIN_PAIRS = 10


def _better(a: float, b: float, direction: str) -> bool:
    """True when ``b`` reads better than ``a``."""
    return b < a if direction == "lower" else b > a


def verdict(base: dict, change: dict, bound: float | None) -> tuple[str, float]:
    """(verdict, relative change with positive = worse) for one metric."""
    a, b, direction = base["value"], change["value"], base["better"]
    worse = ((b - a) if direction == "lower" else (a - b)) / a if a else 0.0
    if base["exact"]:
        if a == b:
            return "same", worse
        return ("better" if _better(a, b, direction) else "worse"), worse
    if bound is None:
        return "info", worse
    spread = (base["q3"] - base["q1"]) / a
    pairs = list(zip(base["samples"], change["samples"]))
    wins = sum(_better(x, y, direction) for x, y in pairs)
    enough = len(pairs) >= MIN_PAIRS
    every_run_better = all(
        _better(x, y, direction) for x in base["samples"] for y in change["samples"]
    )
    if spread > bound:
        return ("better" if enough and every_run_better else "unresolved"), worse
    if worse > bound:
        return "worse", worse
    if enough and -worse > spread and wins >= 0.9 * len(pairs):
        return "better", worse
    return "same", worse


def compare(base: dict, change: dict, bounds: dict[str, float]) -> list[dict]:
    rows = []
    for workload, report in base["workloads"].items():
        other = change["workloads"].get(workload, {}).get("metrics", {})
        for name, metric in report["metrics"].items():
            row = {"workload": workload, "metric": name, "base": metric,
                   "change": other.get(name), "bound": bounds.get(name)}
            if row["change"] is None:
                row["verdict"], row["worse"] = "missing", 0.0
            else:
                row["verdict"], row["worse"] = verdict(metric, row["change"], row["bound"])
            rows.append(row)
    return rows


def _fmt(metric: dict | None) -> str:
    if metric is None:
        return f"{'-':>30s}"
    if metric["exact"]:
        return f"{metric['value']:>14.6g} {'(exact)':>15s}"
    return f"{metric['value']:>14.6g} [{metric['q1']:.4g}, {metric['q3']:.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (json.loads(Path(p).read_text()) for p in argv)
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    rows = compare(base, change, bounds)
    print(f"{'workload':16s} {'metric':26s} {'base median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  verdict")
    for row in rows:
        bound = "exact" if row["base"]["exact"] else (
            "-" if row["bound"] is None else f"{row['bound']:.0%}"
        )
        print(f"{row['workload']:16s} {row['metric']:26s} {_fmt(row['base'])} "
              f"{_fmt(row['change'])} {row['worse']:>+8.2%} {bound:>6s}  {row['verdict']}")
    return 1 if any(r["verdict"] in ("worse", "missing") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
