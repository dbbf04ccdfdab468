"""End-to-end benchmark of the masking pipeline.

Runs four workloads (``table2``, ``threshold_sweep``, ``spcf_sweep``,
``campaign``; see README.md) one at a time.  Every pass runs in a fresh
subprocess (``child.py``), so process-global caches start cold, and the
parent only spawns, times set-up, aggregates and checks::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed N] [--repeats 3] [--out F]
    python3 benchmarks/e2e/run.py --workload table2 --seed 1 --seconds 10 --trace 0

``--repeats N`` runs N measured passes per workload; ``--seconds S`` instead
keeps starting passes until S seconds have gone by (at least one).  Metrics
are medians over passes.  ``setup_s`` is also sampled from set-up-only
subprocesses until there are :data:`SETUP_SAMPLES` samples.  ``--trace``
follows every measured pass with a traced one and reports per-layer self
times and counts.  Every pass is checked (see ``workloads.py``); at seed 0 every item
must also equal ``expected_seed0.json``.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only when every item of every pass passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTERS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected_seed0.json"
OUT_DIR = HERE / "out"

WORKLOADS = ("table2", "threshold_sweep", "spcf_sweep", "campaign")

#: Median set-up time comes from at least this many subprocesses.
SETUP_SAMPLES = 3
#: A pass that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170

#: End-to-end metrics of every workload (BENCHMARK.json ``end_to_end``):
#: name -> (unit, better).  Measured with tracing off, in reference
#: seconds (``speed.py``).
E2E_METRICS = {
    "wall_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
}

#: Reported but not bounded: the stopwatch times before the speed
#: rescaling, and peak memory, which moves with the seed (threshold_sweep
#: read 82-145 MB over seeds 1-10) far more than any useful bound.
INFO_METRICS = {
    "raw_wall_s": ("s", "lower"),
    "raw_setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Metrics that are exact for a seed: any move in the wrong direction is a
#: regression, and a pure speed-up leaves them bit-identical.  Not every
#: workload has each, and ``failed_frac`` is 0 on a good run, so they are
#: checked through ``expected_seed0.json`` and ``compare.py`` rather than
#: listed in BENCHMARK.json.
EXACT_METRICS = {
    "failed_frac": ("ratio", "lower"),
    "area_overhead_pct": ("%", "lower"),
    "power_overhead_pct": ("%", "lower"),
    "slack_pct": ("%", "higher"),
    "coverage_pct_min": ("%", "higher"),
    "masking_effectiveness_pct": ("%", "higher"),
}


def layer_metrics() -> dict[str, tuple[str, str]]:
    """Per-layer metrics of a traced pass (BENCHMARK.json ``per_layer``).

    Self time is reported as a share of the traced wall time: a layer a
    workload never enters reads 0%, shares plus ``other_pct`` add to 100,
    and ``trace_wall_s`` turns a share back into seconds.
    """
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = ("%", "lower")
        metrics[f"{layer}.calls"] = ("count", "lower")
    for counter in COUNTERS:
        metrics[counter] = ("count", "lower")
    metrics["synth.trial_cost.hit_ratio"] = ("ratio", "higher")
    metrics["synth.collapse.eliminated_ratio"] = ("ratio", "higher")
    metrics["other_pct"] = ("%", "lower")
    metrics["trace_wall_s"] = ("s", "lower")
    metrics["trace_overhead"] = ("ratio", "lower")
    # Whole-process memory, from the untraced passes: listed here because
    # it has no usable bound (see INFO_METRICS) yet should stay visible.
    metrics["peak_rss_mb"] = ("MB", "lower")
    return metrics


class BenchError(Exception):
    """A pass could not run at all (as opposed to an item failing)."""


# ------------------------------------------------------------ subprocesses


def run_child(job: dict) -> dict:
    """Run one pass in a fresh interpreter; adds ``setup_s`` to its result.

    ``REPRO_*`` variables are dropped so every pass measures the default
    configuration (pure-Python engine, observability off).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=json.dumps(job),
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{job['workload']} pass killed after {CHILD_TIMEOUT_S}s"
        ) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{job['workload']} pass exited with {proc.returncode}")
    result = json.loads(lines[-1])
    # Interpreter start-up before the probe's first sample stays raw.
    result["setup_s"] = result["launched"] - spawned + result["setup_ref_s"]
    result["raw_setup_s"] = result["ready"] - spawned
    return result


def trace_path(workload: str, seed: int) -> Path:
    return OUT_DIR / f"trace-{workload}-seed{seed}.json"


def make_job(workload: str, seed: int, names, **flags) -> dict:
    job = {
        "workload": workload,
        "seed": seed,
        "names": names,
        "setup_only": False,
        "trace": False,
        "deep": False,
        "trace_path": str(trace_path(workload, seed)),
    }
    job.update(flags)
    return job


# ------------------------------------------------------------- statistics


def describe(samples: list[float], unit: str, better: str, exact: bool = False) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) of the samples."""
    median = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = median
    return {
        "value": median,
        "unit": unit,
        "better": better,
        "exact": exact,
        "q1": q1,
        "q3": q3,
        "samples": samples,
    }


def pass_metrics(result: dict) -> dict[str, float]:
    records = result["records"]
    attempted = sum(r["weight"] for r in records)
    failed = sum(r["weight"] for r in records if r["errors"])
    metrics = {
        "wall_s": result["wall_ref_s"],
        "items_per_s": attempted / result["wall_ref_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_frac": failed / attempted,
        "raw_wall_s": result["wall_raw_s"],
    }
    metrics.update(result["summary"])
    return metrics


def layer_report(traced: dict, overhead: float, peak_rss_mb: float) -> dict[str, dict]:
    """Per-layer metrics of one traced pass, plus ``*.self_s``/``other_s``.

    Self times are raw seconds (speed samples excluded), so they add up to
    the raw wall time; ``trace_wall_s`` is in reference seconds like the
    end-to-end metrics.
    """
    layers = traced["layers"]
    wall = traced["wall_raw_s"]
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layers["self_s"][layer]
        values[f"{layer}.self_pct"] = 100.0 * layers["self_s"][layer] / wall
        values[f"{layer}.calls"] = layers["calls"][layer]
    values.update(layers["counts"])
    calls = layers["calls"]["synth.trial_cost"]
    misses = layers["counts"]["synth.trial_cost.misses"]
    values["synth.trial_cost.hit_ratio"] = (calls - misses) / calls if calls else 0.0
    nodes_in = layers["counts"]["synth.collapse.nodes_in"]
    nodes_out = layers["counts"]["synth.collapse.nodes_out"]
    values["synth.collapse.eliminated_ratio"] = (
        (nodes_in - nodes_out) / nodes_in if nodes_in else 0.0
    )
    values["other_s"] = wall - sum(layers["self_s"].values())
    values["other_pct"] = 100.0 * values["other_s"] / wall
    values["trace_wall_s"] = traced["wall_ref_s"]
    values["trace_overhead"] = overhead
    values["peak_rss_mb"] = peak_rss_mb
    units = layer_metrics()
    units.update({f"{layer}.self_s": ("s", "lower") for layer in LAYERS})
    units["other_s"] = ("s", "lower")
    return {
        name: {"value": value, "unit": units[name][0], "better": units[name][1]}
        for name, value in values.items()
    }


# ----------------------------------------------------------------- checks


def _differences(got: dict, want: dict) -> list[str]:
    return [
        f"{key}: {got.get(key)!r} != {want.get(key)!r}"
        for key in sorted(set(got) | set(want))
        if got.get(key) != want.get(key)
    ]


def check_against(result: dict, reference: dict, label: str) -> None:
    """Mark every item whose output differs from ``reference`` as failed.

    ``reference`` maps item id -> output and may hold more items than the
    pass ran (a reduced circuit list); a ``summary`` key, when present, is
    compared only if the pass ran every item of the reference.
    """
    items = reference["items"]
    records = result["records"]
    for record in records:
        want = items.get(record["id"])
        if want is None:
            record["errors"].append(f"item missing from {label}")
        elif record["out"]:
            diffs = _differences(record["out"], want)
            if diffs:
                record["errors"].append(f"differs from {label}: " + "; ".join(diffs))
    if "summary" in reference and len(records) == len(items):
        diffs = _differences(result["summary"], reference["summary"])
        if diffs:
            for record in records:
                record["errors"].append(f"summary differs from {label}: " + "; ".join(diffs))


def outputs_of(result: dict) -> dict:
    return {
        "items": {r["id"]: r["out"] for r in result["records"]},
        "summary": result["summary"],
    }


# -------------------------------------------------------------- workloads


def measure(
    workload: str,
    seed: int,
    repeats: int,
    seconds: float | None,
    trace: bool,
    expected: dict | None,
    names: list[str] | None = None,
) -> dict:
    """All passes of one workload -> its report (metrics, counts, errors).

    With ``trace``, every measured pass is followed by a traced pass, and
    ``trace_overhead`` is the median of the back-to-back ratios: adjacent
    passes see the same host speed, a pass minutes away may not.
    """
    passes, traced = [], []
    start = time.monotonic()
    while True:
        # The expensive independent checks run once: later passes must
        # reproduce the first pass's outputs exactly.
        passes.append(run_child(make_job(workload, seed, names, deep=not passes)))
        if trace:
            traced.append(run_child(make_job(workload, seed, names, trace=True)))
        if seconds is None and len(passes) >= repeats:
            break
        if seconds is not None and time.monotonic() - start >= seconds:
            break
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(make_job(workload, seed, names, setup_only=True)))

    everything = passes + traced
    first = outputs_of(passes[0])
    for result in everything:
        if expected is not None:
            check_against(result, expected, "expected_seed0.json")
        if result is not passes[0]:
            check_against(result, first, "the first pass")

    per_pass = [pass_metrics(p) for p in passes]
    metrics = {}
    for name, (unit, better) in {**E2E_METRICS, **INFO_METRICS, **EXACT_METRICS}.items():
        if name in ("setup_s", "raw_setup_s"):
            metrics[name] = describe([r[name] for r in setups], unit, better)
        elif name in per_pass[0]:
            samples = [m[name] for m in per_pass]
            metrics[name] = describe(samples, unit, better, exact=name in EXACT_METRICS)
    report = {
        "passes": len(passes),
        "attempted": sum(r["weight"] for p in everything for r in p["records"]),
        "failed": sum(r["weight"] for p in everything for r in p["records"] if r["errors"]),
        "errors": sorted(
            {f"{r['id']}: {e}" for p in everything for r in p["records"] for e in r["errors"]}
        ),
        "metrics": metrics,
        "outputs": first,
    }
    if traced:
        # Layer detail comes from the last traced pass, the one whose
        # Chrome trace is on disk.
        overhead = statistics.median(
            t["wall_ref_s"] / p["wall_ref_s"] for p, t in zip(passes, traced)
        )
        report["layers"] = layer_report(
            traced[-1], overhead, metrics["peak_rss_mb"]["value"]
        )
        report["sites"] = traced[-1]["layers"]["sites"]
        report["trace_file"] = str(trace_path(workload, seed).relative_to(ROOT))
    return report


# -------------------------------------------------------------------- CLI


def contract_line(reports: dict[str, dict], trace: bool) -> dict:
    """The last stdout line: the metrics BENCHMARK.json lists, by name.

    With one workload the names are bare; with several they are prefixed
    ``<workload>.``.
    """
    wanted = layer_metrics() if trace else E2E_METRICS
    metrics = {}
    for workload, report in reports.items():
        source = report["layers"] if trace else report["metrics"]
        prefix = "" if len(reports) == 1 else f"{workload}."
        for name in wanted:
            metrics[prefix + name] = {"value": source[name]["value"], "unit": source[name]["unit"]}
    failed = sum(r["failed"] for r in reports.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": failed,
        "metrics": metrics,
    }


def print_report(workload: str, report: dict) -> None:
    print(f"== {workload}: {report['passes']} passes, "
          f"{report['attempted']} items attempted, {report['failed']} failed")
    for name, m in report["metrics"].items():
        tag = "exact" if m["exact"] else f"q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={len(m['samples'])}"
        print(f"  {name:28s} {m['value']:14.6f} {m['unit']:6s} ({m['better']} is better; {tag})")
    if "layers" in report:
        print(f"  -- traced pass ({report['trace_file']})")
        for name, m in report["layers"].items():
            if m["value"] or not name.endswith(("_s", "_pct", ".calls")):
                print(f"  {name:34s} {m['value']:14.6f} {m['unit']}")
    for error in report["errors"][:20]:
        print(f"  FAILED {error}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 uses the paper's circuits unchanged")
    parser.add_argument("--repeats", type=int, default=3,
                        help="measured passes per workload (default 3)")
    parser.add_argument("--seconds", type=float,
                        help="start passes until this many seconds have gone by "
                             "(at least one); overrides --repeats")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="follow every measured pass with a traced one; the last "
                             "line then holds the per-layer metrics")
    parser.add_argument("--out", type=Path, help="write the full report as JSON")
    parser.add_argument("--write-expected", action="store_true",
                        help="rewrite expected_seed0.json from this run (seed 0 only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.write_expected and args.seed != 0:
        parser.error("--write-expected needs --seed 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    workloads = tuple(dict.fromkeys(args.workload or WORKLOADS))
    expected = None
    if args.seed == 0 and not args.write_expected:
        if not EXPECTED.is_file():
            print(f"run.py: {EXPECTED} is missing; create it with --write-expected",
                  file=sys.stderr)
            return 2
        expected = json.loads(EXPECTED.read_text())["workloads"]

    reports = {}
    try:
        for workload in workloads:
            reports[workload] = measure(
                workload,
                args.seed,
                args.repeats,
                args.seconds,
                bool(args.trace),
                expected[workload] if expected else None,
            )
            print_report(workload, reports[workload])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    if args.write_expected:
        data = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {"workloads": {}}
        data["seed"] = 0
        for workload, report in reports.items():
            data["workloads"][workload] = report["outputs"]
        EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED.relative_to(ROOT)}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "schema": "repro-e2e/1",
            "seed": args.seed,
            "repeats": None if args.seconds else args.repeats,
            "seconds": args.seconds,
            "host": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
            },
            "workloads": {
                w: {k: v for k, v in r.items() if k != "outputs"} for w, r in reports.items()
            },
        }, indent=1) + "\n")

    line = contract_line(reports, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
