"""Campaign runner costs — shard throughput, isolation overhead, journal.

Measures the three costs that size a fault-injection campaign:

* **shard throughput** — vector pairs/sec of :func:`run_shard` per fault
  mode on ``comparator2`` (value modes evaluate zero-delay; timing modes
  pay for two event-driven waveform simulations per pair),
* **isolation overhead** — wall seconds per shard of the subprocess worker
  versus inline execution of the identical plan; the difference is the
  price of crash isolation (worker interpreter start + import + synthesis,
  paid once per pool worker),
* **queue overhead** — steady-state wall cost of the shared-directory
  work-queue backend versus the process pool at the same worker count;
  the difference is the price of elasticity (lease files, heartbeats,
  rename-based claims).  Gated at <= 1.25x only on machines with >= 4
  cores — below that the lanes are serialized by the scheduler and the
  ratio measures the CPU, not the protocol — but always recorded,
* **journal append cost** — fsync'd checkpoint appends/sec, the durability
  tax paid once per completed shard.

Results are printed as tables and written to ``BENCH_campaign.json`` next
to the repo root so the cost trajectory is tracked across PRs.

Run standalone (``python benchmarks/bench_campaign.py``) or via
``pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.campaign import (
    CampaignSpec,
    CheckpointWriter,
    RunnerConfig,
    ShardSpec,
    derive_seed,
    run_campaign,
    run_shard,
)
from repro.campaign.spec import FAULT_KINDS, normalize_mode

#: Circuit all costs are measured on; small enough that mode cost, not
#: synthesis, dominates each shard.
CIRCUIT = "comparator2"

#: Vector pairs per measured shard.
VECTORS = 64

#: Journal appends measured for the fsync cost.
APPENDS = 64

#: Worker count for the queue-vs-process comparison.
QUEUE_WORKERS = 4

#: Cores below which the queue overhead gate records but does not enforce.
QUEUE_GATE_CORES = 4

#: Steady-state queue backend budget relative to the process pool.
QUEUE_OVERHEAD_LIMIT = 1.25

#: Timing repeats; minimum-of-N filters scheduler/throttling spikes.
REPEATS = 3

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def measure_shards() -> list[dict]:
    """Vector pairs/sec of run_shard for every fault mode."""
    rows = []
    for kind in FAULT_KINDS:
        shard = ShardSpec(
            index=0,
            circuit=CIRCUIT,
            mode=normalize_mode(kind),
            vectors=VECTORS,
            seed=derive_seed(23, CIRCUIT, kind),
            clock_fraction=0.9,
        )
        run_shard(shard)  # warm the synthesized-design cache
        t, result = _best_of(REPEATS, lambda: run_shard(shard))
        rows.append(
            {
                "mode": shard.mode_key,
                "vectors": VECTORS,
                "seconds": t,
                "vectors_per_sec": VECTORS / t,
                "unmasked_errors": result["pairs_unmasked_errors"],
                "masked_errors": result["pairs_masked_errors"],
            }
        )
    return rows


def measure_isolation() -> dict:
    """Per-shard wall cost of subprocess isolation vs inline execution."""
    spec = CampaignSpec(
        circuits=(CIRCUIT,),
        modes=({"kind": "seu"},),
        shards_per_cell=2,
        vectors_per_shard=16,
        seed=23,
    )
    with TemporaryDirectory(prefix="bench-campaign-") as tmp:
        base = Path(tmp)
        t_inline, _ = _best_of(
            1,
            lambda: run_campaign(
                spec, base / "inline.jsonl", RunnerConfig(workers=0)
            ),
        )
        t_isolated, _ = _best_of(
            1,
            lambda: run_campaign(
                spec, base / "isolated.jsonl", RunnerConfig(workers=1)
            ),
        )
    n = spec.shards_per_cell  # plan size: one circuit, one mode
    return {
        "shards": n,
        "inline_seconds_per_shard": t_inline / n,
        "subprocess_seconds_per_shard": t_isolated / n,
        "isolation_overhead_seconds": (t_isolated - t_inline) / n,
    }


def measure_queue() -> dict:
    """Steady-state queue backend cost vs the process pool, same fleet."""
    spec = CampaignSpec(
        circuits=(CIRCUIT,),
        modes=({"kind": "seu"},),
        shards_per_cell=8,
        vectors_per_shard=16,
        seed=23,
    )
    with TemporaryDirectory(prefix="bench-queue-") as tmp:
        base = Path(tmp)
        t_process, _ = _best_of(
            1,
            lambda: run_campaign(
                spec, base / "process.jsonl",
                RunnerConfig(workers=QUEUE_WORKERS, backend="process"),
            ),
        )
        t_queue, _ = _best_of(
            1,
            lambda: run_campaign(
                spec, base / "queue.jsonl",
                RunnerConfig(
                    workers=QUEUE_WORKERS,
                    backend="queue",
                    queue_dir=str(base / "q"),
                    lease_ttl=5.0,
                ),
            ),
        )
    cores = os.cpu_count() or 1
    return {
        "workers": QUEUE_WORKERS,
        "shards": spec.shards_per_cell,
        "cores": cores,
        "process_seconds": t_process,
        "queue_seconds": t_queue,
        "overhead_ratio": t_queue / t_process,
        "gated": cores >= QUEUE_GATE_CORES,
    }


def measure_journal() -> dict:
    """fsync'd appends/sec of the checkpoint writer."""
    spec = CampaignSpec(
        circuits=(CIRCUIT,), modes=({"kind": "seu"},), shards_per_cell=1
    )
    result = {"shard": 0, "vectors": 0, "pairs_unmasked_errors": 0,
              "pairs_masked_errors": 0, "outputs": {}}

    def append_many() -> None:
        with TemporaryDirectory(prefix="bench-journal-") as tmp:
            writer = CheckpointWriter.create(
                Path(tmp) / "c.jsonl", spec, APPENDS
            )
            for i in range(APPENDS):
                writer.shard_done(i, 1, result)

    t, _ = _best_of(REPEATS, append_many)
    return {"appends": APPENDS, "appends_per_sec": APPENDS / t}


def run_suite() -> dict:
    payload = {
        "benchmark": "campaign",
        "circuit": CIRCUIT,
        "shard_rows": measure_shards(),
        "isolation": measure_isolation(),
        "queue": measure_queue(),
        "journal": measure_journal(),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def print_table(payload: dict) -> None:
    print(f"\n{'mode':34s} {'vectors':>8s} {'vec/sec':>10s} {'errors':>7s} "
          f"{'escaped':>8s}")
    for row in payload["shard_rows"]:
        print(
            f"{row['mode']:34s} {row['vectors']:8d} "
            f"{row['vectors_per_sec']:10.0f} {row['unmasked_errors']:7d} "
            f"{row['masked_errors']:8d}"
        )
    iso = payload["isolation"]
    print(
        f"isolation: inline {iso['inline_seconds_per_shard']:.3f}s/shard, "
        f"subprocess {iso['subprocess_seconds_per_shard']:.3f}s/shard "
        f"(+{iso['isolation_overhead_seconds']:.3f}s crash-isolation tax)"
    )
    queue = payload["queue"]
    print(
        f"queue: {queue['queue_seconds']:.2f}s vs process "
        f"{queue['process_seconds']:.2f}s at {queue['workers']} workers "
        f"({queue['overhead_ratio']:.2f}x"
        + (")" if queue["gated"]
           else f", record-only: {queue['cores']} cores)")
    )
    journal = payload["journal"]
    print(f"journal: {journal['appends_per_sec']:.0f} fsync'd appends/sec")
    print(f"(JSON written to {RESULT_PATH})")


def check_targets(payload: dict) -> None:
    """Campaign cost gates, rechecked on every run."""
    for row in payload["shard_rows"]:
        assert row["vectors_per_sec"] >= 50.0, (
            f"{row['mode']}: shard throughput collapsed to "
            f"{row['vectors_per_sec']:.0f} vectors/sec"
        )
    # Injection must observe errors somewhere, else the campaign is vacuous.
    assert any(r["unmasked_errors"] > 0 for r in payload["shard_rows"])
    iso = payload["isolation"]
    assert iso["subprocess_seconds_per_shard"] <= 30.0, (
        "subprocess isolation costs "
        f"{iso['subprocess_seconds_per_shard']:.1f}s per shard"
    )
    queue = payload["queue"]
    if queue["gated"]:
        assert queue["overhead_ratio"] <= QUEUE_OVERHEAD_LIMIT, (
            f"queue backend costs {queue['overhead_ratio']:.2f}x the "
            f"process pool at {queue['workers']} workers "
            f"(budget {QUEUE_OVERHEAD_LIMIT}x)"
        )
    assert payload["journal"]["appends_per_sec"] >= 10.0, (
        "checkpoint fsync append rate "
        f"{payload['journal']['appends_per_sec']:.0f}/sec"
    )


def test_campaign_costs(benchmark):
    payload = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    print_table(payload)
    check_targets(payload)


def main() -> int:
    payload = run_suite()
    print_table(payload)
    check_targets(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
