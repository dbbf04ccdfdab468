"""Adaptive shard sizing from journaled wall-time telemetry.

Shard size is the throughput/robustness trade of a campaign: shards too
small drown the executor in per-task dispatch and journaling overhead;
shards too large lose minutes of work to every timed-out or crashed
attempt the retry budget has to re-run.  This module
closes the loop using evidence the runner already journals — the
per-shard ``wall_seconds`` telemetry records an obs-enabled campaign
writes into its checkpoint — instead of guesses.

The resize is **total-work preserving**: ``shards_per_cell *
vectors_per_shard`` stays exactly constant (the candidate vector counts
are the divisors of that product), so an auto-sized campaign sweeps the
same number of injected vectors per (circuit, mode) cell — only the
granularity changes.  Sizing is driven by the **p90** per-vector rate,
not the mean: the budget must hold on the slow tail, because that is
what a retried attempt forfeits and what ``task_timeout`` must cover.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from repro.campaign.checkpoint import JournalState, load_journal
from repro.campaign.spec import CampaignSpec
from repro.errors import CampaignError


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass(frozen=True)
class ShardTiming:
    """Wall-time evidence extracted from one campaign journal."""

    samples: int
    vectors_per_shard: int
    p50_seconds: float
    p90_seconds: float

    @property
    def p50_rate(self) -> float:
        """Median seconds per injected vector."""
        return self.p50_seconds / self.vectors_per_shard

    @property
    def p90_rate(self) -> float:
        """Tail seconds per injected vector (what sizing budgets for)."""
        return self.p90_seconds / self.vectors_per_shard


def shard_timing(state: JournalState) -> ShardTiming:
    """Extract shard wall percentiles from a journal's telemetry records.

    Raises :class:`~repro.errors.CampaignError` when the journal has no
    telemetry — the donor campaign must have run with observability on
    (``REPRO_OBS=1`` or ``--metrics``/``--trace``).
    """
    walls = sorted(
        float(record["obs"]["wall_seconds"])
        for record in state.results.values()
        if isinstance(record.get("obs"), dict)
        and isinstance(record["obs"].get("wall_seconds"), (int, float))
        and record["obs"]["wall_seconds"] > 0
    )
    if not walls:
        raise CampaignError(
            "journal has no shard telemetry to size from; re-run the "
            "donor campaign with observability enabled (REPRO_OBS=1 or "
            "--metrics/--trace)"
        )
    return ShardTiming(
        samples=len(walls),
        vectors_per_shard=state.spec.vectors_per_shard,
        p50_seconds=_percentile(walls, 0.50),
        p90_seconds=_percentile(walls, 0.90),
    )


def suggest_spec(
    spec: CampaignSpec,
    timing: ShardTiming,
    target_shard_seconds: float,
) -> CampaignSpec:
    """Resize ``spec``'s shards so each takes ~``target_shard_seconds``.

    Candidate ``vectors_per_shard`` values are the divisors of the cell's
    total vector count (exact total-work preservation); the one whose
    predicted p90 wall time lands closest to the target wins, with ties
    broken toward *smaller* shards (less work forfeited per retry).
    """
    if target_shard_seconds <= 0:
        raise CampaignError(
            f"target_shard_seconds {target_shard_seconds} must be positive"
        )
    total = spec.shards_per_cell * spec.vectors_per_shard
    ideal = target_shard_seconds / timing.p90_rate
    best = None
    for vectors in range(1, total + 1):
        if total % vectors:
            continue
        distance = abs(math.log(vectors / ideal))
        if best is None or distance < best[0]:
            best = (distance, vectors)
    assert best is not None  # total >= 1 always divides itself
    vectors = best[1]
    return replace(
        spec,
        vectors_per_shard=vectors,
        shards_per_cell=total // vectors,
    )


def autoshard_spec(
    spec: CampaignSpec,
    donor_checkpoint: str | os.PathLike,
    target_shard_seconds: float,
) -> tuple[CampaignSpec, ShardTiming]:
    """Resize ``spec`` using a finished (or partial) donor journal.

    Returns the resized spec plus the timing evidence, so callers can
    show *why* the plan changed.
    """
    timing = shard_timing(load_journal(donor_checkpoint))
    return suggest_spec(spec, timing, target_shard_seconds), timing


__all__ = [
    "ShardTiming",
    "autoshard_spec",
    "shard_timing",
    "suggest_spec",
]
