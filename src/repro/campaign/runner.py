"""The resilient campaign runner, re-plumbed onto :mod:`repro.exec`.

Execution model (unchanged semantics, new substrate):

* Each pending shard becomes a ``campaign.shard`` :class:`~repro.exec.Task`
  dispatched through an executor — :class:`~repro.exec.InlineExecutor`
  for ``workers=0`` (no isolation, fastest; unit tests and tiny sweeps),
  or a :class:`~repro.exec.ProcessPoolExecutor` of persistent worker
  subprocesses otherwise.  A segfault, OOM kill, or hang costs one shard
  attempt, never the campaign.
* Every attempt runs under a **per-task timeout**; an expired worker is
  killed and the attempt counted as a failure.
* Environmental failures (crash, signal, timeout, garbled pipe) are
  retried with **exponential backoff plus deterministic jitter**
  (:class:`~repro.exec.RetryPolicy`); deterministic shard failures skip
  the retry budget.
* A shard that exhausts its budget is **quarantined**; a run-wide
  **circuit breaker** (:class:`~repro.exec.BreakerPolicy`) aborts
  dispatch when too many consecutive attempts fail.
* Completed shards are journaled (fsync'd) to the **checkpoint** before
  they count; :func:`resume_campaign` replays the journal and re-runs only
  what is missing, producing a bit-identical aggregate.

This module keeps the campaign-facing surface (RunnerConfig,
CampaignOutcome, run_campaign, resume_campaign, progress events, metric
series, journal format) exactly as before; the retry loop, subprocess
management, and breaker now live in :mod:`repro.exec.executors`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from repro import obs
from repro.campaign.aggregate import aggregate_results
from repro.campaign.checkpoint import CheckpointWriter, load_journal
from repro.campaign.spec import CampaignSpec, ShardSpec, plan_campaign
from repro.errors import CampaignError
from repro.exec import (
    BreakerPolicy,
    RetryPolicy,
    Task,
    TaskResult,
    make_executor,
)

#: Callback signature: ``progress(event, shard_index, message)``.
ProgressFn = Callable[[str, int, str], None]

_TRACER = obs.get_tracer("campaign")
_METER = obs.get_meter()
_ATTEMPTS = _METER.counter(
    "repro_campaign_attempts_total", "shard attempts started"
)
_ATTEMPT_FAILURES = _METER.counter(
    "repro_campaign_attempt_failures_total",
    "shard attempts that failed (label: retryable)",
)
_RETRIES = _METER.counter(
    "repro_campaign_retries_total",
    "failed attempts retried after exponential backoff",
)
_QUARANTINED = _METER.counter(
    "repro_campaign_quarantined_total",
    "shards quarantined after exhausting their retry budget",
)
_BREAKER_TRIPS = _METER.counter(
    "repro_campaign_breaker_trips_total", "circuit-breaker activations"
)
_SHARDS_COMPLETED = _METER.counter(
    "repro_campaign_shards_completed_total", "shards completed and journaled"
)
_SHARD_SECONDS = _METER.histogram(
    "repro_campaign_shard_seconds",
    "wall seconds per completed shard (includes retries and backoff)",
)


@dataclass(frozen=True)
class RunnerConfig:
    """Resilience knobs; defaults suit medium campaigns on one machine."""

    workers: int = 2
    task_timeout: float = 300.0
    max_retries: int = 3
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    backoff_jitter: float = 0.25
    max_consecutive_failures: int = 16

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise CampaignError(f"workers {self.workers} must be >= 0")
        if self.task_timeout <= 0:
            raise CampaignError(f"task_timeout {self.task_timeout} must be positive")
        if self.max_retries < 0:
            raise CampaignError(f"max_retries {self.max_retries} must be >= 0")
        if self.max_consecutive_failures <= 0:
            raise CampaignError("max_consecutive_failures must be positive")

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            backoff_jitter=self.backoff_jitter,
        )

    def breaker_policy(self) -> BreakerPolicy:
        return BreakerPolicy(
            max_consecutive_failures=self.max_consecutive_failures
        )


@dataclass
class CampaignOutcome:
    """What a run/resume returns: the aggregate plus runner bookkeeping."""

    aggregate: dict
    checkpoint: Path
    stats: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return bool(self.aggregate.get("complete"))


def _shard_task(shard: ShardSpec) -> Task:
    """A campaign shard as a content-addressed executor task."""
    return Task(
        kind="campaign.shard",
        payload={"shard": shard.to_json()},
        key=shard.index,
        span_name="campaign.shard",
        span_category="campaign",
        span_attrs={
            "shard": shard.index,
            "circuit": shard.circuit,
            "mode": shard.mode_key,
        },
        attempt_attrs={"shard": shard.index},
    )


def _shard_obs_record(result: TaskResult) -> dict | None:
    """Journalable telemetry for one completed shard.

    Worker spans/metrics were already ingested into the parent registry by
    the executor at attempt completion; here we only keep the journalable
    copy so a resumed campaign can rebuild the aggregate's telemetry
    section without re-running the shard.
    """
    if not _METER.enabled:
        return None
    record: dict = {
        "wall_seconds": round(result.wall_seconds, 6),
        "attempts": result.attempts,
    }
    worker_obs = result.worker_obs
    if worker_obs:
        metrics = worker_obs.get("metrics")
        if metrics:
            record["metrics"] = metrics
        if isinstance(worker_obs.get("wall_seconds"), (int, float)):
            record["worker_wall_seconds"] = round(
                worker_obs["wall_seconds"], 6
            )
    return record


class _Bookkeeper:
    """Bridges executor callbacks to journal, metrics, and progress."""

    def __init__(self, writer: CheckpointWriter, progress: ProgressFn | None):
        self.writer = writer
        self.progress = progress
        self.results: dict[int, dict] = {}
        self.quarantined: dict[int, dict] = {}
        self.shard_obs: dict[int, dict] = {}

    def _emit(self, event: str, index: int, message: str) -> None:
        if self.progress is not None:
            self.progress(event, index, message)

    def on_event(self, event: str, task: Task, message: str, info: dict) -> None:
        index = int(task.key)
        if event == "attempt-started":
            _ATTEMPTS.add()
        elif event == "attempt-failed":
            _ATTEMPT_FAILURES.add(
                1, retryable="true" if info.get("retryable") else "false"
            )
            self._emit("attempt-failed", index, message)
        elif event == "retry":
            _RETRIES.add()
        elif event == "breaker":
            _BREAKER_TRIPS.add()
        elif event == "task-done":
            if _METER.enabled:
                _SHARDS_COMPLETED.add()
                _SHARD_SECONDS.observe(info.get("wall_seconds", 0.0))
            self._emit(
                "shard-done", index, f"attempts={info.get('attempts', 0)}"
            )
        elif event == "quarantined":
            _QUARANTINED.add()
            self._emit("quarantined", index, message)

    def on_result(self, result: TaskResult) -> None:
        """Journal a settled shard (done or quarantined) durably."""
        index = int(result.task.key)
        if result.outcome == "done":
            obs_record = _shard_obs_record(result)
            self.results[index] = result.value
            if obs_record is not None:
                self.shard_obs[index] = obs_record
            self.writer.shard_done(
                index, result.attempts, result.value, obs_record=obs_record
            )
        elif result.outcome == "quarantined":
            error = result.error or "no attempt made"
            self.quarantined[index] = {
                "kind": "quarantine",
                "shard": index,
                "attempts": result.attempts,
                "error": error,
            }
            self.writer.quarantine(index, result.attempts, error)


def _check_sabotage(
    config: RunnerConfig, sabotage: Mapping[int, dict] | None
) -> None:
    """Refuse drills the inline executor cannot isolate, before any I/O."""
    if sabotage and config.workers == 0:
        raise CampaignError(
            "sabotage drills require isolated workers (workers >= 1); "
            "the inline executor would kill the campaign process itself"
        )


def _execute(
    spec: CampaignSpec,
    writer: CheckpointWriter,
    prior_results: dict[int, dict],
    config: RunnerConfig,
    sabotage: Mapping[int, dict] | None,
    progress: ProgressFn | None,
    prior_obs: dict[int, dict] | None = None,
) -> CampaignOutcome:
    plan = plan_campaign(spec)
    for index in prior_results:
        if index >= len(plan):
            raise CampaignError(
                f"checkpoint refers to shard {index} but the plan has "
                f"{len(plan)} shards"
            )
    pending = [shard for shard in plan if shard.index not in prior_results]
    books = _Bookkeeper(writer, progress)

    started = time.monotonic()
    with _TRACER.span(
        "campaign.run",
        fingerprint=spec.fingerprint()[:12],
        shards=len(plan),
        pending=len(pending),
        workers=config.workers,
    ) as run_span:
        with make_executor(
            config.workers,
            retry=config.retry_policy(),
            breaker=config.breaker_policy(),
            task_timeout=config.task_timeout,
            events=books.on_event,
        ) as executor:
            executor.parent_span_id = getattr(run_span, "id", None)
            report = executor.run(
                [_shard_task(shard) for shard in pending],
                on_result=books.on_result,
                sabotage=sabotage,
            )
    wall = time.monotonic() - started

    merged = dict(prior_results)
    merged.update(books.results)
    shard_obs = dict(prior_obs or {})
    shard_obs.update(books.shard_obs)
    aggregate = aggregate_results(
        spec, plan, merged, books.quarantined, shard_obs=shard_obs
    )
    stats = {
        "shards_total": len(plan),
        "shards_previously_done": len(prior_results),
        "shards_run": len(books.results),
        "shards_quarantined": len(books.quarantined),
        "attempts": report.attempts,
        "wall_seconds": wall,
        "aborted": report.breaker_reason,
    }
    return CampaignOutcome(
        aggregate=aggregate, checkpoint=writer.path, stats=stats
    )


def run_campaign(
    spec: CampaignSpec,
    checkpoint: str | os.PathLike,
    config: RunnerConfig | None = None,
    sabotage: Mapping[int, dict] | None = None,
    progress: ProgressFn | None = None,
) -> CampaignOutcome:
    """Run a fresh campaign, journaling every completed shard.

    Refuses to overwrite an existing checkpoint — that is what
    :func:`resume_campaign` is for.  Partial failure does not raise: the
    outcome's aggregate carries ``incomplete_shards`` and ``complete`` is
    False.  Only misconfiguration raises :class:`~repro.errors.CampaignError`.
    """
    config = config or RunnerConfig()
    _check_sabotage(config, sabotage)
    writer = CheckpointWriter.create(checkpoint, spec, len(plan_campaign(spec)))
    return _execute(spec, writer, {}, config, sabotage, progress)


def resume_campaign(
    checkpoint: str | os.PathLike,
    config: RunnerConfig | None = None,
    sabotage: Mapping[int, dict] | None = None,
    progress: ProgressFn | None = None,
) -> CampaignOutcome:
    """Continue a campaign exactly where its checkpoint left off.

    The spec is read back from the journal header; shards with journaled
    results are skipped, quarantined shards get a fresh retry budget, and
    the final aggregate is bit-identical to an uninterrupted run of the
    same spec.
    """
    config = config or RunnerConfig()
    _check_sabotage(config, sabotage)
    state = load_journal(checkpoint)
    prior = {index: record["result"] for index, record in state.results.items()}
    prior_obs = {
        index: record["obs"]
        for index, record in state.results.items()
        if isinstance(record.get("obs"), dict)
    }
    writer = CheckpointWriter(checkpoint)
    return _execute(
        state.spec, writer, prior, config, sabotage, progress,
        prior_obs=prior_obs,
    )
