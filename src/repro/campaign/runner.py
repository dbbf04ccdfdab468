"""The resilient campaign runner.

Execution model:

* Each pending shard runs through one retry loop.  With ``workers=0`` an
  attempt calls :func:`~repro.campaign.shard.run_shard` in the calling
  thread (no isolation, fastest; unit tests and tiny sweeps); with
  ``workers >= 1`` it goes to a persistent worker subprocess
  (:mod:`repro.campaign.pool`), one per dispatch thread.  A segfault, OOM
  kill, or hang costs one shard attempt, never the campaign.
* Every isolated attempt runs under a **per-attempt timeout**; an expired
  worker is killed and the attempt counted as a failure.
* Environmental failures (crash, signal, timeout, garbled pipe) are
  retried with **exponential backoff plus deterministic jitter**
  (:meth:`RunnerConfig.backoff`); deterministic shard failures skip the
  retry budget.
* A shard that exhausts its budget is **quarantined**; a run-wide
  **circuit breaker** aborts dispatch when too many consecutive attempts
  fail.
* Completed shards are journaled (fsync'd) to the **checkpoint** before
  they count; :func:`resume_campaign` replays the journal and re-runs only
  what is missing, producing a bit-identical aggregate.
"""

from __future__ import annotations

import hashlib
import os
import queue
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from repro import obs
from repro.campaign import worker as _worker
from repro.campaign.aggregate import aggregate_results
from repro.campaign.checkpoint import CheckpointWriter, load_journal
from repro.campaign.pool import AttemptError, WorkerSlot
from repro.campaign.spec import CampaignSpec, ShardSpec, plan_campaign
from repro.errors import CampaignError

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
    """Resilience knobs; defaults suit medium campaigns on one machine.

    ``workers=0`` runs attempts inline, ``N >= 1`` on N worker processes.
    ``max_retries`` counts *re*-tries after the first attempt.  The delay
    before retry ``n`` (0-based) is ``min(backoff_cap, backoff_base *
    2**n)`` stretched by up to ``backoff_jitter`` of itself.  The breaker
    trips after ``max_consecutive_failures`` failed attempts in a row.
    """

    workers: int = 2
    task_timeout: float = 300.0
    max_retries: int = 3
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    backoff_jitter: float = 0.25
    max_consecutive_failures: int = 16

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or self.workers < 0:
            raise CampaignError(
                f"workers {self.workers!r} must be an integer >= 0 (0 = inline)"
            )
        if self.task_timeout <= 0:
            raise CampaignError(f"task_timeout {self.task_timeout} must be positive")
        if self.max_retries < 0:
            raise CampaignError(f"max_retries {self.max_retries} must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise CampaignError("backoff base/cap must be >= 0")
        if self.backoff_jitter < 0:
            raise CampaignError("backoff jitter must be >= 0")
        if self.max_consecutive_failures <= 0:
            raise CampaignError("max_consecutive_failures must be positive")

    def backoff(self, fingerprint: str, attempt: int) -> float:
        """Seconds to sleep before re-running the shard with this
        fingerprint after failed attempt number ``attempt`` (0-based).

        The jitter is seeded from the fingerprint, so a resumed or re-driven
        run sleeps the same schedule without shared state.
        """
        delay = min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        seed_text = f"{fingerprint}:backoff:{attempt}"
        seed = int.from_bytes(hashlib.sha256(seed_text.encode()).digest()[:8], "big")
        return delay * (1.0 + self.backoff_jitter * random.Random(seed).random())


@dataclass
class CampaignOutcome:
    """What a run/resume returns: the aggregate plus runner bookkeeping."""

    aggregate: dict
    checkpoint: Path
    stats: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return bool(self.aggregate.get("complete"))


class _Dispatch:
    """One run's retry/quarantine/breaker loop over the pending shards.

    Settled shards are journaled, metered and reported from whichever
    dispatch thread settled them.
    """

    def __init__(
        self,
        config: RunnerConfig,
        writer: CheckpointWriter,
        sabotage: Mapping[int, dict] | None,
        progress: ProgressFn | None,
        parent_id: int | None,
    ):
        self.config = config
        self.writer = writer
        self.sabotage = dict(sabotage or {})
        self.progress = progress
        #: The run span; shard spans on pool threads cannot rely on
        #: implicit nesting.
        self.parent_id = parent_id
        self.results: dict[int, dict] = {}
        self.quarantined: dict[int, dict] = {}
        self.shard_obs: dict[int, dict] = {}
        self.attempts = 0
        self.aborted: str | None = None
        self.stop = threading.Event()
        self._lock = threading.Lock()
        self._streak = 0

    def _emit(self, event: str, index: int, message: str) -> None:
        if self.progress is not None:
            self.progress(event, index, message)

    def _count_attempt(self, error: str | None) -> None:
        """Count a settled attempt; a failure may trip the breaker."""
        with self._lock:
            self.attempts += 1
            if error is None:
                self._streak = 0
                return
            self._streak += 1
            limit = self.config.max_consecutive_failures
            if self.stop.is_set() or self._streak < limit:
                return
            self.aborted = (
                f"circuit breaker: {self._streak} consecutive "
                f"failed attempts (last: {error})"
            )
            self.stop.set()
        _BREAKER_TRIPS.add()

    def _attempt(
        self,
        slot: WorkerSlot | None,
        shard: ShardSpec,
        attempt: int,
        fingerprint: str,
        span_id: int | None,
    ) -> tuple[dict, dict | None]:
        """One attempt: in this thread without a slot, else on its worker
        (whose spans nest under the attempt span ``span_id``)."""
        if slot is None:
            try:
                return _worker.run_shard(shard), None
            except _worker.DETERMINISTIC_ERRORS as exc:
                raise AttemptError(
                    f"{type(exc).__name__}: {exc}", retryable=False
                ) from exc
        return slot.attempt(
            shard, attempt, self.sabotage.get(shard.index), fingerprint,
            span_id,
        )

    def run_shard(self, slot: WorkerSlot | None, shard: ShardSpec) -> None:
        """Drive one shard to done, quarantined, or stopped by the breaker."""
        index = shard.index
        with _TRACER.span(
            "campaign.shard",
            parent_id=self.parent_id,
            shard=index,
            circuit=shard.circuit,
            mode=shard.mode_key,
        ) as span:
            started = time.perf_counter()
            fingerprint = shard.fingerprint()
            failures = 0
            error = ""
            attempt = 0
            while attempt <= self.config.max_retries:
                if self.stop.is_set():
                    span.set(outcome="stopped")
                    return
                _ATTEMPTS.add()
                try:
                    with _TRACER.span(
                        "campaign.attempt", shard=index, attempt=attempt
                    ) as attempt_span:
                        value, worker_obs = self._attempt(
                            slot, shard, attempt, fingerprint, attempt_span.id
                        )
                except AttemptError as exc:
                    failures += 1
                    error = str(exc)
                    self._count_attempt(error)
                    _ATTEMPT_FAILURES.add(
                        1, retryable="true" if exc.retryable else "false"
                    )
                    self._emit("attempt-failed", index, f"attempt {attempt + 1}: {exc}")
                    if not exc.retryable:
                        break
                    attempt += 1
                    if attempt <= self.config.max_retries and not self.stop.is_set():
                        _RETRIES.add()
                        time.sleep(self.config.backoff(fingerprint, attempt - 1))
                    continue
                self._count_attempt(None)
                self._done(shard, attempt + 1, value, worker_obs, started)
                span.set(outcome="done", attempts=attempt + 1)
                return
            self.quarantined[index] = {
                "kind": "quarantine",
                "shard": index,
                "attempts": failures,
                "error": error,
            }
            self.writer.quarantine(index, failures, error)
            _QUARANTINED.add()
            self._emit("quarantined", index, error)
            span.set(outcome="quarantined", attempts=failures)

    def _done(
        self,
        shard: ShardSpec,
        attempts: int,
        value: dict,
        worker_obs: dict | None,
        started: float,
    ) -> None:
        """Journal a completed shard durably, then count it."""
        wall = time.perf_counter() - started
        obs_record = None
        if _METER.enabled:
            # The journalable copy of the shard's telemetry, so a resumed
            # campaign rebuilds the aggregate's telemetry section without
            # re-running the shard.
            obs_record = {"wall_seconds": round(wall, 6), "attempts": attempts}
            if worker_obs:
                if worker_obs.get("metrics"):
                    obs_record["metrics"] = worker_obs["metrics"]
                if isinstance(worker_obs.get("wall_seconds"), (int, float)):
                    obs_record["worker_wall_seconds"] = round(
                        worker_obs["wall_seconds"], 6
                    )
            self.shard_obs[shard.index] = obs_record
        self.results[shard.index] = value
        self.writer.shard_done(shard.index, attempts, value, obs_record=obs_record)
        if _METER.enabled:
            _SHARDS_COMPLETED.add()
            _SHARD_SECONDS.observe(wall)
        self._emit("shard-done", shard.index, f"attempts={attempts}")

    def run(self, shards: list[ShardSpec]) -> None:
        """Run every shard to a terminal outcome.

        Without workers the calling thread runs them in order; otherwise
        one dispatch thread per worker slot pulls from a shared queue.
        """
        work: queue.SimpleQueue[ShardSpec] = queue.SimpleQueue()
        for shard in shards:
            work.put(shard)
        width = min(self.config.workers, len(shards))
        slots: list[WorkerSlot | None] = [
            WorkerSlot(self.config) for _ in range(width)
        ] or [None]

        def loop(slot: WorkerSlot | None) -> None:
            while not self.stop.is_set():
                try:
                    shard = work.get_nowait()
                except queue.Empty:
                    return
                self.run_shard(slot, shard)

        try:
            if len(slots) == 1:
                loop(slots[0])
                return
            threads = [
                threading.Thread(
                    target=loop, args=(slot,), name=f"campaign-dispatch-{i}"
                )
                for i, slot in enumerate(slots)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            for slot in slots:
                if slot is not None:
                    slot.close()


def _check_sabotage(
    config: RunnerConfig, sabotage: Mapping[int, dict] | None
) -> None:
    """Refuse drills the inline mode cannot isolate, before any I/O."""
    if sabotage and config.workers == 0:
        raise CampaignError(
            "sabotage drills require isolated workers (workers >= 1); "
            "inline attempts would kill the campaign process itself"
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

    started = time.monotonic()
    with _TRACER.span(
        "campaign.run",
        fingerprint=spec.fingerprint()[:12],
        shards=len(plan),
        pending=len(pending),
        workers=config.workers,
    ) as run_span:
        dispatch = _Dispatch(
            config, writer, sabotage, progress, getattr(run_span, "id", None)
        )
        dispatch.run(pending)
    wall = time.monotonic() - started

    merged = dict(prior_results)
    merged.update(dispatch.results)
    shard_obs = dict(prior_obs or {})
    shard_obs.update(dispatch.shard_obs)
    aggregate = aggregate_results(
        spec, plan, merged, dispatch.quarantined, shard_obs=shard_obs
    )
    stats = {
        "shards_total": len(plan),
        "shards_previously_done": len(prior_results),
        "shards_run": len(dispatch.results),
        "shards_quarantined": len(dispatch.quarantined),
        "attempts": dispatch.attempts,
        "wall_seconds": wall,
        "aborted": dispatch.aborted,
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
