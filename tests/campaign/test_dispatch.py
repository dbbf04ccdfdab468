"""The shard dispatch loop: retries, drills, breaker, worker reuse, obs.

Isolated cases spawn real ``python -m repro.campaign.serve`` workers; the
drills SIGKILL, hang, and exit them for real.  Shards are tiny real
``comparator2`` shards (a few milliseconds each); an unknown circuit name
is the deterministic failure, since ``run_shard`` raises ``CampaignError``
for it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro import obs
from repro.campaign import (
    CampaignSpec,
    RunnerConfig,
    load_journal,
    plan_campaign,
    resume_campaign,
    run_campaign,
)
from repro.campaign import worker as campaign_worker
from repro.campaign.pool import (
    AttemptError,
    WorkerSlot,
    _WorkerHandle,
    ingest_worker_obs,
)
from repro.errors import CampaignError

NO_BACKOFF = dict(max_retries=3, backoff_base=0.0, backoff_jitter=0.0)
INLINE = RunnerConfig(workers=0, **NO_BACKOFF)
ISOLATED = RunnerConfig(workers=1, task_timeout=60.0, **NO_BACKOFF)


def tiny_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        circuits=("comparator2",),
        modes=({"kind": "seu"},),
        shards_per_cell=1,
        vectors_per_shard=8,
        seed=3,
        clock_fraction=0.9,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def run(tmp_path, spec, config, **kwargs):
    return run_campaign(spec, tmp_path / "c.jsonl", config, **kwargs)


def incomplete(outcome) -> dict[int, dict]:
    return {e["shard"]: e for e in outcome.aggregate["incomplete_shards"]}


def series(name: str) -> dict:
    metric = obs.metrics_snapshot()["metrics"].get(name)
    return metric["series"] if metric else {}


def worker_pids() -> set[int]:
    return {
        r["pid"] for r in obs.span_records()
        if r["name"] == "campaign.worker_shard"
    }


class TestConfiguration:
    def test_default_workers(self):
        assert RunnerConfig().workers == 2

    def test_validated_jobs(self):
        assert RunnerConfig(workers=0).workers == 0
        assert RunnerConfig(workers=3).workers == 3
        with pytest.raises(CampaignError, match="must be an integer >= 0"):
            RunnerConfig(workers=-1)
        with pytest.raises(CampaignError, match="must be an integer >= 0"):
            RunnerConfig(workers="many")

    def test_bad_worker_counts(self):
        for workers in (-1, -8, 1.5, None, "2"):
            with pytest.raises(CampaignError, match=r"\(0 = inline\)"):
                RunnerConfig(workers=workers)

    def test_bad_timeout(self):
        with pytest.raises(CampaignError, match="must be positive"):
            RunnerConfig(task_timeout=0.0)

    def test_validation(self):
        for field, value in [
            ("max_retries", -1),
            ("backoff_base", -0.1),
            ("backoff_cap", -1.0),
            ("backoff_jitter", -1.0),
        ]:
            with pytest.raises(CampaignError):
                RunnerConfig(**{field: value})

    def test_breaker_validation(self):
        for limit in (0, -1):
            with pytest.raises(CampaignError, match="must be positive"):
                RunnerConfig(max_consecutive_failures=limit)
        assert RunnerConfig(max_consecutive_failures=1).max_consecutive_failures == 1

    def test_backoff_deterministic(self):
        config = RunnerConfig(backoff_base=0.5, backoff_jitter=0.25)
        fingerprint = plan_campaign(tiny_spec())[0].fingerprint()
        assert config.backoff(fingerprint, 0) == config.backoff(fingerprint, 0)
        assert config.backoff(fingerprint, 0) != config.backoff("other", 0)

    def test_backoff_bounds_and_growth(self):
        config = RunnerConfig(
            backoff_base=0.5, backoff_cap=2.0, backoff_jitter=0.25
        )
        fingerprint = plan_campaign(tiny_spec())[0].fingerprint()
        for attempt, base in enumerate((0.5, 1.0, 2.0, 2.0)):
            delay = config.backoff(fingerprint, attempt)
            assert base <= delay <= base * 1.25

    def test_zero_base_means_no_sleep(self):
        assert RunnerConfig(backoff_base=0.0).backoff("f", 3) == 0.0


class TestInline:
    def test_runs_in_this_process(self, tmp_path, monkeypatch):
        # The inline attempt looks run_shard up on repro.campaign.worker at
        # call time, so a wrapper installed there sees every shard.
        pids = []
        real = campaign_worker.run_shard

        def spy(shard):
            pids.append(os.getpid())
            return real(shard)

        monkeypatch.setattr(campaign_worker, "run_shard", spy)
        outcome = run(tmp_path, tiny_spec(shards_per_cell=2), INLINE)
        assert outcome.complete
        assert pids == [os.getpid()] * 2
        assert outcome.stats["attempts"] == 2

    def test_deterministic_error_quarantines_without_retry(self, tmp_path):
        events = []
        outcome = run(
            tmp_path, tiny_spec(circuits=("no-such-circuit", "comparator2")),
            INLINE, progress=lambda *e: events.append(e),
        )
        assert not outcome.complete
        bad = incomplete(outcome)
        assert bad.keys() == {0}
        assert bad[0]["status"] == "quarantined"
        assert bad[0]["attempts"] == 1
        assert "CampaignError" in bad[0]["error"]
        assert "no-such-circuit" in bad[0]["error"]
        assert outcome.stats["shards_run"] == 1
        assert [(e[0], e[1]) for e in events] == [
            ("attempt-failed", 0), ("quarantined", 0), ("shard-done", 1),
        ]

    def test_breaker_stops_dispatch(self, tmp_path):
        obs.configure(enabled=True)
        outcome = run(
            tmp_path, tiny_spec(circuits=("no-such-a",), shards_per_cell=4),
            RunnerConfig(workers=0, max_retries=0, max_consecutive_failures=2),
        )
        reason = outcome.stats["aborted"]
        assert reason is not None
        assert "2 consecutive" in reason and "no-such-a" in reason
        # The first two shards fail and quarantine; the trip stops dispatch
        # before shards 2 and 3 ever start.
        assert outcome.stats["attempts"] == 2
        state = load_journal(tmp_path / "c.jsonl")
        assert set(state.quarantined) == {0, 1}
        assert not state.results
        assert series("repro_campaign_breaker_trips_total") == {"": 1}

    def test_breaker_trip_threshold(self, tmp_path):
        config = RunnerConfig(
            workers=0, max_retries=0, max_consecutive_failures=3
        )
        (tmp_path / "below").mkdir()
        (tmp_path / "at").mkdir()
        # Two failures in a row stay under a limit of three.
        below = run(
            tmp_path / "below",
            tiny_spec(circuits=("no-such-a", "no-such-b", "comparator2")),
            config,
        )
        assert below.stats["aborted"] is None
        assert below.stats["shards_run"] == 1
        # The third failure in a row trips it, naming the count and error.
        at = run(
            tmp_path / "at",
            tiny_spec(circuits=("no-such-c",), shards_per_cell=4),
            config,
        )
        reason = at.stats["aborted"]
        assert reason is not None
        assert "3 consecutive" in reason and "no-such-c" in reason
        assert at.stats["attempts"] == 3

    def test_sabotage_rejected(self, tmp_path):
        # Resuming inline refuses drills too, and leaves the journal as it was.
        path = tmp_path / "c.jsonl"
        run_campaign(tiny_spec(), path, INLINE)
        before = path.read_bytes()
        with pytest.raises(CampaignError, match="isolated workers"):
            resume_campaign(path, INLINE, sabotage={0: {"mode": "kill"}})
        assert path.read_bytes() == before

    def test_success_resets_breaker_streak(self, tmp_path):
        outcome = run(
            tmp_path,
            tiny_spec(circuits=("no-such-a", "comparator2", "no-such-b", "cmb")),
            RunnerConfig(workers=0, max_retries=0, max_consecutive_failures=2),
        )
        assert outcome.stats["aborted"] is None
        assert outcome.stats["shards_run"] == 2
        assert incomplete(outcome).keys() == {0, 2}


class TestProcessPool:
    def test_worker_reused_across_shards(self, tmp_path):
        obs.configure(enabled=True)
        outcome = run(tmp_path, tiny_spec(shards_per_cell=4), ISOLATED)
        assert outcome.complete
        pids = worker_pids()
        assert len(pids) == 1
        assert os.getpid() not in pids

    def test_dispatch_threads_share_the_work(self, tmp_path):
        obs.configure(enabled=True)
        outcome = run(
            tmp_path, tiny_spec(shards_per_cell=4),
            RunnerConfig(workers=2, task_timeout=60.0, **NO_BACKOFF),
        )
        assert outcome.complete
        pids = worker_pids()
        assert len(pids) == 2
        assert os.getpid() not in pids

    def test_kill_drill_retries_then_succeeds(self, tmp_path):
        obs.configure(enabled=True)
        events = []
        outcome = run(
            tmp_path, tiny_spec(), ISOLATED,
            sabotage={0: {"mode": "kill", "attempts": 1}},
            progress=lambda *e: events.append(e),
        )
        assert outcome.complete
        assert outcome.stats["attempts"] == 2
        assert [(e[0], e[1]) for e in events] == [
            ("attempt-failed", 0), ("shard-done", 0),
        ]
        assert "killed by signal 9" in events[0][2]
        assert events[1][2] == "attempts=2"
        assert series("repro_campaign_attempts_total") == {"": 2}
        assert series("repro_campaign_retries_total") == {"": 1}

    def test_exit_drill_reports_code(self, tmp_path):
        events = []
        outcome = run(
            tmp_path, tiny_spec(), ISOLATED,
            sabotage={0: {"mode": "exit", "code": 7, "attempts": 1}},
            progress=lambda *e: events.append(e),
        )
        assert outcome.complete and outcome.stats["attempts"] == 2
        assert "exited 7" in events[0][2]

    def test_hang_drill_times_out_then_succeeds(self, tmp_path):
        events = []
        outcome = run(
            tmp_path, tiny_spec(),
            RunnerConfig(workers=1, task_timeout=1.0, **NO_BACKOFF),
            sabotage={0: {"mode": "hang", "seconds": 60, "attempts": 1}},
            progress=lambda *e: events.append(e),
        )
        assert outcome.complete and outcome.stats["attempts"] == 2
        assert "timed out after 1s" in events[0][2]

    def test_unrelenting_failure_quarantines(self, tmp_path):
        outcome = run(
            tmp_path, tiny_spec(),
            RunnerConfig(workers=1, max_retries=1, backoff_base=0.0,
                         backoff_jitter=0.0),
            sabotage={0: {"mode": "kill"}},
        )
        entry = incomplete(outcome)[0]
        assert entry["status"] == "quarantined"
        assert entry["attempts"] == 2
        assert "killed by signal 9" in entry["error"]

    def test_deterministic_error_keeps_worker_alive(self, tmp_path):
        obs.configure(enabled=True)
        outcome = run(
            tmp_path,
            tiny_spec(circuits=("comparator2", "no-such-circuit", "cmb")),
            ISOLATED,
        )
        bad = incomplete(outcome)
        assert bad.keys() == {1}
        assert bad[1]["attempts"] == 1
        assert "CampaignError" in bad[1]["error"]
        assert outcome.stats["shards_run"] == 2
        # Shards 0 and 2 ran on the one worker that reported shard 1's error.
        assert len(worker_pids()) == 1
        assert series("repro_campaign_respawns_total") == {}


class TestRespawnBackoff:
    """Worker respawns back off exponentially and are metered."""

    def test_delay_schedule_follows_backoff(self):
        slot = WorkerSlot(RunnerConfig(
            backoff_base=0.1, backoff_cap=0.4, backoff_jitter=0.0
        ))
        delays = []
        for n in range(5):
            slot.respawns = n
            delays.append(slot.respawn_delay())
        # First spawn free, then base * 2^(n-1) capped at backoff_cap.
        assert delays == [0.0, 0.1, 0.2, 0.4, 0.4]

    def test_spawn_failure_is_a_metered_retryable_attempt(
        self, tmp_path, monkeypatch
    ):
        obs.configure(enabled=True)

        def exploding_handle(*args, **kwargs):
            raise OSError("out of file descriptors")

        monkeypatch.setattr(
            "repro.campaign.pool._WorkerHandle", exploding_handle
        )
        outcome = run(
            tmp_path, tiny_spec(),
            RunnerConfig(workers=1, task_timeout=10.0, **NO_BACKOFF),
        )
        entry = incomplete(outcome)[0]
        assert entry["status"] == "quarantined"
        assert "worker spawn failed" in entry["error"]
        assert entry["attempts"] == NO_BACKOFF["max_retries"] + 1
        assert series("repro_campaign_respawns_total") == {
            "outcome=spawn-failed": NO_BACKOFF["max_retries"] + 1
        }

    def test_respawn_after_kill_is_metered_and_resets(self):
        obs.configure(enabled=True)
        shard = plan_campaign(tiny_spec())[0]
        slot = WorkerSlot(ISOLATED)
        try:
            with pytest.raises(AttemptError, match="killed by signal 9"):
                slot.attempt(shard, 0, {"mode": "kill"}, shard.fingerprint())
            record, worker_obs = slot.attempt(
                shard, 1, None, shard.fingerprint()
            )
        finally:
            slot.close()
        assert record == campaign_worker.run_shard(shard)
        assert worker_obs is not None
        assert series("repro_campaign_respawns_total") == {
            "outcome=respawned": 1
        }
        # A healthy attempt resets the backoff streak.
        assert slot.respawns == 0


class TestWorkerStartup:
    """A worker's imports are bounded on their own, not by task_timeout."""

    def _launcher(self, tmp_path, body: str) -> str:
        # Stands in for the interpreter the pool runs
        # ``-m repro.campaign.serve`` with.
        path = tmp_path / "python-launcher"
        path.write_text("#!/bin/sh\n" + body)
        path.chmod(0o755)
        return str(path)

    def test_worker_module_starts_clean(self):
        # Nothing repro.campaign imports may import the serve module, or
        # ``python -m`` warns that it found it in sys.modules; ``-W error``
        # turns that warning into a failed start.
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.campaign.serve"],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        first = proc.stdout.splitlines()[0]
        assert json.loads(first) == {"schema": 1, "ready": True}

    def test_slow_startup_does_not_count_against_task_timeout(
        self, tmp_path, monkeypatch
    ):
        launcher = self._launcher(
            tmp_path, f'sleep 1.5\nexec "{sys.executable}" "$@"\n'
        )
        monkeypatch.setattr(sys, "executable", launcher)
        outcome = run(
            tmp_path, tiny_spec(),
            RunnerConfig(workers=1, task_timeout=1.0, **NO_BACKOFF),
        )
        assert outcome.complete and outcome.stats["attempts"] == 1

    def test_worker_that_never_reports_ready_is_a_failed_spawn(
        self, tmp_path, monkeypatch
    ):
        obs.configure(enabled=True)
        launcher = self._launcher(tmp_path, "echo no interpreter >&2\nexit 1\n")
        monkeypatch.setattr(sys, "executable", launcher)
        outcome = run(
            tmp_path, tiny_spec(),
            RunnerConfig(workers=1, task_timeout=10.0, **NO_BACKOFF),
        )
        entry = incomplete(outcome)[0]
        assert entry["status"] == "quarantined"
        assert "worker spawn failed: not ready" in entry["error"]
        assert "exited 1 (no interpreter)" in entry["error"]
        assert entry["attempts"] == NO_BACKOFF["max_retries"] + 1
        assert series("repro_campaign_respawns_total") == {
            "outcome=spawn-failed": NO_BACKOFF["max_retries"] + 1
        }


class TestStderrDrain:
    """The drain thread outlives a stderr pipe that closes mid-read."""

    def test_pipe_closing_mid_read_keeps_the_lines_read(self, monkeypatch):
        def closing_stream():
            yield b"first line\n"
            yield b"second line\n"
            raise ValueError("I/O operation on closed file")

        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        handle = _WorkerHandle.__new__(_WorkerHandle)  # no subprocess
        handle.proc = SimpleNamespace(stderr=closing_stream())
        handle._stderr_tail = deque(maxlen=50)
        drain = threading.Thread(target=handle._drain_stderr)
        drain.start()
        drain.join(timeout=10)
        assert not drain.is_alive()
        assert unhandled == []
        assert list(handle._stderr_tail) == ["first line\n", "second line\n"]
        assert handle.stderr_tail() == "second line"


class TestObservability:
    def test_inline_counters_and_histogram(self, tmp_path):
        obs.configure(enabled=True)
        run(tmp_path, tiny_spec(circuits=("comparator2", "no-such")), INLINE)
        assert series("repro_campaign_shards_completed_total") == {"": 1}
        assert series("repro_campaign_quarantined_total") == {"": 1}
        wall = series("repro_campaign_shard_seconds")
        assert wall[""]["count"] == 1

    def test_worker_telemetry_merges_and_is_journaled(self, tmp_path):
        obs.configure(enabled=True)
        outcome = run(tmp_path, tiny_spec(), ISOLATED)
        assert outcome.complete
        record = load_journal(tmp_path / "c.jsonl").results[0]["obs"]
        assert "metrics" in record and record["worker_wall_seconds"] > 0
        assert series("repro_campaign_shards_completed_total") == {"": 1}
        compiles = series("repro_engine_compile_cache_misses_total")
        assert sum(compiles.values()) > 0  # counted in the worker

    def test_malformed_worker_telemetry_never_fails_the_shard(
        self, tmp_path, monkeypatch
    ):
        obs.configure(enabled=True)
        # Spans that are not a list and metrics whose series are not
        # mappings: both must be swallowed and counted, never raised.
        ingest_worker_obs({"spans": 42})
        ingest_worker_obs({"metrics": {"bogus": 7}})
        assert series("repro_campaign_telemetry_drops_total") == {"": 2}

        def refuse(records, parent_id=None):
            raise RuntimeError("collector is full")

        monkeypatch.setattr(obs, "ingest_spans", refuse)
        outcome = run(tmp_path, tiny_spec(), ISOLATED)
        assert outcome.complete
        assert series("repro_campaign_telemetry_drops_total") == {"": 3}

    def test_worker_spans_carry_the_shard_fingerprint(self, tmp_path):
        obs.configure(enabled=True)
        spec = tiny_spec(modes=({"kind": "delay"},))
        outcome = run(tmp_path, spec, ISOLATED)
        assert outcome.complete
        worker_spans = [
            r for r in obs.span_records() if r["pid"] != os.getpid()
        ]
        assert worker_spans
        assert {r["args"].get("corr") for r in worker_spans} == {
            plan_campaign(spec)[0].fingerprint()
        }

    def test_worker_shard_spans_nest_under_attempt_spans(self, tmp_path):
        obs.configure(enabled=True)
        run(tmp_path, tiny_spec(shards_per_cell=2), ISOLATED)
        records = obs.span_records()
        by_id = {r["id"]: r for r in records}
        worker_shards = [
            r for r in records if r["name"] == "campaign.worker_shard"
        ]
        assert len(worker_shards) == 2
        for r in worker_shards:
            assert by_id[r["parent"]]["name"] == "campaign.attempt"
        # The one dispatch thread spawns its worker once, inside the first
        # attempt, so the spawn-and-ready wait is not attempt self time.
        (spawn,) = [r for r in records if r["name"] == "campaign.worker_spawn"]
        assert by_id[spawn["parent"]]["name"] == "campaign.attempt"
        assert spawn["args"]["respawn"] is False
        # The worker's time is the attempt's child time, not its self time.
        (attempt,) = [
            row for row in obs.summarize_trace(records)["rows"]
            if row["name"] == "campaign.attempt"
        ]
        assert attempt["self_us"] < attempt["wall_us"]

    def test_shard_spans_record_outcome(self, tmp_path):
        obs.configure(enabled=True)
        run(tmp_path, tiny_spec(), INLINE)
        (span,) = [
            r for r in obs.span_records() if r["name"] == "campaign.shard"
        ]
        assert span["args"]["outcome"] == "done"
        assert span["args"]["attempts"] == 1
        assert span["args"]["circuit"] == "comparator2"
        assert span["args"]["shard"] == 0

    def test_attempt_spans_nest_under_shard_spans(self, tmp_path):
        obs.configure(enabled=True)
        run(tmp_path, tiny_spec(shards_per_cell=2), INLINE)
        records = obs.span_records()
        by_id = {r["id"]: r for r in records}
        named = {}
        for r in records:
            named.setdefault(r["name"], []).append(r)
        assert len(named["campaign.attempt"]) == 2
        assert len(named["campaign.shard"]) == 2
        for attempt in named["campaign.attempt"]:
            assert by_id[attempt["parent"]]["name"] == "campaign.shard"
        for shard in named["campaign.shard"]:
            assert by_id[shard["parent"]]["name"] == "campaign.run"
