"""Worker processes for isolated shard attempts.

Each dispatch thread of a run owns one :class:`WorkerSlot`: a persistent
``python -m repro.campaign.serve`` subprocess fed one request line per
attempt.  A worker that crashes, hangs past ``task_timeout``, answers
garbage or is sabotaged is killed, and the slot respawns it, after an
exponential backoff, on its next attempt; the failure costs that one
attempt, never the run.  A fresh worker announces itself with a ready
line once its imports are done, and ``task_timeout`` starts only when the
request goes to a ready worker: interpreter start-up is bounded
separately by :data:`WORKER_START_TIMEOUT`.

Metrics: ``repro_campaign_respawns_total{outcome}`` counts respawns
(``respawned``) and failed spawns (``spawn-failed``), and
``repro_campaign_telemetry_drops_total`` counts worker telemetry payloads
that would not ingest (the shard result is kept).
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING

import repro
from repro import obs
from repro.campaign.spec import ShardSpec
from repro.campaign.worker import SCHEMA

if TYPE_CHECKING:
    from repro.campaign.runner import RunnerConfig

#: Seconds a freshly spawned worker may take to import and report ready.
WORKER_START_TIMEOUT = 60.0

_TRACER = obs.get_tracer("campaign")
_METER = obs.get_meter()
_RESPAWNS = _METER.counter(
    "repro_campaign_respawns_total",
    "worker subprocess respawns (label: outcome = respawned / spawn-failed)",
)
_TELEMETRY_DROPS = _METER.counter(
    "repro_campaign_telemetry_drops_total",
    "worker telemetry payloads that failed to ingest and were dropped; "
    "the shard result is unaffected",
)


class AttemptError(Exception):
    """One attempt failed.  ``retryable`` marks environmental causes."""

    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


def ingest_worker_obs(worker_obs: dict, parent_id: int | None = None) -> None:
    """Merge a worker's spans and metric deltas into this process.

    The worker's root spans become children of the local span
    ``parent_id`` (the ``campaign.attempt`` that waited on them).

    Telemetry is best effort: a malformed payload must never fail a shard
    that computed fine, so any ingest error is swallowed and counted.
    """
    try:
        spans = worker_obs.get("spans")
        if spans:
            obs.ingest_spans(spans, parent_id)
        metrics = worker_obs.get("metrics")
        if metrics:
            obs.merge_metrics(metrics)
    except Exception:  # noqa: BLE001 - telemetry is best-effort
        _TELEMETRY_DROPS.add()


def _child_env() -> dict[str, str]:
    """Environment for worker subprocesses; guarantees ``repro`` imports
    and propagates the parent's observability state."""
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    if obs.enabled():
        env[obs.ENV_VAR] = "1"
    else:
        env.pop(obs.ENV_VAR, None)
    return env


class _WorkerHandle:
    """One persistent worker subprocess with line-based request/response."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.campaign.serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
        self._buf = b""
        self._stderr_tail: deque[str] = deque(maxlen=50)
        self._drain = threading.Thread(
            target=self._drain_stderr, daemon=True,
            name=f"campaign-stderr-{self.proc.pid}",
        )
        self._drain.start()

    def _drain_stderr(self) -> None:
        stream = self.proc.stderr
        assert stream is not None
        # The pipe may close mid-read; the thread then ends quietly and
        # keeps the lines read so far.
        try:
            for raw in stream:
                self._stderr_tail.append(raw.decode("utf-8", "replace"))
        except (OSError, ValueError):
            return

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stderr_tail(self) -> str:
        for line in reversed(self._stderr_tail):
            if line.strip():
                return line.strip()
        return ""

    def death_message(self, rc: int) -> str:
        cause = f"killed by signal {-rc}" if rc < 0 else f"exited {rc}"
        tail = self.stderr_tail()
        return f"worker {cause}" + (f" ({tail})" if tail else "")

    def wait_ready(self, timeout: float) -> bool:
        """Whether the worker reported ready within ``timeout`` seconds."""
        try:
            line = self.read_line(timeout)
        except TimeoutError:
            return False
        if line is None:
            return False
        try:
            doc = json.loads(line)
        except ValueError:
            return False
        return isinstance(doc, dict) and doc.get("ready") is True

    def send_line(self, line: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(line.encode())
        self.proc.stdin.flush()

    def read_line(self, timeout: float) -> bytes | None:
        """One response line within ``timeout`` seconds.

        Returns ``None`` on EOF (worker died); raises
        :class:`TimeoutError` when the deadline expires.
        """
        stdout = self.proc.stdout
        assert stdout is not None
        fd = stdout.fileno()
        deadline = time.monotonic() + timeout
        while True:
            newline = self._buf.find(b"\n")
            if newline >= 0:
                line = self._buf[:newline]
                self._buf = self._buf[newline + 1:]
                return line
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.5))
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buf += chunk

    def kill(self) -> int:
        """Kill the worker (if alive) and reap it; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            pass
        self._close_pipes()
        return self.proc.returncode if self.proc.returncode is not None else 0

    def shutdown(self, grace: float = 1.0) -> None:
        """Polite close: EOF on stdin, brief wait, then kill."""
        try:
            if self.proc.stdin is not None:
                self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._close_pipes()

    def _close_pipes(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            try:
                if stream is not None:
                    stream.close()
            except OSError:  # pragma: no cover - defensive
                pass


class WorkerSlot:
    """One dispatch thread's worker, respawned as attempts lose it."""

    def __init__(self, config: RunnerConfig):
        self.config = config
        self.handle: _WorkerHandle | None = None
        #: Consecutive respawns since the last healthy attempt; drives the
        #: respawn backoff and resets on success.
        self.respawns = 0
        #: The worker was discarded mid-attempt and the next spawn is a
        #: (metered, backed-off) respawn.
        self._respawn_pending = False

    def respawn_delay(self) -> float:
        """Seconds to wait before respawn number ``respawns``.

        The first spawn is free; then ``backoff_base * 2**(n - 1)`` capped
        at ``backoff_cap``, so a spawn that keeps failing (bad
        interpreter, ENOMEM) cannot burn the retry budget in a tight loop.
        """
        if self.respawns <= 0:
            return 0.0
        return min(
            self.config.backoff_cap,
            self.config.backoff_base * (2.0 ** (self.respawns - 1)),
        )

    def _spawn_failed(self, message: str) -> AttemptError:
        self.respawns += 1
        _RESPAWNS.add(1, outcome="spawn-failed")
        return AttemptError(f"worker spawn failed: {message}")

    def _worker(self) -> _WorkerHandle:
        handle = self.handle
        if handle is not None and handle.alive():
            return handle
        # Respawning covers both a corpse found here and a worker already
        # discarded mid-attempt (crash, timeout, garbled pipe).
        respawning = handle is not None or self._respawn_pending
        self._respawn_pending = False
        if handle is not None:
            handle.kill()
            self.handle = None
        # The backoff, the interpreter start and the worker's imports are
        # waiting on a worker, not work of the attempt that needs it.
        with _TRACER.span("campaign.worker_spawn", respawn=respawning):
            if respawning or self.respawns:
                delay = self.respawn_delay()
                if delay > 0:
                    time.sleep(delay)
            try:
                handle = _WorkerHandle()
            except OSError as exc:
                # Spawning itself failed (exec error, fd or memory
                # exhaustion): one attempt lost, like any environmental
                # failure.
                raise self._spawn_failed(str(exc)) from exc
            if not handle.wait_ready(WORKER_START_TIMEOUT):
                # Never became ready: a broken environment or a stuck import.
                rc = handle.kill()
                raise self._spawn_failed(
                    f"not ready within {WORKER_START_TIMEOUT:g}s "
                    f"({handle.death_message(rc)})"
                )
        if respawning or self.respawns:
            self.respawns += 1
            _RESPAWNS.add(1, outcome="respawned")
        self.handle = handle
        return handle

    def _discard(self) -> int:
        handle = self.handle
        self.handle = None
        self._respawn_pending = True
        return handle.kill() if handle is not None else 0

    def attempt(
        self,
        shard: ShardSpec,
        attempt: int,
        sabotage: dict | None,
        corr: str,
        parent_id: int | None = None,
    ) -> tuple[dict, dict | None]:
        """Run one attempt of ``shard`` on this slot's worker.

        Returns the shard record and the worker's telemetry payload (merged
        into this process already, its spans under the span ``parent_id``),
        or raises :class:`AttemptError`.
        """
        handle = self._worker()
        line = json.dumps({
            "schema": SCHEMA,
            "key": shard.index,
            "attempt": attempt,
            "sabotage": sabotage,
            "corr": corr,
            "shard": shard.to_json(),
        }) + "\n"
        try:
            handle.send_line(line)
        except OSError:
            rc = self._discard()
            raise AttemptError(handle.death_message(rc)) from None
        try:
            reply = handle.read_line(self.config.task_timeout)
        except TimeoutError:
            self._discard()
            raise AttemptError(
                f"worker timed out after {self.config.task_timeout:g}s"
            ) from None
        if reply is None:
            rc = self._discard()
            raise AttemptError(handle.death_message(rc))
        try:
            response = json.loads(reply)
        except ValueError:
            response = None
        if not isinstance(response, dict) or (
            "result" not in response and "error" not in response
        ):
            # The worker's stdout is out of protocol; its state is unknown.
            self._discard()
            raise AttemptError("worker produced no parseable result")
        if "error" in response:
            # The worker ran the shard and reported a deterministic error;
            # it stays alive for the next shard.
            raise AttemptError(str(response["error"]), retryable=False)
        if response.get("key") != shard.index:
            self._discard()
            raise AttemptError(
                f"worker answered for shard {response.get('key')!r}, "
                f"expected {shard.index!r}", retryable=False,
            )
        self.respawns = 0
        worker_obs = response.get("obs")
        if not isinstance(worker_obs, dict):
            return response["result"], None
        ingest_worker_obs(worker_obs, parent_id)
        return response["result"], worker_obs

    def close(self) -> None:
        if self.handle is not None:
            self.handle.shutdown()
            self.handle = None
