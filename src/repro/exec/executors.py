"""Pluggable executors: one retry/quarantine/breaker loop, two backends.

:class:`Executor` owns the whole resilience story that used to be welded
into the campaign runner — per-task retry with deterministic backoff
(:class:`~repro.exec.policy.RetryPolicy`), quarantine of tasks that
exhaust their budget, and a run-wide circuit breaker
(:class:`~repro.exec.policy.BreakerPolicy`).  Backends differ only in how
one *attempt* runs:

========== ===================== ========== ======== =================
backend    attempt runs in       isolation  timeout  sabotage drills
========== ===================== ========== ======== =================
inline     the calling thread    none       no       no
process    a persistent worker   full       yes      yes
           subprocess
========== ===================== ========== ======== =================

The process backend is a **persistent pool**: each dispatch thread owns one
``python -m repro.exec.worker`` subprocess and feeds it request lines,
so interpreter startup is paid once per worker, not once per task, and
worker-side caches survive across tasks.  A worker that crashes, hangs
past ``task_timeout``, or is sabotaged is killed and respawned; the
failure costs one attempt, never the run.  A fresh worker announces itself
with a ready line once its imports are done, and ``task_timeout`` only
starts when the request is sent to a ready worker: interpreter startup is
bounded separately by :data:`WORKER_START_TIMEOUT`.

Worker telemetry (spans + metric deltas) is ingested/merged into the
parent's registry here, at attempt completion — consumers receive the raw
payload on :attr:`TaskResult.worker_obs` for journaling but must not merge
it again.
"""

from __future__ import annotations

import json
import os
import queue
import select
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import repro
from repro import obs
from repro.errors import ExecError
from repro.exec import _obs
from repro.exec.policy import BreakerPolicy, RetryPolicy
from repro.exec.registry import resolve
from repro.exec.protocol import DETERMINISTIC_ERRORS, EXEC_SCHEMA
from repro.exec.task import Task, TaskResult

#: Event callback: ``events(event, task, message, info)`` with events
#: ``attempt-started`` / ``attempt-failed`` / ``retry`` / ``task-done`` /
#: ``quarantined`` / ``breaker``.
EventFn = Callable[[str, Task, str, dict], None]

#: Result callback, invoked once per *settled* task (done or quarantined),
#: in completion order, from dispatch threads.
ResultFn = Callable[[TaskResult], None]


def default_worker_count() -> int:
    """Default process-pool size: the machine's cores, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def validated_jobs(jobs: int) -> int:
    """Eager validation of a worker count.

    Rejects negatives up front (instead of failing deep inside pool
    startup); ``0`` uniformly selects the inline backend.
    """
    try:
        jobs = int(jobs)
    except (TypeError, ValueError):
        raise ExecError(f"worker count {jobs!r} must be an integer") from None
    if jobs < 0:
        raise ExecError(f"worker count {jobs} must be >= 0 (0 = inline)")
    return jobs


class TaskAttemptError(Exception):
    """One attempt failed.  ``retryable`` marks environmental causes."""

    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


@dataclass
class ExecReport:
    """What one :meth:`Executor.run` call produced."""

    results: dict[Any, TaskResult] = field(default_factory=dict)
    attempts: int = 0
    wall_seconds: float = 0.0
    breaker_reason: str | None = None

    @property
    def done(self) -> dict[Any, TaskResult]:
        return {k: r for k, r in self.results.items() if r.outcome == "done"}

    @property
    def quarantined(self) -> dict[Any, TaskResult]:
        return {
            k: r for k, r in self.results.items()
            if r.outcome == "quarantined"
        }

    @property
    def complete(self) -> bool:
        return all(r.outcome == "done" for r in self.results.values())


class _RunState:
    """Mutable state shared by the dispatch threads of one run."""

    def __init__(self, breaker: BreakerPolicy):
        self.breaker = breaker
        self.stop = threading.Event()
        self.breaker_reason: str | None = None
        self.attempts = 0
        self.results: dict[Any, TaskResult] = {}
        self.lock = threading.Lock()
        self._consecutive = 0

    def note_failure(self, message: str) -> bool:
        """Record a failed attempt; True if this one tripped the breaker."""
        with self.lock:
            self.attempts += 1
            self._consecutive += 1
            if not self.stop.is_set():
                reason = self.breaker.trip_reason(self._consecutive, message)
                if reason is not None:
                    self.breaker_reason = reason
                    self.stop.set()
                    return True
        return False

    def note_success(self) -> None:
        with self.lock:
            self.attempts += 1
            self._consecutive = 0


class Executor:
    """Base class: the retry/quarantine/breaker loop over abstract attempts.

    Subclasses implement :meth:`_attempt` (run one attempt, return
    ``(value, worker_obs)`` or raise :class:`TaskAttemptError`) and declare
    their ``backend`` name and parallelism.
    """

    backend = "abstract"

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        breaker: BreakerPolicy | None = None,
        task_timeout: float = 300.0,
        events: EventFn | None = None,
        parent_span_id: int | None = None,
    ):
        if task_timeout <= 0:
            raise ExecError(f"task_timeout {task_timeout} must be positive")
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or BreakerPolicy()
        self.task_timeout = task_timeout
        self.events = events
        #: Parent span id for per-task spans (dispatch threads cannot rely
        #: on implicit nesting).  Settable between runs.
        self.parent_span_id = parent_span_id

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Release backend resources (worker subprocesses)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- plumbing

    @property
    def parallelism(self) -> int:
        return 1

    def _emit(self, event: str, task: Task, message: str, **info: Any) -> None:
        if self.events is not None:
            self.events(event, task, message, info)

    def _ingest_worker_obs(self, task: Task, worker_obs: dict | None) -> None:
        """Merge a worker's telemetry payload into the parent registry.

        Degrades gracefully: a worker emitting malformed spans or metrics
        must never fail a task that computed fine, so *any* ingest error
        is swallowed, counted (``repro_exec_telemetry_drops_total``), and
        surfaced as a ``telemetry-drop`` event instead.
        """
        if not worker_obs:
            return
        try:
            spans = worker_obs.get("spans")
            if spans:
                obs.ingest_spans(spans)
            metrics = worker_obs.get("metrics")
            if metrics:
                obs.merge_metrics(metrics)
        except Exception as exc:  # noqa: BLE001 - telemetry is best-effort
            if _obs.METER.enabled:
                _obs.TELEMETRY_DROPS.add(1, backend=self.backend)
            self._emit(
                "telemetry-drop", task,
                f"worker telemetry dropped: {type(exc).__name__}: {exc}",
            )

    def _attempt(
        self, slot: int, task: Task, attempt: int
    ) -> tuple[Any, dict | None]:
        raise NotImplementedError

    # ------------------------------------------------------------- the loop

    def _run_task(
        self,
        slot: int,
        task: Task,
        state: _RunState,
        on_result: ResultFn | None,
    ) -> None:
        tracer = obs.get_tracer(task.span_category)
        span_name = task.span_name or "exec.task"
        with tracer.span(
            span_name, parent_id=self.parent_span_id, **dict(task.span_attrs)
        ) as task_span:
            started = time.perf_counter()
            failures: list[str] = []
            attempt = 0
            worker_obs: dict | None = None
            while attempt <= self.retry.max_retries:
                if state.stop.is_set():
                    task_span.set(outcome="stopped")
                    result = TaskResult(
                        task=task,
                        outcome="stopped",
                        attempts=len(failures),
                        failures=tuple(failures),
                        wall_seconds=time.perf_counter() - started,
                    )
                    with state.lock:
                        state.results[task.key] = result
                    if _obs.METER.enabled:
                        _obs.TASKS.add(1, backend=self.backend, outcome="stopped")
                    return
                self._emit("attempt-started", task, f"attempt {attempt + 1}")
                try:
                    with _obs.TRACER.span(
                        "exec.attempt",
                        kind=task.kind,
                        attempt=attempt,
                        **dict(task.attempt_attrs),
                    ):
                        value, worker_obs = self._attempt(slot, task, attempt)
                except TaskAttemptError as exc:
                    failures.append(str(exc))
                    tripped = state.note_failure(str(exc))
                    if tripped:
                        self._emit(
                            "breaker", task, state.breaker_reason or str(exc)
                        )
                    self._emit(
                        "attempt-failed", task,
                        f"attempt {attempt + 1}: {exc}",
                        retryable=exc.retryable, attempt=attempt,
                    )
                    if not exc.retryable:
                        break
                    attempt += 1
                    if attempt <= self.retry.max_retries and not state.stop.is_set():
                        self._emit("retry", task, f"attempt {attempt + 1} next")
                        time.sleep(self.retry.delay(task, attempt - 1))
                    continue
                state.note_success()
                wall = time.perf_counter() - started
                result = TaskResult(
                    task=task,
                    outcome="done",
                    value=value,
                    attempts=attempt + 1,
                    failures=tuple(failures),
                    wall_seconds=wall,
                    worker_obs=worker_obs,
                )
                with state.lock:
                    state.results[task.key] = result
                if on_result is not None:
                    on_result(result)
                self._emit(
                    "task-done", task, f"attempts={attempt + 1}",
                    attempts=attempt + 1, wall_seconds=wall,
                )
                if _obs.METER.enabled:
                    _obs.TASKS.add(1, backend=self.backend, outcome="done")
                    _obs.TASK_SECONDS.observe(wall, backend=self.backend)
                task_span.set(outcome="done", attempts=attempt + 1)
                return
            error = failures[-1] if failures else "no attempt made"
            wall = time.perf_counter() - started
            result = TaskResult(
                task=task,
                outcome="quarantined",
                attempts=len(failures),
                error=error,
                failures=tuple(failures),
                wall_seconds=wall,
            )
            with state.lock:
                state.results[task.key] = result
            if on_result is not None:
                on_result(result)
            self._emit("quarantined", task, error, attempts=len(failures))
            if _obs.METER.enabled:
                _obs.TASKS.add(1, backend=self.backend, outcome="quarantined")
                _obs.TASK_SECONDS.observe(wall, backend=self.backend)
            task_span.set(outcome="quarantined", attempts=len(failures))

    def run(
        self,
        tasks: Sequence[Task],
        on_result: ResultFn | None = None,
        sabotage: Mapping[Any, dict] | None = None,
    ) -> ExecReport:
        """Run every task to a terminal outcome; never raises for task
        failures (only for misuse/misconfiguration)."""
        if sabotage:
            raise ExecError(
                f"sabotage drills require the process backend, "
                f"not {self.backend!r}"
            )
        return self._run(list(tasks), on_result)

    def _run(self, tasks: list[Task], on_result: ResultFn | None) -> ExecReport:
        keys = [t.key for t in tasks]
        if len(set(keys)) != len(keys):
            raise ExecError("task keys must be unique within one run")
        state = _RunState(self.breaker)
        started = time.monotonic()
        width = min(self.parallelism, len(tasks))
        if width <= 1:
            for task in tasks:
                if state.stop.is_set():
                    break
                self._run_task(0, task, state, on_result)
        else:
            work: queue.SimpleQueue[Task] = queue.SimpleQueue()
            for task in tasks:
                work.put(task)

            def loop(slot: int) -> None:
                while not state.stop.is_set():
                    try:
                        task = work.get_nowait()
                    except queue.Empty:
                        return
                    self._run_task(slot, task, state, on_result)

            threads = [
                threading.Thread(
                    target=loop, args=(i,), name=f"exec-{self.backend}-{i}"
                )
                for i in range(width)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return ExecReport(
            results=state.results,
            attempts=state.attempts,
            wall_seconds=time.monotonic() - started,
            breaker_reason=state.breaker_reason,
        )


class InlineExecutor(Executor):
    """Run tasks in the calling thread: no isolation, no timeout, fastest.

    The uniform meaning of ``workers=0`` everywhere.
    """

    backend = "inline"

    def _attempt(
        self, slot: int, task: Task, attempt: int
    ) -> tuple[Any, dict | None]:
        runner = resolve(task.kind)
        try:
            return runner(dict(task.payload)), None
        except DETERMINISTIC_ERRORS as exc:
            raise TaskAttemptError(
                f"{type(exc).__name__}: {exc}", retryable=False
            ) from exc


#: Seconds a freshly spawned worker may take to import and report ready.
WORKER_START_TIMEOUT = 60.0


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
            [sys.executable, "-m", "repro.exec.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
        self._buf = b""
        self._stderr_tail: deque[str] = deque(maxlen=50)
        self._drain = threading.Thread(
            target=self._drain_stderr, daemon=True,
            name=f"exec-stderr-{self.proc.pid}",
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

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def stderr_tail(self) -> str:
        for line in reversed(self._stderr_tail):
            if line.strip():
                return line.strip()
        return ""

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

    def send(self, request: dict) -> None:
        self.send_line(json.dumps(request) + "\n")

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


class ProcessPoolExecutor(Executor):
    """A pool of persistent worker subprocesses, one per dispatch thread.

    Full crash isolation with per-attempt timeouts: a worker that dies,
    wedges, or answers garbage is killed and respawned, costing one
    attempt.  Sabotage drills are supported (and only here — they must
    kill a real process).
    """

    backend = "process"

    def __init__(self, workers: int = 2, **kwargs: Any):
        super().__init__(**kwargs)
        if workers < 1:
            raise ExecError(
                f"process executor needs workers >= 1, got {workers}; "
                "use InlineExecutor for in-process runs"
            )
        self.workers = workers
        self._handles: list[_WorkerHandle | None] = [None] * workers
        # Consecutive respawns per slot since the last healthy attempt;
        # drives the exponential respawn backoff and resets on success.
        self._respawns: list[int] = [0] * workers
        # Slots whose worker was discarded mid-attempt and needs a
        # (metered, backed-off) respawn on next use.
        self._respawn_pending: list[bool] = [False] * workers
        self._sabotage: dict[Any, dict] = {}
        self._closed = False

    @property
    def parallelism(self) -> int:
        return self.workers

    def run(
        self,
        tasks: Sequence[Task],
        on_result: ResultFn | None = None,
        sabotage: Mapping[Any, dict] | None = None,
    ) -> ExecReport:
        if self._closed:
            raise ExecError("executor is closed")
        self._sabotage = dict(sabotage or {})
        try:
            return self._run(list(tasks), on_result)
        finally:
            self._sabotage = {}

    def _respawn_delay(self, slot: int) -> float:
        """Exponential backoff before respawn attempt N on this slot.

        Reuses the retry policy's base/cap so tests with zero-backoff
        policies stay fast; without it, a persistently failing spawn
        (bad interpreter, ENOMEM) would burn the whole retry budget in a
        tight loop.
        """
        n = self._respawns[slot]
        if n <= 0:
            return 0.0
        return min(
            self.retry.backoff_cap,
            self.retry.backoff_base * (2.0 ** (n - 1)),
        )

    def _worker(self, slot: int) -> _WorkerHandle:
        handle = self._handles[slot]
        if handle is not None and handle.alive():
            return handle
        # Respawning covers both a corpse discovered here and a worker
        # already discarded mid-attempt (crash, timeout, garbled pipe).
        respawning = handle is not None or self._respawn_pending[slot]
        self._respawn_pending[slot] = False
        if handle is not None:
            handle.kill()
            self._handles[slot] = None
        if respawning or self._respawns[slot]:
            delay = self._respawn_delay(slot)
            if delay > 0:
                time.sleep(delay)
        try:
            handle = _WorkerHandle()
        except OSError as exc:
            # Spawning itself failed (exec error, fd/memory exhaustion).
            # Costs one attempt like any environmental failure — with the
            # backoff above between attempts — instead of killing the
            # dispatch thread.
            self._respawns[slot] += 1
            if _obs.METER.enabled:
                _obs.RESPAWNS.add(
                    1, backend=self.backend, outcome="spawn-failed"
                )
            raise TaskAttemptError(f"worker spawn failed: {exc}") from exc
        if not handle.wait_ready(WORKER_START_TIMEOUT):
            # Never became ready: a broken environment or a stuck import.
            # Same accounting as a failed spawn.
            rc = handle.kill()
            self._respawns[slot] += 1
            if _obs.METER.enabled:
                _obs.RESPAWNS.add(
                    1, backend=self.backend, outcome="spawn-failed"
                )
            raise TaskAttemptError(
                "worker spawn failed: not ready within "
                f"{WORKER_START_TIMEOUT:g}s "
                f"({self._death_message(rc, handle)})"
            )
        if respawning or self._respawns[slot]:
            self._respawns[slot] += 1
            if _obs.METER.enabled:
                _obs.RESPAWNS.add(
                    1, backend=self.backend, outcome="respawned"
                )
        self._handles[slot] = handle
        return handle

    def _discard_worker(self, slot: int) -> int:
        handle = self._handles[slot]
        self._handles[slot] = None
        self._respawn_pending[slot] = True
        return handle.kill() if handle is not None else 0

    def _attempt(
        self, slot: int, task: Task, attempt: int
    ) -> tuple[Any, dict | None]:
        handle = self._worker(slot)
        envelope = json.dumps({
            "schema": EXEC_SCHEMA,
            "kind": task.kind,
            "key": task.key,
            "attempt": attempt,
            "sabotage": self._sabotage.get(task.key),
            "corr": task.fingerprint(),
        })
        # Splice the task's cached payload encoding into the request line:
        # a payload is then serialized once per task instead of once per
        # attempt.
        line = f'{envelope[:-1]},"payload":{task.payload_json}}}\n'
        try:
            handle.send_line(line)
        except (BrokenPipeError, OSError):
            rc = self._discard_worker(slot)
            raise TaskAttemptError(self._death_message(rc, handle)) from None
        try:
            line = handle.read_line(self.task_timeout)
        except TimeoutError:
            self._discard_worker(slot)
            raise TaskAttemptError(
                f"worker timed out after {self.task_timeout:g}s"
            ) from None
        if line is None:
            rc = self._discard_worker(slot)
            raise TaskAttemptError(self._death_message(rc, handle)) from None
        try:
            payload = json.loads(line)
        except ValueError:
            payload = None
        if not isinstance(payload, dict) or (
            "result" not in payload and "error" not in payload
        ):
            # The worker's stdout is out of protocol; its state is unknown.
            self._discard_worker(slot)
            raise TaskAttemptError("worker produced no parseable result")
        if "error" in payload:
            # The worker ran the task and reported a deterministic error;
            # it stays alive for the next task.
            raise TaskAttemptError(str(payload["error"]), retryable=False)
        if payload.get("key") != task.key:
            self._discard_worker(slot)
            raise TaskAttemptError(
                f"worker answered for key {payload.get('key')!r}, "
                f"expected {task.key!r}", retryable=False,
            )
        self._respawns[slot] = 0
        worker_obs = payload.get("obs")
        worker_obs = worker_obs if isinstance(worker_obs, dict) else None
        self._ingest_worker_obs(task, worker_obs)
        return payload["result"], worker_obs

    @staticmethod
    def _death_message(rc: int, handle: _WorkerHandle) -> str:
        cause = f"killed by signal {-rc}" if rc < 0 else f"exited {rc}"
        tail = handle.stderr_tail()
        return f"worker {cause}" + (f" ({tail})" if tail else "")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for slot, handle in enumerate(self._handles):
            if handle is not None:
                handle.shutdown()
            self._handles[slot] = None


def make_executor(
    workers: int,
    retry: RetryPolicy | None = None,
    breaker: BreakerPolicy | None = None,
    task_timeout: float = 300.0,
    events: EventFn | None = None,
) -> Executor:
    """Build the executor a worker count selects.

    ``0`` -> inline, ``N >= 1`` -> a process pool of N persistent
    workers.  Negative counts are rejected eagerly.
    """
    workers = validated_jobs(workers)
    kwargs: dict[str, Any] = dict(
        retry=retry, breaker=breaker, task_timeout=task_timeout, events=events
    )
    if workers == 0:
        return InlineExecutor(**kwargs)
    return ProcessPoolExecutor(workers=workers, **kwargs)


__all__ = [
    "EventFn",
    "ResultFn",
    "ExecReport",
    "Executor",
    "InlineExecutor",
    "ProcessPoolExecutor",
    "TaskAttemptError",
    "WORKER_START_TIMEOUT",
    "default_worker_count",
    "validated_jobs",
    "make_executor",
]
