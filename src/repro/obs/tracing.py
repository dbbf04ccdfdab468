"""Span tracing: nested, thread-safe, cheap to disable.

A :class:`Span` measures wall time (``time.perf_counter_ns``), CPU time
(``time.thread_time_ns``), and carries an epoch-anchored start timestamp
(``time.time_ns``) so spans recorded in different processes — e.g. the
campaign runner and its subprocess workers — line up on one timeline.

Parent/child nesting is tracked per thread with a ``threading.local``
stack, so concurrent dispatcher threads each build their own span tree.
The three clock sources are injectable for deterministic golden tests.

The **correlation id** joins a task's spans across processes: the
process-pool worker binds it to the task fingerprint (the request's
``corr`` field) for the duration of one task, and every span opened
meanwhile carries it as ``args["corr"]``.  It is a :mod:`contextvars`
variable, so concurrent dispatch threads and nested tasks each see
their own id.

When tracing is disabled, :meth:`Tracer.span` returns the shared
:data:`NOOP_SPAN` — entering, exiting, and ``set()`` on it are no-ops —
so an instrumented call site costs one attribute load and one branch.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import os
import threading
import time
from typing import Iterator

from repro.errors import ObsError

#: Fields of a serialised span record, in canonical order.
SPAN_FIELDS = (
    "name",
    "cat",
    "ts_us",
    "dur_us",
    "cpu_us",
    "pid",
    "tid",
    "id",
    "parent",
    "args",
)

_CORRELATION: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obs_correlation", default=None
)


def correlation_id() -> str | None:
    """The active correlation id, or ``None`` outside any task context."""
    return _CORRELATION.get()


@contextlib.contextmanager
def correlation(cid: str | None) -> Iterator[str | None]:
    """Bind *cid* as the correlation id for the dynamic extent of the block.

    ``None`` explicitly clears the id (a worker between tasks).  Nesting
    restores the previous id on exit, so a sub-task context cannot leak
    its id into the enclosing task.
    """
    token = _CORRELATION.set(cid)
    try:
        yield cid
    finally:
        _CORRELATION.reset(token)


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    id = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Span:
    """A live span; use as a context manager.  Finishing records it."""

    __slots__ = (
        "_collector",
        "name",
        "cat",
        "args",
        "parent",
        "id",
        "_ts_us",
        "_t0_perf",
        "_t0_cpu",
    )

    def __init__(self, collector: "TraceCollector", cat: str, name: str, args: dict):
        self._collector = collector
        self.cat = cat
        self.name = name
        self.args = args
        self.parent = None
        self.id = None
        self._ts_us = 0
        self._t0_perf = 0
        self._t0_cpu = 0

    def set(self, **attrs) -> None:
        """Attach attributes to the span (last write per key wins)."""
        self.args.update(attrs)

    def __enter__(self):
        self._collector._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self._collector._exit(self)
        return False


class TraceCollector:
    """Accumulates finished span records; optionally streams JSONL."""

    def __init__(
        self,
        enabled: bool = False,
        wall_ns=time.time_ns,
        perf_ns=time.perf_counter_ns,
        cpu_ns=time.thread_time_ns,
        pid: int | None = None,
    ):
        self.enabled = enabled
        self._wall_ns = wall_ns
        self._perf_ns = perf_ns
        self._cpu_ns = cpu_ns
        self._pid = pid if pid is not None else os.getpid()
        self._lock = threading.Lock()
        self._records: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._jsonl = None

    # -- span lifecycle ---------------------------------------------------

    def start_span(
        self, cat: str, name: str, attrs: dict, parent_id: int | None = None
    ) -> Span:
        span = Span(self, cat, name, attrs)
        if parent_id is not None:
            span.parent = parent_id
        return span

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, span: Span) -> None:
        stack = self._stack()
        if span.parent is None:  # explicit parent (cross-thread) wins
            span.parent = stack[-1].id if stack else None
        span.id = next(self._ids)
        stack.append(span)
        span._ts_us = self._wall_ns() // 1000
        span._t0_perf = self._perf_ns()
        span._t0_cpu = self._cpu_ns()
        # Stamp the active correlation id (task fingerprint) so the spans
        # of one task join on one key.
        corr = _CORRELATION.get()
        if corr is not None:
            span.args.setdefault("corr", corr)

    def _exit(self, span: Span) -> None:
        dur_us = (self._perf_ns() - span._t0_perf) // 1000
        cpu_us = (self._cpu_ns() - span._t0_cpu) // 1000
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # unbalanced exit: drop up to and including this span
            while stack:
                if stack.pop() is span:
                    break
        record = {
            "name": span.name,
            "cat": span.cat,
            "ts_us": span._ts_us,
            "dur_us": dur_us,
            "cpu_us": cpu_us,
            "pid": self._pid,
            "tid": threading.get_ident(),
            "id": span.id,
            "parent": span.parent,
            "args": span.args,
        }
        with self._lock:
            self._records.append(record)
            if self._jsonl is not None:
                self._jsonl.write(json.dumps(record, sort_keys=True) + "\n")
                self._jsonl.flush()

    # -- record access ----------------------------------------------------

    def records(self) -> list[dict]:
        """Copy of all finished span records, in completion order."""
        with self._lock:
            return [dict(r) for r in self._records]

    def ingest(self, records, parent_id: int | None = None) -> None:
        """Adopt span records produced elsewhere (e.g. a worker process).

        Foreign ``id``/``parent`` pairs are remapped into this collector's
        id space so cross-process parents stay consistent; foreign roots
        become children of ``parent_id`` (the local span that waited on
        the foreign work), so their time is not counted twice.
        """
        remap: dict = {}
        adopted = []
        for rec in records:
            if not isinstance(rec, dict) or "name" not in rec or "ts_us" not in rec:
                raise ObsError("malformed span record during ingest")
            new = {field: rec.get(field) for field in SPAN_FIELDS}
            old_id = rec.get("id")
            new_id = next(self._ids)
            if old_id is not None:
                remap[old_id] = new_id
            new["id"] = new_id
            adopted.append(new)
        for new in adopted:
            new["parent"] = remap.get(new["parent"], parent_id)
            if new.get("args") is None:
                new["args"] = {}
        with self._lock:
            self._records.extend(adopted)
            if self._jsonl is not None:
                for new in adopted:
                    self._jsonl.write(json.dumps(new, sort_keys=True) + "\n")
                self._jsonl.flush()

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
        self._local = threading.local()

    # -- streaming sink ---------------------------------------------------

    def set_jsonl(self, path: str | None) -> None:
        """Stream every finished span to *path* as one JSON line each."""
        with self._lock:
            if self._jsonl is not None:
                self._jsonl.close()
                self._jsonl = None
            if path is not None:
                self._jsonl = open(path, "w", encoding="utf-8")


class Tracer:
    """Per-subsystem facade; ``span()`` is the only call sites need."""

    __slots__ = ("cat", "_collector")

    def __init__(self, cat: str, collector: TraceCollector):
        self.cat = cat
        self._collector = collector

    def span(self, name: str, parent_id: int | None = None, **attrs):
        """Open a span.  ``parent_id`` overrides the thread-local nesting —
        needed when the logical parent lives on another thread (e.g. the
        campaign dispatcher parenting shard spans under the run span)."""
        collector = self._collector
        if not collector.enabled:
            return NOOP_SPAN
        return collector.start_span(self.cat, name, attrs, parent_id)
