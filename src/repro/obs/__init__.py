"""repro.obs — zero-dependency observability: metrics, tracing, profiling.

Entry points::

    from repro import obs

    meter = obs.get_meter()                  # global MetricsRegistry
    tracer = obs.get_tracer("engine")        # per-subsystem span factory
    evals = meter.counter("repro_engine_eval_calls_total", "word-eval calls")

    with tracer.span("engine.compile", circuit="C432") as sp:
        ...
        sp.set(gates=160)

Everything is **off by default**: instruments record nothing and
``tracer.span()`` returns a shared no-op span, so instrumented hot paths
cost one attribute load and one branch (<2% on ``eval_words``; enforced
by ``benchmarks/bench_obs_overhead.py``).  Enable via:

* the ``REPRO_OBS`` environment variable (``1/true/on/yes``; an
  unrecognised token raises :class:`~repro.errors.ObsError` eagerly) —
  also how campaign workers inherit the setting;
* CLI flags ``--trace FILE`` / ``--metrics FILE`` on any subcommand;
* :func:`configure` from code.

See DESIGN.md §12 for the span taxonomy and metric naming convention.
"""

from __future__ import annotations

import os

from repro.errors import ObsError
from repro.obs.export import (
    chrome_trace,
    load_trace,
    render_prometheus,
    validate_chrome_trace,
    write_metrics,
    write_trace,
)
from repro.obs.metrics import (
    BATCH_BUCKETS,
    TIME_BUCKETS_S,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.report import render_trace_summary, summarize_trace
from repro.obs.tracing import (
    NOOP_SPAN,
    Span,
    TraceCollector,
    Tracer,
    correlation,
    correlation_id,
)

ENV_VAR = "REPRO_OBS"

#: Recognised settings of :data:`ENV_VAR`; anything else raises eagerly.
_FALSY = frozenset({"", "0", "false", "off", "no"})
_TRUTHY = frozenset({"1", "true", "on", "yes"})

_METER = MetricsRegistry()
_COLLECTOR = TraceCollector()
_TRACERS: dict[str, Tracer] = {}


def get_meter() -> MetricsRegistry:
    """The process-global metrics registry (shared by all subsystems)."""
    return _METER


def get_tracer(subsystem: str) -> Tracer:
    """A tracer whose spans carry *subsystem* as their category."""
    tracer = _TRACERS.get(subsystem)
    if tracer is None:
        tracer = _TRACERS[subsystem] = Tracer(subsystem, _COLLECTOR)
    return tracer


def enabled() -> bool:
    """True when the observability layer is recording."""
    return _METER.enabled


def configure(enabled: bool | None = None, trace_jsonl: str | None = None) -> None:
    """Switch recording on/off and optionally stream spans to a JSONL file."""
    if enabled is not None:
        _METER.enabled = enabled
        _COLLECTOR.enabled = enabled
    if trace_jsonl is not None:
        _COLLECTOR.set_jsonl(trace_jsonl or None)


def reset() -> None:
    """Drop all recorded series and spans (instruments stay registered)."""
    _METER.reset()
    _COLLECTOR.reset()


def enabled_from_env(environ=os.environ) -> bool:
    """Whether ``REPRO_OBS`` asks for observability to be on.

    Unknown tokens raise :class:`~repro.errors.ObsError` *eagerly* — a
    mis-spelled ``REPRO_OBS=ture`` in a worker launcher must fail the
    worker loudly at import, not silently run a campaign untraced.
    """
    raw = environ.get(ENV_VAR, "")
    token = raw.strip().lower()
    if token in _FALSY:
        return False
    if token in _TRUTHY:
        return True
    raise ObsError(
        f"unknown {ENV_VAR} setting {raw!r}; choose from "
        f"{sorted(_TRUTHY)} to enable or {sorted(_FALSY - frozenset({''}))} "
        "to disable"
    )


def metrics_snapshot() -> dict:
    """Deterministic snapshot of the global registry."""
    return _METER.snapshot()


def merge_metrics(snapshot: dict) -> None:
    """Fold a foreign snapshot (e.g. from a worker) into the global registry."""
    _METER.merge_snapshot(snapshot)


def span_records() -> list[dict]:
    """All spans finished so far in this process (completion order)."""
    return _COLLECTOR.records()


def ingest_spans(records, parent_id: int | None = None) -> None:
    """Adopt span records from another process into the global collector,
    parenting their roots under the local span ``parent_id``."""
    _COLLECTOR.ingest(records, parent_id)


# Honour REPRO_OBS at import time so subprocess workers (which receive the
# variable via the campaign runner's child environment) start recording
# before any instrumented module-level code runs.
if ENV_VAR in os.environ and enabled_from_env():
    configure(enabled=True)

__all__ = [
    "ObsError",
    "MetricsRegistry",
    "TraceCollector",
    "Tracer",
    "Span",
    "NOOP_SPAN",
    "TIME_BUCKETS_S",
    "BATCH_BUCKETS",
    "ENV_VAR",
    "get_meter",
    "get_tracer",
    "enabled",
    "configure",
    "reset",
    "enabled_from_env",
    "metrics_snapshot",
    "merge_metrics",
    "span_records",
    "ingest_spans",
    "correlation",
    "correlation_id",
    "merge_snapshots",
    "render_prometheus",
    "chrome_trace",
    "validate_chrome_trace",
    "write_trace",
    "write_metrics",
    "load_trace",
    "summarize_trace",
    "render_trace_summary",
]
