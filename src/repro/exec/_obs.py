"""Observability handles for the execution substrate.

One module owns the tracer and instruments so every backend agrees on
names and labels:

* ``repro_exec_tasks_total{backend, outcome}`` — tasks finished, by
  terminal outcome (``done`` / ``quarantined`` / ``stopped``),
* ``repro_exec_task_wall_seconds{backend}`` — wall seconds per finished
  task, including retries and backoff sleeps,
* ``repro_exec_respawns_total{backend, outcome}`` — worker subprocess
  respawns (``respawned``) and failed spawn attempts (``spawn-failed``),
* ``repro_exec_telemetry_drops_total{backend}`` — worker telemetry
  payloads dropped because they would not ingest (the task result is
  kept; only the spans/metrics are lost).

All are published by the executor on the parent side regardless of
backend, so worker metric snapshots merge commutatively on top without
double-counting (workers never run an executor themselves).
"""

from __future__ import annotations

from repro import obs

TRACER = obs.get_tracer("exec")
METER = obs.get_meter()

TASKS = METER.counter(
    "repro_exec_tasks_total",
    "tasks finished by the execution substrate (labels: backend, outcome)",
)
TASK_SECONDS = METER.histogram(
    "repro_exec_task_wall_seconds",
    "wall seconds per finished task, retries and backoff included",
)
RESPAWNS = METER.counter(
    "repro_exec_respawns_total",
    "worker subprocess respawns (labels: backend, outcome = "
    "respawned / spawn-failed)",
)
TELEMETRY_DROPS = METER.counter(
    "repro_exec_telemetry_drops_total",
    "worker telemetry payloads that failed to ingest and were dropped "
    "(label: backend); the task result is unaffected",
)
