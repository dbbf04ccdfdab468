"""One shard attempt, on either side of the worker process boundary.

The runner's inline path (``workers=0``) calls :func:`run_shard` through
this module's global; a worker process (``python -m repro.campaign.serve``)
answers each request line with :func:`serve_request`, which looks up the
same global.  A wrapper installed on ``repro.campaign.worker.run_shard``
therefore sees every shard either path runs.

Protocol, one JSON document per line in each direction, after the worker
announces ``{"schema": 1, "ready": true}`` once its imports are done::

    -> {"schema": 1, "key": <shard index>, "attempt": 0,
        "sabotage": null, "corr": "<shard fingerprint>", "shard": {...}}
    <- {"schema": 1, "key": ..., "result": {...}, "obs": {...}?}
    <- {"schema": 1, "key": ..., "error": "CampaignError: ..."}

A deterministic failure (a :class:`~repro.errors.ReproError` or a common
programming error inside the shard) comes back as data and keeps the
worker alive; anything else (a crash, an OOM kill, a drill) costs the
whole process, which the runner sees as EOF and retries.

With ``REPRO_OBS`` on, each response carries the spans and metric
increments recorded since the previous response, so the runner merges
snapshots without double-counting a long-lived worker.

The ``sabotage`` directive is the fault drill (SIGKILL self, hang, exit
nonzero), applied per attempt before the shard runs.  It is a runner
option, never part of the shard, so fingerprints and journals are
untouched by drills.
"""

from __future__ import annotations

import os
import signal
import sys
import time

from repro import obs
from repro.campaign.shard import run_shard
from repro.campaign.spec import ShardSpec
from repro.errors import ReproError

#: Protocol version of the request/response documents.
SCHEMA = 1

#: Sabotage directives the drill understands.
SABOTAGE_MODES = ("kill", "hang", "exit")

#: Exceptions that mark the *shard* (not the environment) as broken:
#: reported as data, never retried.
DETERMINISTIC_ERRORS = (ReproError, KeyError, TypeError, ValueError)

_TRACER = obs.get_tracer("campaign")


def apply_sabotage(directive: dict | None, attempt: int) -> None:
    """Carry out a fault drill if it applies to this attempt."""
    if not directive:
        return
    if attempt >= int(directive.get("attempts", 1 << 30)):
        return
    mode = directive.get("mode")
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "hang":
        time.sleep(float(directive.get("seconds", 3600.0)))
    elif mode == "exit":
        sys.exit(int(directive.get("code", 3)))
    else:
        raise ValueError(
            f"unknown sabotage mode {mode!r}; choose from {SABOTAGE_MODES}"
        )


def serve_request(request: dict) -> dict:
    """Run one request to a response document (no I/O; testable inline)."""
    key = request.get("key")
    attempt = int(request.get("attempt", 0))
    started = time.perf_counter()
    try:
        shard = ShardSpec.from_json(request["shard"])
        with _TRACER.span(
            "campaign.worker_shard",
            shard=shard.index,
            circuit=shard.circuit,
            mode=shard.mode_key,
            attempt=attempt,
        ):
            result = run_shard(shard)
    except DETERMINISTIC_ERRORS as exc:
        return {
            "schema": SCHEMA,
            "key": key,
            "error": f"{type(exc).__name__}: {exc}",
        }
    response: dict = {"schema": SCHEMA, "key": key, "result": result}
    if obs.enabled():
        response["obs"] = {
            "wall_seconds": round(time.perf_counter() - started, 6),
            "spans": obs.span_records(),
            "metrics": obs.metrics_snapshot(),
        }
    return response


__all__ = [
    "SCHEMA",
    "SABOTAGE_MODES",
    "DETERMINISTIC_ERRORS",
    "apply_sabotage",
    "run_shard",
    "serve_request",
]
