"""Observability instruments of the paths analysis plane.

Mirrors :mod:`repro.spcf._obs`: module-level tracer + meter handles so the
hot paths pay one attribute load, and every instrument is a no-op unless
``repro.obs`` was configured.
"""

from __future__ import annotations

from repro import obs

TRACER = obs.get_tracer("paths")
METER = obs.get_meter()

#: Enumerated speed-paths classified, labelled by final verdict.
CLASSIFIED = METER.counter(
    "repro_paths_classified_total",
    "speed-paths classified by the sensitization analyzer, by verdict",
)

#: Paths settled by the word-parallel pre-filter before any BDD was built.
PREFILTER = METER.counter(
    "repro_paths_prefilter_discharged_total",
    "speed-paths settled by the word-parallel pre-filter, by method",
)

#: Two-vector witness replays through the event simulator.
REPLAYS = METER.counter(
    "repro_paths_witness_replays_total",
    "two-vector witness replays through the event simulator",
)

__all__ = ["TRACER", "METER", "CLASSIFIED", "PREFILTER", "REPLAYS"]
