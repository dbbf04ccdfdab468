"""Resilient fault-injection campaigns over the compiled engine.

``repro.campaign`` measures the paper's claim at scale: sweep injected
failure modes — speed-path delay perturbation, SEU bit-flips, stuck-at
faults, wearout drift, clock-period squeeze — across circuits, and count
how many sampled output errors the masking mux patch repairs.

The subsystem is built around a *resilient runner*: deterministic seeded
shards executed in isolated worker subprocesses, per-attempt timeouts,
bounded retries with exponential backoff and jitter, quarantine for
persistently failing shards, and an append-only fsync'd checkpoint journal
that makes a killed campaign resume to bit-identical aggregates.  See
DESIGN.md §10 for the architecture.
"""

from repro.campaign.aggregate import aggregate_results
from repro.campaign.checkpoint import CheckpointWriter, JournalState, load_journal
from repro.campaign.report import render_campaign_json, render_campaign_text
from repro.campaign.runner import (
    CampaignOutcome,
    RunnerConfig,
    resume_campaign,
    run_campaign,
)
from repro.campaign.shard import run_shard
from repro.campaign.smoke import run_smoke, smoke_spec
from repro.campaign.status import (
    campaign_status,
    render_status_text,
    watch_status,
)
from repro.campaign.spec import (
    DEFAULT_MODE_PARAMS,
    FAULT_KINDS,
    SCHEMA_VERSION,
    CampaignSpec,
    ShardSpec,
    derive_seed,
    mode_key,
    plan_campaign,
)

__all__ = [
    "SCHEMA_VERSION",
    "FAULT_KINDS",
    "DEFAULT_MODE_PARAMS",
    "CampaignSpec",
    "ShardSpec",
    "plan_campaign",
    "mode_key",
    "derive_seed",
    "run_shard",
    "RunnerConfig",
    "CampaignOutcome",
    "run_campaign",
    "resume_campaign",
    "CheckpointWriter",
    "JournalState",
    "load_journal",
    "aggregate_results",
    "render_campaign_json",
    "render_campaign_text",
    "run_smoke",
    "smoke_spec",
    "campaign_status",
    "render_status_text",
    "watch_status",
]
