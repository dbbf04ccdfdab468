"""End-to-end campaign smoke drills: tiny campaigns, real process death.

:func:`run_smoke` (``make campaign-smoke``) — three phases, one spec:

1. **baseline** — run with a worker SIGKILLed on its first attempt; the
   retry absorbs the crash and the campaign completes.
2. **wound** — fresh checkpoint, one shard's worker SIGKILLed on *every*
   attempt; the shard is quarantined and the report lists it under
   ``incomplete_shards`` without failing the run.
3. **heal** — resume the wounded checkpoint with the drill disabled; the
   final aggregate JSON must be byte-identical to the baseline's.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable

from repro.campaign.report import render_campaign_json
from repro.campaign.runner import RunnerConfig, resume_campaign, run_campaign
from repro.campaign.spec import CampaignSpec

#: Shard the wound phase crashes forever (last shard of the tiny plan).
_WOUNDED_SHARD = 3


def _comparable_json(aggregate: dict) -> str:
    """Aggregate rendering for byte-identity checks.

    The ``telemetry`` section is dropped before comparing: it derives
    from wall-clock timings (percentiles, rates) that legitimately differ
    between runs, while every *result* byte must still match.  With
    ``REPRO_OBS`` off the section is absent and this is exactly
    :func:`render_campaign_json`.
    """
    doc = {k: v for k, v in aggregate.items() if k != "telemetry"}
    return render_campaign_json(doc)


def smoke_spec() -> CampaignSpec:
    return CampaignSpec(
        circuits=("comparator2",),
        modes=({"kind": "delay"}, {"kind": "seu"}),
        shards_per_cell=2,
        vectors_per_shard=16,
        seed=7,
        clock_fraction=0.9,
    )


def run_smoke(workdir: str | None = None, echo: Callable[[str], None] = print) -> int:
    """Run the drill; returns 0 on success, 1 with a diagnostic otherwise."""
    spec = smoke_spec()
    config = RunnerConfig(
        workers=2,
        task_timeout=120.0,
        max_retries=2,
        backoff_base=0.05,
        backoff_cap=0.2,
    )
    with tempfile.TemporaryDirectory(prefix="repro-campaign-smoke-") as tmp:
        base = Path(workdir) if workdir else Path(tmp)
        base.mkdir(parents=True, exist_ok=True)

        echo("phase 1/3: baseline with worker SIGKILLed on first attempt ...")
        baseline = run_campaign(
            spec,
            base / "baseline.ckpt.jsonl",
            config,
            sabotage={1: {"mode": "kill", "attempts": 1}},
        )
        if not baseline.complete:
            echo("FAIL: baseline did not complete despite retry budget")
            return 1
        if baseline.aggregate["totals"]["unmasked_errors"] == 0:
            echo("FAIL: baseline injected no errors; smoke spec too gentle")
            return 1

        echo("phase 2/3: campaign with one always-crashing shard ...")
        wounded = run_campaign(
            spec,
            base / "wounded.ckpt.jsonl",
            RunnerConfig(
                workers=2,
                task_timeout=120.0,
                max_retries=1,
                backoff_base=0.05,
                backoff_cap=0.1,
            ),
            sabotage={_WOUNDED_SHARD: {"mode": "kill"}},
        )
        if wounded.complete:
            echo("FAIL: wounded run completed; sabotage did not bite")
            return 1
        quarantined = [
            e
            for e in wounded.aggregate["incomplete_shards"]
            if e["shard"] == _WOUNDED_SHARD and e["status"] == "quarantined"
        ]
        if not quarantined:
            echo("FAIL: crashed shard missing from incomplete_shards")
            return 1

        echo("phase 3/3: resume the wounded checkpoint, drill disabled ...")
        healed = resume_campaign(base / "wounded.ckpt.jsonl", config)
        if not healed.complete:
            echo("FAIL: resume did not complete the campaign")
            return 1
        if _comparable_json(healed.aggregate) != _comparable_json(
            baseline.aggregate
        ):
            echo("FAIL: resumed aggregate differs from uninterrupted baseline")
            return 1

        totals = healed.aggregate["totals"]
        echo(
            "campaign smoke OK: "
            f"{healed.aggregate['shards_done']} shards, "
            f"{totals['unmasked_errors']} injected errors, "
            f"{totals['effectiveness_percent']:.1f}% masked, "
            "resume byte-identical"
        )
    return 0
