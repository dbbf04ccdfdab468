"""Live status of a campaign, read from its checkpoint journal.

``repro campaign status CKPT`` renders, while the campaign runs, journal
progress: shards done / quarantined / total.  ``--watch`` re-renders it
until every shard has settled.

Everything is read-only: status never writes the journal, so it is safe
to run at any moment, including while the campaign is being killed and
resumed.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.campaign.checkpoint import load_journal
from repro.errors import CampaignError


def campaign_status(checkpoint: str | os.PathLike) -> dict:
    """Point-in-time status document (JSON-serializable)."""
    state = load_journal(checkpoint)
    return {
        "checkpoint": str(checkpoint),
        "fingerprint": state.fingerprint,
        "shards_total": state.n_shards,
        "shards_done": len(state.results),
        "shards_quarantined": len(state.quarantined),
        "percent": round(
            100.0 * len(state.results) / state.n_shards, 1
        ) if state.n_shards else 100.0,
    }


def render_status_text(status: dict) -> str:
    """Operator-facing rendering of :func:`campaign_status`."""
    lines = [
        f"campaign {status['fingerprint'][:12]}: "
        f"{status['shards_done']}/{status['shards_total']} shards done "
        f"({status['percent']:.1f}%)"
        + (
            f", {status['shards_quarantined']} quarantined"
            if status["shards_quarantined"] else ""
        ),
        "(journal progress only; local campaigns keep no queue directory)",
    ]
    return "\n".join(lines) + "\n"


def watch_status(
    checkpoint: str | os.PathLike,
    interval: float,
    echo=print,
    max_rounds: int | None = None,
) -> int:
    """Re-render status every ``interval`` seconds until the campaign is
    complete (all shards settled)."""
    if interval <= 0:
        raise CampaignError(f"watch interval {interval} must be positive")
    rounds = 0
    while True:
        if not Path(checkpoint).exists():
            echo(f"waiting for checkpoint {checkpoint} ...")
        else:
            status = campaign_status(checkpoint)
            echo(render_status_text(status).rstrip("\n"))
            if (
                status["shards_done"] + status["shards_quarantined"]
                >= status["shards_total"]
            ):
                return 0
        rounds += 1
        if max_rounds is not None and rounds >= max_rounds:
            return 0
        time.sleep(interval)
        echo("")


__all__ = [
    "campaign_status",
    "render_status_text",
    "watch_status",
]
