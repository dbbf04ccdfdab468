"""Journal-only campaign status."""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignSpec,
    RunnerConfig,
    campaign_status,
    render_status_text,
    run_campaign,
    watch_status,
)
from repro.errors import CampaignError


def tiny_spec(**overrides) -> CampaignSpec:
    base = dict(
        circuits=("comparator2",),
        modes=({"kind": "delay"},),
        shards_per_cell=2,
        vectors_per_shard=8,
        seed=3,
        clock_fraction=0.9,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestCampaignStatus:
    def test_journal_only_status(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "c.ckpt.jsonl", RunnerConfig(workers=0))
        status = campaign_status(tmp_path / "c.ckpt.jsonl")
        assert status["shards_done"] == status["shards_total"] == 2
        assert status["percent"] == 100.0
        text = render_status_text(status)
        assert "2/2 shards done" in text
        assert "no queue directory" in text

    def test_status_without_telemetry_has_no_section(self, tmp_path):
        # REPRO_OBS off: no telemetry files, no telemetry line.
        run_campaign(
            tiny_spec(), tmp_path / "c.ckpt.jsonl", RunnerConfig(workers=0)
        )
        status = campaign_status(tmp_path / "c.ckpt.jsonl")
        assert "telemetry" not in status
        assert "telemetry:" not in render_status_text(status)

    def test_watch_status_returns_when_settled(self, tmp_path, capsys):
        run_campaign(
            tiny_spec(), tmp_path / "c.ckpt.jsonl", RunnerConfig(workers=0)
        )
        assert watch_status(
            tmp_path / "c.ckpt.jsonl", interval=0.01, max_rounds=3
        ) == 0
        assert "2/2 shards done" in capsys.readouterr().out

    def test_watch_rejects_bad_interval(self, tmp_path):
        with pytest.raises(CampaignError, match="interval"):
            watch_status(tmp_path / "c.ckpt.jsonl", interval=0.0)
