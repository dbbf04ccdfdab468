"""Journal-only campaign status and adaptive shard sizing."""

from __future__ import annotations

import dataclasses

import pytest

from repro import obs
from repro.campaign import (
    CampaignSpec,
    RunnerConfig,
    ShardTiming,
    autoshard_spec,
    campaign_status,
    render_status_text,
    run_campaign,
    shard_timing,
    suggest_spec,
    watch_status,
)
from repro.campaign.checkpoint import load_journal
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


class TestAdaptiveSizing:
    def _timing(self, p50=1.0, p90=2.0, vectors=16) -> ShardTiming:
        return ShardTiming(
            samples=10, vectors_per_shard=vectors,
            p50_seconds=p50, p90_seconds=p90,
        )

    def test_journal_without_telemetry_is_an_error(self, tmp_path):
        run_campaign(
            tiny_spec(), tmp_path / "c.ckpt.jsonl", RunnerConfig(workers=0)
        )
        with pytest.raises(CampaignError, match="telemetry"):
            shard_timing(load_journal(tmp_path / "c.ckpt.jsonl"))

    def test_resize_preserves_total_work_exactly(self):
        spec = tiny_spec(shards_per_cell=4, vectors_per_shard=24)
        timing = self._timing(p90=4.8, vectors=24)  # p90 rate 0.2 s/vector
        resized = suggest_spec(spec, timing, target_shard_seconds=1.2)
        assert (
            resized.shards_per_cell * resized.vectors_per_shard
            == spec.shards_per_cell * spec.vectors_per_shard
        )
        # Ideal is 6 vectors/shard (1.2s / 0.2 s-per-vector); 6 divides
        # the 96-vector total exactly.
        assert resized.vectors_per_shard == 6
        assert resized.shards_per_cell == 16

    def test_resize_picks_nearest_divisor(self):
        spec = tiny_spec(shards_per_cell=2, vectors_per_shard=10)
        timing = self._timing(p90=10.0, vectors=10)  # 1 s/vector
        # Ideal 7 vectors is not a divisor of 20; nearest by log distance
        # among {1,2,4,5,10,20} is 5 (7/5 = 1.4 < 10/7 = 1.43).
        resized = suggest_spec(spec, timing, target_shard_seconds=7.0)
        assert resized.vectors_per_shard == 5

    def test_bad_target_rejected(self):
        with pytest.raises(CampaignError, match="positive"):
            suggest_spec(tiny_spec(), self._timing(), 0.0)

    def test_autoshard_from_obs_enabled_donor(self, tmp_path):
        obs.configure(enabled=True)
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "donor.ckpt.jsonl",
                     RunnerConfig(workers=0))
        # A huge target coalesces every cell into one maximal shard.
        resized, timing = autoshard_spec(
            spec, tmp_path / "donor.ckpt.jsonl",
            target_shard_seconds=3600.0,
        )
        assert timing.samples == 2
        assert timing.p90_seconds >= timing.p50_seconds > 0
        assert resized.vectors_per_shard == 16
        assert resized.shards_per_cell == 1
        # The resized spec is a valid spec (frozen dataclass round trip).
        assert dataclasses.replace(resized).fingerprint() == resized.fingerprint()
