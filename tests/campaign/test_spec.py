"""Campaign specs: normalization, seeds, planning, round-trips."""

import pytest

from repro.campaign import (
    DEFAULT_MODE_PARAMS,
    FAULT_KINDS,
    CampaignSpec,
    ShardSpec,
    derive_seed,
    mode_key,
    plan_campaign,
)
from repro.campaign.spec import canonical_json, normalize_mode
from repro.errors import CampaignError


def tiny_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        circuits=("comparator2",),
        modes=({"kind": "seu"}, {"kind": "delay"}),
        shards_per_cell=2,
        vectors_per_shard=8,
        seed=11,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def test_normalize_fills_defaults():
    mode = normalize_mode("delay")
    assert mode["kind"] == "delay"
    for key, value in DEFAULT_MODE_PARAMS["delay"].items():
        assert mode[key] == value


def test_normalize_accepts_overrides():
    mode = normalize_mode({"kind": "delay", "scale": 9.0})
    assert mode["scale"] == 9.0
    assert mode["arcs"] == DEFAULT_MODE_PARAMS["delay"]["arcs"]


def test_normalize_rejects_unknown_kind_and_param():
    with pytest.raises(CampaignError, match="unknown fault mode"):
        normalize_mode("meteor")
    with pytest.raises(CampaignError, match="no parameter"):
        normalize_mode({"kind": "seu", "wings": 3})


def test_mode_key_is_stable():
    assert mode_key(normalize_mode("seu")) == "seu(flips=1)"
    a = mode_key(normalize_mode({"kind": "delay", "scale": 2.0, "arcs": 1}))
    assert a == "delay(arcs=1,scale=2.0)"


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "a", 0) == derive_seed(7, "a", 0)
    assert derive_seed(7, "a", 0) != derive_seed(7, "a", 1)
    assert derive_seed(7, "a", 0) != derive_seed(8, "a", 0)
    assert 0 <= derive_seed(7, "a", 0) < 2**63


def test_spec_validation():
    with pytest.raises(CampaignError, match="at least one circuit"):
        tiny_spec(circuits=())
    with pytest.raises(CampaignError, match="at least one fault mode"):
        tiny_spec(modes=())
    with pytest.raises(CampaignError, match="shards_per_cell"):
        tiny_spec(shards_per_cell=0)
    with pytest.raises(CampaignError, match="vectors_per_shard"):
        tiny_spec(vectors_per_shard=-1)
    with pytest.raises(CampaignError, match="clock_fraction"):
        tiny_spec(clock_fraction=0.0)


def test_spec_json_roundtrip_preserves_fingerprint():
    spec = tiny_spec()
    again = CampaignSpec.from_json(spec.to_json())
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()


def test_spec_from_json_missing_field():
    data = tiny_spec().to_json()
    del data["seed"]
    with pytest.raises(CampaignError, match="missing field 'seed'"):
        CampaignSpec.from_json(data)


def test_plan_is_deterministic_and_indexed():
    spec = tiny_spec()
    plan = plan_campaign(spec)
    assert plan == plan_campaign(spec)
    assert len(plan) == 4  # 1 circuit x 2 modes x 2 shards
    assert [s.index for s in plan] == list(range(4))
    assert len({s.seed for s in plan}) == len(plan)
    for shard in plan:
        assert ShardSpec.from_json(shard.to_json()) == shard


def test_every_fault_kind_has_defaults():
    for kind in FAULT_KINDS:
        assert kind in DEFAULT_MODE_PARAMS
        normalize_mode(kind)


def test_canonical_json_is_stable():
    assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


class TestShardFingerprint:
    def test_content_addressed(self):
        shard = plan_campaign(tiny_spec())[0]
        again = ShardSpec.from_json(shard.to_json())
        assert again.fingerprint() == shard.fingerprint()
        assert plan_campaign(tiny_spec())[0].fingerprint() == shard.fingerprint()

    def test_content_changes_it(self):
        a, b = plan_campaign(tiny_spec())[:2]
        assert a.fingerprint() != b.fingerprint()
        reseeded = ShardSpec.from_json({**a.to_json(), "seed": a.seed + 1})
        assert reseeded.fingerprint() != a.fingerprint()

    def test_key_order_irrelevant(self):
        shard = plan_campaign(tiny_spec())[0]
        mode = dict(reversed(list(shard.mode.items())))
        assert list(mode) != list(shard.mode)
        reordered = ShardSpec(**{**vars(shard), "mode": mode})
        assert reordered.fingerprint() == shard.fingerprint()

    def test_unserializable_shard_rejected(self):
        shard = plan_campaign(tiny_spec())[0]
        bad = ShardSpec(**{**vars(shard), "mode": {"kind": "seu", "bad": object()}})
        with pytest.raises(CampaignError, match="JSON-serializable"):
            bad.fingerprint()
