"""Shard execution: determinism, empty batches, every fault mode."""

import pytest

from repro.campaign import FAULT_KINDS, ShardSpec, derive_seed, run_shard
from repro.campaign import shard as shard_module
from repro.campaign.spec import normalize_mode
from repro.errors import CampaignError


def shard_for(kind: str, vectors: int = 8, seed: int = 5, **params) -> ShardSpec:
    return ShardSpec(
        index=0,
        circuit="comparator2",
        mode=normalize_mode({"kind": kind, **params}),
        vectors=vectors,
        seed=derive_seed(seed, "comparator2", kind),
        clock_fraction=0.9,
    )


def check_wellformed(result: dict, shard: ShardSpec) -> None:
    assert result["shard"] == shard.index
    assert result["circuit"] == shard.circuit
    assert result["mode_key"] == shard.mode_key
    assert result["vectors"] == shard.vectors
    assert 0 <= result["pairs_masked_errors"] <= shard.vectors
    assert 0 <= result["pairs_unmasked_errors"] <= shard.vectors
    for row in result["outputs"].values():
        assert row["recovered"] <= row["unmasked"]
        assert row["unmasked"] - row["masked"] <= row["recovered"]
        for value in row.values():
            assert value >= 0


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_every_mode_runs_and_is_deterministic(kind):
    shard = shard_for(kind)
    first = run_shard(shard)
    check_wellformed(first, shard)
    assert first == run_shard(shard)  # pure function of the spec


def test_injection_actually_produces_errors():
    """The default severities must inject observable errors (else the
    campaign measures nothing)."""
    total = sum(
        run_shard(shard_for(kind, vectors=24))["pairs_unmasked_errors"]
        for kind in FAULT_KINDS
    )
    assert total > 0


def test_masking_recovers_errors():
    """Across modes, the mux patch must repair a nontrivial share."""
    un = mk = 0
    for kind in FAULT_KINDS:
        result = run_shard(shard_for(kind, vectors=24))
        un += result["pairs_unmasked_errors"]
        mk += result["pairs_masked_errors"]
    assert mk < un


def test_empty_batch_is_wellformed():
    shard = shard_for("seu", vectors=0)
    result = run_shard(shard)
    check_wellformed(result, shard)
    assert result["vectors"] == 0
    assert result["pairs_unmasked_errors"] == 0
    assert result["pairs_masked_errors"] == 0
    assert all(
        value == 0 for row in result["outputs"].values() for value in row.values()
    )


def test_unknown_circuit_raises_campaign_error():
    shard = ShardSpec(
        index=0, circuit="no-such-circuit", mode=normalize_mode("seu"),
        vectors=4, seed=1,
    )
    with pytest.raises(CampaignError, match="no-such-circuit"):
        run_shard(shard)


def test_distinct_seeds_distinct_streams():
    a = run_shard(shard_for("seu", seed=1))
    b = run_shard(shard_for("seu", seed=2))
    assert a != b


def test_design_cache_is_a_bounded_lru():
    bound = shard_module.DESIGN_CACHE_SIZE
    assert bound >= 8
    cache = shard_module._design_cache
    cache.clear()
    specs = [
        ShardSpec(
            index=0, circuit="comparator2", mode=normalize_mode("seu"),
            vectors=4, seed=1, threshold=0.5 + 0.02 * i,
        )
        for i in range(bound + 4)
    ]
    first = [run_shard(spec) for spec in specs]
    assert len(cache) == bound
    # The oldest designs were evicted; re-synthesizing them changes nothing.
    assert [run_shard(spec) for spec in specs] == first
    assert len(cache) == bound
    # A hit refreshes recency: the touched design survives the next insert.
    run_shard(specs[-bound])
    run_shard(specs[0])
    key = (specs[-bound].circuit, specs[-bound].library, specs[-bound].threshold)
    assert key in cache
