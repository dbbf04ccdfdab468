"""Exact computed-table (op cache) accounting and its obs publication."""

from repro import obs
from repro.bdd.manager import BddManager
from repro.benchcircuits import circuit_by_name
from repro.spcf import SpcfContext, _obs, spcf_shortpath


def _table(mgr):
    return mgr.stats()["computed_table"]


def test_counting_off_by_default():
    mgr = BddManager(["a", "b"])
    a, b = mgr.var("a"), mgr.var("b")
    _ = a & b
    stats = mgr.stats()
    assert "computed_table" not in stats
    assert "cache_hit_rate" not in stats


def test_and_hit_miss_exact():
    mgr = BddManager(["a", "b"])
    mgr.enable_op_counting()
    a, b = mgr.var("a"), mgr.var("b")
    before = _table(mgr)["and"]
    _ = a & b  # first conjunction of these operands: one miss
    mid = _table(mgr)["and"]
    assert mid["misses"] == before["misses"] + 1
    assert mid["hits"] == before["hits"]
    _ = a & b  # identical query: served from the computed table
    after = _table(mgr)["and"]
    assert after["hits"] == mid["hits"] + 1
    assert after["misses"] == mid["misses"]
    # Commuted operands normalize to the same key: still a hit.
    _ = b & a
    assert _table(mgr)["and"]["hits"] == after["hits"] + 1


def test_terminal_rules_touch_no_bucket():
    mgr = BddManager(["a"])
    mgr.enable_op_counting()
    a = mgr.var("a")
    _ = a & mgr.true
    _ = a & mgr.false
    _ = a & a
    t = _table(mgr)["and"]
    assert t == {"hits": 0, "misses": 0}
    assert mgr.stats()["op_calls"]["and"] == 3


def test_not_cache_counted():
    # NOT flips the complement bit of an edge: no computed table, no node.
    mgr = BddManager(["a"])
    mgr.enable_op_counting()
    a = mgr.var("a")
    before = mgr.stats()
    _ = ~a
    _ = ~~a
    after = mgr.stats()
    assert "not" not in after["computed_table"]
    assert "not" not in after["op_calls"]
    assert after["computed_table"] == before["computed_table"]
    assert after["op_calls"] == before["op_calls"]
    assert mgr.num_nodes == before["nodes"]


def test_cache_hit_rate_derived_exactly():
    mgr = BddManager(["a", "b"])
    mgr.enable_op_counting()
    a, b = mgr.var("a"), mgr.var("b")
    _ = a & b
    _ = a & b
    stats = mgr.stats()
    t = stats["computed_table"]["and"]
    assert stats["cache_hit_rate"]["and"] == round(
        t["hits"] / (t["hits"] + t["misses"]), 4
    )


def test_op_cache_shared_across_spcf_contexts(lsi_lib):
    """Per-target SPCF contexts on one shared manager depend on the
    computed table: a second query re-enters the table populated by the
    first (across S0/S1 roots and thresholds) instead of recomputing cold."""
    circuit = circuit_by_name("comparator4", lsi_lib)
    mgr = BddManager()
    mgr.enable_op_counting()

    ctx1 = SpcfContext(circuit, threshold=0.9, manager=mgr)
    spcf_shortpath(circuit, context=ctx1)
    after_first = {op: dict(c) for op, c in _table(mgr).items()}

    ctx2 = SpcfContext(circuit, threshold=0.5, manager=mgr)
    spcf_shortpath(circuit, context=ctx2)
    after_second = _table(mgr)

    hits_gained = sum(
        after_second[op]["hits"] - after_first[op]["hits"] for op in after_first
    )
    assert hits_gained > 0, (
        "second threshold query never hit the shared computed table"
    )


def test_publish_computed_table_deltas(lsi_lib):
    mgr = BddManager(["a", "b", "c"])
    mgr.enable_op_counting()
    a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
    _ = (a & b) | (b & c)
    _ = a & b

    obs.configure(enabled=True)
    try:
        _obs.publish_computed_table(mgr)
        snap1 = obs.metrics_snapshot()["metrics"]
        hits1 = sum(
            snap1["repro_bdd_computed_hits_total"]["series"].values()
        )
        misses1 = sum(
            snap1["repro_bdd_computed_misses_total"]["series"].values()
        )
        t = _table(mgr)
        assert hits1 == sum(c["hits"] for c in t.values())
        assert misses1 == sum(c["misses"] for c in t.values())

        # No new work: re-publishing adds nothing (deltas, not totals).
        _obs.publish_computed_table(mgr)
        snap2 = obs.metrics_snapshot()["metrics"]
        assert (
            sum(snap2["repro_bdd_computed_hits_total"]["series"].values())
            == hits1
        )

        # New work publishes only the increment.
        _ = b & c
        _obs.publish_computed_table(mgr)
        snap3 = obs.metrics_snapshot()["metrics"]
        assert (
            sum(snap3["repro_bdd_computed_hits_total"]["series"].values())
            == hits1 + 1
        )
    finally:
        obs.configure(enabled=False)
        obs.reset()


def test_publish_without_counting_is_a_noop():
    mgr = BddManager()
    obs.configure(enabled=True)
    try:
        _obs.publish_computed_table(mgr)
        metrics = obs.metrics_snapshot()["metrics"]
        assert not metrics.get("repro_bdd_computed_hits_total", {}).get(
            "series"
        )
    finally:
        obs.configure(enabled=False)
        obs.reset()


def test_counting_preserves_results(lsi_lib):
    circuit = circuit_by_name("comparator2", lsi_lib)
    plain = spcf_shortpath(circuit)
    mgr = BddManager()
    mgr.enable_op_counting()
    ctx = SpcfContext(circuit, manager=mgr)
    counted = spcf_shortpath(circuit, context=ctx)
    assert {y: list(f.cubes()) for y, f in plain.per_output.items()} == {
        y: list(f.cubes()) for y, f in counted.per_output.items()
    }
