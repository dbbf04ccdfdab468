"""Cross-validation of the three SPCF algorithms (paper Sec. 3, Table 1).

The invariants (DESIGN.md §7):

1. short-path and path-based agree exactly,
2. node-based is a superset of the exact SPCF,
3. the exact SPCF matches the per-pattern floating-mode oracle,
4. every event-simulated vector pair that settles late ends in Sigma_y.
"""

from itertools import product

import pytest

from repro.benchcircuits import circuit_by_name, comparator2, comparator_nbit
from repro.sim import (
    exhaustive_patterns,
    random_patterns,
    stabilization_times,
    two_vector_waveforms,
)
from repro.spcf import (
    SpcfContext,
    compare_algorithms,
    spcf_nodebased,
    spcf_pathbased,
    spcf_shortpath,
)
from tests.conftest import random_dag_circuit


def check_all(circuit, threshold=0.9, exhaustive=True):
    ctx = SpcfContext(circuit, threshold=threshold)
    short = spcf_shortpath(circuit, context=ctx)
    path = spcf_pathbased(circuit, context=ctx)
    node = spcf_nodebased(circuit, context=ctx)
    assert short.per_output.keys() == path.per_output.keys()
    assert short.per_output.keys() == node.per_output.keys()
    for y in short.per_output:
        assert short.per_output[y] == path.per_output[y], y
        assert short.per_output[y].is_subset_of(node.per_output[y]), y
    if exhaustive:
        for pat in exhaustive_patterns(circuit.inputs):
            st = stabilization_times(circuit, pat)
            for y, fn in short.per_output.items():
                assert fn.evaluate(pat) == (st[y] > short.target), (pat, y)
    return short, path, node


def vector_pairs(circuit, cap=4096, samples=512, seed=0):
    """Every ``(v1, v2)`` pair up to ``cap`` pairs, else a seeded sample."""
    if 4 ** len(circuit.inputs) <= cap:
        patterns = list(exhaustive_patterns(circuit.inputs))
        return list(product(patterns, patterns))
    return list(
        zip(
            random_patterns(circuit.inputs, samples, seed=seed),
            random_patterns(circuit.inputs, samples, seed=seed + 1),
        )
    )


def late_pairs_outside_sigma(circuit, spcf, pairs):
    """Late ``(output, v1, v2)`` triples, and those whose ``v2`` misses Sigma_y.

    A two-vector settle time never exceeds the floating-mode stabilization
    time of ``v2``, so an output that settles after the target must have
    ``v2`` in its Sigma_y.
    """
    late, escaped = [], []
    for v1, v2 in pairs:
        waves = two_vector_waveforms(circuit, v1, v2)
        for y in circuit.outputs:
            if waves[y].settle_time > spcf.target:
                late.append((y, v1, v2))
                if not spcf.per_output[y].evaluate(v2):
                    escaped.append((y, v1, v2))
    return late, escaped


@pytest.mark.parametrize(
    "name", ["comparator2", "cmb", "full_adder", "mux_tree3", "decoder3"]
)
def test_late_settling_pairs_land_in_sigma(name):
    circuit = circuit_by_name(name)
    spcf = spcf_shortpath(circuit)
    late, escaped = late_pairs_outside_sigma(circuit, spcf, vector_pairs(circuit))
    assert late, f"{name}: no pair settles late, so the check is vacuous"
    assert escaped == []


def test_late_pair_check_catches_a_dropped_sigma():
    """Replacing one Sigma_y by constant false must surface late pairs."""
    circuit = circuit_by_name("comparator2")
    spcf = spcf_shortpath(circuit)
    spcf.per_output["y"] = spcf.context.manager.false
    late, escaped = late_pairs_outside_sigma(circuit, spcf, vector_pairs(circuit))
    assert escaped and len(escaped) == len(late)


def test_comparator_reproduces_paper_sigma():
    c = comparator2()
    ctx = SpcfContext(c)
    short = spcf_shortpath(c, context=ctx)
    mgr = ctx.manager
    paper_sigma = (~mgr.var("a1")) | (~mgr.var("a0") & mgr.var("b1"))
    assert short.per_output["y"] == paper_sigma
    assert short.count() == 10


def test_comparator_all_algorithms():
    check_all(comparator2())


@pytest.mark.parametrize("n", [3, 4])
def test_nbit_comparators(n):
    check_all(comparator_nbit(n))


@pytest.mark.parametrize("seed", range(12))
def test_random_circuits_agree_with_oracle(seed):
    c = random_dag_circuit(seed, num_inputs=5, num_gates=14, num_outputs=3)
    check_all(c)


@pytest.mark.parametrize("threshold", [0.7, 0.8, 0.95])
def test_alternate_thresholds(threshold):
    c = random_dag_circuit(99, num_inputs=5, num_gates=14, num_outputs=2)
    check_all(c, threshold=threshold)


def test_monotone_in_threshold():
    """Raising the target arrival time can only shrink the SPCF."""
    c = comparator_nbit(4)
    ctx_lo = SpcfContext(c, threshold=0.8)
    ctx_hi = SpcfContext(c, threshold=0.95, manager=ctx_lo.manager)
    lo = spcf_shortpath(c, context=ctx_lo)
    hi = spcf_shortpath(c, context=ctx_hi)
    assert ctx_hi.target > ctx_lo.target
    for y, fn in hi.per_output.items():
        assert y in lo.per_output
        assert fn.is_subset_of(lo.per_output[y])


def test_compare_algorithms_row():
    row = compare_algorithms(comparator2())
    assert row.circuit_name == "comparator2"
    assert row.short_path_count == row.path_based_count == 10
    assert row.node_based_count >= 10
    assert row.over_approximation_factor >= 1.0
    assert row.num_inputs == 4 and row.num_outputs == 1


def test_no_critical_outputs_when_target_is_delta():
    c = comparator2()
    res = spcf_shortpath(c, target=7)
    assert res.per_output == {}
    assert res.count() == 0
    assert res.is_empty()


def test_result_counts_by_output():
    c = comparator_nbit(3)
    res = spcf_shortpath(c)
    counts = res.counts_by_output()
    assert set(counts) == set(res.per_output)
    assert all(v >= 0 for v in counts.values())
    assert res.count() <= sum(counts.values()) or len(counts) == 1


# ``bypass``'s output ``y`` is late by static arrival, but no input vector
# activates its only speed-path.  An exact SPCF therefore already gives
# ``y`` an empty Sigma_y; no separate false-path analysis is needed.


@pytest.fixture(scope="module")
def bypass():
    return circuit_by_name("bypass")


def test_tightening_is_sound(bypass):
    """late(y, target) is identically false although y is late by STA."""
    ctx = SpcfContext(bypass)
    assert ctx.report.arrival["y"] > ctx.target
    s0, s1 = ctx.stable("y", ctx.target)
    assert (~(s0 | s1)).is_false, (
        "a late transition survives on y at the target"
    )


def test_tightened_spcf_is_bit_identical(bypass):
    """Every SPCF entry point gives y a false Sigma_y, cube for cube."""
    target = SpcfContext(bypass).target
    base = spcf_shortpath(bypass, target=target).per_output
    others = [
        spcf_pathbased(bypass, target=target).per_output,
        spcf_nodebased(bypass, target=target).per_output,
    ]
    for other in others:
        assert other.keys() == base.keys()
        for y, fn in base.items():
            assert list(fn.cubes()) == list(other[y].cubes())
    assert base["y"].is_false


def test_tightening_improves_precert_discharge(bypass):
    """Eqn. 1 discharges an output that static timing cannot.

    ``y`` is late by static arrival on ``bypass`` and its Sigma_y is
    empty; ``comparator2``'s ``y`` is late too and its Sigma_y is not.
    """
    report = SpcfContext(bypass).report
    assert report.arrival["y"] > report.target
    assert spcf_shortpath(bypass, target=report.target).per_output["y"].is_false
    plain = comparator2()
    plain_report = SpcfContext(plain).report
    assert plain_report.arrival["y"] > plain_report.target
    sigma = spcf_shortpath(plain, target=plain_report.target).per_output
    assert not sigma["y"].is_false
