"""Kleene-ternary domain: semantics, word packing, and the hazard oracle.

The load-bearing test here is ``test_no_false_negatives_vs_eventsim``: for
small circuits we enumerate *every* two-vector transition, replay it on the
event simulator, and require that any glitching pair lives in a transition
class the ternary domain marked X.  That is exactly the soundness claim the
SAFE verdict makes (DESIGN.md §11).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.absint import (
    AbsintConfig,
    X,
    analyze_hazards,
    class_of_pair,
    enumerate_classes,
    inject_x,
    pack_classes,
    ternary_class_values,
)
from repro.engine import compile_circuit, eval_words
from repro.errors import AbsintError
from repro.netlist import Circuit, lsi10k_like_library, unit_library
from repro.sim import two_vector_waveforms

from tests.conftest import random_dag_circuit

LIBRARIES = {"unit": unit_library(), "lsi": lsi10k_like_library()}


def two_input(cell_name, lib):
    c = Circuit(f"t_{cell_name.lower()}", inputs=["a", "b"], outputs=["y"])
    c.add_gate("y", lib.get(cell_name), ("a", "b"))
    return c


# ---------------------------------------------------------------------------
# Kleene truth tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cell,a,b,expected",
    [
        ("AND2", 0, X, 0),   # 0 dominates AND
        ("AND2", 1, X, X),
        ("AND2", X, X, X),
        ("OR2", 1, X, 1),    # 1 dominates OR
        ("OR2", 0, X, X),
        ("NAND2", 0, X, 1),
        ("NOR2", 1, X, 0),
        ("XOR2", 0, X, X),   # XOR never masks
        ("XOR2", 1, X, X),
        ("AND2", 1, 1, 1),
        ("OR2", 0, 0, 0),
    ],
)
def test_kleene_truth_tables(unit_lib, cell, a, b, expected):
    values = ternary_class_values(two_input(cell, unit_lib), (a, b))
    assert values["y"] == expected


def test_inverter_flips_definite_and_keeps_x(unit_lib):
    c = Circuit("t_inv", inputs=["a"], outputs=["y"])
    c.add_gate("y", unit_lib.get("INV"), ("a",))
    assert ternary_class_values(c, (0,))["y"] == 1
    assert ternary_class_values(c, (1,))["y"] == 0
    assert ternary_class_values(c, (X,))["y"] == X


def test_compositionality_loses_correlation(unit_lib):
    """``a AND (NOT a)`` is constant 0 but the ternary domain says X.

    This is the documented over-approximation: the domain tracks rails per
    net, not correlations, so SAFE is a proof while X is only a candidate.
    """
    c = Circuit("t_corr", inputs=["a"], outputs=["y"])
    c.add_gate("na", unit_lib.get("INV"), ("a",))
    c.add_gate("y", unit_lib.get("AND2"), ("a", "na"))
    assert ternary_class_values(c, (X,))["y"] == X


# ---------------------------------------------------------------------------
# Class enumeration / abstraction plumbing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_classes_exhaustive_count(n):
    classes, exhaustive = enumerate_classes(n, AbsintConfig())
    assert exhaustive
    assert len(classes) == 3**n - 2**n  # every class with at least one X
    assert len(set(classes)) == len(classes)
    assert all(any(v == X for v in cls) for cls in classes)


def test_enumerate_classes_sampled_is_seeded_and_bounded():
    config = AbsintConfig(exhaustive_inputs=4, samples=50, seed=7)
    classes, exhaustive = enumerate_classes(20, config)
    again, _ = enumerate_classes(20, config)
    assert not exhaustive
    assert classes == again  # deterministic under a fixed seed
    assert len(classes) <= 50
    assert classes[0] == (X,) * 20  # the all-X class is always probed


def test_class_of_pair():
    assert class_of_pair((0, 1, 1), (0, 0, 1)) == (0, X, 1)
    with pytest.raises(AbsintError):
        class_of_pair((0, 1), (0,))


def test_pack_classes_rejects_bad_values(unit_lib):
    compiled = compile_circuit(two_input("AND2", unit_lib))
    with pytest.raises(AbsintError):
        pack_classes(compiled, [(0, 3)])
    with pytest.raises(AbsintError):
        pack_classes(compiled, [(0,)])


# ---------------------------------------------------------------------------
# Packing: many classes per word == each class evaluated alone, bit for bit
# ---------------------------------------------------------------------------

circuits = st.builds(
    random_dag_circuit,
    seed=st.integers(min_value=0, max_value=10_000),
    num_inputs=st.integers(min_value=1, max_value=5),
    num_gates=st.integers(min_value=1, max_value=20),
    library=st.sampled_from(sorted(LIBRARIES)).map(LIBRARIES.get),
    num_outputs=st.just(1),
)


def _assert_packed_matches_single_class(compiled, classes):
    """Multi-digit rail words agree, class by class, with one-class passes."""
    hi, lo = pack_classes(compiled, classes)
    for j, cls in enumerate(classes):
        alone = ternary_class_values(compiled, cls)
        for idx, name in enumerate(compiled.net_names):
            h, l = (hi[idx] >> j) & 1, (lo[idx] >> j) & 1
            assert alone[name] == (X if h & l else h), (name, j)


@settings(max_examples=40, deadline=None)
@given(circuit=circuits, data=st.data())
def test_ternary_backends_bit_identical(circuit, data):
    """Packing many classes per word == evaluating each class alone."""
    compiled = compile_circuit(circuit)
    config = AbsintConfig(exhaustive_inputs=5)
    classes, _ = enumerate_classes(compiled.n_inputs, config)
    classes = data.draw(
        st.lists(st.sampled_from(classes), min_size=1, max_size=80)
    )
    _assert_packed_matches_single_class(compiled, classes)


def test_ternary_backends_identical_past_grouping_limit(unit_lib):
    """Width > 256 spans several machine words; every class must survive."""
    c = random_dag_circuit(seed=5, num_inputs=5, num_gates=15, library=unit_lib)
    compiled = compile_circuit(c)
    classes, _ = enumerate_classes(5, AbsintConfig(exhaustive_inputs=5))
    classes = (classes * 3)[:300]
    assert len(classes) == 300
    _assert_packed_matches_single_class(compiled, classes)


def test_ternary_agrees_with_binary_on_definite_classes(unit_lib):
    """A class with no X input is just a binary vector; rails must agree."""
    c = random_dag_circuit(seed=11, num_inputs=4, num_gates=12, library=unit_lib)
    compiled = compile_circuit(c)
    for code in range(16):
        cls = tuple((code >> i) & 1 for i in range(4))
        values = ternary_class_values(compiled, cls)
        words = eval_words(compiled, [(code >> i) & 1 for i in range(4)], 1)
        for net, word in zip(compiled.net_names, words):
            assert values[net] == (word & 1)


# ---------------------------------------------------------------------------
# The oracle: no false negatives against exhaustive event simulation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_no_false_negatives_vs_eventsim(seed, lsi_lib):
    """Every glitching vector pair must fall in a ternary-X class.

    Exhaustive over all ``2^n * 2^n`` ordered pairs of a random 4-input
    circuit: if the event simulator shows >= 2 output transitions, the
    abstraction is *obliged* to flag the pair's class (SAFE is a proof).
    """
    circuit = random_dag_circuit(
        seed=seed, num_inputs=4, num_gates=14, library=lsi_lib, num_outputs=2
    )
    compiled = compile_circuit(circuit)
    n = compiled.n_inputs
    cache: dict[tuple[int, ...], dict[str, int]] = {}
    for c1 in range(1 << n):
        v1 = tuple((c1 >> i) & 1 for i in range(n))
        for c2 in range(1 << n):
            if c1 == c2:
                continue
            v2 = tuple((c2 >> i) & 1 for i in range(n))
            waves = two_vector_waveforms(
                compiled,
                dict(zip(compiled.inputs, map(bool, v1))),
                dict(zip(compiled.inputs, map(bool, v2))),
            )
            glitchy = [
                out
                for out in circuit.outputs
                if waves[out].num_transitions >= 2
            ]
            if not glitchy:
                continue
            cls = class_of_pair(v1, v2)
            if cls not in cache:
                cache[cls] = ternary_class_values(compiled, cls)
            for out in glitchy:
                assert cache[cls][out] == X, (
                    f"{circuit.name}: pair {v1}->{v2} glitches {out!r} but "
                    f"its class {cls} was proven SAFE — unsound abstraction"
                )


@pytest.mark.parametrize("name", ["comparator2", "cmb", "mux_tree3"])
def test_witnesses_replay_identically(name):
    """Every confirmed witness re-replays to the recorded waveform facts."""
    from repro.benchcircuits import circuit_by_name

    circuit = circuit_by_name(name)
    analysis = analyze_hazards(circuit, AbsintConfig())
    assert analysis.witnesses, f"expected confirmed hazards on {name}"
    compiled = compile_circuit(circuit)
    for w in analysis.witnesses:
        waves = two_vector_waveforms(
            compiled,
            dict(zip(compiled.inputs, map(bool, w.v1))),
            dict(zip(compiled.inputs, map(bool, w.v2))),
        )
        wave = waves[w.output]
        assert wave.num_transitions == w.num_transitions >= 2
        assert wave.settle_time == w.settle_time
        # the pair really belongs to an X class of that output
        values = ternary_class_values(compiled, class_of_pair(w.v1, w.v2))
        assert values[w.output] == X


def test_hazard_kinds_match_endpoint_values():
    """static-0/static-1/dynamic labels agree with the endpoint evaluation."""
    from repro.benchcircuits import circuit_by_name

    circuit = circuit_by_name("comparator2")
    compiled = compile_circuit(circuit)
    analysis = analyze_hazards(circuit, AbsintConfig())
    for w in analysis.witnesses:
        idx = compiled.net_index[w.output]
        y1 = eval_words(compiled, list(w.v1), 1)[idx] & 1
        y2 = eval_words(compiled, list(w.v2), 1)[idx] & 1
        if w.kind == "static-0":
            assert (y1, y2) == (0, 0)
        elif w.kind == "static-1":
            assert (y1, y2) == (1, 1)
        else:
            assert w.kind == "dynamic" and y1 != y2


def test_analyze_hazards_budget_caps_work():
    from repro.benchcircuits import circuit_by_name

    circuit = circuit_by_name("comparator2")
    tight = AbsintConfig(max_candidate_classes=2, replay_budget=3)
    analysis = analyze_hazards(circuit, tight)
    assert sum(
        oh.analyzed_classes for oh in analysis.per_output.values()
    ) <= 2
    assert analysis.replays <= 3


# ---------------------------------------------------------------------------
# X-injection observability
# ---------------------------------------------------------------------------


def test_inject_x_blocked_by_constant_path(unit_lib):
    """An X fenced off by a constant-0 AND never reaches the output."""
    c = Circuit("fenced", inputs=["a", "b"], outputs=["y"])
    c.add_gate("na", unit_lib.get("INV"), ("a",))
    c.add_gate("c0", unit_lib.get("AND2"), ("a", "na"))   # constant 0
    c.add_gate("g", unit_lib.get("AND2"), ("a", "b"))
    c.add_gate("gm", unit_lib.get("AND2"), ("g", "c0"))   # g observable only here
    c.add_gate("y", unit_lib.get("OR2"), ("gm", "b"))
    obs = inject_x(c, "g")
    assert obs == {"y": False}
    # whereas an X on input b flows straight through the OR
    assert inject_x(c, "b") == {"y": True}


def test_inject_x_on_observable_gate(unit_lib):
    c = two_input("AND2", unit_lib)
    assert inject_x(c, "y") == {"y": True}
