"""Arrival-interval domain: lattice laws, fixpoint, and the STA cross-check."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.absint import (
    ArrivalIntervalDomain,
    Interval,
    arrival_intervals,
    check_interval_consistency,
    run_fixpoint,
)
from repro.analysis.absint.intervals import BOTTOM
from repro.benchcircuits import circuit_by_name
from repro.engine import compile_circuit
from repro.netlist import lsi10k_like_library, unit_library

from tests.conftest import random_dag_circuit

SUITE = ["comparator2", "cmb", "full_adder", "ripple_adder4", "i1", "cu"]


# ---------------------------------------------------------------------------
# Lattice laws
# ---------------------------------------------------------------------------

intervals_st = st.builds(
    Interval,
    lo=st.integers(min_value=0, max_value=40),
    hi=st.integers(min_value=0, max_value=40),
)


def test_interval_basics():
    iv = Interval(2, 5)
    assert not iv.is_empty
    assert iv.contains(2) and iv.contains(5) and not iv.contains(6)
    assert BOTTOM.is_empty
    assert not BOTTOM.contains(0)


@settings(max_examples=60, deadline=None)
@given(a=intervals_st, b=intervals_st, c=intervals_st)
def test_join_is_least_upper_bound(a, b, c):
    dom = ArrivalIntervalDomain()
    j = dom.join(a, b)
    assert dom.leq(a, j) and dom.leq(b, j)
    # least: any common upper bound dominates the join
    if dom.leq(a, c) and dom.leq(b, c):
        assert dom.leq(j, c)
    assert dom.leq(BOTTOM, a)


@settings(max_examples=40, deadline=None)
@given(a=intervals_st, b=intervals_st)
def test_join_commutative_idempotent(a, b):
    dom = ArrivalIntervalDomain()
    assert dom.join(a, b) == dom.join(b, a)
    assert dom.leq(dom.join(a, a), a) and dom.leq(a, dom.join(a, a))
    if not a.is_empty:
        assert dom.join(a, BOTTOM) == a


# ---------------------------------------------------------------------------
# Fixpoint vs. STA on real circuits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SUITE)
def test_intervals_consistent_with_sta(name):
    """The acceptance bar: [lo, hi] contains the exact arrival, every net."""
    compiled = compile_circuit(circuit_by_name(name))
    intervals = arrival_intervals(compiled)
    findings = list(
        check_interval_consistency(
            compiled, intervals, compiled.arrival(), compiled.min_stable()
        )
    )
    assert findings == []


@pytest.mark.parametrize("lib_name", ["unit", "lsi"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_intervals_consistent_on_random_dags(lib_name, seed):
    lib = unit_library() if lib_name == "unit" else lsi10k_like_library()
    c = random_dag_circuit(seed=seed, num_inputs=5, num_gates=25, library=lib)
    compiled = compile_circuit(c)
    intervals = arrival_intervals(compiled)
    assert list(
        check_interval_consistency(
            compiled, intervals, compiled.arrival(), compiled.min_stable()
        )
    ) == []


def test_fixpoint_is_deterministic():
    compiled = compile_circuit(circuit_by_name("cmb"))
    assert arrival_intervals(compiled) == arrival_intervals(compiled)
    assert arrival_intervals(compiled) == run_fixpoint(
        compiled, ArrivalIntervalDomain()
    )


# ---------------------------------------------------------------------------
# The audit actually fires on corrupted inputs
# ---------------------------------------------------------------------------


def test_audit_detects_arrival_outside_interval():
    compiled = compile_circuit(circuit_by_name("comparator2"))
    intervals = arrival_intervals(compiled)
    bad_arrival = [a + 1000 for a in compiled.arrival()]
    findings = list(
        check_interval_consistency(
            compiled, intervals, bad_arrival, compiled.min_stable()
        )
    )
    assert findings
    assert all("outside certified interval" in msg for _, msg, _ in findings)
    assert all(d["arrival"] == d["hi"] + 1000 for _, _, d in findings)


def test_audit_detects_min_stable_below_lo():
    compiled = compile_circuit(circuit_by_name("comparator2"))
    intervals = arrival_intervals(compiled)
    bad_ms = [0] * compiled.n_nets
    findings = list(
        check_interval_consistency(
            compiled, intervals, compiled.arrival(), bad_ms
        )
    )
    # every net with lo > 0 (i.e. every gate net) must be reported
    expected = sum(1 for iv in intervals if iv.lo > 0)
    assert len(findings) == expected > 0


def test_audit_detects_empty_interval():
    compiled = compile_circuit(circuit_by_name("comparator2"))
    intervals = list(arrival_intervals(compiled))
    intervals[-1] = BOTTOM
    findings = list(
        check_interval_consistency(
            compiled, intervals, compiled.arrival(), compiled.min_stable()
        )
    )
    assert any("empty" in msg for _, msg, _ in findings)
