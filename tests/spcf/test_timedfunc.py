"""Tests for the shared SPCF context and timed characteristic functions."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.benchcircuits import circuit_by_name, comparator2
from repro.core import build_masked_design, synthesize_masking
from repro.errors import SpcfError
from repro.netlist import Circuit, lsi10k_like_library, unit_library
from repro.sim import (
    exhaustive_patterns,
    random_patterns,
    simulate,
    stabilization_times,
)
from repro.spcf import SpcfContext, expr_to_function, spcf_shortpath
from repro.spcf.timedfunc import CircuitFunctions
from repro.bdd import BddManager
from repro.logic import parse_expr
from tests.conftest import random_dag_circuit

SRC = Path(__file__).resolve().parents[2] / "src"


def _assert_functions_match(circuit, fns, patterns):
    for pat in patterns:
        vals = simulate(circuit, pat)
        for net in circuit.nets():
            assert fns[net].evaluate(pat) == vals[net], (circuit.name, net)


def test_global_functions_match_simulation():
    for seed in range(5):
        c = random_dag_circuit(seed, num_inputs=5, num_gates=12)
        ctx = SpcfContext(c)
        _assert_functions_match(c, ctx.functions, exhaustive_patterns(c.inputs))
    # The masking circuit and the mux-patched design, built on the run's
    # manager, the design also as verification and power build it: on top
    # of the context's map.
    lib = lsi10k_like_library()
    for name in ("comparator2", "cmb"):
        result = synthesize_masking(circuit_by_name(name, lib), lib)
        design = build_masked_design(result)
        mgr = result.context.manager
        inputs = result.circuit.inputs
        if len(inputs) <= 8:
            patterns = list(exhaustive_patterns(inputs))
        else:
            patterns = list(random_patterns(inputs, 64, seed=1))
        for c in (result.masking_circuit, design.circuit):
            assert c.num_gates > 0
            _assert_functions_match(c, CircuitFunctions(c, mgr), patterns)
        on_context = CircuitFunctions(
            design.circuit, mgr, base=result.context.functions
        )
        _assert_functions_match(design.circuit, on_context, patterns)


def test_circuit_functions_reject_unknown_nets_and_loops():
    mgr = BddManager(["a"])
    c = Circuit("c", inputs=("a",), outputs=("g",))
    c.add_gate("g", unit_library().get("INV"), ("a",))
    fns = CircuitFunctions(c, mgr)
    assert fns["a"] == mgr.var("a")
    assert fns["g"] == ~mgr.var("a")
    with pytest.raises(SpcfError):
        fns["nope"]
    with pytest.raises(SpcfError):  # a base map must share the manager
        CircuitFunctions(c, BddManager(["a"]), base=fns)
    loop = Circuit("loop", inputs=("a",), outputs=("p",))
    and2 = unit_library().get("AND2")
    loop.add_gate("p", and2, ("a", "q"))
    loop.add_gate("q", and2, ("a", "p"))
    with pytest.raises(SpcfError):
        CircuitFunctions(loop, mgr)["p"]


def test_deep_cones_build_without_recursion():
    """A 20,000-inverter chain: global function, power and lint cone check."""
    script = textwrap.dedent(
        """
        from fractions import Fraction
        from repro.analysis.rules import LintContext
        from repro.netlist import Circuit, unit_library
        from repro.spcf.timedfunc import SpcfContext
        from repro.synth.power import signal_probabilities_bdd

        inv = unit_library().get("INV")
        c = Circuit("chain", inputs=("x",), outputs=("n19999",))
        prev = "x"
        for i in range(20000):
            c.add_gate(f"n{i}", inv, (prev,))
            prev = f"n{i}"
        ctx = SpcfContext(c)
        assert ctx.functions[prev] == ctx.manager.var("x")
        assert signal_probabilities_bdd(c)[prev] == Fraction(1, 2)
        assert LintContext(c).cone_function_constant(prev) is False
        """
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize(
    "names",
    [
        ("other", "a0", "a1", "b0", "b1"),
        ("a0", "a1", "other", "b0", "b1"),
        ("a0", "other"),
    ],
)
def test_context_refuses_a_manager_that_cannot_count_the_inputs(names):
    mgr = BddManager(names)
    with pytest.raises(SpcfError):
        SpcfContext(comparator2(), manager=mgr)
    assert mgr.var_names == names


@pytest.mark.parametrize(
    "names",
    [
        ("b1", "a0", "b0", "a1"),
        ("a1",),
        ("a0", "a1", "b0", "b1", "other"),
    ],
)
def test_context_counts_on_a_manager_holding_the_inputs_first(names):
    c = comparator2()
    ctx = SpcfContext(c, manager=BddManager(names))
    assert set(ctx.manager.var_names[:4]) == set(c.inputs)
    assert spcf_shortpath(c, context=ctx).count() == 10
    assert spcf_shortpath(c).count() == 10


def test_stable_pair_partitions_on_time_patterns():
    """S0/S1 at time t == patterns with that final value stabilized by t."""
    c = comparator2()
    ctx = SpcfContext(c)
    for t in (0, 3, 5, 6, 7):
        s0, s1 = ctx.stable("y", t)
        assert (s0 & s1).is_false
        for pat in exhaustive_patterns(c.inputs):
            st = stabilization_times(c, pat)
            val = simulate(c, pat)["y"]
            on_time = st["y"] <= t
            assert s1.evaluate(pat) == (on_time and val), (t, pat)
            assert s0.evaluate(pat) == (on_time and not val), (t, pat)


def test_late_is_complement_of_stable():
    c = comparator2()
    ctx = SpcfContext(c)
    s0, s1 = ctx.stable("y", 5)
    assert ctx.late("y", 5) == ~(s0 | s1)


def test_stable_beyond_arrival_is_everything():
    c = comparator2()
    ctx = SpcfContext(c)
    s0, s1 = ctx.stable("y", 100)
    assert (s0 | s1).is_true
    assert s1 == ctx.functions["y"]


def test_stable_before_min_is_empty():
    c = comparator2()
    ctx = SpcfContext(c)
    s0, s1 = ctx.stable("y", 0)
    assert s0.is_false and s1.is_false


def test_expr_to_function_unbound_name():
    mgr = BddManager(["a"])
    with pytest.raises(SpcfError):
        expr_to_function(parse_expr("a & b"), {"a": mgr.var("a")}, mgr)


def test_context_count_uses_pi_space():
    c = comparator2()
    ctx = SpcfContext(c)
    assert ctx.count(ctx.manager.true) == 16
    assert ctx.count(ctx.manager.false) == 0


def test_critical_outputs_property():
    c = comparator2()
    ctx = SpcfContext(c)
    assert ctx.critical_outputs == ("y",)
