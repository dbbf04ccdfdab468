"""The content-keyed cache of BDD managers and global-function maps.

Every :class:`SpcfContext` built without ``manager=`` reads one
:class:`CircuitFunctions` map, on one BDD manager, per circuit content
(:data:`repro.spcf.timedfunc._functions_cache`).  A default masking run,
its verification and its power reuse it, so a threshold sweep builds each
gate BDD once.  These tests pin that a shared manager changes no result,
that circuit content is the whole key, and that the cache stays at its
bound.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.masking as masking_mod
import repro.spcf.timedfunc as timedfunc_mod
from repro import obs
from repro.bdd.manager import BddManager
from repro.benchcircuits import circuit_by_name
from repro.core.masking import synthesize_masking
from repro.core.pipeline import mask_circuit
from repro.core.report import overhead_report
from repro.core.verify import design_functions
from repro.netlist import lsi10k_like_library
from repro.spcf.timedfunc import CircuitFunctions, SpcfContext
from repro.synth.power import switching_power

THRESHOLDS = (0.80, 0.85, 0.90, 0.95)
LSI = lsi10k_like_library()


def clear_caches():
    masking_mod._collapse_cache.clear()
    timedfunc_mod._functions_cache.clear()


@pytest.fixture(autouse=True)
def cold_caches():
    clear_caches()
    yield
    clear_caches()


def comparator():
    return circuit_by_name("comparator2", LSI)


def manager_of(circuit, **kwargs):
    return synthesize_masking(circuit, LSI, **kwargs).context.manager


@pytest.mark.parametrize("name", ["comparator2", "cu", "i1"])
def test_shared_manager_sweep_reports_equal_cold_sweep(name):
    circuit = circuit_by_name(name, LSI)
    warm = [mask_circuit(circuit, LSI, threshold=t) for t in THRESHOLDS]
    assert len({id(r.masking.context.manager) for r in warm}) == 1
    cold = []
    for t in THRESHOLDS:
        clear_caches()
        cold.append(mask_circuit(circuit, LSI, threshold=t))
    for w, c in zip(warm, cold):
        # Field for field, floats by ==: sharing must not move a bit.
        assert w.report == c.report
        assert w.verification == c.verification
        assert list(w.masking.masking_circuit.gates.items()) == list(
            c.masking.masking_circuit.gates.items()
        )


def test_equal_content_in_distinct_objects_shares_a_manager():
    circuit = comparator()
    first = manager_of(circuit)
    assert manager_of(circuit.copy()) is first
    assert manager_of(comparator(), threshold=0.8) is first
    assert len(timedfunc_mod._functions_cache) == 1


def test_one_different_gate_never_shares_a_manager():
    circuit = comparator()
    other = circuit.copy()
    gate = other.gates["t1"]
    other.replace_gate(dataclasses.replace(gate, cell=LSI.get("OR2")))
    assert (other.name, other.inputs, other.outputs) == (
        circuit.name, circuit.inputs, circuit.outputs
    )
    first = manager_of(circuit)
    assert manager_of(other) is not first
    assert manager_of(circuit) is not first  # evicted, never handed to other


def test_explicit_context_keeps_its_own_manager():
    circuit = comparator()
    shared = manager_of(circuit)
    ctx = SpcfContext(circuit, manager=BddManager(circuit.inputs))
    result = masking_mod.MaskingSynthesizer(circuit, LSI, context=ctx).run()
    assert result.context.manager is ctx.manager is not shared
    assert ctx.functions is not SpcfContext(circuit).functions
    # A bare SpcfContext shares the manager and the function map.
    bare = SpcfContext(circuit, threshold=0.5)
    assert bare.manager is shared
    assert bare.functions is SpcfContext(circuit).functions


def test_renamed_or_edited_circuit_never_hits_a_stale_key():
    circuit = comparator()
    first = SpcfContext(circuit).functions
    circuit.name = "renamed"
    renamed = SpcfContext(circuit).functions
    assert renamed is not first
    assert renamed.circuit.name == "renamed"
    assert SpcfContext(circuit).functions is renamed

    gate = circuit.gates["t1"]
    circuit.replace_gate(dataclasses.replace(gate, cell=LSI.get("OR2")))
    edited = SpcfContext(circuit).functions
    assert edited is not renamed
    reference = CircuitFunctions(circuit, edited.manager)
    for net in circuit.topo_order():
        assert edited[net] == reference[net], net

    # The cache holds a copy of the circuit: editing the circuit a map was
    # made from never reaches an equal circuit that hits that map.
    source = comparator()
    cached = SpcfContext(source).functions
    source.replace_gate(dataclasses.replace(gate, cell=LSI.get("OR2")))
    equal = comparator()
    assert SpcfContext(equal).functions is cached
    reference = CircuitFunctions(equal, cached.manager)
    for net in equal.topo_order():
        assert cached[net] == reference[net], net


def test_cache_is_bounded_by_its_size():
    bound = timedfunc_mod.FUNCTIONS_CACHE_SIZE
    circuit = comparator()
    managers = [
        manager_of(circuit.copy(name=f"cmp{k}")) for k in range(bound + 2)
    ]
    assert len(timedfunc_mod._functions_cache) == bound
    assert len({id(m) for m in managers}) == bound + 2
    # The newest still hits; the oldest was evicted and is rebuilt.
    assert manager_of(circuit.copy(name=f"cmp{bound + 1}")) is managers[-1]
    assert manager_of(circuit.copy(name="cmp0")) is not managers[0]
    assert len(timedfunc_mod._functions_cache) == bound


def test_a_manager_is_never_reused_across_obs_states():
    circuit = comparator()
    untraced = manager_of(circuit)
    assert "computed_table" not in untraced.stats()
    obs.configure(enabled=True)
    traced = manager_of(circuit)
    assert traced is not untraced
    assert "computed_table" in traced.stats()
    obs.configure(enabled=False)
    assert "computed_table" not in manager_of(circuit).stats()


def test_overhead_report_on_a_manager_with_other_vars_first():
    # A context manager may hold the inputs in another order (other
    # variables first are refused by SpcfContext).  Power counts over the
    # first len(inputs) levels in any order, so it builds in that manager
    # and reports what a manager in circuit order reports.
    circuit = comparator()
    base = mask_circuit(circuit, LSI)
    mgr = BddManager(circuit.inputs[::-1])
    ctx = SpcfContext(circuit, manager=mgr)
    result = dataclasses.replace(base.masking, context=ctx)
    nodes = mgr.num_nodes
    assert overhead_report(result, base.design, base.verification) == base.report
    assert mgr.num_nodes > nodes


@pytest.mark.parametrize("name", ["comparator2", "cu"])
def test_power_in_the_shared_manager_equals_a_fresh_one(name):
    circuit = circuit_by_name(name, LSI)
    result = mask_circuit(circuit, LSI)
    design_map = design_functions(result.masking, result.design)
    pairs = (
        (circuit, result.masking.context.functions),
        (result.design.circuit, design_map),
    )
    for c, fns in pairs:
        assert switching_power(c, functions=fns) == switching_power(c)
