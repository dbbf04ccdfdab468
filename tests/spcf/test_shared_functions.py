"""SPCF contexts that share their circuit's manager and global functions.

A default :class:`SpcfContext` reads the cached global-function map of its
circuit's content, so a Table 1 sweep (three algorithms at several
thresholds) builds each gate BDD once.  These tests pin that sharing moves
no count and no short-path cube, that the two exact algorithms then return
the very same BDDs, and that :func:`compare_algorithms` still times each
algorithm cold.
"""

from __future__ import annotations

import time

import pytest

import repro.spcf.timedfunc as timedfunc_mod
from repro.bdd.manager import BddManager
from repro.benchcircuits import circuit_by_name
from repro.netlist import lsi10k_like_library
from repro.spcf import (
    SpcfContext,
    compare_algorithms,
    spcf_nodebased,
    spcf_pathbased,
    spcf_shortpath,
)

LSI = lsi10k_like_library()
THRESHOLDS = (0.5, 0.7, 0.9)
#: Seconds each recorded context build sleeps, to see it inside a runtime.
CONTEXT_DELAY = 0.02
SOLVERS = {
    "nodebased": spcf_nodebased,
    "pathbased": spcf_pathbased,
    "shortpath": spcf_shortpath,
}


def _cubes(result):
    """Manager-independent form: output -> its BDD's cube sequence."""
    return {y: list(fn.cubes()) for y, fn in result.per_output.items()}


@pytest.fixture(autouse=True)
def cold_cache():
    timedfunc_mod._functions_cache.clear()
    yield
    timedfunc_mod._functions_cache.clear()


@pytest.mark.parametrize("name", ["cmb", "i1", "C432", "comparator4"])
def test_shared_contexts_count_what_fresh_managers_count(name):
    circuit = circuit_by_name(name, LSI)
    shared_manager = None
    for threshold in THRESHOLDS:
        results = {}
        for alg, solve in SOLVERS.items():
            shared = solve(circuit, context=SpcfContext(circuit, threshold))
            fresh = solve(
                circuit,
                context=SpcfContext(
                    circuit, threshold, manager=BddManager(circuit.inputs)
                ),
            )
            assert shared.context.manager is not fresh.context.manager
            assert shared.count() == fresh.count(), (alg, threshold)
            assert shared.counts_by_output() == fresh.counts_by_output(), (
                alg, threshold,
            )
            if alg == "shortpath":
                # Both managers order the variables as the circuit's
                # inputs, so the same functions list the same cubes.
                assert _cubes(shared) == _cubes(fresh), threshold
            results[alg] = shared
        for result in results.values():
            if shared_manager is None:
                shared_manager = result.context.manager
            assert result.context.manager is shared_manager
        # Both exact algorithms compute the same functions, so on one
        # manager they return the same BDD edges.
        path = results["pathbased"].per_output
        short = results["shortpath"].per_output
        assert list(path) == list(short)
        for y in path:
            assert path[y].node == short[y].node, (y, threshold)


def test_compare_algorithms_times_each_algorithm_on_its_own_manager(
    monkeypatch,
):
    circuit = circuit_by_name("cmb", LSI)
    contexts = []
    real_init = SpcfContext.__init__

    def recording(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        contexts.append(self)
        time.sleep(CONTEXT_DELAY)

    monkeypatch.setattr(SpcfContext, "__init__", recording)
    row = compare_algorithms(circuit)
    monkeypatch.undo()
    assert len(contexts) == 3
    # Each runtime spans building its context, as Table 1's runtimes did
    # when every algorithm built its own.
    assert min(
        row.node_based_runtime, row.path_based_runtime, row.short_path_runtime
    ) >= CONTEXT_DELAY
    managers = {id(ctx.manager) for ctx in contexts}
    assert len(managers) == 3
    assert not any(
        ctx.functions is SpcfContext(circuit).functions for ctx in contexts
    )

    counts = {
        alg: solve(circuit, context=SpcfContext(circuit)).count()
        for alg, solve in SOLVERS.items()
    }
    assert (
        row.node_based_count,
        row.path_based_count,
        row.short_path_count,
    ) == (counts["nodebased"], counts["pathbased"], counts["shortpath"])
