"""Unit tests for the compiled circuit IR and the word evaluator."""

from __future__ import annotations

from itertools import product

import pytest

from repro.engine import (
    CompiledCircuit,
    cell_prime_tables,
    cell_word_function,
    compile_circuit,
    compile_program,
    eval_words,
    evaluate_words,
    pack_input_words,
    run_program,
)
from repro.errors import EngineError, SimulationError
from repro.lru import LRUCache
from repro.netlist import lsi10k_like_library, unit_library
from repro.sim import simulate, simulate_words
from repro.sta import analyze

from tests.conftest import random_dag_circuit


# ----------------------------------------------------------------- lowering


def test_net_indexing_convention(unit_lib):
    c = random_dag_circuit(1, num_inputs=4, num_gates=9, library=unit_lib)
    cc = compile_circuit(c)
    assert cc.net_names[: cc.n_inputs] == c.inputs
    assert cc.net_names[cc.n_inputs :] == tuple(c.topo_order())
    for name, pos in cc.gate_position.items():
        assert cc.net_index[name] == cc.n_inputs + pos
    assert tuple(cc.net_names[i] for i in cc.output_index) == c.outputs


def test_levels_respect_topology(unit_lib):
    cc = compile_circuit(
        random_dag_circuit(2, num_inputs=3, num_gates=15, library=unit_lib)
    )
    for i in range(cc.n_inputs):
        assert cc.levels[i] == 0
    for pos, fanins in enumerate(cc.gate_fanins):
        out = cc.n_inputs + pos
        assert all(cc.levels[out] > cc.levels[f] for f in fanins)


def test_fanouts_invert_fanins(unit_lib):
    cc = compile_circuit(
        random_dag_circuit(3, num_inputs=4, num_gates=12, library=unit_lib)
    )
    fo = cc.fanouts()
    for pos, fanins in enumerate(cc.gate_fanins):
        for pin, net in enumerate(fanins):
            assert (pos, pin) in fo[net]


def test_compile_is_cached_until_structural_edit(unit_lib):
    c = random_dag_circuit(4, num_inputs=3, num_gates=6, library=unit_lib)
    first = compile_circuit(c)
    assert compile_circuit(c) is first
    assert compile_circuit(first) is first
    c.add_gate("extra", unit_lib.get("INV"), ["g0"])
    second = compile_circuit(c)
    assert second is not first
    assert "extra" in second.gate_names
    c.add_output("extra")
    third = compile_circuit(c)
    assert third is not second
    assert "extra" in third.outputs


def test_undriven_output_is_an_engine_error(unit_lib):
    from repro.netlist import Circuit

    c = Circuit("broken", inputs=("a",))
    c.add_gate("g", unit_lib.get("INV"), ["a"])
    c.add_output("g")
    c._outputs.append("ghost")
    c._version += 1
    with pytest.raises(EngineError, match="ghost"):
        compile_circuit(c)


# -------------------------------------------------- cell programs/functions


@pytest.mark.parametrize("libname", ["unit", "lsi"])
def test_programs_and_word_functions_agree_with_cell_evaluate(libname):
    lib = unit_library() if libname == "unit" else lsi10k_like_library()
    for cell in lib:
        pin_index = {pin: i for i, pin in enumerate(cell.inputs)}
        prog = compile_program(cell.expr, pin_index)
        func = cell_word_function(cell)
        for bits in product([0, 1], repeat=cell.num_inputs):
            expected = int(
                cell.evaluate(dict(zip(cell.inputs, map(bool, bits))))
            )
            assert run_program(prog, 1, bits) == expected
            assert func(1, *bits) == expected


@pytest.mark.parametrize("libname", ["unit", "lsi"])
def test_prime_tables_characterize_cell_onset(libname):
    lib = unit_library() if libname == "unit" else lsi10k_like_library()
    for cell in lib:
        on, off = cell_prime_tables(cell)
        for bits in product([False, True], repeat=cell.num_inputs):
            out = cell.evaluate(dict(zip(cell.inputs, bits)))
            on_hit = any(
                all(bits[p] == pol for p, pol in zip(pins, pols))
                for pins, pols in on
            )
            off_hit = any(
                all(bits[p] == pol for p, pol in zip(pins, pols))
                for pins, pols in off
            )
            assert on_hit == out and off_hit == (not out), cell.name


# ------------------------------------------------------------------- timing


def test_arrival_and_critical_delay_match_sta(lsi_lib):
    c = random_dag_circuit(5, num_inputs=5, num_gates=20, library=lsi_lib)
    cc = compile_circuit(c)
    report = analyze(c, target=0)
    for net, t in report.arrival.items():
        assert cc.arrival()[cc.net_index[net]] == t
    assert cc.critical_delay() == report.critical_delay


def test_with_delay_scales_matches_circuit_rebuild(lsi_lib):
    c = random_dag_circuit(6, num_inputs=4, num_gates=14, library=lsi_lib)
    scales = {"g3": 1.7, "g9": 2.2}
    slow_compiled = compile_circuit(c).with_delay_scales(scales)
    slow_circuit = c.with_delay_scales(scales)
    assert analyze(slow_compiled, target=0).arrival == analyze(
        slow_circuit, target=0
    ).arrival


def test_with_delay_scales_rejects_bad_input(unit_lib):
    cc = compile_circuit(
        random_dag_circuit(7, num_inputs=3, num_gates=5, library=unit_lib)
    )
    with pytest.raises(EngineError, match="no gate"):
        cc.with_delay_scales({"nope": 2.0})
    with pytest.raises(EngineError, match="slow gates down"):
        cc.with_delay_scales({"g1": 0.5})


def test_lowering_compiles_one_program_per_distinct_cell(lsi_lib, monkeypatch):
    import repro.engine.ir as ir

    calls = []

    def counting(expr, pin_index):
        calls.append(expr)
        return compile_program(expr, pin_index)

    monkeypatch.setattr(ir, "compile_program", counting)
    monkeypatch.setattr(ir, "_program_cache", LRUCache(ir.CELL_CACHE_SIZE))
    circuits = [
        random_dag_circuit(seed, num_inputs=4, num_gates=40, library=lsi_lib)
        for seed in range(3)
    ]
    compiled = [compile_circuit(c) for c in circuits]
    cells = {cell._key for cc in compiled for cell in cc.gate_cells}
    assert sum(cc.n_gates for cc in compiled) > len(cells)
    assert 0 < len(calls) <= len(cells)
    for cc in compiled:
        for cell, program in zip(cc.gate_cells, cc.gate_programs):
            pin_index = {pin: i for i, pin in enumerate(cell.inputs)}
            assert program == compile_program(cell.expr, pin_index)


# --------------------------------------------------------------- evaluation


def test_eval_pattern_matches_simulate(lsi_lib):
    c = random_dag_circuit(9, num_inputs=5, num_gates=16, library=lsi_lib)
    cc = compile_circuit(c)
    pattern = {net: i % 2 == 0 for i, net in enumerate(c.inputs)}
    expected = simulate(c, pattern)
    values = cc.eval_pattern(pattern)
    assert {n: bool(values[i]) for n, i in cc.net_index.items()} == expected


def test_eval_pattern_missing_input(unit_lib):
    cc = compile_circuit(
        random_dag_circuit(10, num_inputs=3, num_gates=4, library=unit_lib)
    )
    with pytest.raises(SimulationError, match="missing input 'x2'"):
        cc.eval_pattern({"x0": True, "x1": False})


def test_word_interface_errors(unit_lib):
    cc = compile_circuit(
        random_dag_circuit(11, num_inputs=3, num_gates=4, library=unit_lib)
    )
    with pytest.raises(SimulationError, match="missing input"):
        pack_input_words(cc, {"x0": 1}, 4)
    with pytest.raises(EngineError, match="input words"):
        eval_words(cc, [1, 2], 4)
    with pytest.raises(EngineError, match="input bits"):
        cc.eval_bits([1])


def test_evaluate_words_accepts_circuit_or_compiled(unit_lib):
    c = random_dag_circuit(12, num_inputs=3, num_gates=6, library=unit_lib)
    words = {net: 0b1010 for net in c.inputs}
    assert evaluate_words(c, words, 4) == evaluate_words(
        compile_circuit(c), words, 4
    )


def test_negative_width_is_engine_error(unit_lib):
    cc = compile_circuit(
        random_dag_circuit(15, num_inputs=3, num_gates=4, library=unit_lib)
    )
    words = {net: 0 for net in cc.inputs}
    with pytest.raises(EngineError, match="width"):
        eval_words(cc, pack_input_words(cc, words, 1), -1)
    # The dict entry points validate before packing, not with a shift error.
    with pytest.raises(EngineError, match="width"):
        simulate_words(cc, words, -1)


def test_zero_width_empty_batch_is_legal(unit_lib):
    cc = compile_circuit(
        random_dag_circuit(16, num_inputs=3, num_gates=4, library=unit_lib)
    )
    words = {net: 0 for net in cc.inputs}
    out = evaluate_words(cc, words, 0)
    assert set(out) == set(cc.net_names)
    assert all(word == 0 for word in out.values())


# --------------------------------------------- netlist caching (satellites)


def test_circuit_gates_is_cached_live_readonly_view(unit_lib):
    c = random_dag_circuit(14, num_inputs=3, num_gates=4, library=unit_lib)
    view = c.gates
    assert c.gates is view  # no per-access copy
    with pytest.raises(TypeError):
        view["hack"] = view["g0"]
    c.add_gate("late", unit_lib.get("INV"), ["g0"])
    assert "late" in view  # live view sees later edits


def test_gate_pin_delays_memoized(unit_lib):
    c = random_dag_circuit(15, num_inputs=3, num_gates=4, library=unit_lib)
    gate = c.gates["g0"]
    first = gate.pin_delays()
    assert gate.pin_delays() is first
    assert gate.pin_delay(0) == first[0]


def test_pickles_after_sta_and_evaluation(unit_lib):
    import pickle

    c = random_dag_circuit(11, num_inputs=4, num_gates=10, library=unit_lib)
    cc = compile_circuit(c)
    report = analyze(cc)
    bits = [1, 0, 1, 1]
    values = cc.eval_bits(bits)  # builds the plan of generated functions
    loaded = pickle.loads(pickle.dumps(cc))
    assert loaded.gate_programs == cc.gate_programs
    assert loaded.eval_bits(bits) == values
    assert analyze(loaded).arrival == report.arrival
