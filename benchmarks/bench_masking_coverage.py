"""Sec. 5 headline — 100% masking of injected timing errors.

For a set of circuits: synthesize the masking circuit, age the speed-path
gates past the clock period, drive random two-vector workloads, and count

* raw timing errors (the unprotected circuit samples a wrong value),
* residual errors (the *masked* design samples a wrong value).

The claim reproduced: residual errors are zero — every timing error on a
speed-path is masked — while the masking circuit's own slack absorbs the
injected slowdown.
"""

import pytest

from repro.benchcircuits import make_benchmark
from repro.core import mask_circuit
from repro.engine import compile_circuit, patterns_to_words
from repro.sim import (
    eval_words_with_faults,
    random_patterns,
    sample_words,
    speed_path_gates,
)

NAMES = ("cmb", "x2", "cu", "C432")

_ROWS = []


@pytest.mark.parametrize("name", NAMES)
def test_injected_errors_are_fully_masked(benchmark, name, lsi_lib):
    circuit = make_benchmark(name, lsi_lib)
    res = mask_circuit(circuit, lsi_lib)
    design = res.design
    clock = design.clock_period
    scale = 1.0 + 0.15 * res.report.slack_percent / 100.0 + 0.1
    slow = {g: scale for g in speed_path_gates(circuit) & set(circuit.gates)}
    aged_masked = design.circuit.with_delay_scales(slow)
    aged_raw = circuit.with_delay_scales(slow)

    # Bias the workload towards SPCF patterns so speed-paths actually fire:
    # half random vectors, half sampled from Sigma cubes.
    pats = list(random_patterns(circuit.inputs, 150, seed=7))
    sigma = res.masking.spcf.union
    seeded = []
    for cube in sigma.cubes():
        base = dict.fromkeys(circuit.inputs, False)
        base.update(cube)
        seeded.append(base)
        if len(seeded) >= 150:
            break
    workload = [p for pair in zip(pats, seeded or pats) for p in pair]

    # The workload's consecutive patterns are the vector pairs; bit k of
    # each word is pair k, and the whole workload is sampled at once.
    aged_raw_cc = compile_circuit(aged_raw)
    v1, width = patterns_to_words(aged_raw_cc, workload[:-1])
    v2, _ = patterns_to_words(aged_raw_cc, workload[1:])
    settled = eval_words_with_faults(circuit, v2, width)

    def run():
        raw = sample_words(aged_raw_cc, v1, v2, width, clock, circuit.outputs)
        wrong = 0
        for y, word in zip(circuit.outputs, raw):
            wrong |= word ^ settled[y]
        masked = sample_words(
            aged_masked, v1, v2, width, clock, design.output_map.values()
        )
        residual = sum(
            (word ^ settled[y]).bit_count()
            for y, word in zip(design.output_map, masked)
        )
        activations = sum(sigma.evaluate(p) for p in workload[1:])
        return wrong.bit_count(), residual, activations

    raw_errors, residual, activations = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert residual == 0, f"{name}: {residual} errors escaped the mask"
    assert activations > 0, "workload never exercised a speed-path"
    print(
        f"\n{name}: speed-path activations={activations}, raw timing errors="
        f"{raw_errors}, residual errors after masking=0 (100% masked)"
    )
