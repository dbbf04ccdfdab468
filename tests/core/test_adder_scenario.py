"""Scenario test: protecting a ripple adder's carry chain (end to end).

The ripple adder is the canonical rarely-sensitized-speed-path circuit: its
longest paths run through the carry chain and are exercised only by
carry-propagating operands.  This pins the full story: the SPCF captures
exactly those operands, the masking circuit covers them, and after aging the
chain up to the protected band every injected timing error is masked.
"""

import itertools

import pytest

from repro.benchcircuits.handmade import ripple_adder, ripple_adder_reference
from repro.core import mask_circuit
from repro.netlist import lsi10k_like_library
from repro.engine import compile_circuit, patterns_to_words
from repro.sim import sample_clocks, speed_path_gates
from repro.sta import analyze

N = 4


@pytest.fixture(scope="module")
def setup():
    lib = lsi10k_like_library()
    adder = ripple_adder(N, lib)
    result = mask_circuit(adder, lib, max_support=10)
    return adder, result


def test_cout_is_the_critical_output(setup):
    adder, result = setup
    assert tuple(result.masking.outputs) == ("cout",)


def test_spcf_contains_all_full_propagate_patterns(setup):
    adder, result = setup
    sigma = result.masking.spcf.union
    for bits in itertools.product([False, True], repeat=N):
        v = {f"a{i}": bits[i] for i in range(N)}
        v.update({f"b{i}": not bits[i] for i in range(N)})
        v["cin"] = True
        assert sigma.evaluate(v), v


def test_spcf_excludes_killed_carries(setup):
    adder, result = setup
    sigma = result.masking.spcf.union
    # a = b = 0: every carry is killed at bit 0..N-1's generate/propagate
    v = {f"a{i}": False for i in range(N)}
    v.update({f"b{i}": False for i in range(N)})
    v["cin"] = False
    assert not sigma.evaluate(v)


def test_aged_chain_fully_masked(setup):
    adder, result = setup
    design = result.design
    clock = design.clock_period
    chain = speed_path_gates(adder) & set(adder.gates)
    scale = 1.106  # just inside the 1/0.9 protection budget
    aged = design.circuit.with_delay_scales({g: scale for g in chain})
    raw_aged = adder.with_delay_scales({g: scale for g in chain})

    pairs = []
    for bits in itertools.product([False, True], repeat=N):
        v2 = {f"a{i}": bits[i] for i in range(N)}
        v2.update({f"b{i}": not bits[i] for i in range(N)})
        v2["cin"] = True
        for launch in ("cin", "a0"):
            v1 = dict(v2)
            v1[launch] = not v1[launch]
            pairs.append((v1, v2))
    compiled = compile_circuit(raw_aged)
    v1_words, width = patterns_to_words(compiled, [a for a, _ in pairs])
    v2_words, _ = patterns_to_words(compiled, [b for _, b in pairs])
    want = dict.fromkeys(adder.outputs, 0)
    for k, (_, v2) in enumerate(pairs):
        for y, bit in ripple_adder_reference(N, v2).items():
            want[y] |= bit << k

    # An output still switching after the clock edge is an error even when
    # its sampled value happens to be right.
    raw_clock = adder_clock(adder)
    raw = sample_clocks(
        raw_aged, v1_words, v2_words, width, [raw_clock], adder.outputs
    )[raw_clock]
    assert any(raw.unsettled.values()), (
        "aging must actually break the unprotected adder"
    )
    masked = sample_clocks(
        aged, v1_words, v2_words, width, [clock], design.output_map.values()
    )[clock]
    for y, net in design.output_map.items():
        assert masked.values[net] == want[y], y
        assert masked.unsettled[net] == 0, y


def adder_clock(adder):
    return analyze(adder, target=0).critical_delay
