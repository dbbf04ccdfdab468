"""Protecting a ripple-carry adder's carry chain.

The longest paths of a ripple adder run through the carry chain, and they
are exercised only by carry-propagating operand patterns — a textbook
speed-path scenario (and the reason carry-skip/carry-select adders exist).
Instead of redesigning the adder, this example deploys the paper's
error-masking circuit on it:

* the SPCF identifies exactly the carry-propagating patterns,
* the masking circuit predicts the top sum bits and carry-out for those
  patterns from a shallow (carry-lookahead-like) prediction network,
* the output muxes keep every result correct even when the carry chain is
  slowed past the clock (aging / overclocking).

Run with::

    python examples/adder_protection.py
"""

import itertools

from repro import lsi10k_like_library, mask_circuit
from repro.benchcircuits.handmade import ripple_adder, ripple_adder_reference
from repro.engine import compile_circuit, patterns_to_words
from repro.sim import exhaustive_patterns, sample_clocks, speed_path_gates
from repro.sta import analyze

N = 4


def main() -> None:
    library = lsi10k_like_library()
    adder = ripple_adder(N, library)
    report = analyze(adder)
    print(f"{N}-bit ripple adder: {adder.num_gates} gates, "
          f"critical delay {report.critical_delay}, "
          f"critical outputs {report.critical_outputs(adder)}")

    result = mask_circuit(adder, library, max_support=10)
    r = result.report
    print(f"masking: {result.masking.masking_circuit.num_gates} gates, "
          f"slack {r.slack_percent:.1f}%, area +{r.area_overhead_percent:.1f}%, "
          f"coverage {r.coverage_percent:.0f}%, sound={r.sound}")
    print(f"SPCF: {r.critical_minterms} carry-propagating patterns "
          f"of {2 ** len(adder.inputs)}")

    # Slow the carry chain just past the clock and check every operand pair
    # that matters: the masked design never produces a wrong sum.  The
    # masking protects the top-10% delay band and the clock absorbs the
    # output-mux delay, so the guaranteed-safe slowdown is 1/0.9 = 1.11x;
    # we stress slightly below that.
    design = result.design
    clock = design.clock_period
    safe_scale = 1.0 / 0.9
    chain = speed_path_gates(adder) & set(adder.gates)
    # Integer pin delays quantize aging; search for a scale inside the
    # budget whose rounded delays actually push the carry chain past the
    # clock (so raw timing errors are observable).
    scale = None
    for step in range(20, 1, -1):
        cand = round(1.0 + (safe_scale - 1.0) * step / 21, 4)
        aged_delta = analyze(
            adder.with_delay_scales({g: cand for g in chain}), target=0
        ).critical_delay
        if aged_delta + design.mux_delay > clock:
            scale = cand
            break
    assert scale is not None, "band too narrow to quantize on this library"
    print(f"aging speed-path gates by {scale:.3f}x "
          f"(protection budget {safe_scale:.3f}x)")
    slow = {g: scale for g in chain}
    aged = design.circuit.with_delay_scales(slow)
    raw_aged = adder.with_delay_scales(slow)

    # Drive every carry-propagating pattern (the SPCF, enumerated exactly)
    # plus a random sample of ordinary operands.
    sigma = result.masking.spcf.union
    activating = []
    for cube in sigma.cubes():
        base = dict.fromkeys(adder.inputs, False)
        base.update(cube)
        activating.append(base)
    # A two-vector test launches a transition down the whole carry chain:
    # v2 sets every propagate bit (a_i != b_i) and v1 differs only in cin,
    # so cin's edge ripples through all N stages — the textbook worst case.
    pairs = []
    for bits in itertools.product([False, True], repeat=N):
        v2 = {f"a{i}": bits[i] for i in range(N)}
        v2.update({f"b{i}": not bits[i] for i in range(N)})
        v2["cin"] = True
        for launch in ("cin", "a0"):
            v1 = dict(v2)
            v1[launch] = not v1[launch]
            pairs.append((v1, v2))
        assert sigma.evaluate(v2), "propagate patterns must be in the SPCF"
    for v2 in activating:
        v1 = dict(v2)
        v1["cin"] = not v1["cin"]
        pairs.append((v1, v2))
    pats = list(exhaustive_patterns(adder.inputs))
    pairs.extend(zip(pats[::7], pats[1::7]))
    # Sample every pair at once: bit k of each word is pair k.
    raw_cc = compile_circuit(raw_aged)
    v1, width = patterns_to_words(raw_cc, [a for a, _ in pairs])
    v2, _ = patterns_to_words(raw_cc, [b for _, b in pairs])
    want = dict.fromkeys(adder.outputs, 0)
    for k, (_, b) in enumerate(pairs):
        for y, bit in ripple_adder_reference(N, b).items():
            want[y] |= bit << k
    # Conservative sampling: a net still switching at the clock edge is an
    # error even if the instantaneous value is accidentally right.
    clock_raw = report.critical_delay  # the unprotected design's own period
    raw = sample_clocks(raw_aged, v1, v2, width, [clock_raw], adder.outputs)
    late = 0
    for word in raw[clock_raw].unsettled.values():
        late |= word  # pairs with any output still switching
    raw_errors = late.bit_count()
    nets = list(design.output_map.values())
    masked = sample_clocks(aged, v1, v2, width, [clock], nets)[clock]
    residual = sum(
        (masked.values[net] ^ want[y] | masked.unsettled[net]).bit_count()
        for y, net in design.output_map.items()
    )
    print(f"\naged carry chain: {width} sampled operand pairs, "
          f"{raw_errors} raw timing errors, {residual} errors after masking")
    assert residual == 0


if __name__ == "__main__":
    main()
