"""Deterministic execution of one campaign shard.

:func:`run_shard` is a *pure function* of its :class:`ShardSpec`: every
random choice (vector pairs, struck nets, perturbed arcs) comes from one
``random.Random`` seeded with the shard's SHA-derived seed, so a retry, a
different worker, or a resumed campaign reproduces bit-identical counts.

The measurement itself is the paper's question asked under adversity: with
a failure mode injected into the design, how many output errors reach the
sampling flops *before* the masking mux patch, and how many survive *after*
it?  Timing modes (``delay``, ``aging``, ``clock``) sample two-vector
waveforms at the clock edge; value modes (``seu``, ``stuck``) compare
zero-delay evaluations against the fault-free reference.
"""

from __future__ import annotations

import random
from collections import OrderedDict

from repro.benchcircuits import circuit_by_name
from repro.campaign.spec import SCHEMA_VERSION, ShardSpec
from repro.core.integrate import MaskedDesign, build_masked_design
from repro.core.masking import synthesize_masking
from repro.engine import CompiledCircuit, compile_circuit
from repro.errors import CampaignError, ReproError
from repro.netlist import builtin_library
from repro.netlist.circuit import Circuit
from repro.sim.aging import aging_model, speed_path_gates
from repro.sim.eventsim import two_vector_waveforms
from repro.sim.faults import eval_with_faults

#: Most distinct masked designs :data:`_design_cache` holds at once.
DESIGN_CACHE_SIZE = 16

#: Per-process LRU cache of synthesized masked designs, keyed by the shard
#: fields that determine the synthesis.  Persistent pool and queue workers
#: run many shards per process for a whole campaign, so the cache is
#: bounded: the least recently used design is evicted first.
_design_cache: OrderedDict[tuple, tuple[Circuit, MaskedDesign]] = OrderedDict()


def _masked_design(shard: ShardSpec) -> tuple[Circuit, MaskedDesign]:
    key = (shard.circuit, shard.library, shard.threshold)
    cached = _design_cache.get(key)
    if cached is not None:
        _design_cache.move_to_end(key)
        return cached
    library = builtin_library(shard.library)
    circuit = circuit_by_name(shard.circuit, library)
    masking = synthesize_masking(circuit, library, threshold=shard.threshold)
    cached = (circuit, build_masked_design(masking))
    _design_cache[key] = cached
    if len(_design_cache) > DESIGN_CACHE_SIZE:
        _design_cache.popitem(last=False)
    return cached


def _rng_pattern(rng: random.Random, inputs) -> dict[str, bool]:
    return {net: bool(rng.getrandbits(1)) for net in inputs}


def _delay_scales(
    shard: ShardSpec, circuit: Circuit, rng: random.Random
) -> dict[str, float]:
    """Gate -> delay-scale map for the shard's timing fault, {} for none."""
    mode = shard.mode
    kind = mode["kind"]
    if kind == "clock":
        return {}
    if kind == "delay":
        scale = float(mode["scale"])
        pool = sorted(speed_path_gates(circuit, threshold=shard.threshold))
        if not pool:
            return {}
        count = min(int(mode["arcs"]), len(pool))
        return {g: scale for g in rng.sample(pool, count)}
    # aging: every speed-path gate drifts by the model's scale at time t.
    model = aging_model(mode["model"], rate=float(mode["rate"]))
    scale = model.scale_at(float(mode["t"]))
    pool = speed_path_gates(circuit, threshold=shard.threshold)
    return {g: scale for g in pool}


def _timing_shard(
    shard: ShardSpec,
    circuit: Circuit,
    design: MaskedDesign,
    rng: random.Random,
) -> tuple[dict[str, dict[str, int]], int, int, dict]:
    """delay/aging/clock: sample faulty waveforms at the clock edge."""
    compiled_good = compile_circuit(circuit)
    delta = compiled_good.critical_delay()
    if shard.mode["kind"] == "clock":
        fraction = float(shard.mode["fraction"])
    else:
        fraction = shard.clock_fraction
    clock = int(fraction * delta)
    masked_clock = clock + design.mux_delay

    scales = _delay_scales(shard, circuit, rng)
    faulty: CompiledCircuit = (
        compiled_good.with_delay_scales(scales) if scales else compiled_good
    )
    compiled_masked = compile_circuit(design.circuit)
    faulty_masked: CompiledCircuit = (
        compiled_masked.with_delay_scales(scales) if scales else compiled_masked
    )

    counts = {y: {"unmasked": 0, "masked": 0, "recovered": 0, "introduced": 0}
              for y in circuit.outputs}
    pairs_unmasked = pairs_masked = 0
    for _ in range(shard.vectors):
        v1 = _rng_pattern(rng, circuit.inputs)
        v2 = _rng_pattern(rng, circuit.inputs)
        reference = compiled_good.eval_pattern(v2)
        ref = dict(zip(compiled_good.net_names, reference))
        waves = two_vector_waveforms(faulty, v1, v2)
        masked_waves = two_vector_waveforms(faulty_masked, v1, v2)
        any_un = any_mk = False
        for y in circuit.outputs:
            good = bool(ref[y])
            unmasked_err = waves[y].value_at(clock) != good
            masked_err = (
                masked_waves[design.output_map[y]].value_at(masked_clock) != good
            )
            _tally(counts[y], unmasked_err, masked_err)
            any_un = any_un or unmasked_err
            any_mk = any_mk or masked_err
        pairs_unmasked += any_un
        pairs_masked += any_mk
    detail = {"clock": clock, "masked_clock": masked_clock,
              "scaled_gates": sorted(scales)}
    return counts, pairs_unmasked, pairs_masked, detail


def _value_shard(
    shard: ShardSpec,
    circuit: Circuit,
    design: MaskedDesign,
    rng: random.Random,
) -> tuple[dict[str, dict[str, int]], int, int, dict]:
    """seu/stuck: zero-delay evaluation with injected net faults."""
    kind = shard.mode["kind"]
    gate_pool = sorted(circuit.gates)
    if not gate_pool:
        raise CampaignError(f"circuit {shard.circuit!r} has no gates to fault")
    stuck: dict[str, bool] = {}
    if kind == "stuck":
        stuck = {rng.choice(gate_pool): bool(rng.getrandbits(1))}
    flips_per_vector = int(shard.mode.get("flips", 1)) if kind == "seu" else 0

    compiled_good = compile_circuit(circuit)
    counts = {y: {"unmasked": 0, "masked": 0, "recovered": 0, "introduced": 0}
              for y in circuit.outputs}
    pairs_unmasked = pairs_masked = 0
    for _ in range(shard.vectors):
        pattern = _rng_pattern(rng, circuit.inputs)
        flips = (
            rng.sample(gate_pool, min(flips_per_vector, len(gate_pool)))
            if flips_per_vector
            else ()
        )
        ref = dict(zip(compiled_good.net_names, compiled_good.eval_pattern(pattern)))
        faulty = eval_with_faults(circuit, pattern, flips=flips, stuck=stuck)
        faulty_masked = eval_with_faults(
            design.circuit, pattern, flips=flips, stuck=stuck
        )
        any_un = any_mk = False
        for y in circuit.outputs:
            good = bool(ref[y])
            unmasked_err = faulty[y] != good
            masked_err = faulty_masked[design.output_map[y]] != good
            _tally(counts[y], unmasked_err, masked_err)
            any_un = any_un or unmasked_err
            any_mk = any_mk or masked_err
        pairs_unmasked += any_un
        pairs_masked += any_mk
    detail = {"stuck": {n: int(v) for n, v in stuck.items()}} if stuck else {}
    return counts, pairs_unmasked, pairs_masked, detail


def _tally(row: dict[str, int], unmasked_err: bool, masked_err: bool) -> None:
    row["unmasked"] += unmasked_err
    row["masked"] += masked_err
    row["recovered"] += unmasked_err and not masked_err
    row["introduced"] += masked_err and not unmasked_err


def run_shard(shard: ShardSpec) -> dict:
    """Execute one shard and return its JSON-serializable result record.

    ``vectors == 0`` is a legal empty batch: the result is well-formed with
    all counts zero (the aggregator treats it like any other shard).
    """
    try:
        circuit, design = _masked_design(shard)
    except ReproError as exc:
        raise CampaignError(
            f"shard {shard.index}: cannot build masked design for "
            f"{shard.circuit!r}: {exc}"
        ) from exc
    rng = random.Random(shard.seed)
    if shard.mode["kind"] in ("delay", "aging", "clock"):
        counts, pairs_un, pairs_mk, detail = _timing_shard(
            shard, circuit, design, rng
        )
    else:
        counts, pairs_un, pairs_mk, detail = _value_shard(
            shard, circuit, design, rng
        )
    return {
        "schema": SCHEMA_VERSION,
        "shard": shard.index,
        "circuit": shard.circuit,
        "mode": dict(shard.mode),
        "mode_key": shard.mode_key,
        "vectors": shard.vectors,
        "pairs_unmasked_errors": pairs_un,
        "pairs_masked_errors": pairs_mk,
        "outputs": {y: dict(counts[y]) for y in sorted(counts)},
        "detail": detail,
    }
