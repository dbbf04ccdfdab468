"""Deterministic execution of one campaign shard.

:func:`run_shard` is a *pure function* of its :class:`ShardSpec`: every
random choice (vector pairs, struck nets, perturbed arcs) comes from one
``random.Random`` seeded with the shard's SHA-derived seed, so a retry, a
different worker, or a resumed campaign reproduces bit-identical counts.

The measurement itself is the paper's question asked under adversity: with
a failure mode injected into the design, how many output errors reach the
sampling flops *before* the masking mux patch, and how many survive *after*
it?  A shard draws all its vector pairs first, in a fixed RNG order, and
packs them into Python-int words (bit ``k`` is pair ``k``), so each mode
evaluates the whole shard in one word-parallel pass.  Timing modes
(``delay``, ``aging``, ``clock``) sample the pure-delay value of every
output at the clock edge (:func:`repro.sim.eventsim.sample_words`); value
modes (``seu``, ``stuck``) compare zero-delay evaluations with injected
faults against the fault-free reference.
"""

from __future__ import annotations

import random

from repro.benchcircuits import circuit_by_name
from repro.campaign.spec import SCHEMA_VERSION, ShardSpec
from repro.core.integrate import MaskedDesign, build_masked_design
from repro.core.masking import synthesize_masking
from repro.engine import CompiledCircuit, compile_circuit, patterns_to_words
from repro.errors import CampaignError, ReproError
from repro.lru import LRUCache
from repro.netlist import builtin_library
from repro.netlist.circuit import Circuit
from repro.sim.aging import aging_model, speed_path_gates
from repro.sim.eventsim import sample_words
from repro.sim.faults import eval_words_with_faults

# Bound here for the e2e benchmark's per-layer tracer, which patches them.
from repro.sim.eventsim import two_vector_waveforms  # noqa: F401
from repro.sim.faults import eval_with_faults  # noqa: F401

#: Most distinct masked designs :data:`_design_cache` holds at once.
DESIGN_CACHE_SIZE = 16

#: Per-process LRU cache of synthesized masked designs, keyed by the shard
#: fields that determine the synthesis.  Persistent process-pool workers
#: run many shards per process for a whole campaign, so the cache is
#: bounded: the least recently used design is evicted first.
_design_cache: LRUCache[tuple[Circuit, MaskedDesign]] = LRUCache(DESIGN_CACHE_SIZE)


def _masked_design(shard: ShardSpec) -> tuple[Circuit, MaskedDesign]:
    key = (shard.circuit, shard.library, shard.threshold)
    cached = _design_cache.get(key)
    if cached is not None:
        return cached
    library = builtin_library(shard.library)
    circuit = circuit_by_name(shard.circuit, library)
    masking = synthesize_masking(circuit, library, threshold=shard.threshold)
    cached = (circuit, build_masked_design(masking))
    _design_cache.put(key, cached)
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


def _count_errors(
    outputs: tuple[str, ...],
    reference: dict[str, int],
    unmasked: list[int],
    masked: list[int],
) -> tuple[dict[str, dict[str, int]], int, int]:
    """Per-output error counts and erroneous-pair counts of a packed shard.

    ``reference`` holds the fault-free words by net; ``unmasked`` and
    ``masked`` the observed words of ``outputs`` and of their masked
    counterparts, in output order.
    """
    counts = {}
    any_un = any_mk = 0
    for y, un_word, mk_word in zip(outputs, unmasked, masked):
        un = un_word ^ reference[y]
        mk = mk_word ^ reference[y]
        counts[y] = {
            "unmasked": un.bit_count(),
            "masked": mk.bit_count(),
            "recovered": (un & ~mk).bit_count(),
            "introduced": (mk & ~un).bit_count(),
        }
        any_un |= un
        any_mk |= mk
    return counts, any_un.bit_count(), any_mk.bit_count()


def _timing_shard(
    shard: ShardSpec,
    circuit: Circuit,
    design: MaskedDesign,
    rng: random.Random,
) -> tuple[dict[str, dict[str, int]], int, int, dict]:
    """delay/aging/clock: sample the faulty circuits at the clock edge."""
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

    firsts, seconds = [], []
    for _ in range(shard.vectors):
        firsts.append(_rng_pattern(rng, circuit.inputs))
        seconds.append(_rng_pattern(rng, circuit.inputs))
    # The masked design keeps the original's inputs in order, so one
    # packing serves both circuits.
    v1, width = patterns_to_words(compiled_good, firsts)
    v2, _ = patterns_to_words(compiled_good, seconds)
    reference = eval_words_with_faults(compiled_good, v2, width)
    unmasked = sample_words(faulty, v1, v2, width, clock, circuit.outputs)
    masked = sample_words(
        faulty_masked, v1, v2, width, masked_clock,
        [design.output_map[y] for y in circuit.outputs],
    )
    counts, pairs_unmasked, pairs_masked = _count_errors(
        circuit.outputs, reference, unmasked, masked
    )
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

    patterns = []
    flips: dict[str, int] = {}
    for k in range(shard.vectors):
        patterns.append(_rng_pattern(rng, circuit.inputs))
        if flips_per_vector:
            for net in rng.sample(gate_pool, min(flips_per_vector, len(gate_pool))):
                flips[net] = flips.get(net, 0) | 1 << k

    compiled_good = compile_circuit(circuit)
    compiled_masked = compile_circuit(design.circuit)
    words, width = patterns_to_words(compiled_good, patterns)
    reference = eval_words_with_faults(compiled_good, words, width)
    faulty = eval_words_with_faults(
        compiled_good, words, width, flips=flips, stuck=stuck
    )
    faulty_masked = eval_words_with_faults(
        compiled_masked, words, width, flips=flips, stuck=stuck
    )
    counts, pairs_unmasked, pairs_masked = _count_errors(
        circuit.outputs,
        reference,
        [faulty[y] for y in circuit.outputs],
        [faulty_masked[design.output_map[y]] for y in circuit.outputs],
    )
    detail = {"stuck": {n: int(v) for n, v in stuck.items()}} if stuck else {}
    return counts, pairs_unmasked, pairs_masked, detail


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
