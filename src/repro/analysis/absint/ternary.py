"""Word-parallel Kleene ternary hazard / X-propagation analysis.

A *transition class* abstracts a two-vector transition at the clock edge:
each primary input is assigned ``0`` (stays low), ``1`` (stays high), or
``X`` (changes, or is unknown).  Evaluating the class through the dual-rail
Kleene evaluator (:func:`~repro.engine.eval_ternary_words`) gives, per
net, either a definite value or X — this is Eichelberger's classic ternary
hazard test run word-parallel, thousands of classes per call.

Soundness (the "no false negatives" half of the contract): compositional
Kleene evaluation over each cell's expression tree over-approximates the
natural ternary extension, and by induction over the levelized IR a net
whose ternary value is definite has a *constant* pure-delay waveform for
every vector pair drawn from the class — so any glitch the event simulator
can exhibit implies X here, and a ``SAFE`` verdict is a proof of
hazard-freedom under arbitrary delays.

Completeness is recovered by *replay* (the other half): an X output is only
a candidate; the analysis enumerates binary completions of the class
word-parallel, picks vector pairs, and replays them through
:func:`repro.sim.eventsim.two_vector_waveforms`.  Only a pair whose
waveform actually glitches (>= 2 transitions) becomes a
:class:`HazardWitness` — every reported hazard is an event-simulator
counterexample, not a may-warning.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.engine import (
    CompiledCircuit,
    compile_circuit,
    eval_ternary_words,
    eval_words,
)
from repro.errors import AbsintError
from repro.netlist.circuit import Circuit
from repro.sim.eventsim import two_vector_waveforms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.analysis.absint.passes import AbsintConfig

#: The "changing / unknown" input value of a transition class.
X = 2

#: A transition class: one of 0, 1, X per primary input (engine order).
TransitionClass = tuple[int, ...]


@dataclass(frozen=True)
class HazardWitness:
    """One replayed hazard: a vector pair whose output waveform glitches."""

    output: str
    v1: tuple[int, ...]  #: initial input bits, engine order
    v2: tuple[int, ...]  #: final input bits, engine order
    kind: str  #: ``static-0`` | ``static-1`` | ``dynamic``
    num_transitions: int
    settle_time: int

    def to_data(self) -> dict:
        """JSON-ready evidence payload for a diagnostic."""
        return {
            "output": self.output,
            "v1": list(self.v1),
            "v2": list(self.v2),
            "kind": self.kind,
            "transitions": self.num_transitions,
            "settle_time": self.settle_time,
        }


@dataclass(frozen=True)
class OutputHazards:
    """Per-output verdict summary of one hazard analysis."""

    output: str
    x_classes: int  #: classes where the ternary value is X
    analyzed_classes: int  #: X classes that got a completion analysis
    confirmed: tuple[HazardWitness, ...]
    unconfirmed_classes: int  #: X classes left candidate (budget or clean replay)


@dataclass(frozen=True)
class HazardAnalysis:
    """Result of :func:`analyze_hazards` for one circuit."""

    circuit: str
    n_inputs: int
    n_classes: int
    exhaustive: bool
    per_output: Mapping[str, OutputHazards]
    replays: int
    safe_classes: dict[str, int] = field(default_factory=dict)

    @property
    def witnesses(self) -> tuple[HazardWitness, ...]:
        return tuple(
            w for oh in self.per_output.values() for w in oh.confirmed
        )


def enumerate_classes(
    n_inputs: int, config: "AbsintConfig"
) -> tuple[list[TransitionClass], bool]:
    """Transition classes to analyze; second value marks exhaustiveness.

    Exhaustive mode (``n_inputs <= config.exhaustive_inputs``) yields every
    class with at least one X input — the ``2**n`` all-binary classes are
    constant transitions and cannot glitch.  Above the cap, a seeded sample
    biased toward few-X classes (1–3 changing inputs, the regime where
    static hazards live) plus the all-X class.
    """
    if n_inputs == 0:
        return [], True
    if n_inputs <= config.exhaustive_inputs:
        classes = []
        for code in range(3**n_inputs):
            cls = []
            rest = code
            has_x = False
            for _ in range(n_inputs):
                rest, digit = divmod(rest, 3)
                cls.append(digit)
                has_x = has_x or digit == X
            if has_x:
                classes.append(tuple(cls))
        return classes, True
    rng = random.Random(config.seed)
    seen: set[TransitionClass] = set()
    classes = []
    all_x = (X,) * n_inputs
    seen.add(all_x)
    classes.append(all_x)
    attempts = 0
    while len(classes) < config.samples and attempts < 16 * config.samples:
        attempts += 1
        base = [rng.randint(0, 1) for _ in range(n_inputs)]
        for pos in rng.sample(range(n_inputs), rng.randint(1, 3)):
            base[pos] = X
        cls = tuple(base)
        if cls not in seen:
            seen.add(cls)
            classes.append(cls)
    return classes, False


def pack_classes(
    compiled: CompiledCircuit, classes: Sequence[TransitionClass]
) -> tuple[list[int], list[int]]:
    """Rail words of every net, one pattern bit per transition class."""
    width = len(classes)
    ones = [0] * compiled.n_inputs
    zeros = [0] * compiled.n_inputs
    for j, cls in enumerate(classes):
        if len(cls) != compiled.n_inputs:
            raise AbsintError(
                f"transition class of {len(cls)} values for "
                f"{compiled.n_inputs} inputs"
            )
        bit = 1 << j
        for i, v in enumerate(cls):
            if v in (1, X):
                ones[i] |= bit
            if v in (0, X):
                zeros[i] |= bit
            if v not in (0, 1, X):
                raise AbsintError(
                    f"transition class value {v!r} is not 0, 1, or X"
                )
    return eval_ternary_words(compiled, ones, zeros, width)


def ternary_class_values(
    circuit: Circuit | CompiledCircuit, cls: TransitionClass
) -> dict[str, int]:
    """Ternary value of every net for one class: ``0``, ``1``, or ``X``.

    The single-class convenience used by oracle tests and by the worked
    README example; bulk analysis goes through :func:`pack_classes`.
    """
    compiled = compile_circuit(circuit)
    hi, lo = pack_classes(compiled, [cls])
    out: dict[str, int] = {}
    for name, h, l in zip(compiled.net_names, hi, lo):
        out[name] = X if (h & l & 1) else (1 if h & 1 else 0)
    return out


def class_of_pair(
    v1: Sequence[int], v2: Sequence[int]
) -> TransitionClass:
    """The transition class abstracting the two-vector pair ``v1 -> v2``."""
    if len(v1) != len(v2):
        raise AbsintError(f"vector lengths differ: {len(v1)} vs {len(v2)}")
    return tuple(
        (1 if a else 0) if bool(a) == bool(b) else X
        for a, b in zip(v1, v2)
    )


def _completion_vector(
    cls: TransitionClass, x_positions: Sequence[int], code: int
) -> tuple[int, ...]:
    """Binary input vector: class values with X bits filled from ``code``."""
    v = list(cls)
    for m, pos in enumerate(x_positions):
        v[pos] = (code >> m) & 1
    return tuple(v)


def _completion_words(
    compiled: CompiledCircuit, cls: TransitionClass, x_positions: Sequence[int]
) -> list[int]:
    """Input words enumerating all ``2**k`` completions of the class."""
    k = len(x_positions)
    width = 1 << k
    mask = (1 << width) - 1
    words = []
    x_rank = {pos: m for m, pos in enumerate(x_positions)}
    for i, v in enumerate(cls):
        if v == X:
            m = x_rank[i]
            # Bit j of the word is bit m of completion code j.
            period = 1 << m
            block = (1 << period) - 1
            word = 0
            j = period
            while j < width:
                word |= block << j
                j += 2 * period
            words.append(word)
        else:
            words.append(mask if v else 0)
    return words


def _pairs_by_distance(codes: Sequence[int]) -> list[tuple[int, int]]:
    """All code pairs, farthest Hamming distance first (deterministic)."""
    pairs = [
        (codes[i], codes[j])
        for i in range(len(codes))
        for j in range(i + 1, len(codes))
    ]
    pairs.sort(key=lambda p: (-((p[0] ^ p[1]).bit_count()), p[0], p[1]))
    return pairs


def analyze_hazards(
    circuit: Circuit | CompiledCircuit, config: "AbsintConfig"
) -> HazardAnalysis:
    """Three-tier hazard verdicts for every primary output.

    Per (output, class): **SAFE** when the ternary value is definite (a
    proof of hazard-freedom), **confirmed** when a completion pair replays
    with a glitch in the event simulator (a :class:`HazardWitness`), and
    **unconfirmed candidate** otherwise (X output, but no glitching pair
    found within the replay budget — or none exists, as Kleene X
    over-approximates).
    """
    compiled = compile_circuit(circuit)
    classes, exhaustive = enumerate_classes(compiled.n_inputs, config)
    per_output: dict[str, OutputHazards] = {}
    safe_classes: dict[str, int] = {}
    if not classes:
        for name in compiled.outputs:
            per_output[name] = OutputHazards(name, 0, 0, (), 0)
            safe_classes[name] = 0
        return HazardAnalysis(
            compiled.name, compiled.n_inputs, 0, exhaustive, per_output, 0,
            safe_classes,
        )

    hi, lo = pack_classes(compiled, classes)
    replays = 0
    total_analyzed = 0  # completion analyses are whole-circuit evaluations,
    # so the cap is global — a 1000-output netlist must not do 1000x the work
    for out_idx, name in zip(compiled.output_index, compiled.outputs):
        x_word = hi[out_idx] & lo[out_idx]
        x_count = x_word.bit_count()
        safe_classes[name] = len(classes) - x_count
        witnesses: list[HazardWitness] = []
        analyzed = 0
        unconfirmed = 0
        confirmed_classes = 0
        j = 0
        word = x_word
        while word:
            if not (word & 1):
                word >>= 1
                j += 1
                continue
            word >>= 1
            cls = classes[j]
            j += 1
            if (
                total_analyzed >= config.max_candidate_classes
                or len(witnesses) >= config.max_witnesses_per_output
                or replays >= config.replay_budget
            ):
                unconfirmed += 1
                continue
            x_positions = [i for i, v in enumerate(cls) if v == X]
            k = len(x_positions)
            if k > config.max_completion_x:
                unconfirmed += 1
                continue
            analyzed += 1
            total_analyzed += 1
            out_word = eval_words(
                compiled, _completion_words(compiled, cls, x_positions), 1 << k
            )[out_idx]
            zeros_c = [c for c in range(1 << k) if not (out_word >> c) & 1]
            ones_c = [c for c in range(1 << k) if (out_word >> c) & 1]
            # Static pairs (same endpoints) first — the paper's hazard of
            # interest at the clock edge — then dynamic pairs.
            pair_pool = (
                [(a, b, "static-0") for a, b in _pairs_by_distance(zeros_c)]
                + [(a, b, "static-1") for a, b in _pairs_by_distance(ones_c)]
                + [
                    (a, b, "dynamic")
                    for a, b in _pairs_by_distance(
                        sorted(zeros_c) + sorted(ones_c)
                    )
                    if ((out_word >> a) & 1) != ((out_word >> b) & 1)
                ]
            )
            found = None
            for n_tried, (ca, cb, kind) in enumerate(pair_pool):
                if (
                    n_tried >= config.max_replays_per_class
                    or replays >= config.replay_budget
                ):
                    break
                v1 = _completion_vector(cls, x_positions, ca)
                v2 = _completion_vector(cls, x_positions, cb)
                waves = two_vector_waveforms(
                    compiled,
                    dict(zip(compiled.inputs, map(bool, v1))),
                    dict(zip(compiled.inputs, map(bool, v2))),
                )
                replays += 1
                wave = waves[name]
                if wave.num_transitions >= 2:
                    found = HazardWitness(
                        output=name,
                        v1=v1,
                        v2=v2,
                        kind=kind,
                        num_transitions=wave.num_transitions,
                        settle_time=wave.settle_time,
                    )
                    break
            if found is not None:
                witnesses.append(found)
                confirmed_classes += 1
            else:
                unconfirmed += 1
        per_output[name] = OutputHazards(
            output=name,
            x_classes=x_count,
            analyzed_classes=analyzed,
            confirmed=tuple(witnesses),
            unconfirmed_classes=unconfirmed,
        )
    return HazardAnalysis(
        circuit=compiled.name,
        n_inputs=compiled.n_inputs,
        n_classes=len(classes),
        exhaustive=exhaustive,
        per_output=per_output,
        replays=replays,
        safe_classes=safe_classes,
    )


def inject_x(
    circuit: Circuit | CompiledCircuit,
    net: str,
) -> dict[str, bool]:
    """X-observability of ``net``: can an unknown there reach each output?

    Drives every primary input with all ``2**n`` binary stimuli at once,
    forces the rails of ``net`` to X, and propagates dual-rail Kleene values
    through the plan.  Returns, per output, whether X is visible for *any*
    stimulus.  ``False`` for every output proves the net's value can never
    matter (redundant logic) — Kleene X-propagation over-approximates
    observability, so "unobservable" verdicts are sound while ``True`` may
    be a false alarm of the abstraction.
    """
    compiled = compile_circuit(circuit)
    idx = compiled.net_index.get(net)
    if idx is None:
        raise AbsintError(f"no net {net!r} in circuit {compiled.name!r}")
    n = compiled.n_inputs
    width = 1 << n
    mask = (1 << width) - 1
    hi = [0] * compiled.n_nets
    lo = [0] * compiled.n_nets
    for i in range(n):
        period = 1 << i
        word = 0
        j = period
        while j < width:
            word |= ((1 << period) - 1) << j
            j += 2 * period
        hi[i] = word
        lo[i] = mask ^ word
    if idx < n:
        hi[idx] = lo[idx] = mask
    for func, out, fanins in compiled.ternary_plan:
        args: list[int] = []
        for f in fanins:
            args.append(hi[f])
            args.append(lo[f])
        hi[out], lo[out] = func(mask, *args)
        if out == idx:
            hi[out] = lo[out] = mask
    return {
        name: bool(hi[i] & lo[i])
        for i, name in zip(compiled.output_index, compiled.outputs)
    }


__all__ = [
    "X",
    "TransitionClass",
    "HazardWitness",
    "OutputHazards",
    "HazardAnalysis",
    "enumerate_classes",
    "pack_classes",
    "ternary_class_values",
    "class_of_pair",
    "analyze_hazards",
    "inject_x",
]
