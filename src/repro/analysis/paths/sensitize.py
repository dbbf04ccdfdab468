"""The speed-path classification driver: FALSE / TRUE / UNRESOLVED.

:func:`analyze_paths` enumerates every structural speed-path (delay above
the target) and settles each one with the cheapest sufficient plane:

1. **ternary pre-filter** — the all-X constant scan blocks a segment's
   activation primes outright (no per-pattern work at all);
2. **exhaustive word plane** — for cones up to ``prefilter_max_inputs``
   primary inputs, one word-parallel sweep evaluates the sensitization
   and activation conjunctions over all ``2**n`` stimuli at once, deciding
   FALSE exactly and handing TRUE candidates their witness minterms;
3. **BDD plane** — exact at any width (up to ``bdd_max_inputs``), used
   only when the word plane is out of reach.

TRUE verdicts are never taken on faith from the static planes: a concrete
two-vector witness must *replay* through the event simulator with the
path's output settling after the target.  A statically sensitizable path
whose witnesses all settle on time within ``replay_budget`` stays
UNRESOLVED (with ``sensitizable: true`` recorded) — static sensitization
is necessary, not sufficient, for a late transition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.analysis.paths import _obs
from repro.analysis.paths.certificate import (
    PathCertificate,
    PathCertificateSet,
    circuit_fingerprint,
)
from repro.analysis.paths import conditions
from repro.bdd.isop import isop_function
from repro.engine import CompiledCircuit, compile_circuit
from repro.errors import PathsError
from repro.netlist.circuit import Circuit
from repro.sim.eventsim import two_vector_waveforms
from repro.spcf.timedfunc import SpcfContext
from repro.sta.paths import SpeedPath, enumerate_speed_paths
from repro.sta.timing import TimingReport, analyze


@dataclass(frozen=True)
class PathsConfig:
    """Tunables for one path-classification run.

    ``limit`` caps path enumeration (exceeding it raises, mirroring
    :func:`repro.sta.paths.enumerate_speed_paths` — an incomplete path set
    would make every per-output claim unsound).  ``prefilter_max_inputs`` bounds
    the exhaustive word plane (``2**n``-bit words), ``bdd_max_inputs`` the
    BDD fallback; cones beyond both stay UNRESOLVED.  ``replay_budget``
    bounds witness replays *per path*.
    """

    limit: int = 4096
    prefilter_max_inputs: int = 12
    bdd_max_inputs: int = 24
    replay_budget: int = 8

    def __post_init__(self) -> None:
        for name in (
            "limit",
            "prefilter_max_inputs",
            "bdd_max_inputs",
            "replay_budget",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise PathsError(
                    f"{name} must be a non-negative int, got {value!r}"
                )


@dataclass
class PathsAnalysis:
    """Everything one :func:`analyze_paths` run produced."""

    circuit: Circuit
    report: TimingReport
    certificates: PathCertificateSet
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def target(self) -> int:
        return self.certificates.target

    def counts(self) -> dict[str, int]:
        return self.certificates.counts()

    def false_paths(self) -> tuple[PathCertificate, ...]:
        return self.certificates.false_paths()

    def true_paths(self) -> tuple[PathCertificate, ...]:
        return self.certificates.true_paths()

    def unresolved_paths(self) -> tuple[PathCertificate, ...]:
        return self.certificates.unresolved_paths()

    def ranked_true_paths(self) -> tuple[PathCertificate, ...]:
        return self.certificates.ranked_true_paths()


# --------------------------------------------------------------- witnesses


def _replay_witness(
    compiled: CompiledCircuit,
    path: SpeedPath,
    v2: list[int],
    target: int,
) -> dict[str, Any] | None:
    """Try one two-vector witness; facts fragment on a late settle."""
    inputs = compiled.inputs
    start = inputs.index(path.start)
    v1 = list(v2)
    v1[start] ^= 1
    waves = two_vector_waveforms(
        compiled,
        dict(zip(inputs, map(bool, v1))),
        dict(zip(inputs, map(bool, v2))),
    )
    _obs.REPLAYS.add(1)
    wave = waves[path.end]
    if wave.settle_time <= target:
        return None
    return {
        "v1": v1,
        "v2": v2,
        "settle_time": wave.settle_time,
        "transitions": wave.num_transitions,
    }


def _word_candidates(
    cond_word: int, n_inputs: int, budget: int
) -> Iterator[list[int]]:
    """Witness vectors from the set bits of an exhaustive condition word."""
    emitted = 0
    j = 0
    word = cond_word
    while word and emitted < budget:
        if word & 1:
            yield conditions.minterm_to_vector(j, n_inputs)
            emitted += 1
        word >>= 1
        j += 1


def _bdd_candidates(
    ctx: SpcfContext, cond_conj: Any, budget: int
) -> Iterator[list[int]]:
    """Witness vectors from the cubes of a BDD condition conjunction.

    Each cube yields up to two completions of its unassigned inputs
    (all-False, then all-True) — cheap diversity without enumeration.
    """
    inputs = ctx.circuit.inputs
    emitted = 0
    for cube in cond_conj.cubes():
        for default in (False, True):
            if emitted >= budget:
                return
            yield [int(cube.get(name, default)) for name in inputs]
            emitted += 1


# ------------------------------------------------------------ classification


def _classify_path(
    path: SpeedPath,
    circuit: Circuit,
    compiled: CompiledCircuit,
    target: int,
    constants: dict[str, bool],
    words: tuple[list[int], int, int] | None,
    ctx_cell: list[SpcfContext | None],
    config: PathsConfig,
    stats: dict[str, int],
) -> tuple[str, dict[str, Any]]:
    """One path's ``(verdict, facts)`` (rank is assigned by the caller)."""
    # Plane 1: ternary constant blocking — proves act (hence cond) false.
    for gate, fanin in conditions.path_segments(path):
        blocking = conditions.ternary_blocked_segment(
            circuit, constants, gate, fanin
        )
        if blocking is not None:
            stats["prefilter_ternary"] += 1
            _obs.PREFILTER.add(1, method="ternary")
            return "false", {
                "kind": "false-path",
                "method": "ternary",
                "prunable": True,
                "segments": [
                    {"gate": gate, "fanin": fanin, "blocking": blocking}
                ],
            }

    # Plane 2: exhaustive word evaluation (complete for small cones).
    if words is not None:
        values, _width, mask = words
        cond_conj, act_conj, per_segment = conditions.path_conditions_words(
            compiled, values, mask, path, circuit
        )
        segments = [
            {
                "gate": gate,
                "fanin": fanin,
                "cond": format(cond, "x"),
                "act": format(act, "x"),
            }
            for (gate, fanin), cond, act in per_segment
        ]
        if cond_conj == 0:
            stats["prefilter_exhaustive"] += 1
            _obs.PREFILTER.add(1, method="exhaustive")
            return "false", {
                "kind": "false-path",
                "method": "exhaustive",
                "prunable": act_conj == 0,
                "segments": segments,
            }
        for v2 in _word_candidates(
            cond_conj, compiled.n_inputs, config.replay_budget
        ):
            stats["replays"] += 1
            witness = _replay_witness(compiled, path, v2, target)
            if witness is not None:
                stats["prefilter_exhaustive"] += 1
                _obs.PREFILTER.add(1, method="exhaustive")
                return "true", {
                    "kind": "true-path",
                    "method": "exhaustive",
                    **witness,
                }
        return "unresolved", {
            "kind": "unresolved",
            "reason": (
                "statically sensitizable but no witness replayed late "
                f"within the budget of {config.replay_budget}"
            ),
            "sensitizable": True,
        }

    # Plane 3: BDDs (exact at any width, bounded by bdd_max_inputs).
    if compiled.n_inputs > config.bdd_max_inputs:
        return "unresolved", {
            "kind": "unresolved",
            "reason": (
                f"cone has {compiled.n_inputs} inputs, beyond both the "
                f"word plane ({config.prefilter_max_inputs}) and the BDD "
                f"plane ({config.bdd_max_inputs})"
            ),
        }
    if ctx_cell[0] is None:
        ctx_cell[0] = SpcfContext(circuit, target=target)
    ctx = ctx_cell[0]
    stats["bdd_paths"] += 1
    cond_conj, act_conj, per_segment = conditions.path_conditions_bdd(
        ctx, path
    )
    if cond_conj.is_false:
        segments = [
            {
                "gate": gate,
                "fanin": fanin,
                "condition": isop_function(cond),
            }
            for (gate, fanin), cond, _act in per_segment
        ]
        return "false", {
            "kind": "false-path",
            "method": "bdd",
            "prunable": act_conj.is_false,
            "segments": segments,
        }
    for v2 in _bdd_candidates(ctx, cond_conj, config.replay_budget):
        stats["replays"] += 1
        witness = _replay_witness(compiled, path, v2, target)
        if witness is not None:
            return "true", {
                "kind": "true-path",
                "method": "bdd",
                **witness,
            }
    return "unresolved", {
        "kind": "unresolved",
        "reason": (
            "statically sensitizable but no witness replayed late "
            f"within the budget of {config.replay_budget}"
        ),
        "sensitizable": True,
    }


def analyze_paths(
    circuit: Circuit,
    threshold: float = 0.9,
    target: int | None = None,
    config: PathsConfig | None = None,
) -> PathsAnalysis:
    """Classify every speed-path of ``circuit`` with evidence.

    Every enumerated path receives exactly one certificate; the set covers
    the full over-target path population (enumeration past ``limit``
    raises instead of silently truncating, because a partial set would
    make any per-output claim drawn from it unsound).
    """
    cfg = config or PathsConfig()
    circuit.validate()
    compiled = compile_circuit(circuit)
    report = analyze(circuit, target=target, threshold=threshold)
    with _obs.TRACER.span(
        "paths.analyze", circuit=circuit.name, target=report.target
    ) as span:
        paths = enumerate_speed_paths(
            circuit, report=report, threshold=threshold, limit=cfg.limit
        )
        stats: dict[str, int] = {
            "paths": len(paths),
            "false": 0,
            "true": 0,
            "unresolved": 0,
            "prunable": 0,
            "prefilter_ternary": 0,
            "prefilter_exhaustive": 0,
            "bdd_paths": 0,
            "replays": 0,
        }
        constants = conditions.ternary_constant_nets(compiled)
        words = (
            conditions.net_value_words(compiled)
            if 0 < compiled.n_inputs <= cfg.prefilter_max_inputs
            else None
        )
        ctx_cell: list[SpcfContext | None] = [None]
        classified: list[tuple[SpeedPath, str, dict[str, Any]]] = []
        for path in paths:
            verdict, facts = _classify_path(
                path,
                circuit,
                compiled,
                report.target,
                constants,
                words,
                ctx_cell,
                cfg,
                stats,
            )
            stats[verdict] += 1
            if verdict == "false" and facts.get("prunable"):
                stats["prunable"] += 1
            _obs.CLASSIFIED.add(1, verdict=verdict)
            classified.append((path, verdict, facts))
        # Rank TRUE paths for masking: longest, then latest-settling first.
        ranked = sorted(
            (
                (path, facts)
                for path, verdict, facts in classified
                if verdict == "true"
            ),
            key=lambda pf: (
                -pf[0].delay,
                -int(pf[1]["settle_time"]),
                pf[0].nets,
            ),
        )
        for rank, (_path, facts) in enumerate(ranked, start=1):
            facts["rank"] = rank
        certs: dict[tuple[str, ...], PathCertificate] = {}
        for path, verdict, facts in classified:
            certs[path.nets] = PathCertificate(
                nets=path.nets,
                delay=path.delay,
                target=report.target,
                verdict=verdict,
                facts=facts,
            )
        certset = PathCertificateSet(
            circuit_name=circuit.name,
            circuit_fp=circuit_fingerprint(compiled),
            threshold=threshold,
            target=report.target,
            certificates=certs,
        )
        span.set(
            paths=stats["paths"],
            false=stats["false"],
            true=stats["true"],
            unresolved=stats["unresolved"],
        )
    return PathsAnalysis(
        circuit=circuit, report=report, certificates=certset, stats=stats
    )


__all__ = ["PathsConfig", "PathsAnalysis", "analyze_paths"]
