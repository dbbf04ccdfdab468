"""The pre-certification driver: classify every obligation, with evidence.

:func:`precertify` runs three abstract domains over the compiled IR — the
arrival-interval and min-stable fixpoints (shared with STA and audited by
ABS007) and the all-X Kleene ternary domain — then replays a small budget of
two-vector transitions through the event simulator to *refute* top-level
on-time hopes with concrete witnesses.  The result is a
:class:`~repro.analysis.precert.certificate.CertificateSet` covering every
``(node, t)`` obligation of the requested ``(output, target)`` SPCF queries,
ready to be consulted by all three SPCF algorithms and audited by ABS009.

No BDD is ever built here: the pass is integer walks, one word-parallel
ternary evaluation, and at most ``refute_budget`` event-simulator replays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import obs
from repro.analysis.absint.ternary import X, pack_classes
from repro.analysis.precert.certificate import (
    Certificate,
    CertificateSet,
    circuit_fingerprint,
)
from repro.analysis.precert.obligations import enumerate_obligations
from repro.engine import CompiledCircuit, compile_circuit
from repro.errors import PrecertError
from repro.netlist.circuit import Circuit
from repro.sim.eventsim import two_vector_waveforms
from repro.sta.timing import threshold_target

TRACER = obs.get_tracer("precert")


@dataclass(frozen=True)
class PrecertConfig:
    """Tunables for one pre-certification run.

    ``refute_budget`` bounds the event-simulator replays shared across all
    refutable outputs (0 disables refutation: undecided top-level
    obligations stay ``required``).
    """

    refute_budget: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.refute_budget < 0:
            raise PrecertError(
                f"refute_budget must be >= 0, got {self.refute_budget}"
            )


def _constant_certificates(
    compiled: CompiledCircuit,
) -> dict[tuple[str, int | None], Certificate]:
    """Nets whose global function is constant, proved by one all-X pass.

    Evaluating the single all-X transition class word-parallel gives every
    net a Kleene value; a *definite* value under all-X inputs is, by Kleene
    monotonicity, the net's value under every binary refinement — a proof
    that the global function is constant.  (Primary inputs are X by
    definition and gates only below them can resolve.)
    """
    out: dict[tuple[str, int | None], Certificate] = {}
    if compiled.n_inputs == 0:
        return out
    hi, lo = pack_classes(compiled, [(X,) * compiled.n_inputs])
    for idx in range(compiled.n_inputs, compiled.n_nets):
        if hi[idx] & lo[idx] & 1:
            continue  # X: not constant
        name = compiled.net_names[idx]
        out[(name, None)] = Certificate(
            node=name,
            time=None,
            verdict="discharged",
            domain="ternary-allx",
            facts={"kind": "constant", "value": bool(hi[idx] & 1)},
        )
    return out


def _refute(
    compiled: CompiledCircuit,
    roots: list[tuple[str, int]],
    config: PrecertConfig,
) -> dict[tuple[str, int], Certificate]:
    """Concrete late-settling witnesses for top-level obligations.

    Replays ``refute_budget`` seeded random two-vector transitions; a
    waveform of output ``y`` settling at ``s > t`` proves the final vector
    lies in the exact late set (a pure-delay settle time lower-bounds the
    floating-mode stabilization time), refuting the hope that ``(y, t)``
    could be discharged.  Replays are shared across every undecided root:
    one waveform evaluation serves all outputs.
    """
    found: dict[tuple[str, int], Certificate] = {}
    if not roots or config.refute_budget == 0 or compiled.n_inputs == 0:
        return found
    rng = random.Random(config.seed)
    inputs = compiled.inputs
    pending = set(roots)
    for _ in range(config.refute_budget):
        if not pending:
            break
        v1 = tuple(rng.randint(0, 1) for _ in inputs)
        v2 = tuple(rng.randint(0, 1) for _ in inputs)
        waves = two_vector_waveforms(
            compiled,
            dict(zip(inputs, map(bool, v1))),
            dict(zip(inputs, map(bool, v2))),
        )
        for key in sorted(pending):
            node, t = key
            wave = waves[node]
            if wave.settle_time > t:
                found[key] = Certificate(
                    node=node,
                    time=t,
                    verdict="refuted",
                    domain="event-sim",
                    facts={
                        "kind": "refuted",
                        "v1": list(v1),
                        "v2": list(v2),
                        "settle_time": wave.settle_time,
                        "transitions": wave.num_transitions,
                    },
                )
        pending -= set(found)
    return found


def resolve_targets(
    compiled: CompiledCircuit,
    targets: Sequence[int] | None,
    threshold: float,
) -> tuple[int, ...]:
    """The sorted, deduplicated target list of a (multi-root) query."""
    if targets is None:
        resolved: tuple[int, ...] = (
            threshold_target(compiled.critical_delay(), threshold),
        )
    else:
        resolved = tuple(sorted({int(t) for t in targets}))
    if not resolved:
        raise PrecertError("precertify needs at least one target")
    return resolved


def precertify(
    circuit: Circuit | CompiledCircuit,
    targets: Sequence[int] | None = None,
    threshold: float = 0.9,
    config: PrecertConfig | None = None,
    tighten: Mapping[str, int] | None = None,
) -> CertificateSet:
    """Pre-certify every obligation of the ``(output, target)`` SPCF queries.

    ``targets`` lists the absolute target arrival times to cover (a
    multi-threshold sweep shares one set); when ``None`` the single paper
    target ``floor(threshold * Delta)`` is used.

    ``tighten`` maps net names to *true-arrival* upper bounds proved by the
    false-path analysis (:func:`repro.analysis.paths.tightened_arrivals`):
    every pattern of ``net`` has stabilized by ``tighten[net]`` even though
    the structural arrival is later.  An obligation ``(net, t)`` with
    ``t >= tighten[net]`` that would otherwise stay ``required`` is
    discharged under the ``true-arrival`` domain with the same ``on-time``
    fact shape, so the SPCF shortcut (and the ABS009 audit) treat it
    exactly like an arrival-interval discharge.  Tightening never overrides
    a refuted or already-discharged verdict.
    """
    cfg = config or PrecertConfig()
    compiled = compile_circuit(circuit)
    resolved = resolve_targets(compiled, targets, threshold)
    with TRACER.span(
        "precert.run", circuit=compiled.name, targets=len(resolved)
    ) as span:
        arrival = compiled.arrival()
        min_stable = compiled.min_stable()
        certs = _constant_certificates(compiled)
        roots = [(y, t) for t in resolved for y in compiled.outputs]
        obligations = enumerate_obligations(
            compiled, roots, arrival, min_stable
        )
        root_keys = set(roots)
        undecided = [
            key
            for key, ob in sorted(obligations.items())
            if ob.kind == "required" and key in root_keys
        ]
        refuted = _refute(compiled, undecided, cfg)
        net_index = compiled.net_index
        for key, ob in obligations.items():
            if key in refuted:
                certs[key] = refuted[key]
            elif ob.kind == "on-time":
                certs[key] = Certificate(
                    node=ob.node,
                    time=ob.time,
                    verdict="discharged",
                    domain="arrival-interval",
                    facts={
                        "kind": "on-time",
                        "arrival": arrival[net_index[ob.node]],
                    },
                )
            elif ob.kind == "all-late":
                certs[key] = Certificate(
                    node=ob.node,
                    time=ob.time,
                    verdict="discharged",
                    domain="min-stable",
                    facts={
                        "kind": "all-late",
                        "min_stable": min_stable[net_index[ob.node]],
                    },
                )
            elif (
                tighten is not None
                and ob.node in tighten
                and ob.time >= tighten[ob.node]
            ):
                certs[key] = Certificate(
                    node=ob.node,
                    time=ob.time,
                    verdict="discharged",
                    domain="true-arrival",
                    facts={
                        "kind": "on-time",
                        "arrival": tighten[ob.node],
                    },
                )
            else:
                certs[key] = Certificate(
                    node=ob.node,
                    time=ob.time,
                    verdict="required",
                    domain="none",
                    facts={"kind": "required"},
                )
        result = CertificateSet(
            circuit_name=compiled.name,
            circuit_fp=circuit_fingerprint(compiled),
            targets=resolved,
            certificates=certs,
        )
        if obs.get_meter().enabled:
            from repro.spcf import _obs as spcf_obs

            counts = result.counts()
            for verdict, n in counts.items():
                if n:
                    spcf_obs.OBLIGATIONS.add(n, verdict=verdict)
            span.set(
                obligations=len(result),
                discharged=counts["discharged"],
                refuted=counts["refuted"],
                required=counts["required"],
            )
    return result


__all__ = ["PrecertConfig", "precertify", "resolve_targets"]
