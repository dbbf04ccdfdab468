"""The independent auditor behind ABS013: re-derive, replay, or refuse.

Trust discipline: the auditor never *believes* a certificate.  It first
checks the set's circuit binding and every per-certificate fingerprint,
refusing anything tampered with a distinct ``tampered`` finding before any
semantic work.  Surviving
FALSE verdicts are then re-derived on a **fresh, certificate-free BDD
context** — whatever cheap plane (ternary, words) produced them, the audit
recomputes the sensitization conjunction (and the activation conjunction
for prunable claims) from nothing but the circuit and checks it
unsatisfiable; a ``bdd``-method certificate must additionally cite
per-segment covers equivalent to the re-derived conditions.  TRUE verdicts
must *replay*: the cited two-vector witness is pushed through the event
simulator and the path's output must settle after the certificate's own
(signed) target, at exactly the cited settle time, with the final vector
satisfying the re-derived sensitization conjunction.  UNRESOLVED
certificates make no claim and get no check.  Any surviving mismatch is a
``contradicted`` finding — evidence of a bug in the analyzer (or a forged
set), never something to paper over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.paths import conditions
from repro.analysis.paths.certificate import PathCertificate, PathCertificateSet
from repro.bdd.isop import cover_to_function
from repro.engine import compile_circuit
from repro.netlist.circuit import Circuit
from repro.sim.eventsim import two_vector_waveforms
from repro.spcf.timedfunc import SpcfContext


@dataclass(frozen=True)
class PathAuditFinding:
    """One refusal (``tampered``) or disagreement (``contradicted``)."""

    nets: tuple[str, ...]
    kind: str  # "tampered" | "contradicted"
    message: str
    data: dict[str, Any] = field(default_factory=dict)


def _contradiction(
    cert: PathCertificate, message: str, **data: Any
) -> PathAuditFinding:
    return PathAuditFinding(
        nets=cert.nets,
        kind="contradicted",
        message=message,
        data={"verdict": cert.verdict, "method": cert.method, **data},
    )


def _audit_false(
    ctx: SpcfContext, cert: PathCertificate
) -> list[PathAuditFinding]:
    route = "->".join(cert.nets)
    findings: list[PathAuditFinding] = []
    # Re-derive both conjunctions from scratch; the path object is rebuilt
    # from the certificate's nets alone.
    from repro.sta.paths import SpeedPath

    path = SpeedPath(nets=cert.nets, delay=cert.delay)
    cond_conj, act_conj, per_segment = conditions.path_conditions_bdd(
        ctx, path
    )
    if not cond_conj.is_false:
        witness = cond_conj.pick_one()
        findings.append(
            _contradiction(
                cert,
                f"path {route} is claimed FALSE but the re-derived "
                "sensitization conjunction is satisfiable",
                witness={k: bool(v) for k, v in (witness or {}).items()},
            )
        )
    if cert.prunable and not act_conj.is_false:
        witness = act_conj.pick_one()
        findings.append(
            _contradiction(
                cert,
                f"path {route} is claimed prunable but the re-derived "
                "activation conjunction is satisfiable",
                witness={k: bool(v) for k, v in (witness or {}).items()},
            )
        )
    if cert.method == "bdd":
        cited = {
            (str(seg.get("gate")), str(seg.get("fanin"))): seg.get(
                "condition", []
            )
            for seg in cert.facts.get("segments", [])
        }
        for segment, cond, _act in per_segment:
            if segment not in cited:
                findings.append(
                    _contradiction(
                        cert,
                        f"path {route}: certificate cites no condition for "
                        f"segment {segment[0]}<-{segment[1]}",
                        segment=list(segment),
                    )
                )
                continue
            cover = [
                {str(k): bool(v) for k, v in cube.items()}
                for cube in cited[segment]
            ]
            if cover_to_function(ctx.manager, cover) != cond:
                findings.append(
                    _contradiction(
                        cert,
                        f"path {route}: cited condition cover for segment "
                        f"{segment[0]}<-{segment[1]} differs from the "
                        "re-derived sensitization condition",
                        segment=list(segment),
                    )
                )
    return findings


def _audit_true(ctx: SpcfContext, cert: PathCertificate) -> list[PathAuditFinding]:
    route = "->".join(cert.nets)
    compiled = compile_circuit(ctx.circuit)
    inputs = compiled.inputs
    facts = cert.facts
    try:
        v1 = [int(v) for v in facts["v1"]]
        v2 = [int(v) for v in facts["v2"]]
        cited_settle = int(facts["settle_time"])
    except (KeyError, TypeError, ValueError):
        return [
            _contradiction(
                cert, f"path {route}: TRUE certificate lacks a usable witness"
            )
        ]
    if len(v1) != len(inputs) or len(v2) != len(inputs):
        return [
            _contradiction(
                cert,
                f"path {route}: witness width {len(v2)} does not match the "
                f"{len(inputs)} primary inputs",
            )
        ]
    findings: list[PathAuditFinding] = []
    from repro.sta.paths import SpeedPath

    path = SpeedPath(nets=cert.nets, delay=cert.delay)
    cond_conj, _act, _segs = conditions.path_conditions_bdd(ctx, path)
    assignment = dict(zip(inputs, map(bool, v2)))
    if not cond_conj.evaluate(assignment):
        findings.append(
            _contradiction(
                cert,
                f"path {route}: final witness vector does not satisfy the "
                "re-derived sensitization conjunction",
            )
        )
    waves = two_vector_waveforms(
        compiled,
        dict(zip(inputs, map(bool, v1))),
        dict(zip(inputs, map(bool, v2))),
    )
    wave = waves[cert.end]
    if wave.settle_time <= cert.target:
        findings.append(
            _contradiction(
                cert,
                f"path {route}: replayed witness settles at "
                f"{wave.settle_time} <= target {cert.target}; no late transition",
                settle_time=wave.settle_time,
            )
        )
    elif wave.settle_time != cited_settle:
        findings.append(
            _contradiction(
                cert,
                f"path {route}: replayed settle time {wave.settle_time} "
                f"differs from the cited {cited_settle}",
                settle_time=wave.settle_time,
            )
        )
    return findings


def audit_path_certificates(
    circuit: Circuit, certs: PathCertificateSet
) -> list[PathAuditFinding]:
    """Independently re-check every path certificate against ``circuit``."""
    compiled = compile_circuit(circuit)
    if not certs.matches(compiled):
        return [
            PathAuditFinding(
                nets=(),
                kind="tampered",
                message=(
                    "certificate set was produced for a different circuit "
                    f"(fingerprint {certs.circuit_fp[:12]}... does not match "
                    f"{circuit.name!r}); refusing every certificate"
                ),
                data={"circuit": circuit.name},
            )
        ]
    findings: list[PathAuditFinding] = []
    refused: set[tuple[str, ...]] = set()
    for cert in certs.tampered():
        refused.add(cert.nets)
        findings.append(
            PathAuditFinding(
                nets=cert.nets,
                kind="tampered",
                message=(
                    f"certificate for path {'->'.join(cert.nets)} fails "
                    "fingerprint verification; refusing to consult it"
                ),
                data={"verdict": cert.verdict},
            )
        )
    # Fresh, certificate-free context: the audit must not let the evidence
    # under test shortcut its own re-derivation.  Path conditions depend on
    # the global functions only, so the context reads none of the set's
    # unsigned header fields; TRUE replays compare against ``cert.target``.
    ctx = SpcfContext(circuit)
    for cert in sorted(certs, key=lambda c: c.nets):
        if cert.nets in refused:
            continue
        if cert.verdict == "false":
            findings.extend(_audit_false(ctx, cert))
        elif cert.verdict == "true":
            findings.extend(_audit_true(ctx, cert))
        # "unresolved" makes no claim: nothing to check.
    return findings


__all__ = ["PathAuditFinding", "audit_path_certificates"]
