"""The ABS013 auditor: re-derivation, replay, and refusal of tampered sets."""

from __future__ import annotations

import json

import pytest

from repro.analysis.paths import (
    PathCertificate,
    PathCertificateSet,
    PathsConfig,
    analyze_paths,
    audit_path_certificates,
)
from repro.benchcircuits import circuit_by_name, comparator2


@pytest.mark.parametrize("name", ["bypass", "comparator2", "full_adder"])
def test_fresh_analysis_audits_clean(name):
    circuit = circuit_by_name(name)
    certs = analyze_paths(circuit).certificates
    assert audit_path_certificates(circuit, certs) == []


def test_bdd_plane_certificates_audit_clean():
    circuit = circuit_by_name("bypass")
    certs = analyze_paths(
        circuit, config=PathsConfig(prefilter_max_inputs=0)
    ).certificates
    assert audit_path_certificates(circuit, certs) == []


def test_wrong_circuit_refuses_every_certificate():
    certs = analyze_paths(circuit_by_name("bypass")).certificates
    findings = audit_path_certificates(comparator2(), certs)
    assert len(findings) == 1
    assert findings[0].kind == "tampered"
    assert "different circuit" in findings[0].message


def test_tampered_certificate_is_refused_not_believed():
    circuit = circuit_by_name("bypass")
    certs = analyze_paths(circuit).certificates
    data = json.loads(certs.to_json())
    data["certificates"][0]["facts"]["method"] = "bdd"
    loaded = PathCertificateSet.from_json(json.dumps(data), verify=False)
    findings = audit_path_certificates(circuit, loaded)
    assert [f.kind for f in findings] == ["tampered"]
    assert "fingerprint verification" in findings[0].message


def _forged_set(certs, forged):
    """A validly-signed set whose content makes a wrong claim."""
    return PathCertificateSet(
        certs.circuit_name,
        certs.circuit_fp,
        certs.threshold,
        certs.target,
        {c.nets: c for c in forged},
    )


def test_false_claim_on_a_true_path_is_contradicted():
    circuit = comparator2()
    certs = analyze_paths(circuit).certificates
    victim = certs.ranked_true_paths()[0]
    forged = _forged_set(
        certs,
        [
            PathCertificate(
                victim.nets,
                victim.delay,
                victim.target,
                "false",
                {"kind": "false-path", "method": "ternary", "segments": []},
            )
        ],
    )
    findings = audit_path_certificates(circuit, forged)
    assert [f.kind for f in findings] == ["contradicted"]
    assert "satisfiable" in findings[0].message
    assert findings[0].data["witness"], "contradiction must carry a witness"


def test_true_claim_with_a_broken_witness_is_contradicted():
    circuit = comparator2()
    certs = analyze_paths(circuit).certificates
    victim = certs.ranked_true_paths()[0]
    facts = dict(victim.facts)
    # A witness pair that cannot exercise the path: both vectors equal.
    facts["v1"] = facts["v2"]
    forged = _forged_set(
        certs,
        [
            PathCertificate(
                victim.nets, victim.delay, victim.target, "true", facts
            )
        ],
    )
    findings = audit_path_certificates(circuit, forged)
    assert findings and all(f.kind == "contradicted" for f in findings)
    assert any("settles" in f.message for f in findings)


def test_true_claim_with_a_wrong_settle_time_is_contradicted():
    circuit = comparator2()
    certs = analyze_paths(circuit).certificates
    victim = certs.ranked_true_paths()[0]
    facts = dict(victim.facts)
    facts["settle_time"] = facts["settle_time"] + 1
    forged = _forged_set(
        certs,
        [
            PathCertificate(
                victim.nets, victim.delay, victim.target, "true", facts
            )
        ],
    )
    findings = audit_path_certificates(circuit, forged)
    assert any(
        f.kind == "contradicted" and "differs from the cited" in f.message
        for f in findings
    )


def test_true_claim_replays_against_its_own_signed_target():
    # The set's ``target`` header is outside every fingerprint: a validly
    # signed TRUE claim at target 7 whose witness settles at 7 must be
    # contradicted whatever the header says, even an edited 6.
    circuit = comparator2()
    certs = analyze_paths(circuit).certificates
    victim = certs.ranked_true_paths()[0]
    assert certs.target == 6 and victim.facts["settle_time"] == 7
    claim = PathCertificate(victim.nets, victim.delay, 7, "true", victim.facts)
    forged = _forged_set(certs, [claim])
    text = forged.to_json()
    for header in (7, 6):
        data = json.loads(text)
        data["target"] = header
        loaded = PathCertificateSet.from_json(json.dumps(data))
        assert loaded.tampered() == []
        findings = audit_path_certificates(circuit, loaded)
        assert [f.kind for f in findings] == ["contradicted"], header
        assert "<= target 7" in findings[0].message


def test_bdd_certificate_with_wrong_cover_is_contradicted():
    circuit = circuit_by_name("bypass")
    certs = analyze_paths(
        circuit, config=PathsConfig(prefilter_max_inputs=0)
    ).certificates
    [victim] = certs.false_paths()
    facts = json.loads(json.dumps(victim.facts))
    # An empty cover is the constant-false condition: provably not what
    # the fresh re-derivation computes for a segment on a real cell.
    facts["segments"][0]["condition"] = []
    forged = _forged_set(
        certs,
        [
            PathCertificate(
                victim.nets, victim.delay, victim.target, "false", facts
            )
        ],
    )
    findings = audit_path_certificates(circuit, forged)
    assert any(
        f.kind == "contradicted" and "cited condition cover" in f.message
        for f in findings
    )


def test_unresolved_certificates_make_no_claim():
    circuit = comparator2()
    analysis = analyze_paths(circuit, config=PathsConfig(replay_budget=0))
    certs = analysis.certificates
    assert certs.unresolved_paths()
    assert audit_path_certificates(circuit, certs) == []
