"""Path-certificate integrity: fingerprints, JSON round-trip, tampering."""

import json

import pytest

from repro.analysis.paths import (
    PathCertificate,
    PathCertificateSet,
    analyze_paths,
)
from repro.analysis.paths.certificate import circuit_fingerprint
from repro.benchcircuits import circuit_by_name, comparator2
from repro.errors import PathsError
from repro.netlist import lsi10k_like_library


@pytest.fixture(scope="module")
def certs():
    return analyze_paths(circuit_by_name("bypass")).certificates


def test_round_trip_is_lossless(certs):
    text = certs.to_json()
    loaded = PathCertificateSet.from_json(text)
    assert loaded.circuit_name == certs.circuit_name
    assert loaded.circuit_fp == certs.circuit_fp
    assert loaded.target == certs.target
    assert len(loaded) == len(certs)
    for cert in certs:
        other = loaded.lookup(cert.nets)
        assert other is not None
        assert other.verdict == cert.verdict
        assert other.delay == cert.delay
        assert dict(other.facts) == dict(cert.facts)
    # Serialization is stable: a round-tripped set re-serializes identically.
    assert loaded.to_json() == text


def test_fresh_set_is_never_tampered(certs):
    assert certs.tampered() == []


def test_strict_load_rejects_edited_facts(certs):
    data = json.loads(certs.to_json())
    data["certificates"][0]["facts"]["method"] = "bdd"
    with pytest.raises(PathsError, match="fingerprint verification"):
        PathCertificateSet.from_json(json.dumps(data))


def test_strict_load_rejects_edited_fingerprint(certs):
    data = json.loads(certs.to_json())
    fp = data["certificates"][0]["fingerprint"]
    data["certificates"][0]["fingerprint"] = ("0" if fp[0] != "0" else "1") + fp[1:]
    with pytest.raises(PathsError, match="fingerprint verification"):
        PathCertificateSet.from_json(json.dumps(data))


def test_strict_load_rejects_edited_verdict(certs):
    data = json.loads(certs.to_json())
    entry = next(e for e in data["certificates"] if e["verdict"] == "false")
    entry["verdict"] = "true"
    with pytest.raises(PathsError, match="fingerprint verification"):
        PathCertificateSet.from_json(json.dumps(data))


def test_strict_load_rejects_rebound_circuit(certs):
    data = json.loads(certs.to_json())
    other = analyze_paths(comparator2()).certificates
    data["circuit_fingerprint"] = other.circuit_fp
    with pytest.raises(PathsError, match="fingerprint verification"):
        PathCertificateSet.from_json(json.dumps(data))


def test_verify_false_load_flags_exactly_the_edit(certs):
    data = json.loads(certs.to_json())
    entry = data["certificates"][0]
    entry["facts"]["method"] = "bdd"
    loaded = PathCertificateSet.from_json(json.dumps(data), verify=False)
    assert [list(c.nets) for c in loaded.tampered()] == [entry["nets"]]


def test_saving_a_tampered_set_does_not_resign_it(certs):
    data = json.loads(certs.to_json())
    data["certificates"][0]["facts"]["method"] = "bdd"
    loaded = PathCertificateSet.from_json(json.dumps(data), verify=False)
    # Re-serializing keeps the stale stored fingerprint, so a strict load
    # of the re-saved file still rejects: tampering cannot be laundered.
    with pytest.raises(PathsError, match="fingerprint verification"):
        PathCertificateSet.from_json(loaded.to_json())


@pytest.mark.parametrize("verify", [True, False])
def test_duplicate_entry_is_refused_on_load(verify):
    data = json.loads(analyze_paths(comparator2()).certificates.to_json())
    data["certificates"].append(data["certificates"][0])
    with pytest.raises(PathsError, match="duplicate"):
        PathCertificateSet.from_json(json.dumps(data), verify=verify)


def test_schema_and_shape_validation():
    with pytest.raises(PathsError, match="schema"):
        PathCertificateSet.from_dict({"schema": "bogus/9"})
    with pytest.raises(PathsError, match="malformed"):
        PathCertificateSet.from_dict({"schema": "repro-paths/1"})
    with pytest.raises(PathsError, match="unreadable"):
        PathCertificateSet.from_json("{nope")
    with pytest.raises(PathsError, match="must be an object"):
        PathCertificateSet.from_json("[1, 2]")


def test_certificate_field_validation():
    with pytest.raises(PathsError, match="verdict"):
        PathCertificate(("a", "y"), 5, 4, "maybe", {})
    with pytest.raises(PathsError, match="at least"):
        PathCertificate(("a",), 5, 4, "false", {})


def test_counts_and_verdict_views(certs):
    counts = certs.counts()
    assert set(counts) == {"false", "true", "unresolved"}
    assert sum(counts.values()) == len(certs)
    assert len(certs.false_paths()) == counts["false"]
    assert len(certs.true_paths()) == counts["true"]
    assert len(certs.unresolved_paths()) == counts["unresolved"]


def test_ranked_true_paths_are_in_masking_order():
    certs = analyze_paths(comparator2()).certificates
    ranked = certs.ranked_true_paths()
    assert [c.rank for c in ranked] == list(range(1, len(ranked) + 1))


def test_matches_is_exact_structure(certs):
    assert certs.matches(circuit_by_name("bypass"))
    assert not certs.matches(comparator2())


def test_fingerprint_is_deterministic_and_covers_delays():
    assert circuit_fingerprint(comparator2()) == circuit_fingerprint(comparator2())
    # Same topology, different pin delays (another cell library): new hash,
    # so certificates cannot be replayed across a retimed circuit.
    assert circuit_fingerprint(comparator2()) != circuit_fingerprint(
        comparator2(lsi10k_like_library())
    )
