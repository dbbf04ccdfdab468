"""Certificate model integrity: fingerprints, JSON round-trip, tampering."""

import json

import pytest

from repro.analysis.precert import (
    Certificate,
    CertificateSet,
    circuit_fingerprint,
    precertify,
)
from repro.benchcircuits import comparator2, comparator_nbit
from repro.errors import PrecertError
from repro.netlist import lsi10k_like_library


@pytest.fixture()
def certs():
    return precertify(comparator2())


def test_round_trip_is_lossless(certs):
    text = certs.to_json()
    loaded = CertificateSet.from_json(text)
    assert loaded.circuit_name == certs.circuit_name
    assert loaded.circuit_fp == certs.circuit_fp
    assert loaded.targets == certs.targets
    assert len(loaded) == len(certs)
    for cert in certs:
        other = loaded.lookup(cert.node, cert.time)
        assert other is not None
        assert other.verdict == cert.verdict
        assert other.domain == cert.domain
        assert dict(other.facts) == dict(cert.facts)
    # Serialization is stable: a round-tripped set re-serializes identically.
    assert loaded.to_json() == text


def test_fresh_set_is_never_tampered(certs):
    assert certs.tampered() == []


def test_strict_load_rejects_edited_facts(certs):
    data = json.loads(certs.to_json())
    entry = next(
        e for e in data["certificates"] if e["facts"]["kind"] == "on-time"
    )
    entry["facts"]["arrival"] = entry["facts"]["arrival"] + 1
    with pytest.raises(PrecertError, match="fingerprint verification"):
        CertificateSet.from_json(json.dumps(data))


def test_strict_load_rejects_edited_verdict(certs):
    data = json.loads(certs.to_json())
    entry = next(e for e in data["certificates"] if e["verdict"] == "required")
    entry["verdict"] = "discharged"
    with pytest.raises(PrecertError, match="fingerprint verification"):
        CertificateSet.from_json(json.dumps(data))


def test_strict_load_rejects_edited_fingerprint(certs):
    data = json.loads(certs.to_json())
    fp = data["certificates"][0]["fingerprint"]
    data["certificates"][0]["fingerprint"] = ("0" if fp[0] != "0" else "1") + fp[1:]
    with pytest.raises(PrecertError, match="fingerprint verification"):
        CertificateSet.from_json(json.dumps(data))


def test_strict_load_rejects_rebound_circuit(certs):
    data = json.loads(certs.to_json())
    data["circuit_fingerprint"] = circuit_fingerprint(comparator_nbit(4))
    with pytest.raises(PrecertError, match="fingerprint verification"):
        CertificateSet.from_json(json.dumps(data))


def test_verify_false_load_flags_exactly_the_edit(certs):
    data = json.loads(certs.to_json())
    entry = next(
        e for e in data["certificates"] if e["facts"]["kind"] == "on-time"
    )
    entry["facts"]["arrival"] = 999
    loaded = CertificateSet.from_json(json.dumps(data), verify=False)
    bad = loaded.tampered()
    assert [c.key for c in bad] == [(entry["node"], entry["time"])]


def test_saving_a_tampered_set_does_not_resign_it(certs):
    data = json.loads(certs.to_json())
    entry = next(
        e for e in data["certificates"] if e["facts"]["kind"] == "on-time"
    )
    entry["facts"]["arrival"] = 999
    loaded = CertificateSet.from_json(json.dumps(data), verify=False)
    # Re-serializing keeps the stale stored fingerprint, so a strict load of
    # the re-saved file still rejects: tampering cannot be laundered.
    with pytest.raises(PrecertError, match="fingerprint verification"):
        CertificateSet.from_json(loaded.to_json())


@pytest.mark.parametrize("verify", [True, False])
def test_duplicate_entry_is_refused_on_load(certs, verify):
    data = json.loads(certs.to_json())
    data["certificates"].append(data["certificates"][0])
    with pytest.raises(PrecertError, match="duplicate"):
        CertificateSet.from_json(json.dumps(data), verify=verify)


def test_schema_and_shape_validation():
    with pytest.raises(PrecertError, match="schema"):
        CertificateSet.from_dict({"schema": "bogus/9"})
    with pytest.raises(PrecertError, match="malformed"):
        CertificateSet.from_dict({"schema": "repro-precert/1"})
    with pytest.raises(PrecertError, match="unreadable"):
        CertificateSet.from_json("{nope")
    with pytest.raises(PrecertError, match="must be an object"):
        CertificateSet.from_json("[1, 2]")


def test_certificate_field_validation():
    with pytest.raises(PrecertError, match="verdict"):
        Certificate("n", 1, "maybe", "none")
    with pytest.raises(PrecertError, match="domain"):
        Certificate("n", 1, "required", "vibes")


def test_matches_is_exact_structure(certs):
    assert certs.matches(comparator2())
    assert not certs.matches(comparator_nbit(4))


def test_fingerprint_is_deterministic_and_covers_delays():
    assert circuit_fingerprint(comparator2()) == circuit_fingerprint(comparator2())
    # Same topology, different pin delays (another cell library): new hash,
    # so certificates cannot be replayed across a retimed circuit.
    assert circuit_fingerprint(comparator2()) != circuit_fingerprint(
        comparator2(lsi10k_like_library())
    )
