"""Golden bytes of the certificate envelope, shared by precert and paths.

The files under ``golden/`` are the ``to_json()`` of fresh certificate sets,
so a change to the canonical JSON, a schema, the fingerprint material or
the emission order of either plane shows up here as a byte diff.
"""

from pathlib import Path

import pytest

from repro.analysis.paths import PathCertificateSet, analyze_paths
from repro.analysis.precert import CertificateSet, precertify
from repro.benchcircuits import circuit_by_name

GOLDEN = Path(__file__).parent / "golden"

PLANES = {
    "precert": (CertificateSet, precertify),
    "paths": (PathCertificateSet, lambda c: analyze_paths(c).certificates),
}


@pytest.mark.parametrize("name", ["comparator2", "bypass", "full_adder"])
@pytest.mark.parametrize("plane", sorted(PLANES))
def test_certificate_json_matches_golden_bytes(plane, name):
    cls, produce = PLANES[plane]
    golden = (GOLDEN / f"{plane}_{name}.json").read_text()
    assert produce(circuit_by_name(name)).to_json() == golden
    assert cls.from_json(golden).to_json() == golden
