"""Golden bytes of the path-certificate set.

The files under ``golden/`` are the ``to_json()`` of fresh certificate sets,
so a change to the canonical JSON, the schema, the fingerprint material or
the emission order shows up here as a byte diff.
"""

from pathlib import Path

import pytest

from repro.analysis.paths import PathCertificateSet, analyze_paths
from repro.benchcircuits import circuit_by_name

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name", ["comparator2", "bypass", "full_adder"], ids=lambda n: f"paths-{n}"
)
def test_certificate_json_matches_golden_bytes(name):
    golden = (GOLDEN / f"paths_{name}.json").read_text()
    assert analyze_paths(circuit_by_name(name)).certificates.to_json() == golden
    assert PathCertificateSet.from_json(golden).to_json() == golden
