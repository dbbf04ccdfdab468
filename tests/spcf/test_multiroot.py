"""Multi-root SPCF: one shared context for a whole threshold sweep."""

import pytest

from repro.benchcircuits import circuit_by_name
from repro.engine import compile_circuit
from repro.errors import SpcfError
from repro.spcf import spcf_multiroot, spcf_shortpath
from repro.sta.timing import threshold_target


def _canonical(result):
    """Cross-manager comparable form: output -> ROBDD cube sequence."""
    return {y: list(fn.cubes()) for y, fn in sorted(result.per_output.items())}


def test_multiroot_matches_per_target_sweep(lsi_lib):
    circuit = circuit_by_name("comparator4", lsi_lib)
    delta = compile_circuit(circuit).critical_delay()
    targets = sorted({threshold_target(delta, f) for f in (0.5, 0.7, 0.9)})

    multi = spcf_multiroot(circuit, targets=targets)
    assert sorted(multi) == targets
    for tgt in targets:
        single = spcf_shortpath(circuit, target=tgt)
        assert multi[tgt].target == tgt  # target_override, not the context's
        assert _canonical(multi[tgt]) == _canonical(single)


def test_multiroot_threshold_spelling(lsi_lib):
    circuit = circuit_by_name("comparator2", lsi_lib)
    delta = compile_circuit(circuit).critical_delay()
    by_threshold = spcf_multiroot(circuit, thresholds=(0.5, 0.9))
    expected = sorted({threshold_target(delta, f) for f in (0.5, 0.9)})
    assert sorted(by_threshold) == expected


@pytest.mark.parametrize(
    "kwargs", [{"targets": []}, {"thresholds": ()}], ids=["targets", "thresholds"]
)
def test_multiroot_rejects_an_empty_sweep(lsi_lib, kwargs):
    circuit = circuit_by_name("comparator2", lsi_lib)
    with pytest.raises(SpcfError, match="at least one target"):
        spcf_multiroot(circuit, **kwargs)
