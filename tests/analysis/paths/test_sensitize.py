"""Classification of speed-paths: FALSE proofs, TRUE witnesses, pruning."""

from __future__ import annotations

import pytest

from repro.analysis.paths import PathsConfig, analyze_paths
from repro.benchcircuits import circuit_by_name, comparator2
from repro.engine import compile_circuit
from repro.errors import PathsError, ReproError
from repro.sim import two_vector_waveforms
from repro.spcf import (
    SpcfContext,
    spcf_multiroot,
    spcf_nodebased,
    spcf_pathbased,
    spcf_shortpath,
)

#: Force every path onto the exact BDD plane: no ternary scan, no words.
BDD_ONLY = PathsConfig(prefilter_max_inputs=0)


@pytest.fixture(scope="module")
def bypass():
    return circuit_by_name("bypass")


def test_bypass_single_path_is_false_and_prunable(bypass):
    analysis = analyze_paths(bypass)
    certs = analysis.certificates
    assert len(certs) == 1
    [cert] = certs.false_paths()
    assert cert.nets[0] == "x" and cert.end == "y"
    assert cert.prunable
    assert cert.method == "exhaustive"
    assert analysis.stats["prefilter_exhaustive"] == 1
    assert analysis.stats["bdd_paths"] == 0


def test_bdd_plane_agrees_with_the_word_plane(bypass):
    analysis = analyze_paths(bypass, config=BDD_ONLY)
    [cert] = analysis.certificates.false_paths()
    assert cert.prunable
    assert cert.method == "bdd"
    assert analysis.stats["bdd_paths"] == 1
    # A bdd-method FALSE certificate cites per-segment condition covers.
    assert all("condition" in seg for seg in cert.facts["segments"])
    [word_cert] = analyze_paths(bypass).certificates.false_paths()
    assert cert.nets == word_cert.nets and word_cert.prunable


def _all_prunable_outputs(analysis):
    """Outputs whose over-target speed-paths are all FALSE and prunable."""
    ends: dict[str, bool] = {}
    for cert in analysis.certificates:
        ends[cert.end] = ends.get(cert.end, True) and cert.prunable
    return {end for end, prunable in ends.items() if prunable}


def test_tightening_is_sound(bypass):
    """late(y, target) is identically false for an all-prunable output.

    ``bypass``'s only speed-path ends at ``y`` and fails the activation
    conditions of Eqn. 1, so on a plain context no late transition on
    ``y`` survives the target, even though its static arrival exceeds it.
    """
    analysis = analyze_paths(bypass)
    assert _all_prunable_outputs(analysis) == {"y"}
    ctx = SpcfContext(bypass, target=analysis.target)
    assert ctx.report.arrival["y"] > analysis.target
    s0, s1 = ctx.stable("y", analysis.target)
    assert (~(s0 | s1)).is_false, (
        "a late transition survives on y at the target"
    )


def test_tightened_spcf_is_bit_identical(bypass):
    """Every SPCF algorithm agrees bit for bit on the all-prunable output."""
    analysis = analyze_paths(bypass)
    target = analysis.target
    base = spcf_shortpath(bypass, target=target).per_output
    others = [
        spcf_pathbased(bypass, target=target).per_output,
        spcf_nodebased(bypass, target=target).per_output,
        spcf_multiroot(bypass, targets=[target])[target].per_output,
    ]
    for other in others:
        assert other.keys() == base.keys()
        for y, fn in base.items():
            assert list(fn.cubes()) == list(other[y].cubes())
    for y in _all_prunable_outputs(analysis):
        assert base[y].is_false


def test_tightening_improves_precert_discharge(bypass):
    """A prunable FALSE verdict discharges an output static timing cannot.

    ``y`` is late by static arrival on ``bypass`` and its Sigma_y is still
    empty; on ``comparator2`` every speed-path is TRUE, no output is
    all-prunable and Sigma_y is not empty.
    """
    analysis = analyze_paths(bypass)
    report = SpcfContext(bypass, target=analysis.target).report
    discharged = _all_prunable_outputs(analysis)
    assert discharged
    sigma = spcf_shortpath(bypass, target=analysis.target).per_output
    for y in discharged:
        assert report.arrival[y] > analysis.target
        assert sigma[y].is_false
    plain = analyze_paths(comparator2())
    assert _all_prunable_outputs(plain) == set()
    plain_sigma = spcf_shortpath(comparator2(), target=plain.target).per_output
    assert not plain_sigma["y"].is_false


def test_comparator2_paths_are_true_with_replayable_witnesses():
    circuit = comparator2()
    analysis = analyze_paths(circuit)
    certs = analysis.certificates
    assert not certs.false_paths() and not certs.unresolved_paths()
    compiled = compile_circuit(circuit)
    for cert in certs.ranked_true_paths():
        facts = cert.facts
        waves = two_vector_waveforms(
            compiled,
            dict(zip(compiled.inputs, map(bool, facts["v1"]))),
            dict(zip(compiled.inputs, map(bool, facts["v2"]))),
        )
        wave = waves[cert.end]
        assert wave.settle_time == facts["settle_time"] > analysis.target


def test_true_paths_on_the_bdd_plane_still_replay():
    circuit = comparator2()
    analysis = analyze_paths(circuit, config=BDD_ONLY)
    certs = analysis.certificates
    assert len(certs.true_paths()) == 2
    assert all(c.method == "bdd" for c in certs.true_paths())


def test_exhausted_replay_budget_leaves_paths_unresolved():
    analysis = analyze_paths(
        comparator2(), config=PathsConfig(replay_budget=0)
    )
    unresolved = analysis.certificates.unresolved_paths()
    assert len(unresolved) == len(analysis.certificates)
    for cert in unresolved:
        assert cert.facts["sensitizable"] is True


def test_path_limit_guard(bypass):
    with pytest.raises(ReproError):
        analyze_paths(bypass, config=PathsConfig(limit=0))


def test_config_validation():
    with pytest.raises(PathsError):
        PathsConfig(limit=-1)
    with pytest.raises(PathsError):
        PathsConfig(replay_budget=-1)
    with pytest.raises(PathsError):
        PathsConfig(prefilter_max_inputs=2.5)  # type: ignore[arg-type]


def test_stats_partition_the_paths():
    for name in ("bypass", "comparator2", "parity8", "x2"):
        analysis = analyze_paths(circuit_by_name(name))
        stats = analysis.stats
        assert (
            stats["false"] + stats["true"] + stats["unresolved"]
            == stats["paths"]
            == len(analysis.certificates)
        )
