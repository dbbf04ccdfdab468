"""The exception hierarchy: everything derives from ReproError."""

import pytest

from repro import errors


def test_hierarchy():
    subclasses = [
        errors.BddError,
        errors.LogicError,
        errors.ExprSyntaxError,
        errors.NetlistError,
        errors.LibraryError,
        errors.BlifError,
        errors.TimingError,
        errors.SimulationError,
        errors.SpcfError,
        errors.SynthesisError,
        errors.MaskingError,
        errors.AnalysisError,
        errors.LintError,
        errors.VerificationError,
        errors.CampaignError,
        errors.CheckpointError,
    ]
    for cls in subclasses:
        assert issubclass(cls, errors.ReproError), cls


def test_specializations():
    assert issubclass(errors.ExprSyntaxError, errors.LogicError)
    assert issubclass(errors.LibraryError, errors.NetlistError)
    assert issubclass(errors.BlifError, errors.NetlistError)
    assert issubclass(errors.LintError, errors.AnalysisError)
    assert issubclass(errors.VerificationError, errors.AnalysisError)
    assert issubclass(errors.CheckpointError, errors.CampaignError)


def _netlist_cycle():
    from repro.netlist import Circuit, unit_library

    lib = unit_library()
    c = Circuit("loop", inputs=["a"], outputs=["g1"])
    c.add_gate("g1", lib.get("AND2"), ("g2", "a"))
    c.add_gate("g2", lib.get("INV"), ("g1",))
    c.validate()


def _netlist_arity():
    from repro.netlist import Circuit, unit_library

    Circuit("arity", inputs=["a"]).add_gate(
        "g", unit_library().get("AND2"), ("a",)
    )


def _netlist_blif():
    from repro.netlist import read_blif

    read_blif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\n.end")


def _logic_expr():
    from repro.logic import parse_expr

    parse_expr("a & (b |")


def _logic_cube():
    from repro.logic.cube import Cube

    Cube.from_string("01x?")


def _bdd_unknown_var():
    from repro.bdd import BddManager

    BddManager(["a"]).var("zz")


def _bdd_mixed_managers():
    from repro.bdd import BddManager

    BddManager(["a"]).var("a") & BddManager(["a"]).var("a")


def _spcf_threshold():
    from repro.benchcircuits import circuit_by_name
    from repro.spcf import SpcfContext

    SpcfContext(circuit_by_name("comparator2"), threshold=2.0)


def _spcf_unbound_name():
    from repro.bdd import BddManager
    from repro.logic import parse_expr
    from repro.spcf.timedfunc import expr_to_function

    expr_to_function(parse_expr("a & b"), {}, BddManager(["a", "b"]))


def _masking_bad_pool():
    from repro.benchcircuits import circuit_by_name
    from repro.core import synthesize_masking
    from repro.netlist import lsi10k_like_library

    lib = lsi10k_like_library()
    synthesize_masking(circuit_by_name("comparator2", lib), lib, cube_pool="bogus")


def _exec_bad_jobs():
    from repro.campaign import RunnerConfig

    RunnerConfig(workers=-1)


def _campaign_bad_mode():
    from repro.campaign import CampaignSpec

    CampaignSpec(circuits=("cmb",), modes=({"kind": "meteor"},))


def _campaign_missing_checkpoint():
    from repro.campaign import load_journal

    load_journal("/no/such/campaign.ckpt.jsonl")


def _analysis_unknown_rule():
    from repro.analysis import LintConfig

    LintConfig(ignore=frozenset({"LINT999"}))


def _analysis_bad_severity():
    from repro.analysis import Severity

    Severity.from_name("fatal")


@pytest.mark.parametrize(
    "trigger",
    [
        _netlist_cycle,
        _netlist_arity,
        _netlist_blif,
        _logic_expr,
        _logic_cube,
        _bdd_unknown_var,
        _bdd_mixed_managers,
        _spcf_threshold,
        _spcf_unbound_name,
        _masking_bad_pool,
        _exec_bad_jobs,
        _campaign_bad_mode,
        _campaign_missing_checkpoint,
        _analysis_unknown_rule,
        _analysis_bad_severity,
    ],
    ids=lambda fn: fn.__name__.lstrip("_"),
)
def test_bad_inputs_raise_repro_errors(trigger):
    """Driving bad inputs through any subsystem raises a ReproError subclass."""
    with pytest.raises(errors.ReproError) as excinfo:
        trigger()
    assert type(excinfo.value) is not errors.ReproError  # a specific subclass


def test_single_catch_point():
    """Any library failure is catchable as ReproError."""
    from repro.netlist import unit_library

    with pytest.raises(errors.ReproError):
        unit_library().get("NOT_A_CELL")
    from repro.logic import parse_expr

    with pytest.raises(errors.ReproError):
        parse_expr("a &")
