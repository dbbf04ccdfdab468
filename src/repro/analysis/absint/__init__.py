"""repro.analysis.absint — abstract interpretation over the compiled IR.

Fixpoint passes with pluggable lattice domains proving properties the
sampling subsystems (engine, campaign) can only observe:

* **ternary domain** (:mod:`.ternary`) — word-parallel Kleene 0/1/X
  evaluation through the dual-rail engine evaluator; ``SAFE`` verdicts are
  proofs of hazard-freedom, reported hazards are event-simulator replays,
* **arrival-interval domain** (:mod:`.intervals`) — per-net ``[lo, hi]``
  stabilization bounds cross-checked against :mod:`repro.sta.timing`,
* **structural domain** (:mod:`.structure`) — SCC, reachability,
  constancy, and X-observability over the flat gate arrays,
* **SPCF audit** (:mod:`.spcfcheck`) — machine check that every provably
  critical pattern lies inside ``Sigma_y`` (Eqn. 1 soundness).

Quickstart::

    from repro.analysis.absint import AbsintConfig, analyze_circuit
    report = analyze_circuit(circuit, AbsintConfig(threshold=0.9))
    for diag in report:
        print(diag.render())
"""

from repro.analysis.absint.domain import AbstractDomain, run_fixpoint
from repro.analysis.absint.intervals import (
    ArrivalIntervalDomain,
    Interval,
    arrival_intervals,
    check_interval_consistency,
)
from repro.analysis.absint.passes import (
    PASS_REGISTRY,
    AbsintConfig,
    AbsintContext,
    AbsintPass,
    abs_pass,
    analyze_circuit,
    analyze_suite,
    resolve_pass_ids,
)
from repro.analysis.absint.structure import constant_nets, unreachable_nets
from repro.analysis.absint.ternary import (
    X,
    HazardAnalysis,
    HazardWitness,
    OutputHazards,
    TransitionClass,
    analyze_hazards,
    class_of_pair,
    enumerate_classes,
    inject_x,
    pack_classes,
    ternary_class_values,
)

__all__ = [
    "AbstractDomain",
    "run_fixpoint",
    "Interval",
    "ArrivalIntervalDomain",
    "arrival_intervals",
    "check_interval_consistency",
    "AbsintConfig",
    "AbsintContext",
    "AbsintPass",
    "PASS_REGISTRY",
    "abs_pass",
    "resolve_pass_ids",
    "analyze_circuit",
    "analyze_suite",
    "constant_nets",
    "unreachable_nets",
    "X",
    "TransitionClass",
    "HazardAnalysis",
    "HazardWitness",
    "OutputHazards",
    "analyze_hazards",
    "class_of_pair",
    "enumerate_classes",
    "inject_x",
    "pack_classes",
    "ternary_class_values",
]
