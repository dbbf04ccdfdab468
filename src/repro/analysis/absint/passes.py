"""Pass registry and drivers for the abstract interpreter.

Mirrors the linter's architecture (stable ids, shared context, structured
:class:`~repro.analysis.diagnostics.Diagnostic` output) but over the
*compiled* IR, with verdicts that are proofs or replayed counterexamples
rather than structural pattern matches:

========  ========================  ========  ==================================
id        name                      severity  meaning
========  ========================  ========  ==================================
ABS001    combinational-scc         error     cycle through gate fanins (IR
                                              cannot be built; other passes skip)
ABS002    unreachable-net           info      gate net outside every output cone
ABS003    constant-net              info      gate net proven constant by
                                              exhaustive word evaluation
ABS004    x-unobservable-net        warning   X injected at the net never
                                              reaches an output (redundant)
ABS005    confirmed-hazard          warning*  replayed glitch; warning when it
                                              endangers the clock edge, else info
ABS006    potential-hazard          info      ternary X without a replayed
                                              witness (opt-in, off by default)
ABS007    interval-inconsistency    error     interval fixpoint disagrees with
                                              independent STA (internal bug)
ABS008    spcf-unsound              error     hazard/oracle pattern outside
                                              Sigma_y (Eqn. 1 soundness bug)
========  ========================  ========  ==================================

Ids ``ABS009``-``ABS013`` are retired and never reused: they named the
deleted pre-certification and static path-sensitization planes.

``ABS005`` severity is per finding: a witness on a *critical* output whose
waveform settles after the speed-path target ``Delta_y`` is exactly the
timing error the paper masks, so it warns; an early-settling glitch is
sampled correctly at the clock edge and is informational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.analysis.absint.intervals import (
    arrival_intervals,
    check_interval_consistency,
)
from repro.analysis.absint.spcfcheck import (
    containment_violations,
    equivalence_violations,
)
from repro.analysis.absint.structure import (
    constant_nets,
    structural_findings,
    unreachable_nets,
)
from repro.analysis.absint.ternary import (
    HazardAnalysis,
    analyze_hazards,
    inject_x,
)
from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.rules import LintContext
from repro.benchcircuits.suite import all_circuit_names, circuit_by_name
from repro.engine import CompiledCircuit, compile_circuit
from repro.errors import AbsintError, ReproError
from repro.netlist.circuit import Circuit
from repro.netlist.library import Library, builtin_library
from repro.spcf.result import SpcfResult
from repro.spcf.shortpath import compute_spcf
from repro.sta.timing import TimingReport, analyze


@dataclass(frozen=True)
class AbsintConfig:
    """Tunables for one analysis run.

    The exhaustiveness caps trade proof coverage for time: below
    ``exhaustive_inputs`` the ternary pass enumerates all ``3**n - 2**n``
    transition classes (exact verdicts); below
    ``binary_exhaustive_inputs`` constancy/observability proofs enumerate
    all ``2**n`` stimuli.  Budgets bound the event-simulator replays that
    confirm hazards.  ``select``/``ignore`` take pass ids (``"ABS005"``)
    or names (``"confirmed-hazard"``).
    """

    threshold: float = 0.9
    target: int | None = None
    exhaustive_inputs: int = 8
    binary_exhaustive_inputs: int = 12
    samples: int = 128
    seed: int = 0
    max_completion_x: int = 12
    max_replays_per_class: int = 16
    max_witnesses_per_output: int = 4
    max_candidate_classes: int = 128
    replay_budget: int = 512
    max_injection_nets: int = 512
    report_potential: bool = False
    spcf_max_inputs: int = 12
    spcf_samples: int = 64
    select: frozenset[str] | None = None
    ignore: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise AbsintError(
                f"threshold fraction {self.threshold} outside (0, 1]"
            )
        for name in (
            "exhaustive_inputs",
            "binary_exhaustive_inputs",
            "samples",
            "max_completion_x",
            "max_replays_per_class",
            "max_witnesses_per_output",
            "max_candidate_classes",
            "replay_budget",
            "max_injection_nets",
            "spcf_max_inputs",
            "spcf_samples",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise AbsintError(
                    f"{name} must be a non-negative int, got {value!r}"
                )

    def active_passes(self) -> tuple["AbsintPass", ...]:
        """The passes this config enables, in pass-id order."""
        selected = (
            resolve_pass_ids(self.select)
            if self.select is not None
            else frozenset(PASS_REGISTRY)
        )
        ignored = resolve_pass_ids(self.ignore)
        return tuple(
            PASS_REGISTRY[pid] for pid in sorted(selected - ignored)
        )


#: A finding: (location, message, hint, severity override or None, data).
AbsFinding = tuple[str, str, str, Severity | None, dict | None]
PassFn = Callable[["AbsintContext", AbsintConfig], Iterator[AbsFinding]]


@dataclass(frozen=True)
class AbsintPass:
    """One registered pass: identity, default severity, check function."""

    rule_id: str
    name: str
    severity: Severity
    description: str
    check: PassFn
    needs_ir: bool = True


PASS_REGISTRY: dict[str, AbsintPass] = {}


def abs_pass(
    rule_id: str,
    name: str,
    severity: Severity,
    description: str,
    needs_ir: bool = True,
):
    """Decorator registering a check function as an absint pass."""

    def decorate(fn: PassFn) -> PassFn:
        if rule_id in PASS_REGISTRY:
            raise AbsintError(f"duplicate pass id {rule_id!r}")
        PASS_REGISTRY[rule_id] = AbsintPass(
            rule_id, name, severity, description, fn, needs_ir
        )
        return fn

    return decorate


def resolve_pass_ids(names: frozenset[str] | set[str]) -> frozenset[str]:
    """Map pass ids *or* names to ids; raise on unknown entries."""
    by_name = {p.name: p.rule_id for p in PASS_REGISTRY.values()}
    out = set()
    for entry in names:
        if entry in PASS_REGISTRY:
            out.add(entry)
        elif entry in by_name:
            out.add(by_name[entry])
        else:
            raise AbsintError(
                f"unknown absint pass {entry!r}; known passes: "
                f"{sorted(PASS_REGISTRY)}"
            )
    return frozenset(out)


class AbsintContext:
    """Lazily computed shared state of one analysis run."""

    def __init__(self, circuit: Circuit, config: AbsintConfig) -> None:
        self.circuit = circuit
        self.config = config
        self.lint_ctx = LintContext(circuit)

    @property
    def compiled(self) -> CompiledCircuit | None:
        """The IR, or ``None`` when the netlist cannot be lowered."""
        if not hasattr(self, "_compiled"):
            if self.lint_ctx.is_cyclic:
                self._compiled = None
            else:
                try:
                    self._compiled = compile_circuit(self.circuit)
                except ReproError:
                    # Dangling nets etc. — LINT002 territory; the absint
                    # passes that need the IR simply skip.
                    self._compiled = None
        return self._compiled

    @property
    def timing(self) -> TimingReport:
        if not hasattr(self, "_timing"):
            self._timing = analyze(
                self.compiled,
                target=self.config.target,
                threshold=self.config.threshold,
            )
        return self._timing

    @property
    def intervals(self):
        if not hasattr(self, "_intervals"):
            self._intervals = arrival_intervals(self.compiled)
        return self._intervals

    @property
    def hazards(self) -> HazardAnalysis:
        if not hasattr(self, "_hazards"):
            self._hazards = analyze_hazards(self.compiled, self.config)
        return self._hazards

    @property
    def spcf(self) -> SpcfResult | None:
        """Short-path SPCF, or ``None`` when out of scope (size, validity)."""
        if not hasattr(self, "_spcf"):
            self._spcf = None
            if (
                self.compiled is not None
                and self.compiled.n_inputs <= self.config.spcf_max_inputs
            ):
                try:
                    self._spcf = compute_spcf(
                        self.circuit,
                        threshold=self.config.threshold,
                        target=self.config.target,
                    )
                except ReproError:
                    self._spcf = None
        return self._spcf

    def critical_output_names(self) -> frozenset[str]:
        compiled = self.compiled
        arrival = compiled.arrival()
        target = self.timing.target
        return frozenset(
            name
            for idx, name in zip(compiled.output_index, compiled.outputs)
            if arrival[idx] > target
        )


# --------------------------------------------------------------------- passes


@abs_pass(
    "ABS001",
    "combinational-scc",
    Severity.ERROR,
    "strongly connected component in the gate graph",
    needs_ir=False,
)
def check_scc(ctx: AbsintContext, config: AbsintConfig) -> Iterator[AbsFinding]:
    for scc in ctx.lint_ctx.cycles():
        shown = ", ".join(scc[:6]) + (", ..." if len(scc) > 6 else "")
        yield (
            scc[0],
            f"combinational SCC of {len(scc)} gate(s): {shown}; "
            "abstract interpretation over the levelized IR is skipped",
            "break the cycle before asking for hazard or timing proofs",
            None,
            {"scc": list(scc)},
        )


@abs_pass(
    "ABS002",
    "unreachable-net",
    Severity.INFO,
    "gate net outside every primary-output cone",
)
def check_unreachable(
    ctx: AbsintContext, config: AbsintConfig
) -> Iterator[AbsFinding]:
    for location, message, data in structural_findings(ctx.compiled):
        yield (
            location,
            message,
            "dead logic distorts critical-delay and aging statistics",
            None,
            data,
        )


@abs_pass(
    "ABS003",
    "constant-net",
    Severity.INFO,
    "gate net proven constant by exhaustive evaluation",
)
def check_constant(
    ctx: AbsintContext, config: AbsintConfig
) -> Iterator[AbsFinding]:
    compiled = ctx.compiled
    if compiled.n_inputs > config.binary_exhaustive_inputs:
        return
    dead = set(unreachable_nets(compiled))
    for net, value in sorted(constant_nets(compiled).items()):
        if net in dead:
            continue  # already ABS002; constancy of dead logic is moot
        yield (
            net,
            f"net {net!r} evaluates to constant {value} for all "
            f"{1 << compiled.n_inputs} input patterns",
            "fold the constant and re-run timing; its cone is wasted area",
            None,
            {"net": net, "value": value},
        )


@abs_pass(
    "ABS004",
    "x-unobservable-net",
    Severity.WARNING,
    "X at the net can never reach a primary output",
)
def check_x_unobservable(
    ctx: AbsintContext, config: AbsintConfig
) -> Iterator[AbsFinding]:
    compiled = ctx.compiled
    if compiled.n_inputs > config.binary_exhaustive_inputs:
        return
    dead = set(unreachable_nets(compiled))
    outputs = set(compiled.outputs)
    injected = 0
    for pos in range(compiled.n_gates):
        net = compiled.net_names[compiled.n_inputs + pos]
        if net in dead or net in outputs:
            continue
        if injected >= config.max_injection_nets:
            return
        injected += 1
        observable = inject_x(compiled, net)
        if not any(observable.values()):
            yield (
                net,
                f"an unknown value at net {net!r} never reaches any "
                "primary output (proven over all input patterns)",
                "the net is redundant cover; candidates for the paper's "
                "essential-weight pruning",
                None,
                {"net": net},
            )


@abs_pass(
    "ABS005",
    "confirmed-hazard",
    Severity.WARNING,
    "replayed two-vector glitch on a primary output",
)
def check_confirmed_hazards(
    ctx: AbsintContext, config: AbsintConfig
) -> Iterator[AbsFinding]:
    critical = ctx.critical_output_names()
    target = ctx.timing.target
    for oh in ctx.hazards.per_output.values():
        for w in oh.confirmed:
            endangers = w.output in critical and w.settle_time > target
            data = w.to_data()
            data["endangers_clock"] = endangers
            data["target"] = target
            v1 = "".join(str(b) for b in w.v1)
            v2 = "".join(str(b) for b in w.v2)
            if endangers:
                message = (
                    f"{w.kind} hazard on critical output {w.output!r}: "
                    f"transition {v1} -> {v2} glitches "
                    f"{w.num_transitions} times and settles at "
                    f"t={w.settle_time} > target {target}"
                )
                hint = (
                    "this is a maskable timing error; synthesize_masking "
                    "covers its pattern via Sigma_y"
                )
                severity = Severity.WARNING
            else:
                message = (
                    f"{w.kind} hazard on output {w.output!r}: transition "
                    f"{v1} -> {v2} glitches {w.num_transitions} times, "
                    f"settled by t={w.settle_time} (target {target})"
                )
                hint = "settles before the clock edge; sampled correctly"
                severity = Severity.INFO
            yield (w.output, message, hint, severity, data)


@abs_pass(
    "ABS006",
    "potential-hazard",
    Severity.INFO,
    "ternary X verdict without a replayed witness",
)
def check_potential_hazards(
    ctx: AbsintContext, config: AbsintConfig
) -> Iterator[AbsFinding]:
    if not config.report_potential:
        return
    for oh in ctx.hazards.per_output.values():
        if oh.unconfirmed_classes:
            yield (
                oh.output,
                f"output {oh.output!r}: {oh.unconfirmed_classes} of "
                f"{oh.x_classes} X transition class(es) have no replayed "
                "glitch (Kleene X over-approximates; may be spurious)",
                "raise the replay budget or treat as hazard-possible",
                None,
                {
                    "output": oh.output,
                    "x_classes": oh.x_classes,
                    "unconfirmed": oh.unconfirmed_classes,
                },
            )


@abs_pass(
    "ABS007",
    "interval-inconsistency",
    Severity.ERROR,
    "arrival-interval fixpoint disagrees with STA",
)
def check_intervals(
    ctx: AbsintContext, config: AbsintConfig
) -> Iterator[AbsFinding]:
    compiled = ctx.compiled
    for location, message, data in check_interval_consistency(
        compiled, ctx.intervals, compiled.arrival(), compiled.min_stable()
    ):
        yield (
            location,
            message,
            "internal consistency bug: report it with the circuit attached",
            None,
            data,
        )


@abs_pass(
    "ABS008",
    "spcf-unsound",
    Severity.ERROR,
    "pattern provably critical yet outside Sigma_y (or vice versa)",
)
def check_spcf(ctx: AbsintContext, config: AbsintConfig) -> Iterator[AbsFinding]:
    spcf = ctx.spcf
    if spcf is None or not spcf.per_output:
        return
    for location, message, data in containment_violations(
        spcf, ctx.hazards.witnesses
    ):
        yield (
            location,
            message,
            "Eqn. 1 soundness bug in repro.spcf; do not trust masking "
            "built from this SPCF",
            None,
            data,
        )
    for location, message, data in equivalence_violations(spcf, config):
        yield (
            location,
            message,
            "Eqn. 1 soundness bug in repro.spcf; do not trust masking "
            "built from this SPCF",
            None,
            data,
        )


# -------------------------------------------------------------------- drivers


def analyze_circuit(
    circuit: Circuit, config: AbsintConfig | None = None
) -> LintReport:
    """Run every active pass over one circuit; findings in pass-id order.

    Broken netlists never raise: a cyclic or unlowerable circuit yields its
    ``ABS001`` findings and the IR-dependent passes are skipped.
    """
    cfg = config or AbsintConfig()
    ctx = AbsintContext(circuit, cfg)
    diagnostics: list[Diagnostic] = []
    for p in cfg.active_passes():
        if p.needs_ir and ctx.compiled is None:
            continue
        for location, message, hint, severity, data in p.check(ctx, cfg):
            diagnostics.append(
                Diagnostic(
                    rule_id=p.rule_id,
                    rule_name=p.name,
                    severity=severity if severity is not None else p.severity,
                    circuit=circuit.name,
                    location=location,
                    message=message,
                    hint=hint,
                    data=data,
                )
            )
    return LintReport(
        circuit_name=circuit.name,
        num_gates=circuit.num_gates,
        num_inputs=len(circuit.inputs),
        num_outputs=len(circuit.outputs),
        diagnostics=tuple(diagnostics),
    )


def analyze_suite(
    library: Library | None = None,
    config: AbsintConfig | None = None,
    names: Iterable[str] | None = None,
) -> dict[str, LintReport]:
    """Analyze every builtin benchmark (or the given subset), by name."""
    lib = library or builtin_library("lsi10k_like")
    selected = tuple(names) if names is not None else all_circuit_names()
    return {
        name: analyze_circuit(circuit_by_name(name, lib), config)
        for name in selected
    }


__all__ = [
    "AbsintConfig",
    "AbsintContext",
    "AbsintPass",
    "PASS_REGISTRY",
    "abs_pass",
    "resolve_pass_ids",
    "analyze_circuit",
    "analyze_suite",
]
