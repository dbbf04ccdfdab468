"""Verification and overhead reporting for the masking synthesis.

:func:`verify_masking` proves (by BDD equivalence over the primary inputs)
the two invariants the whole scheme rests on:

* **soundness** — whenever the indicator ``e_y`` is 1, the prediction equals
  the original output, *for every input pattern* (so a raised indicator can
  never corrupt a correct output), and
* **coverage** — every SPCF pattern raises the indicator, which is exactly
  the paper's "100% masking of timing errors on all speed-paths".

Two verification methods share that report shape:

* ``method="bdd"`` (default) — the exact symbolic proof above, and
* ``method="sampling"`` — a Monte-Carlo check on the compiled circuit
  engine: the masking circuit and the original are co-simulated
  word-parallel over a random pattern batch, soundness is checked bitwise
  on every sampled pattern, and coverage is estimated over the sampled
  SPCF patterns.  Orders of magnitude faster on wide circuits where the
  BDDs blow up; statistical, not a proof.

:func:`overhead_report` computes the Table-2 row for one circuit: critical
outputs, critical minterms, slack of the masking circuit over the original,
and area/power overheads (including the output multiplexers).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.core.integrate import MaskedDesign, build_masked_design
from repro.core.masking import MaskingResult
from repro.engine import compile_circuit, eval_words, pack_input_words
from repro.errors import SimulationError
from repro.sim.logicsim import pack_patterns, random_patterns
from repro.spcf.timedfunc import expr_to_function
from repro.sta.timing import analyze
from repro.synth.power import switching_power


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the BDD soundness/coverage check."""

    sound: bool
    unsound_outputs: tuple[str, ...]
    coverage: dict[str, Fraction]

    @property
    def full_coverage(self) -> bool:
        return all(c == 1 for c in self.coverage.values())

    @property
    def coverage_percent(self) -> float:
        if not self.coverage:
            return 100.0
        return 100.0 * float(sum(self.coverage.values()) / len(self.coverage))


def verify_masking(
    result: MaskingResult,
    method: str = "bdd",
    num_patterns: int = 4096,
    seed: int = 0,
) -> VerificationReport:
    """Check soundness and SPCF coverage of a synthesized masking circuit.

    ``method="bdd"`` proves both invariants exactly; ``method="sampling"``
    estimates them by Monte-Carlo word simulation on the compiled engine
    (``num_patterns`` random patterns, deterministic per ``seed``).
    """
    if method == "bdd":
        return _verify_masking_bdd(result)
    if method == "sampling":
        return _verify_masking_sampled(result, num_patterns, seed)
    raise SimulationError(
        f"unknown verification method {method!r}; choose 'bdd' or 'sampling'"
    )


def _verify_masking_bdd(result: MaskingResult) -> VerificationReport:
    ctx = result.context
    mgr = ctx.manager
    fns = {net: mgr.var(net) for net in result.circuit.inputs}
    masking = result.masking_circuit
    for name in masking.topo_order():
        gate = masking.gates[name]
        env = {pin: fns[f] for pin, f in zip(gate.cell.inputs, gate.fanins)}
        fns[name] = expr_to_function(gate.cell.expr, env, mgr)

    n = len(result.circuit.inputs)
    unsound: list[str] = []
    coverage: dict[str, Fraction] = {}
    for y, (pred_net, ind_net) in result.outputs.items():
        pred = fns[pred_net]
        ind = fns[ind_net]
        if not (ind & (pred ^ ctx.functions[y])).is_false:
            unsound.append(y)
        sigma = result.spcf.per_output[y]
        total = sigma.count(n)
        if total == 0:
            coverage[y] = Fraction(1)
        else:
            coverage[y] = Fraction((sigma & ind).count(n), total)
    return VerificationReport(
        sound=not unsound,
        unsound_outputs=tuple(unsound),
        coverage=coverage,
    )


def _verify_masking_sampled(
    result: MaskingResult, num_patterns: int, seed: int
) -> VerificationReport:
    """Monte-Carlo soundness/coverage estimate on the compiled engine."""
    if num_patterns <= 0:
        raise SimulationError(f"num_patterns {num_patterns} must be positive")
    circuit = result.circuit
    patterns = list(random_patterns(circuit.inputs, num_patterns, seed=seed))
    words, width = pack_patterns(circuit.inputs, patterns)
    mask = (1 << width) - 1

    orig = compile_circuit(circuit)
    orig_vals = eval_words(orig, pack_input_words(orig, words, width), width)
    orig_of = dict(zip(orig.net_names, orig_vals))

    masking = compile_circuit(result.masking_circuit)
    mask_vals = eval_words(masking, pack_input_words(masking, words, width), width)
    mask_of = dict(zip(masking.net_names, mask_vals))

    unsound: list[str] = []
    coverage: dict[str, Fraction] = {}
    for y, (pred_net, ind_net) in result.outputs.items():
        pred = mask_of[pred_net]
        ind = mask_of[ind_net]
        if ind & (pred ^ orig_of[y]) & mask:
            unsound.append(y)
        sigma = result.spcf.per_output[y]
        sigma_word = 0
        for i, pat in enumerate(patterns):
            if sigma.evaluate(pat):
                sigma_word |= 1 << i
        total = sigma_word.bit_count()
        if total == 0:
            coverage[y] = Fraction(1)
        else:
            coverage[y] = Fraction((sigma_word & ind).bit_count(), total)
    return VerificationReport(
        sound=not unsound,
        unsound_outputs=tuple(unsound),
        coverage=coverage,
    )


@dataclass(frozen=True)
class MaskingEffectiveness:
    """Before/after error counts for one output (or one aggregate group).

    The mux patch replaces an erroneous critical output with the masking
    circuit's prediction; *effectiveness* is the fraction of erroneous
    samples it repaired.  Shared by the sampling verifier and the
    fault-injection campaign aggregator, and additive: two disjoint sample
    batches combine with :meth:`merged`.
    """

    vectors: int
    unmasked_errors: int
    masked_errors: int

    @property
    def recovered(self) -> int:
        """Errors present before the mux patch and absent after it."""
        return max(0, self.unmasked_errors - self.masked_errors)

    @property
    def effectiveness_percent(self) -> float:
        """100 * recovered / unmasked errors (100.0 when nothing to mask)."""
        if self.unmasked_errors == 0:
            return 100.0
        return 100.0 * self.recovered / self.unmasked_errors

    def merged(self, other: "MaskingEffectiveness") -> "MaskingEffectiveness":
        return MaskingEffectiveness(
            vectors=self.vectors + other.vectors,
            unmasked_errors=self.unmasked_errors + other.unmasked_errors,
            masked_errors=self.masked_errors + other.masked_errors,
        )


@dataclass(frozen=True)
class OverheadReport:
    """One Table-2 row: overheads of masking for a single circuit."""

    circuit_name: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    critical_outputs: int
    critical_minterms: int
    original_delay: int
    masking_delay: int
    slack_percent: float
    original_area: float
    masking_area: float
    area_overhead_percent: float
    original_power: float
    masking_power: float
    power_overhead_percent: float
    coverage_percent: float
    sound: bool

    @property
    def meets_slack_constraint(self) -> bool:
        """Paper requirement: the masking circuit has >= 20% timing slack."""
        return self.slack_percent >= 20.0


def masking_delay(result: MaskingResult) -> int:
    """Critical path delay of the masking circuit (prediction + indicator)."""
    if result.masking_circuit.num_gates == 0:
        return 0
    report = analyze(result.masking_circuit, target=0)
    nets = [n for pair in result.outputs.values() for n in pair]
    return max((report.arrival[n] for n in nets), default=0)


def overhead_report(
    result: MaskingResult,
    design: MaskedDesign | None = None,
    verification: VerificationReport | None = None,
    power_method: str = "bdd",
) -> OverheadReport:
    """Compute the paper's Table-2 metrics for one synthesized circuit.

    Power is built into ``result.context.manager`` when it orders the
    circuit's inputs first, so that manager grows by the power functions of
    the original and the masked design.
    """
    if design is None:
        design = build_masked_design(result)
    if verification is None:
        verification = verify_masking(result)
    original = result.circuit
    delta = result.context.report.critical_delay
    mask_delay = masking_delay(result)
    slack_pct = 100.0 * (delta - mask_delay) / delta if delta else 100.0

    mux_area = sum(
        result.library.get("MUX2").area for _ in result.outputs
    )
    mask_area = result.masking_circuit.area() + mux_area
    orig_area = original.area()

    # Both calls build into the run's manager, so the second finds the
    # original gates' functions and counts already there.  A caller's
    # manager that holds other variables ahead of the inputs cannot count
    # over them, so power then builds in fresh managers.
    mgr = result.context.manager
    if mgr.var_names[: len(original.inputs)] != original.inputs:
        mgr = None
    orig_power = switching_power(original, method=power_method, manager=mgr)
    combined_power = switching_power(
        design.circuit, method=power_method, manager=mgr
    )
    mask_power = combined_power - orig_power

    union_count = result.spcf.count() if result.outputs else 0
    return OverheadReport(
        circuit_name=original.name,
        num_inputs=len(original.inputs),
        num_outputs=len(original.outputs),
        num_gates=original.num_gates,
        critical_outputs=len(result.outputs),
        critical_minterms=union_count,
        original_delay=delta,
        masking_delay=mask_delay,
        slack_percent=slack_pct,
        original_area=orig_area,
        masking_area=mask_area,
        area_overhead_percent=100.0 * mask_area / orig_area if orig_area else 0.0,
        original_power=orig_power,
        masking_power=mask_power,
        power_overhead_percent=(
            100.0 * mask_power / orig_power if orig_power else 0.0
        ),
        coverage_percent=verification.coverage_percent,
        sound=verification.sound,
    )
