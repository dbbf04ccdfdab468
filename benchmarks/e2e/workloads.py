"""The four end-to-end workloads: inputs from a seed, timed items, checks.

Every workload is a closed loop with one client: each item starts when the
previous one returns, in one process, with no worker pool.  A workload is
split into ``setup`` (input generation; timed by the caller as ``setup_s``),
``run`` (the timed region) and ``check`` (independent checks, untimed).

Seed semantics.  Circuit ``spec`` is regenerated as
``generate_control_circuit(replace(spec, seed=spec.seed + 1000 * v))``.
A workload with ``variants = K`` runs ``K`` generations of its circuits,
``v = seed * K + k`` for ``k < K``; so seed 0 always includes
:data:`PAPER_SPECS` unchanged (``k = 0``), and ``K = 1`` gives
``v = seed``.  Variant ``k > 0`` of circuit ``c`` is labelled ``c#k``.  The
campaign keeps its circuits (campaigns look circuits up by name) and takes
the seed as its ``CampaignSpec.seed``.  The program only ever receives the
generated inputs.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

from repro import spcf
from repro.benchcircuits.generators import PAPER_SPECS, generate_control_circuit
from repro.campaign import runner
from repro.campaign.spec import FAULT_KINDS, CampaignSpec, plan_campaign
from repro.core import pipeline
from repro.netlist import lsi10k_like_library
from repro.spcf.timedfunc import SpcfContext

#: Run artifacts (traces, campaign journals); ignored by git.
OUT_DIR = Path(__file__).resolve().parent / "out"

THRESHOLD_SWEEP_CIRCUITS = ("k2", "alu4", "apex4", "sparc_ifu_invctl", "lsu_stb_ctl", "C880")
SWEEP_THRESHOLDS = (0.80, 0.85, 0.90, 0.95)
SPCF_THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)
SPCF_ALGORITHMS = ("nodebased", "pathbased", "shortpath")
CAMPAIGN_CIRCUITS = ("C432", "alu4", "sparc_ifu_dcl")
CAMPAIGN_SHARDS_PER_CELL = 2
CAMPAIGN_VECTORS_PER_SHARD = 96
#: Sampled patterns per short-path result in the Monte-Carlo oracle check.
MC_PATTERNS = 16


def _record(item: str, weight: int = 1) -> dict:
    return {"id": item, "weight": weight, "out": {}, "errors": []}


def _fail(record: dict, exc: Exception) -> None:
    """Item boundary: a raising item counts as failed; the run goes on."""
    traceback.print_exc(file=sys.stderr)
    record["errors"].append(f"{type(exc).__name__}: {exc}")


def _set_item(tracer, item: str) -> None:
    if tracer is not None:
        tracer.item = item


def _paper_name(item: str) -> str | None:
    """The paper circuit an item ran on, or None for a regenerated variant."""
    label = item.partition("@")[0]
    return None if "#" in label else label


@dataclasses.dataclass
class State:
    seed: int
    library: object = None
    circuits: dict = dataclasses.field(default_factory=dict)
    extra: dict = dataclasses.field(default_factory=dict)


class CircuitWorkload:
    """Shared set-up: ``variants`` seeded generations of ``names``."""

    names: tuple[str, ...] = tuple(PAPER_SPECS)
    variants = 1

    def setup(self, seed: int, names: tuple[str, ...]) -> State:
        library = lsi10k_like_library()
        circuits = {}
        for k in range(self.variants):
            variant_seed = seed * self.variants + k
            for name in names:
                spec = PAPER_SPECS[name]
                spec = dataclasses.replace(spec, seed=spec.seed + 1000 * variant_seed)
                circuits[f"{name}#{k}" if k else name] = generate_control_circuit(
                    spec, library
                )
        return State(seed, library, circuits)

    def _check_paper_outputs(self, state: State, record: dict, count: int) -> None:
        """At seed 0 the paper's circuits keep the paper's critical POs."""
        name = _paper_name(record["id"])
        if state.seed == 0 and name is not None:
            want = PAPER_SPECS[name].deep_outputs
            if count != want:
                record["errors"].append(f"{count} critical POs, paper has {want}")


# --------------------------------------------------------------- masking


def _row(report) -> dict:
    """One Table 2 row, floats to 1e-6 so equal runs compare equal."""
    return {
        "critical_outputs": report.critical_outputs,
        "critical_minterms": report.critical_minterms,
        "area_overhead_pct": round(report.area_overhead_percent, 6),
        "power_overhead_pct": round(report.power_overhead_percent, 6),
        "slack_pct": round(report.slack_percent, 6),
        "coverage_pct": round(report.coverage_percent, 6),
        "sound": report.sound,
    }


class MaskingWorkload(CircuitWorkload):
    """``mask_circuit`` over circuits x thresholds (Table 2 and its sweep)."""

    def __init__(
        self, names: tuple[str, ...], thresholds: tuple[float, ...], variants: int = 1
    ):
        self.names = names
        self.thresholds = thresholds
        self.variants = variants

    def run(self, state: State, tracer) -> list[dict]:
        records = []
        for label, circuit in state.circuits.items():
            for threshold in self.thresholds:
                item = label if len(self.thresholds) == 1 else f"{label}@{threshold:.2f}"
                record = _record(item)
                _set_item(tracer, item)
                try:
                    result = pipeline.mask_circuit(
                        circuit, state.library, threshold=threshold
                    )
                    record["out"] = _row(result.report)
                except Exception as exc:
                    _fail(record, exc)
                records.append(record)
        return records

    def check(self, state: State, records: list[dict], deep: bool) -> None:
        for record in records:
            out = record["out"]
            if not out:
                continue
            if not out["sound"]:
                record["errors"].append("masking circuit is unsound")
            if out["coverage_pct"] != 100.0:
                record["errors"].append(f"coverage {out['coverage_pct']}% < 100%")
            if record["id"].partition("@")[2] in ("", "0.90"):
                self._check_paper_outputs(state, record, out["critical_outputs"])

    def summary(self, state: State, records: list[dict]) -> dict:
        rows = [r["out"] for r in records if r["out"]]
        if not rows:
            return {}
        return {
            "area_overhead_pct": round(statistics.fmean(r["area_overhead_pct"] for r in rows), 6),
            "power_overhead_pct": round(statistics.fmean(r["power_overhead_pct"] for r in rows), 6),
            "slack_pct": round(statistics.fmean(r["slack_pct"] for r in rows), 6),
            "coverage_pct_min": min(r["coverage_pct"] for r in rows),
        }


# ------------------------------------------------------------------ SPCF


class SpcfWorkload(CircuitWorkload):
    """Table 1 widened: three SPCF algorithms, each on a fresh context."""

    def __init__(self, variants: int):
        self.variants = variants

    def run(self, state: State, tracer) -> list[dict]:
        # Looked up on the package at call time, so a tracer's wrappers apply.
        solvers = {alg: getattr(spcf, f"spcf_{alg}") for alg in SPCF_ALGORITHMS}
        records = []
        for label, circuit in state.circuits.items():
            for threshold in SPCF_THRESHOLDS:
                for alg, solve in solvers.items():
                    record = _record(f"{label}@{threshold:.1f}/{alg}")
                    _set_item(tracer, record["id"])
                    try:
                        ctx = SpcfContext(circuit, threshold=threshold)
                        result = solve(circuit, context=ctx)
                        record["out"] = {
                            "critical_outputs": len(result.per_output),
                            "count": result.count(),
                        }
                    except Exception as exc:
                        _fail(record, exc)
                    records.append(record)
        return records

    def check(self, state: State, records: list[dict], deep: bool) -> None:
        by_id = {r["id"]: r for r in records}
        for label, circuit in state.circuits.items():
            for threshold in SPCF_THRESHOLDS:
                group = [by_id[f"{label}@{threshold:.1f}/{alg}"] for alg in SPCF_ALGORITHMS]
                node, path, short = (r["out"].get("count") for r in group)
                if None in (node, path, short):
                    continue
                if not path == short <= node:
                    for r in group:
                        r["errors"].append(
                            f"counts node={node} path={path} short={short} "
                            "break path == short <= node"
                        )
                if threshold == 0.9:
                    for r in group:
                        self._check_paper_outputs(state, r, r["out"]["critical_outputs"])
                # The oracle replays patterns through the engine: too slow for
                # every variant, so it covers the first generation.
                if deep and _paper_name(label) is not None:
                    result = spcf.spcf_shortpath(circuit, threshold=threshold)
                    acc = spcf.monte_carlo_accuracy(
                        result, num_patterns=MC_PATTERNS, seed=state.seed
                    )
                    if not acc.is_exact_on_sample:
                        group[2]["errors"].append(
                            f"oracle disagrees: {acc.false_positives} false positives, "
                            f"{acc.false_negatives} false negatives"
                        )

    def summary(self, state: State, records: list[dict]) -> dict:
        return {}


# -------------------------------------------------------------- campaign


class CampaignWorkload:
    """One inline fault-injection campaign over every fault mode."""

    names = CAMPAIGN_CIRCUITS

    def setup(self, seed: int, names: tuple[str, ...]) -> State:
        spec = CampaignSpec(
            circuits=names,
            modes=FAULT_KINDS,
            shards_per_cell=CAMPAIGN_SHARDS_PER_CELL,
            vectors_per_shard=CAMPAIGN_VECTORS_PER_SHARD,
            seed=seed,
        )
        return State(seed, extra={"spec": spec, "plan": plan_campaign(spec)})

    def run(self, state: State, tracer) -> list[dict]:
        groups: dict[str, list] = {}
        for shard in state.extra["plan"]:
            groups.setdefault(f"{shard.circuit}/{shard.mode_key}", []).append(shard)
        records = {
            item: _record(item, sum(s.vectors for s in shards))
            for item, shards in groups.items()
        }
        _set_item(tracer, "campaign")
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="campaign-", dir=OUT_DIR) as workdir:
            try:
                outcome = runner.run_campaign(
                    state.extra["spec"],
                    Path(workdir) / "journal.jsonl",
                    runner.RunnerConfig(workers=0),
                )
            except Exception as exc:
                for record in records.values():
                    _fail(record, exc)
                return list(records.values())
        state.extra["stats"] = outcome.stats
        state.extra["totals"] = outcome.aggregate["totals"]
        for group in outcome.aggregate["groups"]:
            record = records[f"{group['circuit']}/{group['mode_key']}"]
            record["out"] = {
                key: group[key]
                for key in ("vectors", "unmasked_errors", "masked_errors", "recovered",
                            "effectiveness_percent")
            }
            if group["shards_done"] != group["shards_total"]:
                record["errors"].append(
                    f"{group['shards_total'] - group['shards_done']} shards incomplete"
                )
        return list(records.values())

    def check(self, state: State, records: list[dict], deep: bool) -> None:
        quarantined = state.extra.get("stats", {}).get("shards_quarantined", 0)
        if quarantined:
            for record in records:
                record["errors"].append(f"{quarantined} shards quarantined")

    def summary(self, state: State, records: list[dict]) -> dict:
        totals = state.extra.get("totals")
        if totals is None:
            return {}
        return {"masking_effectiveness_pct": totals["effectiveness_percent"]}


WORKLOADS = {
    "table2": MaskingWorkload(tuple(PAPER_SPECS), (0.9,)),
    # Several generations per seed: one regeneration moves spcf_sweep's
    # time by up to 30% (too_large alone varies 5x between seeds) and
    # threshold_sweep's by ~8%, which would put their seed-to-seed spread
    # above a useful bound.
    "threshold_sweep": MaskingWorkload(THRESHOLD_SWEEP_CIRCUITS, SWEEP_THRESHOLDS, variants=2),
    "spcf_sweep": SpcfWorkload(variants=4),
    "campaign": CampaignWorkload(),
}
