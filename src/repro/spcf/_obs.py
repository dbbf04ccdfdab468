"""Shared observability handles for the three SPCF algorithms.

One module owns the tracer and the instruments so the per-algorithm
modules register each metric exactly once and agree on names/labels
(``algorithm=shortpath|pathbased|nodebased``).

Also the publication point for the BDD manager's exact computed-table
hit/miss counters: managers accumulate exact per-op counts while counting
is enabled, and :func:`note_pass` publishes the *delta* since the last
publication so multi-pass runs on one shared manager sum correctly.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.bdd.manager import BddManager, Function
    from repro.obs.tracing import Span
    from repro.spcf.timedfunc import SpcfContext

TRACER = obs.get_tracer("spcf")
METER = obs.get_meter()

OUTPUTS = METER.counter(
    "repro_spcf_outputs_total", "critical outputs processed by SPCF passes"
)
OUTPUT_NODES = METER.histogram(
    "repro_spcf_output_bdd_nodes",
    "BDD dag size of each per-output SPCF",
    obs.BATCH_BUCKETS,
)
BDD_NODES = METER.gauge(
    "repro_bdd_manager_nodes",
    "high-water BDD manager node count observed after an SPCF pass",
)
COMPUTED_HITS = METER.counter(
    "repro_bdd_computed_hits_total",
    "exact BDD computed-table (op cache) hits, by operation",
)
COMPUTED_MISSES = METER.counter(
    "repro_bdd_computed_misses_total",
    "exact BDD computed-table (op cache) misses, by operation",
)

#: Last-published computed-table counts per manager, so repeated
#: :func:`note_pass` calls on one shared manager publish monotone deltas.
_PUBLISHED: "weakref.WeakKeyDictionary[BddManager, dict[str, tuple[int, int]]]"
_PUBLISHED = weakref.WeakKeyDictionary()


def publish_computed_table(manager: "BddManager") -> None:
    """Publish the manager's exact hit/miss counters as obs counter deltas."""
    stats = manager.stats()
    table = stats.get("computed_table")
    if not isinstance(table, dict):
        return  # counting disabled on this manager
    last = _PUBLISHED.setdefault(manager, {})
    for op, counts in table.items():
        hits, misses = int(counts["hits"]), int(counts["misses"])
        prev_hits, prev_misses = last.get(op, (0, 0))
        # A zero delta still publishes its series, so "counted, no hits"
        # reads apart from "counting off".
        COMPUTED_HITS.add(hits - prev_hits, op=op)
        COMPUTED_MISSES.add(misses - prev_misses, op=op)
        last[op] = (hits, misses)


def note_output(span: "Span", algorithm: str, function: "Function") -> None:
    """Record the per-output span attrs + counters (enabled path only)."""
    size = function.dag_size()
    span.set(bdd_nodes=size)
    OUTPUTS.add(1, algorithm=algorithm)
    OUTPUT_NODES.observe(size, algorithm=algorithm)


def note_pass(span: "Span", ctx: "SpcfContext", n_outputs: int) -> None:
    """Record whole-pass attrs: manager growth and memo/cache stats."""
    stats = ctx.manager.stats()
    BDD_NODES.set_max(stats["nodes"])
    publish_computed_table(ctx.manager)
    span.set(
        outputs=n_outputs,
        bdd_nodes=stats["nodes"],
        unique_entries=stats["unique_entries"],
        target=ctx.target,
    )
