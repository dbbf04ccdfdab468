"""Multi-root SPCF compile: several thresholds through one shared context.

A threshold sweep (``Delta_y`` at 50%..90% of the critical delay) re-asks the
same circuit the same kind of question with different root obligations
``(y, target)``.  Compiling them against **one** :class:`SpcfContext` instead
of one context per threshold shares everything the per-threshold runs would
redundantly rebuild:

* the BDD manager — every node, the unique table and the op caches survive
  across roots, so a sub-cone reached from two thresholds is hashed once;
* the lazily-built global-function map ``F[net]``;
* the ``stable(net, t)`` memo — distinct roots converge onto identical
  ``(node, t)`` sub-obligations after a few fanin steps (delays subtract the
  same way from every root), so later targets mostly replay memo hits.

Targets are compiled in ascending order, so the smallest target — whose
sub-obligations are the deepest — warms the memo for every later one.

Results are bit-identical to per-threshold :func:`repro.spcf.shortpath.
compute_spcf` runs: the recursion is the same, only sharing differs, and
ROBDD canonicity makes equal functions the same node.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.bdd.manager import BddManager, Function
from repro.errors import SpcfError
from repro.netlist.circuit import Circuit
from repro.spcf import _obs
from repro.spcf.result import SpcfResult
from repro.spcf.timedfunc import SpcfContext
from repro.sta.timing import threshold_target


def resolve_sweep_targets(
    context: SpcfContext,
    targets: Sequence[int] | None,
    thresholds: Sequence[float],
) -> list[int]:
    """Deduplicated, ascending target list for a multi-root compile."""
    if targets is None:
        critical_delay = context.report.critical_delay
        resolved = {threshold_target(critical_delay, f) for f in thresholds}
    else:
        resolved = {int(t) for t in targets}
    if not resolved:
        raise SpcfError("multi-root SPCF needs at least one target")
    return sorted(resolved)


def compute_multi(
    circuit: Circuit,
    targets: Sequence[int] | None = None,
    thresholds: Sequence[float] = (0.9,),
    manager: BddManager | None = None,
) -> dict[int, SpcfResult]:
    """Exact short-path SPCF at every target, multi-root over one context.

    Returns one :class:`SpcfResult` per resolved target (its
    :attr:`~SpcfResult.target` reads the per-result override, not the shared
    context's default).  Pass either explicit integer ``targets`` or
    ``thresholds`` as fractions of the critical delay.
    """
    if not (thresholds if targets is None else targets):
        raise SpcfError("multi-root SPCF needs at least one target")
    with _obs.TRACER.span(
        "spcf.multiroot", algorithm="shortpath", circuit=circuit.name
    ) as span:
        ctx = SpcfContext(
            circuit,
            threshold=max(thresholds) if targets is None else 0.9,
            target=None if targets is None else max(int(t) for t in targets),
            manager=manager,
        )
        resolved = resolve_sweep_targets(ctx, targets, thresholds)
        results: dict[int, SpcfResult] = {}
        for tgt in resolved:
            root_start = time.perf_counter()
            per_output: dict[str, Function] = {}
            for y in ctx.critical_outputs_at(tgt):
                with _obs.TRACER.span(
                    "spcf.output", algorithm="shortpath", output=y, target=tgt
                ) as out_span:
                    per_output[y] = ctx.late(y, tgt)
                    if _obs.METER.enabled:
                        _obs.note_output(out_span, "shortpath", per_output[y])
            results[tgt] = SpcfResult(
                algorithm="short-path-based (proposed, multi-root)",
                context=ctx,
                per_output=per_output,
                runtime_seconds=time.perf_counter() - root_start,
                target_override=tgt,
            )
        if _obs.METER.enabled:
            _obs.note_pass(
                span, ctx, sum(len(r.per_output) for r in results.values())
            )
            span.set(targets=len(resolved))
    return results


__all__ = ["compute_multi", "resolve_sweep_targets"]
