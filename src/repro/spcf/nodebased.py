"""Node-based over-approximating SPCF (the algorithm of [22], Sec. 3).

Gates are marked critical *statically* — before the topological pass — from
arrival/required-time slack, and a single pass propagates a late-activation
function:

.. math::

    A_g = \\Big( \\bigvee_{i \\in \\mathrm{crit}(g)} A_i \\Big)
          \\wedge \\neg \\mathrm{earlydet}_g

where ``earlydet_g`` is the disjunction, over prime implicants ``p`` of the
gate whose literals all come from *non-critical* fanins, of the condition
"``p`` is satisfied by the pattern's final values".  Intuitively: the output
can only be late if some statically-critical fanin can be late and the output
value is not already determined by the always-on-time fanins.

Because a gate is marked critical even when it lies on a long path along only
one of its fanouts, and because value/timing consistency across levels is not
tracked, ``A_y`` is a **superset** of the exact SPCF (proved in DESIGN.md
§7 invariant 2 and property-tested); the over-approximation factor mirrors
the "Over-approximation" column of Table 1.
"""

from __future__ import annotations

import time

from repro.bdd.manager import Function, conjunction, disjunction
from repro.netlist.circuit import Circuit
from repro.spcf import _obs
from repro.spcf.result import SpcfResult
from repro.spcf.timedfunc import SpcfContext


def compute_spcf(
    circuit: Circuit,
    threshold: float = 0.9,
    target: int | None = None,
    context: SpcfContext | None = None,
) -> SpcfResult:
    """Over-approximate SPCF via the statically-marked node-based pass."""
    start = time.perf_counter()
    with _obs.TRACER.span(
        "spcf.compute", algorithm="nodebased", circuit=circuit.name
    ) as span:
        ctx = context or SpcfContext(circuit, threshold=threshold, target=target)
        mgr = ctx.manager
        report = ctx.report

        critical: set[str] = {
            net for net in report.arrival if report.slack(net) < 0
        }
        activation: dict[str, Function] = {}
        for net in circuit.inputs:
            if net in critical:
                activation[net] = mgr.true

        for name in circuit.topo_order():
            if name not in critical:
                continue
            gate = circuit.gates[name]
            cell = gate.cell
            pin_to_fanin = dict(zip(cell.inputs, gate.fanins))
            from_critical = [
                activation[f]
                for f in gate.fanins
                if f in critical and f in activation
            ]
            if not from_critical:
                # Statically critical but no critical fanin can actually be
                # late (e.g. required times pushed negative at a PI that is
                # on time).
                continue
            on_primes, off_primes = cell.primes()
            early_dets: list[Function] = []
            for prime in (*on_primes, *off_primes):
                lits = prime.to_dict(cell.inputs)
                if any(pin_to_fanin[pin] in critical for pin in lits):
                    continue
                consistent = [
                    ctx.functions[pin_to_fanin[pin]]
                    if polarity
                    else ~ctx.functions[pin_to_fanin[pin]]
                    for pin, polarity in lits.items()
                ]
                early_dets.append(conjunction(mgr, consistent))
            activation[name] = disjunction(mgr, from_critical) & ~disjunction(
                mgr, early_dets
            )

        per_output = {
            y: activation.get(y, mgr.false) for y in ctx.critical_outputs
        }
        if _obs.METER.enabled:
            for function in per_output.values():
                _obs.OUTPUTS.add(1, algorithm="nodebased")
                _obs.OUTPUT_NODES.observe(
                    function.dag_size(), algorithm="nodebased"
                )
            span.set(critical_nodes=len(critical))
            _obs.note_pass(span, ctx, len(per_output))
    runtime = time.perf_counter() - start
    return SpcfResult(
        algorithm="node-based [22] (over-approximation)",
        context=ctx,
        per_output=per_output,
        runtime_seconds=runtime,
    )
