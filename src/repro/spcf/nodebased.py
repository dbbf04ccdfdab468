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

from repro.bdd.manager import Function
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

        critical = ctx.report.critical_nets()
        and_ = mgr._and
        functions = ctx.functions
        # Late-activation edges; a critical PI is always late.
        activation: dict[str, int] = {
            net: 1 for net in circuit.inputs if net in critical
        }
        for name in circuit.topo_order():
            if name not in critical:
                continue
            gate = circuit.gates[name]
            from_critical = [activation[f] for f in gate.fanins if f in activation]
            if not from_critical:
                # Statically critical but no critical fanin can actually be
                # late (e.g. required times pushed negative at a PI that is
                # on time).
                continue
            # Both ORs are accumulated as the AND of complements.
            not_late = 1
            for late in from_critical:
                not_late = and_(not_late, late ^ 1)
            not_early = 1
            on_primes, off_primes = gate.prime_literals()
            for prime in (*on_primes, *off_primes):
                if any(fanin in critical for fanin, _, _ in prime):
                    continue
                early = 1
                for fanin, polarity, _ in prime:
                    f_in = functions[fanin].node
                    early = and_(early, f_in if polarity else f_in ^ 1)
                not_early = and_(not_early, early ^ 1)
            activation[name] = and_(not_late ^ 1, not_early)

        per_output = {
            y: Function(mgr, activation.get(y, 0)) for y in ctx.critical_outputs
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
