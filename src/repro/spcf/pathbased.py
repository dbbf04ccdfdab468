"""Path-based exact SPCF (the extension of [22] described in Sec. 3).

This computes the *long-path activation function* of every node directly:
a pattern leaves node ``z`` late at time ``t`` (with final value ``v``) iff
**every** prime implicant of the ``v``-set fails to be on time — i.e. for
each prime, some literal is either inconsistent with the pattern's final
values or itself late:

.. math::

    \\Lambda_z^v(t) = F_z^v \\wedge \\bigwedge_{p \\in P_v}
        \\neg \\Big( \\bigwedge_{l \\in L(p)}
            \\big(F_l \\equiv v_l\\big) \\wedge \\neg\\Lambda_l(t-\\delta_l) \\Big)

This product-over-primes expansion is the symbolic analogue of enumerating
sensitizable long paths; it computes the same exact set as the short-path
recursion of :mod:`repro.spcf.shortpath` (property-tested), but without the
arrival-bound pruning and with the more expensive conjunction-of-negations
form — reproducing the accuracy/runtime trade-off of Table 1.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.bdd.manager import Function, conjunction
from repro.logic.cube import Cube
from repro.netlist.circuit import Circuit
from repro.spcf import _obs
from repro.spcf.result import SpcfResult
from repro.spcf.timedfunc import SpcfContext


def _late(ctx: SpcfContext, net: str, t: int) -> Function:
    """Patterns for which ``net`` has not stabilized by ``t`` (exact)."""
    mgr = ctx.manager
    if t >= ctx.report.critical_delay:
        # Nothing in the circuit can be late past the critical delay; this
        # coarse global bound is the only cutoff the path-based method uses.
        return mgr.false
    if ctx.circuit.is_input(net):
        return mgr.true if t < 0 else mgr.false
    memo = ctx._late_memo
    key = (net, t)
    cached = memo.get(key)
    if cached is not None:
        return cached
    gate = ctx.circuit.gates[net]
    cell = gate.cell
    pin_to_fanin = dict(zip(cell.inputs, gate.fanins))
    pin_to_delay = dict(zip(cell.inputs, gate.pin_delays()))
    on_primes, off_primes = cell.primes()
    f_out = ctx.functions[net]

    def late_for_value(primes: Sequence[Cube], value_fn: Function) -> Function:
        factors: list[Function] = []
        for prime in primes:
            lits: list[Function] = []
            for pin, polarity in prime.to_dict(cell.inputs).items():
                fanin = pin_to_fanin[pin]
                f_in = ctx.functions[fanin]
                consistent = f_in if polarity else ~f_in
                on_time = consistent & ~_late(ctx, fanin, t - pin_to_delay[pin])
                lits.append(on_time)
            factors.append(~conjunction(ctx.manager, lits))
        return value_fn & conjunction(ctx.manager, factors)

    result = late_for_value(on_primes, f_out) | late_for_value(off_primes, ~f_out)
    memo[key] = result
    return result


def compute_spcf(
    circuit: Circuit,
    threshold: float = 0.9,
    target: int | None = None,
    context: SpcfContext | None = None,
) -> SpcfResult:
    """Exact SPCF via the path-based long-path activation recursion."""
    start = time.perf_counter()
    with _obs.TRACER.span(
        "spcf.compute", algorithm="pathbased", circuit=circuit.name
    ) as span:
        ctx = context or SpcfContext(circuit, threshold=threshold, target=target)
        per_output: dict[str, Function] = {}
        for y in ctx.critical_outputs:
            with _obs.TRACER.span(
                "spcf.output", algorithm="pathbased", output=y
            ) as out_span:
                per_output[y] = _late(ctx, y, ctx.target)
                if _obs.METER.enabled:
                    _obs.note_output(out_span, "pathbased", per_output[y])
                    out_span.set(memo_entries=len(ctx._late_memo))
        if _obs.METER.enabled:
            _obs.note_pass(span, ctx, len(per_output))
    runtime = time.perf_counter() - start
    return SpcfResult(
        algorithm="path-based extension of [22] (exact)",
        context=ctx,
        per_output=per_output,
        runtime_seconds=runtime,
    )
