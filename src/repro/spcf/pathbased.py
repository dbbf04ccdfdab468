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

from repro.bdd.manager import Function
from repro.netlist.circuit import Circuit
from repro.spcf import _obs
from repro.spcf.result import SpcfResult
from repro.spcf.timedfunc import SpcfContext


def _late(ctx: SpcfContext, net: str, t: int) -> int:
    """Edge of the patterns for which ``net`` has not stabilized by ``t``."""
    if t >= ctx.report.critical_delay:
        # Nothing in the circuit can be late past the critical delay; this
        # coarse global bound is the only cutoff the path-based method uses.
        return 0
    if ctx.circuit.is_input(net):
        return 1 if t < 0 else 0
    memo = ctx._late_memo
    key = (net, t)
    cached = memo.get(key)
    if cached is not None:
        return cached
    and_ = ctx.manager._and
    functions = ctx.functions
    on_primes, off_primes = ctx.circuit.gates[net].prime_literals()
    f_out = functions[net].node
    # late = OR over v of Lambda^v, accumulated as the AND of complements.
    # A product that reaches false skips its remaining factors' recursion.
    not_late = 1
    for primes, value in ((on_primes, f_out), (off_primes, f_out ^ 1)):
        for prime in primes:
            on_time = 1
            for fanin, polarity, delay in prime:
                f_in = functions[fanin].node
                consistent = f_in if polarity else f_in ^ 1
                on_time = and_(
                    on_time, and_(consistent, _late(ctx, fanin, t - delay) ^ 1)
                )
                if not on_time:
                    break
            value = and_(value, on_time ^ 1)
            if not value:
                break
        not_late = and_(not_late, value ^ 1)
    result = memo[key] = not_late ^ 1
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
                per_output[y] = Function(ctx.manager, _late(ctx, y, ctx.target))
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
