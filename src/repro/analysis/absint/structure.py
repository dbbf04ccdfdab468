"""Structural abstract domain: SCCs, reachability, constancy, observability.

These passes work on the flat compiled arrays where possible (reverse BFS
over ``gate_fanins``), falling back to the cycle-safe
:class:`~repro.analysis.rules.LintContext` Tarjan walk for loop detection on
circuits that cannot be compiled at all.

The observability pass is where the structural and ternary domains meet:
a net is *X-unobservable* when forcing it to X under every binary stimulus
leaves every primary output definite (:func:`..ternary.inject_x`).  Kleene
X-propagation over-approximates observability, so that verdict is a proof
the net's value never matters — exactly the redundant-cover side condition
the paper's essential-weight pruning relies on.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine import CompiledCircuit, eval_words

#: One structural finding: ``(location, message, data)``.
StructFinding = tuple[str, str, dict]


def unreachable_nets(compiled: CompiledCircuit) -> tuple[str, ...]:
    """Gate nets outside every primary-output cone (compiled reverse BFS)."""
    seen = [False] * compiled.n_nets
    stack = list(compiled.output_index)
    while stack:
        idx = stack.pop()
        if seen[idx]:
            continue
        seen[idx] = True
        if idx >= compiled.n_inputs:
            stack.extend(compiled.gate_fanins[idx - compiled.n_inputs])
    return tuple(
        compiled.net_names[compiled.n_inputs + pos]
        for pos in range(compiled.n_gates)
        if not seen[compiled.n_inputs + pos]
    )


def constant_nets(compiled: CompiledCircuit) -> dict[str, int]:
    """Gate nets whose global function is constant, with the constant.

    Exhaustive word-parallel evaluation over all ``2**n`` stimuli; callers
    gate on input count.  A constant *driven by real logic* is foldable —
    every gate in its cone is wasted area and a wasted aging margin.
    """
    n = compiled.n_inputs
    width = 1 << n
    mask = (1 << width) - 1
    words = []
    for i in range(n):
        period = 1 << i
        word = 0
        j = period
        while j < width:
            word |= ((1 << period) - 1) << j
            j += 2 * period
        words.append(word)
    values = eval_words(compiled, words, width)
    out: dict[str, int] = {}
    for pos in range(compiled.n_gates):
        idx = n + pos
        w = values[idx]
        if w == 0:
            out[compiled.net_names[idx]] = 0
        elif w == mask:
            out[compiled.net_names[idx]] = 1
    return out


def structural_findings(
    compiled: CompiledCircuit,
) -> Iterator[StructFinding]:
    """ABS002 findings: unreachable gate nets."""
    for name in unreachable_nets(compiled):
        yield (
            name,
            f"gate net {name!r} is outside every primary-output cone",
            {"net": name},
        )


__all__ = [
    "StructFinding",
    "unreachable_nets",
    "constant_nets",
    "structural_findings",
]
