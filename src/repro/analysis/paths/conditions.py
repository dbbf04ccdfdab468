"""Per-segment sensitization and activation conditions, on three planes.

A speed-path visits a sequence of *segments* — (gate, on-path fanin) pairs.
Two side-input conditions govern each segment:

* the **sensitization condition** ``cond(z, f)``: the Boolean difference
  ``F_z[f<-1] XOR F_z[f<-0]`` of the gate's cell function, composed at the
  global functions of the side fanins.  An input vector sensitizes the
  whole path iff it satisfies every segment's ``cond`` — the classic static
  (floating-mode) criterion that decides FALSE vs TRUE.

* the **activation condition** ``act(z, f)``: the disjunction, over every
  prime implicant of ``F_z``'s on- and off-set that *contains* pin ``f``,
  of the conjunction of all the prime's literals evaluated at the global
  fanin functions.  This is exactly the per-prime term shape of the
  paper's Eqn. 1 recursion, so ``AND of act`` over a path upper-bounds the
  path's contribution to ``late(y, t)``; proving it unsatisfiable for every
  over-target path of an output proves that output's Sigma empty.  ``cond``
  implies ``act`` pointwise (a vector with a sensitized pin lies in some
  prime containing that pin), so ``act``-unsatisfiable ("prunable") is a
  strictly stronger verdict than FALSE.

Gates may carry the same net on several pins; both conditions then take
the disjunction over all such pins (conservative: the path is counted
sensitizable/active if *any* pin placement works).

The three planes compute the same two conditions three ways, cheapest
first: the all-X **ternary** scan proves side inputs constant and blocks
primes without touching patterns; the **word** plane evaluates all ``2^n``
stimuli in one machine-word sweep for small cones; the **BDD** plane is
exact at any width and is what the ABS013 auditor re-derives from scratch.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.analysis.absint.ternary import X, pack_classes
from repro.bdd.manager import BddManager, Function, conjunction, disjunction
from repro.engine import CompiledCircuit, eval_words
from repro.engine.ir import cell_word_function
from repro.errors import PathsError
from repro.netlist.circuit import Circuit, Gate
from repro.spcf.timedfunc import SpcfContext, expr_to_function
from repro.sta.paths import SpeedPath

#: One path segment: ``(gate_output_net, on_path_fanin_net)``.
Segment = tuple[str, str]


def path_segments(path: SpeedPath) -> list[Segment]:
    """The (gate, fanin) segments of ``path``, input-first."""
    return [
        (path.nets[i], path.nets[i - 1]) for i in range(1, len(path.nets))
    ]


def _on_path_pins(gate: Gate, fanin: str) -> list[str]:
    pins = [
        pin for pin, f in zip(gate.cell.inputs, gate.fanins) if f == fanin
    ]
    if not pins:
        raise PathsError(
            f"net {fanin!r} does not feed gate {gate.name!r}; "
            "path and circuit disagree"
        )
    return pins


# ----------------------------------------------------------------- BDD plane


def segment_conditions_bdd(
    ctx: SpcfContext, net: str, fanin: str
) -> tuple[Function, Function]:
    """``(cond, act)`` of segment ``(net, fanin)`` as global-input BDDs."""
    gate = ctx.circuit.gates[net]
    cell = gate.cell
    mgr = ctx.manager
    env = {pin: ctx.functions[f] for pin, f in zip(cell.inputs, gate.fanins)}
    on_primes, off_primes = cell.primes()
    conds: list[Function] = []
    acts: list[Function] = []
    for pin in _on_path_pins(gate, fanin):
        env1 = dict(env)
        env1[pin] = mgr.true
        env0 = dict(env)
        env0[pin] = mgr.false
        conds.append(
            expr_to_function(cell.expr, env1, mgr)
            ^ expr_to_function(cell.expr, env0, mgr)
        )
        terms: list[Function] = []
        for prime in on_primes + off_primes:
            literals = prime.to_dict(cell.inputs)
            if pin not in literals:
                continue
            terms.append(
                conjunction(
                    mgr,
                    [
                        env[q] if polarity else ~env[q]
                        for q, polarity in literals.items()
                    ],
                )
            )
        acts.append(disjunction(mgr, terms))
    return disjunction(mgr, conds), disjunction(mgr, acts)


def path_conditions_bdd(
    ctx: SpcfContext, path: SpeedPath
) -> tuple[Function, Function, list[tuple[Segment, Function, Function]]]:
    """``(cond_conj, act_conj, per_segment)`` for a whole path."""
    per_segment: list[tuple[Segment, Function, Function]] = []
    conds: list[Function] = []
    acts: list[Function] = []
    for segment in path_segments(path):
        cond, act = segment_conditions_bdd(ctx, *segment)
        per_segment.append((segment, cond, act))
        conds.append(cond)
        acts.append(act)
    mgr = ctx.manager
    return conjunction(mgr, conds), conjunction(mgr, acts), per_segment


# ---------------------------------------------------------------- word plane


def exhaustive_input_words(n_inputs: int) -> tuple[list[int], int, int]:
    """``(input_words, width, mask)`` enumerating all ``2**n`` minterms.

    Minterm ``j`` assigns input ``i`` (position in ``compiled.inputs``) the
    value ``(j >> i) & 1``, so input ``i``'s word alternates in blocks of
    ``2**i`` — the standard truth-table packing.
    """
    width = 1 << n_inputs
    mask = (1 << width) - 1
    words: list[int] = []
    for i in range(n_inputs):
        period = 1 << i
        block = ((1 << period) - 1) << period
        word = 0
        for j in range(0, width, 2 * period):
            word |= block << j
        words.append(word & mask)
    return words, width, mask


def net_value_words(compiled: CompiledCircuit) -> tuple[list[int], int, int]:
    """``(net_words, width, mask)``: every net under all ``2**n`` stimuli."""
    words, width, mask = exhaustive_input_words(compiled.n_inputs)
    values = eval_words(compiled, words, width)
    return values, width, mask


def segment_conditions_words(
    compiled: CompiledCircuit,
    values: Sequence[int],
    mask: int,
    net: str,
    fanin: str,
    circuit: Circuit,
) -> tuple[int, int]:
    """``(cond_word, act_word)`` of one segment, bit ``j`` = minterm ``j``."""
    gate = circuit.gates[net]
    cell = gate.cell
    func: Callable[..., int] = cell_word_function(cell)
    net_index = compiled.net_index
    pin_words = [values[net_index[f]] for f in gate.fanins]
    on_primes, off_primes = cell.primes()
    cond_word = 0
    act_word = 0
    for pin_pos, (pin, f) in enumerate(zip(cell.inputs, gate.fanins)):
        if f != fanin:
            continue
        forced1 = list(pin_words)
        forced1[pin_pos] = mask
        forced0 = list(pin_words)
        forced0[pin_pos] = 0
        cond_word |= func(mask, *forced1) ^ func(mask, *forced0)
        for prime in on_primes + off_primes:
            literals = prime.to_dict(cell.inputs)
            if pin not in literals:
                continue
            term = mask
            for q, polarity in literals.items():
                word = values[net_index[gate.fanins[cell.inputs.index(q)]]]
                term &= word if polarity else mask ^ word
            act_word |= term
    return cond_word & mask, act_word & mask


def path_conditions_words(
    compiled: CompiledCircuit,
    values: Sequence[int],
    mask: int,
    path: SpeedPath,
    circuit: Circuit,
) -> tuple[int, int, list[tuple[Segment, int, int]]]:
    """``(cond_conj, act_conj, per_segment)`` words for a whole path."""
    per_segment: list[tuple[Segment, int, int]] = []
    cond_conj = mask
    act_conj = mask
    for segment in path_segments(path):
        cond, act = segment_conditions_words(
            compiled, values, mask, *segment, circuit
        )
        per_segment.append((segment, cond, act))
        cond_conj &= cond
        act_conj &= act
    return cond_conj, act_conj, per_segment


def minterm_to_vector(j: int, n_inputs: int) -> list[int]:
    """Decode minterm index ``j`` into an input vector (engine input order)."""
    return [(j >> i) & 1 for i in range(n_inputs)]


# ------------------------------------------------------------- ternary plane


def ternary_constant_nets(compiled: CompiledCircuit) -> dict[str, bool]:
    """Nets proven constant by one all-X word pass (Kleene monotonicity)."""
    out: dict[str, bool] = {}
    if compiled.n_inputs == 0:
        return out
    hi, lo = pack_classes(compiled, [(X,) * compiled.n_inputs])
    for idx in range(compiled.n_inputs, compiled.n_nets):
        if hi[idx] & lo[idx] & 1:
            continue  # still X: not constant
        out[compiled.net_names[idx]] = bool(hi[idx] & 1)
    return out


def ternary_blocked_segment(
    circuit: Circuit,
    constants: dict[str, bool],
    net: str,
    fanin: str,
) -> list[dict[str, Any]] | None:
    """Evidence that constants kill every activation prime of the segment.

    Returns per-pin evidence when, for each pin carrying ``fanin``, every
    prime implicant containing that pin has at least one literal whose
    fanin net is proven constant at the *opposite* polarity — making every
    ``act`` term (and a fortiori every ``cond`` minterm) identically false.
    Returns ``None`` when any prime survives; the segment then needs the
    word or BDD plane.
    """
    gate = circuit.gates[net]
    cell = gate.cell
    pin_to_fanin = dict(zip(cell.inputs, gate.fanins))
    on_primes, off_primes = cell.primes()
    evidence: list[dict[str, Any]] = []
    for pin in _on_path_pins(gate, fanin):
        blocked: list[dict[str, Any]] = []
        for prime in on_primes + off_primes:
            literals = prime.to_dict(cell.inputs)
            if pin not in literals:
                continue
            blocker: dict[str, Any] | None = None
            for q, polarity in literals.items():
                value = constants.get(pin_to_fanin[q])
                if value is not None and value != polarity:
                    blocker = {
                        "literal": pin_to_fanin[q],
                        "constant": value,
                        "required": polarity,
                    }
                    break
            if blocker is None:
                return None
            blocked.append(blocker)
        evidence.append({"pin": pin, "blocked": blocked})
    return evidence


__all__ = [
    "Segment",
    "path_segments",
    "segment_conditions_bdd",
    "path_conditions_bdd",
    "exhaustive_input_words",
    "net_value_words",
    "segment_conditions_words",
    "path_conditions_words",
    "minterm_to_vector",
    "ternary_constant_nets",
    "ternary_blocked_segment",
]
