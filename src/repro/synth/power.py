"""Switching-power estimation.

Dynamic power of a CMOS gate is proportional to the switching activity of
its output net times the capacitance it drives.  Under the standard
temporal-independence model the activity of a net with signal probability
``p`` is ``2 p (1 - p)`` per cycle.  Signal probabilities are exact: the
BDD model count of every net's global function (cheap for control-logic
cones).

Only *relative* power matters for the paper's Table 2 (overhead of the
masking circuit versus the original), which this model captures.

Probabilities are read from a given global-function map
(:class:`~repro.spcf.timedfunc.CircuitFunctions` of the circuit) whose
manager's first levels hold the circuit's inputs, in any order: a masking
run passes its SPCF context's map for the original circuit and the masked
design's map (built on it) for the design, so no gate is built twice.
Without a map, a fresh one is built in a fresh manager.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from repro.bdd.manager import BddManager
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.spcf.timedfunc import CircuitFunctions


def _counts(
    circuit: Circuit, functions: CircuitFunctions | None, nets: Iterable[str]
) -> tuple[int, dict[str, int]]:
    """``(n, counts)``: the input count and, per net of ``nets``, how many
    of the ``2**n`` input patterns set it to 1."""
    n = len(circuit.inputs)
    if functions is None:
        functions = CircuitFunctions(circuit, BddManager(circuit.inputs))
    elif set(functions.manager.var_names[:n]) != set(circuit.inputs):
        raise SimulationError(
            f"BDD manager does not hold the inputs of {circuit.name!r} first"
        )
    counts: dict[str, int] = {}
    for name in nets:
        fn = functions[name]
        counts[name] = fn.count(n) if n else int(fn.is_true)
    return n, counts


def signal_probabilities_bdd(
    circuit: Circuit, functions: CircuitFunctions | None = None
) -> dict[str, Fraction]:
    """Exact probability of each net being 1 under uniform random inputs.

    ``functions`` must map ``circuit``'s nets, and its manager's first
    ``len(circuit.inputs)`` levels must hold the circuit's inputs, in any
    order, as counts are taken over those levels.
    """
    n, counts = _counts(circuit, functions, circuit.topo_order())
    probs: dict[str, Fraction] = {net: Fraction(1, 2) for net in circuit.inputs}
    for name, count in counts.items():
        probs[name] = Fraction(count, 1 << n)
    return probs


def switching_power(
    circuit: Circuit,
    functions: CircuitFunctions | None = None,
    gates: Iterable[str] | None = None,
) -> float:
    """Total switching power: ``sum(load_cap * 2 p (1-p))`` over gate outputs.

    ``functions`` is taken as by :func:`signal_probabilities_bdd`.  Each
    ``p`` is ``count / 2**n`` as a float: int true division rounds
    correctly, so it equals ``float`` of the exact :class:`Fraction`.
    ``gates`` limits the sum to those gate nets, in the given order (by
    default every gate, in ``circuit.gates`` order); only their functions
    are read.
    """
    names = list(circuit.gates if gates is None else gates)
    n, counts = _counts(circuit, functions, names)
    patterns = 1 << n
    total = 0.0
    for name in names:
        p = counts[name] / patterns
        total += circuit.gates[name].cell.load_cap * 2.0 * p * (1.0 - p)
    return total
