"""Switching-power estimation.

Dynamic power of a CMOS gate is proportional to the switching activity of
its output net times the capacitance it drives.  Under the standard
temporal-independence model the activity of a net with signal probability
``p`` is ``2 p (1 - p)`` per cycle.  Signal probabilities are computed

* exactly, from the BDD model count of every net's global function
  (``method="bdd"``, default — cheap for control-logic cones), or
* statistically, from bit-parallel random simulation (``method="sim"``).

Only *relative* power matters for the paper's Table 2 (overhead of the
masking circuit versus the original), which this model captures.

The BDD method builds in a fresh manager unless given one that orders the
circuit's inputs first (see :data:`repro.core.masking._manager_cache`).
"""

from __future__ import annotations

from fractions import Fraction

from repro.bdd.manager import BddManager
from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.sim.logicsim import random_patterns, pack_patterns, simulate_words
from repro.spcf.timedfunc import expr_to_function


def signal_probabilities_bdd(
    circuit: Circuit, manager: BddManager | None = None
) -> dict[str, Fraction]:
    """Exact probability of each net being 1 under uniform random inputs.

    ``manager`` must order the circuit's inputs first, as counts are taken
    over its first ``len(circuit.inputs)`` levels.
    """
    if manager is None:
        mgr = BddManager(circuit.inputs)
    elif manager.var_names[: len(circuit.inputs)] != circuit.inputs:
        raise SimulationError(
            f"BDD manager does not order the inputs of {circuit.name!r} first"
        )
    else:
        mgr = manager
    fns = {net: mgr.var(net) for net in circuit.inputs}
    n = len(circuit.inputs)
    probs: dict[str, Fraction] = {net: Fraction(1, 2) for net in circuit.inputs}
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        env = {
            pin: fns[f] for pin, f in zip(gate.cell.inputs, gate.fanins)
        }
        fn = expr_to_function(gate.cell.expr, env, mgr)
        fns[name] = fn
        probs[name] = Fraction(fn.count(n), 1 << n) if n else Fraction(int(fn.is_true))
    return probs


def signal_probabilities_sim(
    circuit: Circuit, vectors: int = 2048, seed: int = 7
) -> dict[str, Fraction]:
    """Monte-Carlo signal probabilities via bit-parallel simulation."""
    if vectors <= 0:
        raise SimulationError("need a positive vector count")
    words, width = pack_patterns(
        circuit.inputs, random_patterns(circuit.inputs, vectors, seed=seed)
    )
    values = simulate_words(circuit, words, width)
    return {
        net: Fraction(bin(word).count("1"), width) for net, word in values.items()
    }


def switching_power(
    circuit: Circuit,
    method: str = "bdd",
    vectors: int = 2048,
    manager: BddManager | None = None,
) -> float:
    """Total switching power: ``sum(load_cap * 2 p (1-p))`` over gate outputs.

    ``manager`` is the BDD manager of ``method="bdd"`` (see
    :func:`signal_probabilities_bdd`); the ``"sim"`` method ignores it.
    """
    if method == "bdd":
        probs = signal_probabilities_bdd(circuit, manager=manager)
    elif method == "sim":
        probs = signal_probabilities_sim(circuit, vectors=vectors)
    else:
        raise SimulationError(f"unknown power method {method!r}")
    total = 0.0
    for name, gate in circuit.gates.items():
        p = float(probs[name])
        total += gate.cell.load_cap * 2.0 * p * (1.0 - p)
    return total
