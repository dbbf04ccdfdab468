"""Shared infrastructure for SPCF computation: timed characteristic functions.

:class:`SpcfContext` bundles, for one circuit and one speed-path threshold:

* a BDD manager with one variable per primary input (in topological PI order),
* the *global function* ``F[net]`` of every net over the primary inputs,
  a :class:`CircuitFunctions` map: a net's BDD is composed on first access,
  so a query that discharges most of a circuit statically never pays for
  the cold cones,
* the STA report for the target ``Delta_y``: latest arrivals and
  prime-based earliest-stabilization bounds, read from maps built once per
  compiled circuit, and required times, swept only when first read (by the
  node-based algorithm; Eqn. 1 and the path-based walk never read them).

The global functions depend on neither the algorithm nor the threshold, so
by default every context on one circuit content shares one manager and one
map (:data:`_functions_cache`): a sweep builds each gate BDD once, and the
SPCFs of two contexts on one circuit are the same BDD edges.  A context
given an explicit ``manager=`` (whose first levels must then be the
inputs) builds its own map on it.  Each context keeps its own Eqn. 1 memo
tables and its own report, whose circuit-only timing maps are the shared
ones of :func:`repro.sta.timing.analyze`.

On top of it, :meth:`SpcfContext.stable` implements the paper's Eqn. 1 — the
pair of timed characteristic functions

* ``S0[net](t)`` — patterns whose final value at ``net`` is 0 *and* has
  stabilized by time ``t``,
* ``S1[net](t)`` — dito for final value 1,

computed recursively through the prime implicants of each cell's on-set and
off-set, with memoization on ``(net, t)``.  A ``(net, t)`` pair is resolved
without recursion when the inline bounds fire: ``t >= arrival[net]`` gives
``(¬F, F)`` and ``t < min_stable[net]`` gives ``(0, 0)``.  The recursions
run on raw BDD edges (ints) through ``BddManager._and`` and ``^ 1`` over
each gate's :meth:`~repro.netlist.circuit.Gate.prime_literals`; only the
public entry points wrap their results in :class:`Function`.

The *short-path-based* algorithm (the paper's contribution) is exactly this
recursion; the *path-based* and *node-based* algorithms reuse the context but
walk the circuit differently.
"""

from __future__ import annotations

from typing import Mapping

from repro import obs
from repro.bdd.manager import BddManager, Function
from repro.errors import SpcfError
from repro.logic.expr import BoolExpr
from repro.lru import LRUCache
from repro.netlist.circuit import Circuit
from repro.sta.timing import TimingReport, analyze

_METER = obs.get_meter()
_SHARED_HITS = _METER.counter(
    "repro_synth_bdd_manager_cache_hits_total",
    "SPCF contexts that reused the cached BDD manager and global functions "
    "of their circuit",
)
_SHARED_MISSES = _METER.counter(
    "repro_synth_bdd_manager_cache_misses_total",
    "SPCF contexts that created a BDD manager and global-function map for "
    "their circuit",
)


def expr_to_function(
    expr: BoolExpr, env: Mapping[str, Function], mgr: BddManager
) -> Function:
    """Evaluate a Boolean expression with BDD functions bound to its names."""
    if expr.op == "var":
        try:
            return env[expr.name]
        except KeyError:
            raise SpcfError(f"expression name {expr.name!r} unbound") from None
    if expr.op == "const":
        return mgr.true if expr.value else mgr.false
    if expr.op == "not":
        return ~expr_to_function(expr.args[0], env, mgr)
    fns = [expr_to_function(a, env, mgr) for a in expr.args]
    acc = fns[0]
    for f in fns[1:]:
        if expr.op == "and":
            acc = acc & f
        elif expr.op == "or":
            acc = acc | f
        else:
            acc = acc ^ f
    return acc


class CircuitFunctions(dict[str, Function]):
    """Global BDD of every net of ``circuit`` over ``manager``'s variables.

    A primary input is ``manager.var(net)``.  A gate net is built from its
    cell expression on first access, together with whatever of its fanin
    cone is still missing, in topological order on an explicit stack: no
    Python recursion per gate, so a cone of any depth builds.  This is the
    one place a gate's cell expression becomes a BDD.

    With a ``base`` map on the same manager, every net of ``base.circuit``
    is read from ``base`` (and built there if it is missing) instead of
    being built again, so only the nets ``circuit`` adds are built here.
    The precondition is that ``circuit`` drives those nets with the same
    gates, as :func:`repro.core.integrate.build_masked_design` guarantees:
    it copies the original gates unchanged and raises on a name collision.
    """

    def __init__(
        self,
        circuit: Circuit,
        manager: BddManager,
        base: CircuitFunctions | None = None,
    ) -> None:
        super().__init__()
        if base is not None and base.manager is not manager:
            raise SpcfError("a base function map must share the manager")
        self.circuit = circuit
        self.manager = manager
        self.base = base

    def __missing__(self, net: str) -> Function:
        circuit = self.circuit
        gates = circuit.gates
        base = self.base
        expanded: set[str] = set()
        stack = [net]
        while stack:
            name = stack[-1]
            if base is not None and base.circuit.has_net(name):
                self[name] = base[name]
                stack.pop()
                continue
            gate = gates.get(name)
            if gate is None:
                if not circuit.is_input(name):
                    raise SpcfError(
                        f"no net {name!r} in circuit {circuit.name!r}"
                    )
                self[name] = self.manager.var(name)
                stack.pop()
                continue
            for f in gate.fanins:
                if f not in self:
                    break
            else:  # every fanin is built: build the gate
                stack.pop()
                if name not in self:  # a net read by two gates sits twice
                    env = {pin: self[f] for pin, f in zip(gate.cell.inputs, gate.fanins)}
                    self[name] = expr_to_function(gate.cell.expr, env, self.manager)
                continue
            # Back on top with a fanin still missing: the cone loops.
            if name in expanded:
                raise SpcfError(
                    f"combinational loop through {name!r} in circuit "
                    f"{circuit.name!r}"
                )
            expanded.add(name)
            stack += [f for f in gate.fanins if f not in self]
        return self[net]


#: Most circuits :data:`_functions_cache` holds at once.  A manager keeps
#: every node it ever built, so only the last circuit's stays alive: a sweep
#: that runs all thresholds and algorithms of one circuit before the next
#: needs one entry.
FUNCTIONS_CACHE_SIZE = 1

#: One global-function map, on its own BDD manager, per circuit content
#: (:meth:`Circuit.content_key`), shared by every :class:`SpcfContext`
#: built without ``manager=``.  The manager holds only the primary inputs,
#: and every count taken in it is exact and over them, so sharing changes
#: no result.  The key also holds whether observability was on, as a
#: manager fixes its op counting when it is created.
_functions_cache: LRUCache[CircuitFunctions] = LRUCache(FUNCTIONS_CACHE_SIZE)


def shared_functions(circuit: Circuit) -> CircuitFunctions:
    """The cached global-function map of ``circuit``'s content.

    On a miss it starts a map on a fresh manager over a copy of the
    circuit, so editing ``circuit`` later cannot reach the cached gates.
    """
    key = (circuit.content_key(), obs.enabled())
    functions = _functions_cache.get(key)
    if functions is None:
        _SHARED_MISSES.add()
        functions = CircuitFunctions(circuit.copy(), BddManager(circuit.inputs))
        _functions_cache.put(key, functions)
    else:
        _SHARED_HITS.add()
    return functions


class SpcfContext:
    """Circuit + threshold context shared by the three SPCF algorithms."""

    def __init__(
        self,
        circuit: Circuit,
        threshold: float = 0.9,
        target: int | None = None,
        manager: BddManager | None = None,
    ) -> None:
        circuit.validate()
        self.circuit = circuit
        self.report: TimingReport = analyze(circuit, target=target, threshold=threshold)
        self.target = self.report.target
        inputs = circuit.inputs
        if manager is None:
            self.functions = shared_functions(circuit)
        else:
            # Counts run over the first len(inputs) levels, so the inputs
            # (the missing ones appended below) must fill exactly those.
            known = set(manager.var_names)
            order = manager.var_names + tuple(n for n in inputs if n not in known)
            if set(order[: len(inputs)]) != set(inputs):
                raise SpcfError(
                    f"BDD manager cannot count over the inputs of "
                    f"{circuit.name!r}: other variables come first"
                )
            for net in inputs:
                if net not in known:
                    manager.add_var(net)
            self.functions = CircuitFunctions(circuit, manager)
        self.manager = self.functions.manager
        # Memo tables for the timed characteristic functions, on BDD edges.
        self._stable_memo: dict[tuple[str, int], tuple[int, int]] = {}
        self._late_memo: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------- Eqn. 1 core

    def stable(self, net: str, t: int) -> tuple[Function, Function]:
        """``(S0, S1)`` — stabilized-by-``t`` characteristic functions."""
        s0, s1 = self._stable(net, t)
        return Function(self.manager, s0), Function(self.manager, s1)

    def late(self, net: str, t: int) -> Function:
        """Patterns whose value at ``net`` has *not* stabilized by ``t``."""
        s0, s1 = self._stable(net, t)
        return Function(self.manager, self.manager._and(s0 ^ 1, s1 ^ 1))

    def _stable(self, net: str, t: int) -> tuple[int, int]:
        """:meth:`stable` on BDD edges: ``S_v`` is the OR over the ``v``-set
        primes of the AND of each literal's ``S`` at ``t - delay``."""
        if t >= self.report.arrival[net]:
            f = self.functions[net].node
            return (f ^ 1, f)
        if t < self.report.min_stable[net]:
            return (0, 0)
        key = (net, t)
        memo = self._stable_memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        and_ = self.manager._and
        s1_s0 = []
        # On-set primes, then off-set; PIs never reach here (arrival == 0).
        for primes in self.circuit.gates[net].prime_literals():
            not_s = 1  # the OR, accumulated as the AND of complements
            for prime in primes:
                term = 1
                for fanin, polarity, delay in prime:
                    term = and_(term, self._stable(fanin, t - delay)[polarity])
                not_s = and_(not_s, term ^ 1)
            s1_s0.append(not_s ^ 1)
        result = memo[key] = (s1_s0[1], s1_s0[0])
        return result

    # ------------------------------------------------------------- conveniences

    @property
    def critical_outputs(self) -> tuple[str, ...]:
        """Outputs where at least one speed-path terminates."""
        return self.report.critical_outputs(self.circuit)

    def count(self, fn: Function) -> int:
        """Model count of an SPCF over the circuit's primary inputs."""
        return fn.count(len(self.circuit.inputs))
