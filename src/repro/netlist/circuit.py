"""Gate-level combinational circuits.

A :class:`Circuit` is a DAG of :class:`Gate` instances over named nets.  Every
gate drives exactly one net, named after the gate, matching the single-output
cells of :mod:`repro.netlist.cell`.  Primary inputs are nets with no driver;
primary outputs name nets (gate outputs or, degenerately, inputs).

The class owns structural validation (arity, dangling nets, cycles) and the
derived views every downstream pass needs: topological order, fanout maps,
fanin cones, and per-gate pin delays with aging scale factors applied.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping

from repro.errors import NetlistError
from repro.logic.cube import DASH, ONE
from repro.netlist.cell import Cell

#: One gate's primes of one set: each a tuple of ``(fanin, polarity, pin
#: delay)`` literals (see :meth:`Gate.prime_literals`).
PrimeLiterals = tuple[tuple[tuple[str, bool, int], ...], ...]


@dataclass(frozen=True)
class Gate:
    """One instantiated cell: ``name`` is also the driven net."""

    name: str
    cell: Cell
    fanins: tuple[str, ...]
    delay_scale: float = 1.0

    def __post_init__(self) -> None:
        if len(self.fanins) != self.cell.num_inputs:
            raise NetlistError(
                f"gate {self.name!r}: {len(self.fanins)} fanins for cell "
                f"{self.cell.name!r} with {self.cell.num_inputs} pins"
            )
        if self.delay_scale < 1.0:
            raise NetlistError(
                f"gate {self.name!r}: delay scale {self.delay_scale} < 1 "
                "(aging can only slow gates down)"
            )

    def pin_delay(self, pin: int) -> int:
        """Scaled integer delay from input ``pin`` to the output."""
        return self.pin_delays()[pin]

    def pin_delays(self) -> tuple[int, ...]:
        """All scaled pin delays (memoized; the dataclass is frozen)."""
        cached = self.__dict__.get("_pin_delays")
        if cached is None:
            cached = tuple(
                int(round(d * self.delay_scale)) for d in self.cell.pin_delays
            )
            object.__setattr__(self, "_pin_delays", cached)
        return cached

    def prime_literals(self) -> tuple[PrimeLiterals, PrimeLiterals]:
        """The cell's ``(on-set, off-set)`` primes on this gate (memoized).

        Each prime is a tuple of ``(fanin, polarity, pin delay)`` literals in
        pin order.
        """
        cached = self.__dict__.get("_prime_literals")
        if cached is None:
            pins = tuple(zip(self.fanins, self.pin_delays()))
            cached = tuple(
                tuple(
                    tuple(
                        (pins[i][0], v == ONE, pins[i][1])
                        for i, v in enumerate(prime.values)
                        if v != DASH
                    )
                    for prime in primes
                )
                for primes in self.cell.primes()
            )
            object.__setattr__(self, "_prime_literals", cached)
        return cached


class _HashedTuple(tuple):
    """A tuple that computes its hash once (its items are immutable)."""

    def __init__(self, items: tuple) -> None:
        self._hash = tuple.__hash__(self)

    def __hash__(self) -> int:
        return self._hash


class Circuit:
    """A combinational logic circuit (a DAG of gates over named nets)."""

    def __init__(
        self,
        name: str,
        inputs: Iterable[str] = (),
        outputs: Iterable[str] = (),
    ) -> None:
        self.name = name
        self._inputs: list[str] = []
        self._input_set: set[str] = set()
        self._outputs: list[str] = []
        self._gates: dict[str, Gate] = {}
        self._gates_view: Mapping[str, Gate] = MappingProxyType(self._gates)
        self._topo: list[str] | None = None
        self._fanouts: dict[str, list[tuple[str, int]]] | None = None
        self._version = 0
        self._netlist_key: tuple[int, _HashedTuple] | None = None
        self._validated_version: int | None = None
        for net in inputs:
            self.add_input(net)
        for net in outputs:
            self.add_output(net)

    # ------------------------------------------------------------- structure

    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary input net names, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[str, ...]:
        """Primary output net names, in declaration order."""
        return tuple(self._outputs)

    @property
    def gates(self) -> Mapping[str, Gate]:
        """Read-only *live* view of gates by output net name.

        A cached :class:`types.MappingProxyType` over the internal dict:
        O(1) to obtain (no copy per access) and always current.  Callers
        needing a snapshot should take ``dict(circuit.gates)`` explicitly.
        """
        return self._gates_view

    @property
    def num_gates(self) -> int:
        return len(self._gates)

    def add_input(self, net: str) -> None:
        """Declare a primary input net."""
        if net in self._input_set:
            raise NetlistError(f"duplicate input {net!r}")
        if net in self._gates:
            raise NetlistError(f"input {net!r} clashes with a gate output")
        self._inputs.append(net)
        self._input_set.add(net)
        self._invalidate()

    def add_output(self, net: str) -> None:
        """Declare a primary output (the net may be defined later)."""
        if net in self._outputs:
            raise NetlistError(f"duplicate output {net!r}")
        self._outputs.append(net)
        self._version += 1

    def add_gate(
        self,
        name: str,
        cell: Cell,
        fanins: Iterable[str],
        delay_scale: float = 1.0,
    ) -> Gate:
        """Instantiate ``cell`` driving net ``name`` from the given fanins."""
        if name in self._gates:
            raise NetlistError(f"duplicate gate {name!r}")
        if name in self._input_set:
            raise NetlistError(f"gate {name!r} clashes with a primary input")
        gate = Gate(name, cell, tuple(fanins), delay_scale)
        self._gates[name] = gate
        self._invalidate()
        return gate

    def remove_gate(self, name: str) -> None:
        """Remove a gate (callers must keep the circuit consistent)."""
        if name not in self._gates:
            raise NetlistError(f"no gate {name!r} to remove")
        del self._gates[name]
        self._invalidate()

    def replace_gate(self, gate: Gate) -> None:
        """Swap in a new :class:`Gate` for an existing net."""
        if gate.name not in self._gates:
            raise NetlistError(f"no gate {gate.name!r} to replace")
        self._gates[gate.name] = gate
        self._invalidate()

    def has_net(self, net: str) -> bool:
        """True iff ``net`` is a primary input or a gate output."""
        return net in self._input_set or net in self._gates

    def is_input(self, net: str) -> bool:
        return net in self._input_set

    def gate(self, net: str) -> Gate:
        """The gate driving ``net``; raises for inputs/undefined nets."""
        try:
            return self._gates[net]
        except KeyError:
            raise NetlistError(f"no gate drives net {net!r}") from None

    def nets(self) -> Iterator[str]:
        """All nets: inputs first, then gate outputs in insertion order."""
        yield from self._inputs
        yield from self._gates

    @property
    def version(self) -> int:
        """Monotone counter bumped on every structural change.

        Derived artifacts (e.g. :class:`repro.engine.CompiledCircuit`) cache
        against this to detect staleness without hashing the netlist.
        """
        return self._version

    def content_key(self) -> tuple[str, Hashable]:
        """The circuit's content as a dict key: name, inputs, outputs, gates.

        Gates are listed in topological order, since that order fixes the
        lift's node insertion order, which collapse's worklist follows.
        The netlist part is built and hashed once per :attr:`version`;
        the name is read live, because renaming does not bump the version.
        """
        cached = self._netlist_key
        if cached is None or cached[0] != self._version:
            gates = self._gates
            netlist = _HashedTuple((
                self.inputs,
                self.outputs,
                tuple(gates[name] for name in self.topo_order()),
            ))
            cached = self._netlist_key = (self._version, netlist)
        return (self.name, cached[1])

    def _invalidate(self) -> None:
        self._topo = None
        self._fanouts = None
        self._version += 1

    # ------------------------------------------------------------ validation

    def validate(self) -> None:
        """Check structural invariants; raises :class:`NetlistError`.

        Verifies that every fanin is driven, outputs exist, and the gate
        graph is acyclic (by computing the topological order).  A pass is
        remembered until the next :attr:`version`; a failure is not.
        """
        if self._validated_version == self._version:
            return
        for gate in self._gates.values():
            for net in gate.fanins:
                if not self.has_net(net):
                    raise NetlistError(
                        f"gate {gate.name!r} reads undefined net {net!r}"
                    )
        for net in self._outputs:
            if not self.has_net(net):
                raise NetlistError(f"output {net!r} is not driven")
        self.topo_order()  # raises on cycles
        self._validated_version = self._version

    # ---------------------------------------------------------- derived maps

    def topo_order(self) -> list[str]:
        """Gate names in topological (fanin-before-fanout) order."""
        if self._topo is not None:
            return self._topo
        indeg: dict[str, int] = {}
        dependents: dict[str, list[str]] = {}
        for gate in self._gates.values():
            count = 0
            for net in gate.fanins:
                if net in self._gates:
                    count += 1
                    dependents.setdefault(net, []).append(gate.name)
            indeg[gate.name] = count
        ready = [n for n, d in indeg.items() if d == 0]
        order: list[str] = []
        while ready:
            net = ready.pop()
            order.append(net)
            for dep in dependents.get(net, ()):
                indeg[dep] -= 1
                if indeg[dep] == 0:
                    ready.append(dep)
        if len(order) != len(self._gates):
            cyclic = sorted(n for n, d in indeg.items() if d > 0)
            raise NetlistError(f"circuit {self.name!r} has a cycle near {cyclic[:5]}")
        self._topo = order
        return order

    def fanouts(self) -> dict[str, list[tuple[str, int]]]:
        """Map net -> list of ``(gate_name, pin_index)`` readers."""
        if self._fanouts is None:
            out: dict[str, list[tuple[str, int]]] = {n: [] for n in self.nets()}
            for gate in self._gates.values():
                for pin, net in enumerate(gate.fanins):
                    out.setdefault(net, []).append((gate.name, pin))
            self._fanouts = out
        return self._fanouts

    def fanin_cone(self, net: str) -> set[str]:
        """Gate names in the transitive fanin of ``net`` (including it)."""
        if not self.has_net(net):
            raise NetlistError(f"unknown net {net!r}")
        cone: set[str] = set()
        stack = [net]
        while stack:
            n = stack.pop()
            if n in self._input_set or n in cone:
                continue
            cone.add(n)
            stack.extend(self._gates[n].fanins)
        return cone

    def cone_inputs(self, net: str) -> set[str]:
        """Primary inputs in the transitive fanin of ``net``."""
        if net in self._input_set:
            return {net}
        pis: set[str] = set()
        seen: set[str] = set()
        stack = [net]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if n in self._input_set:
                pis.add(n)
            else:
                stack.extend(self._gates[n].fanins)
        return pis

    def level_map(self) -> dict[str, int]:
        """Logic depth of every net (inputs are level 0)."""
        levels = {net: 0 for net in self._inputs}
        for name in self.topo_order():
            gate = self._gates[name]
            levels[name] = 1 + max((levels[f] for f in gate.fanins), default=0)
        return levels

    def depth(self) -> int:
        """Maximum logic depth over all nets."""
        levels = self.level_map()
        return max(levels.values(), default=0)

    # ------------------------------------------------------------- estimates

    def area(self) -> float:
        """Total cell area."""
        return sum(g.cell.area for g in self._gates.values())

    # ----------------------------------------------------------------- copies

    def copy(self, name: str | None = None) -> "Circuit":
        """Structural copy (gates are shared frozen values)."""
        c = Circuit(name or self.name, self._inputs, self._outputs)
        for gate in self._gates.values():
            c._gates[gate.name] = gate
        c._invalidate()
        return c

    def with_delay_scales(self, scales: Mapping[str, float]) -> "Circuit":
        """Copy with aging multipliers applied to the named gates."""
        c = self.copy()
        for name, scale in scales.items():
            gate = c.gate(name)
            c._gates[name] = replace(gate, delay_scale=scale)
        c._invalidate()
        return c

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Circuit({self.name!r}, {len(self._inputs)} in, "
            f"{len(self._outputs)} out, {len(self._gates)} gates)"
        )
