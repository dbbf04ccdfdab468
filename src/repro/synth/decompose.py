"""Decomposition of covers and factored expressions into library gates.

Covers are factored algebraically (:mod:`repro.logic.factoring`) into a
tree of plain tuples, which is lowered directly; :func:`decompose_expr`
converts a :class:`~repro.logic.expr.BoolExpr` into the same tree and lowers
it the same way.  The lowering

* pushes negations down to the literals (De Morgan), so an inverted cover
  costs inverters at the leaves instead of one slow output inverter,
* flattens associative AND/OR chains and rebuilds them as balanced trees,
* structurally hashes every created gate (commutative inputs normalized), so
  shared subexpressions — e.g. a kernel used by several nodes of the masking
  network — are instantiated once.

Balanced trees plus factoring are what let the mapped masking circuit meet
the paper's >= 20% slack requirement.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import SynthesisError
from repro.logic.cover import Cover
from repro.logic.expr import BoolExpr
from repro.logic.factoring import Tree, factor_tree
from repro.netlist.cell import Cell
from repro.netlist.circuit import Circuit
from repro.netlist.library import Library

_SYMMETRIC_CELLS = {"AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2"}


class GateBuilder:
    """Helper appending library gates to a circuit with fresh net names.

    All construction goes through :meth:`emit`, which structurally hashes
    ``(cell, fanins)`` so identical gates are shared.

    With ``circuit=None`` the builder only costs: no netlist is built, and
    fresh names avoid ``inputs`` plus the builder's own nets — the nets a
    scratch circuit over ``inputs`` would hold — so the names are the same
    either way.  As each gate is emitted the builder records its latest
    arrival time in :attr:`arrival` and adds its cell to :attr:`area`.
    Both are meaningful only in that cost-only mode: there every net the
    builder does not drive is an input arriving at 0, and the two equal
    what static timing analysis and :meth:`Circuit.area` report on a
    scratch circuit over ``inputs`` holding the same gates.  When building
    into a circuit, gates added to it directly and nets driven elsewhere
    are invisible to them, and :meth:`claim_as` reorders the circuit's
    gates, so read delay and area from the circuit instead.
    """

    def __init__(
        self,
        circuit: Circuit | None,
        library: Library,
        prefix: str,
        inputs: Iterable[str] = (),
    ) -> None:
        self.circuit = circuit
        self.library = library
        self.prefix = prefix
        #: Latest arrival time of every net driven by this builder
        #: (meaningful only with ``circuit=None``).
        self.arrival: dict[str, int] = {}
        #: Total cell area emitted so far, summed in emit order
        #: (meaningful only with ``circuit=None``).
        self.area = 0.0
        self._inputs = frozenset(inputs)
        self._counter = 0
        self._strash: dict[tuple[str, tuple[str, ...]], str] = {}
        self._created: set[str] = set()
        self._read: set[str] = set()

    def _taken(self, name: str) -> bool:
        """True iff ``name`` is a net of the circuit being built."""
        if self.circuit is not None:
            return self.circuit.has_net(name)
        return name in self.arrival or name in self._inputs

    def fresh(self, tag: str) -> str:
        """A new unique net name."""
        while True:
            name = f"{self.prefix}{tag}_{self._counter}"
            self._counter += 1
            if not self._taken(name):
                return name

    def _record(self, out: str, cell: Cell, fanins: tuple[str, ...]) -> None:
        """Add a gate to the circuit (if any), its arrival and its area."""
        if self.circuit is not None:
            self.circuit.add_gate(out, cell, fanins)
        arrival = self.arrival
        latest = 0  # pin delays are non-negative
        for f, d in zip(fanins, cell.pin_delays):
            t = arrival.get(f, 0) + d
            if t > latest:
                latest = t
        arrival[out] = latest
        self.area += cell.area
        self._read.update(fanins)

    def emit(self, cell_name: str, fanins: Sequence[str], tag: str) -> str:
        """Instantiate (or reuse) a gate; returns its output net."""
        fanins = tuple(fanins)
        if cell_name in _SYMMETRIC_CELLS:
            fanins = tuple(sorted(fanins))
        key = (cell_name, fanins)
        cached = self._strash.get(key)
        if cached is not None:
            return cached
        out = self.fresh(tag)
        self._record(out, self.library.get(cell_name), fanins)
        self._strash[key] = out
        self._created.add(out)
        return out

    def claim_as(self, net: str, name: str) -> bool:
        """Rename a freshly-built internal net to ``name`` (no buffer needed).

        Only nets created by this builder, not yet claimed, and not read by
        any other gate can be renamed; returns ``False`` when the caller
        should fall back to a buffer.
        """
        if (
            net not in self._created
            or net in self._read
            or self._taken(name)
        ):
            return False
        if self.circuit is not None:
            gate = self.circuit.gate(net)
            self.circuit.remove_gate(net)
            self.circuit.add_gate(name, gate.cell, gate.fanins, gate.delay_scale)
        self.arrival[name] = self.arrival.pop(net)
        for key, value in self._strash.items():
            if value == net:
                self._strash[key] = name
        self._created.discard(net)
        return True

    def inverter(self, net: str) -> str:
        """Net carrying ``~net`` (shared per source net)."""
        return self.emit("INV", (net,), "inv")

    def literal(self, net: str, polarity: bool) -> str:
        """Net carrying the literal ``net`` or ``~net``."""
        return net if polarity else self.inverter(net)

    def constant(self, value: bool) -> str:
        """Net tied to constant 0 or 1."""
        return self.emit("ONE" if value else "ZERO", (), "const")

    def _tree(self, nets: Sequence[str], cell_name: str, tag: str) -> str:
        if not nets:
            raise SynthesisError(f"empty {tag} tree")
        level = list(nets)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(self.emit(cell_name, (level[i], level[i + 1]), tag))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def and_tree(self, nets: Sequence[str]) -> str:
        """Balanced AND of the given nets (a single net passes through)."""
        return self._tree(nets, "AND2", "and")

    def or_tree(self, nets: Sequence[str]) -> str:
        """Balanced OR of the given nets."""
        return self._tree(nets, "OR2", "or")

    def mux(self, select: str, when0: str, when1: str) -> str:
        """2-to-1 multiplexer: ``select ? when1 : when0``."""
        return self.emit("MUX2", (select, when0, when1), "mux")

    def buffer_as(self, net: str, out_name: str) -> str:
        """Drive the named net from ``net`` through a buffer."""
        self._record(out_name, self.library.get("BUF"), (net,))
        return out_name


def _to_tree(expr: BoolExpr, negate: bool = False) -> Tree:
    """``expr`` (complemented if ``negate``) as a tree with its negations
    pushed to the literals: :data:`~repro.logic.factoring.Tree` nodes, where
    an and/or node may have any number of arguments, plus
    ``("xor", inverted, *args)``."""
    op = expr.op
    if op == "var":
        return ("lit", expr.name, not negate)
    if op == "const":
        return ("const", expr.value != negate)
    if op == "not":
        return _to_tree(expr.args[0], not negate)
    if op == "xor":
        return ("xor", negate, *(_to_tree(a) for a in expr.args))
    if negate:
        op = "or" if op == "and" else "and"
    return (op, *(_to_tree(a, negate) for a in expr.args))


def _flatten(tree: Tree, op: str, out: list[Tree]) -> None:
    """The arguments of the associative chain of ``op`` rooted at ``tree``."""
    for arg in tree[1:]:
        if arg[0] == op:
            _flatten(arg, op, out)
        else:
            out.append(arg)


def _lower(tree: Tree, builder: GateBuilder, negate: bool) -> str:
    """Gates of ``tree`` (complemented if ``negate``); returns the result net."""
    op = tree[0]
    if op == "lit":
        return builder.literal(tree[1], tree[2] != negate)
    if op == "const":
        return builder.constant(tree[1] != negate)
    if op == "xor":
        nets = [_lower(a, builder, False) for a in tree[2:]]
        acc = nets[0]
        for net in nets[1:]:
            acc = builder.emit("XOR2", (acc, net), "xor") if "XOR2" in builder.library \
                else _xor_fallback(builder, acc, net)
        return builder.inverter(acc) if tree[1] != negate else acc
    # and / or: one balanced tree per chain, De Morgan applied under negate.
    leaves: list[Tree] = []
    _flatten(tree, op, leaves)
    nets = [_lower(leaf, builder, negate) for leaf in leaves]
    if (op == "and") != negate:
        return builder.and_tree(nets)
    return builder.or_tree(nets)


def decompose_expr(expr: BoolExpr, builder: GateBuilder, negate: bool = False) -> str:
    """Lower a Boolean expression to gates; returns the result net.

    Variable names in the expression are interpreted as existing net names.
    """
    return _lower(_to_tree(expr), builder, negate)


def _xor_fallback(builder: GateBuilder, a: str, b: str) -> str:
    na, nb = builder.inverter(a), builder.inverter(b)
    return builder.or_tree(
        [builder.and_tree([a, nb]), builder.and_tree([na, b])]
    )


def decompose_cover(
    cover: Cover,
    builder: GateBuilder,
    invert_output: bool = False,
) -> str:
    """Factor and lower an SOP cover; returns the net of the result.

    ``invert_output`` implements the complement of the cover, with the
    inversion pushed to the leaves (used for ``n~ = NOT n^0``).  An empty
    cover factors to constant 0.
    """
    return _lower(factor_tree(cover), builder, invert_output)
