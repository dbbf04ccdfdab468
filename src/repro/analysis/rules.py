"""The builtin netlist lint rules.

Every rule has a stable id (``LINT001`` ...), a kebab-case name, a fixed
severity, and a check function; :data:`RULES` lists all seven in id order.
Check functions receive the circuit, a shared :class:`LintContext` of
precomputed structural facts, and the
:class:`~repro.analysis.linter.LintConfig`; they yield
``(location, message, hint)`` triples which the linter wraps into
:class:`~repro.analysis.diagnostics.Diagnostic` records.

Rules must work on *structurally broken* circuits — the whole point of
``LINT001``/``LINT002`` is to diagnose netlists on which
:meth:`Circuit.validate` would raise — so nothing here may call
``topo_order()`` on the full circuit.  The :class:`LintContext` provides
cycle-safe traversals instead.

========  ======================  ========  =====================================
id        name                    severity  meaning
========  ======================  ========  =====================================
LINT001   combinational-loop      error     cycle through gate fanins
LINT002   dangling-net            error     fanin/output net with no driver
LINT003   unreachable-node        warning   gate feeding no primary output
LINT004   unused-pi               info      primary input read by nothing
LINT005   fanout-threshold        warning   net fanout above the configured limit
LINT006   non-monotone-arc-delay  warning   zero-delay arc on a non-constant gate
LINT007   constant-output         info      primary output is a constant function
========  ======================  ========  =====================================

``LINT004``/``LINT007`` are *info*, not warnings: the builtin paper
benchmarks are grown from published (inputs, outputs, gates) shapes, so
padded-but-unread inputs and outputs whose cones collapse to a constant are
expected by construction there.  Flows where either is a defect gate the
CLI with ``--fail-on info``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from repro.bdd.manager import BddManager
from repro.errors import LintError
from repro.netlist.circuit import Circuit, Gate
from repro.spcf.timedfunc import CircuitFunctions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.analysis.linter import LintConfig

from repro.analysis.diagnostics import Severity

#: A finding: (location, message, hint).
Finding = tuple[str, str, str]
CheckFn = Callable[[Circuit, "LintContext", "LintConfig"], Iterator[Finding]]

#: ``LINT007`` skips output cones that read more primary inputs than this.
MAX_FUNCTION_INPUTS = 24


class LintContext:
    """Cycle-safe structural facts shared by all rules of one lint run."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.gates: dict[str, Gate] = dict(circuit.gates)
        self.defined: set[str] = set(circuit.inputs) | set(self.gates)
        self._sccs: list[list[str]] | None = None
        self._reachable: set[str] | None = None

    # -------------------------------------------------------------- fanouts

    def fanout_counts(self) -> dict[str, int]:
        """Reader count per net (inputs and gate outputs)."""
        counts = {net: 0 for net in self.defined}
        for gate in self.gates.values():
            for net in gate.fanins:
                if net in counts:
                    counts[net] += 1
        return counts

    # --------------------------------------------------------------- cycles

    def cycles(self) -> list[list[str]]:
        """Non-trivial strongly connected components of the gate graph.

        Each entry is one combinational loop (gate names, sorted); a gate
        listing itself as a fanin forms a single-node cycle.  Iterative
        Tarjan, so deep circuits cannot overflow the Python stack.
        """
        if self._sccs is not None:
            return self._sccs
        gates = self.gates
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = 0

        for root in gates:
            if root in index:
                continue
            work = [(root, 0)]
            while work:
                node, child_i = work.pop()
                if child_i == 0:
                    index[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                fanins = [f for f in gates[node].fanins if f in gates]
                advanced = False
                for i in range(child_i, len(fanins)):
                    nxt = fanins[i]
                    if nxt not in index:
                        work.append((node, i + 1))
                        work.append((nxt, 0))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                if low[node] == index[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    if len(scc) > 1 or node in gates[node].fanins:
                        sccs.append(sorted(scc))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        self._sccs = sorted(sccs)
        return self._sccs

    # ---------------------------------------------------------- reachability

    def reachable_from_outputs(self) -> set[str]:
        """Nets in the transitive fanin of any primary output (cycle-safe)."""
        if self._reachable is not None:
            return self._reachable
        seen: set[str] = set()
        stack = [net for net in self.circuit.outputs if net in self.defined]
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            gate = self.gates.get(net)
            if gate is not None:
                stack.extend(f for f in gate.fanins if f in self.defined)
        self._reachable = seen
        return seen

    # ------------------------------------------------------------ cone logic

    def cone_function_constant(self, net: str) -> bool | None:
        """Whether the global function of ``net`` is constant.

        Returns ``True``/``False`` when decidable, ``None`` when the check is
        skipped: the cone is broken (dangling fanin, part of a cycle) or has
        more than :data:`MAX_FUNCTION_INPUTS` primary inputs.
        """
        circuit = self.circuit
        if circuit.is_input(net):
            return False
        # Collect the cone; bail out on dangling nets or cycles within it.
        cone: set[str] = set()
        pis: list[str] = []
        stack = [net]
        while stack:
            n = stack.pop()
            if n in cone:
                continue
            if circuit.is_input(n):
                cone.add(n)
                pis.append(n)
                continue
            gate = self.gates.get(n)
            if gate is None:
                return None
            cone.add(n)
            stack.extend(gate.fanins)
        if any(n in cone for scc in self.cycles() for n in scc):
            return None
        if len(pis) > MAX_FUNCTION_INPUTS:
            return None
        mgr = BddManager(sorted(pis, key=list(circuit.inputs).index))
        fn = CircuitFunctions(circuit, mgr)[net]
        return fn.is_true or fn.is_false


# --------------------------------------------------------------------- rules


def check_combinational_loop(
    circuit: Circuit, ctx: LintContext, config: "LintConfig"
) -> Iterator[Finding]:
    for scc in ctx.cycles():
        shown = ", ".join(scc[:6]) + (", ..." if len(scc) > 6 else "")
        yield (
            scc[0],
            f"combinational loop through {len(scc)} gate(s): {shown}",
            "break the cycle with a register or restructure the logic",
        )


def check_dangling_net(
    circuit: Circuit, ctx: LintContext, config: "LintConfig"
) -> Iterator[Finding]:
    for name in sorted(ctx.gates):
        gate = ctx.gates[name]
        for net in gate.fanins:
            if net not in ctx.defined:
                yield (
                    name,
                    f"gate {name!r} reads undriven net {net!r}",
                    "declare the net as a primary input or add its driver",
                )
    for net in circuit.outputs:
        if net not in ctx.defined:
            yield (
                net,
                f"primary output {net!r} is not driven",
                "add a gate driving the output or remove the declaration",
            )


def check_unreachable_node(
    circuit: Circuit, ctx: LintContext, config: "LintConfig"
) -> Iterator[Finding]:
    reachable = ctx.reachable_from_outputs()
    for name in sorted(ctx.gates):
        if name not in reachable:
            yield (
                name,
                f"gate {name!r} does not feed any primary output",
                "remove the dead logic or declare an output observing it",
            )


def check_unused_pi(
    circuit: Circuit, ctx: LintContext, config: "LintConfig"
) -> Iterator[Finding]:
    counts = ctx.fanout_counts()
    outputs = set(circuit.outputs)
    for net in circuit.inputs:
        if counts.get(net, 0) == 0 and net not in outputs:
            yield (
                net,
                f"primary input {net!r} is never read",
                "remove the input or connect it",
            )


def check_fanout_threshold(
    circuit: Circuit, ctx: LintContext, config: "LintConfig"
) -> Iterator[Finding]:
    counts = ctx.fanout_counts()
    for net in sorted(counts):
        if counts[net] > config.fanout_threshold:
            yield (
                net,
                f"net {net!r} drives {counts[net]} pins "
                f"(threshold {config.fanout_threshold})",
                "buffer the net or duplicate its driver",
            )


def check_non_monotone_arc_delay(
    circuit: Circuit, ctx: LintContext, config: "LintConfig"
) -> Iterator[Finding]:
    # The Eqn. 1 recursion steps time by ``t - delay(pin)``; a zero-delay
    # arc on a real (non-constant) gate makes arrival/stabilization times
    # non-monotone in logic depth, so speed-paths can hide behind it.
    for name in sorted(ctx.gates):
        gate = ctx.gates[name]
        if gate.cell.num_inputs == 0:
            continue
        zero_pins = [i for i in range(gate.cell.num_inputs) if gate.pin_delay(i) == 0]
        if zero_pins:
            pins = ", ".join(gate.cell.inputs[i] for i in zero_pins)
            yield (
                name,
                f"gate {name!r} ({gate.cell.name}) has zero-delay arc(s) "
                f"on pin(s) {pins}",
                "give every arc of a non-constant cell a delay >= 1",
            )


def check_constant_output(
    circuit: Circuit, ctx: LintContext, config: "LintConfig"
) -> Iterator[Finding]:
    for net in circuit.outputs:
        if net not in ctx.defined or circuit.is_input(net):
            continue
        gate = ctx.gates[net]
        if gate.cell.num_inputs == 0:
            yield (
                net,
                f"output {net!r} is driven by constant cell {gate.cell.name!r}",
                "tie-offs on outputs usually indicate a synthesis bug",
            )
            continue
        constant = ctx.cone_function_constant(net)
        if constant:
            yield (
                net,
                f"output {net!r} computes a constant function",
                "the cone reduces to a tie-off; check the logic feeding it",
            )


#: Every rule as ``(rule_id, name, severity, description, check)``, in id order.
RULES: tuple[tuple[str, str, Severity, str, CheckFn], ...] = (
    ("LINT001", "combinational-loop", Severity.ERROR,
     "gates forming a combinational cycle", check_combinational_loop),
    ("LINT002", "dangling-net", Severity.ERROR,
     "net referenced but driven by nothing", check_dangling_net),
    ("LINT003", "unreachable-node", Severity.WARNING,
     "gate outside every primary-output cone", check_unreachable_node),
    ("LINT004", "unused-pi", Severity.INFO,
     "primary input with no reader", check_unused_pi),
    ("LINT005", "fanout-threshold", Severity.WARNING,
     "net fanout above the configured threshold", check_fanout_threshold),
    ("LINT006", "non-monotone-arc-delay", Severity.WARNING,
     "zero-delay arc breaks stabilization-time monotonicity",
     check_non_monotone_arc_delay),
    ("LINT007", "constant-output", Severity.INFO,
     "primary output computes a constant function", check_constant_output),
)


def resolve_rule_ids(names: frozenset[str]) -> frozenset[str]:
    """Map rule ids *or* rule names to rule ids; raise on unknown entries."""
    by_key = {key: r[0] for r in RULES for key in r[:2]}
    unknown = sorted(names - by_key.keys())
    if unknown:
        raise LintError(
            f"unknown lint rule {unknown[0]!r}; known rules: "
            f"{[r[0] for r in RULES]}"
        )
    return frozenset(by_key[entry] for entry in names)
