"""Compiled circuit intermediate representation.

:func:`compile_circuit` lowers a :class:`~repro.netlist.circuit.Circuit`
*once* into a :class:`CompiledCircuit`: levelized, integer-indexed flat
arrays — gate opcode programs, fanin index lists, per-pin scaled delays,
output indices, and cached topo/level/fanout views.  Every evaluation pass
(zero-delay simulation, the floating-mode oracle, event-driven timing, STA,
and the Monte-Carlo verifiers) walks these arrays instead of re-deriving
topological order and paying per-gate dict lookups.

Net indexing convention: nets ``0 .. n_inputs-1`` are the primary inputs in
declaration order; nets ``n_inputs .. n_nets-1`` are the gate outputs in
topological order.  Gate *position* ``p`` therefore drives net index
``n_inputs + p``.

Cell functions are compiled twice, each once per distinct cell (cached
library-wide, keyed by cell content):

* an **opcode program** — a flat postfix tuple interpreted by
  :func:`run_program` (the readable reference, also used by tests), and
* a **generated Python function** taking ``(mask, pin0, pin1, ...)``
  words and returning the output word.
  ``NOT`` is emitted as ``mask ^ x``, so no word needs masking afterwards.

The lowering is cached on the circuit against :attr:`Circuit.version`, so
repeated passes over an unmodified circuit compile exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro import obs
from repro.errors import EngineError, SimulationError
from repro.logic.cube import DASH, ONE
from repro.logic.expr import BoolExpr
from repro.lru import LRUCache
from repro.netlist.cell import CELL_CACHE_SIZE, Cell
from repro.netlist.circuit import Circuit

_TRACER = obs.get_tracer("engine")
_METER = obs.get_meter()
_COMPILE_HITS = _METER.counter(
    "repro_engine_compile_cache_hits_total",
    "compile_circuit calls served from the Circuit.version cache",
)
_COMPILE_MISSES = _METER.counter(
    "repro_engine_compile_cache_misses_total",
    "compile_circuit calls that ran a fresh lowering",
)
_IR_GATES = _METER.gauge(
    "repro_engine_ir_gates", "gate count of the most recently lowered circuit"
)
_IR_NETS = _METER.gauge(
    "repro_engine_ir_nets", "net count of the most recently lowered circuit"
)

#: Opcodes of the postfix gate programs (``run_program`` is the interpreter).
OP_LOAD = 0  #: push the word of fanin pin ``arg``
OP_CONST = 1  #: push ``mask`` if ``arg`` else ``0``
OP_NOT = 2  #: pop x, push ``mask ^ x``
OP_AND = 3  #: pop y, x, push ``x & y``
OP_OR = 4  #: pop y, x, push ``x | y``
OP_XOR = 5  #: pop y, x, push ``x ^ y``

_BINOP = {"and": OP_AND, "or": OP_OR, "xor": OP_XOR}


def compile_program(
    expr: BoolExpr, pin_index: Mapping[str, int]
) -> tuple[tuple[int, int], ...]:
    """Lower a cell expression to a flat postfix opcode program."""
    prog: list[tuple[int, int]] = []

    def emit(e: BoolExpr) -> None:
        if e.op == "var":
            prog.append((OP_LOAD, pin_index[e.name]))
        elif e.op == "const":
            prog.append((OP_CONST, 1 if e.value else 0))
        elif e.op == "not":
            emit(e.args[0])
            prog.append((OP_NOT, 0))
        elif e.op in _BINOP:
            code = _BINOP[e.op]
            emit(e.args[0])
            for a in e.args[1:]:
                emit(a)
                prog.append((code, 0))
        else:  # pragma: no cover - parser emits only the ops above
            raise EngineError(f"cannot lower expression op {e.op!r}")

    emit(expr)
    return tuple(prog)


def run_program(
    program: Sequence[tuple[int, int]], mask: int, pins: Sequence[int]
) -> int:
    """Interpret an opcode program over integer words (reference semantics)."""
    stack: list[int] = []
    for op, arg in program:
        if op == OP_LOAD:
            stack.append(pins[arg])
        elif op == OP_CONST:
            stack.append(mask if arg else 0)
        elif op == OP_NOT:
            stack[-1] = mask ^ stack[-1]
        else:
            y = stack.pop()
            if op == OP_AND:
                stack[-1] &= y
            elif op == OP_OR:
                stack[-1] |= y
            elif op == OP_XOR:
                stack[-1] ^= y
            else:  # pragma: no cover - defensive
                raise EngineError(f"bad opcode {op}")
    if len(stack) != 1:  # pragma: no cover - compile_program invariant
        raise EngineError("malformed program: stack depth != 1")
    return stack[0]


def _expr_source(e: BoolExpr, pin_index: Mapping[str, int]) -> str:
    if e.op == "var":
        return f"p{pin_index[e.name]}"
    if e.op == "const":
        return "m" if e.value else "(m & 0)"
    if e.op == "not":
        return f"(m ^ {_expr_source(e.args[0], pin_index)})"
    sep = {"and": " & ", "or": " | ", "xor": " ^ "}[e.op]
    return "(" + sep.join(_expr_source(a, pin_index) for a in e.args) + ")"


_program_cache: LRUCache[tuple[tuple[int, int], ...]] = LRUCache(CELL_CACHE_SIZE)


def cell_program(cell: Cell) -> tuple[tuple[int, int], ...]:
    """The opcode program of ``cell`` over its pin order (cached per cell)."""
    key = cell._key
    program = _program_cache.get(key)
    if program is None:
        pin_index = {pin: i for i, pin in enumerate(cell.inputs)}
        program = compile_program(cell.expr, pin_index)
        _program_cache.put(key, program)
    return program


_func_cache: LRUCache[Callable[..., int]] = LRUCache(CELL_CACHE_SIZE)


def cell_word_function(cell: Cell) -> Callable[..., int]:
    """The generated word-evaluation function of ``cell`` (cached per cell).

    Signature ``f(mask, pin0, ..., pinN) -> word`` with
    ``mask = (1 << width) - 1``; complement is emitted as ``mask ^ x``.
    """
    key = cell._key
    func = _func_cache.get(key)
    if func is None:
        pin_index = {pin: i for i, pin in enumerate(cell.inputs)}
        params = "".join(f", p{i}" for i in range(cell.num_inputs))
        src = f"def _f(m{params}):\n    return {_expr_source(cell.expr, pin_index)}\n"
        namespace: dict[str, Any] = {}
        exec(compile(src, f"<cell {cell.name}>", "exec"), namespace)
        func = namespace["_f"]
        _func_cache.put(key, func)
    return func


_prime_cache: LRUCache[tuple[tuple, tuple]] = LRUCache(CELL_CACHE_SIZE)


def cell_prime_tables(
    cell: Cell,
) -> tuple[
    tuple[tuple[tuple[int, ...], tuple[bool, ...]], ...],
    tuple[tuple[tuple[int, ...], tuple[bool, ...]], ...],
]:
    """On-set/off-set primes as ``(pin_positions, polarities)`` tuples.

    The index-based form of :meth:`Cell.primes`, precomputed once per cell so
    the floating-mode oracle and STA never touch pin-name dicts.
    """
    key = cell._key
    cached = _prime_cache.get(key)
    if cached is None:
        on, off = cell.primes()

        def table(primes):
            rows = []
            for prime in primes:
                pins = tuple(i for i, v in enumerate(prime.values) if v != DASH)
                rows.append((pins, tuple(prime.values[i] == ONE for i in pins)))
            return tuple(rows)

        cached = (table(on), table(off))
        _prime_cache.put(key, cached)
    return cached


@dataclass(frozen=True, eq=False)
class CompiledCircuit:
    """A :class:`Circuit` lowered to levelized, integer-indexed flat arrays.

    Immutable; derived views (evaluation plan, fanouts, arrival times and
    their shared name maps) are computed lazily and cached.  It pickles
    as its arrays and cells alone: the derived views, which hold generated
    functions and read-only maps, are rebuilt on demand after loading.
    """

    name: str
    source_version: int
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    net_names: tuple[str, ...]
    n_inputs: int
    gate_names: tuple[str, ...]
    gate_cells: tuple[Cell, ...]
    gate_fanins: tuple[tuple[int, ...], ...]
    gate_delays: tuple[tuple[int, ...], ...]
    gate_programs: tuple[tuple[tuple[int, int], ...], ...]
    levels: tuple[int, ...]
    output_index: tuple[int, ...]
    _derived: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------- structure

    @property
    def n_nets(self) -> int:
        return len(self.net_names)

    @property
    def n_gates(self) -> int:
        return len(self.gate_names)

    @property
    def net_index(self) -> Mapping[str, int]:
        """Net name -> index (inputs first, then gates in topo order)."""
        idx = self._derived.get("net_index")
        if idx is None:
            idx = {n: i for i, n in enumerate(self.net_names)}
            self._derived["net_index"] = idx
        return idx

    @property
    def gate_position(self) -> Mapping[str, int]:
        """Gate name -> position in the topological gate arrays."""
        pos = self._derived.get("gate_position")
        if pos is None:
            pos = {n: p for p, n in enumerate(self.gate_names)}
            self._derived["gate_position"] = pos
        return pos

    @property
    def plan(self) -> tuple[tuple[Callable[..., int], int, tuple[int, ...]], ...]:
        """Evaluation plan: ``(word_func, out_net_index, fanin_indices)``."""
        plan = self._derived.get("plan")
        if plan is None:
            plan = tuple(
                (cell_word_function(cell), self.n_inputs + pos, fanins)
                for pos, (cell, fanins) in enumerate(
                    zip(self.gate_cells, self.gate_fanins)
                )
            )
            self._derived["plan"] = plan
        return plan

    def fanouts(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per net index: ``(reader_gate_position, pin)`` pairs."""
        fo = self._derived.get("fanouts")
        if fo is None:
            lists: list[list[tuple[int, int]]] = [[] for _ in self.net_names]
            for pos, fanins in enumerate(self.gate_fanins):
                for pin, net in enumerate(fanins):
                    lists[net].append((pos, pin))
            fo = tuple(tuple(entry) for entry in lists)
            self._derived["fanouts"] = fo
        return fo

    def gate_primes(self, pos: int):
        """On/off prime tables of gate ``pos`` (index/polarity form)."""
        return cell_prime_tables(self.gate_cells[pos])

    # ---------------------------------------------------------------- timing

    def arrival(self) -> tuple[int, ...]:
        """Latest arrival time per net (classic topological max-plus)."""
        arr = self._derived.get("arrival")
        if arr is None:
            times = [0] * self.n_nets
            for pos, (fanins, delays) in enumerate(
                zip(self.gate_fanins, self.gate_delays)
            ):
                idx = self.n_inputs + pos
                times[idx] = max(
                    (times[f] + d for f, d in zip(fanins, delays)), default=0
                )
            arr = tuple(times)
            self._derived["arrival"] = arr
        return arr

    def min_stable(self) -> tuple[int, ...]:
        """Prime-implicant lower bound on stabilization time per net."""
        ms = self._derived.get("min_stable")
        if ms is None:
            times = [0] * self.n_nets
            for pos, (fanins, delays) in enumerate(
                zip(self.gate_fanins, self.gate_delays)
            ):
                idx = self.n_inputs + pos
                if not fanins:
                    continue
                on, off = self.gate_primes(pos)
                best = None
                for pins, _pols in (*on, *off):
                    worst = 0
                    for p in pins:
                        t = times[fanins[p]] + delays[p]
                        if t > worst:
                            worst = t
                    if best is None or worst < best:
                        best = worst
                times[idx] = best if best is not None else 0
            ms = tuple(times)
            self._derived["min_stable"] = ms
        return ms

    def critical_delay(self) -> int:
        """Largest arrival time over the primary outputs."""
        arrival = self.arrival()
        return max((arrival[i] for i in self.output_index), default=0)

    # ------------------------------------------------------------ evaluation

    def eval_bits(self, input_bits: Sequence[int]) -> list[int]:
        """Evaluate one pattern (0/1 per input, engine-ordered) -> all nets."""
        if len(input_bits) != self.n_inputs:
            raise EngineError(
                f"{len(input_bits)} input bits for {self.n_inputs} inputs"
            )
        values = [0] * self.n_nets
        for i, bit in enumerate(input_bits):
            values[i] = 1 if bit else 0
        for func, out, fanins in self.plan:
            values[out] = func(1, *[values[f] for f in fanins])
        return values

    def eval_pattern(self, pattern: Mapping[str, bool]) -> list[int]:
        """Evaluate one ``{input: bool}`` pattern -> 0/1 word per net."""
        bits = []
        for net in self.inputs:
            try:
                bits.append(1 if pattern[net] else 0)
            except KeyError:
                raise SimulationError(f"pattern missing input {net!r}") from None
        return self.eval_bits(bits)

    # --------------------------------------------------------------- rebuild

    def with_delay_scales(self, scales: Mapping[str, float]) -> "CompiledCircuit":
        """A compiled copy with aging multipliers applied to named gates.

        Only the delay arrays are rebuilt; logic structure, programs, and
        cached functions are shared.  Mirrors
        :meth:`Circuit.with_delay_scales` without re-lowering.
        """
        position = self.gate_position
        for name, scale in scales.items():
            if name not in position:
                raise EngineError(f"no gate {name!r} to scale")
            if scale < 1.0:
                raise EngineError(
                    f"gate {name!r}: delay scale {scale} < 1 "
                    "(aging can only slow gates down)"
                )
        delays = list(self.gate_delays)
        for name, scale in scales.items():
            pos = position[name]
            cell = self.gate_cells[pos]
            delays[pos] = tuple(
                int(round(d * scale)) for d in cell.pin_delays
            )
        return CompiledCircuit(
            name=self.name,
            source_version=-1,
            inputs=self.inputs,
            outputs=self.outputs,
            net_names=self.net_names,
            n_inputs=self.n_inputs,
            gate_names=self.gate_names,
            gate_cells=self.gate_cells,
            gate_fanins=self.gate_fanins,
            gate_delays=tuple(delays),
            gate_programs=self.gate_programs,
            levels=self.levels,
            output_index=self.output_index,
        )

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_derived": {}}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompiledCircuit({self.name!r}, {self.n_inputs} in, "
            f"{len(self.output_index)} out, {self.n_gates} gates, "
            f"depth {max(self.levels, default=0)})"
        )


def _lower(circuit: Circuit) -> CompiledCircuit:
    order = circuit.topo_order()
    inputs = circuit.inputs
    n_inputs = len(inputs)
    net_names = (*inputs, *order)
    net_index = {n: i for i, n in enumerate(net_names)}

    gates = circuit.gates
    cells: list[Cell] = []
    fanins: list[tuple[int, ...]] = []
    delays: list[tuple[int, ...]] = []
    programs: list[tuple[tuple[int, int], ...]] = []
    levels = [0] * len(net_names)
    for pos, name in enumerate(order):
        gate = gates[name]
        cell = gate.cell
        try:
            fi = tuple(net_index[f] for f in gate.fanins)
        except KeyError as exc:
            raise EngineError(
                f"gate {name!r} reads undefined net {exc.args[0]!r}"
            ) from None
        cells.append(cell)
        fanins.append(fi)
        delays.append(gate.pin_delays())
        programs.append(cell_program(cell))
        levels[n_inputs + pos] = 1 + max((levels[f] for f in fi), default=-1)

    try:
        output_index = tuple(net_index[n] for n in circuit.outputs)
    except KeyError as exc:
        raise EngineError(f"output {exc.args[0]!r} is not driven") from None

    return CompiledCircuit(
        name=circuit.name,
        source_version=circuit.version,
        inputs=inputs,
        outputs=circuit.outputs,
        net_names=net_names,
        n_inputs=n_inputs,
        gate_names=tuple(order),
        gate_cells=tuple(cells),
        gate_fanins=tuple(fanins),
        gate_delays=tuple(delays),
        gate_programs=tuple(programs),
        levels=tuple(levels),
        output_index=output_index,
    )


def compile_circuit(circuit: "Circuit | CompiledCircuit") -> CompiledCircuit:
    """Lower ``circuit`` to a :class:`CompiledCircuit`, with caching.

    Passing an already-compiled circuit is a no-op, so every evaluation
    entry point can accept either form.  The cache is invalidated by
    :attr:`Circuit.version`, so structural edits trigger a fresh lowering.
    """
    if isinstance(circuit, CompiledCircuit):
        return circuit
    cached: CompiledCircuit | None = getattr(circuit, "_compiled_ir", None)
    if cached is not None and cached.source_version == circuit.version:
        _COMPILE_HITS.add()
        return cached
    _COMPILE_MISSES.add()
    with _TRACER.span("engine.compile", circuit=circuit.name) as span:
        compiled = _lower(circuit)
        span.set(gates=compiled.n_gates, nets=compiled.n_nets)
    _IR_GATES.set(compiled.n_gates)
    _IR_NETS.set(compiled.n_nets)
    circuit._compiled_ir = compiled
    return compiled


def check_width(width: int) -> None:
    """Reject negative widths before they reach a shift.

    ``width == 0`` is a legitimate empty batch: every word is masked to 0
    and the result is well-formed all-zero words.
    """
    if width < 0:
        raise EngineError(f"pattern width {width} must be non-negative")


def pack_input_words(
    compiled: CompiledCircuit, words: Mapping[str, int], width: int
) -> list[int]:
    """Input words keyed by net name -> engine-ordered list, masked to width."""
    check_width(width)
    mask = (1 << width) - 1
    row = []
    for net in compiled.inputs:
        try:
            row.append(words[net] & mask)
        except KeyError:
            raise SimulationError(f"word vector missing input {net!r}") from None
    return row


def patterns_to_words(
    compiled: CompiledCircuit, patterns: Iterable[Mapping[str, bool]]
) -> tuple[list[int], int]:
    """Pack ``{net: bool}`` patterns into engine-ordered input words."""
    row = [0] * compiled.n_inputs
    width = 0
    for pattern in patterns:
        for i, net in enumerate(compiled.inputs):
            if pattern[net]:
                row[i] |= 1 << width
        width += 1
    return row, width
