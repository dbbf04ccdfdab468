"""Extraction of a technology-independent network from a mapped circuit.

``circuit_to_technet`` lifts every gate to a :class:`TechNode` (one node per
gate, covers via ISOP of the cell function).  ``collapse`` then eliminates
nodes into their fanouts — the reverse of technology decomposition — until
every surviving node has up to ``max_support`` fanins (the paper works with
complex nodes of 10–15 inputs).  Elimination is the classic SIS-style pass:
a node is absorbed when the merged support and the re-extracted SOPs stay
within bounds, preferring low-fanout nodes (absorbing a single-fanout node
never duplicates logic).

Both stages compute on truth tables (:mod:`repro.logic.truthtable`): every
function they touch has at most ``max_support + 1`` variables, and the
table ISOP returns the same cubes, in the same order, as ``bdd.isop`` over
a manager registering the variables in the same order.

The merge test is kept cheap in two ways.  A candidate's ISOP stops at the
cube cap (:func:`_table_sop`), so a candidate that the cap rejects never
has its covers finished and never becomes a :class:`TechNode`.  With a
library, each call prices every node of the network once: a lifted node
when first read, a merged node at the price it was tested with.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SynthesisError
from repro.logic import truthtable
from repro.logic.cover import Cover
from repro.logic.truthtable import Sop
from repro.lru import LRUCache
from repro.netlist.cell import Cell
from repro.netlist.circuit import Circuit
from repro.synth.technet import TechNetwork, TechNode

# benchmarks/e2e/tracer.py probes this name here (synth.collapse.candidates).
from repro.synth.technet import node_from_function  # noqa: F401

#: Most entries each of :data:`_lift_cache` and :data:`_merge_cache` holds.
SOP_CACHE_SIZE = 4096

#: Covers of a cell keyed by its content and the position of each pin's net
#: among the gate's distinct fanins (the fanin-duplication pattern).
_lift_cache: LRUCache[Sop] = LRUCache(SOP_CACHE_SIZE)

#: Covers of a merge candidate keyed by its table and cube cap: different
#: nets often merge into the same function of the same positions.  ``False``
#: records a table with a cover over the cap.
_merge_cache: LRUCache[Sop | bool] = LRUCache(SOP_CACHE_SIZE)


def _node(name: str, variables: tuple[str, ...], sop: Sop) -> TechNode:
    """The node whose table variable ``i`` is the net ``variables[i]``:
    ``sop`` holds the support among the table's variables and the covers
    over those positions, which the node renames to its nets."""
    kept, on, off = sop
    fanins = tuple(variables[i] for i in kept)
    return TechNode(name, fanins, Cover(fanins, on), Cover(fanins, off))


def _cell_sop(cell: Cell, pattern: tuple[int, ...]) -> Sop:
    """Covers of ``cell`` with pin ``j`` reading distinct fanin ``pattern[j]``."""
    key = (cell.name, cell.inputs, cell.expression, pattern)
    cached = _lift_cache.get(key)
    if cached is None:
        rows = cell.truth_table()  # pin 0 is the MSB of the row index
        k = max(pattern, default=-1) + 1
        table = 0
        for m in range(1 << k):
            row = 0
            for position in pattern:
                row = (row << 1) | ((m >> position) & 1)
            if rows[row]:
                table |= 1 << m
        cached = truthtable.sop(table, k)
        _lift_cache.put(key, cached)
    return cached


def _table_sop(table: int, k: int, cap: int) -> Sop | None:
    """:func:`truthtable.sop` limited to ``cap`` cubes, through
    :data:`_merge_cache`; None when either cover is over the cap."""
    key = (table, k, cap)
    cached = _merge_cache.get(key)
    if cached is None:
        cached = truthtable.sop(table, k, cap) or False
        _merge_cache.put(key, cached)
    return cached or None


def circuit_to_technet(circuit: Circuit) -> TechNetwork:
    """One-to-one lift of a mapped circuit into a technology-independent net."""
    circuit.validate()
    net = TechNetwork(circuit.name, circuit.inputs, circuit.outputs)
    for name in circuit.topo_order():
        gate = circuit.gates[name]
        distinct = tuple(dict.fromkeys(gate.fanins))
        index = {f: i for i, f in enumerate(distinct)}
        pattern = tuple(index[f] for f in gate.fanins)
        net.add_node(_node(name, distinct, _cell_sop(gate.cell, pattern)))
    net.validate()
    return net


def collapse(
    network: TechNetwork,
    max_support: int = 12,
    max_cubes: int = 20,
    max_fanout: int = 2,
    library=None,
) -> TechNetwork:
    """Eliminate nodes into their fanouts to form complex nodes.

    Parameters
    ----------
    max_support:
        Upper bound on the fanin count of any merged node (paper: 10–15).
        At most ``truthtable.MAX_VARS - 1``: a merge candidate's table also
        holds the eliminated node.
    max_cubes:
        Upper bound on the cube count of either re-extracted cover; keeps
        the ISOPs (and later the cube-selection pass) tractable.
    max_fanout:
        A node is only eliminated when at most this many nodes read it,
        bounding logic duplication.
    library:
        When given, a merge is additionally rejected if its best mapped
        implementation is slower or substantially larger than mapping the
        two nodes separately — this keeps XOR-rich structures (whose SOPs
        flatten badly) intact.
    """
    if max_support < 2:
        raise SynthesisError(f"max_support {max_support} too small")
    if max_support >= truthtable.MAX_VARS:
        raise SynthesisError(
            f"max_support {max_support} too large (at most "
            f"{truthtable.MAX_VARS - 1})"
        )

    # Best cost of each node of the network, priced once: a lifted node when
    # first read, a merged node as it was tested.  Keyed by name and checked
    # by identity, as a committed merge replaces the node under its name.
    prices: dict[str, tuple[TechNode, tuple[int, float]]] = {}

    def best_cost(tech_node: TechNode) -> tuple[int, float]:
        from repro.synth.mapping import trial_cost

        return min(
            trial_cost(tech_node.on_cover, library, inverted=False),
            trial_cost(tech_node.off_cover, library, inverted=True),
        )

    def price(tech_node: TechNode) -> tuple[int, float]:
        entry = prices.get(tech_node.name)
        if entry is None or entry[0] is not tech_node:
            entry = prices[tech_node.name] = (tech_node, best_cost(tech_node))
        return entry[1]

    net = network.copy()
    outputs = frozenset(net.outputs)
    readers: dict[str, set[str]] = {}
    for node in net.nodes.values():
        for f in node.fanins:
            readers.setdefault(f, set()).add(node.name)

    worklist = deque(net.topo_order())
    queued = set(worklist)
    while worklist:
        name = worklist.popleft()
        queued.discard(name)
        if name not in net.nodes or name in outputs:
            continue
        node = net.node(name)
        reading = sorted(readers.get(name, ()))
        if not reading or len(reading) > max_fanout:
            continue
        merged: list[tuple[TechNode, TechNode, tuple[int, float] | None]] = []
        ok = True
        for reader_name in reading:
            reader = net.node(reader_name)
            support = tuple(
                dict.fromkeys(
                    [f for f in reader.fanins if f != name] + list(node.fanins)
                )
            )
            if len(support) > max_support:
                ok = False
                break
            variables = (*support, name)
            k = len(variables)
            index = {v: i for i, v in enumerate(variables)}
            node_table = truthtable.cover_table(
                node.on_cover.cubes, [index[f] for f in node.fanins], k
            )
            reader_table = truthtable.cover_table(
                reader.on_cover.cubes, [index[f] for f in reader.fanins], k
            )
            combined = truthtable.compose(reader_table, k - 1, node_table, k)
            # XOR-rich functions have no compact SOP (a k-input parity has
            # 2^(k-1) cubes); refusing candidates whose cover exceeds its
            # support size keeps such structures as separate nodes.
            cube_cap = min(max_cubes, max(4, len(support)))
            sop = _table_sop(combined, k, cube_cap)
            if sop is None:
                ok = False
                break
            candidate = _node(reader_name, variables, sop)
            cost: tuple[int, float] | None = None
            if library is not None:
                cost = best_cost(candidate)
                node_delay, node_area = price(node)
                reader_delay, reader_area = price(reader)
                if cost[0] > node_delay + reader_delay or (
                    cost[1] > 1.25 * (node_area + reader_area) + 4.0
                ):
                    ok = False
                    break
            merged.append((reader, candidate, cost))
        if not ok:
            continue
        # Commit: rewrite every reader, then drop the eliminated node.
        for reader, candidate, cost in merged:
            for f in reader.fanins:
                readers.get(f, set()).discard(reader.name)
            net.replace_node(candidate)
            if cost is not None:
                prices[candidate.name] = (candidate, cost)
            for f in candidate.fanins:
                readers.setdefault(f, set()).add(candidate.name)
        for f in node.fanins:
            readers.get(f, set()).discard(name)
        net.remove_node(name)
        # Fanins may have become low-fanout; readers got new shapes.
        for follow_up in (*node.fanins, *(c.name for _, c, _ in merged)):
            if follow_up not in queued and follow_up in net.nodes:
                worklist.append(follow_up)
                queued.add(follow_up)
    net.validate()
    return net
