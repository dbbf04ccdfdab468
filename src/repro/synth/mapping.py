"""Technology mapping of a :class:`TechNetwork` onto a cell library.

Every node is lowered through :mod:`repro.synth.decompose`, picking whichever
polarity (on-set SOP, or inverted off-set SOP) needs fewer literals — a
simple area heuristic that mirrors what a commercial mapper's two-level view
would do.  Node output nets keep their technology-independent names so that
mapped circuits stay comparable with their specs (equivalence is
property-tested in ``tests/synth``).
"""

from __future__ import annotations

from repro.logic.cover import Cover
from repro.netlist.circuit import Circuit
from repro.netlist.library import Library
from repro.synth.decompose import GateBuilder, decompose_cover
from repro.synth.technet import TechNetwork

#: Keyed by the library object itself: the key keeps the library alive, so
#: a later library can never alias its entries through a reused ``id``.
_trial_cache: dict[tuple[Library, Cover, bool], tuple[int, float]] = {}


def trial_cost(
    cover: Cover, library: Library, inverted: bool = False
) -> tuple[int, float]:
    """Mapped ``(delay, area)`` of a cover, measured on a scratch circuit.

    Used to choose between implementing a node as its on-set SOP or as the
    complement of its off-set SOP — the criterion is the *mapped* cost after
    factoring, not the raw literal count.
    """
    key = (library, cover, inverted)
    cached = _trial_cache.get(key)
    if cached is not None:
        return cached
    scratch = Circuit("scratch", inputs=cover.names)
    builder = GateBuilder(scratch, library, "t_")
    net = decompose_cover(cover, builder, invert_output=inverted)
    if scratch.num_gates == 0:
        result = (0, 0.0)
    else:
        from repro.sta.timing import analyze

        report = analyze(scratch, target=0)
        result = (report.arrival.get(net, 0), scratch.area())
    _trial_cache[key] = result
    return result


def map_technet(
    network: TechNetwork,
    library: Library,
    name: str | None = None,
    prefix: str = "m_",
) -> Circuit:
    """Map ``network`` to gates from ``library``.

    The returned circuit has the same input/output names as the network.
    Internal fresh nets are prefixed with ``prefix`` to avoid collisions
    when the result is merged into a larger design.
    """
    network.validate()
    circuit = Circuit(name or network.name, network.inputs, network.outputs)
    builder = GateBuilder(circuit, library, prefix)
    for node_name in network.topo_order():
        node = network.node(node_name)
        special = _match_special_cell(node, library)
        if special is not None:
            cell_name, fanins = special
            circuit.add_gate(node_name, library.get(cell_name), fanins)
            continue
        use_off = trial_cost(node.off_cover, library, inverted=True) < trial_cost(
            node.on_cover, library, inverted=False
        )
        cover = node.off_cover if use_off else node.on_cover
        result = decompose_cover(cover, builder, invert_output=use_off)
        if not builder.claim_as(result, node_name):
            builder.buffer_as(result, node_name)
    circuit.validate()
    return circuit


def _match_special_cell(node, library: Library):
    """Recognize 1–2 input nodes that map to a single library cell.

    XOR-shaped functions have no compact SOP, so pattern-matching them to
    XOR2/XNOR2 cells (and identities to BUF/INV) keeps mapped depth and area
    proportional to the technology-independent structure.
    """
    width = node.num_fanins
    if width == 0 or width > 2:
        return None
    table = []
    for idx in range(1 << width):
        bits = [(idx >> (width - 1 - i)) & 1 for i in range(width)]
        table.append(any(c.contains_minterm(bits) for c in node.on_cover.cubes))
    table = tuple(table)
    if width == 1:
        if table == (False, True) and "BUF" in library:
            return ("BUF", node.fanins)
        if table == (True, False) and "INV" in library:
            return ("INV", node.fanins)
        return None
    patterns = {
        (False, True, True, False): "XOR2",
        (True, False, False, True): "XNOR2",
        (False, False, False, True): "AND2",
        (False, True, True, True): "OR2",
        (True, True, True, False): "NAND2",
        (True, False, False, False): "NOR2",
    }
    cell_name = patterns.get(table)
    if cell_name and cell_name in library:
        return (cell_name, node.fanins)
    return None


def remove_buffers(circuit: Circuit) -> Circuit:
    """Collapse BUF gates by rewiring readers (outputs keep their buffer).

    Mapping inserts a buffer per node to preserve node names; this cleanup
    removes the ones that are not protecting a primary-output name.
    """
    out = Circuit(circuit.name, circuit.inputs, circuit.outputs)
    # Resolve chains of buffers to their ultimate source.
    source: dict[str, str] = {}

    def resolve(net: str) -> str:
        seen = []
        while True:
            if net in source:
                net = source[net]
                continue
            if net in circuit.gates and net not in circuit.outputs:
                gate = circuit.gates[net]
                if gate.cell.name == "BUF":
                    seen.append(net)
                    net = gate.fanins[0]
                    continue
            break
        for s in seen:
            source[s] = net
        return net

    for name in circuit.topo_order():
        gate = circuit.gates[name]
        if gate.cell.name == "BUF" and name not in circuit.outputs:
            continue
        out.add_gate(
            name,
            gate.cell,
            tuple(resolve(f) for f in gate.fanins),
            delay_scale=gate.delay_scale,
        )
    out.validate()
    return out


def mapped_stats(circuit: Circuit) -> dict[str, float]:
    """Quick area/depth statistics for a mapped circuit."""
    from repro.sta.timing import analyze

    report = analyze(circuit, target=0)
    return {
        "gates": float(circuit.num_gates),
        "area": circuit.area(),
        "delay": float(report.critical_delay),
    }
