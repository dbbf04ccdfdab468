"""Technology mapping of a :class:`TechNetwork` onto a cell library.

Every node is lowered through :mod:`repro.synth.decompose`, picking whichever
polarity (on-set SOP, or inverted off-set SOP) maps to the smaller
``(delay, area)``.  :func:`trial_cost` prices a polarity by driving a
circuit-free :class:`GateBuilder` over the factored cover: the builder
tracks arrival times and area as it emits cells, so no scratch netlist is
built and no timing analysis runs.  Node output nets keep their
technology-independent names so that mapped circuits stay comparable with
their specs (equivalence is property-tested in ``tests/synth``).
"""

from __future__ import annotations

from repro import obs
from repro.logic.cover import Cover
from repro.lru import LRUCache
from repro.netlist.circuit import Circuit
from repro.netlist.library import Library
from repro.synth.decompose import GateBuilder, decompose_cover
from repro.synth.technet import TechNetwork

_METER = obs.get_meter()
_TRIAL_HITS = _METER.counter(
    "repro_synth_trial_cost_hits_total",
    "trial_cost calls served from the per-library cover cache",
)
_TRIAL_MISSES = _METER.counter(
    "repro_synth_trial_cost_misses_total",
    "trial_cost calls that factored and costed a cover",
)

#: Most distinct costs :data:`_trial_cache` holds at once; above the largest
#: one-pass workload (~4.6k shape keys on Table 2).
TRIAL_CACHE_SIZE = 65536

#: Net-name prefix of the cost-only :class:`GateBuilder` in :func:`trial_cost`.
TRIAL_PREFIX = "t_"

#: Keyed by :func:`_trial_key`.  The key holds the library object itself, so
#: a later library can never alias its entries through a reused ``id``.
_trial_cache: LRUCache[tuple[int, float]] = LRUCache(TRIAL_CACHE_SIZE)


def _trial_key(cover: Cover, library: Library, inverted: bool) -> tuple:
    """Cache key of a cover's cost: its shape, not its net names.

    Names reach the cost only through comparisons: :meth:`GateBuilder.emit`
    sorts the fanins of symmetric cells (which picks the pin delays),
    strash matches names for equality, and a cover input sorts before or
    after the builder's fresh :data:`TRIAL_PREFIX` nets.  So the key keeps
    the cube values, the rank of each name among the cover's names (ties
    included) and whether it sorts before the prefix.  A name starting with
    the prefix makes :meth:`GateBuilder.fresh` skip it, which the shape
    cannot tell, so such covers keep the named key.
    """
    names = cover.names
    if any(n.startswith(TRIAL_PREFIX) for n in names):
        return (library, cover, inverted)
    order = sorted(names)
    return (
        library,
        tuple(c.values for c in cover.cubes),
        tuple(map(order.index, names)),
        tuple(n < TRIAL_PREFIX for n in names),
        inverted,
    )


def trial_cost(
    cover: Cover, library: Library, inverted: bool = False
) -> tuple[int, float]:
    """Mapped ``(delay, area)`` of a cover, computed while decomposing it.

    Used to choose between implementing a node as its on-set SOP or as the
    complement of its off-set SOP — the criterion is the *mapped* cost after
    factoring, not the raw literal count.  The delay is the latest arrival
    at the result net with the cover's inputs arriving at 0, the area the
    summed cell area: by construction what static timing analysis and
    :meth:`Circuit.area` report on the same gates in a scratch circuit.
    A cover that needs no gate costs ``(0, 0.0)``.
    """
    key = _trial_key(cover, library, inverted)
    cached = _trial_cache.get(key)
    if cached is not None:
        _TRIAL_HITS.add()
        return cached
    _TRIAL_MISSES.add()
    builder = GateBuilder(None, library, TRIAL_PREFIX, inputs=cover.names)
    net = decompose_cover(cover, builder, invert_output=inverted)
    result = (builder.arrival.get(net, 0), builder.area)
    _trial_cache.put(key, result)
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
