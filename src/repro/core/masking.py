"""Synthesis of the error-masking circuit (paper Sec. 4).

Pipeline implemented by :class:`MaskingSynthesizer`:

1. compute the exact SPCF ``Sigma_y`` of every critical output
   (:mod:`repro.spcf.shortpath`) on the circuit's shared BDD manager and
   global functions (:func:`repro.spcf.timedfunc.shared_functions`),
2. extract the technology-independent network ``T`` of the circuit and
   collapse it into complex nodes of ≤ ``max_support`` inputs (threshold
   independent, so cached per circuit content, library and bounds),
3. for every node in the fanin cone of a critical output, select the cubes
   of its on-set/off-set SOPs by essential weight against ``Sigma`` → reduced
   covers ``n^1`` / ``n^0`` (:mod:`repro.core.cubeselect`); the global
   functions of a node and its fanins are read from the SPCF context's map
   (collapse keeps net names and functions), not rebuilt from ``T``,
4. form the prediction ``n~`` (the cheaper of ``n^1`` and ``NOT n^0``) and
   the indicator ``e_n = n^0 | n^1`` (the paper's XOR — the covers are
   disjoint), re-extract ``e_n`` as an ISOP and simplify it again by
   essential weight,
5. assemble the technology-independent masking network ``T~`` (prediction
   nodes feed prediction nodes; indicators are AND-ed per critical output)
   and map it onto the cell library.

The soundness invariant — ``e_y = 1`` implies ``y~ = y`` for *every* input
pattern, and ``Sigma_y`` implies ``e_y = 1`` — is checked by
:func:`repro.core.verify.verify_masking`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro import obs
from repro.bdd.manager import Function
from repro.errors import MaskingError
from repro.logic.cover import Cover
from repro.logic.cube import Cube
from repro.logic.truthtable import cover_table, isop, masks
from repro.lru import LRUCache
from repro.netlist.circuit import Circuit
from repro.netlist.library import Library
from repro.core.cubeselect import SelectionResult, select_cubes
from repro.spcf.result import SpcfResult
from repro.spcf.shortpath import compute_spcf
from repro.spcf.timedfunc import SpcfContext
from repro.synth.collapse import circuit_to_technet, collapse
from repro.synth.mapping import map_technet, remove_buffers
from repro.synth.technet import TechNetwork, TechNode

#: Name prefixes for prediction and indicator nodes in the masking network.
PRED_PREFIX = "p$"
IND_PREFIX = "e$"

_TRACER = obs.get_tracer("synth")
_METER = obs.get_meter()
_NODES_MASKED = _METER.counter(
    "repro_synth_nodes_masked_total", "technology nodes run through cube selection"
)
_CUBES_DROPPED = _METER.counter(
    "repro_synth_cubes_dropped_total",
    "cubes pruned by essential-weight selection across all masked nodes",
)
_TRIVIAL_INDICATORS = _METER.counter(
    "repro_synth_trivial_indicators_total",
    "masked nodes whose indicator collapsed to constant 1",
)
_COLLAPSE_HITS = _METER.counter(
    "repro_synth_collapse_cache_hits_total",
    "mask runs that reused a cached lifted and collapsed network",
)
_COLLAPSE_MISSES = _METER.counter(
    "repro_synth_collapse_cache_misses_total",
    "mask runs that lifted and collapsed their circuit",
)

#: Most distinct collapsed networks :data:`_collapse_cache` holds at once.
COLLAPSE_CACHE_SIZE = 16

#: Lifted and collapsed networks keyed by :func:`_collapse_key`.  Collapse
#: does not depend on the timing threshold, so a threshold sweep over one
#: circuit collapses it once.  Entries are never handed out: a hit returns
#: a copy, so a caller editing ``MaskingResult.technet`` cannot poison it.
_collapse_cache: LRUCache[TechNetwork] = LRUCache(COLLAPSE_CACHE_SIZE)


def _collapse_key(
    circuit: Circuit, library: Library, max_support: int, max_cubes: int
) -> tuple:
    """Everything the lifted and collapsed network depends on.

    The library is keyed by identity, like
    :data:`repro.synth.mapping._trial_cache`.
    """
    return (circuit.content_key(), library, max_support, max_cubes)


def _table(cover: Cover) -> int:
    """Truth table of ``cover``, position ``i`` being variable ``i``."""
    k = len(cover.names)
    return cover_table(cover.cubes, range(k), k)


def _isop_cover(names: tuple[str, ...], lower: int, upper: int) -> Cover:
    """ISOP between two truth tables over ``names``, as a cover."""
    k = len(names)
    return Cover(
        names, tuple(Cube.from_literals(lits, k) for lits in isop(lower, upper, k))
    )


@dataclass(frozen=True)
class NodeMasking:
    """Per-node outcome of the cube-selection synthesis."""

    node_name: str
    fanins: tuple[str, ...]
    on_selection: SelectionResult
    off_selection: SelectionResult
    prediction_cover: Cover
    prediction_inverted: bool
    prediction_source: str
    indicator_cover: Cover
    indicator_trivial: bool

    @property
    def cubes_dropped(self) -> int:
        return self.on_selection.dropped + self.off_selection.dropped


@dataclass
class MaskingResult:
    """Everything produced by :meth:`MaskingSynthesizer.run`."""

    circuit: Circuit
    library: Library
    context: SpcfContext
    spcf: SpcfResult
    technet: TechNetwork
    node_maskings: dict[str, NodeMasking]
    masking_network: TechNetwork
    masking_circuit: Circuit
    outputs: dict[str, tuple[str, str]] = field(default_factory=dict)
    """Critical output -> (prediction net, indicator net) in the masking circuit."""

    @property
    def critical_outputs(self) -> tuple[str, ...]:
        return tuple(self.outputs)

    @property
    def is_trivial(self) -> bool:
        """True when the circuit has no critical outputs (nothing to mask)."""
        return not self.outputs


class MaskingSynthesizer:
    """Synthesize the error-masking circuit for one mapped design."""

    def __init__(
        self,
        circuit: Circuit,
        library: Library,
        threshold: float = 0.9,
        target: int | None = None,
        max_support: int = 12,
        max_cubes: int = 20,
        cube_pool: str = "isop",
        dontcare_isop: bool = True,
        context: SpcfContext | None = None,
    ) -> None:
        if cube_pool not in ("isop", "primes"):
            raise MaskingError(f"unknown cube pool {cube_pool!r}")
        circuit.validate()
        self.circuit = circuit
        self.library = library
        self.threshold = threshold
        self.target = target
        self.max_support = max_support
        self.max_cubes = max_cubes
        self.cube_pool = cube_pool
        self.use_dontcare_isop = dontcare_isop
        self.context = context or SpcfContext(
            circuit, threshold=threshold, target=target
        )

    # ------------------------------------------------------------------ run

    def run(self) -> MaskingResult:
        ctx = self.context
        with _TRACER.span(
            "synth.mask_circuit", circuit=self.circuit.name
        ) as run_span:
            spcf = compute_spcf(self.circuit, context=ctx)
            key = _collapse_key(
                self.circuit, self.library, self.max_support, self.max_cubes
            )
            collapsed = _collapse_cache.get(key)
            hit = collapsed is not None
            if hit:
                _COLLAPSE_HITS.add()
            else:
                _COLLAPSE_MISSES.add()
                with _TRACER.span("synth.lift"):
                    lifted = circuit_to_technet(self.circuit)
            with _TRACER.span("synth.collapse", cached=hit) as collapse_span:
                if not hit:
                    collapsed = collapse(
                        lifted,
                        max_support=self.max_support,
                        max_cubes=self.max_cubes,
                        library=self.library,
                    )
                    _collapse_cache.put(key, collapsed)
                technet = collapsed.copy()
                if _METER.enabled:
                    collapse_span.set(nodes=sum(1 for _ in technet.topo_order()))

            # Collapse keeps net names and functions, and BDDs are
            # canonical, so a node's global function is its net's in the
            # SPCF context's map.
            tfns = ctx.functions

            # Sigma per node: union of the SPCFs of the critical outputs whose
            # fanin cone contains the node ("all outputs simultaneously").
            node_sigma: dict[str, Function] = {}
            cones: dict[str, set[str]] = {}
            for y, sigma in spcf.per_output.items():
                if sigma.is_false:
                    continue
                cone = technet.fanin_cone(y)
                cones[y] = cone
                for n in cone:
                    if n in node_sigma:
                        node_sigma[n] = node_sigma[n] | sigma
                    else:
                        node_sigma[n] = sigma

            maskings: dict[str, NodeMasking] = {}
            for name in technet.topo_order():
                if name not in node_sigma:
                    continue
                with _TRACER.span("synth.mask_node", node=name) as node_span:
                    masking = self._mask_node(
                        technet.node(name), node_sigma[name], tfns
                    )
                    maskings[name] = masking
                    if _METER.enabled:
                        _NODES_MASKED.add()
                        _CUBES_DROPPED.add(masking.cubes_dropped)
                        if masking.indicator_trivial:
                            _TRIVIAL_INDICATORS.add()
                        node_span.set(
                            cubes_dropped=masking.cubes_dropped,
                            prediction=masking.prediction_source,
                            trivial=masking.indicator_trivial,
                        )

            with _TRACER.span("synth.map"):
                network, indicator_nets = self._build_masking_network(
                    technet, cones, maskings
                )
                mapped = remove_buffers(
                    map_technet(
                        network,
                        self.library,
                        name=f"{self.circuit.name}_mask",
                        prefix="mk_",
                    )
                )
            outputs = {
                y: (PRED_PREFIX + y, indicator_nets[y]) for y in cones
            }
            run_span.set(masked_nodes=len(maskings), outputs=len(outputs))
        return MaskingResult(
            circuit=self.circuit,
            library=self.library,
            context=ctx,
            spcf=spcf,
            technet=technet,
            node_maskings=maskings,
            masking_network=network,
            masking_circuit=mapped,
            outputs=outputs,
        )

    # ------------------------------------------------------------- per node

    def _mask_node(
        self,
        node: TechNode,
        sigma: Function,
        tfns: Mapping[str, Function],
    ) -> NodeMasking:
        from repro.core.careset import local_image_cover
        from repro.synth.mapping import trial_cost

        ctx = self.context
        n_pis = len(self.circuit.inputs)
        on_pool, off_pool = self._selection_pools(node)
        on_sel = select_cubes(on_pool, sigma, tfns, ctx.manager, n_pis)
        off_sel = select_cubes(off_pool, sigma, tfns, ctx.manager, n_pis)

        # Local functions are truth tables over the fanins (fanin i is
        # variable i), so every ISOP below equals the one of a BDD manager
        # over ``node.fanins`` cube for cube.
        names = node.fanins
        full = masks(len(names))[0]
        f_local = _table(node.on_cover)
        image = _table(local_image_cover(node, sigma, tfns, ctx.manager))
        s1 = image & f_local
        s0 = image & ~f_local

        # Prediction candidates: the paper's reduced covers n^1 / NOT n^0,
        # plus don't-care ISOPs squeezed between the satisfiability care
        # sets (the "rich input don't care space" of Sec. 4).  The cheapest
        # mapped implementation wins.
        candidates: list[tuple[Cover, bool, str]] = [
            (on_sel.kept, False, "n1-selected"),
            (off_sel.kept, True, "n0-selected"),
        ]
        if self.use_dontcare_isop:
            dc_on = _isop_cover(names, s1, full ^ s0)
            dc_off = _isop_cover(names, s0, full ^ s1)
            candidates.append((dc_on, False, "dc-on"))
            candidates.append((dc_off, True, "dc-off"))
        best = min(
            candidates,
            key=lambda cand: trial_cost(cand[0], self.library, inverted=cand[1]),
        )
        prediction_cover, inverted, source = best
        pred = _table(prediction_cover)
        if inverted:
            pred ^= full

        # Indicator: any function between the Sigma-image (coverage) and the
        # prediction-agreement set (soundness).  The paper forms e = n0 XOR
        # n1 and prunes non-essential cubes; the bounded ISOP is the same
        # simplification taken to its don't-care-exploiting conclusion.
        agreement = full ^ pred ^ f_local
        if agreement == full:
            indicator = Cover(names, (Cube.full(len(names)),))
            trivial = True
        elif self.use_dontcare_isop:
            indicator = _isop_cover(names, image, agreement)
            trivial = False
        else:
            e_fn = image | _table(on_sel.kept) | _table(off_sel.kept)
            e_cover = _isop_cover(names, e_fn, e_fn)
            e_sel = select_cubes(e_cover, sigma, tfns, ctx.manager, n_pis)
            indicator = e_sel.kept
            trivial = False
        return NodeMasking(
            node_name=node.name,
            fanins=node.fanins,
            on_selection=on_sel,
            off_selection=off_sel,
            prediction_cover=prediction_cover,
            prediction_inverted=inverted,
            prediction_source=source,
            indicator_cover=indicator,
            indicator_trivial=trivial,
        )

    def _selection_pools(self, node: TechNode) -> tuple[Cover, Cover]:
        """Candidate cube pools for selection: ISOP covers or all QM primes.

        The ``"primes"`` pool matches the paper's wording ("the set of prime
        implicants in the on-set and off-set") and gives the selector more
        freedom; the default ``"isop"`` pool is the irredundant cover and is
        cheaper.  Compared in the A2 ablation benchmark.
        """
        if self.cube_pool != "primes" or node.num_fanins > 10:
            return node.on_cover, node.off_cover
        from repro.logic.qm import primes_of_truth_table

        width = node.num_fanins
        table = []
        for idx in range(1 << width):
            bits = [(idx >> (width - 1 - i)) & 1 for i in range(width)]
            table.append(
                any(c.contains_minterm(bits) for c in node.on_cover.cubes)
            )
        on_primes, off_primes = primes_of_truth_table(table)
        return (
            Cover(node.fanins, tuple(on_primes)),
            Cover(node.fanins, tuple(off_primes)),
        )

    # ------------------------------------------------------------ assembly

    def _rename_fanins(
        self, technet: TechNetwork, fanins: tuple[str, ...]
    ) -> dict[str, str]:
        return {
            f: (f if technet.is_input(f) else PRED_PREFIX + f) for f in fanins
        }

    def _cover_node(
        self, name: str, cover: Cover, rename: Mapping[str, str], inverted: bool
    ) -> TechNode:
        """TechNode computing ``cover`` (or its complement) on renamed fanins."""
        full = masks(len(cover.names))[0]
        fn = _table(cover)
        if inverted:
            fn ^= full
        names = tuple(rename[n] for n in cover.names)
        off = full ^ fn
        return TechNode(
            name, names, _isop_cover(names, fn, fn), _isop_cover(names, off, off)
        )

    def _build_masking_network(
        self,
        technet: TechNetwork,
        cones: Mapping[str, set[str]],
        maskings: Mapping[str, NodeMasking],
    ) -> tuple[TechNetwork, dict[str, str]]:
        """Build T~; returns the network and the per-output indicator nets."""
        network = TechNetwork(
            f"{self.circuit.name}_masknet", self.circuit.inputs, ()
        )
        # Prediction and per-node indicator nodes.
        for name in technet.topo_order():
            masking = maskings.get(name)
            if masking is None:
                continue
            rename = self._rename_fanins(technet, masking.fanins)
            network.add_node(
                self._cover_node(
                    PRED_PREFIX + name,
                    masking.prediction_cover,
                    rename,
                    masking.prediction_inverted,
                )
            )
            if not masking.indicator_trivial:
                network.add_node(
                    self._cover_node(
                        "ei$" + name, masking.indicator_cover, rename, False
                    )
                )
        # Per-output indicator: AND of the cone's non-trivial node indicators.
        indicator_nets: dict[str, str] = {}
        for y, cone in cones.items():
            signals = sorted(
                "ei$" + n
                for n in cone
                if n in maskings and not maskings[n].indicator_trivial
            )
            indicator_nets[y] = self._add_and_tree(
                network, IND_PREFIX + y, signals
            )
        out_names = [PRED_PREFIX + y for y in cones] + sorted(
            set(indicator_nets.values())
        )
        network.outputs = tuple(dict.fromkeys(out_names))
        network.validate()
        return network, indicator_nets

    def _add_and_tree(
        self, network: TechNetwork, out_name: str, signals: list[str]
    ) -> str:
        """Balanced AND of ``signals``; returns the net carrying the result.

        A single signal is returned as-is (no identity node); an empty list
        yields a constant-1 node (every prediction is always correct).
        """
        if not signals:
            network.add_node(
                TechNode(out_name, (), Cover((), (Cube.full(0),)), Cover((), ()))
            )
            return out_name
        counter = 0
        level = list(signals)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level), self.max_support):
                chunk = level[i : i + self.max_support]
                if len(chunk) == 1:
                    nxt.append(chunk[0])
                    continue
                name = (
                    out_name
                    if len(level) <= self.max_support
                    else f"{out_name}_t{counter}"
                )
                counter += 1
                nxt.append(self._add_and_node(network, name, tuple(chunk)))
            level = nxt
        return level[0]

    @staticmethod
    def _add_and_node(
        network: TechNetwork, name: str, fanins: tuple[str, ...]
    ) -> str:
        width = len(fanins)
        on = Cover(fanins, (Cube((1,) * width),))
        off_cubes = tuple(
            Cube.from_literals({i: False}, width) for i in range(width)
        )
        network.add_node(TechNode(name, fanins, on, Cover(fanins, off_cubes)))
        return name


def synthesize_masking(
    circuit: Circuit,
    library: Library,
    threshold: float = 0.9,
    target: int | None = None,
    max_support: int = 12,
    max_cubes: int = 20,
    cube_pool: str = "isop",
    dontcare_isop: bool = True,
) -> MaskingResult:
    """One-call API: synthesize the error-masking circuit for ``circuit``.

    The run shares the BDD manager and global functions of its SPCF
    context with every other default context on the same circuit content.
    """
    return MaskingSynthesizer(
        circuit,
        library,
        threshold=threshold,
        target=target,
        max_support=max_support,
        max_cubes=max_cubes,
        cube_pool=cube_pool,
        dontcare_isop=dontcare_isop,
    ).run()
