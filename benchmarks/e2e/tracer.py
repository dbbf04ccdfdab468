"""Per-layer self-time tracer that wraps the program's layers from outside.

Nothing under ``src/`` knows about this module.  :class:`LayerTracer`
replaces each call site listed in :data:`POINTS` with a wrapper for the
duration of a traced pass and puts the originals back afterwards:

* a **layer** wrapper opens a frame; when the call returns its duration is
  added to the layer's self time and subtracted from the enclosing frame's,
  so self times never double-count and ``wall - sum(self)`` is the time
  spent outside every wrapped layer;
* stage-level layers also keep a span (name, start, end, parent, item) for
  the Chrome trace; hot inner layers only accumulate time and calls, so the
  trace stays small;
* a **probe** opens no frame: it counts calls (optionally only when a given
  layer is the innermost open frame) and leaves the time with that layer.

A name is patched where its caller looks it up: ``from x import f`` binds
``f`` in the importing module, so the wrapper goes there; lazy
``from x import f`` inside a function body resolves through ``x`` itself;
methods are patched on their class.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: ``after(counts, args, result)`` adds derived counters once a call returns.
AfterHook = Callable[[dict, tuple, Any], None]


def _context_nodes(result) -> int:
    return result.context.manager.num_nodes


def _count(name: str, value: Callable[[tuple, Any], int]) -> AfterHook:
    def hook(counts: dict, args: tuple, result: Any) -> None:
        counts[name] = counts.get(name, 0) + value(args, result)

    return hook


def _hooks(*hooks: AfterHook) -> AfterHook:
    def hook(counts: dict, args: tuple, result: Any) -> None:
        for h in hooks:
            h(counts, args, result)

    return hook


_CONTEXT_NODES_OF_SPCF = _count("bdd.context_nodes", lambda a, r: _context_nodes(r))
_MASKED_NODES = _count("core.masked_nodes", lambda a, r: len(r.node_maskings))


@dataclass(frozen=True)
class Point:
    """One wrapped call site.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  With
    ``timed=False`` the point is a probe counting into ``layer`` (only
    while ``parent`` is the innermost open frame, when given).
    """

    layer: str
    target: str
    span: bool = True
    timed: bool = True
    parent: str | None = None
    after: AfterHook | None = None


#: Every wrapped call site.  Several sites may feed one layer.
POINTS: tuple[Point, ...] = (
    # Pipeline roots and stages (repro.core.pipeline looks these up).
    Point(
        "core.mask_circuit",
        "repro.core.pipeline:mask_circuit",
        after=_count(
            "bdd.context_nodes", lambda a, r: _context_nodes(r.masking)
        ),
    ),
    Point(
        "core.synthesize_masking",
        "repro.core.pipeline:synthesize_masking",
        after=_MASKED_NODES,
    ),
    Point("core.integrate", "repro.core.pipeline:build_masked_design"),
    Point("core.verify", "repro.core.pipeline:verify_masking"),
    Point("core.overhead_report", "repro.core.pipeline:overhead_report"),
    Point("synth.power", "repro.core.report:switching_power"),
    Point("sta.analyze", "repro.core.report:analyze"),
    # Inside MaskingSynthesizer (repro.core.masking module globals).
    Point("spcf.shortpath", "repro.core.masking:compute_spcf"),
    Point("synth.lift", "repro.core.masking:circuit_to_technet"),
    Point(
        "synth.collapse",
        "repro.core.masking:collapse",
        after=_hooks(
            _count("synth.collapse.nodes_in", lambda a, r: a[0].num_nodes),
            _count("synth.collapse.nodes_out", lambda a, r: r.num_nodes),
        ),
    ),
    Point(
        "synth.global_functions",
        "repro.synth.technet:TechNetwork.global_functions",
    ),
    Point("core.cubeselect", "repro.core.masking:select_cubes", span=False),
    Point("core.careset", "repro.core.careset:local_image_cover", span=False),
    Point("bdd.isop", "repro.core.masking:isop", span=False),
    Point(
        "synth.map",
        "repro.core.masking:map_technet",
        after=_count("synth.map.gates_out", lambda a, r: r.num_gates),
    ),
    # trial_cost is looked up lazily (collapse, node masking) and as a
    # module global (map_technet): both resolve through repro.synth.mapping.
    Point("synth.trial_cost", "repro.synth.mapping:trial_cost", span=False),
    # A trial_cost cache miss is exactly one lazily imported analyze().
    Point(
        "synth.trial_cost.misses",
        "repro.sta.timing:analyze",
        timed=False,
        parent="synth.trial_cost",
    ),
    Point(
        "synth.collapse.candidates",
        "repro.synth.collapse:node_from_function",
        timed=False,
        parent="synth.collapse",
    ),
    Point("bdd.managers", "repro.bdd.manager:BddManager.__init__", timed=False),
    # SPCF (Table 1 sweep calls the repro.spcf aliases directly).
    Point("spcf.context", "repro.spcf.timedfunc:SpcfContext.__init__"),
    Point("sta.analyze", "repro.spcf.timedfunc:analyze"),
    Point(
        "spcf.nodebased", "repro.spcf:spcf_nodebased", after=_CONTEXT_NODES_OF_SPCF
    ),
    Point(
        "spcf.pathbased", "repro.spcf:spcf_pathbased", after=_CONTEXT_NODES_OF_SPCF
    ),
    Point(
        "spcf.shortpath", "repro.spcf:spcf_shortpath", after=_CONTEXT_NODES_OF_SPCF
    ),
    # Model count of the union of the per-output SPCFs (Table 1's number).
    Point("spcf.count", "repro.spcf.result:SpcfResult.count"),
    # Fault-injection campaign.
    Point(
        "campaign.run_campaign",
        "repro.campaign.runner:run_campaign",
        after=_hooks(
            _count("campaign.attempts", lambda a, r: r.stats["attempts"]),
            _count(
                "campaign.quarantined", lambda a, r: r.stats["shards_quarantined"]
            ),
        ),
    ),
    Point("campaign.run_shard", "repro.campaign.worker:run_shard"),
    Point(
        "campaign.checkpoint",
        "repro.campaign.checkpoint:CheckpointWriter.shard_done",
    ),
    Point(
        "core.synthesize_masking",
        "repro.campaign.shard:synthesize_masking",
        after=_hooks(
            _MASKED_NODES,
            _count("bdd.context_nodes", lambda a, r: _context_nodes(r)),
        ),
    ),
    Point("core.integrate", "repro.campaign.shard:build_masked_design"),
    Point("engine.compile", "repro.campaign.shard:compile_circuit"),
    Point("sim.eventsim", "repro.campaign.shard:two_vector_waveforms", span=False),
    Point("sim.faults", "repro.campaign.shard:eval_with_faults", span=False),
    Point(
        "engine.eval_pattern",
        "repro.engine.ir:CompiledCircuit.eval_pattern",
        span=False,
    ),
)

#: Layers that get frames (self time + calls), in first-listed order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(p.layer for p in POINTS if p.timed))

#: Counters fed by probes and after-hooks.
COUNTERS: tuple[str, ...] = (
    "synth.trial_cost.misses",
    "synth.collapse.candidates",
    "synth.collapse.nodes_in",
    "synth.collapse.nodes_out",
    "bdd.managers",
    "bdd.context_nodes",
    "core.masked_nodes",
    "synth.map.gates_out",
    "campaign.attempts",
    "campaign.quarantined",
)


def resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name).

    Modules are fetched with :func:`importlib.import_module`, never by
    attribute access: ``repro.synth.collapse`` as an attribute is the
    re-exported *function*, which shadows the module of the same name.
    """
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{target}: {attr!r} is not defined on {owner!r}")
    return owner, attr


class LayerTracer:
    """Installs the wrappers, accounts self time, and restores originals.

    Single-threaded by design: every workload runs its items in one thread
    (``workers=0``), and the wrappers refuse calls from any other thread
    rather than corrupt the frame stack.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: dict[str, int] = {name: 0 for name in LAYERS}
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        #: Calls per wrapped call site (``Point.target``).
        self.site_calls: dict[str, int] = {p.target: 0 for p in POINTS}
        self.spans: list[dict] = []
        #: Item id stamped on spans; the workload loop sets it per item.
        self.item: str | None = None
        self._stack: list[list] = []  # [layer, child seconds, span id]
        self._saved: list[tuple[Any, str, Any]] = []
        self._thread: int | None = None
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._thread = threading.get_ident()
        try:
            for point in POINTS:
                owner, attr = resolve(point.target)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(point, original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        # Reverse order: a site patched twice gets its true original back.
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def exclude(self, seconds: float) -> None:
        """Keep time the benchmark itself spent (a speed sample) out of
        the self time of whichever layer it interrupted."""
        if self._stack:
            self._stack[-1][1] += seconds

    def _wrap(self, point: Point, fn: Callable) -> Callable:
        layer, stack, clock = point.layer, self._stack, time.perf_counter
        site, site_calls = point.target, self.site_calls
        if not point.timed:
            counts, parent = self.counts, point.parent

            def probe(*args, **kwargs):
                site_calls[site] += 1
                if parent is None or (stack and stack[-1][0] == parent):
                    counts[layer] += 1
                return fn(*args, **kwargs)

            return probe

        self_s, calls, counts = self.self_s, self.calls, self.counts
        spans, after, keep_span = self.spans, point.after, point.span

        def layer_call(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise RuntimeError(f"{layer} called off the traced thread")
            site_calls[site] += 1
            span_id = len(spans) + 1 if keep_span else None
            if keep_span:
                spans.append({})  # reserve the id; filled in on return
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                if keep_span:
                    spans[span_id - 1] = {
                        "id": span_id,
                        "name": layer,
                        "start": start - self._epoch,
                        "end": end - self._epoch,
                        "parent": next(
                            (f[2] for f in reversed(stack) if f[2] is not None),
                            None,
                        ),
                        "item": self.item,
                    }
            if after is not None:
                after(counts, args, result)
            return result

        return layer_call

    # ------------------------------------------------------------- results

    def chrome_records(self) -> list[dict]:
        """Spans as :func:`repro.obs.export.chrome_trace` records."""
        pid = os.getpid()
        return [
            {
                "pid": pid,
                "tid": 1,
                "id": span["id"],
                "parent": span["parent"],
                "name": span["name"],
                "cat": span["name"].split(".")[0],
                "ts_us": round(span["start"] * 1e6),
                "dur_us": round((span["end"] - span["start"]) * 1e6),
                "args": {"item": span["item"]},
            }
            for span in self.spans
            if span
        ]
