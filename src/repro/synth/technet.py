"""Technology-independent networks.

The paper's synthesis algorithm (Sec. 4.1) operates on *technology-independent
representations*: DAGs whose internal nodes carry complex Boolean functions of
10–15 inputs, kept as explicit sum-of-products covers of both the on-set and
the off-set (the masking synthesis selects cubes from both).

:class:`TechNode` stores the two covers over the node's fanin names;
:class:`TechNetwork` is the DAG with the usual structural services
(validation, topological order, cones, global BDD functions).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from repro.bdd.manager import BddManager, Function
from repro.bdd.isop import isop_function
from repro.errors import SynthesisError
from repro.logic.cover import Cover


@dataclass(frozen=True)
class TechNode:
    """One complex node: covers of the on-set and off-set over the fanins."""

    name: str
    fanins: tuple[str, ...]
    on_cover: Cover
    off_cover: Cover

    def __post_init__(self) -> None:
        if len(set(self.fanins)) != len(self.fanins):
            raise SynthesisError(f"node {self.name!r}: duplicate fanins")
        for cover in (self.on_cover, self.off_cover):
            if cover.names != self.fanins:
                raise SynthesisError(
                    f"node {self.name!r}: cover names {cover.names} do not "
                    f"match fanins {self.fanins}"
                )

    @property
    def num_fanins(self) -> int:
        return len(self.fanins)

    def check_consistent(self) -> None:
        """Verify the on/off covers partition the local input space."""
        mgr = BddManager(self.fanins)
        on = self.on_cover.to_function(mgr)
        off = self.off_cover.to_function(mgr)
        if not (on & off).is_false or not (on | off).is_true:
            raise SynthesisError(
                f"node {self.name!r}: on/off covers are not complementary"
            )


def node_from_function(
    name: str, fanins: Iterable[str], fn: Function
) -> TechNode:
    """Build a node from a BDD over variables named like the fanins.

    Fanins not in the function's support are dropped, so collapsed nodes
    keep a minimal support set.
    """
    support = fn.support()
    kept = tuple(f for f in fanins if f in support)
    on = Cover.from_cube_dicts(kept, isop_function(fn))
    off = Cover.from_cube_dicts(kept, isop_function(~fn))
    return TechNode(name, kept, on, off)


class TechNetwork:
    """A technology-independent logic network."""

    def __init__(
        self,
        name: str,
        inputs: Iterable[str],
        outputs: Iterable[str],
    ) -> None:
        self.name = name
        self._inputs: tuple[str, ...] = tuple(inputs)
        # Membership tests read the set: wide circuits have ~900 inputs.
        self._input_set: frozenset[str] = frozenset(self._inputs)
        self.outputs: tuple[str, ...] = tuple(outputs)
        self._nodes: dict[str, TechNode] = {}
        self._topo: list[str] | None = None

    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary inputs in order (read-only, so the lookup set stays
        in step)."""
        return self._inputs

    @property
    def nodes(self) -> Mapping[str, TechNode]:
        """Read-only live view of the nodes (no copy per access)."""
        return MappingProxyType(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def add_node(self, node: TechNode) -> TechNode:
        if node.name in self._nodes or node.name in self._input_set:
            raise SynthesisError(f"duplicate node {node.name!r}")
        self._nodes[node.name] = node
        self._topo = None
        return node

    def replace_node(self, node: TechNode) -> None:
        if node.name not in self._nodes:
            raise SynthesisError(f"no node {node.name!r} to replace")
        self._nodes[node.name] = node
        self._topo = None

    def remove_node(self, name: str) -> None:
        if name not in self._nodes:
            raise SynthesisError(f"no node {name!r} to remove")
        del self._nodes[name]
        self._topo = None

    def node(self, name: str) -> TechNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise SynthesisError(f"unknown node {name!r}") from None

    def has_net(self, net: str) -> bool:
        return net in self._nodes or net in self._input_set

    def is_input(self, net: str) -> bool:
        return net in self._input_set

    def validate(self) -> None:
        """Structural validation: driven fanins/outputs, acyclicity."""
        for node in self._nodes.values():
            for f in node.fanins:
                if not self.has_net(f):
                    raise SynthesisError(
                        f"node {node.name!r} reads undefined net {f!r}"
                    )
        for out in self.outputs:
            if not self.has_net(out):
                raise SynthesisError(f"output {out!r} is not driven")
        self.topo_order()

    def topo_order(self) -> list[str]:
        """Node names in fanin-before-fanout order (raises on cycles)."""
        if self._topo is not None:
            return self._topo
        indeg: dict[str, int] = {}
        deps: dict[str, list[str]] = {}
        for node in self._nodes.values():
            count = 0
            for f in node.fanins:
                if f in self._nodes:
                    count += 1
                    deps.setdefault(f, []).append(node.name)
            indeg[node.name] = count
        ready = [n for n, d in indeg.items() if d == 0]
        order: list[str] = []
        while ready:
            n = ready.pop()
            order.append(n)
            for d in deps.get(n, ()):
                indeg[d] -= 1
                if indeg[d] == 0:
                    ready.append(d)
        if len(order) != len(self._nodes):
            raise SynthesisError(f"technetwork {self.name!r} has a cycle")
        self._topo = order
        return order

    def fanout_counts(self) -> dict[str, int]:
        """How many nodes read each net (outputs add one reader)."""
        counts = {net: 0 for net in self.inputs}
        counts.update({n: 0 for n in self._nodes})
        for node in self._nodes.values():
            for f in node.fanins:
                counts[f] += 1
        for out in self.outputs:
            counts[out] += 1
        return counts

    def fanin_cone(self, net: str) -> set[str]:
        """Node names in the transitive fanin of ``net`` (including it)."""
        cone: set[str] = set()
        stack = [net]
        while stack:
            n = stack.pop()
            if n in self._input_set or n in cone:
                continue
            cone.add(n)
            stack.extend(self._nodes[n].fanins)
        return cone

    def global_functions(self, mgr: BddManager) -> dict[str, Function]:
        """BDD of every net over the primary inputs, built from the covers.

        Masking reads the SPCF context's gate-level map instead (collapse
        keeps net names and functions); this cover walk is the independent
        reference that checks that fact.
        """
        for net in self.inputs:
            mgr.ensure_var(net)
        fns: dict[str, Function] = {net: mgr.var(net) for net in self.inputs}
        for name in self.topo_order():
            node = self._nodes[name]
            local = node.on_cover
            acc = mgr.false
            for cube in local.cubes:
                term = mgr.true
                for net, pol in cube.to_dict(local.names).items():
                    term = term & (fns[net] if pol else ~fns[net])
                acc = acc | term
            fns[name] = acc
        return fns

    def digest(self) -> str:
        """SHA-256 of the network: inputs, outputs, then every node in
        topological order as its name, fanins and on/off cube values.

        Two networks share a digest iff they are node for node identical,
        cube order included.
        """
        h = hashlib.sha256(repr((self.inputs, self.outputs)).encode())
        for name in self.topo_order():
            node = self._nodes[name]
            h.update(
                repr(
                    (
                        name,
                        node.fanins,
                        [c.values for c in node.on_cover.cubes],
                        [c.values for c in node.off_cover.cubes],
                    )
                ).encode()
            )
        return h.hexdigest()

    def copy(self, name: str | None = None) -> "TechNetwork":
        out = TechNetwork(name or self.name, self.inputs, self.outputs)
        out._nodes = dict(self._nodes)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TechNetwork({self.name!r}, {len(self.inputs)} in, "
            f"{len(self.outputs)} out, {len(self._nodes)} nodes)"
        )
