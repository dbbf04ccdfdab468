"""Technology-independent networks, collapse, decomposition, mapping, power."""

from repro.synth.collapse import circuit_to_technet, collapse
from repro.synth.decompose import GateBuilder, decompose_cover
from repro.synth.mapping import map_technet, remove_buffers
from repro.synth.power import signal_probabilities_bdd, switching_power
from repro.synth.technet import TechNetwork, TechNode, node_from_function

__all__ = [
    "TechNetwork",
    "TechNode",
    "node_from_function",
    "circuit_to_technet",
    "collapse",
    "GateBuilder",
    "decompose_cover",
    "map_technet",
    "remove_buffers",
    "signal_probabilities_bdd",
    "switching_power",
]
