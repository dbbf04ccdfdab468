"""Golden lift and collapse networks for the 20 Table 2 circuits.

``data/collapsed_networks.json`` holds, per circuit, the node count and
:meth:`TechNetwork.digest` of ``circuit_to_technet`` and of ``collapse``
with the lsi10k-like library at its default bounds.  The digest covers
node names, fanins and on/off cubes in order, so any change to how a
network is lifted or collapsed fails here.  Regenerate the file only for
a deliberate change (``benchmarks/bench_collapse.py --write-golden``).
"""

import json
from pathlib import Path

import pytest

from repro.benchcircuits import PAPER_SPECS, make_benchmark
from repro.netlist import lsi10k_like_library
from repro.synth import circuit_to_technet, collapse

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "collapsed_networks.json").read_text()
)["circuits"]


@pytest.fixture(scope="module")
def library():
    return lsi10k_like_library()


def test_golden_covers_every_table2_circuit():
    assert list(GOLDEN) == list(PAPER_SPECS)


@pytest.mark.parametrize("name", list(PAPER_SPECS))
def test_lift_and_collapse_match_golden(name, library):
    lifted = circuit_to_technet(make_benchmark(name, library))
    assert {"nodes": lifted.num_nodes, "sha256": lifted.digest()} == GOLDEN[
        name
    ]["lifted"]
    collapsed = collapse(lifted, library=library)
    assert {
        "nodes": collapsed.num_nodes,
        "sha256": collapsed.digest(),
    } == GOLDEN[name]["collapsed"]
