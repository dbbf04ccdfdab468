"""Golden gates of the cover lowering, both polarities.

``data/lowering_golden.json`` pins, for each of the 1,000 seeded covers of
``tests/logic/test_factoring.py`` and the lsi10k-like library, the gates
:func:`decompose_cover` emits into a circuit builder (output net, then each
gate's name, cell and fanins in emit order) and the ``(delay, area)`` that
:func:`trial_cost` prices, both for the cover and for its inversion.  Each
entry is the leading 16 hex digits of a SHA-256 over both polarities, so
any change to factoring, De Morgan push-down, chain flattening, tree
balancing or strashing fails here.  Regenerate the file only for a
deliberate change to the mapped form::

    PYTHONPATH=src python -m tests.synth.test_lowering_golden --write-golden
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.logic import Cover
from repro.lru import LRUCache
from repro.netlist import Circuit, lsi10k_like_library
from repro.synth import GateBuilder, decompose_cover, mapping
from tests.logic.test_factoring import GOLDEN_COUNT, GOLDEN_SEED, golden_covers

GOLDEN_PATH = Path(__file__).parent / "data" / "lowering_golden.json"

LIB = lsi10k_like_library()


def _gates(cover: Cover, inverted: bool) -> str:
    circuit = Circuit("t", inputs=cover.names)
    builder = GateBuilder(circuit, LIB, "k_")
    net = decompose_cover(cover, builder, invert_output=inverted)
    gates = ";".join(
        f"{name}={gate.cell.name}({','.join(gate.fanins)})"
        for name, gate in circuit.gates.items()
    )
    return f"{net}|{gates}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def lowered_digests(covers: list[Cover]) -> tuple[list[str], list[str]]:
    """Per cover: digests of its emitted gates and of its trial costs."""
    saved = mapping._trial_cache
    mapping._trial_cache = LRUCache(mapping.TRIAL_CACHE_SIZE)  # price every cover
    try:
        gates, costs = [], []
        for cover in covers:
            gates.append(_digest("\n".join(_gates(cover, inv) for inv in (False, True))))
            costs.append(_digest(repr([
                mapping.trial_cost(cover, LIB, inverted=inv) for inv in (False, True)
            ])))
        return gates, costs
    finally:
        mapping._trial_cache = saved


def test_lowering_matches_golden_gates_and_costs():
    golden = json.loads(GOLDEN_PATH.read_text())
    covers = golden_covers(golden["seed"], golden["count"])
    gates, costs = lowered_digests(covers)
    for label, got in (("gates", gates), ("costs", costs)):
        bad = [i for i, (g, w) in enumerate(zip(got, golden[label])) if g != w]
        assert not bad, (
            f"{len(bad)} covers lower to different {label}; first cover "
            f"#{bad[0]}: {[str(c) for c in covers[bad[0]].cubes]}"
        )
        assert len(got) == len(golden[label])


def write_golden() -> None:
    gates, costs = lowered_digests(golden_covers())
    GOLDEN_PATH.write_text(
        json.dumps(
            {"seed": GOLDEN_SEED, "count": GOLDEN_COUNT, "gates": gates, "costs": costs},
            indent=1,
        )
        + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-golden"]:
        sys.exit("usage: test_lowering_golden.py --write-golden")
    write_golden()
