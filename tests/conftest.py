"""Shared fixtures and circuit-generation helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.netlist import Circuit, Library, lsi10k_like_library, unit_library


@pytest.fixture(autouse=True)
def _obs_clean():
    """Leave the process-global observability layer off and empty.

    Tests that enable recording (or merge worker snapshots) must not leak
    series or spans into whichever test runs next.
    """
    yield
    obs.configure(enabled=False, trace_jsonl="")
    obs.reset()


@pytest.fixture(scope="session")
def unit_lib() -> Library:
    return unit_library()


@pytest.fixture(scope="session")
def lsi_lib() -> Library:
    return lsi10k_like_library()


def random_dag_circuit(
    seed: int,
    num_inputs: int = 5,
    num_gates: int = 12,
    library: Library | None = None,
    num_outputs: int = 2,
    name: str | None = None,
) -> Circuit:
    """A random acyclic circuit for property tests.

    Gates draw fanins from all earlier nets, so arbitrary reconvergence and
    multi-fanout structures occur; outputs are the last ``num_outputs`` gate
    nets (guaranteeing non-trivial cones).
    """
    lib = library or unit_library()
    rng = random.Random(seed)
    cells = [
        lib.get(n)
        for n in ("INV", "AND2", "OR2", "NAND2", "NOR2", "XOR2", "AND3", "OR3")
        if n in lib
    ]
    inputs = [f"x{i}" for i in range(num_inputs)]
    c = Circuit(name or f"rand{seed}", inputs=inputs)
    nets = list(inputs)
    for g in range(num_gates):
        cell = rng.choice(cells)
        fanins = [rng.choice(nets) for _ in range(cell.num_inputs)]
        net = f"g{g}"
        c.add_gate(net, cell, fanins)
        nets.append(net)
    for k in range(num_outputs):
        c.add_output(f"g{num_gates - 1 - k}")
    c.validate()
    return c
