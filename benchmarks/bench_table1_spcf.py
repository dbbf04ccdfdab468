"""Table 1 — SPCF accuracy vs runtime for the three algorithms.

Paper columns: circuit, I/O, area, then for each algorithm the number of
critical patterns and the runtime.  Invariants checked while benchmarking:
node-based ⊇ exact, path-based == short-path (both exact), and the proposed
short-path method is not slower than the path-based extension.
"""

import pytest

from benchmarks.conftest import fmt_count
from repro.bdd import BddManager
from repro.benchcircuits import TABLE1_NAMES, make_benchmark
from repro.spcf import (
    SpcfContext,
    spcf_nodebased,
    spcf_pathbased,
    spcf_shortpath,
)

_HEADER_PRINTED = False


def _print_row(name, circuit, node, path, short):
    global _HEADER_PRINTED
    if not _HEADER_PRINTED:
        print(
            "\nTable 1: critical patterns and runtime per SPCF algorithm\n"
            f"{'circuit':18s} {'I/O':>9s} {'area':>7s} "
            f"{'node-based':>12s} {'t(s)':>7s} "
            f"{'path-based':>12s} {'t(s)':>7s} "
            f"{'short-path':>12s} {'t(s)':>7s} {'overapx':>8s}"
        )
        _HEADER_PRINTED = True
    io = f"{len(circuit.inputs)}/{len(circuit.outputs)}"
    over = node.count() / short.count() if short.count() else 1.0
    print(
        f"{name:18s} {io:>9s} {circuit.area():7.0f} "
        f"{fmt_count(node.count()):>12s} {node.runtime_seconds:7.3f} "
        f"{fmt_count(path.count()):>12s} {path.runtime_seconds:7.3f} "
        f"{fmt_count(short.count()):>12s} {short.runtime_seconds:7.3f} "
        f"{over:8.2f}"
    )


def _cold(circuit):
    """A context on its own fresh manager: it pays for every BDD it reads."""
    return SpcfContext(circuit, manager=BddManager(circuit.inputs))


@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_table1_row(benchmark, name, lsi_lib):
    circuit = make_benchmark(name, lsi_lib)

    def run_short():
        return spcf_shortpath(circuit, context=_cold(circuit))

    benchmark(run_short)
    node = spcf_nodebased(circuit, context=_cold(circuit))
    path = spcf_pathbased(circuit, context=_cold(circuit))
    short_counted = spcf_shortpath(circuit, context=_cold(circuit))

    assert path.count() == short_counted.count()
    assert node.count() >= short_counted.count()
    _print_row(name, circuit, node, path, short_counted)
