"""The paper's numbers at seed 0, pinned against the end-to-end golden.

``benchmarks/e2e/expected_seed0.json`` is the one source of truth: this
test reads it and recomputes, on the same generated circuits,

* every Table 2 row (``mask_circuit`` at threshold 0.9, rounded as the
  benchmark rounds it), and
* the Table 1 counts of all three SPCF algorithms at threshold 0.9 on the
  first generation of the ``spcf_sweep`` circuits.
"""

from __future__ import annotations

import json

import pytest

from repro import spcf
from repro.benchcircuits.generators import PAPER_SPECS
from repro.core import pipeline
from repro.spcf.timedfunc import SpcfContext
from tests.e2e_modules import E2E_DIR, load

workloads = load("workloads")
EXPECTED = json.loads((E2E_DIR / "expected_seed0.json").read_text())["workloads"]
NAMES = tuple(PAPER_SPECS)


@pytest.fixture(scope="module")
def state():
    return workloads.WORKLOADS["table2"].setup(0, NAMES)


def test_table2_rows_match_the_golden(state):
    expected = EXPECTED["table2"]["items"]
    assert sorted(expected) == sorted(NAMES)
    for name, circuit in state.circuits.items():
        result = pipeline.mask_circuit(circuit, state.library, threshold=0.9)
        assert workloads._row(result.report) == expected[name], name


def test_table1_counts_at_0_9_match_the_golden(state):
    expected = EXPECTED["spcf_sweep"]["items"]
    checked = 0
    for name, circuit in state.circuits.items():
        for alg in workloads.SPCF_ALGORITHMS:
            solve = getattr(spcf, f"spcf_{alg}")
            result = solve(circuit, context=SpcfContext(circuit, threshold=0.9))
            out = {
                "critical_outputs": len(result.per_output),
                "count": result.count(),
            }
            assert out == expected[f"{name}@0.9/{alg}"], (name, alg)
            checked += 1
    assert checked == 60
