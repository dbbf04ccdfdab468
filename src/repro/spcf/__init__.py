"""Speed-path characteristic function (SPCF) algorithms.

Three algorithms, matching Table 1 of the paper:

* :func:`spcf_nodebased` — node-based over-approximation of [22],
* :func:`spcf_pathbased` — exact path-based extension of [22],
* :func:`spcf_shortpath` — the paper's exact short-path-based method (Eqn. 1).

:func:`compare_algorithms` runs all three, each on its own fresh manager,
and reports counts and runtimes, reproducing one row of Table 1.

:func:`monte_carlo_accuracy` cross-checks a computed SPCF against the exact
floating-mode stabilization oracle on a random pattern batch (driven by the
compiled circuit engine), classifying each sampled pattern as a true/false
positive/negative — the sampled counterpart of the exhaustive accuracy
tests, usable on circuits far too wide to enumerate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.bdd.manager import BddManager
from repro.engine import compile_circuit
from repro.netlist.circuit import Circuit
from repro.sim.logicsim import random_patterns
from repro.sim.timingsim import stabilization_times
from repro.spcf import nodebased, pathbased, shortpath
from repro.spcf.result import SpcfResult
from repro.spcf.timedfunc import SpcfContext, expr_to_function

spcf_shortpath = shortpath.compute_spcf
spcf_pathbased = pathbased.compute_spcf
spcf_nodebased = nodebased.compute_spcf


@dataclass(frozen=True)
class AlgorithmComparison:
    """One row of Table 1: counts and runtimes of the three algorithms."""

    circuit_name: str
    num_inputs: int
    num_outputs: int
    area: float
    node_based_count: int
    node_based_runtime: float
    path_based_count: int
    path_based_runtime: float
    short_path_count: int
    short_path_runtime: float

    @property
    def over_approximation_factor(self) -> float:
        """How loose the node-based count is versus the exact count."""
        if self.short_path_count == 0:
            return 1.0
        return self.node_based_count / self.short_path_count


def compare_algorithms(
    circuit: Circuit, threshold: float = 0.9, target: int | None = None
) -> AlgorithmComparison:
    """Run all three SPCF algorithms on ``circuit`` and return the Table-1
    style row.

    Each algorithm gets a fresh context on its own fresh manager, and its
    runtime spans building that context (STA included) and the solve, so
    each pays for the global functions it reads and the runtimes are
    comparable.
    """

    def cold(solve: Callable[..., SpcfResult]) -> tuple[SpcfResult, float]:
        start = time.perf_counter()
        context = SpcfContext(
            circuit, threshold, target, manager=BddManager(circuit.inputs)
        )
        result = solve(circuit, context=context)
        return result, time.perf_counter() - start

    node, node_runtime = cold(spcf_nodebased)
    path, path_runtime = cold(spcf_pathbased)
    short, short_runtime = cold(spcf_shortpath)
    return AlgorithmComparison(
        circuit_name=circuit.name,
        num_inputs=len(circuit.inputs),
        num_outputs=len(circuit.outputs),
        area=circuit.area(),
        node_based_count=node.count(),
        node_based_runtime=node_runtime,
        path_based_count=path.count(),
        path_based_runtime=path_runtime,
        short_path_count=short.count(),
        short_path_runtime=short_runtime,
    )


@dataclass(frozen=True)
class SampledAccuracy:
    """Monte-Carlo agreement between an SPCF and the stabilization oracle.

    Per sampled pattern and critical output: *positive* means the SPCF
    claims the pattern activates a speed-path; *true* means the exact
    floating-mode oracle agrees.  Exact algorithms must show zero false
    positives and zero false negatives; the node-based over-approximation
    may show false positives but never false negatives.
    """

    num_patterns: int
    checks: int
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def is_exact_on_sample(self) -> bool:
        return self.false_positives == 0 and self.false_negatives == 0

def monte_carlo_accuracy(
    result: SpcfResult, num_patterns: int = 256, seed: int = 0
) -> SampledAccuracy:
    """Cross-check ``result`` against the exact oracle on random patterns.

    For each sampled pattern the compiled engine computes the exact
    stabilization time of every critical output; membership in the
    per-output SPCF BDD is compared against ``time > target``.
    """
    ctx = result.context
    compiled = compile_circuit(ctx.circuit)
    target = result.target
    checks = tp = fp = fn = 0
    for pattern in random_patterns(compiled.inputs, num_patterns, seed=seed):
        times = stabilization_times(compiled, pattern)
        for y, sigma in result.per_output.items():
            claimed = sigma.evaluate(pattern)
            actual = times[y] > target
            checks += 1
            if claimed and actual:
                tp += 1
            elif claimed and not actual:
                fp += 1
            elif actual and not claimed:
                fn += 1
    return SampledAccuracy(
        num_patterns=num_patterns,
        checks=checks,
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
    )


__all__ = [
    "SpcfContext",
    "SpcfResult",
    "expr_to_function",
    "spcf_shortpath",
    "spcf_pathbased",
    "spcf_nodebased",
    "AlgorithmComparison",
    "compare_algorithms",
    "SampledAccuracy",
    "monte_carlo_accuracy",
]
