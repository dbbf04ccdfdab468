"""SPCF threshold-sweep speedup from the lazy multi-root compile.

A five-point threshold sweep (50%..90% of the critical delay) is computed
two ways on each circuit:

* ``baseline``  — one fresh *eager* context per threshold, each on its own
  fresh BDD manager (the whole-circuit global-function BDD build paid once
  per target), short-path recursion from scratch each time;
* ``optimized`` — one :func:`repro.spcf.multiroot.compute_multi` pass over
  a single lazy context on a fresh manager: cones are built on first use,
  and the manager and the ``stable(net, t)`` memo carry over from one
  target to the next.

Both sides pass explicit fresh managers: a default context reuses the
circuit's cached manager and global functions
(:func:`repro.spcf.timedfunc.shared_functions`), which would make every
timed repeat after the first a warm one.

Gates (``check_targets``):

* **correctness** — per target and output, the optimized SPCF is
  **bit-identical** to the baseline's (identical ROBDD cube sequences;
  canonicity makes this exact function equality),
* **speedup** — the median over circuits of baseline/optimized wall clock
  is at least ``2.0``.

Results go to ``BENCH_spcf.json`` next to the repo root.  Run standalone
(``python benchmarks/bench_spcf.py``), in CI check mode (``--check``,
fewer repeats), or via ``pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

from repro.bdd import BddManager
from repro.benchcircuits import circuit_by_name
from repro.netlist import lsi10k_like_library
from repro.spcf import SpcfContext, spcf_multiroot, spcf_shortpath
from repro.spcf.multiroot import resolve_sweep_targets

#: The sweep: Delta_y at these fractions of each circuit's critical delay.
THRESHOLDS = (0.5, 0.6, 0.7, 0.8, 0.9)

#: Diverse exact-SPCF-feasible circuits: the paper's worked example and
#: scaled comparators, handmade datapath/control logic, and the synthetic
#: stand-ins for the paper's named benchmarks (up to 45 primary inputs).
CIRCUITS = (
    "comparator6",
    "ripple_adder8",
    "i1",
    "cmb",
    "x2",
    "cu",
    "alu2",
    "alu4",
    "apex4",
    "frg1",
    "C432",
    "too_large",
    "k2",
)

REPEATS = 5
CHECK_REPEATS = 3

SPEEDUP_GATE = 2.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_spcf.json"


def _baseline_sweep(circuit, targets):
    """One fresh eager context per target, each on a fresh manager."""
    results = {}
    for tgt in targets:
        ctx = SpcfContext(
            circuit, target=tgt, manager=BddManager(circuit.inputs)
        )
        # Eager: every gate's global function is built before the recursion.
        for name in circuit.topo_order():
            ctx.functions[name]
        results[tgt] = spcf_shortpath(circuit, context=ctx)
    return results


def _optimized_sweep(circuit, targets):
    """One multi-root pass over a lazy context on a fresh manager."""
    return spcf_multiroot(
        circuit, targets=targets, manager=BddManager(circuit.inputs)
    )


def _canonical(result):
    """Cross-manager comparable form: output -> ROBDD cube sequence."""
    return {
        y: list(fn.cubes()) for y, fn in sorted(result.per_output.items())
    }


def _time(fn, repeats):
    """Best-of-``repeats`` wall clock (GC parked so debt lands nowhere)."""
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def run_circuit(name: str, repeats: int, library) -> dict:
    circuit = circuit_by_name(name, library)
    targets = resolve_sweep_targets(
        SpcfContext(circuit), None, THRESHOLDS
    )

    base = _baseline_sweep(circuit, targets)
    opt = _optimized_sweep(circuit, targets)
    identical = all(
        _canonical(base[tgt]) == _canonical(opt[tgt]) for tgt in targets
    )

    baseline_s = _time(lambda: _baseline_sweep(circuit, targets), repeats)
    optimized_s = _time(lambda: _optimized_sweep(circuit, targets), repeats)
    return {
        "inputs": len(circuit.inputs),
        "gates": circuit.num_gates,
        "targets": list(targets),
        "outputs": sum(len(r.per_output) for r in base.values()),
        "identical": identical,
        "baseline_s": baseline_s,
        "optimized_s": optimized_s,
        "speedup": round(baseline_s / optimized_s, 3),
    }


def measure(repeats: int = REPEATS, library=None) -> dict:
    library = library or lsi10k_like_library()
    rows = {name: run_circuit(name, repeats, library) for name in CIRCUITS}
    speedups = [row["speedup"] for row in rows.values()]
    return {
        "thresholds": list(THRESHOLDS),
        "repeats": repeats,
        "speedup_gate": SPEEDUP_GATE,
        "median_speedup": round(statistics.median(speedups), 3),
        "rows": rows,
    }


def print_table(payload: dict) -> None:
    print(
        f"{'circuit':18s} {'in':>4s} {'gates':>6s} "
        f"{'base':>9s} {'opt':>9s} {'speedup':>8s} ident"
    )
    for name, row in payload["rows"].items():
        print(
            f"{name:18s} {row['inputs']:4d} {row['gates']:6d} "
            f"{row['baseline_s'] * 1e3:7.1f}ms {row['optimized_s'] * 1e3:7.1f}ms "
            f"{row['speedup']:7.2f}x {row['identical']}"
        )
    print(
        f"median speedup {payload['median_speedup']:.2f}x over "
        f"{len(payload['rows'])} circuits x {len(payload['thresholds'])} "
        f"thresholds (gate >= {payload['speedup_gate']}x; JSON written to "
        f"{RESULT_PATH})"
    )


def check_targets(payload: dict) -> None:
    """The acceptance gates: bit-identical and >= 2x median speedup."""
    for name, row in payload["rows"].items():
        assert row["identical"], (
            f"{name}: optimized sweep is not bit-identical to the baseline"
        )
    assert payload["median_speedup"] >= payload["speedup_gate"], (
        f"median speedup {payload['median_speedup']}x below the "
        f"{payload['speedup_gate']}x gate"
    )


def run_suite(repeats: int = REPEATS, library=None) -> dict:
    payload = measure(repeats, library)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_spcf_multiroot_speedup(benchmark, lsi_lib):
    payload = benchmark.pedantic(
        lambda: run_suite(REPEATS, lsi_lib), rounds=1, iterations=1
    )
    print_table(payload)
    check_targets(payload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: fewer repeats, nonzero exit when a gate fails",
    )
    args = parser.parse_args()
    payload = run_suite(CHECK_REPEATS if args.check else REPEATS)
    print_table(payload)
    check_targets(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
