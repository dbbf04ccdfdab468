"""Static path-sensitization sweep: prefilter reach + pruned-output gate.

Every builtin circuit with at most 12 primary inputs (the exhaustive-plane
ceiling) runs through :func:`repro.analysis.paths.analyze_paths` at the
default 90% threshold, and two facts are checked (``check_targets``):

* **pruned outputs are never late** — an output whose over-target paths
  are *all* prunable (their Eqn. 1 activation conditions are
  unsatisfiable) must get an empty Sigma_y from the plain
  :func:`repro.spcf.spcf_shortpath` at the same target.  At least one
  such output must occur across the sweep (the ``bypass`` demonstrator:
  its only speed-path is false and prunable), so the check never passes
  vacuously.
* **prefilter discharge rate recorded** — the fraction of paths settled
  by the ternary/word planes before any BDD work is computed and stored
  per circuit and as a sweep-wide aggregate, so regressions in the
  cheap-first ordering are visible in the JSON history.

Results go to ``BENCH_paths.json`` next to the repo root.  Run standalone
(``python benchmarks/bench_paths.py``), in CI check mode (``--check``),
or via ``pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from repro.analysis.paths import analyze_paths
from repro.benchcircuits import circuit_by_name
from repro.netlist import lsi10k_like_library
from repro.spcf import spcf_shortpath

#: Every builtin circuit whose input count fits the exhaustive word plane.
CIRCUITS = (
    "bypass",
    "comparator2",
    "comparator4",
    "comparator6",
    "full_adder",
    "cla4",
    "alu_slice",
    "ripple_adder4",
    "decoder3",
    "parity8",
    "mux_tree3",
    "priority_encoder8",
    "x2",
    "alu2",
    "apex4",
)

THRESHOLD = 0.9

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_paths.json"


def _timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def run_circuit(name: str, library) -> dict:
    circuit = circuit_by_name(name, library)
    analysis, analyze_s = _timed(
        lambda: analyze_paths(circuit, threshold=THRESHOLD)
    )
    stats = analysis.stats
    target = analysis.target
    by_output: dict[str, list[bool]] = {}
    for cert in analysis.certificates:
        by_output.setdefault(cert.end, []).append(cert.prunable)
    pruned = sorted(y for y, flags in by_output.items() if all(flags))
    sigma = spcf_shortpath(circuit, target=target).per_output

    prefilter = stats["prefilter_ternary"] + stats["prefilter_exhaustive"]
    return {
        "inputs": len(circuit.inputs),
        "gates": circuit.num_gates,
        "target": target,
        "paths": stats["paths"],
        "false": stats["false"],
        "true": stats["true"],
        "unresolved": stats["unresolved"],
        "prunable": stats["prunable"],
        "bdd_paths": stats["bdd_paths"],
        "replays": stats["replays"],
        "prefilter_discharged": prefilter,
        "prefilter_rate": round(prefilter / stats["paths"], 4)
        if stats["paths"]
        else 1.0,
        "pruned_outputs": pruned,
        "pruned_sigma_false": all(sigma[y].is_false for y in pruned),
        "analyze_s": analyze_s,
    }


def measure(library=None) -> dict:
    library = library or lsi10k_like_library()
    rows = {name: run_circuit(name, library) for name in CIRCUITS}
    total_paths = sum(r["paths"] for r in rows.values())
    total_prefilter = sum(r["prefilter_discharged"] for r in rows.values())
    return {
        "threshold": THRESHOLD,
        "circuits": len(rows),
        "total_paths": total_paths,
        "prefilter_rate": round(total_prefilter / total_paths, 4)
        if total_paths
        else 1.0,
        "pruned_outputs": sum(len(r["pruned_outputs"]) for r in rows.values()),
        "rows": rows,
    }


def print_table(payload: dict) -> None:
    print(
        f"{'circuit':18s} {'in':>4s} {'paths':>6s} {'false':>6s} "
        f"{'true':>5s} {'unres':>6s} {'pre%':>6s} {'pruned':>6s} "
        f"{'time':>8s} sigma=0"
    )
    for name, row in payload["rows"].items():
        print(
            f"{name:18s} {row['inputs']:4d} {row['paths']:6d} "
            f"{row['false']:6d} {row['true']:5d} {row['unresolved']:6d} "
            f"{100 * row['prefilter_rate']:5.1f}% "
            f"{len(row['pruned_outputs']):6d} "
            f"{row['analyze_s'] * 1e3:6.1f}ms {row['pruned_sigma_false']}"
        )
    print(
        f"prefilter settled {100 * payload['prefilter_rate']:.1f}% of "
        f"{payload['total_paths']} paths before BDD work; "
        f"{payload['pruned_outputs']} output(s) with only prunable paths "
        f"(JSON written to {RESULT_PATH})"
    )


def check_targets(payload: dict) -> None:
    """The acceptance gate: every all-prunable output has an empty Sigma."""
    for name, row in payload["rows"].items():
        assert row["pruned_sigma_false"], (
            f"{name}: an output whose speed-paths are all prunable "
            f"({row['pruned_outputs']}) has a non-empty Sigma_y"
        )
    assert payload["pruned_outputs"] > 0, (
        "no output with only prunable speed-paths in the sweep; the "
        "pruned-output check would pass vacuously"
    )


def run_suite(library=None) -> dict:
    payload = measure(library)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_paths_sweep(benchmark, lsi_lib):
    payload = benchmark.pedantic(
        lambda: run_suite(lsi_lib), rounds=1, iterations=1
    )
    print_table(payload)
    check_targets(payload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: nonzero exit when a gate fails",
    )
    parser.parse_args()
    payload = run_suite()
    print_table(payload)
    check_targets(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
