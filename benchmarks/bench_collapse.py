"""Stage timings of the lift and the collapse over the 20 Table 2 circuits.

For every circuit of ``PAPER_SPECS`` (built on one lsi10k-like library) the
script lifts it with :func:`circuit_to_technet`, then collapses the result
with :func:`collapse` at its default bounds and with the same library, and
records:

* ``lift_s`` / ``collapse_s`` — wall clock of each stage, one cold pass in
  a fresh process (warm caches would hide the work being measured);
* node counts of both networks and their :meth:`TechNetwork.digest`;
* the ``trial_cost`` calls and cache misses the collapse made.

Results go to ``BENCH_collapse.json`` next to the repo root.  ``--check``
compares every digest with ``tests/synth/data/collapsed_networks.json``
and exits 1 on any difference; it never gates on time.
``--write-golden`` rewrites that file: a deliberate change of the lifted
or collapsed networks, to be reviewed as a diff.

    PYTHONPATH=src python benchmarks/bench_collapse.py [--check]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import obs
from repro.benchcircuits import PAPER_SPECS, make_benchmark
from repro.netlist import lsi10k_like_library
from repro.synth import circuit_to_technet, collapse

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_collapse.json"
GOLDEN_PATH = ROOT / "tests" / "synth" / "data" / "collapsed_networks.json"

_HITS = "repro_synth_trial_cost_hits_total"
_MISSES = "repro_synth_trial_cost_misses_total"


def _counter(snapshot: dict, name: str) -> int:
    entry = snapshot["metrics"].get(name)
    return int(sum(entry["series"].values())) if entry else 0


def measure() -> dict:
    """One cold lift + collapse pass over every Table 2 circuit."""
    library = lsi10k_like_library()
    obs.configure(enabled=True)
    obs.reset()
    rows = {}
    for name in PAPER_SPECS:
        circuit = make_benchmark(name, library)
        t0 = time.perf_counter()
        lifted = circuit_to_technet(circuit)
        t1 = time.perf_counter()
        collapsed = collapse(lifted, library=library)
        t2 = time.perf_counter()
        rows[name] = {
            "lifted": {"nodes": lifted.num_nodes, "sha256": lifted.digest()},
            "collapsed": {
                "nodes": collapsed.num_nodes,
                "sha256": collapsed.digest(),
            },
            "lift_s": round(t1 - t0, 4),
            "collapse_s": round(t2 - t1, 4),
        }
    snapshot = obs.metrics_snapshot()
    obs.configure(enabled=False)
    hits, misses = _counter(snapshot, _HITS), _counter(snapshot, _MISSES)
    return {
        "circuits": len(rows),
        "lift_s": round(sum(r["lift_s"] for r in rows.values()), 3),
        "collapse_s": round(sum(r["collapse_s"] for r in rows.values()), 3),
        "trial_cost_calls": hits + misses,
        "trial_cost_misses": misses,
        "rows": rows,
    }


def networks(payload: dict) -> dict:
    """The golden part of a payload: node counts and digests per circuit."""
    return {
        name: {"lifted": row["lifted"], "collapsed": row["collapsed"]}
        for name, row in payload["rows"].items()
    }


def mismatches(payload: dict, golden: dict) -> list[str]:
    """Circuits whose lifted or collapsed network differs from ``golden``."""
    got = networks(payload)
    return [
        f"{name}: {stage} {got.get(name, {}).get(stage)} != {want[stage]}"
        for name, want in golden["circuits"].items()
        for stage in ("lifted", "collapsed")
        if got.get(name, {}).get(stage) != want[stage]
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="exit 1 unless every digest matches"
    )
    parser.add_argument(
        "--write-golden", action="store_true", help=f"rewrite {GOLDEN_PATH.name}"
    )
    args = parser.parse_args(argv)
    payload = measure()
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"lift {payload['lift_s']:.2f} s, collapse {payload['collapse_s']:.2f} s "
        f"over {payload['circuits']} circuits; trial_cost "
        f"{payload['trial_cost_calls']} calls, {payload['trial_cost_misses']} "
        f"misses (JSON written to {RESULT_PATH.name})"
    )
    if args.write_golden:
        golden = {"schema": 1, "circuits": networks(payload)}
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
        print(f"golden written to {GOLDEN_PATH}")
    if args.check:
        bad = mismatches(payload, json.loads(GOLDEN_PATH.read_text()))
        for line in bad:
            print(f"MISMATCH {line}", file=sys.stderr)
        if bad:
            return 1
        print(f"all {payload['circuits']} networks match {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
