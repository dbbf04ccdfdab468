"""Observability overhead — proves the disabled layer is (nearly) free.

The obs acceptance gate: with ``REPRO_OBS`` unset, the instrumented hot
paths must run within **2%** of a pristine build that never heard of
:mod:`repro.obs`.  The instrumentation discipline under test is "one
attribute load and one branch per *call*" (never per gate), so the
stress configuration uses the smallest batches the word evaluator is
actually used with — that is where per-call overhead is proportionally
largest.

Three variants are timed:

* ``pristine``  — a local verbatim copy of the eval loop with the
  ``if _METER.enabled`` guard deleted (the honest "never instrumented"
  baseline; kept in sync with ``repro.engine.words`` by the
  bit-exactness assertion below),
* ``disabled``  — the shipped code with observability off (the default),
* ``enabled``   — the shipped code recording counters and histograms.

A 2% gate needs an estimator that survives shared-runner noise, where
block timing — and even min-filtering — is biased by load drift (under
sustained steal there may be *no* clean windows).  So the variants are
sampled in tight round-robin rounds and the gated quantity is the
**median of per-round ratios** (each round's variants see near-identical
machine conditions, so the slowdown divides out), re-estimated over
several independent trials and medianed again.

Gate (``check_targets``): disabled/pristine ≤ 1.02 on the ``eval_words``
path.  The enabled ratio is reported but not gated — recording costs
whatever it costs.

Results go to ``BENCH_obs.json`` next to the repo root.  Run standalone
(``python benchmarks/bench_obs_overhead.py``), in CI check mode
(``--check``, fewer repeats), or via ``pytest benchmarks/
--benchmark-only -s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

from repro import obs
from repro.benchcircuits import circuit_by_name
from repro.engine import compile_circuit, eval_words, pack_input_words
from repro.engine.ir import check_width
from repro.errors import EngineError
from repro.netlist import lsi10k_like_library
from repro.sim import pack_patterns, random_patterns

#: Small-batch stress shapes: per-call overhead is amortized over this few
#: patterns, the worst case for the "one branch per call" discipline.  Small
#: enough that a per-gate recording mistake would blow the 2% gate at once,
#: large enough that the measurement is not dominated by timer jitter.
WORD_WIDTH = 1024

#: Eval calls per timing sample.  Samples are kept *short* (a few hundred
#: microseconds) so each round's pristine/disabled/enabled samples run
#: under near-identical machine conditions; per-call jitter is handled by
#: the median over rounds, not by sample length.
PYTHON_CALLS = 10

#: Paired rounds per trial; each round yields one disabled/pristine and
#: one enabled/pristine ratio, medianed per trial.
ROUNDS = 120

#: Independent trials; the reported ratio is the median of trial medians,
#: which decorrelates multi-second load drift.
REPEATS = 9
CHECK_REPEATS = 5

CIRCUIT = "cmb"

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def _pristine_eval_words(compiled, input_words, width):
    """``repro.engine.eval_words`` minus only the obs guard.

    The validation lines predate obs and belong to the baseline — dropping
    them would charge their cost to the observability layer.
    """
    check_width(width)
    if len(input_words) != compiled.n_inputs:
        raise EngineError(
            f"{len(input_words)} input words for {compiled.n_inputs} inputs"
        )
    mask = (1 << width) - 1
    values = [0] * compiled.n_nets
    for i, word in enumerate(input_words):
        values[i] = word & mask
    for func, out, fanins in compiled.plan:
        values[out] = func(mask, *[values[f] for f in fanins])
    return values


def _measure_paired(repeats, calls, variants):
    """Median-of-paired-ratios measurement over ``repeats`` trials.

    ``variants`` maps name -> (setup, fn) with ``"pristine"`` required;
    setup runs untimed before each sample.  Each of the ``ROUNDS`` rounds
    in a trial times every variant back to back (``calls`` eval calls per
    sample) and contributes one ``<variant>/pristine`` ratio; the trial's
    estimate is the median round ratio, and the reported ratio is the
    median over trials.  Returns per-call sample times plus the ratios.
    """
    names = list(variants)
    ratio_trials = {name: [] for name in names if name != "pristine"}
    all_samples = {name: [] for name in names}
    for _ in range(repeats):
        times = {name: [] for name in names}
        gc.collect()
        gc.disable()  # the enabled variant allocates; don't let its GC
        try:          # debt fire inside another variant's sample
            for r in range(ROUNDS):
                order = names[r % len(names):] + names[: r % len(names)]
                for name in order:  # rotate so no variant owns a slot
                    setup, fn = variants[name]
                    setup()
                    t0 = time.perf_counter()
                    for _ in range(calls):
                        fn()
                    times[name].append(time.perf_counter() - t0)
        finally:
            gc.enable()
        for name in names:
            all_samples[name].extend(times[name])
        pristine = times["pristine"]
        for name, trials in ratio_trials.items():
            trials.append(
                statistics.median(
                    t / p for p, t in zip(pristine, times[name])
                )
            )
    row = {
        f"{name}_s": statistics.median(all_samples[name]) / calls
        for name in names
    }
    for name, trials in ratio_trials.items():
        row[f"{name}_ratio"] = statistics.median(trials)
    row["calls_per_sample"] = calls
    return row


def measure(repeats: int = REPEATS, library=None) -> dict:
    """Time pristine/disabled/enabled ``eval_words`` on one circuit."""
    circuit = circuit_by_name(CIRCUIT, library)
    compiled = compile_circuit(circuit)
    was_enabled = obs.enabled()

    pats = list(random_patterns(circuit.inputs, WORD_WIDTH, seed=7))
    words, width = pack_patterns(circuit.inputs, pats)
    packed = pack_input_words(compiled, words, width)

    # The pristine copy must still be *the same computation* or its timing
    # means nothing; obs must stay off here so the shipped path records
    # nothing either.
    obs.configure(enabled=False)
    assert _pristine_eval_words(compiled, packed, width) == eval_words(
        compiled, packed, width
    ), "pristine eval_words copy drifted from repro.engine.words"

    def off():
        obs.configure(enabled=False)

    def on():
        obs.configure(enabled=True)

    rows = {}
    py = _measure_paired(
        repeats,
        PYTHON_CALLS,
        {
            "pristine": (
                off,
                lambda: _pristine_eval_words(compiled, packed, width),
            ),
            "disabled": (
                off,
                lambda: eval_words(compiled, packed, width),
            ),
            "enabled": (
                on,
                lambda: eval_words(compiled, packed, width),
            ),
        },
    )
    obs.configure(enabled=False)
    py["patterns_per_call"] = width
    rows["python_eval_words"] = py

    obs.configure(enabled=was_enabled)
    obs.reset()
    return {
        "benchmark": "obs_overhead",
        "circuit": CIRCUIT,
        "rounds": ROUNDS,
        "repeats": repeats,
        "rows": rows,
    }


def print_table(payload: dict) -> None:
    print(
        f"\n{'path':22s} {'patterns':>9s} {'pristine':>10s} {'disabled':>10s} "
        f"{'enabled':>10s} {'dis/pri':>8s} {'en/pri':>8s}"
    )
    for name, row in payload["rows"].items():
        print(
            f"{name:22s} {row['patterns_per_call']:9d} "
            f"{row['pristine_s'] * 1e6:8.1f}us {row['disabled_s'] * 1e6:8.1f}us "
            f"{row['enabled_s'] * 1e6:8.1f}us "
            f"{row['disabled_ratio']:8.4f} {row['enabled_ratio']:8.4f}"
        )
    print(f"(per-call medians; ratios are medians of paired round ratios, "
          f"{payload['repeats']} trials x {payload['rounds']} rounds; "
          f"JSON written to {RESULT_PATH})")


def check_targets(payload: dict) -> None:
    """The obs acceptance gate: disabled instrumentation is free."""
    for name, row in payload["rows"].items():
        assert row["disabled_ratio"] <= 1.02, (
            f"{name}: disabled observability costs "
            f"{(row['disabled_ratio'] - 1) * 100:.2f}% (> 2% budget)"
        )


def run_suite(repeats: int = REPEATS, library=None) -> dict:
    payload = measure(repeats, library)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_obs_overhead(benchmark, lsi_lib):
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
        help="CI mode: fewer repeats, nonzero exit when the 2%% gate fails",
    )
    args = parser.parse_args()
    payload = run_suite(CHECK_REPEATS if args.check else REPEATS,
                        lsi10k_like_library())
    print_table(payload)
    check_targets(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
