"""Exact DVS and wearout results, pinned.

``data/apps_golden.json`` records every ``DvsPoint`` of the ``bench_dvs``
sweep on ``cmb``, every ``WearoutEpoch`` of ``wearout_experiment`` on
``cmb`` at its defaults, and every epoch of the ``comparator_nbit(4)`` case
of ``test_wearout.py``.  Two harsher cases, ``i1`` overclocked to half its
period and ``cu`` aged by 30% an epoch, let errors escape the mask, so the
residual and masked-event counts differ from the raw ones there.  The
property tests next to this file would not notice a shifted error rate;
this one fails on any change to the cycle classification, the workload or
the sampling semantics.  Regenerate only
for a deliberate change, from the repo root::

    PYTHONPATH=src python tests/apps/test_apps_golden.py --write-golden
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.apps import dvs_sweep, wearout_experiment
from repro.benchcircuits import comparator_nbit, make_benchmark
from repro.core import build_masked_design, mask_circuit, synthesize_masking
from repro.netlist import lsi10k_like_library, unit_library
from repro.sim import LinearAging

GOLDEN_PATH = Path(__file__).parent / "data" / "apps_golden.json"


def app_results() -> dict[str, object]:
    lib = lsi10k_like_library()
    cmb = mask_circuit(make_benchmark("cmb", lib), lib)
    sweep = dvs_sweep(cmb.masking, cmb.design, cycles=120, seed=5)
    cmb_epochs = wearout_experiment(cmb.masking, cmb.design)
    masking = synthesize_masking(comparator_nbit(4), unit_library(), max_support=8)
    cmp_epochs = wearout_experiment(
        masking,
        build_masked_design(masking),
        aging=LinearAging(rate=0.12),
        epochs=6,
        cycles_per_epoch=120,
        seed=4,
    )

    i1 = mask_circuit(make_benchmark("i1", lib), lib)
    nominal = i1.design.clock_period
    deep = dvs_sweep(
        i1.masking, i1.design, periods=range(nominal, nominal // 2, -10),
        cycles=100, seed=5,
    )
    cu = mask_circuit(make_benchmark("cu", lib), lib)
    cu_epochs = wearout_experiment(
        cu.masking, cu.design, aging=LinearAging(rate=0.3), epochs=5,
        cycles_per_epoch=100, seed=2,
    )

    def points(result):
        return {
            "nominal_period": result.nominal_period,
            "points": [
                [p.period, p.raw_error_rate, p.masked_error_rate,
                 p.residual_error_rate]
                for p in result.points
            ],
        }

    def epochs(rows):
        return [
            [e.stress_time, e.delay_scale, e.masked_error_rate,
             e.unmasked_error_rate, e.residual_error_rate]
            for e in rows
        ]

    return {
        "cmb_dvs": points(sweep),
        "cmb_wearout": epochs(cmb_epochs),
        "comparator4_wearout": epochs(cmp_epochs),
        "i1_dvs_deep": points(deep),
        "cu_wearout_harsh": epochs(cu_epochs),
    }


def write_golden() -> None:
    GOLDEN_PATH.write_text(
        json.dumps(app_results(), indent=1) + "\n", encoding="utf-8"
    )


def test_app_results_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert app_results() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-golden"]:
        sys.exit("usage: test_apps_golden.py --write-golden")
    write_golden()
