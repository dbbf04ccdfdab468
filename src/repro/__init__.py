"""repro — reproduction of *Masking timing errors on speed-paths in logic
circuits* (Choudhury & Mohanram, DATE 2009).

The package is organized bottom-up:

* :mod:`repro.bdd` — ROBDD engine (characteristic functions, counting, ISOP).
* :mod:`repro.logic` — cubes, covers, expressions, QM, factoring.
* :mod:`repro.netlist` — cells, libraries, gate-level circuits, BLIF I/O.
* :mod:`repro.sta` — static timing analysis and speed-path enumeration.
* :mod:`repro.sim` — logic/timing simulation and timing-error injection.
* :mod:`repro.spcf` — the three speed-path characteristic function algorithms.
* :mod:`repro.synth` — technology-independent networks, decomposition, mapping.
* :mod:`repro.core` — error-masking synthesis (the paper's contribution)
  and the BDD proof of its invariants.
* :mod:`repro.analysis` — netlist lint and diagnostic reporting.
* :mod:`repro.campaign` — resilient fault-injection campaigns (checkpoint/resume).
* :mod:`repro.apps` — wearout prediction and debug trace capture.
* :mod:`repro.benchcircuits` — benchmark circuits and generators.

Quickstart::

    from repro import mask_circuit, lsi10k_like_library, make_benchmark

    circuit = make_benchmark("C432")
    result = mask_circuit(circuit, lsi10k_like_library())
    print(result.report.area_overhead_percent, result.report.slack_percent)
"""

from repro.analysis import LintConfig, LintReport, lint_circuit, lint_suite
from repro.benchcircuits import circuit_by_name, make_benchmark
from repro.campaign import (
    CampaignSpec,
    RunnerConfig,
    plan_campaign,
    resume_campaign,
    run_campaign,
)
from repro.core import (
    MaskedDesign,
    MaskingResult,
    OverheadReport,
    PipelineResult,
    build_masked_design,
    mask_circuit,
    overhead_report,
    synthesize_masking,
    verify_masking,
)
from repro.netlist import (
    Circuit,
    Library,
    lsi10k_like_library,
    read_blif,
    unit_library,
    write_blif,
)
from repro.spcf import (
    SpcfContext,
    compare_algorithms,
    spcf_nodebased,
    spcf_pathbased,
    spcf_shortpath,
)
from repro.sta import analyze, enumerate_speed_paths

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Circuit",
    "Library",
    "unit_library",
    "lsi10k_like_library",
    "read_blif",
    "write_blif",
    "analyze",
    "enumerate_speed_paths",
    "SpcfContext",
    "spcf_shortpath",
    "spcf_pathbased",
    "spcf_nodebased",
    "compare_algorithms",
    "synthesize_masking",
    "mask_circuit",
    "build_masked_design",
    "verify_masking",
    "overhead_report",
    "MaskingResult",
    "MaskedDesign",
    "OverheadReport",
    "PipelineResult",
    "make_benchmark",
    "circuit_by_name",
    "LintConfig",
    "LintReport",
    "lint_circuit",
    "lint_suite",
    "CampaignSpec",
    "RunnerConfig",
    "plan_campaign",
    "run_campaign",
    "resume_campaign",
]
