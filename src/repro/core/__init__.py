"""Error-masking synthesis — the paper's primary contribution."""

from repro.core.careset import cover_image, cube_image, local_care_sets
from repro.core.cubeselect import SelectionResult, select_cubes
from repro.core.integrate import MASKED_PREFIX, MaskedDesign, build_masked_design
from repro.core.masking import (
    IND_PREFIX,
    PRED_PREFIX,
    MaskingResult,
    MaskingSynthesizer,
    NodeMasking,
    synthesize_masking,
)
from repro.core.pipeline import PipelineResult, mask_circuit
from repro.core.report import (
    MaskingEffectiveness,
    OverheadReport,
    masking_delay,
    overhead_report,
)
from repro.core.verify import (
    CheckResult,
    Counterexample,
    VerificationReport,
    assert_verified,
    verify_masking,
)

__all__ = [
    "cube_image",
    "cover_image",
    "local_care_sets",
    "SelectionResult",
    "select_cubes",
    "NodeMasking",
    "MaskingResult",
    "MaskingSynthesizer",
    "synthesize_masking",
    "PRED_PREFIX",
    "IND_PREFIX",
    "MASKED_PREFIX",
    "MaskedDesign",
    "build_masked_design",
    "CheckResult",
    "Counterexample",
    "VerificationReport",
    "assert_verified",
    "verify_masking",
    "MaskingEffectiveness",
    "OverheadReport",
    "overhead_report",
    "masking_delay",
    "PipelineResult",
    "mask_circuit",
]
