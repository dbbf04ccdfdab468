"""One-call end-to-end pipeline: circuit in, masked design + report out."""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.integrate import MaskedDesign, build_masked_design
from repro.core.masking import MaskingResult, synthesize_masking
from repro.core.report import OverheadReport, overhead_report
from repro.core.verify import VerificationReport, design_functions, verify_masking
from repro.netlist.circuit import Circuit
from repro.netlist.library import Library

_TRACER = obs.get_tracer("core")


@dataclass
class PipelineResult:
    """Bundle returned by :func:`mask_circuit`.

    ``verification`` is the BDD proof of soundness, SPCF coverage and
    off-SPCF equivalence of ``design``, one check of each per critical output.
    """

    masking: MaskingResult
    design: MaskedDesign
    verification: VerificationReport
    report: OverheadReport


def mask_circuit(
    circuit: Circuit,
    library: Library,
    threshold: float = 0.9,
    target: int | None = None,
    max_support: int = 12,
    max_cubes: int = 20,
    cube_pool: str = "isop",
    dontcare_isop: bool = True,
) -> PipelineResult:
    """Synthesize, integrate, verify, and report in one call.

    This is the primary public entry point of the library::

        from repro import mask_circuit, lsi10k_like_library
        result = mask_circuit(my_circuit, lsi10k_like_library())
        print(result.report.area_overhead_percent)

    Every run proves soundness, SPCF coverage and off-SPCF equivalence of
    the mux-patched design by BDD equivalence
    (:func:`repro.core.verify.verify_masking`) and returns the proof in
    :attr:`PipelineResult.verification`; a failed theorem is reported there,
    with a counterexample pattern, not raised
    (:func:`repro.core.verify.assert_verified` raises).
    """
    with _TRACER.span("pipeline.mask_circuit", circuit=circuit.name):
        masking = synthesize_masking(
            circuit,
            library,
            threshold=threshold,
            target=target,
            max_support=max_support,
            max_cubes=max_cubes,
            cube_pool=cube_pool,
            dontcare_isop=dontcare_isop,
        )
        with _TRACER.span("core.integrate"):
            design = build_masked_design(masking)
        # One global-function map for the proof and power, on top of the
        # SPCF context's: no gate of the run is built twice.
        functions = design_functions(masking, design)
        with _TRACER.span("core.verify"):
            verification = verify_masking(
                masking, design=design, functions=functions
            )
        with _TRACER.span("core.overhead_report"):
            report = overhead_report(
                masking,
                design=design,
                verification=verification,
                functions=functions,
            )
    return PipelineResult(
        masking=masking,
        design=design,
        verification=verification,
        report=report,
    )
