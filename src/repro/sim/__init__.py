"""Simulation: zero-delay, floating-mode oracle, event-driven, faults, aging."""

from repro.sim.aging import (
    AGING_MODELS,
    LinearAging,
    SaturatingAging,
    aged_copy,
    aging_model,
    speed_path_gates,
)
from repro.sim.eventsim import (
    Waveform,
    sample_clocks,
    sample_words,
    two_vector_waveforms,
)
from repro.sim.faults import eval_with_faults, eval_words_with_faults
from repro.sim.logicsim import (
    exhaustive_patterns,
    pack_patterns,
    random_patterns,
    simulate,
    simulate_words,
)
from repro.sim.timingsim import (
    is_speed_path_pattern,
    output_stabilization,
    stabilization_times,
)

__all__ = [
    "simulate",
    "simulate_words",
    "exhaustive_patterns",
    "random_patterns",
    "pack_patterns",
    "stabilization_times",
    "output_stabilization",
    "is_speed_path_pattern",
    "Waveform",
    "two_vector_waveforms",
    "sample_words",
    "sample_clocks",
    "eval_with_faults",
    "eval_words_with_faults",
    "AGING_MODELS",
    "LinearAging",
    "SaturatingAging",
    "aged_copy",
    "aging_model",
    "speed_path_gates",
]
