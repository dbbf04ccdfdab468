"""Wearout prediction from masked-error statistics (paper Sec. 2.1).

With the masking circuit deployed, a timing error that was masked is
observable as ``e_i AND (y_i XOR y~_i)``.  :class:`ErrorLogger` counts these
events per analysis window; :class:`WearoutMonitor` watches the masked-error
*rate* across windows and flags the onset of wearout when the rate crosses a
threshold or trends upward persistently — the paper's "periodic offline
analysis" loop.

:func:`wearout_experiment` drives the whole story: an aging model gradually
slows the speed-path gates of a masked design, random workloads run each
epoch, and the monitor's flag is compared against the epoch where unmasked
timing errors would have corrupted outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.integrate import MaskedDesign
from repro.core.masking import MaskingResult
from repro.engine import compile_circuit, patterns_to_words
from repro.errors import SimulationError
from repro.sim.aging import LinearAging, SaturatingAging, speed_path_gates
from repro.sim.eventsim import ClockSample, sample_clocks
from repro.sim.logicsim import random_patterns


@dataclass
class ErrorLogger:
    """Counts masked-error events (``e & (y ^ y~)``) per analysis window."""

    window_size: int
    _current_events: int = 0
    _current_cycles: int = 0
    windows: list[float] = field(default_factory=list)

    def record(self, masked_error: bool) -> None:
        """Log one cycle; rolls the window over when it fills up."""
        if self.window_size <= 0:
            raise SimulationError("window size must be positive")
        self._current_events += int(masked_error)
        self._current_cycles += 1
        if self._current_cycles >= self.window_size:
            self.windows.append(self._current_events / self._current_cycles)
            self._current_events = 0
            self._current_cycles = 0

    @property
    def latest_rate(self) -> float:
        """Masked-error rate of the last completed window (0.0 if none)."""
        return self.windows[-1] if self.windows else 0.0


@dataclass
class WearoutMonitor:
    """Flags wearout onset from the windowed masked-error rate.

    Onset is flagged when the rate exceeds ``rate_threshold``, or when it
    increases over ``trend_windows`` consecutive windows.
    """

    rate_threshold: float = 0.02
    trend_windows: int = 3

    def onset_window(self, rates: Sequence[float]) -> int | None:
        """Index of the first window that triggers the wearout flag."""
        run = 0
        for i, rate in enumerate(rates):
            if rate > self.rate_threshold:
                return i
            if i > 0 and rate > rates[i - 1] > 0:
                run += 1
                if run >= self.trend_windows:
                    return i
            else:
                run = 0
        return None


@dataclass(frozen=True)
class WearoutEpoch:
    """Measurements for one aging epoch."""

    stress_time: float
    delay_scale: float
    masked_error_rate: float
    unmasked_error_rate: float
    residual_error_rate: float
    """Errors that escape the masked design (should stay 0 while the
    masking circuit retains slack)."""


def _observed_nets(design: MaskedDesign) -> list[str]:
    """Each original output of ``design``, its predictions and indicators."""
    return [
        *design.output_map,
        *design.prediction_nets.values(),
        *design.indicator_nets.values(),
    ]


def _error_words(design: MaskedDesign, sample: ClockSample) -> tuple[int, int, int]:
    """``(raw error, masked event, residual error)`` words of one batch.

    ``sample`` holds the :func:`_observed_nets` of the masked design at its
    clock edge; bit ``k`` of each returned word is vector pair ``k``.  An
    output is in error when it is still switching after the edge: that
    covers a wrong sample, and under conservative sampling semantics a net
    still switching at the edge is unreliable even if its instantaneous
    value happens to be right (the flop may catch a glitch or go
    metastable).  An asserted indicator selects the prediction instead, so
    the output is then wrong only when the prediction is; the logged masked
    event is the paper's ``e_i AND (y_i XOR y~_i)``.
    """
    raw = event = residual = 0
    for y in design.output_map:
        bad = sample.unsettled[y]
        raw |= bad
        pred_net = design.prediction_nets.get(y)
        if pred_net is None:
            residual |= bad
            continue
        e = sample.values[design.indicator_nets[y]]
        pred = sample.values[pred_net]
        event |= e & (sample.values[y] ^ pred | bad)
        residual |= e & (pred ^ sample.settled[y]) | bad & ~e
    return raw, event, residual


def _biased_workload(
    masking: MaskingResult,
    inputs: tuple[str, ...],
    count: int,
    seed: int,
    sigma_bias: float,
) -> list[dict[str, bool]]:
    """Random vectors, a fraction of which are completed SPCF cubes.

    Speed-path activation patterns are rare by nature (that is the paper's
    point), so a purely random workload may never exercise them; biasing a
    fraction of the vectors into the SPCF models a stressing workload.
    """
    import random as _random

    rng = _random.Random(seed)
    seeds: list[dict[str, bool]] = []
    if sigma_bias > 0 and not masking.is_trivial:
        for cube in masking.spcf.union.cubes():
            seeds.append(dict(cube))
            if len(seeds) >= 64:
                break
    pats = []
    for pattern in random_patterns(inputs, count, seed=seed):
        if seeds and rng.random() < sigma_bias:
            chosen = dict(pattern)
            chosen.update(rng.choice(seeds))
            pats.append(chosen)
        else:
            pats.append(dict(pattern))
    return pats


def wearout_experiment(
    masking: MaskingResult,
    design: MaskedDesign,
    aging: LinearAging | SaturatingAging | None = None,
    epochs: int = 10,
    cycles_per_epoch: int = 200,
    seed: int = 11,
    sigma_bias: float = 0.35,
) -> list[WearoutEpoch]:
    """Age the design and measure masked/unmasked/residual error rates.

    The clock period is the original critical path delay plus the output-mux
    delay (the compensated period of Sec. 2); speed-path gates slow down each
    epoch, so raw timing errors appear and the masking circuit hides them.
    ``sigma_bias`` is the fraction of workload vectors steered into the SPCF
    (speed-path activations are rare under uniform vectors by design).
    """
    aging = aging or LinearAging(rate=0.035)
    base = design.circuit
    clock = design.clock_period
    gates = speed_path_gates(masking.circuit) & set(base.gates)
    nets = _observed_nets(design)
    results: list[WearoutEpoch] = []
    for epoch in range(epochs):
        scale = aging.scale_at(float(epoch))
        aged = compile_circuit(base.with_delay_scales({g: scale for g in gates}))
        pats = _biased_workload(
            masking, base.inputs, cycles_per_epoch + 1, seed + epoch, sigma_bias
        )
        v1, width = patterns_to_words(aged, pats[:-1])
        v2, _ = patterns_to_words(aged, pats[1:])
        sample = sample_clocks(aged, v1, v2, width, [clock], nets)[clock]
        unmasked, masked, residual = _error_words(design, sample)
        results.append(
            WearoutEpoch(
                stress_time=float(epoch),
                delay_scale=scale,
                masked_error_rate=masked.bit_count() / cycles_per_epoch,
                unmasked_error_rate=unmasked.bit_count() / cycles_per_epoch,
                residual_error_rate=residual.bit_count() / cycles_per_epoch,
            )
        )
    return results


def predict_onset(
    epochs: Iterable[WearoutEpoch],
    monitor: WearoutMonitor | None = None,
) -> int | None:
    """Apply the monitor to an epoch series; returns the flagged epoch."""
    monitor = monitor or WearoutMonitor()
    return monitor.onset_window([e.masked_error_rate for e in epochs])
