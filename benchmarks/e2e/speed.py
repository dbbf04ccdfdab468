"""Elapsed time rescaled by the CPU speed measured while it elapsed.

On a shared host a vCPU can run at two speeds, switching every few
seconds: on the reference host (README.md) a fixed pure-Python loop takes
~30 ms or ~44 ms, 1.45x apart, depending on what shares the physical core.
A pass that happens to run in the slow phase reads up to 45% slower with no
change to the code, which swamps a 10% bound.

:class:`SpeedProbe` runs a fixed calibration loop from a timer signal every
:data:`PERIOD_S` seconds, in the measured thread itself, so each sample
sees the speed the program sees at that moment.  :meth:`SpeedProbe.normalized`
then rescales every slice between two samples to the
:data:`REFERENCE_SPIN_S` speed (the speed at which the calibration loop
takes exactly 1 ms) and leaves the samples' own time out.  The result is
a time in *reference seconds*: on the reference host's fast phase it is
close to the wall time, and it does not move when the host changes phase.
It assumes the program slows by the same factor as the loop; both are
interpreter-bound Python.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1
#: About 1 ms per sample on the fast phase of the reference host.
SPIN_ITERATIONS = 15_000
REFERENCE_SPIN_S = 1e-3


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class SpeedProbe:
    """Timer-driven CPU speed samples over the life of a process.

    ``on_sample(seconds)`` is called after every sample, so a tracer can
    keep the sampling time out of the layer that happened to be running.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end) of each spin
        self.on_sample = None
        self._previous_handler = None

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()

    def _sample(self, *_signal_args) -> None:
        start = time.monotonic()
        _spin(SPIN_ITERATIONS)
        end = time.monotonic()
        self.samples.append((start, end))
        if self.on_sample is not None:
            self.on_sample(end - start)

    def sampling_time(self, start: float, end: float) -> float:
        """Seconds spent sampling inside ``[start, end]``."""
        return sum(
            max(0.0, min(b, end) - max(a, start)) for a, b in self.samples
        )

    def normalized(self, start: float, end: float) -> float:
        """Reference seconds of ``[start, end]`` without the sampling time.

        The gap between samples ``k`` and ``k + 1`` is rescaled by the
        median duration of samples ``k - 1 .. k + 2``, so one sample
        stretched by preemption cannot skew its slice.  Time before the
        first or after the last sample uses the nearest samples' speed.
        """
        marks = self.samples
        durations = [b - a for a, b in marks]
        gaps = [(float("-inf"), marks[0][0], 0)]
        gaps += [(marks[k][1], marks[k + 1][0], k) for k in range(len(marks) - 1)]
        gaps.append((marks[-1][1], float("inf"), len(marks) - 2))
        total = 0.0
        for lo, hi, k in gaps:
            overlap = min(hi, end) - max(lo, start)
            if overlap > 0:
                spin = statistics.median(durations[max(0, k - 1) : k + 3])
                total += overlap * REFERENCE_SPIN_S / spin
        return total
