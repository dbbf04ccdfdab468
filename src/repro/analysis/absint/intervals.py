"""Arrival-interval abstract domain and its STA cross-check.

Each net is assigned an interval ``[lo, hi]`` certifying that *every*
transition of the net (under any vector pair) happens within it: ``lo`` is
the min-plus shortest-delay bound (no path can flip the net earlier) and
``hi`` the max-plus latest-arrival bound.  The lattice order is interval
containment with the empty interval as bottom, so the generic fixpoint
engine computes both bounds in one sweep.

The cross-check against :mod:`repro.sta.timing` is an internal-consistency
audit, not a redundancy: the two computations walk different code paths
(generic fixpoint vs. hand-rolled topological loops), so any disagreement —
``hi != arrival``, or ``lo`` above the prime-based ``min_stable`` lower
bound it must stay below — is a bug in one of them and surfaces as an
``ABS007`` diagnostic instead of silently corrupting downstream passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.analysis.absint.domain import AbstractDomain, run_fixpoint
from repro.engine import CompiledCircuit

#: Sentinel bounds of the empty (bottom) interval.
_POS_INF = 1 << 60
_NEG_INF = -(1 << 60)


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``lo > hi`` encodes the empty interval."""

    lo: int
    hi: int

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, t: int) -> bool:
        return self.lo <= t <= self.hi

    def __str__(self) -> str:
        return "[]" if self.is_empty else f"[{self.lo}, {self.hi}]"


BOTTOM = Interval(_POS_INF, _NEG_INF)


class ArrivalIntervalDomain(AbstractDomain[Interval]):
    """Min-plus / max-plus transition-time bounds per net.

    Primary inputs switch exactly at t = 0 (the two-vector clock-edge
    model), so their interval is ``[0, 0]``; a gate's output can only move
    in response to a fanin move shifted by that pin's delay, giving
    ``lo = min(lo_f + d)`` and ``hi = max(hi_f + d)``.  Both transfers are
    monotone in the containment order, so the fixpoint is the least one.
    """

    name = "arrival-interval"

    def bottom(self, compiled: CompiledCircuit) -> Interval:
        return BOTTOM

    def input_value(self, compiled: CompiledCircuit, index: int) -> Interval:
        return Interval(0, 0)

    def transfer(
        self,
        compiled: CompiledCircuit,
        pos: int,
        fanin_values: Sequence[Interval],
    ) -> Interval:
        if not fanin_values:
            # Constant cell: its output never transitions; [0, 0] keeps the
            # invariant "all transitions inside" vacuously and matches the
            # STA convention arrival == 0 for constants.
            return Interval(0, 0)
        if any(v.is_empty for v in fanin_values):
            return BOTTOM
        delays = compiled.gate_delays[pos]
        lo = min(v.lo + d for v, d in zip(fanin_values, delays))
        hi = max(v.hi + d for v, d in zip(fanin_values, delays))
        return Interval(lo, hi)

    def join(self, a: Interval, b: Interval) -> Interval:
        # All empty intervals are one lattice element; canonicalize to
        # BOTTOM so join stays structurally commutative.
        if a.is_empty:
            return BOTTOM if b.is_empty else b
        if b.is_empty:
            return a
        return Interval(min(a.lo, b.lo), max(a.hi, b.hi))

    def leq(self, a: Interval, b: Interval) -> bool:
        if a.is_empty:
            return True
        if b.is_empty:
            return False
        return b.lo <= a.lo and a.hi <= b.hi


def arrival_intervals(compiled: CompiledCircuit) -> list[Interval]:
    """Fixpoint intervals for every net of ``compiled`` (engine net order)."""
    return run_fixpoint(compiled, ArrivalIntervalDomain())


#: One inconsistency: ``(net_name, message, data)``.
IntervalFinding = tuple[str, str, dict]


def check_interval_consistency(
    compiled: CompiledCircuit,
    intervals: Sequence[Interval],
    arrival: Sequence[int],
    min_stable: Sequence[int],
) -> Iterator[IntervalFinding]:
    """Audit the interval fixpoint against independently computed STA.

    Invariants (per net): the interval is non-empty, ``lo <= arrival <= hi``
    (the exact latest arrival is a realizable transition bound), ``hi``
    equals the max-plus arrival bit-for-bit (same recurrence, different
    code), and ``lo <= min_stable`` (a net cannot stabilize before it can
    first move).  ``arrival``/``min_stable`` are injectable so tests can
    feed corrupted values and watch the audit fire.
    """
    for i, name in enumerate(compiled.net_names):
        iv = intervals[i]
        arr = arrival[i]
        ms = min_stable[i]
        data = {
            "net": name,
            "lo": iv.lo,
            "hi": iv.hi,
            "arrival": arr,
            "min_stable": ms,
        }
        if iv.is_empty:
            yield name, f"net {name!r}: interval fixpoint is empty", data
            continue
        if not iv.contains(arr):
            yield (
                name,
                f"net {name!r}: STA arrival {arr} outside certified "
                f"interval {iv}",
                data,
            )
        elif iv.hi != arr:
            yield (
                name,
                f"net {name!r}: interval upper bound {iv.hi} disagrees with "
                f"STA arrival {arr}",
                data,
            )
        if iv.lo > ms:
            yield (
                name,
                f"net {name!r}: interval lower bound {iv.lo} exceeds "
                f"prime-based earliest stabilization {ms}",
                data,
            )


__all__ = [
    "Interval",
    "BOTTOM",
    "ArrivalIntervalDomain",
    "arrival_intervals",
    "check_interval_consistency",
    "IntervalFinding",
]
