"""Quine–McCluskey prime-implicant generation.

Library cells have few inputs (≤ 8 in our libraries), so the classic
tabulation method is exact and fast.  The SPCF recursion (paper Eqn. 1) needs
*all* prime implicants of both the on-set and the off-set of every cell
function; :func:`primes_of_truth_table` provides them and the results are
cached per cell type by :mod:`repro.netlist.cell`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import LogicError
from repro.logic.cube import Cube, merge_adjacent


def prime_implicants(
    minterms: Iterable[int], width: int, dont_cares: Iterable[int] = ()
) -> list[Cube]:
    """All prime implicants of the function with the given on-set.

    ``dont_cares`` may be used to enlarge primes; primes that cover only
    don't-cares are still returned (callers covering the on-set should run a
    cover selection afterwards — for SPCF purposes all primes are wanted).
    """
    on = set(minterms)
    dc = set(dont_cares)
    if any(m >= (1 << width) or m < 0 for m in on | dc):
        raise LogicError("minterm out of range")
    current = {Cube.from_minterm(m, width) for m in on | dc}
    primes: list[Cube] = []
    while current:
        merged: set[Cube] = set()
        used: set[Cube] = set()
        cubes = sorted(current, key=lambda c: (c.values,))
        # Group by number of positive literals to limit pair tests.
        by_ones: dict[int, list[Cube]] = {}
        for c in cubes:
            by_ones.setdefault(sum(1 for v in c.values if v == 1), []).append(c)
        for ones, group in sorted(by_ones.items()):
            for other in by_ones.get(ones + 1, ()):
                for c in group:
                    m = merge_adjacent(c, other)
                    if m is not None:
                        merged.add(m)
                        used.add(c)
                        used.add(other)
        for c in cubes:
            if c not in used:
                primes.append(c)
        current = merged
    # Deduplicate while preserving deterministic order.
    seen: set[tuple[int, ...]] = set()
    out: list[Cube] = []
    for c in sorted(primes, key=lambda c: (c.literal_count(), c.values)):
        if c.values not in seen:
            seen.add(c.values)
            out.append(c)
    return out


def primes_of_truth_table(table: Sequence[bool]) -> tuple[list[Cube], list[Cube]]:
    """Return ``(on_set_primes, off_set_primes)`` for a truth table.

    ``table[i]`` is the output for input minterm ``i`` with variable 0 as the
    most significant bit (matching :meth:`Cube.from_minterm`).
    """
    n = len(table)
    width = n.bit_length() - 1
    if 1 << width != n:
        raise LogicError(f"truth table length {n} is not a power of two")
    on = [i for i, v in enumerate(table) if v]
    off = [i for i, v in enumerate(table) if not v]
    return prime_implicants(on, width), prime_implicants(off, width)

