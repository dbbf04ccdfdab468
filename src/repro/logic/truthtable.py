"""Truth tables of small Boolean functions as Python ints.

A function of ``k <= MAX_VARS`` variables is a ``2**k``-bit int: bit ``m``
is its value on minterm ``m``, and variable ``i`` is bit ``i`` of ``m``.
Every local function of the lift and of ``collapse`` fits (cells have at
most 10 pins; the paper's complex nodes have 10–15 inputs, and a merge
candidate adds the eliminated node's variable), so they need no BDD
manager.

:func:`isop` is the Minato–Morreale recursion of :mod:`repro.bdd.isop` on
tables.  It splits on the first variable, in index order, that either bound
depends on — the BDD's top level when index order is manager order — and
takes the same terminal tests and branch order, so it returns the same
cubes in the same order as ``bdd.isop`` over a manager whose variables are
registered in index order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from repro.errors import LogicError
from repro.logic.cube import DASH, ONE, ZERO, Cube

#: Most variables a table may have (``2**16`` bits).
MAX_VARS = 16


@lru_cache(maxsize=MAX_VARS + 1)
def masks(k: int) -> tuple[int, tuple[int, ...]]:
    """``(full, var)`` for ``k`` variables: ``full`` is constant 1 and
    ``var[i]`` the table of variable ``i``."""
    if not 0 <= k <= MAX_VARS:
        raise LogicError(f"truth tables take 0..{MAX_VARS} variables, not {k}")
    full = (1 << (1 << k)) - 1
    # Variable i repeats 2**i zeros then 2**i ones.
    return full, tuple(
        full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
        for i in range(k)
    )


def cover_table(cubes: Sequence[Cube], variables: Sequence[int], k: int) -> int:
    """Table of a cube list whose position ``j`` is variable ``variables[j]``."""
    full, var = masks(k)
    table = 0
    for cube in cubes:
        term = full
        for v, value in zip(variables, cube.values):
            if value == ONE:
                term &= var[v]
            elif value == ZERO:
                term &= ~var[v]
        table |= term
    return table


def cofactors(f: int, i: int, k: int) -> tuple[int, int]:
    """``(f|x_i=0, f|x_i=1)``, both as tables over all ``k`` variables."""
    shift, hi_mask = 1 << i, masks(k)[1][i]
    hi = f & hi_mask
    lo = f ^ hi
    return lo | (lo << shift), hi | (hi >> shift)


def depends(f: int, i: int, k: int) -> bool:
    """True iff ``f`` depends on variable ``i``."""
    return bool((f ^ (f >> (1 << i))) & ~masks(k)[1][i])


def support(f: int, k: int) -> tuple[int, ...]:
    """The variables ``f`` depends on, in index order."""
    return tuple(i for i in range(k) if depends(f, i, k))


def compose(reader: int, i: int, node: int, k: int) -> int:
    """``reader`` with variable ``i`` replaced by the function ``node``."""
    r0, r1 = cofactors(reader, i, k)
    return (node & r1) | (~node & r0)


def isop(lower: int, upper: int, k: int) -> list[dict[int, bool]]:
    """Irredundant SOP ``C`` with ``lower <= C <= upper``, cubes as
    ``{variable: polarity}`` in ``bdd.isop``'s order."""
    if lower & ~upper:
        raise LogicError("isop requires lower <= upper")
    full, var = masks(k)
    cubes: list[dict[int, bool]] = []
    _isop(lower, upper, 0, full, var, cubes)
    return cubes


def _isop(
    lower: int,
    upper: int,
    first: int,
    full: int,
    var: tuple[int, ...],
    out: list[dict[int, bool]],
) -> int:
    """Recursive core; returns the table of the cubes it appended.

    Neither bound depends on a variable below ``first``: each call splits
    on a variable and its sub-problems no longer depend on it.
    """
    if lower == 0:
        return 0
    if upper == full:
        out.append({})
        return full
    i = first
    while True:  # lower != 0 and upper != full: some variable is read
        shift = 1 << i
        if ((lower ^ (lower >> shift)) | (upper ^ (upper >> shift))) & ~var[i]:
            break
        i += 1
    hi_mask = var[i]
    l1 = lower & hi_mask
    l0 = lower ^ l1
    l0 |= l0 << shift
    l1 |= l1 >> shift
    u1 = upper & hi_mask
    u0 = upper ^ u1
    u0 |= u0 << shift
    u1 |= u1 >> shift
    cubes0: list[dict[int, bool]] = []
    f0 = _isop(l0 & ~u1, u0, i + 1, full, var, cubes0)
    cubes1: list[dict[int, bool]] = []
    f1 = _isop(l1 & ~u0, u1, i + 1, full, var, cubes1)
    cubes_d: list[dict[int, bool]] = []
    fd = _isop((l0 & ~f0) | (l1 & ~f1), u0 & u1, i + 1, full, var, cubes_d)
    for cube in cubes0:
        cube[i] = False
        out.append(cube)
    for cube in cubes1:
        cube[i] = True
        out.append(cube)
    out.extend(cubes_d)
    return (f0 & ~hi_mask) | (f1 & hi_mask) | fd


def sop(f: int, k: int) -> tuple[tuple[int, ...], tuple[Cube, ...], tuple[Cube, ...]]:
    """``(kept, on, off)``: the support of ``f`` and the ISOP cubes of ``f``
    and ``~f``, position ``j`` of each cube being variable ``kept[j]``."""
    kept = support(f, k)
    position = {v: j for j, v in enumerate(kept)}

    def cubes(table: int) -> tuple[Cube, ...]:
        out = []
        for lits in isop(table, table, k):
            values = [DASH] * len(kept)
            for v, polarity in lits.items():
                values[position[v]] = ONE if polarity else ZERO
            out.append(Cube(tuple(values)))
        return tuple(out)

    return kept, cubes(f), cubes(f ^ masks(k)[0])
