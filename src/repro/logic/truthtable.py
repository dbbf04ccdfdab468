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

Both :func:`isop` and :func:`sop` take an optional cube ``limit``: past it
they give up and return None instead of finishing a cover that the caller
would reject.  ``collapse`` passes its cube cap, so a merge candidate with
a cover too large to keep costs only the cubes up to the cap.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, overload

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


class _OverLimit(Exception):
    """Raised inside :func:`isop` when a cover passes its cube limit."""


@overload
def isop(lower: int, upper: int, k: int) -> list[dict[int, bool]]: ...


@overload
def isop(
    lower: int, upper: int, k: int, limit: int | None
) -> list[dict[int, bool]] | None: ...


def isop(
    lower: int, upper: int, k: int, limit: int | None = None
) -> list[dict[int, bool]] | None:
    """Irredundant SOP ``C`` with ``lower <= C <= upper``, cubes as
    ``{variable: polarity}`` in ``bdd.isop``'s order.

    With a ``limit``, returns None as soon as the cover has more than
    ``limit`` cubes: every cube the recursion emits ends up in the result,
    so the cubes emitted so far are a lower bound on its size.
    """
    if lower & ~upper:
        raise LogicError("isop requires lower <= upper")
    full, var = masks(k)
    # Cubes the cover may still take; a cover has at most 2**k cubes.
    budget = [(1 << k) if limit is None else limit]
    cubes: list[dict[int, bool]] = []
    try:
        _isop(lower, upper, 0, full, var, cubes, budget)
    except _OverLimit:
        return None
    return cubes


def _isop(
    lower: int,
    upper: int,
    first: int,
    full: int,
    var: tuple[int, ...],
    out: list[dict[int, bool]],
    budget: list[int],
) -> int:
    """Recursive core; returns the table of the cubes it appended.

    Neither bound depends on a variable below ``first``: each call splits
    on a variable and its sub-problems no longer depend on it.  Each cube
    is emitted once, at a leaf, and spends one unit of ``budget[0]``.
    """
    if lower == 0:
        return 0
    if upper == full:
        budget[0] -= 1
        if budget[0] < 0:
            raise _OverLimit
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
    f0 = _isop(l0 & ~u1, u0, i + 1, full, var, cubes0, budget)
    cubes1: list[dict[int, bool]] = []
    f1 = _isop(l1 & ~u0, u1, i + 1, full, var, cubes1, budget)
    cubes_d: list[dict[int, bool]] = []
    fd = _isop((l0 & ~f0) | (l1 & ~f1), u0 & u1, i + 1, full, var, cubes_d, budget)
    for cube in cubes0:
        cube[i] = False
        out.append(cube)
    for cube in cubes1:
        cube[i] = True
        out.append(cube)
    out.extend(cubes_d)
    return (f0 & ~hi_mask) | (f1 & hi_mask) | fd


#: ``(kept, on, off)`` as :func:`sop` returns it: the support of a table
#: among its variables and the ISOP covers of the table and its complement
#: over those positions.
Sop = tuple[tuple[int, ...], tuple[Cube, ...], tuple[Cube, ...]]


@overload
def sop(f: int, k: int) -> Sop: ...


@overload
def sop(f: int, k: int, limit: int | None) -> Sop | None: ...


def sop(f: int, k: int, limit: int | None = None) -> Sop | None:
    """``(kept, on, off)``: the support of ``f`` and the ISOP cubes of ``f``
    and ``~f``, position ``j`` of each cube being variable ``kept[j]``.

    With a ``limit``, None when either cover has more than ``limit`` cubes;
    the off-set is not covered when the on-set is already over.
    """
    on = isop(f, f, k, limit)
    if on is None:
        return None
    off_table = f ^ masks(k)[0]
    off = isop(off_table, off_table, k, limit)
    if off is None:
        return None
    kept = support(f, k)
    position = {v: j for j, v in enumerate(kept)}

    def cubes(found: list[dict[int, bool]]) -> tuple[Cube, ...]:
        out: list[Cube] = []
        for lits in found:
            values = [DASH] * len(kept)
            for v, polarity in lits.items():
                values[position[v]] = ONE if polarity else ZERO
            out.append(Cube(tuple(values)))
        return tuple(out)

    return kept, cubes(on), cubes(off)
