"""Irredundant sum-of-products extraction from BDDs (Minato–Morreale ISOP).

The error-masking synthesis of the paper manipulates sum-of-products covers of
the on-set and off-set of every internal node of the technology-independent
network.  ``isop`` produces an irredundant prime-ish cover of any function
sandwiched between a lower bound ``L`` and an upper bound ``U`` (the classic
incompletely-specified formulation); ``isop_function`` covers a completely
specified function.

Cubes are returned as ``{var_name: bool}`` dictionaries; the conjunction of
the literals is the cube.  The returned cover ``cover`` satisfies
``L <= OR(cover) <= U`` and no cube can be dropped without uncovering ``L``.
"""

from __future__ import annotations

from repro.bdd.manager import BddManager, Function
from repro.errors import BddError


def isop(lower: Function, upper: Function) -> list[dict[str, bool]]:
    """Compute an irredundant SOP cover ``C`` with ``lower <= C <= upper``.

    Raises :class:`BddError` if ``lower`` is not contained in ``upper``.
    """
    if lower.manager is not upper.manager:
        raise BddError("isop bounds must share a manager")
    if not lower.is_subset_of(upper):
        raise BddError("isop requires lower <= upper")
    mgr = lower.manager
    cover: list[dict[int, bool]] = []
    _isop(mgr, lower.node, upper.node, cover)
    return [
        {mgr.name_of(level): value for level, value in cube.items()} for cube in cover
    ]


def isop_function(fn: Function) -> list[dict[str, bool]]:
    """Irredundant SOP cover of a completely specified function."""
    return isop(fn, fn)


def _isop(
    mgr: BddManager,
    lower: int,
    upper: int,
    out: list[dict[int, bool]],
) -> int:
    """Recursive core; returns the BDD node of the generated cover."""
    if lower == 0:
        return 0
    if upper == 1:
        out.append({})
        return 1
    level = min(mgr._level[lower], mgr._level[upper])
    l0, l1 = mgr._cof(lower, level)
    u0, u1 = mgr._cof(upper, level)

    # Cubes that must carry the negative literal (cover L0 outside U1).
    sub0 = mgr._and(l0, u1 ^ 1)
    cubes0: list[dict[int, bool]] = []
    f0 = _isop(mgr, sub0, u0, cubes0)

    # Cubes that must carry the positive literal (cover L1 outside U0).
    sub1 = mgr._and(l1, u0 ^ 1)
    cubes1: list[dict[int, bool]] = []
    f1 = _isop(mgr, sub1, u1, cubes1)

    # Remaining lower-bound minterms can be covered without the variable.
    rest0 = mgr._and(l0, f0 ^ 1)
    rest1 = mgr._and(l1, f1 ^ 1)
    rest_lower = mgr._or(rest0, rest1)
    rest_upper = mgr._and(u0, u1)
    cubes_d: list[dict[int, bool]] = []
    fd = _isop(mgr, rest_lower, rest_upper, cubes_d)

    for cube in cubes0:
        cube[level] = False
        out.append(cube)
    for cube in cubes1:
        cube[level] = True
        out.append(cube)
    out.extend(cubes_d)

    var_node = mgr._mk(level, 0, 1)
    with_var = mgr._ite(var_node, f1, f0)
    return mgr._or(with_var, fd)
