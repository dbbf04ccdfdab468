"""Algebraic factoring of SOP covers.

The masking circuit must be *fast* — the paper requires >= 20% slack over the
original circuit — so the selected covers are not mapped as flat AND-OR
trees but factored first.  This module implements classic algebraic
(kernel-based) factoring:

* :func:`weak_divide` — algebraic division of a cover by a divisor cover,
* :func:`literal_kernels` — level-0 kernels obtained as the cube-free parts
  of single-literal quotients,
* :func:`factor` — recursive factoring: pick the kernel (or literal) divisor
  with the best literal savings, divide, and recurse on quotient, divisor,
  and remainder, producing a :class:`~repro.logic.expr.BoolExpr` tree.

Example: ``a&c | a&d | b&c | b&d`` factors into ``(a|b) & (c|d)``, halving
the literal count and the mapped depth.

Cubes run as ``(care, value)`` int masks, Espresso's positional-cube
notation: bit ``i`` of ``care`` marks a literal at position ``i``, the same
bit of ``value`` a positive one.  :func:`factor` converts its cover once.
The tree keeps four orders (``tests/logic/data/factor_golden.json``):
literals count in cube order, then ascending position, which orders the
kernels and picks the first most frequent literal; a kernel must save
strictly more than the best so far; kernels dedupe by their sorted cube
multiset; quotients sort as ``Cube.values`` would (:func:`_order_key`).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from operator import itemgetter
from typing import Any

from repro.logic.cover import Cover
from repro.logic.cube import DASH, Cube
from repro.logic.expr import BoolExpr

#: A cube as ``(care, value)`` masks, ``value`` a subset of ``care``.
Mask = tuple[int, int]

#: A factored form as plain tuples, one per node: ``("lit", name, positive)``,
#: ``("const", value)``, or ``("and" | "or", left, right)``.
Tree = tuple[Any, ...]

_TRUE: Tree = ("const", True)
_FALSE: Tree = ("const", False)


def _to_masks(cover: Cover) -> list[Mask]:
    masks = []
    for cube in cover.cubes:
        care = value = 0
        for i, v in enumerate(cube.values):
            if v != DASH:
                care, value = care | 1 << i, value | v << i
        masks.append((care, value))
    return masks


def _to_cover(names: tuple[str, ...], cubes: list[Mask]) -> Cover:
    return Cover(names, tuple(
        Cube(tuple(v >> i & 1 if c >> i & 1 else DASH for i in range(len(names))))
        for c, v in cubes
    ))


def _order_key(cube: Mask, width: int) -> int:
    """Sorts like ``Cube.values``: two bits a position, position 0 highest."""
    care, value = cube
    key = 0
    for i in range(width):
        key = key << 2 | (value >> i & 1 if care >> i & 1 else DASH)
    return key


@lru_cache(maxsize=1 << 14)
def _literals(cube: Mask) -> tuple[Mask, ...]:
    """The cube's literals as single-literal cubes, by ascending position."""
    care, value = cube
    bits = [1 << i for i in range(care.bit_length()) if care >> i & 1]
    return tuple((bit, value & bit) for bit in bits)


def _literal_counts(cubes: list[Mask]) -> Counter[Mask]:
    return Counter(lit for cube in cubes for lit in _literals(cube))


def _divide_by_cube(cubes: list[Mask], d: Mask) -> tuple[list[Mask], list[Mask]]:
    """Quotients of the cubes that contain ``d``, and the other cubes."""
    dc, dv = d
    quotient: list[Mask] = []
    rest: list[Mask] = []
    for c, v in cubes:
        if c & dc == dc and v & dc == dv:
            quotient.append((c ^ dc, v ^ dv))
        else:
            rest.append((c, v))
    return quotient, rest


def _cube_free(cubes: list[Mask]) -> list[Mask]:
    """Divide out the largest common cube of all cubes."""
    care, first, differ = -1, cubes[0][1], 0
    for c, v in cubes:
        care &= c
        differ |= v ^ first
    common = care & ~differ
    return [(c ^ common, v ^ (first & common)) for c, v in cubes] if common else cubes


def _kernels(cubes: list[Mask], counts: Counter[Mask]) -> list[list[Mask]]:
    kernels: dict[tuple[Mask, ...], list[Mask]] = {}
    for lit in [lit for lit, count in counts.items() if count >= 2]:
        kernel = _cube_free(_divide_by_cube(cubes, lit)[0])
        if len(kernel) >= 2:
            kernels.setdefault(tuple(sorted(kernel)), kernel)
    return list(kernels.values())


def _quotient(cubes: list[Mask], divisor: list[Mask], width: int) -> list[Mask]:
    """Cubes ``q`` with ``d*q`` in ``cubes`` for every divisor cube ``d``."""
    common: set[Mask] | None = None
    for dc, dv in divisor:
        qs = {(c ^ dc, v ^ dv) for c, v in cubes if c & dc == dc and v & dc == dv}
        common = qs if common is None else common & qs
    return sorted(common or (), key=lambda q: _order_key(q, width))


def _remainder(cubes: list[Mask], divisor: list[Mask], quotient: list[Mask]) -> list[Mask]:
    """The cubes that ``divisor * quotient`` fails to reproduce."""
    product = {(dc | qc, dv | qv) for dc, dv in divisor for qc, qv in quotient
               if not dc & qc & (dv ^ qv)}
    return [cube for cube in cubes if cube not in product]


def weak_divide(cover: Cover, divisor: Cover) -> tuple[Cover, Cover]:
    """Algebraic division ``cover = divisor * quotient + remainder``.

    The quotient is the intersection, over divisor cubes, of the per-cube
    quotients; the remainder is whatever the product fails to reproduce.
    """
    cubes, dcubes = _to_masks(cover), _to_masks(divisor)
    quotient = _quotient(cubes, dcubes, len(cover.names))
    remainder = _remainder(cubes, dcubes, quotient)
    return _to_cover(cover.names, quotient), _to_cover(cover.names, remainder)


def literal_kernels(cover: Cover) -> list[Cover]:
    """Level-0 kernel candidates: cube-free single-literal quotients."""
    cubes = _to_masks(cover)
    return [_to_cover(cover.names, k) for k in _kernels(cubes, _literal_counts(cubes))]


def _product(names: tuple[str, ...], cube: Mask) -> Tree:
    lits: list[Tree] = [
        ("lit", names[b.bit_length() - 1], v > 0) for b, v in _literals(cube)
    ]
    return reduce(_and, lits) if lits else _TRUE


def _and(a: Tree, b: Tree) -> Tree:
    return ("and", a, b)


def _or(a: Tree, b: Tree) -> Tree:
    return ("or", a, b)


def factor(cover: Cover) -> BoolExpr:
    """Factored-form expression of the cover (algebraically equivalent)."""
    return _to_expr(factor_tree(cover))


def factor_tree(cover: Cover) -> Tree:
    """:func:`factor` as a :data:`Tree`, for callers that walk it once."""
    return _factor(_to_masks(cover), cover.names)


@lru_cache(maxsize=1 << 12)
def _leaf(name: str, positive: bool) -> BoolExpr:
    return BoolExpr.var(name) if positive else ~BoolExpr.var(name)


def _to_expr(tree: Tree) -> BoolExpr:
    op = tree[0]
    if op == "lit":
        return _leaf(tree[1], tree[2])
    if op == "const":
        return BoolExpr.const(tree[1])
    return BoolExpr(op, args=(_to_expr(tree[1]), _to_expr(tree[2])))


def _factor(cubes: list[Mask], names: tuple[str, ...]) -> Tree:
    if not cubes:
        return _FALSE
    if len(cubes) == 1:
        return _product(names, cubes[0])
    counts = _literal_counts(cubes)
    best: tuple[int, list[Mask], list[Mask]] | None = None
    for kernel in _kernels(cubes, counts):
        quotient = _quotient(cubes, kernel, len(names))
        saved = (len(kernel) - 1) * (len(quotient) - 1)
        if saved > 0 and (best is None or saved > best[0]):
            best = (saved, kernel, quotient)
    if best is not None:
        _, kernel, quotient = best
        expr = ("and", _factor(kernel, names), _factor(quotient, names))
        remainder = _remainder(cubes, kernel, quotient)
        return ("or", expr, _factor(remainder, names)) if remainder else expr

    # No multi-cube kernel pays off: divide by the most frequent literal.
    if not counts:
        # Only universal cubes remain (e.g. the quotient of duplicate cubes).
        return _TRUE
    lit, count = max(counts.items(), key=itemgetter(1))  # Counter.most_common(1)
    if count < 2:
        # Completely disjoint cubes: plain OR of cube expressions.
        return reduce(_or, [_product(names, cube) for cube in cubes])
    quotient, rest = _divide_by_cube(cubes, lit)
    leaf = ("lit", names[lit[0].bit_length() - 1], lit[1] > 0)
    expr = ("and", leaf, _factor(quotient, names))
    return ("or", expr, _factor(rest, names)) if rest else expr
