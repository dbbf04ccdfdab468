"""Cubes in positional notation.

A :class:`Cube` is a product term over an ordered tuple of variables; each
position holds one of ``ZERO`` (complemented literal), ``ONE`` (positive
literal) or ``DASH`` (variable absent).  Cubes are the currency of the
paper's synthesis algorithm: the SOP covers of technology-independent nodes
are lists of cubes, ranked and selected by *essential weight* against the
SPCF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.errors import LogicError

ZERO = 0
ONE = 1
DASH = 2

_CHARS = {ZERO: "0", ONE: "1", DASH: "-"}
_VALUES = {"0": ZERO, "1": ONE, "-": DASH, "2": DASH}


@dataclass(frozen=True)
class Cube:
    """A product term over ``len(values)`` positional variables."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        for v in self.values:
            if v not in (ZERO, ONE, DASH):
                raise LogicError(f"invalid cube value {v!r}")

    # ---------------------------------------------------------- constructors

    @staticmethod
    def from_string(text: str) -> "Cube":
        """Parse e.g. ``"1-0"`` into a cube."""
        try:
            return Cube(tuple(_VALUES[ch] for ch in text.strip()))
        except KeyError as exc:
            raise LogicError(f"invalid cube character in {text!r}") from exc

    @staticmethod
    def full(width: int) -> "Cube":
        """The universal cube (all dashes) of the given width."""
        return Cube((DASH,) * width)

    @staticmethod
    def from_minterm(index: int, width: int) -> "Cube":
        """The minterm cube for ``index`` with variable 0 as the MSB."""
        if not 0 <= index < (1 << width):
            raise LogicError(f"minterm {index} out of range for width {width}")
        bits = tuple((index >> (width - 1 - i)) & 1 for i in range(width))
        return Cube(bits)

    @staticmethod
    def from_literals(literals: Mapping[int, bool], width: int) -> "Cube":
        """Build a cube from a ``{position: polarity}`` literal map."""
        vals = [DASH] * width
        for pos, pol in literals.items():
            if not 0 <= pos < width:
                raise LogicError(f"literal position {pos} out of range")
            vals[pos] = ONE if pol else ZERO
        return Cube(tuple(vals))

    # --------------------------------------------------------------- queries

    @property
    def width(self) -> int:
        return len(self.values)

    def literal_count(self) -> int:
        """Number of non-dash positions."""
        return sum(1 for v in self.values if v != DASH)

    def literals(self) -> dict[int, bool]:
        """Return ``{position: polarity}`` for the non-dash positions."""
        return {i: v == ONE for i, v in enumerate(self.values) if v != DASH}

    def contains_minterm(self, bits: Sequence[int]) -> bool:
        """True iff the cube covers the given 0/1 assignment."""
        if len(bits) != self.width:
            raise LogicError("minterm width mismatch")
        return all(v == DASH or v == b for v, b in zip(self.values, bits))

    def covers(self, other: "Cube") -> bool:
        """True iff every minterm of ``other`` is covered by this cube."""
        if other.width != self.width:
            raise LogicError("cube width mismatch")
        return all(
            sv == DASH or sv == ov for sv, ov in zip(self.values, other.values)
        )

    def intersect(self, other: "Cube") -> "Cube | None":
        """Cube intersection, or ``None`` if the cubes are disjoint."""
        if other.width != self.width:
            raise LogicError("cube width mismatch")
        out = []
        for sv, ov in zip(self.values, other.values):
            if sv == DASH:
                out.append(ov)
            elif ov == DASH or ov == sv:
                out.append(sv)
            else:
                return None
        return Cube(tuple(out))

    def distance(self, other: "Cube") -> int:
        """Number of positions where the cubes conflict (0/1 vs 1/0)."""
        if other.width != self.width:
            raise LogicError("cube width mismatch")
        return sum(
            1
            for sv, ov in zip(self.values, other.values)
            if sv != DASH and ov != DASH and sv != ov
        )

    def cofactor(self, position: int, value: bool) -> "Cube | None":
        """Shannon cofactor with respect to one variable, or ``None`` if empty."""
        v = self.values[position]
        want = ONE if value else ZERO
        if v != DASH and v != want:
            return None
        vals = list(self.values)
        vals[position] = DASH
        return Cube(tuple(vals))

    def expand_position(self, position: int) -> "Cube":
        """Raise (remove) the literal at ``position``."""
        vals = list(self.values)
        vals[position] = DASH
        return Cube(tuple(vals))

    def minterms(self) -> Iterator[int]:
        """Iterate minterm indices (variable 0 = MSB) covered by the cube."""
        dash_positions = [i for i, v in enumerate(self.values) if v == DASH]
        base = 0
        for i, v in enumerate(self.values):
            if v == ONE:
                base |= 1 << (self.width - 1 - i)
        for combo in range(1 << len(dash_positions)):
            idx = base
            for j, pos in enumerate(dash_positions):
                if (combo >> j) & 1:
                    idx |= 1 << (self.width - 1 - pos)
            yield idx

    def num_minterms(self) -> int:
        """Number of minterms covered."""
        return 1 << sum(1 for v in self.values if v == DASH)

    def to_dict(self, names: Sequence[str]) -> dict[str, bool]:
        """Return ``{name: polarity}`` using the given variable names."""
        if len(names) != self.width:
            raise LogicError("name list width mismatch")
        return {
            names[i]: v == ONE for i, v in enumerate(self.values) if v != DASH
        }

    def to_expr_string(self, names: Sequence[str]) -> str:
        """Render as a product term, e.g. ``"a & ~b"`` (``"1"`` if universal)."""
        lits = [
            (names[i] if v == ONE else f"~{names[i]}")
            for i, v in enumerate(self.values)
            if v != DASH
        ]
        return " & ".join(lits) if lits else "1"

    def __str__(self) -> str:
        return "".join(_CHARS[v] for v in self.values)


def merge_adjacent(a: Cube, b: Cube) -> Cube | None:
    """Combine two cubes differing in exactly one opposed literal.

    This is the Quine–McCluskey merge step: ``01-`` + ``11-`` → ``-1-``.
    Returns ``None`` when the cubes are not adjacent.
    """
    if a.width != b.width:
        raise LogicError("cube width mismatch")
    diff = -1
    for i, (av, bv) in enumerate(zip(a.values, b.values)):
        if av == bv:
            continue
        if av == DASH or bv == DASH:
            return None
        if diff >= 0:
            return None
        diff = i
    if diff < 0:
        return None
    return a.expand_position(diff)
