"""Library cell model.

A :class:`Cell` is a single-output combinational primitive with

* a Boolean function over named input pins (an expression string),
* one integer *pin-to-pin delay* per input (the paper's ``delta(l -> z)``),
* an area, and a relative output load capacitance for the power model.

Derived artifacts — parsed expression, truth table, and the on-set/off-set
prime implicants needed by the SPCF recursion (paper Eqn. 1) — are computed
once per cell and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import LibraryError
from repro.logic.cube import Cube
from repro.logic.expr import BoolExpr, parse_expr
from repro.logic.qm import primes_of_truth_table
from repro.lru import LRUCache

_MAX_CELL_INPUTS = 10


@dataclass(frozen=True)
class Cell:
    """A combinational library cell.

    Parameters
    ----------
    name:
        Unique cell-type name, e.g. ``"NAND2"``.
    inputs:
        Ordered input pin names; order matters (pin delays align with it).
    expression:
        Boolean function over the pin names, e.g. ``"~(a & b)"``.
    area:
        Cell area in library units.
    pin_delays:
        Integer pin-to-pin delays, one per input pin.
    load_cap:
        Relative output capacitance used by the switching-power model.
    """

    name: str
    inputs: tuple[str, ...]
    expression: str
    area: float
    pin_delays: tuple[int, ...]
    load_cap: float = 1.0

    def __post_init__(self) -> None:
        if not self.inputs and self.expression not in ("0", "1"):
            raise LibraryError(f"cell {self.name!r}: zero-input cell must be constant")
        if len(self.inputs) > _MAX_CELL_INPUTS:
            raise LibraryError(
                f"cell {self.name!r}: {len(self.inputs)} inputs exceeds "
                f"{_MAX_CELL_INPUTS}"
            )
        if len(set(self.inputs)) != len(self.inputs):
            raise LibraryError(f"cell {self.name!r}: duplicate pin names")
        if len(self.pin_delays) != len(self.inputs):
            raise LibraryError(
                f"cell {self.name!r}: {len(self.pin_delays)} delays for "
                f"{len(self.inputs)} pins"
            )
        if any(d < 0 for d in self.pin_delays):
            raise LibraryError(f"cell {self.name!r}: negative pin delay")
        used = self.expr.variables()
        extra = used - set(self.inputs)
        if extra:
            raise LibraryError(
                f"cell {self.name!r}: expression uses unknown pins {sorted(extra)}"
            )

    # ------------------------------------------------------ derived (cached)

    @property
    def expr(self) -> BoolExpr:
        """Parsed Boolean expression (cached)."""
        cached = _expr_cache.get(self._key)
        if cached is None:
            cached = parse_expr(self.expression)
            _expr_cache.put(self._key, cached)
        return cached

    @property
    def _key(self) -> tuple[str, tuple[str, ...], str]:
        return (self.name, self.inputs, self.expression)

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    def truth_table(self) -> tuple[bool, ...]:
        """Output for every input minterm; pin 0 is the MSB of the index."""
        cached = _tt_cache.get(self._key)
        if cached is None:
            n = self.num_inputs
            expr = self.expr
            rows = []
            for idx in range(1 << n):
                assignment = {
                    pin: bool((idx >> (n - 1 - i)) & 1)
                    for i, pin in enumerate(self.inputs)
                }
                rows.append(expr.evaluate(assignment))
            cached = tuple(rows)
            _tt_cache.put(self._key, cached)
        return cached

    def primes(self) -> tuple[tuple[Cube, ...], tuple[Cube, ...]]:
        """``(on_set_primes, off_set_primes)`` over the input pins (cached)."""
        cached = _primes_cache.get(self._key)
        if cached is None:
            on, off = primes_of_truth_table(self.truth_table())
            cached = (tuple(on), tuple(off))
            _primes_cache.put(self._key, cached)
        return cached

    def evaluate(self, pin_values: Mapping[str, bool]) -> bool:
        """Evaluate the cell function for the given pin values."""
        return self.expr.evaluate(pin_values)

    def evaluate_seq(self, values: Sequence[bool]) -> bool:
        """Evaluate with positional pin values (matching ``self.inputs``)."""
        if len(values) != self.num_inputs:
            raise LibraryError(
                f"cell {self.name!r}: got {len(values)} values for "
                f"{self.num_inputs} pins"
            )
        idx = 0
        for v in values:
            idx = (idx << 1) | int(bool(v))
        return self.truth_table()[idx]

    def max_delay(self) -> int:
        """Largest pin-to-pin delay (0 for constant cells)."""
        return max(self.pin_delays, default=0)


#: Most distinct cell functions each derived-artifact cache holds at once
#: (a library has a few dozen cells).
CELL_CACHE_SIZE = 1024

# Keyed by the cell's content (name, pins, expression), so equal cells of
# different library objects share entries.
_expr_cache: LRUCache[BoolExpr] = LRUCache(CELL_CACHE_SIZE)
_tt_cache: LRUCache[tuple[bool, ...]] = LRUCache(CELL_CACHE_SIZE)
_primes_cache: LRUCache[tuple[tuple[Cube, ...], tuple[Cube, ...]]] = LRUCache(
    CELL_CACHE_SIZE
)
