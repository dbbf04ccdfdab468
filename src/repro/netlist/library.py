"""Cell libraries.

Two libraries ship with the reproduction:

* :func:`unit_library` — the delay model of the paper's worked example
  (Sec. 4.2): inverters cost 1 delay unit, 2-input gates cost 2.  The 2-bit
  comparator reproduces the paper's critical path delay of exactly 7 with it.
* :func:`lsi10k_like_library` — a richer library standing in for the
  LSI Logic lsi_10k library used in the paper's evaluation (see DESIGN.md
  substitution table), with per-pin delays, areas, and load capacitances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import LibraryError
from repro.netlist.cell import Cell


@dataclass(eq=False)
class Library:
    """A named collection of :class:`Cell` definitions.

    Compared and hashed by identity, so a library can key per-library
    caches such as :data:`repro.synth.mapping._trial_cache`.
    """

    name: str
    _cells: dict[str, Cell] = field(default_factory=dict)

    def add(self, cell: Cell) -> Cell:
        """Register a cell; raises on duplicate names."""
        if cell.name in self._cells:
            raise LibraryError(f"duplicate cell {cell.name!r} in library {self.name!r}")
        self._cells[cell.name] = cell
        return cell

    def get(self, name: str) -> Cell:
        """Look up a cell by name."""
        try:
            return self._cells[name]
        except KeyError:
            raise LibraryError(
                f"cell {name!r} not found in library {self.name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def cell_names(self) -> tuple[str, ...]:
        return tuple(self._cells)

    def cells_with_inputs(self, n: int) -> list[Cell]:
        """All cells with exactly ``n`` input pins."""
        return [c for c in self._cells.values() if c.num_inputs == n]


def _pins(n: int) -> tuple[str, ...]:
    return tuple("abcdefgh"[:n])


def unit_library() -> Library:
    """The paper's illustrative delay model: INV = 1, 2-input gates = 2.

    Three-input gates cost 3 and the 2-to-1 multiplexer costs 2, keeping the
    delay of any gate equal to its logic 'level weight' in the example.
    """
    lib = Library("unit")
    lib.add(Cell("INV", ("a",), "~a", 1.0, (1,)))
    lib.add(Cell("BUF", ("a",), "a", 1.0, (1,)))
    for name, expr in [
        ("AND2", "a & b"),
        ("OR2", "a | b"),
        ("NAND2", "~(a & b)"),
        ("NOR2", "~(a | b)"),
        ("XOR2", "a ^ b"),
        ("XNOR2", "~(a ^ b)"),
    ]:
        lib.add(Cell(name, _pins(2), expr, 2.0, (2, 2)))
    for name, expr in [
        ("AND3", "a & b & c"),
        ("OR3", "a | b | c"),
        ("NAND3", "~(a & b & c)"),
        ("NOR3", "~(a | b | c)"),
    ]:
        lib.add(Cell(name, _pins(3), expr, 3.0, (3, 3, 3)))
    # MUX2: s selects between d0 (s=0) and d1 (s=1).
    lib.add(Cell("MUX2", ("s", "d0", "d1"), "(~s & d0) | (s & d1)", 3.0, (2, 2, 2)))
    lib.add(Cell("ZERO", (), "0", 0.0, ()))
    lib.add(Cell("ONE", (), "1", 0.0, ()))
    return lib


def lsi10k_like_library() -> Library:
    """A stand-in for the lsi_10k library (delays in ~0.01 ns units).

    Pin delays differ per pin (first pins are faster), exercising the
    pin-to-pin delay handling of the SPCF algorithms.  Areas are in
    equivalent-gate units; ``load_cap`` feeds the switching-power model.
    """
    lib = Library("lsi10k_like")
    lib.add(Cell("INV", ("a",), "~a", 1.0, (4,), load_cap=1.0))
    lib.add(Cell("BUF", ("a",), "a", 2.0, (6,), load_cap=1.0))
    two_in = [
        ("NAND2", "~(a & b)", 2.0, (6, 7), 1.1),
        ("NOR2", "~(a | b)", 2.0, (7, 8), 1.1),
        ("AND2", "a & b", 3.0, (8, 9), 1.2),
        ("OR2", "a | b", 3.0, (9, 10), 1.2),
        ("XOR2", "a ^ b", 5.0, (11, 12), 1.5),
        ("XNOR2", "~(a ^ b)", 5.0, (11, 12), 1.5),
    ]
    for name, expr, area, delays, cap in two_in:
        lib.add(Cell(name, _pins(2), expr, area, delays, load_cap=cap))
    three_in = [
        ("NAND3", "~(a & b & c)", 3.0, (8, 9, 10), 1.3),
        ("NOR3", "~(a | b | c)", 3.0, (9, 10, 11), 1.3),
        ("AND3", "a & b & c", 4.0, (10, 11, 12), 1.4),
        ("OR3", "a | b | c", 4.0, (11, 12, 13), 1.4),
    ]
    for name, expr, area, delays, cap in three_in:
        lib.add(Cell(name, _pins(3), expr, area, delays, load_cap=cap))
    lib.add(
        Cell("NAND4", _pins(4), "~(a & b & c & d)", 4.0, (10, 11, 12, 13), load_cap=1.4)
    )
    lib.add(
        Cell("NOR4", _pins(4), "~(a | b | c | d)", 4.0, (11, 12, 13, 14), load_cap=1.4)
    )
    lib.add(
        Cell("AOI21", _pins(3), "~((a & b) | c)", 3.0, (8, 9, 7), load_cap=1.2)
    )
    lib.add(
        Cell("OAI21", _pins(3), "~((a | b) & c)", 3.0, (8, 9, 7), load_cap=1.2)
    )
    lib.add(
        Cell(
            "AOI22",
            _pins(4),
            "~((a & b) | (c & d))",
            4.0,
            (9, 10, 9, 10),
            load_cap=1.3,
        )
    )
    lib.add(
        Cell(
            "OAI22",
            _pins(4),
            "~((a | b) & (c | d))",
            4.0,
            (9, 10, 9, 10),
            load_cap=1.3,
        )
    )
    lib.add(
        Cell(
            "MUX2",
            ("s", "d0", "d1"),
            "(~s & d0) | (s & d1)",
            4.0,
            (10, 8, 8),
            load_cap=1.3,
        )
    )
    lib.add(Cell("ZERO", (), "0", 0.0, ()))
    lib.add(Cell("ONE", (), "1", 0.0, ()))
    return lib


_BUILTIN = {"unit": unit_library, "lsi10k_like": lsi10k_like_library}


def builtin_library(name: str) -> Library:
    """Fetch a built-in library by name (``"unit"`` or ``"lsi10k_like"``)."""
    try:
        return _BUILTIN[name]()
    except KeyError:
        raise LibraryError(
            f"unknown built-in library {name!r}; choose from {sorted(_BUILTIN)}"
        ) from None
