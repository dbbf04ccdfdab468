"""Tests for the library cell model."""

import pytest

from repro.errors import LibraryError
from repro.netlist.cell import Cell


def nand2():
    return Cell("NAND2", ("a", "b"), "~(a & b)", 2.0, (6, 7))


def test_truth_table_pin0_is_msb():
    c = nand2()
    assert c.truth_table() == (True, True, True, False)


def test_evaluate_by_name_and_position():
    c = nand2()
    assert c.evaluate({"a": True, "b": True}) is False
    assert c.evaluate_seq([True, False]) is True
    with pytest.raises(LibraryError):
        c.evaluate_seq([True])


def test_primes_of_nand():
    on, off = nand2().primes()
    assert {str(p) for p in on} == {"0-", "-0"}
    assert [str(p) for p in off] == ["11"]


def test_constant_cells():
    one = Cell("ONE", (), "1", 0.0, ())
    assert one.truth_table() == (True,)
    assert one.evaluate({}) is True


def test_max_delay():
    assert nand2().max_delay() == 7
    assert Cell("ONE", (), "1", 0.0, ()).max_delay() == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(name="X", inputs=("a", "a"), expression="a", area=1.0, pin_delays=(1, 1)),
        dict(name="X", inputs=("a",), expression="a", area=1.0, pin_delays=()),
        dict(name="X", inputs=("a",), expression="a", area=1.0, pin_delays=(-1,)),
        dict(name="X", inputs=("a",), expression="a & b", area=1.0, pin_delays=(1,)),
        dict(name="X", inputs=(), expression="a", area=1.0, pin_delays=()),
    ],
)
def test_invalid_cells_rejected(kwargs):
    with pytest.raises(LibraryError):
        Cell(**kwargs)


def test_too_many_inputs_rejected():
    pins = tuple(f"p{i}" for i in range(11))
    with pytest.raises(LibraryError):
        Cell("BIG", pins, " & ".join(pins), 1.0, (1,) * 11)


def test_aoi_cell_truth_table():
    c = Cell("AOI21", ("a", "b", "c"), "~((a & b) | c)", 3.0, (8, 9, 7))
    # index: a=MSB. f = 1 only when c=0 and not(a&b)
    table = c.truth_table()
    for idx in range(8):
        a, b, cc = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        assert table[idx] == (not ((a and b) or cc))


def test_derived_caches_stay_bounded_over_many_libraries(monkeypatch):
    from repro.engine import ir as ir_module
    from repro.lru import LRUCache
    from repro.netlist import Library
    from repro.netlist import cell as cell_module

    caches = [
        (cell_module, "_expr_cache"),
        (cell_module, "_tt_cache"),
        (cell_module, "_primes_cache"),
        (ir_module, "_func_cache"),
        (ir_module, "_prime_cache"),
    ]
    for module, name in caches:
        cache = getattr(module, name)
        assert isinstance(cache, LRUCache)
        assert cache.size == cell_module.CELL_CACHE_SIZE
        monkeypatch.setattr(module, name, LRUCache(8))
    libraries = []
    for i in range(40):
        lib = Library(f"lib{i}")
        # Distinct content per library: a new cell name and expression.
        made = lib.add(Cell(f"G{i}", ("a", "b"), f"a & b | {i % 2}", 1.0, (1, 2)))
        made.primes()
        ir_module.cell_word_function(made)
        ir_module.cell_prime_tables(made)
        libraries.append(lib)
    assert all(len(getattr(module, name)) == 8 for module, name in caches)
    # An evicted cell derives the same artifacts again.
    first = libraries[0].get("G0")
    assert first.truth_table() == (False, False, False, True)
