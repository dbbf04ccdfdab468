"""Truth-table kernel against the BDD package it replaces in lift/collapse."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BddManager
from repro.bdd.isop import isop as bdd_isop
from repro.errors import LogicError
from repro.logic import Cover, truthtable
from repro.netlist import Circuit, lsi10k_like_library, unit_library
from repro.spcf.timedfunc import expr_to_function
from repro.synth import circuit_to_technet, node_from_function


def names(k):
    return tuple(f"x{i}" for i in range(k))


def to_bdd(mgr, table, k):
    """BDD of a table, built from its halves (variable k-1 is the top bit
    of the minterm index), independently of the kernel's cofactors."""
    memo = {}

    def build(f, width):
        if (f, width) not in memo:
            if width == 0:
                memo[f, width] = mgr.true if f & 1 else mgr.false
            else:
                half = 1 << (width - 1)
                low = build(f & ((1 << half) - 1), width - 1)
                high = build(f >> half, width - 1)
                memo[f, width] = mgr.var(f"x{width - 1}").ite(high, low)
        return memo[f, width]

    return build(table, k)


@st.composite
def bounded_pair(draw, max_vars=13):
    """``(k, lower, upper)`` with ``lower <= upper``, constants included."""
    k = draw(st.integers(0, max_vars))
    full = truthtable.masks(k)[0]
    table = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    on, care = draw(table), draw(table)
    return k, on & care, on | (full & ~care)


def test_masks_are_the_variable_tables():
    full, var = truthtable.masks(3)
    assert full == 0xFF
    assert var == (0b10101010, 0b11001100, 0b11110000)
    with pytest.raises(LogicError):
        truthtable.masks(truthtable.MAX_VARS + 1)


@settings(max_examples=120, deadline=None)
@given(bounded_pair())
def test_isop_equals_bdd_isop_cube_for_cube(case):
    k, lower, upper = case
    mgr = BddManager(names(k))
    expected = bdd_isop(to_bdd(mgr, lower, k), to_bdd(mgr, upper, k))
    got = [
        {f"x{i}": value for i, value in cube.items()}
        for cube in truthtable.isop(lower, upper, k)
    ]
    assert got == expected


@st.composite
def table_and_limit(draw, max_vars=13):
    """``(k, f, limit)``: ``f`` an OR of 0-25 random cubes, so its covers
    straddle limits 0-20 (a random 13-variable table never would)."""
    k = draw(st.integers(0, max_vars))
    full, var = truthtable.masks(k)
    f = 0
    for _ in range(draw(st.integers(0, 25))):
        term = full
        for i in range(k):
            literal = draw(st.sampled_from((None, None, None, False, True)))
            if literal is not None:
                term &= var[i] if literal else ~var[i]
        f |= term
    return k, f, draw(st.integers(0, 20))


@settings(max_examples=150, deadline=None)
@given(table_and_limit())
def test_capped_isop_and_sop_give_the_full_cover_or_none(case):
    k, f, limit = case
    cubes = truthtable.isop(f, f, k)
    assert truthtable.isop(f, f, k, limit) == (
        cubes if len(cubes) <= limit else None
    )
    _, on, off = full = truthtable.sop(f, k)
    assert truthtable.sop(f, k, limit) == (
        full if max(len(on), len(off)) <= limit else None
    )


def test_isop_rejects_crossed_bounds():
    with pytest.raises(LogicError):
        truthtable.isop(0b0110, 0b0100, 2)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compose_support_and_cover_table_match_bdd(data):
    k = data.draw(st.integers(1, 9))
    full = truthtable.masks(k)[0]
    reader, node = data.draw(st.integers(0, full)), data.draw(st.integers(0, full))
    var = data.draw(st.integers(0, k - 1))
    mgr = BddManager(names(k))
    reader_fn, node_fn = to_bdd(mgr, reader, k), to_bdd(mgr, node, k)
    composed = truthtable.compose(reader, var, node, k)
    assert to_bdd(mgr, composed, k) == reader_fn.compose({f"x{var}": node_fn})
    assert {f"x{i}" for i in truthtable.support(reader, k)} == reader_fn.support()
    rows = data.draw(
        st.lists(st.text(alphabet="01-", min_size=k, max_size=k), max_size=6)
    )
    cover = Cover.from_strings(names(k), rows)
    table = truthtable.cover_table(cover.cubes, range(k), k)
    assert to_bdd(mgr, table, k) == cover.to_function(mgr)


def bdd_lift(name, cell, fanins):
    """The lift of one gate through a BDD manager over its distinct fanins."""
    distinct = tuple(dict.fromkeys(fanins))
    mgr = BddManager(distinct)
    env = {pin: mgr.var(f) for pin, f in zip(cell.inputs, fanins)}
    return node_from_function(name, distinct, expr_to_function(cell.expr, env, mgr))


CELLS = {
    f"{lib.name}.{cell.name}": cell
    for lib in (lsi10k_like_library(), unit_library())
    for cell in lib
}


@settings(max_examples=15, deadline=None)
@pytest.mark.parametrize("cell_id", sorted(CELLS))
@given(data=st.data())
def test_lift_with_repeated_fanins_matches_bdd_path(cell_id, data):
    cell = CELLS[cell_id]
    fanins = tuple(
        data.draw(
            st.lists(
                st.sampled_from(("a", "b", "c")),
                min_size=cell.num_inputs,
                max_size=cell.num_inputs,
            )
        )
    )
    circuit = Circuit("one", inputs=("a", "b", "c"), outputs=("g",))
    circuit.add_gate("g", cell, fanins)
    lifted = circuit_to_technet(circuit).node("g")
    assert lifted == bdd_lift("g", cell, fanins)
