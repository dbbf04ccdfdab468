"""Tests for Minato–Morreale ISOP extraction."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import (
    BddManager,
    cube_function,
    disjunction,
    isop,
    isop_function,
)
from repro.errors import BddError

VARS = [f"v{i}" for i in range(5)]


def cover_to_function(mgr, cover):
    """Reference: the BDD of the disjunction of the cover's cubes."""
    return disjunction(mgr, [cube_function(mgr, cube) for cube in cover])


def random_function(mgr, rng_bits):
    """Build a function from a list of minterm indices."""
    f = mgr.false
    for idx in rng_bits:
        cube = mgr.true
        for i, name in enumerate(VARS):
            bit = (idx >> i) & 1
            cube = cube & (mgr.var(name) if bit else mgr.nvar(name))
        f = f | cube
    return f


def test_isop_of_constants():
    mgr = BddManager(VARS)
    assert isop_function(mgr.false) == []
    assert isop_function(mgr.true) == [{}]


def test_isop_single_variable():
    mgr = BddManager(VARS)
    assert isop_function(mgr.var("v0")) == [{"v0": True}]
    assert isop_function(mgr.nvar("v0")) == [{"v0": False}]


def test_isop_requires_containment():
    mgr = BddManager(VARS)
    with pytest.raises(BddError):
        isop(mgr.true, mgr.var("v0"))


def test_isop_cross_manager_rejected():
    a, b = BddManager(VARS), BddManager(VARS)
    with pytest.raises(BddError):
        isop(a.var("v0"), b.var("v0"))


def test_isop_exploits_dont_cares():
    """With a generous upper bound the cover can be much smaller."""
    mgr = BddManager(VARS)
    lower = mgr.var("v0") & mgr.var("v1") & mgr.var("v2")
    upper = mgr.var("v0")
    cover = isop(lower, upper)
    fn = cover_to_function(mgr, cover)
    assert lower.is_subset_of(fn)
    assert fn.is_subset_of(upper)
    assert cover == [{"v0": True}]


@given(st.sets(st.integers(min_value=0, max_value=31), max_size=20))
@settings(max_examples=80, deadline=None)
def test_isop_exactly_covers_function(minterms):
    mgr = BddManager(VARS)
    f = random_function(mgr, minterms)
    cover = cover_to_function(mgr, isop_function(f))
    assert cover == f


@given(
    st.sets(st.integers(min_value=0, max_value=31), max_size=12),
    st.sets(st.integers(min_value=0, max_value=31), max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_isop_between_bounds(lower_minterms, extra):
    mgr = BddManager(VARS)
    lower = random_function(mgr, lower_minterms)
    upper = lower | random_function(mgr, extra)
    fn = cover_to_function(mgr, isop(lower, upper))
    assert lower.is_subset_of(fn)
    assert fn.is_subset_of(upper)


@given(st.sets(st.integers(min_value=0, max_value=31), max_size=16))
@settings(max_examples=40, deadline=None)
def test_isop_cover_is_irredundant(minterms):
    """Dropping any single cube must uncover part of the function."""
    mgr = BddManager(VARS)
    f = random_function(mgr, minterms)
    cover = isop_function(f)
    if len(cover) <= 1:
        return
    for k in range(len(cover)):
        rest = cover[:k] + cover[k + 1 :]
        assert cover_to_function(mgr, rest) != f
