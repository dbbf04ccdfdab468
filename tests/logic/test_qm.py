"""Tests for Quine–McCluskey prime generation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogicError
from repro.logic import Cube, prime_implicants, primes_of_truth_table


def is_prime(cube, on_set, width):
    """No literal can be dropped without covering an off-set minterm."""
    for pos in range(width):
        if cube.values[pos] == 2:
            continue
        bigger = cube.expand_position(pos)
        if set(bigger.minterms()) <= set(on_set):
            return False
    return True


def test_known_example():
    # f = a'b' + ab  (XNOR): primes are exactly the two minterm pairs? No —
    # XNOR of 2 vars has primes 00 and 11 (no merging possible).
    primes = prime_implicants([0, 3], 2)
    assert {str(p) for p in primes} == {"00", "11"}


def test_full_function_single_prime():
    primes = prime_implicants(list(range(8)), 3)
    assert [str(p) for p in primes] == ["---"]


def test_classic_qm_textbook():
    # f(a,b,c,d) with on-set {4,8,10,11,12,15}, a classic example.
    on = [4, 8, 10, 11, 12, 15]
    primes = prime_implicants(on, 4)
    # The textbook answer: exactly these five prime implicants.
    assert {str(p) for p in primes} == {"-100", "1-00", "10-0", "101-", "1-11"}
    # Every prime must be prime and inside the on-set.
    for p in primes:
        assert set(p.minterms()) <= set(on)
        assert is_prime(p, on, 4)


def test_out_of_range_rejected():
    with pytest.raises(LogicError):
        prime_implicants([9], 3)


def test_primes_of_truth_table():
    # 2-bit AND
    on, off = primes_of_truth_table([False, False, False, True])
    assert [str(p) for p in on] == ["11"]
    assert {str(p) for p in off} == {"0-", "-0"}
    with pytest.raises(LogicError):
        primes_of_truth_table([True, False, True])


@given(st.sets(st.integers(min_value=0, max_value=31), max_size=20))
@settings(max_examples=60, deadline=None)
def test_primes_are_prime_and_sound(on):
    width = 5
    on = sorted(on)
    primes = prime_implicants(on, width)
    union = set()
    for p in primes:
        minterms = set(p.minterms())
        assert minterms <= set(on)  # soundness
        assert is_prime(p, on, width)  # primality
        union |= minterms
    assert union == set(on)  # completeness of the union of primes

