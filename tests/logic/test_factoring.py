"""Tests for algebraic factoring.

``data/factor_golden.json`` pins the exact tree :func:`factor` returns, node
for node: the leading 16 hex digits of the SHA-256 of its ``repr`` on each
of :data:`GOLDEN_COUNT` seeded covers from :func:`golden_covers`.  The
covers span collapse's bounds (1-13 variables, 0-20 cubes), with duplicate
and universal cubes and expanded products that have multi-cube kernels.
Regenerate the file only for a deliberate change to the factored form::

    PYTHONPATH=src python tests/logic/test_factoring.py --write-golden
"""

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import Cover, factor, literal_kernels, weak_divide
from repro.logic.cube import DASH, Cube

NAMES = ("a", "b", "c", "d", "e")

GOLDEN_PATH = Path(__file__).parent / "data" / "factor_golden.json"
GOLDEN_SEED = 2009
GOLDEN_COUNT = 1000


def _random_values(rng: random.Random, width: int, dash: float) -> tuple[int, ...]:
    return tuple(
        DASH if rng.random() < dash else rng.randint(0, 1) for _ in range(width)
    )


def golden_covers(seed: int = GOLDEN_SEED, count: int = GOLDEN_COUNT) -> list[Cover]:
    """Seeded covers of 1-13 variables and 0-20 cubes.

    A third are expansions of a product of two small sums (so multi-cube
    kernels pay off), topped up with random cubes; about one cube in ten
    repeats an earlier one and one in twenty is universal.
    """
    rng = random.Random(seed)
    covers = []
    for _ in range(count):
        width = rng.randint(1, 13)
        size = rng.randint(0, 20)
        dash = rng.choice((0.35, 0.55, 0.75))
        rows: list[tuple[int, ...]] = []
        if rng.random() < 1 / 3:
            left = [_random_values(rng, width, 0.85) for _ in range(rng.randint(2, 4))]
            right = [_random_values(rng, width, 0.85) for _ in range(rng.randint(2, 4))]
            for a in left:
                for b in right:
                    merged = Cube(a).intersect(Cube(b))
                    if merged is not None and len(rows) < size:
                        rows.append(merged.values)
        while len(rows) < size:
            pick = rng.random()
            if rows and pick < 0.1:
                rows.append(rng.choice(rows))
            elif pick < 0.15:
                rows.append((DASH,) * width)
            else:
                rows.append(_random_values(rng, width, dash))
        rng.shuffle(rows)
        names = tuple(f"x{i}" for i in range(width))
        covers.append(Cover(names, tuple(Cube(v) for v in rows)))
    return covers


def _covers_digest(covers: list[Cover]) -> str:
    text = "\n".join(
        f"{len(c.names)}:" + ",".join(str(q) for q in c.cubes) for c in covers
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _factored_digests(covers: list[Cover]) -> list[str]:
    return [
        hashlib.sha256(repr(factor(c)).encode()).hexdigest()[:16] for c in covers
    ]


def test_factor_matches_golden_trees():
    golden = json.loads(GOLDEN_PATH.read_text())
    covers = golden_covers(golden["seed"], golden["count"])
    assert _covers_digest(covers) == golden["covers_sha256"], "generator drifted"
    got = _factored_digests(covers)
    mismatched = [i for i, (g, w) in enumerate(zip(got, golden["factored"])) if g != w]
    assert not mismatched, (
        f"{len(mismatched)} factored trees differ; first cover #{mismatched[0]}: "
        f"{[str(c) for c in covers[mismatched[0]].cubes]}"
    )
    assert len(got) == len(golden["factored"])


def write_golden() -> None:
    covers = golden_covers()
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "seed": GOLDEN_SEED,
                "count": GOLDEN_COUNT,
                "covers_sha256": _covers_digest(covers),
                "factored": _factored_digests(covers),
            },
            indent=1,
        )
        + "\n"
    )


def count_literals(expr) -> int:
    if expr.op == "var":
        return 1
    if expr.op == "const":
        return 0
    return sum(count_literals(a) for a in expr.args)


def test_product_of_sums_recovered():
    # ac + ad + bc + bd == (a|b)(c|d): factoring should halve the literals.
    cov = Cover.from_strings(NAMES, ["1-1--", "1--1-", "-11--", "-1-1-"])
    expr = factor(cov)
    assert count_literals(expr) == 4


def test_single_cube_is_product_term():
    cov = Cover.from_strings(NAMES, ["10-1-"])
    expr = factor(cov)
    assert count_literals(expr) == 3


def test_empty_cover_is_constant_false():
    expr = factor(Cover(NAMES))
    assert expr.op == "const" and expr.value is False


def test_weak_divide_exact_division():
    # F = (a|b) & c  expanded: ac + bc, divisor (a|b)
    cov = Cover.from_strings(NAMES, ["1-1--", "-11--"])
    divisor = Cover.from_strings(NAMES, ["1----", "-1---"])
    quotient, remainder = weak_divide(cov, divisor)
    assert [str(c) for c in quotient.cubes] == ["--1--"]
    assert remainder.num_cubes == 0


def test_weak_divide_with_remainder():
    cov = Cover.from_strings(NAMES, ["1-1--", "-11--", "---11"])
    divisor = Cover.from_strings(NAMES, ["1----", "-1---"])
    quotient, remainder = weak_divide(cov, divisor)
    assert [str(c) for c in quotient.cubes] == ["--1--"]
    assert [str(c) for c in remainder.cubes] == ["---11"]


def test_literal_kernels_found():
    cov = Cover.from_strings(NAMES, ["11---", "1-1--"])
    kernels = literal_kernels(cov)
    assert any(
        {str(c) for c in k.cubes} == {"-1---", "--1--"} for k in kernels
    )


cover_st = st.lists(
    st.text(alphabet="01-", min_size=5, max_size=5), min_size=1, max_size=8
).map(lambda rows: Cover.from_strings(NAMES, sorted(set(rows))))


@given(cover_st)
@settings(max_examples=120, deadline=None)
def test_factor_preserves_function(cov):
    expr = factor(cov)
    for bits in itertools.product([False, True], repeat=len(NAMES)):
        asgn = dict(zip(NAMES, bits))
        assert expr.evaluate(asgn) == cov.evaluate(asgn)


@given(cover_st)
@settings(max_examples=60, deadline=None)
def test_factor_never_increases_literals(cov):
    expr = factor(cov)
    assert count_literals(expr) <= max(cov.literal_count(), 1)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-golden"]:
        sys.exit("usage: test_factoring.py --write-golden")
    write_golden()
