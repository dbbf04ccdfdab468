"""Tests for essential-weight cube selection (paper Sec. 4.1 (i)–(iii))."""

import random
from fractions import Fraction

import pytest

from repro.bdd import BddManager
from repro.core import select_cubes
from repro.core.careset import cover_image, cube_image
from repro.errors import MaskingError
from repro.logic import Cover, truthtable
from repro.logic.cube import DASH, ONE, ZERO, Cube


def setup_space():
    """Two PIs drive two 'nets' that are just the PIs themselves."""
    mgr = BddManager(["x0", "x1", "x2"])
    fns = {n: mgr.var(n) for n in ("x0", "x1", "x2")}
    return mgr, fns


def test_zero_weight_cubes_dropped():
    mgr, fns = setup_space()
    # cover = x0 | x1 ; sigma only touches x0: the x1 cube is inessential.
    cover = Cover.from_strings(("x0", "x1"), ["1-", "-1"])
    sigma = mgr.var("x0") & ~mgr.var("x1")
    sel = select_cubes(cover, sigma, fns, mgr, 3)
    assert sel.dropped == 1
    assert [str(c) for c in sel.kept.cubes] == ["1-"]
    assert sel.total_weight == 1


def test_weights_are_exact_fractions():
    mgr, fns = setup_space()
    cover = Cover.from_strings(("x0", "x1"), ["1-", "-1"])
    sigma = mgr.var("x0") | mgr.var("x1")  # 6 of 8 minterms
    sel = select_cubes(cover, sigma, fns, mgr, 3)
    assert sel.dropped == 0
    assert sum(sel.weights) == 1
    assert sel.weights[0] == Fraction(4, 6)
    assert sel.weights[1] == Fraction(2, 6)


def test_ascending_literal_order_prefers_big_cubes():
    mgr, fns = setup_space()
    # Both cubes cover sigma; the 1-literal cube is processed first and
    # absorbs all the weight, so the 2-literal cube drops.
    cover = Cover.from_strings(("x0", "x1"), ["11", "1-"])
    sigma = mgr.var("x0") & mgr.var("x1")
    sel = select_cubes(cover, sigma, fns, mgr, 3)
    assert [str(c) for c in sel.kept.cubes] == ["1-"]


def test_empty_sigma_drops_everything():
    mgr, fns = setup_space()
    cover = Cover.from_strings(("x0", "x1"), ["1-", "-1"])
    sel = select_cubes(cover, mgr.false, fns, mgr, 3)
    assert sel.kept.num_cubes == 0
    assert sel.total_weight == 0


def test_coverage_property_on_internal_nets():
    """Kept cubes cover every sigma-reachable minterm of the full cover."""
    mgr = BddManager(["x0", "x1", "x2", "x3"])
    pis = {n: mgr.var(n) for n in mgr.var_names}
    # internal nets: n1 = x0&x1, n2 = x2|x3
    fns = {**pis, "n1": pis["x0"] & pis["x1"], "n2": pis["x2"] | pis["x3"]}
    cover = Cover.from_strings(("n1", "n2"), ["1-", "-1"])
    sigma = pis["x0"] & pis["x1"] & ~pis["x2"]
    sel = select_cubes(cover, sigma, fns, mgr, 4)
    kept_img = cover_image(sel.kept, fns, mgr)
    full_img = cover_image(cover, fns, mgr)
    assert (sigma & full_img).is_subset_of(kept_img)


def test_cube_image_unknown_net():
    from repro.errors import MaskingError
    from repro.logic.cube import Cube

    mgr, fns = setup_space()
    with pytest.raises(MaskingError):
        cube_image(Cube.from_string("1"), ("ghost",), fns, mgr)


def reference_selection(cover, sigma, functions, mgr, num_inputs):
    """Selection in primary-input space, one BDD image per cube:
    ``(kept, weights, dropped)``."""
    ordered = cover.sorted_by_literal_count()
    sigma_count = sigma.count(num_inputs)
    covered = mgr.false
    kept = []
    weights = []
    for cube in ordered.cubes:
        image = cube_image(cube, ordered.names, functions, mgr)
        gain = sigma & image & ~covered
        if gain.is_false:
            continue
        kept.append(cube)
        if sigma_count:
            weights.append(Fraction(gain.count(num_inputs), sigma_count))
        else:
            weights.append(Fraction(0))
        covered = covered | image
    return Cover(ordered.names, tuple(kept)), tuple(weights), cover.num_cubes - len(kept)


def table_function(mgr, table, n):
    """BDD over ``x0..x{n-1}`` of an ``n``-variable truth table."""
    acc = mgr.false
    for m in range(1 << n):
        if table >> m & 1:
            term = mgr.true
            for i in range(n):
                x = mgr.var(f"x{i}")
                term = term & (x if m >> i & 1 else ~x)
            acc = acc | term
    return acc


def random_case(seed):
    """A cover over 1-8 internal nets with random global functions of 3-6
    primary inputs, and a random ``Sigma`` (sometimes empty or full).  The
    cover may repeat cubes and may hold the full cube."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    full = (1 << (1 << n)) - 1
    mgr = BddManager(f"x{i}" for i in range(n))
    k = rng.randint(1, 8)
    names = tuple(f"n{i}" for i in range(k))
    functions = {
        name: table_function(mgr, rng.randint(0, full), n) for name in names
    }
    cubes = [
        Cube(tuple(rng.choice((ZERO, ONE, DASH, DASH)) for _ in range(k)))
        for _ in range(rng.randint(0, 10))
    ]
    if cubes and rng.random() < 0.4:
        cubes.append(rng.choice(cubes))
    if rng.random() < 0.2:
        cubes.insert(rng.randint(0, len(cubes)), Cube.full(k))
    rng.shuffle(cubes)
    kind = rng.random()
    if kind < 0.15:
        sigma = mgr.false
    elif kind < 0.25:
        sigma = mgr.true
    else:
        sigma = table_function(mgr, rng.randint(0, full), n)
    return Cover(names, tuple(cubes)), sigma, functions, mgr, n


@pytest.mark.parametrize("block", range(4))
def test_selection_equals_the_primary_input_space_loop(block):
    kinds = {"dropped": 0, "empty_sigma": 0, "duplicates": 0, "full_cube": 0}
    for seed in range(100 * block, 100 * block + 100):
        cover, sigma, functions, mgr, n = random_case(seed)
        sel = select_cubes(cover, sigma, functions, mgr, n)
        kept, weights, dropped = reference_selection(
            cover, sigma, functions, mgr, n
        )
        assert (sel.kept, sel.dropped) == (kept, dropped), seed
        assert sel.weights == weights, seed
        assert sel.total_weight == sum(weights, Fraction(0))
        kinds["dropped"] += dropped > 0
        kinds["empty_sigma"] += sigma.is_false
        kinds["duplicates"] += len(set(cover.cubes)) < cover.num_cubes
        kinds["full_cube"] += Cube.full(len(cover.names)) in cover.cubes
    assert all(kinds.values()), kinds


def test_selection_results_compare_by_kept_weights_and_dropped():
    cover, sigma, functions, mgr, n = random_case(7)
    first = select_cubes(cover, sigma, functions, mgr, n)
    again = select_cubes(cover, sigma, functions, mgr, n)
    assert first is not again
    assert first == again and hash(first) == hash(again)
    empty = select_cubes(cover, mgr.false, functions, mgr, n)
    assert empty.kept.num_cubes == 0 and empty.weights == ()
    assert (empty == first) == (first.kept.num_cubes == 0)


def test_cover_wider_than_a_table_raises_before_any_table(monkeypatch):
    k = truthtable.MAX_VARS + 1
    names = tuple(f"x{i}" for i in range(k))
    mgr = BddManager(names)
    functions = {name: mgr.var(name) for name in names}

    def no_table(*args, **kwargs):
        raise AssertionError("a truth table was built")

    monkeypatch.setattr(BddManager, "image_table", no_table)
    monkeypatch.setattr(truthtable, "cover_table", no_table)
    cover = Cover(names, (Cube.full(k),))
    with pytest.raises(MaskingError, match="wider"):
        select_cubes(cover, mgr.var("x0"), functions, mgr, k)


def test_unknown_net_raises_masking_error():
    mgr, fns = setup_space()
    cover = Cover.from_strings(("x0", "ghost"), ["1-", "-1"])
    with pytest.raises(MaskingError, match="ghost"):
        select_cubes(cover, mgr.var("x0"), fns, mgr, 3)
