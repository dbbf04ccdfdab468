"""Unit and property tests for the ROBDD manager."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import (
    BddManager,
    Function,
    conjunction,
    cube_function,
    disjunction,
    isop,
    isop_function,
)
from repro.errors import BddError

VARS = [f"x{i}" for i in range(6)]


def brute_count(fn, names):
    return sum(
        fn.evaluate(dict(zip(names, bits)))
        for bits in itertools.product([False, True], repeat=len(names))
    )


@pytest.fixture()
def mgr():
    return BddManager(VARS)


# --------------------------------------------------------------------- basics


def test_constants(mgr):
    assert mgr.true.is_true
    assert mgr.false.is_false
    assert (~mgr.true).is_false
    assert (mgr.true & mgr.false).is_false
    assert (mgr.true | mgr.false).is_true


def test_var_and_nvar_are_complements(mgr):
    a = mgr.var("x0")
    assert ~a == mgr.nvar("x0")
    assert (a & mgr.nvar("x0")).is_false


def test_duplicate_variable_rejected(mgr):
    with pytest.raises(BddError):
        mgr.add_var("x0")


def test_unknown_variable_rejected(mgr):
    with pytest.raises(BddError):
        mgr.var("nope")


def test_ensure_var_registers_once(mgr):
    f = mgr.ensure_var("fresh")
    g = mgr.ensure_var("fresh")
    assert f == g


def test_hash_consing_dedupes_nodes(mgr):
    a, b = mgr.var("x0"), mgr.var("x1")
    n_before = mgr.num_nodes
    f1 = a & b
    f2 = mgr.var("x0") & mgr.var("x1")
    assert f1 == f2
    assert mgr.num_nodes == n_before + (mgr.num_nodes - n_before)  # no error


def test_bool_of_function_raises(mgr):
    with pytest.raises(BddError):
        bool(mgr.var("x0"))


def test_cross_manager_mixing_rejected(mgr):
    other = BddManager(["x0"])
    with pytest.raises(BddError):
        mgr.var("x0") & other.var("x0")


# ----------------------------------------------------------------- operations


def test_basic_identities(mgr):
    a, b, c = (mgr.var(v) for v in ("x0", "x1", "x2"))
    assert (a ^ b) == ((a & ~b) | (~a & b))
    assert a.ite(b, c) == ((a & b) | (~a & c))
    assert (a - b) == (a & ~b)
    assert a.iff(b) == ~(a ^ b)
    assert a.implies(b) == (~a | b)


def test_de_morgan(mgr):
    a, b = mgr.var("x0"), mgr.var("x1")
    assert ~(a & b) == (~a | ~b)
    assert ~(a | b) == (~a & ~b)


def test_evaluate_requires_full_assignment(mgr):
    f = mgr.var("x0") & mgr.var("x1")
    with pytest.raises(BddError):
        f.evaluate({"x0": True})


# ------------------------------------------------------------------- counting


def test_count_simple(mgr):
    a, b = mgr.var("x0"), mgr.var("x1")
    n = mgr.num_vars
    assert (a & b).count() == 1 << (n - 2)
    assert (a | b).count() == 3 << (n - 2)
    assert mgr.true.count() == 1 << n
    assert mgr.false.count() == 0


def test_count_with_explicit_nvars(mgr):
    a = mgr.var("x0")
    assert a.count(1) == 1
    assert a.count(3) == 4


def test_count_rejects_too_small_nvars(mgr):
    f = mgr.var("x3")
    with pytest.raises(BddError):
        f.count(2)


def test_count_memo_is_kept_per_nvars(mgr):
    f = (mgr.var("x1") & ~mgr.var("x3")) | mgr.var("x4")
    n = mgr.num_vars
    count = f.count(n)
    assert count == brute_count(f, VARS)
    assert f.node in mgr._count_memo[n]
    assert f.count(n + 3) == count << 3
    assert f.count(n) == count


def test_fraction(mgr):
    a, b = mgr.var("x0"), mgr.var("x1")
    assert float((a & b).fraction()) == 0.25
    assert float((a | b).fraction()) == 0.75


# ------------------------------------------------------------------ transforms


def test_restrict_both_polarities(mgr):
    a, b, c = (mgr.var(v) for v in ("x0", "x1", "x2"))
    f = (a & b) | c
    assert f.restrict({"x0": True}) == (b | c)
    assert f.restrict({"x1": False}) == c
    assert f.restrict({"x0": True, "x1": True}).is_true or True
    assert f.restrict({"x0": True, "x1": True}) == mgr.true | c  # b=1,a=1 -> 1


def test_compose_matches_substitution(mgr):
    a, b, c = (mgr.var(v) for v in ("x0", "x1", "x2"))
    f = a & b
    g = f.compose({"x1": b | c})
    assert g == (a & (b | c))


def test_exists_forall(mgr):
    a, b = mgr.var("x0"), mgr.var("x1")
    f = a & b
    assert f.exists(["x0"]) == b
    assert f.forall(["x0"]).is_false
    assert (a | b).forall(["x0"]) == b
    assert f.exists([]) == f


def test_support(mgr):
    a, c = mgr.var("x0"), mgr.var("x2")
    assert (a & c).support() == {"x0", "x2"}
    assert mgr.true.support() == set()


def test_cubes_and_pick_one(mgr):
    a, b = mgr.var("x0"), mgr.var("x1")
    f = a & ~b
    cube = f.pick_one()
    assert cube is not None
    assert f.evaluate({**{v: False for v in VARS}, **cube})
    assert mgr.false.pick_one() is None


def test_dag_size(mgr):
    a = mgr.var("x0")
    assert a.dag_size() == 1
    assert mgr.true.dag_size() == 0


def test_helpers_conjunction_disjunction_cube(mgr):
    fns = [mgr.var(v) for v in ("x0", "x1", "x2")]
    assert conjunction(mgr, fns) == (fns[0] & fns[1] & fns[2])
    assert disjunction(mgr, fns) == (fns[0] | fns[1] | fns[2])
    assert conjunction(mgr, []).is_true
    assert disjunction(mgr, []).is_false
    f = cube_function(mgr, {"x0": True, "x1": False})
    assert f == (fns[0] & ~fns[1])


# ------------------------------------------------------------ property tests


@st.composite
def exprs(draw, depth=0):
    """Random (python-lambda, bdd-builder) expression pairs."""
    if depth > 4 or draw(st.booleans()):
        idx = draw(st.integers(min_value=0, max_value=5))
        return ("var", idx)
    op = draw(st.sampled_from(["and", "or", "xor", "not"]))
    if op == "not":
        return ("not", draw(exprs(depth=depth + 1)))
    return (op, draw(exprs(depth=depth + 1)), draw(exprs(depth=depth + 1)))


def build_fn(tree, mgr):
    if tree[0] == "var":
        return mgr.var(VARS[tree[1]])
    if tree[0] == "not":
        return ~build_fn(tree[1], mgr)
    left, right = build_fn(tree[1], mgr), build_fn(tree[2], mgr)
    return {"and": left & right, "or": left | right, "xor": left ^ right}[tree[0]]


def eval_tree(tree, assignment):
    if tree[0] == "var":
        return assignment[VARS[tree[1]]]
    if tree[0] == "not":
        return not eval_tree(tree[1], assignment)
    left, right = eval_tree(tree[1], assignment), eval_tree(tree[2], assignment)
    return {
        "and": left and right,
        "or": left or right,
        "xor": left != right,
    }[tree[0]]


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_bdd_semantics_match_direct_evaluation(tree):
    mgr = BddManager(VARS)
    fn = build_fn(tree, mgr)
    for bits in itertools.product([False, True], repeat=len(VARS)):
        assignment = dict(zip(VARS, bits))
        assert fn.evaluate(assignment) == eval_tree(tree, assignment)


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_count_matches_brute_force(tree):
    mgr = BddManager(VARS)
    fn = build_fn(tree, mgr)
    assert fn.count() == brute_count(fn, VARS)


@given(exprs(), st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_shannon_expansion(tree, idx):
    mgr = BddManager(VARS)
    fn = build_fn(tree, mgr)
    v = mgr.var(VARS[idx])
    expansion = (v & fn.restrict({VARS[idx]: True})) | (
        ~v & fn.restrict({VARS[idx]: False})
    )
    assert expansion == fn


@given(exprs(), st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_quantification_bounds(tree, idx):
    mgr = BddManager(VARS)
    fn = build_fn(tree, mgr)
    name = VARS[idx]
    assert fn.forall([name]).is_subset_of(fn)
    assert fn.is_subset_of(fn.exists([name]))


@given(
    exprs(),
    st.sets(st.sampled_from(VARS + ["x6", "x7"])),
)
@settings(max_examples=80, deadline=None)
def test_exists_is_the_or_of_cofactors(tree, names):
    # x6 and x7 sit below every node of the function; other drawn names
    # may lie outside its support.
    mgr = BddManager(VARS + ["x6", "x7"])
    fn = build_fn(tree, mgr)
    expected = fn
    for name in sorted(names):
        expected = expected.restrict({name: False}) | expected.restrict(
            {name: True}
        )
    assert fn.exists(names) == expected


# ------------------------------------------------------- complemented edges
#
# An edge is ``node << 1 | complement`` and every stored node keeps its hi
# edge regular.  Each test below checks the store's invariants and compares
# results against functions rebuilt from truth tables through ``_mk``, so a
# store that lets a complemented hi edge through (two edges for one
# function) fails them.


def assert_canonical(mgr):
    """Every node sits at 2i (hi regular) and 2i + 1 (its complement)."""
    level, lo, hi = mgr._level, mgr._lo, mgr._hi
    assert len(level) % 2 == 0 and mgr.num_nodes == len(level) // 2
    assert len(mgr._unique) == mgr.num_nodes - 1
    for u in range(2, len(level), 2):
        assert hi[u] & 1 == 0, f"node {u >> 1} stores a complemented hi edge"
        assert lo[u] != hi[u]
        assert (level[u + 1], lo[u + 1], hi[u + 1]) == (level[u], lo[u] ^ 1, hi[u] ^ 1)
        assert mgr._unique[(level[u], lo[u], hi[u])] == u


def table_of(fn):
    """Truth table as an int: bit ``m`` is ``fn`` where ``VARS[i]`` = bit i of m."""
    tt = 0
    for m in range(1 << len(VARS)):
        if fn.evaluate({v: bool(m >> i & 1) for i, v in enumerate(VARS)}):
            tt |= 1 << m
    return tt


def from_table(mgr, tt, level=0, base=0):
    """The function of ``tt`` rebuilt bottom-up through ``_mk`` alone."""
    if level == len(VARS):
        return Function(mgr, tt >> base & 1)
    lo = from_table(mgr, tt, level + 1, base).node
    hi = from_table(mgr, tt, level + 1, base | 1 << level).node
    return Function(mgr, mgr._mk(level, lo, hi))


FULL = (1 << (1 << len(VARS))) - 1


def polar(fn, negate):
    return ~fn if negate else fn


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_not_allocates_no_node_and_is_an_involution(tree):
    mgr = BddManager(VARS)
    f = build_fn(tree, mgr)
    nodes = mgr.num_nodes
    g = ~f
    assert mgr.num_nodes == nodes
    assert ~g == f and g != f
    assert g == from_table(mgr, FULL ^ table_of(f))
    assert_canonical(mgr)


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_f_and_not_f_is_false(tree):
    mgr = BddManager(VARS)
    f = build_fn(tree, mgr)
    rebuilt_not_f = from_table(mgr, FULL ^ table_of(f))
    assert (f & ~f).is_false and (f & rebuilt_not_f).is_false
    assert (f | ~f).is_true and (f ^ ~f).is_true
    assert rebuilt_not_f == ~f
    assert_canonical(mgr)


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_dag_size_is_blind_to_polarity(tree):
    mgr = BddManager(VARS)
    f = build_fn(tree, mgr)
    assert f.dag_size() == (~f).dag_size()
    assert from_table(mgr, FULL ^ table_of(f)).dag_size() == f.dag_size()
    assert_canonical(mgr)


@given(
    st.tuples(exprs(), exprs(), exprs()),
    st.tuples(st.booleans(), st.booleans(), st.booleans()),
    st.integers(min_value=0, max_value=len(VARS) - 1),
    st.sets(st.sampled_from(VARS)),
)
@settings(max_examples=80, deadline=None)
def test_ops_match_brute_force_in_both_polarities(trees, negate, k, names):
    mgr = BddManager(VARS)
    f, g, h = (polar(build_fn(t, mgr), n) for t, n in zip(trees, negate))
    tf, tg, th = table_of(f), table_of(g), table_of(h)
    minterms = range(1 << len(VARS))

    assert f.ite(g, h) == from_table(mgr, (tf & tg) | (~tf & th))

    # compose: VARS[k] := g
    composed = 0
    for m in minterms:
        mk = (m & ~(1 << k)) | ((tg >> m & 1) << k)
        composed |= (tf >> mk & 1) << m
    assert f.compose({VARS[k]: g}) == from_table(mgr, composed)

    # exists: OR over every assignment of ``names``
    mask = sum(1 << VARS.index(n) for n in names)
    quantified = 0
    for m in minterms:
        if any(tf >> (m & ~mask | s) & 1 for s in range(1 << len(VARS)) if s & ~mask == 0):
            quantified |= 1 << m
    assert f.exists(names) == from_table(mgr, quantified)

    # image of care set f under (g, h)
    image = 0
    for m in minterms:
        if tf >> m & 1:
            image |= 1 << ((tg >> m & 1) | (th >> m & 1) << 1)
    assert mgr.image_table(f.node, [g.node, h.node]) == image

    # ISOP between lower = f & g and upper = lower | h
    lower = f & g
    upper = lower | h
    cover = isop(lower, upper)
    fn = disjunction(mgr, [cube_function(mgr, cube) for cube in cover])
    assert lower.is_subset_of(fn) and fn.is_subset_of(upper)
    assert disjunction(
        mgr, [cube_function(mgr, cube) for cube in isop_function(f)]
    ) == from_table(mgr, tf)
    assert_canonical(mgr)
