"""Tests for cover decomposition, gate building, and technology mapping."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchcircuits import comparator2
from repro.benchcircuits.generators import make_benchmark
from repro.errors import SynthesisError
from repro.logic import Cover, factor, parse_expr
from repro.lru import LRUCache
from repro.netlist import Circuit, lsi10k_like_library, unit_library
from repro.sim import exhaustive_patterns, simulate
from repro.sta.timing import analyze
from repro.synth import (
    GateBuilder,
    circuit_to_technet,
    collapse,
    decompose_cover,
    map_technet,
    remove_buffers,
)
from repro.synth import mapping
from repro.synth.decompose import decompose_expr
from repro.synth.mapping import trial_cost
from tests.conftest import random_dag_circuit

LIB = unit_library()
LSI = lsi10k_like_library()
NAMES = ("a", "b", "c", "d")


def build_and_check(cover, invert=False):
    circuit = Circuit("t", inputs=cover.names)
    builder = GateBuilder(circuit, LIB, "k_")
    net = decompose_cover(cover, builder, invert_output=invert)
    circuit.add_output(net) if not circuit.is_input(net) else None
    for bits in itertools.product([False, True], repeat=len(cover.names)):
        asgn = dict(zip(cover.names, bits))
        vals = simulate(circuit, asgn)
        expected = cover.evaluate(asgn) ^ invert
        assert vals[net] == expected, (str(cover), invert, asgn)
    return circuit, net


@pytest.mark.parametrize(
    "rows", [["11--"], ["1---", "-1--"], ["1-1-", "-01-", "--01"], []]
)
@pytest.mark.parametrize("invert", [False, True])
def test_decompose_cover_correct(rows, invert):
    build_and_check(Cover.from_strings(NAMES, rows), invert)


def test_inverters_are_shared():
    cover = Cover.from_strings(NAMES, ["0-0-", "0--0"])
    circuit, _ = build_and_check(cover)
    inv_count = sum(1 for g in circuit.gates.values() if g.cell.name == "INV")
    assert inv_count == 3  # ~a, ~c, ~d: the repeated ~a is shared


def test_strashing_dedupes_identical_gates():
    circuit = Circuit("t", inputs=("a", "b"))
    builder = GateBuilder(circuit, LIB, "k_")
    n1 = builder.and_tree(["a", "b"])
    n2 = builder.and_tree(["b", "a"])  # commutative normalization
    assert n1 == n2
    assert circuit.num_gates == 1


def test_decompose_expr_negation_pushdown():
    """An inverted AND should become an OR of negated leaves (De Morgan)."""
    circuit = Circuit("t", inputs=("a", "b", "c"))
    builder = GateBuilder(circuit, LIB, "k_")
    expr = parse_expr("a & b & c")
    net = decompose_expr(expr, builder, negate=True)
    cells = [g.cell.name for g in circuit.gates.values()]
    assert "OR2" in cells and "AND2" not in cells
    for bits in itertools.product([False, True], repeat=3):
        asgn = dict(zip(("a", "b", "c"), bits))
        assert simulate(circuit, asgn)[net] == (not all(bits))


def test_decompose_expr_xor():
    circuit = Circuit("t", inputs=("a", "b"))
    builder = GateBuilder(circuit, LIB, "k_")
    net = decompose_expr(parse_expr("a ^ b"), builder)
    for bits in itertools.product([False, True], repeat=2):
        asgn = dict(zip(("a", "b"), bits))
        assert simulate(circuit, asgn)[net] == (bits[0] != bits[1])


def test_builder_constants_and_mux():
    circuit = Circuit("t", inputs=("s", "x", "y"))
    builder = GateBuilder(circuit, LIB, "k_")
    one = builder.constant(True)
    mux = builder.mux("s", "x", "y")
    vals = simulate(circuit, {"s": True, "x": False, "y": True})
    assert vals[one] is True
    assert vals[mux] is True
    vals = simulate(circuit, {"s": False, "x": False, "y": True})
    assert vals[mux] is False


def test_empty_tree_rejected():
    builder = GateBuilder(Circuit("t", inputs=("a",)), LIB, "k_")
    with pytest.raises(SynthesisError):
        builder.and_tree([])


def test_claim_as_refuses_read_nets():
    circuit = Circuit("t", inputs=("a", "b"))
    builder = GateBuilder(circuit, LIB, "k_")
    inner = builder.and_tree(["a", "b"])
    outer = builder.or_tree([inner, "a"])
    assert not builder.claim_as(inner, "named")  # inner is read by outer
    assert builder.claim_as(outer, "named")
    assert circuit.has_net("named")


def test_map_technet_equivalence():
    for seed in range(6):
        c = random_dag_circuit(seed, num_inputs=5, num_gates=14, num_outputs=2)
        tn = collapse(circuit_to_technet(c), max_support=8)
        mapped = remove_buffers(map_technet(tn, LIB))
        for pat in exhaustive_patterns(c.inputs):
            ref = simulate(c, pat)
            got = simulate(mapped, pat)
            for y in c.outputs:
                assert got[y] == ref[y], (seed, y)


def test_map_technet_xor_pattern_matched():
    lib = lsi10k_like_library()
    c = Circuit("t", inputs=("a", "b"), outputs=("g",))
    c.add_gate("g", lib.get("XOR2"), ("a", "b"))
    mapped = map_technet(circuit_to_technet(c), lib)
    assert mapped.gate("g").cell.name == "XOR2"


def test_remove_buffers_keeps_output_names():
    c = comparator_with_buffer()
    out = remove_buffers(c)
    assert set(out.outputs) == set(c.outputs)
    for pat in exhaustive_patterns(c.inputs):
        assert simulate(out, pat)["y"] == simulate(c, pat)["y"]
    assert out.num_gates < c.num_gates


def comparator_with_buffer():
    from repro.benchcircuits import comparator2

    c = comparator2().copy()
    gate = c.gate("y")
    c.remove_gate("y")
    c.add_gate("pre", LIB.get("OR2"), gate.fanins)
    c.add_gate("mid", LIB.get("BUF"), ("pre",))
    c.add_gate("y", LIB.get("BUF"), ("mid",))
    c.validate()
    return c


def test_trial_cost_prefers_cheap_polarity():
    # An AND's off-set needs two cubes; on-set needs one: on-set is cheaper.
    on = Cover.from_strings(("a", "b"), ["11"])
    off = Cover.from_strings(("a", "b"), ["0-", "-0"])
    assert trial_cost(on, LIB, inverted=False) <= trial_cost(off, LIB, inverted=True)


def test_trial_cost_cache_does_not_alias_libraries(monkeypatch):
    # Force every library to share one id, as a freed-and-reused id would.
    monkeypatch.setattr(mapping, "id", lambda _: 0, raising=False)
    monkeypatch.setattr(mapping, "_trial_cache", LRUCache(mapping.TRIAL_CACHE_SIZE))
    cover = Cover.from_strings(("a", "b", "c"), ["11-", "--1"])
    lsi, unit = lsi10k_like_library(), unit_library()
    lsi_cost = trial_cost(cover, lsi)
    unit_cost = trial_cost(cover, unit)
    mapping._trial_cache.clear()
    assert unit_cost == trial_cost(cover, unit)
    assert lsi_cost == trial_cost(cover, lsi)
    assert lsi_cost != unit_cost


def test_trial_cost_cache_is_bounded(monkeypatch):
    assert isinstance(mapping._trial_cache, LRUCache)
    assert mapping._trial_cache.size == mapping.TRIAL_CACHE_SIZE
    monkeypatch.setattr(mapping, "_trial_cache", LRUCache(2))
    covers = [Cover.from_strings(("a", "b"), [row]) for row in ("11", "10", "01")]
    costs = [trial_cost(cover, LIB) for cover in covers]
    assert len(mapping._trial_cache) == 2
    # The evicted cover costs the same when it is computed again.
    assert trial_cost(covers[0], LIB) == costs[0]


def sta_trial_cost(cover, library, inverted=False):
    """Reference cost: decompose into a scratch circuit and run full STA."""
    scratch = Circuit("scratch", inputs=cover.names)
    builder = GateBuilder(scratch, library, "t_")
    net = decompose_cover(cover, builder, invert_output=inverted)
    if scratch.num_gates == 0:
        return (0, 0.0)
    return (analyze(scratch, target=0).arrival.get(net, 0), scratch.area())


#: Input names that collide with the fresh names a "t_" builder generates.
NAME_POOL = ("a", "b", "c", "d", "e", "t_and_0", "t_inv_1", "t_or_2", "t_inv_0")


def random_covers(seed, count):
    """Seeded random covers, plus the hand-picked edge cases."""
    yield Cover(("a", "b"))  # empty cover: constant 0
    yield Cover.from_strings(("a",), ["1"])
    yield Cover.from_strings(("a",), ["0"])
    yield Cover.from_strings(("a", "b"), ["--"])  # universal cube
    yield Cover.from_strings(("a", "b"), ["1-", "1-"])  # universal quotient
    yield Cover.from_strings(("t_and_0", "t_inv_1"), ["10", "01"])
    rng = random.Random(seed)
    for _ in range(count):
        names = rng.sample(NAME_POOL, rng.randint(1, 6))
        rows = [
            "".join(rng.choice("01--") for _ in names)
            for _ in range(rng.randint(0, 6))
        ]
        yield Cover.from_strings(names, rows)


@pytest.mark.parametrize("library", [unit_library(), lsi10k_like_library()],
                         ids=["unit", "lsi10k_like"])
@pytest.mark.parametrize("inverted", [False, True])
def test_trial_cost_equals_sta_on_scratch_circuit(library, inverted, monkeypatch):
    monkeypatch.setattr(mapping, "_trial_cache", LRUCache(mapping.TRIAL_CACHE_SIZE))
    for cover in random_covers(seed=7, count=2000):
        mapping._trial_cache.clear()
        expected = sta_trial_cost(cover, library, inverted)
        assert trial_cost(cover, library, inverted) == expected, (
            cover.names, [str(c) for c in cover.cubes], inverted
        )


def test_cost_only_builder_names_match_circuit_builder():
    cover = Cover.from_strings(
        ("t_and_0", "t_inv_1", "c"), ["0-1", "-01", "11-"]
    )
    lib = lsi10k_like_library()
    circuit = Circuit("scratch", inputs=cover.names)
    built = GateBuilder(circuit, lib, "t_")
    costed = GateBuilder(None, lib, "t_", inputs=cover.names)
    assert decompose_cover(cover, built) == decompose_cover(cover, costed)
    assert list(costed.arrival) == list(circuit.gates)
    assert costed.area == circuit.area()
    assert costed.arrival == {
        net: t for net, t in analyze(circuit, target=0).arrival.items()
        if net in circuit.gates
    }


def test_builder_tracks_claimed_and_buffered_nets():
    builder = GateBuilder(None, LIB, "k_", inputs=("a", "b"))
    inner = builder.and_tree(["a", "b"])
    assert not builder.claim_as(inner, "a")  # an input name is taken
    assert builder.claim_as(inner, "named")
    builder.buffer_as("named", "buffered")
    assert inner not in builder.arrival
    assert builder.arrival == {"named": 2, "buffered": 3}
    assert builder.area == LIB.get("AND2").area + LIB.get("BUF").area


def test_factor_universal_quotient_is_constant_true():
    cover = Cover.from_strings(("a", "b"), ["1-", "1-"])
    expr = factor(cover)
    for bits in itertools.product([False, True], repeat=2):
        asgn = dict(zip(cover.names, bits))
        assert expr.evaluate(asgn) == cover.evaluate(asgn)
    for invert in (False, True):
        build_and_check(cover, invert)


def technet_rows(network):
    return (
        network.inputs,
        network.outputs,
        [
            (n.name, n.fanins, n.on_cover, n.off_cover)
            for n in network.nodes.values()
        ],
    )


def circuit_rows(circuit):
    return (
        circuit.inputs,
        circuit.outputs,
        [(g.name, g.cell.name, g.fanins) for g in circuit.gates.values()],
    )


@pytest.mark.parametrize(
    "make_circuit",
    [
        comparator2,
        lambda: make_benchmark("cmb"),
        lambda: random_dag_circuit(
            1, num_inputs=7, num_gates=30, library=lsi10k_like_library()
        ),
        lambda: random_dag_circuit(
            4, num_inputs=8, num_gates=40, library=lsi10k_like_library(),
            num_outputs=3,
        ),
    ],
    ids=["comparator2", "cmb", "rand1", "rand4"],
)
def test_collapse_and_map_identical_under_sta_oracle(make_circuit, monkeypatch):
    lib = lsi10k_like_library()
    circuit = make_circuit()
    monkeypatch.setattr(mapping, "_trial_cache", LRUCache(mapping.TRIAL_CACHE_SIZE))

    def run():
        collapsed = collapse(circuit_to_technet(circuit), library=lib)
        return collapsed, map_technet(collapsed, lib)

    fast_net, fast_mapped = run()
    monkeypatch.setattr(mapping, "trial_cost", sta_trial_cost)
    oracle_net, oracle_mapped = run()
    assert technet_rows(fast_net) == technet_rows(oracle_net)
    assert circuit_rows(fast_mapped) == circuit_rows(oracle_mapped)


#: Names on both sides of the builder prefix "t_", none starting with it:
#: "t" and "t0" sort before "t_", "ta" after it.
PLAIN_NAMES = ("a", "b", "k", "n3", "s", "t", "t0", "ta", "u", "x1", "z")


@st.composite
def covers_and_renamings(draw):
    """A cover over plain names and a renaming keeping order and prefix flag."""
    names = draw(st.lists(st.sampled_from(PLAIN_NAMES), min_size=1,
                          max_size=6, unique=True))
    rows = draw(st.lists(st.text(alphabet="01--", min_size=len(names),
                                 max_size=len(names)), max_size=6))
    before = sorted(n for n in names if n < mapping.TRIAL_PREFIX)
    after = sorted(n for n in names if n > mapping.TRIAL_PREFIX)
    # Each side gets fresh names in its own range, in the same order.
    rename = {n: f"a{i:02d}" for i, n in enumerate(before)}
    rename.update({n: f"w{i:02d}" for i, n in enumerate(after)})
    cover = Cover.from_strings(names, rows)
    return cover, Cover(tuple(rename[n] for n in names), cover.cubes)


@settings(max_examples=150, deadline=None)
@given(covers_and_renamings(), st.booleans(), st.sampled_from([LIB, LSI]))
def test_trial_cost_shape_key_is_exact_under_renaming(case, inverted, library):
    cover, renamed = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mapping, "_trial_cache", LRUCache(mapping.TRIAL_CACHE_SIZE))
        warm = trial_cost(cover, library, inverted)
        assert trial_cost(renamed, library, inverted) == warm
    assert warm == sta_trial_cost(renamed, library, inverted)


def test_trial_cost_key_tells_inputs_before_and_after_the_prefix(monkeypatch):
    # AND2(a, b) is a fresh "t_" net; the second AND2 sorts "c" before it
    # but "z" after it, so the slower pin (9 vs 8) goes to different nets.
    monkeypatch.setattr(mapping, "_trial_cache", LRUCache(mapping.TRIAL_CACHE_SIZE))
    before = Cover.from_strings(("a", "b", "c"), ["111"])
    after = Cover.from_strings(("a", "b", "z"), ["111"])
    assert sta_trial_cost(before, LSI) != sta_trial_cost(after, LSI)
    assert trial_cost(before, LSI) == sta_trial_cost(before, LSI)
    assert trial_cost(after, LSI) == sta_trial_cost(after, LSI)


def test_trial_cost_keeps_named_key_for_prefixed_inputs(monkeypatch):
    # An input named like a fresh net makes the builder skip that name,
    # so it costs differently from a same-shaped cover over plain names.
    monkeypatch.setattr(mapping, "_trial_cache", LRUCache(mapping.TRIAL_CACHE_SIZE))
    plain = Cover.from_strings(("b", "c", "u"), ["111"])
    prefixed = Cover.from_strings(("b", "c", "t_and_0"), ["111"])
    assert sta_trial_cost(plain, LSI) != sta_trial_cost(prefixed, LSI)
    assert trial_cost(plain, LSI) == sta_trial_cost(plain, LSI)
    assert trial_cost(prefixed, LSI) == sta_trial_cost(prefixed, LSI)
    assert (LSI, prefixed, False) in mapping._trial_cache
