"""The measure pipeline under the sampled laws against the model.

`FinMeasure.from_pairs` merges atoms by sorting, `mu` flattens on ints,
`combine2` checks its two weights itself, `expectation_functional` sums on
ints, `random_measure` and `random_meta` build their measures on integer
24ths, `verify_mult_law` checks each draw on its integer numerators and
builds a MetaMeasure only for a witness, and `char_map` hands out two
prebuilt values.  Each, and `verify_unit_law`, is checked here against the
dict-merge, Fraction model in `reference`.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girycheck.algebra import (
    Rejection,
    _combination_rule,
    build_algebra,
    coseparator_maps,
    user_algebra,
    verify_mult_law,
    verify_unit_law,
)
from girycheck.extvalue import INF, ExtValue
from girycheck.measures import FinMeasure, MetaMeasure, _flatten, expectation_functional, mu
from girycheck.sampling import _cut_numerators, random_measure, random_meta
from girycheck.spaces import (
    P_GRID,
    RINF,
    AffineMap,
    Element,
    builtin_spaces,
    char_map,
    combine2,
    enumerate_ideals,
    ext_element,
)
from generators import EXTRA_SPACES
import reference

REG = builtin_spaces()
SPACES = {**REG, **EXTRA_SPACES}
F = Fraction


def _outcome(build, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return ("ok", build(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return (type(exc), str(exc))


def _same_measure(got, want):
    """Equal atoms and weights, every weight a Fraction, and each atom the
    very object the model kept."""
    assert got == want
    assert all(type(w) is Fraction for _, w in got.atoms)
    assert all(a is b for (a, _), (b, _) in zip(got.atoms, want.atoms))


# ---------------------------------------------------------------------------
# from_pairs: sort-merge against dict-merge

rationals = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
labels = st.sampled_from(("a", "b", "c", "ab"))
# one strategy per payload family; each family's values hash as they
# compare, so a dict merges exactly the atoms that are ==
PAYLOAD_FAMILIES = {
    "rational": rationals,
    "label": labels,
    "tuple": st.tuples(rationals, rationals),
    "ext": st.one_of(st.just(INF), rationals.map(ExtValue)),
    "ext-tuple": st.tuples(st.one_of(st.just(INF), rationals.map(ExtValue)), rationals),
    "branch": st.tuples(labels, rationals),
    "str-or-rational": st.one_of(labels, rationals),
    "str-or-tuple": st.one_of(labels, st.tuples(rationals, rationals)),
}
weights = st.one_of(
    st.just(0), st.integers(0, 2), st.fractions(min_value=0, max_value=2, max_denominator=6)
)
bad_weights = st.one_of(
    st.fractions(min_value=-1, max_value=F(-1, 6), max_denominator=6),
    st.just(-1),
    st.sampled_from((0.5, 0.1)),
)
strays = st.sampled_from((Element("T", F(0)), "x", None))
# inner measures for MetaMeasure.from_pairs, and what may not be one
MEASURES = [
    FinMeasure("S", ((Element("S", F(0)), F(1)),)),
    FinMeasure("S", ((Element("S", F(1)), F(1)),)),
    FinMeasure("S", ((Element("S", F(0)), F(1, 3)), (Element("S", F(1)), F(2, 3)))),
]
meta_strays = st.sampled_from(
    (FinMeasure("T", ((Element("T", F(0)), F(1)),)), Element("S", F(0)), "x")
)


@st.composite
def weighted_pairs(draw, values, atom, stray):
    # few distinct values, so duplicates are common; each pair gets a fresh
    # atom(value), so the kept one can be told apart from its equals
    pool = draw(st.lists(values, min_size=1, max_size=4))
    pairs = [
        (atom(draw(st.sampled_from(pool))), draw(weights))
        for _ in range(draw(st.integers(0, 7)))
    ]
    total = sum(F(w) for _, w in pairs)
    if total and draw(st.booleans()):
        pairs = [(e, F(w) / total) for e, w in pairs]
    fault = draw(st.sampled_from((None, None, "stray", "weight")))
    if fault == "stray":
        pairs.insert(draw(st.integers(0, len(pairs))), (draw(stray), draw(weights)))
    elif fault == "weight":
        e = atom(draw(st.sampled_from(pool)))
        pairs.insert(draw(st.integers(0, len(pairs))), (e, draw(bad_weights)))
    return pairs


@settings(max_examples=400, deadline=None)
@given(family=st.sampled_from(sorted(PAYLOAD_FAMILIES)), data=st.data())
def test_sort_merge_from_pairs_equals_the_dict_merge(family, data):
    fin = weighted_pairs(PAYLOAD_FAMILIES[family], lambda p: Element("S", p), strays)
    meta = weighted_pairs(
        st.sampled_from(MEASURES), lambda P: FinMeasure("S", P.atoms), meta_strays
    )
    for build, model, pairs in (
        (FinMeasure.from_pairs, reference.fin_from_pairs, data.draw(fin)),
        (MetaMeasure.from_pairs, reference.meta_from_pairs, data.draw(meta)),
    ):
        got, want = _outcome(build, "S", pairs), _outcome(model, "S", pairs)
        if want[0] == "ok":
            assert got[0] == "ok", got
            _same_measure(got[1], want[1])
        else:
            assert got == want


def test_sort_merge_keeps_the_first_element_and_adds_in_order():
    first, second, other = Element("S", F(1, 2)), Element("S", F(1, 2)), Element("S", F(0))
    P = FinMeasure.from_pairs("S", [(first, F(1, 3)), (other, F(1, 3)), (second, F(1, 3))])
    assert P.atoms == ((other, F(1, 3)), (first, F(2, 3)))
    assert P.atoms[1][0] is first


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([], "measure with no mass"),
        ([(Element("S", 0), 0)], "measure with no mass"),
        ([(Element("S", 0), F(1, 2)), (Element("S", 0), F(1, 3))], "total mass 5/6, expected 1"),
        ([(Element("S", 0), F(-1, 2))], "negative weight -1/2"),
        ([(Element("T", 0), 1)], "atom Element(space_id='T', payload=0) does not live in S"),
        ([(Element("S", 0), 0.5)], "float weight 0.5; weights must be int or Fraction"),
    ],
)
def test_from_pairs_errors_are_kept(pairs, message):
    assert _outcome(FinMeasure.from_pairs, "S", pairs) == (ValueError, message)
    assert _outcome(reference.fin_from_pairs, "S", pairs) == (ValueError, message)


# ---------------------------------------------------------------------------
# mu: one integer flatten

FLAT_SPACES = ("unit_interval", "box2", "simplex3", "rinf-grid", "N-min", "GxD", "vee")
outer_weights = st.one_of(st.just(0), st.fractions(min_value=0, max_value=1, max_denominator=12))


@settings(max_examples=300, deadline=None)
@given(sid=st.sampled_from(FLAT_SPACES), seed=st.integers(0, 10**6), data=st.data())
def test_integer_flatten_equals_the_fraction_mu(sid, seed, data):
    space = REG[sid]
    rng = random.Random(seed)
    pool = [random_measure(rng, space, 4) for _ in range(3)]
    idx = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=5))
    pairs = [(pool[i], data.draw(outer_weights)) for i in idx]
    total = sum(q for _, q in pairs)
    if total and data.draw(st.booleans()):
        pairs = [(P, q / total) for P, q in pairs]
    # raw pairs, unmerged and with zeros, as verify_mult_law flattens them
    got = _outcome(_flatten, sid, pairs)
    want = _outcome(reference.mu, sid, pairs)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert got[1] == want[1] and all(type(w) is Fraction for _, w in got[1].atoms)
        Q = MetaMeasure.from_pairs(sid, pairs)
        assert mu(Q) == reference.mu(sid, Q.atoms) == want[1]
    else:
        assert got == want


def test_integer_flatten_keeps_the_atom_checks():
    # FinMeasure's own constructor skips from_pairs' checks; the flatten
    # still refuses what from_pairs would
    x = Element("S", F(0))
    for P, q in [
        (FinMeasure("S", ((Element("T", F(0)), F(1)),)), F(1)),
        (FinMeasure("S", (("x", F(1)),)), F(1)),
        (FinMeasure("S", ((x, F(-1)), (x, F(2)))), F(1)),
        (FinMeasure("S", ((x, F(1)),)), F(-1)),
        (FinMeasure("S", ((x, F(1)),)), F(1, 2)),
        (FinMeasure("S", ((x, F(1)),)), F(0)),
    ]:
        want = _outcome(reference.mu, "S", [(P, q)])
        assert want[0] is ValueError
        assert _outcome(_flatten, "S", [(P, q)]) == want


# ---------------------------------------------------------------------------
# combine2


COMBINE2_PS = (0, 1, F(0), F(1), *P_GRID, F(-1, 3), -1, F(4, 3), 2, 0.5, "1/2")


@pytest.mark.parametrize("sid", sorted(REG))
def test_combine2_equals_combine_on_both_weights(sid):
    space = REG[sid]
    foreign = REG["two" if sid != "two" else "point"].landmark_elements()[0]
    rng = random.Random(f"combine2/{sid}")
    points = space.landmark_elements() + [space.sample_element(rng) for _ in range(6)]
    cases = [(x, y) for x in points[:5] for y in points[-5:]]
    for x, y in cases + [(foreign, points[0]), (points[0], foreign)]:
        for p in COMBINE2_PS:
            got = _outcome(combine2, space, p, x, y)
            want = _outcome(reference.combine2, space, p, x, y)
            assert got == want, (sid, p, x, y)
    for x, y in cases:
        # a zero weight drops its point: the other comes back as it is
        assert combine2(space, 1, x, y) is x and combine2(space, 0, x, y) is y


def test_combine2_error_messages():
    unit = REG["unit_interval"]
    x, y = unit.element(0), unit.element(1)
    for p, msg in [
        (F(3, 2), "negative weight"),
        (F(-1, 2), "negative weight"),
        (0.5, "float weight 0.5; weights must be int or Fraction"),
    ]:
        with pytest.raises(ValueError, match=f"^{msg}$"):
            combine2(unit, p, x, y)
    with pytest.raises(ValueError, match="^element of box2 combined in unit_interval$"):
        combine2(unit, F(3, 2), x, REG["box2"].element((0, 0)))


# ---------------------------------------------------------------------------
# expectations on ints


def _raw_values():
    """A map whose values are plain rationals and inf, not Elements."""
    rank = {}

    def fn(e):
        k = rank.setdefault(e, len(rank))
        return None if k % 5 == 4 else F(k, 3)

    return fn


@pytest.mark.parametrize("sid", sorted(REG))
def test_expectation_kernel_equals_the_ext_sum(sid):
    space = REG[sid]
    if isinstance(build_algebra(space), Rejection):
        maps = []
    else:
        maps = coseparator_maps(space)
    maps = list(maps) + [_raw_values()]
    rng = random.Random(f"expectation/{sid}")
    for _ in range(60):
        P = random_measure(rng, space, 5)
        for m in maps:
            got = expectation_functional(P, m)
            want = reference.expectation(P, m)
            assert got == want and got.is_inf == want.is_inf
            assert got.is_inf or type(got.value) is Fraction


def test_expectation_of_inf_is_inf_and_errors_pass_through():
    rinf = REG["rinf-grid"]
    P = FinMeasure.from_pairs(rinf.id, [(rinf.element(INF), F(1, 8)), (rinf.element(2), F(7, 8))])
    coord = AffineMap(rinf, RINF, lambda e: ext_element(e.payload), name="coord")
    assert expectation_functional(P, coord) is INF
    for bad in (lambda e: 0.5, lambda e: "x"):
        assert _outcome(expectation_functional, P, bad) == _outcome(reference.expectation, P, bad)


# ---------------------------------------------------------------------------
# the multiplication law on integer numerators, without a canonical
# MetaMeasure per draw


@pytest.mark.parametrize("sid", sorted(REG))
def test_random_meta_pairs_draw_like_random_meta(sid):
    space = REG[sid]
    a, b = random.Random(f"meta/{sid}"), random.Random(f"meta/{sid}")
    for _ in range(30):
        assert random_meta(a, space, 5, 5) == reference.random_meta(b, space, 5, 5)
    assert a.getstate() == b.getstate()


@pytest.mark.parametrize("seed", [13, 2026])
@pytest.mark.parametrize("sid", sorted(REG) + ["six-max", "six-min"])
def test_mult_law_equals_the_reference(sid, seed):
    space = SPACES[sid]
    h = build_algebra(space, rng=random.Random(0))
    if isinstance(h, Rejection):
        return
    a, b = random.Random(seed), random.Random(seed)
    assert verify_mult_law(h, 60, a).to_json() == reference.mult_law(h, 60, b)
    assert a.getstate() == b.getstate()


def test_mult_law_equals_the_reference_where_wye_fails():
    # the built operator on wye fails the law at this stream and budget
    # (ROADMAP item 2), so a real witness goes through both paths
    h = build_algebra(SPACES["wye"], rng=random.Random(0))
    a, b = random.Random(2), random.Random(2)
    want = reference.mult_law(h, 3000, b)
    assert want["status"] == "fail"
    assert verify_mult_law(h, 3000, a).to_json() == want
    assert a.getstate() == b.getstate()


def _recording(h):
    """An operator with h's own rule that keeps every measure it is fed."""
    fed = []

    def rule(P):
        fed.append(P)
        return h.rule(P)

    return user_algebra(h.space, rule), fed


@pytest.mark.parametrize("sid", sorted(REG) + list(EXTRA_SPACES))
def test_mult_law_feeds_h_the_reference_measures(sid):
    # the same measures, with the same weights, reach h in the same order:
    # outer zeros dropped, the left side merged over 576ths and the right
    # side merged over 24ths
    space = SPACES[sid]
    h = build_algebra(space, rng=random.Random(0))
    if isinstance(h, Rejection):
        return
    (got_h, got), (want_h, want) = _recording(h), _recording(h)
    a, b = random.Random(f"fed/{sid}"), random.Random(f"fed/{sid}")
    assert verify_mult_law(got_h, 80, a).to_json() == reference.mult_law(want_h, 80, b)
    assert got == want
    assert all(type(w) is Fraction and w > 0 for P in got for _, w in P.atoms)
    assert a.getstate() == b.getstate()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 2(a): wye keeps a glued point on the losing arm",
)
def test_mult_law_holds_on_the_wye_meta_measure():
    # ROADMAP item 2's Q: today h(mu Q) is B@0 but h(G h Q) is B@1/8
    wye = SPACES["wye"]
    h = build_algebra(wye, rng=random.Random(0))
    point = wye.parse_element
    P1 = FinMeasure.from_pairs(wye.id, [(point("A@15/32"), 1)])
    P2 = FinMeasure.from_pairs(wye.id, [(point("C@3/4"), F(1, 3)), (point("C@3/8"), F(2, 3))])
    Q = MetaMeasure.from_pairs(wye.id, [(P1, F(1, 4)), (P2, F(3, 4))])
    inner_applied = FinMeasure.from_pairs(wye.id, [(h(P), q) for P, q in Q.atoms])
    assert h(mu(Q)) == h(inner_applied)


def _heaviest_atom(P):
    """Not an algebra: the first atom of largest weight."""
    return max(P.atoms, key=lambda a: a[1])[0]


@pytest.mark.parametrize("sid", ["unit_interval", "box2", "N-min", "vee"])
@pytest.mark.parametrize("seed", [13, 2026])
def test_mult_law_witness_equals_the_reference_on_a_broken_operator(sid, seed):
    h = user_algebra(REG[sid], _heaviest_atom)
    a, b = random.Random(seed), random.Random(seed)
    want = reference.mult_law(h, 300, b)
    assert want["status"] == "fail"
    assert verify_mult_law(h, 300, a).to_json() == want
    assert a.getstate() == b.getstate()


def test_unit_law_equals_the_model():
    # the carrier's own rule passes; a constant operator fails at a point
    # other than its value
    for space in SPACES.values():
        last = space.landmark_elements()[-1]
        built, constant = _combination_rule(space), lambda P: last
        for h in (user_algebra(space, built), user_algebra(space, constant)):
            a, b = random.Random(11), random.Random(11)
            assert verify_unit_law(h, 50, a).to_json() == reference.unit_law(h, 50, b), space.id
            assert a.getstate() == b.getstate()


# ---------------------------------------------------------------------------
# random_measure on integer 24ths, and char_map's prebuilt values


@pytest.mark.parametrize("sid", sorted(REG) + list(EXTRA_SPACES))
def test_random_measure_draws_like_the_reference(sid):
    space = SPACES[sid]
    for max_atoms in range(1, 7):
        for seed in (0, 1, 2026):
            a, b = random.Random(seed), random.Random(seed)
            for _ in range(25):
                got = random_measure(a, space, max_atoms)
                assert got == reference.random_measure(b, space, max_atoms)
                assert a.getstate() == b.getstate()
                assert all(type(w) is Fraction for _, w in got.atoms)
                assert all(space.element(e.payload) == e for e, _ in got.atoms)


def test_random_weights_draw_like_the_reference():
    # random_measure's weights: n numerators over 24, the gaps between the
    # model's n - 1 sorted cuts, drawn with the same rng calls.
    a, b = random.Random(3), random.Random(3)
    for n in list(range(1, 9)) * 20:
        got = _cut_numerators(a, n)
        assert len(got) == n and sum(got) == 24 and min(got) >= 0
        assert [Fraction(k, 24) for k in got] == reference.cut_weights(b, n)
        assert a.getstate() == b.getstate()


@pytest.mark.parametrize(
    "v", [INF, ExtValue(3), ExtValue(F(-1, 2)), 0, 7, -5, F(1, 3), F(-7, 2), 0.1, "x"]
)
def test_ext_element_equals_the_reference(v):
    got, want = _outcome(ext_element, v), _outcome(reference.ext_element, v)
    assert got == want
    if got[0] == "ok":
        assert type(got[1].payload) is ExtValue
        assert hash(got[1]) == hash(want[1])


@pytest.mark.parametrize("sid", sorted(s for s in REG if REG[s].is_finite))
def test_char_map_values_equal_the_reference(sid):
    space = REG[sid]
    for ideal in enumerate_ideals(space):
        m = char_map(space, ideal)
        for e in space.enumerate_elements():
            want = reference.ext_element(INF if e in ideal.members else 0)
            assert m(e) == want
            assert type(m(e).payload) is ExtValue
