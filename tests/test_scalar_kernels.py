"""The integer kernels of the scalar layer against the model.

The carriers' weighted sums and draws, the weight checks of `combine`, the
weight cuts of the draws and the canonical atom order of
`FinMeasure.from_pairs` run on plain ints.  Each is checked here against
the Fraction model in `reference`, and the cached Element hash against the
dataclass hash it stands for.
"""

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girycheck.extvalue import INF, ExtValue
from girycheck.measures import FinMeasure, _sort_atoms, _sorts_on_payload
from girycheck.sampling import _cut_numerators
from girycheck.spaces import (
    Box,
    Element,
    ExtendedLine,
    Interval,
    Simplex,
    box_space,
    builtin_spaces,
    combine,
    extended_line_space,
    interval_space,
    simplex_space,
)
import reference

REG = builtin_spaces()


# ---------------------------------------------------------------------------
# strategies: ints and negative coordinates, zero weights, inf

rationals = st.one_of(
    st.integers(-40, 40), st.fractions(min_value=-9, max_value=9, max_denominator=96)
)
weights = st.one_of(
    st.just(0), st.integers(0, 3), st.fractions(min_value=0, max_value=2, max_denominator=48)
)
ext_values = st.one_of(st.just(INF), rationals.map(ExtValue))


@st.composite
def weighted_points(draw, point):
    n = draw(st.integers(1, 6))
    return draw(st.lists(weights, min_size=n, max_size=n)), draw(
        st.lists(point, min_size=n, max_size=n)
    )


def _is_fraction(x):
    return all(type(c) is Fraction for c in (x if isinstance(x, tuple) else (x,)))


@settings(max_examples=300, deadline=None)
@given(case=weighted_points(rationals))
def test_interval_combine_equals_the_fraction_sum(case):
    carrier = Interval(Fraction(-9), Fraction(9))
    got = carrier.combine(*case)
    assert got == reference.combine_payloads(carrier, *case)
    assert type(got) is Fraction


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 4), data=st.data())
def test_box_and_simplex_combine_equal_the_fraction_sums(dim, data):
    ws, ps = data.draw(weighted_points(st.lists(rationals, min_size=dim, max_size=dim).map(tuple)))
    box = Box(((Fraction(-9), Fraction(9)),) * dim)
    simplex = Simplex(dim)
    got = box.combine(ws, ps)
    assert got == reference.combine_payloads(box, ws, ps)
    assert simplex.combine(ws, ps) == reference.combine_payloads(simplex, ws, ps)
    assert _is_fraction(got) and len(got) == dim


@settings(max_examples=300, deadline=None)
@given(case=weighted_points(ext_values))
def test_extended_line_combine_equals_the_fraction_sum(case):
    carrier = ExtendedLine(None, None)
    got = carrier.combine(*case)
    assert got == reference.combine_payloads(carrier, *case)
    assert got.is_inf or type(got.value) is Fraction


def test_combine_keeps_coordinate_order():
    box = Box(((Fraction(0), Fraction(9)),) * 3)
    ws = (Fraction(1, 3), Fraction(2, 3))
    ps = ((1, 2, 3), (Fraction(1, 2), 5, -1))
    assert box.combine(ws, ps) == (Fraction(2, 3), 4, Fraction(1, 3))


@settings(max_examples=300, deadline=None)
@given(
    ws=st.lists(
        st.one_of(weights, st.fractions(min_value=-1, max_value=1, max_denominator=12)),
        min_size=1,
        max_size=5,
    ),
    data=st.data(),
)
def test_combine_validates_and_drops_like_the_fraction_code(ws, data):
    # a small share of the weight lists sums to 1; steer half of them there
    if data.draw(st.booleans()) and ws:
        ws = ws[:-1] + [1 - sum(Fraction(w) for w in ws[:-1])]
    space = REG["box2"]
    xs = [
        space.element(p)
        for p in data.draw(
            st.lists(
                st.tuples(st.fractions(0, 1, max_denominator=16), st.fractions(0, 1, max_denominator=16)),
                min_size=len(ws),
                max_size=len(ws),
            )
        )
    ]
    try:
        want = reference.combine(space, ws, xs)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            combine(space, ws, xs)
        assert str(got.value) == str(exc)
    else:
        assert combine(space, ws, xs) == want


def test_combine_error_messages_are_kept():
    x, y = REG["unit_interval"].element(0), REG["unit_interval"].element(1)
    for ws, msg in [
        ((Fraction(-1, 2), Fraction(3, 2)), "negative weight"),
        ((Fraction(1, 2), Fraction(1, 3)), "weights sum to 5/6, not 1"),
        ((1, 1), "weights sum to 2, not 1"),
    ]:
        with pytest.raises(ValueError, match=f"^{msg}$"):
            combine(REG["unit_interval"], ws, (x, y))


# ---------------------------------------------------------------------------
# draws: same values, same rng calls


bounds = st.tuples(rationals, rationals).map(sorted).map(tuple)


@settings(max_examples=200, deadline=None)
@given(lo_hi=bounds, seed=st.integers(0, 10**6))
def test_interval_draws_equal_the_fraction_draws(lo_hi, seed):
    carrier = Interval(*lo_hi)
    a, b = random.Random(seed), random.Random(seed)
    for _ in range(5):
        got = carrier.sample(a)
        assert got == reference.sample(carrier, b) and type(got) is Fraction
    assert a.getstate() == b.getstate()


@settings(max_examples=200, deadline=None)
@given(box_bounds=st.lists(bounds, min_size=1, max_size=3), n=st.integers(1, 5), seed=st.integers(0, 10**6))
def test_box_and_simplex_draws_equal_the_fraction_draws(box_bounds, n, seed):
    for carrier in (Box(tuple(box_bounds)), Simplex(n)):
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(5):
            got = carrier.sample(a)
            assert got == reference.sample(carrier, b) and _is_fraction(got)
        assert a.getstate() == b.getstate()


def test_random_weights_equal_the_fraction_weights():
    a, b = random.Random(3), random.Random(3)
    for n in list(range(1, 9)) * 30:
        got = _cut_numerators(a, n)
        assert all(type(k) is int for k in got)
        assert [Fraction(k, 24) for k in got] == reference.cut_weights(b, n)
        assert a.getstate() == b.getstate()


@pytest.mark.parametrize(
    "space",
    [
        interval_space("I", -3, Fraction(5, 2)),
        box_space("B", [(-1, 2), (Fraction(1, 3), 4)]),
        simplex_space("S", 4),
        extended_line_space("L", -2, None),
    ],
    ids=lambda s: s.id,
)
def test_sampled_elements_are_members(space):
    rng = random.Random(8)
    for _ in range(200):
        e = space.sample_element(rng)
        assert space.carrier.contains(e.payload), e


# ---------------------------------------------------------------------------
# canonical atom order without keys

labels = st.text(alphabet="abcxyzAB0", min_size=1, max_size=3)
payload_families = [
    st.fractions(min_value=-5, max_value=5, max_denominator=16),
    st.integers(-10, 10),
    rationals,
    labels,
    st.tuples(rationals, rationals),
    st.lists(rationals, min_size=1, max_size=3).map(tuple),
    ext_values,
    st.tuples(ext_values, rationals),
]
mixed_payloads = st.one_of(
    rationals,
    labels,
    ext_values,
    st.tuples(rationals, rationals),
    st.tuples(labels, rationals),
    st.tuples(st.tuples(rationals, rationals), st.tuples(rationals, rationals)),
)


def _canonical(merged):
    return sorted(merged.items(), key=lambda atom: reference.payload_key(atom[0].payload))


def _merged(payloads):
    merged = {}
    for k, p in enumerate(payloads):
        merged.setdefault(Element("S", p), Fraction(1, k + 2))
    return merged


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(payload_families), data=st.data())
def test_keyfree_sort_equals_the_keyed_sort_on_one_family(family, data):
    payloads = data.draw(st.lists(family, min_size=1, max_size=10))
    merged = _merged(payloads)
    items = list(merged.items())
    _sort_atoms(items)
    assert items == _canonical(merged)


@settings(max_examples=300, deadline=None)
@given(payloads=st.lists(mixed_payloads, min_size=1, max_size=10))
def test_keyfree_sort_equals_the_keyed_sort_on_mixed_payloads(payloads):
    merged = _merged(payloads)
    items = list(merged.items())
    _sort_atoms(items)
    assert items == _canonical(merged)


def test_homogeneous_payloads_sort_without_keys():
    F = Fraction
    assert _sorts_on_payload([F(1, 2), F(-3)])
    assert _sorts_on_payload([1, F(1, 2), 0])
    assert _sorts_on_payload(["b", "a"])
    assert _sorts_on_payload([(F(1), 2), (F(0), F(1, 3))])
    assert not _sorts_on_payload([F(1), "a"])
    assert not _sorts_on_payload([ExtValue(1), ExtValue(2)])
    assert not _sorts_on_payload([(F(1), "a")])
    assert not _sorts_on_payload([True, False])


def test_from_pairs_orders_tuples_lexicographically():
    F = Fraction
    box = REG["box2"]
    P = FinMeasure.from_pairs(
        "box2",
        [(box.element(p), F(1, 4)) for p in [(1, 0), (0, 1), (F(1, 2), 1), (0, F(1, 2))]],
    )
    assert [e.payload for e in P.support()] == [(0, F(1, 2)), (0, 1), (F(1, 2), 1), (1, 0)]


# ---------------------------------------------------------------------------
# the cached Element hash


@settings(max_examples=200, deadline=None)
@given(payload=mixed_payloads)
def test_element_hash_is_the_dataclass_hash(payload):
    e = Element("S", payload)
    assert hash(e) == hash(("S", payload)) == hash((e.space_id, e.payload))
    fresh = Element("S", payload)
    assert fresh._hash is None and e._hash is not None
    assert fresh == e and hash(fresh) == hash(e)
    assert Element("T", payload) != e


def test_elements_carry_no_instance_dict():
    e = REG["box2"].element((Fraction(1, 3), 0))
    hash(e)
    assert not hasattr(e, "__dict__")
    assert repr(e) == "Element(space_id='box2', payload=(Fraction(1, 3), Fraction(0, 1)))"


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))])
def test_copies_recompute_the_hash(clone):
    e = Element("two", "1")
    hash(e)
    c = clone(e)
    assert c._hash is None
    assert c == e and hash(c) == hash(e)


_PICKLE_DICT = """
import pickle, sys
from girycheck.spaces import Element
sys.stdout.write(pickle.dumps({Element("two", s): s for s in ("0", "1", "ab", "xyz")}).hex())
"""

_LOOKUP_DICT = """
import pickle, sys
from girycheck.spaces import Element
d = pickle.loads(bytes.fromhex(sys.stdin.read()))
assert all(d[Element("two", s)] == s for s in ("0", "1", "ab", "xyz")), "stale hash"
assert all(hash(e) == hash((e.space_id, e.payload)) for e in d)
"""


def test_pickled_elements_hash_under_the_loading_interpreters_seed():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", _PICKLE_DICT],
        env=dict(env, PYTHONHASHSEED="1"), capture_output=True, text=True, check=True,
    ).stdout
    subprocess.run(
        [sys.executable, "-c", _LOOKUP_DICT],
        env=dict(env, PYTHONHASHSEED="2"), input=out, capture_output=True, text=True, check=True,
    )
