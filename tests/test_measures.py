import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girycheck.extvalue import INF, ExtValue
from girycheck.measures import (
    FinMeasure,
    MetaMeasure,
    convex_combine_measures,
    dirac,
    dirac_meta,
    expectation_functional,
    measure_eval,
    mix_meta,
    mu,
    parse_measure,
    pushforward,
    to_text,
)
from girycheck.sampling import random_measure, random_meta
from girycheck.spaces import (
    RINF,
    AffineMap,
    WeightVector,
    builtin_spaces,
    char_map,
    combine,
    combine2,
    enumerate_ideals,
    ext_element,
)
from generators import random_tower
import reference

REG = builtin_spaces()
UNIT = REG["unit_interval"]
CHAIN = REG["chain-max"]
COORD = AffineMap(UNIT, RINF, lambda e: ext_element(e.payload), name="coord")


def map_inner(f, Q: MetaMeasure) -> MetaMeasure:
    """Apply a pushforward to every inner measure (functor action on G)."""
    outs = [(pushforward(f, P), w) for P, w in Q.atoms]
    return MetaMeasure.from_pairs(outs[0][0].space_id, outs)


def unit_measure(*pairs):
    return FinMeasure.from_pairs(UNIT.id, [(UNIT.element(F(x)), F(w)) for x, w in pairs])


# ---------------------------------------------------------------------------
# construction invariants


def test_from_pairs_sorts_merges_and_drops_zeros():
    P = FinMeasure.from_pairs(
        UNIT.id,
        [
            (UNIT.element(F(3, 4)), F(1, 4)),
            (UNIT.element(F(1, 4)), F(1, 2)),
            (UNIT.element(F(3, 4)), F(1, 4)),
            (UNIT.element(F(1, 2)), F(0)),
        ],
    )
    assert [(e.payload, w) for e, w in P.atoms] == [(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))]


def test_masses_must_sum_to_one():
    with pytest.raises(ValueError):
        FinMeasure.from_pairs(UNIT.id, [(UNIT.element(0), F(1, 2))])
    with pytest.raises(ValueError):
        FinMeasure.from_pairs(UNIT.id, [])
    with pytest.raises(ValueError):
        FinMeasure.from_pairs(
            UNIT.id, [(UNIT.element(0), F(3, 2)), (UNIT.element(1), F(-1, 2))]
        )


def test_float_weights_are_refused():
    x, y = UNIT.element(0), UNIT.element(1)
    for ws in ((0.5, 0.5), (0.1, 0.9), (F(1, 2), 0.5)):
        with pytest.raises(ValueError, match="float weight"):
            FinMeasure.from_pairs(UNIT.id, list(zip((x, y), ws)))


def test_float_weights_are_refused_by_meta_measures():
    P, R = dirac(UNIT.element(0)), dirac(UNIT.element(1))
    for ws in ((0.5, 0.5), (0.1, 0.9), (F(1, 2), 0.5)):
        with pytest.raises(ValueError, match="float weight"):
            MetaMeasure.from_pairs(UNIT.id, list(zip((P, R), ws)))



@pytest.mark.parametrize("ws", [(0.5, 0.5), (0.1, 0.9)])
def test_float_weights_are_refused_by_every_mixture(ws):
    x, y = UNIT.element(0), UNIT.element(1)
    P, R = dirac(x), dirac(y)
    Q = MetaMeasure.from_pairs(UNIT.id, [(P, F(1))])
    mixtures = (
        lambda: combine(UNIT, ws, (x, y)),
        lambda: combine2(UNIT, ws[0], x, y),
        lambda: WeightVector(ws),
        lambda: convex_combine_measures(ws, (P, R)),
        lambda: mix_meta(ws, (Q, Q)),
    )
    for mix in mixtures:
        with pytest.raises(ValueError, match="float weight"):
            mix()


# Each pair list draws in-space atoms (repeats likely) with nonnegative
# Fraction or int weights, zeros included; half the lists are rescaled to
# total 1, so the success path is reached and not just the total-mass error.
# One list in four gets a stray atom (foreign space, or not a measure at
# all) and one in four a negative weight, at a random position.
FIN_ATOMS = [UNIT.element(F(k, 4)) for k in range(5)]
FIN_STRAYS = [CHAIN.element("a"), "x", None]
META_ATOMS = [
    dirac(UNIT.element(0)),
    dirac(UNIT.element(1)),
    FinMeasure.from_pairs(UNIT.id, [(UNIT.element(0), F(1, 3)), (UNIT.element(1), F(2, 3))]),
]
META_STRAYS = [dirac(CHAIN.element("a")), UNIT.element(0), "x"]
WEIGHTS = st.one_of(
    st.fractions(min_value=0, max_value=2, max_denominator=6),
    st.integers(min_value=0, max_value=2),
)
NEGATIVE = st.one_of(
    st.fractions(max_value=F(-1, 6), min_value=-1, max_denominator=6),
    st.just(-1),
)


@st.composite
def pair_lists(draw, atoms, strays):
    pairs = draw(st.lists(st.tuples(st.sampled_from(atoms), WEIGHTS), max_size=6))
    total = sum(F(w) for _, w in pairs)
    if total and draw(st.booleans()):
        pairs = [(a, F(w) / total) for a, w in pairs]
    fault = draw(st.sampled_from((None, None, "stray", "negative")))
    if fault == "stray":
        extra = (draw(st.sampled_from(strays)), draw(WEIGHTS))
    elif fault == "negative":
        extra = (draw(st.sampled_from(atoms)), draw(NEGATIVE))
    if fault:
        pairs.insert(draw(st.integers(0, len(pairs))), extra)
    return pairs


def _outcome(build, space_id, pairs):
    try:
        M = build(space_id, pairs)
    except Exception as exc:
        return (type(exc), str(exc))
    assert all(type(w) is F for _, w in M.atoms)
    return ("ok", M.atoms)


@settings(max_examples=200)
@given(pair_lists(FIN_ATOMS, FIN_STRAYS), pair_lists(META_ATOMS, META_STRAYS))
def test_from_pairs_matches_reference(fin_pairs, meta_pairs):
    assert _outcome(FinMeasure.from_pairs, UNIT.id, fin_pairs) == _outcome(
        reference.fin_from_pairs, UNIT.id, fin_pairs
    )
    assert _outcome(MetaMeasure.from_pairs, UNIT.id, meta_pairs) == _outcome(
        reference.meta_from_pairs, UNIT.id, meta_pairs
    )

# sha256 of 50 seeded random_meta draws per space, in canonical text form.
# They pin both what the sampler draws and the canonical atom order, which
# the byte-stable report-all JSON rests on.
META_STREAM_SHA256 = {
    "box2": "6f21597f27a876cf4e50323f5154fdcc813a86edf13b0df03acbffb69f59b108",
    "simplex3": "838f9a5581783ee228f862d3230c251a3f5e32b51532e84799a38d3ac8f6744f",
    "rinf-grid": "e31896c3d507b6144ea271351fed788853e075cfab4935fad589899c2bf7d3a6",
    "N-min": "13e8bef29f4f6a01315e05b528c3d04c9689f55a8990c5c5a2b9660316e18efd",
    "GxD": "899a3e35ceff9485c31aea5e731ac7e0a57aa6af1c09b2104615ef7256182877",
    "vee": "14d063fe13ab608f7f96927173435a82f70c97463bdc41d46440ff2958dcb99d",
    "unit_interval": "d45968df3fd6ed7b8d429c2a486b5e5df3a90e006429ddb3edaba6203a81acd3",
    "Rplus": "d096b4387724ebd5b1c2f3e18f8d94b774bc6e5b6b0fb05731a8467a55c2ebed",
}


def test_random_meta_stream_is_pinned():
    for sid, digest in META_STREAM_SHA256.items():
        space = REG[sid]
        rng = random.Random(f"pin/{sid}")
        lines = []
        for _ in range(50):
            Q = random_meta(rng, space, 5, 5)
            lines.append("; ".join(f"{q}: {to_text(P, space)}" for P, q in Q.atoms))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, sid


def test_mass_lookup_and_support():
    P = unit_measure((0, F(1, 3)), (1, F(2, 3)))
    assert P.mass(UNIT.element(0)) == F(1, 3)
    assert P.mass(UNIT.element(F(1, 2))) == 0
    assert P.support() == (UNIT.element(0), UNIT.element(1))


def test_dirac():
    d = dirac(UNIT.element(F(1, 3)))
    assert d.atoms == ((UNIT.element(F(1, 3)), F(1)),)


def test_measure_equality_is_canonical():
    P = unit_measure((0, F(1, 2)), (1, F(1, 2)))
    Q = unit_measure((1, F(1, 2)), (0, F(1, 4)), (0, F(1, 4)))
    assert P == Q
    assert hash(P) == hash(Q)


# ---------------------------------------------------------------------------
# functor and monad structure


def test_pushforward_merges_collisions():
    P = unit_measure((0, F(1, 4)), (F(1, 2), F(1, 4)), (1, F(1, 2)))
    flat = AffineMap(UNIT, UNIT, lambda e: F(0) if e.payload < 1 else F(1), name="step")
    got = pushforward(flat, P)
    assert got == unit_measure((0, F(1, 2)), (1, F(1, 2)))


def test_pushforward_with_plain_callable_infers_space():
    P = unit_measure((0, F(1, 2)), (1, F(1, 2)))
    got = pushforward(lambda e: CHAIN.element("a" if e.payload == 0 else "e"), P)
    assert got.space_id == CHAIN.id
    assert got.mass(CHAIN.element("e")) == F(1, 2)


def test_functoriality_on_random_measures():
    rng = random.Random(11)
    half = AffineMap(UNIT, UNIT, lambda e: e.payload / 2, name="half")
    shift = AffineMap(UNIT, UNIT, lambda e: e.payload / 2 + F(1, 2), name="shift")
    ident = AffineMap(UNIT, UNIT, lambda e: e, name="id")
    for _ in range(50):
        P = random_measure(rng, UNIT)
        assert pushforward(ident, P) == P
        assert pushforward(shift, pushforward(half, P)) == pushforward(
            AffineMap(UNIT, UNIT, lambda e: shift(half(e)), name="comp"), P
        )


def test_mu_worked_example():
    # flattening {1/2 at point mass on 0, 1/2 at the fair coin on {0,1}}
    inner0 = dirac(UNIT.element(0))
    coin = unit_measure((0, F(1, 2)), (1, F(1, 2)))
    Q = MetaMeasure.from_pairs(UNIT.id, [(inner0, F(1, 2)), (coin, F(1, 2))])
    assert mu(Q) == unit_measure((0, F(3, 4)), (1, F(1, 4)))


def test_monad_left_unit():
    rng = random.Random(5)
    for _ in range(40):
        P = random_measure(rng, UNIT)
        assert mu(dirac_meta(P)) == P


def test_monad_right_unit():
    rng = random.Random(6)
    for _ in range(40):
        P = random_measure(rng, UNIT)
        lifted = MetaMeasure.from_pairs(
            UNIT.id, [(dirac(x), w) for x, w in P.atoms]
        )
        assert mu(lifted) == P


def test_monad_associativity_small_tower():
    rng = random.Random(7)
    for _ in range(40):
        ws, metas = random_tower(rng, UNIT)
        flat_outer = mu(mix_meta(ws, metas))
        flat_inner = convex_combine_measures(ws, [mu(q) for q in metas])
        assert flat_outer == flat_inner


def test_naturality_of_mu():
    # G f after mu equals mu after G(G f)
    rng = random.Random(8)
    half = AffineMap(UNIT, UNIT, lambda e: e.payload / 2, name="half")
    for _ in range(40):
        Q = random_meta(rng, UNIT)
        assert pushforward(half, mu(Q)) == mu(map_inner(half, Q))


def test_convex_combine_measures_matches_manual_mixture():
    P = unit_measure((0, F(1, 2)), (1, F(1, 2)))
    R = unit_measure((F(1, 2), 1))
    mix = convex_combine_measures((F(1, 3), F(2, 3)), (P, R))
    assert mix == unit_measure((0, F(1, 6)), (F(1, 2), F(2, 3)), (1, F(1, 6)))


def test_mix_meta_requires_matching_space():
    Q1 = dirac_meta(unit_measure((0, 1)))
    Q2 = dirac_meta(dirac(CHAIN.element("a")))
    with pytest.raises(ValueError):
        mix_meta((F(1, 2), F(1, 2)), (Q1, Q2))


def test_mix_meta_refuses_a_length_mismatch():
    Q1 = dirac_meta(unit_measure((0, 1)))
    Q2 = dirac_meta(unit_measure((1, 1)))
    with pytest.raises(ValueError, match="differ in length"):
        mix_meta([1], (Q1, Q2))
    with pytest.raises(ValueError, match="differ in length"):
        mix_meta((F(1, 2), F(1, 2)), (Q1,))


# ---------------------------------------------------------------------------
# evaluation and expectations


def test_measure_eval():
    P = unit_measure((0, F(1, 4)), (F(1, 2), F(1, 4)), (1, F(1, 2)))
    members = {UNIT.element(0), UNIT.element(1)}
    assert measure_eval(P, members) == F(3, 4)
    assert measure_eval(P, set()) == 0


def test_expectation_functional_finite():
    P = unit_measure((0, F(1, 4)), (1, F(3, 4)))
    assert expectation_functional(P, COORD) == ExtValue(F(3, 4))


def test_expectation_functional_absorbs_infinity():
    nmin = REG["N-min"]
    ideals = enumerate_ideals(nmin)
    chi = char_map(nmin, ideals[0])  # {0}
    P = FinMeasure.from_pairs(
        nmin.id, [(nmin.element(0), F(1, 8)), (nmin.element(5), F(7, 8))]
    )
    assert expectation_functional(P, chi).is_inf
    Q = dirac(nmin.element(5))
    assert expectation_functional(Q, chi) == ExtValue(0)


def test_expectation_is_affine_in_the_measure():
    rng = random.Random(9)
    for _ in range(30):
        P = random_measure(rng, UNIT)
        Q = random_measure(rng, UNIT)
        mixed = convex_combine_measures((F(1, 3), F(2, 3)), (P, Q))
        assert (
            expectation_functional(mixed, COORD)
            == F(1, 3) * expectation_functional(P, COORD)
            + F(2, 3) * expectation_functional(Q, COORD)
        )


def test_barycenter_of_unit_interval_measure_matches_expectation():
    rng = random.Random(10)
    for _ in range(30):
        P = random_measure(rng, UNIT)
        ws = [w for _, w in P.atoms]
        xs = [x for x, _ in P.atoms]
        bary = combine(UNIT, ws, xs)
        assert ExtValue(bary.payload) == expectation_functional(P, COORD)


# ---------------------------------------------------------------------------
# text form


def test_to_text_format():
    P = unit_measure((F(1, 2), F(1, 3)), (0, F(2, 3)))
    assert to_text(P, UNIT) == "measure on unit_interval: 0:2/3, 1/2:1/3"


def test_parse_round_trip_across_spaces():
    rng = random.Random(12)
    for sid in ("unit_interval", "box2", "simplex3", "rinf-grid", "chain-max", "GxD", "vee"):
        space = REG[sid]
        for _ in range(20):
            P = random_measure(rng, space)
            assert parse_measure(to_text(P, space), space) == P


def test_parse_measure_rejects_garbage():
    with pytest.raises(ValueError):
        parse_measure("measure on unit_interval: 0;1", UNIT)
    with pytest.raises(ValueError):
        parse_measure("measure on box2: 0:1", UNIT)
    with pytest.raises(ValueError):
        parse_measure("measure on unit_interval: 0:1/2", UNIT)
    with pytest.raises(ValueError):
        parse_measure("not a measure", UNIT)


def test_parse_measure_handles_infinite_points():
    rinf = REG["rinf-grid"]
    P = FinMeasure.from_pairs(
        rinf.id, [(rinf.element(INF), F(1, 2)), (rinf.element(F(2)), F(1, 2))]
    )
    text = to_text(P, rinf)
    assert "inf" in text
    assert parse_measure(text, rinf) == P
