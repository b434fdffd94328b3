"""Built operators are the carrier's own combination of a measure's atoms.

Hypothesis properties check that the single combination rule, and the
declaration-order `FiniteDiscrete.combine`, give the model's points on
every kind of space the operator is built for.
"""

import json
import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girycheck.algebra import Rejection, build_algebra
from girycheck.cli import main
from girycheck.measures import FinMeasure, mu
from girycheck.metric_ot import equiv_verdict
from girycheck.sampling import random_measure, random_meta
from girycheck.spaces import (
    ConvexSpaceSpec,
    ExtendedLine,
    Gluing,
    SpaceKind,
    builtin_spaces,
    interval_space,
    labels_space,
    product_space,
    semidirect_space,
)
from girycheck.verdicts import FAIL, PASS, SAMPLED_PASS, Verdict
from generators import EXTRA_SPACES
import reference

REG = builtin_spaces()
UNIT = REG["unit_interval"]


# ---------------------------------------------------------------------------
# the spaces the property runs on

BUILTIN_ALGEBRA_IDS = [sid for sid in REG if sid != "C"]


def _label_space(sid, labels, rule, center=None):
    return labels_space(sid, tuple(labels), rule, center=center)


def _extline_arm(line_wins):
    """Two arms, an interval and an extended line, glued at 0."""
    line = ConvexSpaceSpec("xl-line", SpaceKind.MIXED, ExtendedLine(Fraction(-2), Fraction(2)))
    seg = interval_space("xl-seg", 0, 1)
    order = ("S", "X") if line_wins else ("X", "S")
    branches = _label_space(f"xl-branches-{line_wins}", order, "max")
    loser, winner = order
    glue = Gluing(loser, winner, Fraction(0), ident=Fraction(0))
    return semidirect_space(
        branches, [("S", seg), ("X", line)], [glue], f"xl-{line_wins}"
    )


@st.composite
def label_spaces(draw, rules=("min", "max")):
    n = draw(st.integers(min_value=1, max_value=8))
    use_ints = draw(st.booleans())
    pool = list(range(n)) if use_ints else list(string.ascii_lowercase[:n])
    labels = draw(st.permutations(pool))
    rule = draw(st.sampled_from(rules))
    center = draw(st.sampled_from(labels)) if rule == "collapse" else None
    tag = "".join(str(x) for x in labels)
    return _label_space(f"lab-{rule}-{tag}-{center}", labels, rule, center)


@st.composite
def collapse_pairs(draw):
    labels = draw(st.permutations(["x", "y"]))
    center = draw(st.sampled_from(labels))
    return _label_space(f"col-{''.join(labels)}-{center}", labels, "collapse", center)


@st.composite
def finite_branched(draw):
    rule = draw(st.sampled_from(("min", "max")))
    branches = _label_space(f"fb-{rule}", ("L", "H"), rule)
    arms = []
    for lab in ("L", "H"):
        arm = draw(label_spaces())
        arms.append((lab, _label_space(f"fb-{lab}-{arm.id}", arm.carrier.labels, arm.carrier.rule)))
    winner = "H" if rule == "max" else "L"
    loser = "L" if winner == "H" else "H"
    arm_of = dict(arms)
    target = draw(st.sampled_from(arm_of[winner].carrier.labels))
    ident = draw(st.sampled_from((None,) + arm_of[loser].carrier.labels))
    glue = Gluing(loser, winner, target, ident=ident)
    return semidirect_space(branches, arms, [glue], f"fb-{rule}-{arms[0][1].id}-{arms[1][1].id}")


@st.composite
def products_with_unit(draw):
    part = draw(st.one_of(label_spaces(), collapse_pairs()))
    if draw(st.booleans()):
        return product_space(part, UNIT, f"({part.id}xU)")
    return product_space(UNIT, part, f"(Ux{part.id})")


ALGEBRA_SPACES = st.one_of(
    st.sampled_from(BUILTIN_ALGEBRA_IDS).map(REG.__getitem__),
    label_spaces(),
    collapse_pairs(),
    products_with_unit(),
    finite_branched(),
    st.sampled_from(("wye", "xl-line-wins", "xl-seg-wins")).map(
        {
            "wye": EXTRA_SPACES["wye"],
            "xl-line-wins": _extline_arm(True),
            "xl-seg-wins": _extline_arm(False),
        }.get
    ),
)


def _operators(space):
    h = build_algebra(space, budget=20, rng=random.Random(0))
    assert not isinstance(h, Rejection), space.id
    return h, reference.operator(space)


# ---------------------------------------------------------------------------
# the properties


def _assert_same_point(space, h, ref, P):
    got, want = h(P), ref(P)
    assert got == want, (space.id, space.point_str(got), space.point_str(want))
    assert space.point_str(got) == space.point_str(want)


@settings(max_examples=300, deadline=None)
@given(space=ALGEBRA_SPACES, seed=st.integers(min_value=0, max_value=2**32))
def test_combination_rule_matches_the_per_carrier_rules(space, seed):
    h, ref = _operators(space)
    rng = random.Random(seed)
    _assert_same_point(space, h, ref, random_measure(rng, space, max_atoms=5))
    Q = random_meta(rng, space, max_outer=4, max_atoms=4)
    _assert_same_point(space, h, ref, mu(Q))
    for P, _ in Q.atoms:
        _assert_same_point(space, h, ref, P)


@settings(max_examples=300, deadline=None)
@given(
    space=st.one_of(label_spaces(("min", "max", "collapse")), collapse_pairs()),
    data=st.data(),
)
def test_discrete_combine_matches_declaration_order_reference(space, data):
    carrier = space.carrier
    ps = data.draw(st.lists(st.sampled_from(carrier.labels), min_size=1, max_size=25))
    ws = [Fraction(1, len(ps))] * len(ps)
    want = reference.combine_payloads(carrier, ws, ps)
    assert carrier.combine(ws, ps) == want
    assert carrier.combine(tuple(ws), tuple(ps)) == want


def test_one_atom_measure_returns_its_atom():
    for sid in ("unit_interval", "rinf-grid", "N-min", "GxD", "vee"):
        space = REG[sid]
        h, _ = _operators(space)
        for e in space.landmark_elements():
            P = FinMeasure.from_pairs(space.id, [(e, 1)])
            assert h(P) is e


# ---------------------------------------------------------------------------
# equiv: only an exhaustive pass against a failure is a disagreement


@pytest.mark.parametrize(
    "two, four, expected",
    [
        (PASS, PASS, PASS),
        (FAIL, FAIL, PASS),
        (PASS, SAMPLED_PASS, SAMPLED_PASS),
        (SAMPLED_PASS, SAMPLED_PASS, SAMPLED_PASS),
        (SAMPLED_PASS, FAIL, SAMPLED_PASS),
        (FAIL, SAMPLED_PASS, SAMPLED_PASS),
        (PASS, FAIL, FAIL),
        (FAIL, PASS, FAIL),
    ],
)
def test_equiv_verdict_fails_only_on_an_exhaustive_pass_against_a_failure(two, four, expected):
    v = equiv_verdict(Verdict(two), Verdict(four))
    assert v.status == expected
    assert v.witness == {"two_point": two, "four_point": four}


def test_check_compat_sampled_pass_is_no_disagreement(capsys):
    main(["check-compat", "--space", "N-min", "--seed", "1", "--budget", "1", "--format", "json"])
    sec = json.loads(capsys.readouterr().out)["spaces"]["N-min"]
    assert sec["two_point"]["status"] == FAIL
    assert sec["four_point"]["status"] == SAMPLED_PASS
    assert sec["equiv"]["status"] == SAMPLED_PASS
    assert sec["equiv_ok"] is True
