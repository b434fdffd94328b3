"""The multiplication law and the support condition, decided on small label
carriers.

Both decisions rest on one lemma: a label carrier's `combine` reads only
which atoms are present, so h(P) depends only on supp P.  A hypothesis
property pins the lemma; the decided verdicts are checked against the
sampled laws and the model's law on the built-in label carriers and on
random total ones, and two broken carriers drive the failure paths.
"""

import functools
import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girycheck.algebra import (
    DECIDED_LABELS,
    AlgebraReport,
    _combination_rule,
    _decide_on_supports,
    coseparator_maps,
    full_report,
    support_condition_check,
    user_algebra,
    verify_coseparator_property,
    verify_mult_law,
    verify_unit_law,
)
from girycheck.measures import FinMeasure, MetaMeasure, dirac, mu, to_text
from girycheck.spaces import (
    ConvexSpaceSpec,
    Element,
    FiniteDiscrete,
    SpaceKind,
    builtin_spaces,
    labels_space,
)
from girycheck.verdicts import FAIL, PASS
from generators import EXTRA_SPACES
import reference

REG = builtin_spaces()
LABEL_SPACES = [sid for sid, s in REG.items() if isinstance(s.carrier, FiniteDiscrete)]


def _fold(space, payloads):
    """The fold of the compiled p = 1/2 table over the payloads, in order."""
    c = space.compiled
    t = c.tables[0]
    idx = [c.index[Element(space.id, p)] for p in payloads]
    return c.elems[functools.reduce(lambda a, b: t[a][b], idx)].payload


@st.composite
def label_carriers(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    labels = tuple(draw(st.permutations(string.ascii_lowercase[:n])))
    rule = draw(st.sampled_from(("min", "max", "collapse")))
    center = draw(st.sampled_from(labels)) if rule == "collapse" else None
    return labels_space(f"lemma-{rule}-{''.join(labels)}-{center}", labels, rule, center)


@settings(max_examples=300, deadline=None)
@given(space=label_carriers(), data=st.data())
def test_label_combine_reads_only_which_atoms_are_present(space, data):
    carrier = space.carrier
    ps = data.draw(st.lists(st.sampled_from(carrier.labels), min_size=1, max_size=12))
    positive = st.lists(st.integers(min_value=1, max_value=24), min_size=len(ps), max_size=len(ps))
    results = []
    for ns in (data.draw(positive), data.draw(positive)):
        ws = [Fraction(k, sum(ns)) for k in ns]
        results.append(carrier.combine(ws, ps))
    assert results[0] == results[1]
    assert results[0] == _fold(space, ps)


# ---------------------------------------------------------------------------
# agreement with the sampled laws and the model


def _assert_agrees(space, seed, law_budget=300):
    """The decided verdicts are exhaustive, and agree with the sampled
    support condition (budget 2000) and with the sampled and the model's
    law."""
    h = user_algebra(space, _combination_rule(space))
    mult, supp = _decide_on_supports(h)
    if len(space.carrier.labels) > DECIDED_LABELS:
        assert mult is None and supp is None
        return
    assert supp.status in (PASS, FAIL)
    assert supp.ok == support_condition_check(h, 2000, random.Random(seed)).ok, space.id
    assert mult.status in (PASS, FAIL)
    sampled = verify_mult_law(h, law_budget, random.Random(seed))
    model = reference.mult_law(h, law_budget, random.Random(seed))
    assert mult.ok == sampled.ok == (model["status"] != FAIL), space.id


@pytest.mark.parametrize("sid", LABEL_SPACES + ["six-max", "six-min"])
def test_decided_verdicts_agree_with_the_sampled_laws(sid):
    _assert_agrees(REG.get(sid) or EXTRA_SPACES[sid], 4)


def _random_total_label_space(rng, k):
    n = rng.randint(1, DECIDED_LABELS)
    labels = tuple(rng.sample(string.ascii_lowercase, n))
    if n <= 2 and rng.random() < 0.3:
        return labels_space(f"total-{k}", labels, "collapse", rng.choice(labels))
    return labels_space(f"total-{k}", labels, rng.choice(("min", "max")))


def test_decided_verdicts_agree_on_random_total_label_spaces():
    rng = random.Random("decided/total")
    for k in range(50):
        space = _random_total_label_space(rng, k)
        h = user_algebra(space, _combination_rule(space))
        # a totally ordered label space is an algebra: both laws hold
        mult, supp = _decide_on_supports(h)
        assert supp.status == PASS, (space.id, supp.witness)
        assert mult is not None and mult.status == PASS, (space.id, mult and mult.witness)
        _assert_agrees(space, k, law_budget=100)


# ---------------------------------------------------------------------------
# full_report's streams


@pytest.mark.parametrize("sid", ["chain-max", "two", "D4-min", "point", "N-min", "unit_interval"])
def test_full_report_draws_every_law_stream_in_its_place(sid):
    """The decided laws leave their streams unused, but their seeds are
    drawn as when all four laws were sampled: the caller's rng ends in the
    same state and the other laws run on the same streams."""
    space = REG[sid]
    rng = random.Random(5)
    rep = full_report(space, budget=30, rng=rng)
    want = random.Random(5)
    want.randrange(2**30)  # build_algebra
    if rep.compat is not None:
        want.randrange(2**30)
    unit, mult, cosep, supp = (want.randrange(2**30) for _ in range(4))
    assert rng.getstate() == want.getstate()
    h = user_algebra(space, _combination_rule(space))
    assert rep.unit_law == verify_unit_law(h, 200, random.Random(unit))
    maps = coseparator_maps(space)
    assert rep.coseparator_law == verify_coseparator_property(h, maps, 200, random.Random(cosep))
    if sid in ("N-min", "unit_interval"):
        assert rep.mult_law == verify_mult_law(h, 30, random.Random(mult))
        assert rep.support_condition == support_condition_check(h, 200, random.Random(supp))
    else:
        assert rep.mult_law.status == rep.support_condition.status == PASS


# ---------------------------------------------------------------------------
# broken carriers


class SecondSmallest(FiniteDiscrete):
    """min, except that three or more distinct atoms give the second
    smallest: every binary combination is still min's."""

    def combine(self, ws, ps):
        present = sorted(set(ps), key=self._rank.__getitem__)
        return present[1] if len(present) >= 3 else super().combine(ws, ps)


class FirstLabel(FiniteDiscrete):
    """Every combination is the first label, even of a point with itself."""

    def combine(self, ws, ps):
        return self.labels[0]


def test_a_broken_fold_fails_the_decided_law_with_a_meta_measure_witness():
    space = ConvexSpaceSpec("ss4", SpaceKind.DISCRETE, SecondSmallest(tuple("abcd"), "min"))
    rep = full_report(space, rng=random.Random(1))
    assert isinstance(rep, AlgebraReport)
    assert rep.support_condition.status == PASS
    v = rep.mult_law
    assert v.status == FAIL
    # the first support off the fold is {a, b, c}: Q = ½·δ(P_ab) + ½·δ(δ_c)
    a, b, c = (space.element(lab) for lab in "abc")
    h = user_algebra(space, _combination_rule(space))
    P_ab = FinMeasure.from_pairs(space.id, [(a, Fraction(1, 2)), (b, Fraction(1, 2))])
    Q = MetaMeasure.from_pairs(space.id, [(P_ab, Fraction(1, 2)), (dirac(c), Fraction(1, 2))])
    assert h(mu(Q)) == b
    assert h(FinMeasure.from_pairs(space.id, [(h(P_ab), Fraction(1, 2)), (c, Fraction(1, 2))])) == a
    assert v.to_json()["witness"] == {
        "Q": f"1/2: {to_text(P_ab, space)}; 1/2: {to_text(dirac(c), space)}",
        "flatten_then_h": "b",
        "h_inside_then_h": "a",
    }
    assert not verify_mult_law(h, 2000, random.Random(4)).ok
    assert reference.mult_law(h, 2000, random.Random(4))["status"] == FAIL


def test_a_rule_off_the_support_fails_the_decided_support_condition():
    space = ConvexSpaceSpec("first4", SpaceKind.DISCRETE, FirstLabel(tuple("abcd"), "min"))
    h = user_algebra(space, _combination_rule(space))
    mult, supp = _decide_on_supports(h)
    # c + c is a: no semilattice table, so the law is left to sampling
    assert mult is None
    assert supp.status == FAIL
    b, c = space.element("b"), space.element("c")
    P_bc = FinMeasure.from_pairs(space.id, [(b, Fraction(1, 2)), (c, Fraction(1, 2))])
    assert supp.witness == {"P": to_text(P_bc, space), "h": "a"}
    assert not support_condition_check(h, 2000, random.Random(4)).ok
