"""The laws that full_report decides instead of sampling.

On label carriers (exactly FiniteDiscrete, of any size) the multiplication
law and the support condition rest on one lemma: a label carrier's
`combine` ignores the weights and is the fold of its compiled p = 1/2
table over the atoms present.  A hypothesis property pins the lemma on
carriers of up to 40 labels; the decided verdicts are checked against the
sampled laws and the model's law on the built-in label carriers and on
random total ones, and two subclasses that combine otherwise stay sampled
and fail.

On the barycentric carriers (exactly Interval, Box, Simplex and
ExtendedLine) h is the weighted mean, which `tests/test_scalar_kernels.py`
pins against the model; the multiplication law, the coseparator law and,
under the library's own norms, compat are decided from it.  The sampled
oracles must pass wherever a verdict is decided, hypothesis properties pin
the compat lemma and the affinity of the test maps, and subclasses and
foreign metrics fall back to sampling.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girycheck.algebra import (
    _combination_rule,
    _decided_mult_law,
    _decided_support_condition,
    coseparator_maps,
    full_report,
    support_condition_check,
    user_algebra,
    verify_coseparator_property,
    verify_mult_law,
    verify_unit_law,
)
from girycheck.cli import parse_space_file
from girycheck.extvalue import INF, ExtValue
from girycheck.measures import FinMeasure, to_text
from girycheck.metric_ot import (
    ExtMetric,
    compat_check_2pt,
    compat_check_4pt,
    decided_compat,
    default_metric,
    equiv_check,
    extended_abs_metric,
    l1_metric,
    linf_metric,
)
from girycheck.spaces import (
    Box,
    ConvexSpaceSpec,
    Element,
    FiniteDiscrete,
    Interval,
    SpaceKind,
    box_space,
    builtin_spaces,
    combine2,
    extended_line_space,
    interval_space,
    is_affine,
    labels_space,
    product_space,
    simplex_space,
)
from girycheck.verdicts import FAIL, PASS, SAMPLED_PASS
from generators import EXTRA_SPACES
import reference

REG = builtin_spaces()
LABEL_SPACES = [sid for sid, s in REG.items() if isinstance(s.carrier, FiniteDiscrete)]
MAX_LABELS = 40


def _fold(space, payloads):
    """The fold of the compiled p = 1/2 table over the payloads, in order."""
    c = space.compiled
    t = c.tables[0]
    idx = [c.index[Element(space.id, p)] for p in payloads]
    return c.elems[functools.reduce(lambda a, b: t[a][b], idx)].payload


@st.composite
def label_carriers(draw):
    n = draw(st.integers(min_value=1, max_value=MAX_LABELS))
    labels = tuple(draw(st.permutations([f"l{k}" for k in range(n)])))
    rule = draw(st.sampled_from(("min", "max", "collapse")))
    center = draw(st.sampled_from(labels)) if rule == "collapse" else None
    return labels_space(f"lemma-{rule}-{n}", labels, rule, center)


@settings(max_examples=200, deadline=None)
@given(space=label_carriers(), data=st.data())
def test_label_combine_is_the_fold_of_its_binary_table(space, data):
    carrier = space.carrier
    ps = data.draw(st.lists(st.sampled_from(carrier.labels), min_size=1, max_size=16))
    ns = data.draw(st.lists(st.integers(1, 24), min_size=len(ps), max_size=len(ps)))
    ws = [Fraction(k, sum(ns)) for k in ns]
    assert carrier.combine(ws, ps) == _fold(space, ps)


# ---------------------------------------------------------------------------
# agreement with the sampled laws and the model


def _assert_agrees(space, seed, law_budget=300, supp_budget=2000):
    """The law is decided and passes the sampled and the model's law; the
    support condition is decided exactly where the sampled one passes."""
    h = user_algebra(space, _combination_rule(space))
    # min, max and collapse each fold one semilattice table
    assert _decided_mult_law(space).status == PASS, space.id
    assert verify_mult_law(h, law_budget, random.Random(seed)).ok, space.id
    assert reference.mult_law(h, law_budget, random.Random(seed))["status"] != FAIL, space.id
    supp = _decided_support_condition(space)
    sampled = support_condition_check(h, supp_budget, random.Random(seed))
    assert (supp is not None) == sampled.ok, space.id
    assert supp is None or supp.status == PASS


@pytest.mark.parametrize("sid", LABEL_SPACES + ["six-max", "six-min"])
def test_decided_verdicts_agree_with_the_sampled_laws(sid):
    _assert_agrees(REG.get(sid) or EXTRA_SPACES[sid], 4)


def _random_total_label_space(rng, k):
    n = rng.randint(1, MAX_LABELS)
    labels = tuple(f"t{j}" for j in rng.sample(range(100), n))
    if n <= 2 and rng.random() < 0.3:
        return labels_space(f"total-{k}", labels, "collapse", rng.choice(labels))
    return labels_space(f"total-{k}", labels, rng.choice(("min", "max")))


def test_decided_verdicts_agree_on_random_total_label_spaces():
    rng = random.Random("decided/total")
    for k in range(50):
        space = _random_total_label_space(rng, k)
        # a totally ordered label space is an algebra: both laws are decided
        assert _decided_support_condition(space).status == PASS, space.id
        _assert_agrees(space, k, law_budget=100, supp_budget=200)


@pytest.mark.parametrize("rule", ["min", "max"])
def test_a_forty_label_chain_reads_pass(rule):
    space = labels_space(f"chain40-{rule}", tuple(f"c{k}" for k in range(MAX_LABELS)), rule)
    rep = full_report(space, budget=30, rng=random.Random(1))
    assert rep.mult_law.status == rep.support_condition.status == PASS
    assert rep.ok


# ---------------------------------------------------------------------------
# full_report's streams


@pytest.mark.parametrize("sid", ["chain-max", "two", "D4-min", "point", "N-min", "unit_interval"])
def test_full_report_draws_every_law_stream_in_its_place(sid):
    """The decided laws leave their streams unused, but their seeds are
    drawn as when all four laws were sampled: the caller's rng ends in the
    same state, the other laws run on the same streams, and the sampled
    laws pass on the streams of the decided ones."""
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
    sampled_cosep = verify_coseparator_property(h, maps, 200, random.Random(cosep))
    if sid in ("point", "unit_interval"):
        assert rep.coseparator_law.status == PASS and sampled_cosep.ok
    else:
        assert rep.coseparator_law == sampled_cosep
    assert rep.mult_law.status == PASS and verify_mult_law(h, 30, random.Random(mult)).ok
    sampled_supp = support_condition_check(h, 200, random.Random(supp))
    if sid == "unit_interval":
        assert rep.support_condition is sampled_supp is None
    else:
        assert rep.support_condition.status == PASS and sampled_supp.ok


# ---------------------------------------------------------------------------
# subclasses that combine otherwise stay sampled


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


def test_a_broken_fold_is_sampled_and_fails_the_law():
    space = ConvexSpaceSpec("ss4", SpaceKind.DISCRETE, SecondSmallest(tuple("abcd"), "min"))
    # the binary table is min's: only the exact type is decided
    assert _decided_mult_law(space) is None
    assert _decided_support_condition(space) is None
    for seed in range(1, 6):
        rep = full_report(space, rng=random.Random(seed))
        assert rep.support_condition.status == SAMPLED_PASS
        v = rep.mult_law
        assert v.status == FAIL, seed
        assert set(v.witness) == {"Q", "flatten_then_h", "h_inside_then_h"}
        assert v.witness["flatten_then_h"] != v.witness["h_inside_then_h"]


def test_a_rule_off_the_support_is_sampled_and_fails_the_support_condition():
    space = ConvexSpaceSpec("first4", SpaceKind.DISCRETE, FirstLabel(tuple("abcd"), "min"))
    assert _decided_mult_law(space) is None
    assert _decided_support_condition(space) is None
    h = user_algebra(space, _combination_rule(space))
    supp = support_condition_check(h, 300, random.Random(4))
    assert supp.status == FAIL
    # the first grid pair off the support: b + c is a
    b, c = space.element("b"), space.element("c")
    P_bc = FinMeasure.from_pairs(space.id, [(b, Fraction(1, 2)), (c, Fraction(1, 2))])
    assert supp.witness == {"P": to_text(P_bc, space), "h": "a"}


# ---------------------------------------------------------------------------
# barycentric carriers: the decided verdicts against the sampled oracles

BARYCENTRIC_IDS = ["unit_interval", "box2", "simplex3", "rinf-grid", "rplus-grid", "Rinf", "Rplus"]


def _declared_spaces(tmp_path, count=24):
    """count seeded random interval, box, simplex and extended-line spaces,
    declared in a space file with the default or a named norm metric."""
    rng = random.Random("decided/declared")

    def bound():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 8))

    def span(lo):
        return lo + Fraction(rng.randint(0, 40), rng.randint(1, 8))

    lines = []
    for k in range(count):
        carrier = ("interval", "box", "simplex", "extline")[k % 4]
        if carrier == "interval":
            lo = bound()
            args, kind = f"{lo} {span(lo)}", "geometric"
        elif carrier == "box":
            los = [bound() for _ in range(rng.randint(1, 3))]
            args, kind = " ".join(f"{lo} {span(lo)}" for lo in los), "geometric"
        elif carrier == "simplex":
            args, kind = str(rng.randint(1, 4)), "geometric"
        else:
            lo = rng.choice([None, bound()])
            hi = rng.choice([None, span(lo if lo is not None else bound())])
            args, kind = f"{'-' if lo is None else lo} {'-' if hi is None else hi}", "mixed"
        metrics = ("default", "ext-abs") if carrier == "extline" else ("default", "l1", "linf")
        metric = rng.choice(metrics)
        lines.append(f"space d{k} kind={kind} carrier={carrier} {args} metric={metric}")
    path = tmp_path / "declared.txt"
    path.write_text("\n".join(lines) + "\n")
    reg = parse_space_file(path)
    return [(reg.space(f"d{k}"), reg.metric(f"d{k}")) for k in range(count)]


def _assert_sampled_oracles_pass(space, metric, seed):
    """Each verdict full_report decides on this space passes the unchanged
    sampled oracle, at budgets 300 (mult law, support condition, compat)
    and 200 (coseparator law); returns the names of the decided verdicts."""
    rep = full_report(space, metric, rng=random.Random(seed))
    h = user_algebra(space, _combination_rule(space))
    decided = [
        name for name in ("mult_law", "support_condition", "compat", "coseparator_law")
        if getattr(rep, name) is not None and getattr(rep, name).note.startswith("decided:")
    ]
    for name in decided:
        assert getattr(rep, name).status == PASS, (space.id, name)
    rng = random.Random(seed)
    if "mult_law" in decided:
        assert verify_mult_law(h, 300, rng).ok, space.id
    if "support_condition" in decided:
        assert support_condition_check(h, 300, rng).ok, space.id
    if "compat" in decided:
        assert compat_check_2pt(space, metric, 300, rng).ok, space.id
        assert compat_check_4pt(space, metric, 300, rng).ok, space.id
    if "coseparator_law" in decided:
        maps = coseparator_maps(space)
        assert verify_coseparator_property(h, maps, 200, rng).ok, space.id
    return decided


def test_the_sampled_oracles_pass_where_a_builtin_verdict_is_decided():
    decided = {}
    for k, (sid, space) in enumerate(REG.items()):
        if space.expect_reject:
            continue
        decided[sid] = _assert_sampled_oracles_pass(space, default_metric(space), k)
    for sid in BARYCENTRIC_IDS:
        assert decided[sid] == ["mult_law", "compat", "coseparator_law"], sid
    for sid in ("N-min", "chain-max", "two", "D4-min"):
        assert decided[sid] == ["mult_law", "support_condition"], sid
    assert decided["GxD"] == ["mult_law"]
    assert decided["point"] == ["mult_law", "support_condition", "coseparator_law"]
    # vee's arms are glued
    assert decided["vee"] == []


def test_the_sampled_oracles_pass_on_declared_barycentric_spaces(tmp_path):
    for k, (space, metric) in enumerate(_declared_spaces(tmp_path)):
        assert _assert_sampled_oracles_pass(space, metric, k) == [
            "mult_law", "compat", "coseparator_law"
        ], space.id


def test_every_test_map_of_a_barycentric_carrier_is_affine(tmp_path):
    spaces = [REG[sid] for sid in BARYCENTRIC_IDS] + [s for s, _ in _declared_spaces(tmp_path)]
    for k, space in enumerate(spaces):
        for m in coseparator_maps(space):
            assert is_affine(m, 100, random.Random(k)).ok, (space.id, m.name)


# ---------------------------------------------------------------------------
# the compat lemma

NORMED = [REG["unit_interval"], REG["box2"], REG["simplex3"],
          interval_space("wide", Fraction(-7, 2), 5), box_space("cube", [(-1, 2), (0, 1), (3, 9)])]
EXTENDED = [REG["rinf-grid"], REG["rplus-grid"], REG["Rinf"], extended_line_space("below", None, 3)]
P_VALUES = st.fractions(min_value=0, max_value=1, max_denominator=24)


@st.composite
def norm_points(draw, space):
    carrier = space.carrier

    def coordinate(lo, hi):
        return draw(st.fractions(min_value=lo, max_value=hi, max_denominator=64))

    if isinstance(carrier, Interval):
        return space.element(coordinate(carrier.lo, carrier.hi))
    if isinstance(carrier, Box):
        return space.element(tuple(coordinate(lo, hi) for lo, hi in carrier.bounds))
    ns = draw(st.lists(st.integers(0, 9), min_size=carrier.n, max_size=carrier.n))
    ns[0] += 1 if not any(ns) else 0
    return space.element(tuple(Fraction(n, sum(ns)) for n in ns))


@st.composite
def ext_points(draw, space):
    lo, hi = space.carrier.lo, space.carrier.hi
    lo = Fraction(-50) if lo is None else lo
    hi = Fraction(50) if hi is None else hi
    finite = st.fractions(min_value=lo, max_value=hi, max_denominator=64).map(ExtValue)
    return space.element(draw(st.one_of(st.just(INF), finite)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compat_is_an_equality_under_the_l1_and_linf_norms(data):
    space = data.draw(st.sampled_from(NORMED))
    d = data.draw(st.sampled_from((l1_metric, linf_metric)))(space)
    p = data.draw(P_VALUES)
    x, y, z, w = (data.draw(norm_points(space)) for _ in range(4))
    assert d(combine2(space, p, x, z), combine2(space, p, y, z)) == p * d(x, y)
    assert d(combine2(space, p, x, y), combine2(space, p, z, w)) <= p * d(x, z) + (1 - p) * d(y, w)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_compat_holds_under_ext_abs_with_inf(data):
    space = data.draw(st.sampled_from(EXTENDED))
    d = extended_abs_metric(space)
    p = data.draw(P_VALUES)
    x, y, z, w = (data.draw(ext_points(space)) for _ in range(4))
    lhs = d(combine2(space, p, x, z), combine2(space, p, y, z))
    assert lhs <= p * d(x, y)
    if not any(e.payload.is_inf for e in (x, y, z)):
        assert lhs == p * d(x, y)
    assert d(combine2(space, p, x, y), combine2(space, p, z, w)) <= p * d(x, z) + (1 - p) * d(y, w)


# ---------------------------------------------------------------------------
# what stays sampled


class SwappedInterval(Interval):
    """The weighted mean, except that three or more atoms swap the first
    two weights: every binary combination is still the mean."""

    def combine(self, ws, ps):
        if len(ws) >= 3:
            ws = (ws[1], ws[0], *ws[2:])
        return super().combine(ws, ps)


class SwappedBox(Box):
    """Box's mean, with SwappedInterval's fault."""

    def combine(self, ws, ps):
        if len(ws) >= 3:
            ws = (ws[1], ws[0], *ws[2:])
        return super().combine(ws, ps)


@pytest.mark.parametrize("carrier", [
    SwappedInterval(Fraction(0), Fraction(1)),
    SwappedBox(((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1)))),
])
def test_a_mis_weighting_subclass_is_sampled_and_fails(carrier):
    space = ConvexSpaceSpec("swapped", SpaceKind.GEOMETRIC, carrier)
    assert decided_compat(space, default_metric(space)) is None
    assert _decided_mult_law(space) is None
    assert _decided_mult_law(product_space(space, REG["D4-min"], "swapped-x-D4")) is None
    rep = full_report(space, rng=random.Random(1))
    # binary combinations are the mean's, so the compat scan passes and h is built
    assert rep.compat.status == SAMPLED_PASS
    assert rep.mult_law.status == FAIL
    assert set(rep.mult_law.witness) == {"Q", "flatten_then_h", "h_inside_then_h"}
    assert rep.mult_law.witness["flatten_then_h"] != rep.mult_law.witness["h_inside_then_h"]
    assert rep.coseparator_law.status != PASS


def test_a_foreign_rule_named_l1_is_scanned():
    space = REG["unit_interval"]
    own = l1_metric(space)
    foreign = ExtMetric(space.id, "l1", lambda x, y: own(x, y))
    assert decided_compat(space, own).status == PASS
    assert decided_compat(space, foreign) is None
    rep = full_report(space, foreign, budget=30, rng=random.Random(1))
    assert rep.compat.status == SAMPLED_PASS
    assert equiv_check(space, foreign, 30, random.Random(1)).status == SAMPLED_PASS
    # a norm of another space, and a kernel off its carrier, are scanned too
    assert decided_compat(space, l1_metric(REG["box2"])) is None
    assert decided_compat(REG["Rinf"], l1_metric(REG["Rinf"])) is None
    assert decided_compat(simplex_space("s2", 2), extended_abs_metric(simplex_space("s2", 2))) is None
