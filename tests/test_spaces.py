import gc
import itertools
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girycheck.extvalue import INF, ExtValue
from girycheck.metric_ot import default_metric
from girycheck.spaces import (
    P_GRID,
    AffineMap,
    ConvexSpaceSpec,
    Gluing,
    Interval,
    SpaceKind,
    WeightVector,
    as_ext,
    box_space,
    builtin_spaces,
    char_map,
    combine,
    combine2,
    compose,
    coseparates,
    discrete_poset,
    enumerate_ideals,
    ext_element,
    extended_line_space,
    interval_space,
    is_affine,
    is_ideal,
    labels_space,
    naturals_space,
    product_space,
    projection,
    semidirect_space,
    simplex_space,
)
from generators import arm_payloads, random_arm_tree
import reference

REG = builtin_spaces()
UNIT = REG["unit_interval"]
VEE = REG["vee"]
C = REG["C"]

unit_fracs = st.fractions(min_value=0, max_value=1, max_denominator=32)


# ---------------------------------------------------------------------------
# oracles that nothing in the package calls: a product point from its
# components, and the kind a finite carrier's pairs show


def pair_element(prod, x, y):
    return prod.element((x.payload, y.payload))


@dataclass(frozen=True)
class KindReport:
    kind: SpaceKind
    declared: bool
    discrete_pair: Optional[tuple] = None
    geometric_pair: Optional[tuple] = None


def classify_kind(space) -> KindReport:
    """Exhaustive pair test on finite carriers: a pair is discrete-behaving
    when its combination is the same point for every grid p.  Infinite
    carriers return the declared kind."""
    elems = space.enumerate_elements()
    if elems is None or len(elems) > 64:
        return KindReport(space.kind, declared=True)
    disc = geo = None
    for x, y in itertools.combinations(elems, 2):
        results = {combine2(space, p, x, y) for p in P_GRID}
        if len(results) == 1:
            disc = disc or (x, y)
        else:
            geo = geo or (x, y)
    if disc and not geo:
        kind = SpaceKind.DISCRETE
    elif geo and not disc:
        kind = SpaceKind.GEOMETRIC
    elif disc and geo:
        kind = SpaceKind.MIXED
    else:
        kind = space.kind  # single-point carrier: keep the declaration
    return KindReport(kind, declared=False, discrete_pair=disc, geometric_pair=geo)


# ---------------------------------------------------------------------------
# weights


def test_weight_vector_validation():
    WeightVector((F(1, 3), F(2, 3)))
    with pytest.raises(ValueError):
        WeightVector((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        WeightVector((F(3, 2), F(-1, 2)))
    u = WeightVector.uniform(4)
    assert list(u) == [F(1, 4)] * 4


def test_p_grid_is_the_documented_nine():
    assert P_GRID == (
        F(1, 2), F(1, 3), F(2, 3), F(1, 8), F(1, 4), F(3, 8), F(5, 8), F(3, 4), F(7, 8),
    )


# ---------------------------------------------------------------------------
# carrier rules


def test_interval_combine_is_the_weighted_mean():
    a, b = UNIT.element(F(1, 4)), UNIT.element(F(3, 4))
    got = combine(UNIT, (F(1, 3), F(2, 3)), (a, b))
    assert got == UNIT.element(F(1, 4) / 3 + F(3, 4) * F(2, 3))


def test_interval_rejects_outside_points():
    with pytest.raises(ValueError):
        UNIT.element(F(3, 2))
    with pytest.raises(ValueError):
        interval_space("J", -1, 1).element(F(-5, 4))


def test_combine_weight_validation():
    a, b = UNIT.element(0), UNIT.element(1)
    with pytest.raises(ValueError):
        combine(UNIT, (F(1, 2), F(1, 4)), (a, b))
    with pytest.raises(ValueError):
        combine(UNIT, (F(3, 2), F(-1, 2)), (a, b))
    with pytest.raises(ValueError):
        combine(UNIT, (F(1, 2),), (a, b))
    with pytest.raises(ValueError):
        combine(UNIT, (), ())


def test_combine_drops_zero_weights():
    a, b = UNIT.element(0), UNIT.element(1)
    assert combine(UNIT, (F(1), F(0)), (a, b)) == a
    # singleton short-circuits even where the carrier rule would be undefined
    x = VEE.element(("L", F(1, 2)))
    assert combine(VEE, (F(0), F(1)), (VEE.element(("H", F(1, 3))), x)) == x


def test_cross_space_elements_rejected():
    with pytest.raises(ValueError):
        combine2(UNIT, F(1, 2), UNIT.element(0), REG["box2"].element((0, 0)))


def test_box_and_simplex_combine_componentwise():
    box = REG["box2"]
    p = combine2(box, F(1, 2), box.element((0, 1)), box.element((1, 0)))
    assert p == box.element((F(1, 2), F(1, 2)))
    simp = REG["simplex3"]
    q = combine2(
        simp, F(1, 4), simp.element((1, 0, 0)), simp.element((0, F(1, 2), F(1, 2)))
    )
    assert q == simp.element((F(1, 4), F(3, 8), F(3, 8)))


def test_simplex_membership():
    simp = simplex_space("S", 3)
    with pytest.raises(ValueError):
        simp.element((F(1, 2), F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        simp.element((F(3, 2), F(-1, 2), 0))


def test_extended_line_absorbing_combine():
    line = REG["Rinf"]
    inf = line.element(INF)
    three = line.element(F(3))
    got = combine2(line, F(1, 2), inf, three)
    assert as_ext(got).is_inf
    fin = combine2(line, F(1, 3), line.element(F(3)), line.element(F(-3)))
    assert as_ext(fin) == ExtValue(F(-1))
    # weight 0 on the infinite point drops it before the rule runs
    assert combine(line, (F(0), F(1)), (inf, three)) == three


def _quarters(lo, hi):
    return tuple(ExtValue(F(k, 4)) for k in range(4 * lo, 4 * hi + 1))


def test_extended_line_grids():
    # the built-in grids are pinned as they were before the half-bounded fix
    assert REG["Rinf"].carrier._grid == _quarters(-8, 8)
    assert REG["Rplus"].carrier._grid == _quarters(0, 8)
    assert REG["rinf-grid"].carrier._grid == _quarters(-4, 4)
    assert REG["rplus-grid"].carrier._grid == _quarters(0, 4)
    # a single bound outside [-8, 8] gets the other one 16 past it
    for lo, hi, grid in (
        (10, None, _quarters(10, 26)),
        (None, -9, _quarters(-25, -9)),
        (8, None, _quarters(8, 8)),
        (None, -8, _quarters(-8, -8)),
        (-20, None, _quarters(-20, 8)),
        (None, 20, _quarters(-8, 20)),
    ):
        line = extended_line_space("far", lo, hi)
        assert line.carrier._grid == grid, (lo, hi)
        rng = random.Random(0)
        for _ in range(50):
            e = line.sample_element(rng)
            assert line.element(e.payload) == e


def test_finite_discrete_rules():
    chain = REG["chain-max"]
    a, e = chain.element("a"), chain.element("e")
    assert combine2(chain, F(1, 2), a, e) == e
    nmin = REG["N-min"]
    assert combine2(nmin, F(7, 8), nmin.element(5), nmin.element(2)) == nmin.element(2)
    assert combine2(C, F(1, 2), C.element("0"), C.element("1")) == C.element("u")
    assert combine2(C, F(1, 2), C.element("0"), C.element("u")) == C.element("u")
    assert combine2(C, F(1, 3), C.element("1"), C.element("1")) == C.element("1")


def test_product_combines_componentwise():
    gd = REG["GxD"]
    d4 = REG["D4-min"]
    x = pair_element(gd, UNIT.element(F(1, 2)), d4.element(1))
    y = pair_element(gd, UNIT.element(0), d4.element(3))
    z = combine2(gd, F(1, 2), x, y)
    assert z == gd.element((F(1, 4), 1))


def test_branched_same_arm_is_geometric():
    x = VEE.element(("H", F(1, 4)))
    y = VEE.element(("H", F(3, 4)))
    assert combine2(VEE, F(1, 2), x, y) == VEE.element(("H", F(1, 2)))


def test_branched_cross_arm_routes_through_the_glue_point():
    # branch labels resolve by the max rule; the losing point enters the
    # winning arm through the identified point, keeping its weight
    x = VEE.element(("L", F(2, 5)))
    y = VEE.element(("H", F(3, 5)))
    got = combine2(VEE, F(1, 2), x, y)
    assert got == VEE.element(("H", F(3, 10)))
    got2 = combine2(VEE, F(3, 4), x, y)
    assert got2 == VEE.element(("H", F(3, 20)))


def test_branched_glue_point_is_canonical():
    assert VEE.element(("L", F(0))) == VEE.element(("H", F(0)))
    assert VEE.point_str(VEE.element(("L", F(0)))) == VEE.point_str(VEE.element(("H", F(0))))


def test_a_chain_of_glued_points_is_one_point():
    # A@0 = B@0 = C@0: C@0 was once written B@0, one gluing back, and
    # compared unequal to A@0
    branches = labels_space("abc", ("A", "B", "C"), "max")
    glues = [Gluing("A", "B", F(0), ident=F(0)), Gluing("B", "C", F(0), ident=F(0))]
    space = semidirect_space(branches, [("A", UNIT), ("B", UNIT), ("C", UNIT)], glues, "chain")
    assert space.element(("C", F(0))) == space.element(("B", F(0))) == space.element(("A", F(0)))
    assert space.point_str(space.element(("C", F(0)))) == "A@0"


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_normalize_writes_each_glued_point_once_on_random_arm_trees(seed):
    space = random_arm_tree(random.Random(seed))
    carrier = space.carrier
    for p in arm_payloads(space):
        q = carrier.normalize(p)
        assert carrier.normalize(q) == q
        assert q == reference._canonical(carrier, p)
    for g in carrier.gluings:
        if g.ident is not None:
            assert space.element((g.src, g.ident)) == space.element((g.dst, g.target))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_transition_targets_match_the_model_on_random_arm_trees(seed):
    carrier = random_arm_tree(random.Random(seed)).carrier
    for src, dst in itertools.permutations([label for label, _ in carrier.components], 2):
        try:
            want = reference._glue_target(carrier, src, dst)
        except KeyError:
            with pytest.raises(ValueError, match=f"^no gluing path {src!r} -> {dst!r}$"):
                carrier._transition_target(src, dst)
        else:
            assert carrier._transition_target(src, dst) == want


def test_branched_rejects_unknown_labels():
    with pytest.raises(ValueError):
        VEE.element(("X", F(1, 2)))


@pytest.mark.parametrize(
    "glues, named",
    [
        # the two arms glued twice, once each way
        ([Gluing("L", "H", F(0), ident=F(0)), Gluing("H", "L", F(1), ident=F(1))], "H@1 -> L@1"),
        # an arm glued to itself by a constant transition
        ([Gluing("L", "H", F(0)), Gluing("L", "L", F(0))], "L -> L@0"),
    ],
)
def test_semidirect_space_refuses_gluings_that_are_not_a_forest(glues, named):
    branches = labels_space("lh", ("L", "H"), "max")
    with pytest.raises(ValueError, match=f"^glue {named} closes a cycle of gluings$"):
        semidirect_space(branches, [("L", UNIT), ("H", UNIT)], glues, "loop")


def test_semidirect_space_refuses_a_branch_with_two_arms():
    branches = labels_space("lh", ("L", "H"), "max")
    arms = [("L", UNIT), ("L", interval_space("far", 5, 9)), ("H", UNIT)]
    with pytest.raises(ValueError, match="^branch 'L' has two arms$"):
        semidirect_space(branches, arms, [Gluing("L", "H", F(0), ident=F(0))], "twice")


OFF_UNIT = "is not a point of unit_interval"


@pytest.mark.parametrize(
    "glue, message",
    [
        (Gluing("L", "H", F(3), ident=F(0)), f"glue L@0 -> H@3: 3 {OFF_UNIT}"),
        (Gluing("L", "H", F(0), ident=F(-1)), f"glue L@-1 -> H@0: -1 {OFF_UNIT}"),
        (Gluing("L", "X", F(0)), "glue L -> X@0: no branch 'X'"),
        (Gluing("X", "H", F(0), ident=F(0)), "glue X@0 -> H@0: no branch 'X'"),
    ],
)
def test_semidirect_space_refuses_a_glue_endpoint_off_its_arms(glue, message):
    branches = labels_space("lh", ("L", "H"), "max")
    with pytest.raises(ValueError) as exc:
        semidirect_space(branches, [("L", UNIT), ("H", UNIT)], [glue], "bad")
    assert str(exc.value) == message


def test_point_str_parse_round_trip():
    rng = random.Random(7)
    for sid in ("unit_interval", "box2", "simplex3", "rinf-grid", "chain-max", "GxD", "vee"):
        space = REG[sid]
        for _ in range(25):
            e = space.sample_element(rng)
            assert space.parse_element(space.point_str(e)) == e


def test_landmarks_are_members():
    for space in REG.values():
        for e in space.landmark_elements():
            assert space.element(e.payload) == e


@given(p=unit_fracs, x=unit_fracs, y=unit_fracs)
def test_interval_combine_matches_arithmetic(p, x, y):
    got = combine2(UNIT, p, UNIT.element(x), UNIT.element(y))
    assert got.payload == p * x + (1 - p) * y


@settings(max_examples=60)
@given(
    p=st.sampled_from(P_GRID),
    q=st.sampled_from(P_GRID),
    data=st.data(),
)
def test_combine_regrouping_identity(p, q, data):
    # p*x + (1-p)*(q*y + (1-q)*z) == the flat three-way combination
    for sid in ("unit_interval", "chain-max", "vee"):
        space = REG[sid]
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        x, y, z = (space.sample_element(rng) for _ in range(3))
        inner = combine2(space, q, y, z)
        lhs = combine2(space, p, x, inner)
        ws = (p, (1 - p) * q, (1 - p) * (1 - q))
        rhs = combine(space, ws, (x, y, z))
        assert lhs == rhs, (sid, p, q)


@given(p=st.sampled_from(P_GRID), x=unit_fracs)
def test_combine_idempotence(x, p):
    e = UNIT.element(x)
    assert combine2(UNIT, p, e, e) == e


# ---------------------------------------------------------------------------
# affine maps


def test_affine_map_passes_is_affine():
    half = AffineMap(UNIT, UNIT, lambda e: e.payload / 2, name="half")
    v = is_affine(half, rng=random.Random(0))
    assert v.ok


def test_square_fails_is_affine_with_witness():
    sq = AffineMap(UNIT, UNIT, lambda e: e.payload * e.payload, name="square")
    v = is_affine(sq, rng=random.Random(0))
    assert not v.ok
    assert set(v.witness) == {"map", "p", "x", "y", "lhs", "rhs"}


def test_square_witness_at_midpoint():
    sq = AffineMap(UNIT, UNIT, lambda e: e.payload * e.payload, name="square")
    x, y = UNIT.element(0), UNIT.element(1)
    lhs = sq(combine2(UNIT, F(1, 2), x, y))
    rhs = combine2(UNIT, F(1, 2), sq(x), sq(y))
    assert lhs.payload == F(1, 4) and rhs.payload == F(1, 2)


def test_affine_map_validates_spaces():
    half = AffineMap(UNIT, UNIT, lambda e: e.payload / 2, name="half")
    with pytest.raises(ValueError):
        half(REG["box2"].element((0, 0)))
    bad = AffineMap(UNIT, UNIT, lambda e: e.payload + 7, name="shift")
    with pytest.raises(ValueError):
        bad(UNIT.element(F(1, 2)))


def test_compose_and_projection():
    gd = REG["GxD"]
    pr0 = projection(gd, 0)
    pr1 = projection(gd, 1)
    x = gd.element((F(1, 3), 2))
    assert pr0(x) == UNIT.element(F(1, 3))
    assert pr1(x) == REG["D4-min"].element(2)
    double = AffineMap(UNIT, UNIT, lambda e: e.payload, name="id")
    comp = compose(double, pr0)
    assert comp(x) == UNIT.element(F(1, 3))
    with pytest.raises(ValueError):
        compose(pr0, pr0)


def test_exhaustive_affinity_on_finite_spaces():
    chain = REG["chain-max"]
    # order-preserving relabel is affine for the max rule
    two = REG["two"]
    m = AffineMap(chain, two, lambda e: "0" if e.payload in ("a", "b", "c") else "1", name="cut")
    v = is_affine(m)
    assert v.ok and v.status == "pass"
    # a non-monotone relabel breaks affinity
    flip = AffineMap(chain, two, lambda e: "1" if e.payload in ("a",) else "0", name="flip")
    assert not is_affine(flip).ok


# ---------------------------------------------------------------------------
# ideals and coseparation


def combine_table(space):
    """Every binary combination, keyed (p, x, y), computed by combine2."""
    elems = space.enumerate_elements()
    return {
        (p, x, y): combine2(space, p, x, y) for p in P_GRID for x in elems for y in elems
    }


def closed_under_combine(table, elems, s):
    return all(table[p, a, b] in s for a in s for b in elems for p in P_GRID)


def brute_force_ideals(space):
    elems = space.enumerate_elements()
    table = combine_table(space)
    return {
        frozenset(sub)
        for r in range(1, len(elems))
        for sub in itertools.combinations(elems, r)
        if closed_under_combine(table, elems, frozenset(sub))
    }


def assert_structure_matches_combine2(space):
    elems = space.enumerate_elements()
    table = combine_table(space)
    assert {i.members for i in enumerate_ideals(space)} == brute_force_ideals(space)
    for r in range(len(elems) + 1):
        for sub in itertools.combinations(elems, r):
            s = frozenset(sub)
            assert is_ideal(space, s) == closed_under_combine(table, elems, s)
    rep = discrete_poset(space)
    assert (rep.le_pairs, rep.is_total, rep.witness) == reference.discrete_poset(space)


@pytest.mark.parametrize("sid", ["C", "two", "chain-max", "D4-min", "point"])
def test_enumerate_ideals_matches_brute_force(sid):
    assert_structure_matches_combine2(REG[sid])


@st.composite
def small_label_spaces(draw):
    n = draw(st.integers(2, 7))
    labels = tuple(draw(st.permutations("abcdefg"))[:n])
    rule = draw(st.sampled_from(["min", "max", "collapse"]))
    center = draw(st.sampled_from(labels)) if rule == "collapse" else None
    return labels_space("L", labels, rule, center)


@settings(max_examples=40, deadline=None)
@given(space=small_label_spaces())
def test_compiled_structure_matches_combine2_on_label_spaces(space):
    assert_structure_matches_combine2(space)


def test_compiled_structure_matches_combine2_on_a_finite_product():
    assert_structure_matches_combine2(product_space(REG["two"], REG["D4-min"]))


def test_is_ideal_is_false_for_points_outside_the_carrier():
    two = REG["two"]
    assert not is_ideal(two, frozenset([two.element("1"), C.element("u")]))


def test_compiled_tables_die_with_their_spec():
    space = labels_space("tmp", ("a", "b", "c"), "collapse", "b")
    assert enumerate_ideals(space)
    assert "compiled" in vars(space)
    ref = weakref.ref(space)
    del space
    gc.collect()
    assert ref() is None


class ScannedInterval(Interval):
    """[lo, hi] as Interval combines it, but of another type, so that the
    norm lemma does not decide its compat and build_algebra scans it."""


def _scanned_interval():
    return ConvexSpaceSpec("tmp", SpaceKind.GEOMETRIC, ScannedInterval(F(0), F(1)))


def test_compat_without_an_rng_is_the_unseeded_scan():
    from girycheck.algebra import build_algebra
    from girycheck.metric_ot import compat_check_2pt, l1_metric

    space = _scanned_interval()
    metric = l1_metric(space)
    assert build_algebra(space, metric, 40).compat == compat_check_2pt(space, metric, 40)
    assert build_algebra(space, None, 30).compat == compat_check_2pt(
        space, default_metric(space), 30
    )


def test_unhashable_metric_is_scanned_and_not_kept():
    from girycheck.algebra import build_algebra
    from girycheck.metric_ot import compat_check_2pt

    class Metric:
        __hash__ = None

        def __init__(self, space):
            self.inner = default_metric(space)

        def __call__(self, x, y):
            return self.inner(x, y)

    space = interval_space("tmp", 0, 1)
    metric = Metric(space)
    assert build_algebra(space, metric, 40).compat == compat_check_2pt(space, metric, 40)


def test_ideals_of_C_are_the_three_expected():
    ideals = enumerate_ideals(C)
    as_labels = [tuple(e.payload for e in i.member_list()) for i in ideals]
    assert as_labels == [("u",), ("0", "u"), ("1", "u")]


def test_ideals_of_min_space_are_down_sets():
    nmin = naturals_space("N8", 8, "min")
    ideals = enumerate_ideals(nmin)
    expect = [frozenset(nmin.element(k) for k in range(j + 1)) for j in range(7)]
    assert [i.members for i in ideals] == expect


def test_char_map_values():
    ideals = enumerate_ideals(C)
    chi = char_map(C, ideals[0])  # {u}
    assert as_ext(chi(C.element("u"))).is_inf
    assert as_ext(chi(C.element("0"))) == ExtValue(0)
    assert chi.name == "chi[u]"


def test_char_maps_affine_on_total_spaces():
    # on a total order the complement of an ideal is closed under combining,
    # so every characteristic map commutes with combinations
    for sid in ("chain-max", "D4-min", "two"):
        space = REG[sid]
        for ideal in enumerate_ideals(space):
            assert is_affine(char_map(space, ideal)).ok, (sid, ideal)


def test_char_map_of_u_is_not_affine_on_C():
    # 0 and 1 sit outside {u} yet combine into it; this failure is the
    # whole reason C admits no operator
    chi = char_map(C, enumerate_ideals(C)[0])
    v = is_affine(chi)
    assert not v.ok
    assert v.witness["x"] == "0" and v.witness["y"] == "1"
    assert v.witness["lhs"] == "inf" and v.witness["rhs"] == "0"


def test_char_maps_coseparate_C():
    maps = [char_map(C, i) for i in enumerate_ideals(C)]
    assert coseparates(maps, C).ok


def test_coseparation_failure_witness():
    ideals = enumerate_ideals(C)
    maps = [char_map(C, ideals[0])]  # chi[u] alone cannot split 0 from 1
    v = coseparates(maps, C)
    assert not v.ok and set(v.witness) == {"x", "y"}


def test_preimage_of_ideal_is_ideal():
    # pull an ideal of `two` back along an affine map from chain-max
    chain = REG["chain-max"]
    two = REG["two"]
    m = AffineMap(chain, two, lambda e: "0" if e.payload in ("a", "b", "c") else "1", name="cut")
    assert is_affine(m).ok
    for ideal in enumerate_ideals(two):
        pre = frozenset(e for e in chain.enumerate_elements() if m(e) in ideal.members)
        if pre and pre != frozenset(chain.enumerate_elements()):
            assert is_ideal(chain, pre)


# ---------------------------------------------------------------------------
# poset and kind classification


def test_chain_poset_is_total():
    rep = discrete_poset(REG["chain-max"])
    assert rep.is_total and not rep.witness
    le = {(y.payload, x.payload) for y, x in rep.le_pairs}
    assert ("a", "e") in le and ("e", "a") not in le
    assert all((l, l) in le for l in "abcde")


def test_min_poset_reverses_the_labels():
    rep = discrete_poset(REG["D4-min"])
    assert rep.is_total
    le = {(y.payload, x.payload) for y, x in rep.le_pairs}
    assert (3, 0) in le and (0, 3) not in le


def test_C_poset_not_total_with_first_witness():
    rep = discrete_poset(C)
    assert not rep.is_total
    assert rep.witness == {"x": "0", "y": "1", "combines_to": "u", "p": "1/2"}


def test_classify_kind():
    rep = classify_kind(REG["chain-max"])
    assert rep.kind is SpaceKind.DISCRETE and not rep.declared
    assert rep.discrete_pair and not rep.geometric_pair
    assert classify_kind(UNIT).kind is SpaceKind.GEOMETRIC
    assert classify_kind(UNIT).declared  # infinite carrier keeps its declaration
    rep = classify_kind(REG["rinf-grid"])
    assert rep.kind is SpaceKind.MIXED and rep.declared
    assert classify_kind(REG["point"]).kind is SpaceKind.DISCRETE


def test_classify_kind_on_branched_spaces():
    # infinite arms: the declaration stands
    assert classify_kind(VEE).kind is SpaceKind.MIXED
    assert classify_kind(VEE).declared
    # with finite discrete arms every pair behaves discretely
    small = semidirect_space(
        labels_space("pick2", ("L", "H"), "max"),
        [
            ("L", labels_space("armL2", ("0", "1"), "min")),
            ("H", labels_space("armH2", ("0", "1"), "min")),
        ],
        [Gluing("L", "H", "0", ident="0")],
        "vee2",
    )
    rep = classify_kind(small)
    assert rep.kind is SpaceKind.DISCRETE and not rep.declared


# ---------------------------------------------------------------------------
# constructors


def test_builtin_registry_contents():
    expected = {
        "unit_interval", "box2", "simplex3", "rinf-grid", "rplus-grid",
        "N-min", "chain-max", "two", "D4-min", "C", "GxD", "vee",
        "point", "Rinf", "Rplus",
    }
    assert expected <= set(REG)
    assert C.expect_reject
    assert not UNIT.expect_reject


def test_naturals_space_payloads_are_ints():
    n = naturals_space("N5", 5)
    assert [e.payload for e in n.enumerate_elements()] == [0, 1, 2, 3, 4]


def test_extended_line_draws_are_pinned():
    expected = {
        "rinf-grid": "13/4 4 -1 4 -5/4 inf 3/4 -11/4 -7/2 9/4 -3/2 -4 -3 inf inf -1/4",
        "rplus-grid": "7/2 4 3/2 4 5/4 inf 9/4 1/2 1/4 3 5/4 0 1/2 inf inf 7/4",
        "Rinf": "27/4 -2 7 -9/4 inf 3/2 -21/4 -27/4 9/2 -3 -31/4 -6 inf inf -1/2 -29/4",
    }
    for sid, draws in expected.items():
        rng = random.Random(11)
        carrier = REG[sid].carrier
        assert " ".join(str(carrier.sample(rng)) for _ in range(16)) == draws


def test_extended_line_grid_is_built_once():
    carrier = REG["rinf-grid"].carrier
    assert carrier._grid is carrier._grid
    assert len(carrier._grid) == 33


def test_extended_line_space_bounds():
    g = extended_line_space("g", -1, 1)
    g.element(F(1, 2))
    g.element(INF)
    with pytest.raises(ValueError):
        g.element(F(3, 2))
    rplus = REG["Rplus"]
    with pytest.raises(ValueError):
        rplus.element(F(-1, 4))


def test_product_space_id_default():
    prod = product_space(UNIT, REG["two"])
    assert prod.id == "(unit_intervalxtwo)"


def test_box_space_bounds():
    b = box_space("B", [(0, 1), (-2, 2)])
    b.element((F(1, 2), F(-2)))
    with pytest.raises(ValueError):
        b.element((F(1, 2), F(5, 2)))


def test_ext_element_round_trip():
    e = ext_element(F(5, 2))
    assert as_ext(e) == ExtValue(F(5, 2))
    assert as_ext(ext_element(INF)).is_inf
    with pytest.raises(ValueError):
        as_ext(UNIT.element(0))


@pytest.mark.parametrize(
    "sid, raw",
    [
        ("unit_interval", 0.1),
        ("box2", (F(1, 2), 0.1)),
        ("simplex3", (0.1, 0.2, 0.7)),
        ("rinf-grid", 0.1),
    ],
)
def test_float_coordinates_are_refused(sid, raw):
    with pytest.raises(ValueError, match="float coordinate 0.1"):
        REG[sid].element(raw)
