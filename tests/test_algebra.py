import random
from fractions import Fraction as F

import pytest

from girycheck.algebra import (
    AlgebraReport,
    Rejection,
    build_algebra,
    coseparator_maps,
    counterexample_C,
    full_report,
    support_condition_check,
    user_algebra,
    verify_coseparator_property,
    verify_mult_law,
    verify_unit_law,
)
from girycheck.extvalue import INF, ExtValue
from girycheck.measures import FinMeasure, MetaMeasure, dirac, mu, support
from girycheck.metric_ot import default_metric, lipschitz_check
from girycheck.sampling import random_measure
from girycheck.spaces import (
    Gluing,
    as_ext,
    builtin_spaces,
    combine,
    coseparates,
    interval_space,
    labels_space,
    product_space,
    semidirect_space,
)
from girycheck.verdicts import failed, passed
import reference

REG = builtin_spaces()
UNIT = REG["unit_interval"]
VEE = REG["vee"]


def induced_structure_check(h, budget: int = 200, rng=None):
    """The combination induced by h agrees with the declared combine rule.

    A built operator is that combine rule, so this holds by construction
    there; it stays a real check for operators from user_algebra."""
    space = h.space
    rng = rng or random.Random(23)
    for _ in range(budget):
        k = rng.randint(1, 4)
        xs = [space.sample_element(rng) for _ in range(k)]
        ws = reference.cut_weights(rng, k)
        native = combine(space, ws, xs)
        via_h = h(FinMeasure.from_pairs(space.id, zip(xs, ws)))
        if native != via_h:
            return failed(
                {
                    "points": ", ".join(space.point_str(x) for x in xs),
                    "weights": ", ".join(str(w) for w in ws),
                    "combine": space.point_str(native),
                    "algebra": space.point_str(via_h),
                }
            )
    return passed(exhaustive=False, note=f"{budget} random families")

ALGEBRA_SPACES = (
    "unit_interval", "box2", "simplex3", "rinf-grid", "rplus-grid",
    "N-min", "chain-max", "GxD", "vee",
)


def build(sid):
    h = build_algebra(REG[sid], default_metric(REG[sid]), rng=random.Random(0))
    assert not isinstance(h, Rejection), sid
    return h


# ---------------------------------------------------------------------------
# construction routes


def test_provenance_tags():
    assert build("unit_interval").provenance == "geometric-barycenter"
    assert build("rinf-grid").provenance == "geometric-barycenter"
    assert build("N-min").provenance == "discrete-min"
    assert build("chain-max").provenance == "discrete-max"
    assert build("GxD").provenance == "mixed-product"
    assert build("vee").provenance == "mixed-semidirect"


def test_barycenter_values():
    h = build("unit_interval")
    P = FinMeasure.from_pairs(
        UNIT.id, [(UNIT.element(0), F(1, 4)), (UNIT.element(1), F(3, 4))]
    )
    assert h(P) == UNIT.element(F(3, 4))
    box = REG["box2"]
    hb = build("box2")
    Pb = FinMeasure.from_pairs(
        box.id, [(box.element((0, 1)), F(1, 2)), (box.element((1, 0)), F(1, 2))]
    )
    assert hb(Pb) == box.element((F(1, 2), F(1, 2)))


def test_absorbing_barycenter():
    rinf = REG["rinf-grid"]
    h = build("rinf-grid")
    P = FinMeasure.from_pairs(
        rinf.id, [(rinf.element(INF), F(1, 8)), (rinf.element(F(2)), F(7, 8))]
    )
    assert h(P).payload.is_inf
    Q = FinMeasure.from_pairs(
        rinf.id, [(rinf.element(F(-4)), F(1, 2)), (rinf.element(F(2)), F(1, 2))]
    )
    assert as_ext(h(Q)) == ExtValue(F(-1))


def test_discrete_extremes():
    nmin = REG["N-min"]
    h = build("N-min")
    P = FinMeasure.from_pairs(
        nmin.id, [(nmin.element(7), F(1, 3)), (nmin.element(2), F(2, 3))]
    )
    assert h(P) == nmin.element(2)
    chain = REG["chain-max"]
    hc = build("chain-max")
    Pc = FinMeasure.from_pairs(
        chain.id, [(chain.element("b"), F(9, 10)), (chain.element("d"), F(1, 10))]
    )
    assert hc(Pc) == chain.element("d")


def test_product_algebra_works_componentwise():
    gd = REG["GxD"]
    h = build("GxD")
    d4 = REG["D4-min"]
    P = FinMeasure.from_pairs(
        gd.id,
        [
            (gd.element((0, 3)), F(1, 2)),
            (gd.element((F(1, 2), 1)), F(1, 4)),
            (gd.element((1, 2)), F(1, 4)),
        ],
    )
    got = h(P)
    assert got == gd.element((F(3, 8), 1))


def test_branched_algebra_transition_semantics():
    h = build("vee")
    # mass on the losing arm enters the winner through the glue point,
    # weights intact
    P = FinMeasure.from_pairs(
        VEE.id,
        [(VEE.element(("L", F(2, 5))), F(1, 2)), (VEE.element(("H", F(3, 5))), F(1, 2))],
    )
    assert h(P) == VEE.element(("H", F(3, 10)))
    # weights matter: the same support with a different split moves the output
    P2 = FinMeasure.from_pairs(
        VEE.id,
        [(VEE.element(("L", F(2, 5))), F(3, 4)), (VEE.element(("H", F(3, 5))), F(1, 4))],
    )
    assert h(P2) == VEE.element(("H", F(3, 20)))


def test_branched_algebra_single_branch_is_the_arm_barycenter():
    h = build("vee")
    P = FinMeasure.from_pairs(
        VEE.id,
        [(VEE.element(("L", F(1, 4))), F(1, 3)), (VEE.element(("L", F(1, 2))), F(2, 3))],
    )
    assert h(P) == VEE.element(("L", F(5, 12)))


def test_C_is_rejected_with_both_witnesses():
    C = REG["C"]
    rej = build_algebra(C, default_metric(C))
    assert isinstance(rej, Rejection)
    assert rej.reason_names() == ("poset-not-total", "compat")
    poset_v = dict(rej.reasons)["poset-not-total"]
    assert poset_v.witness == {"x": "0", "y": "1", "combines_to": "u", "p": "1/2"}
    compat_v = dict(rej.reasons)["compat"]
    assert compat_v.witness["lhs"] == "1" and compat_v.witness["rhs"] == "1/2"


def test_product_with_rejected_component_propagates():
    C = REG["C"]
    prod = product_space(UNIT, C, "UxC")
    rej = build_algebra(prod, None)
    assert isinstance(rej, Rejection)
    assert all(name.startswith("C:") for name in rej.reason_names())


def test_branched_with_nontotal_branch_space_is_rejected():
    branch = labels_space("pickC", ("0", "1", "u"), "collapse", center="u")
    arms = [(lab, interval_space(f"arm{lab}", 0, 1)) for lab in ("0", "1", "u")]
    glues = [
        Gluing("0", "u", F(0), ident=F(0)),
        Gluing("1", "u", F(0), ident=F(0)),
    ]
    space = semidirect_space(branch, arms, glues, "Cvee")
    rej = build_algebra(space, None)
    assert isinstance(rej, Rejection)
    assert rej.reason_names() == ("branch-poset-not-total",)


# ---------------------------------------------------------------------------
# law verification on the shipped algebras


@pytest.mark.parametrize("sid", ALGEBRA_SPACES)
def test_unit_law(sid):
    v = verify_unit_law(build(sid), budget=80, rng=random.Random(1))
    assert v.ok, (sid, v.witness)


@pytest.mark.parametrize("sid", ALGEBRA_SPACES)
def test_mult_law(sid):
    v = verify_mult_law(build(sid), budget=80, rng=random.Random(2))
    assert v.ok, (sid, v.witness)


@pytest.mark.parametrize("sid", ALGEBRA_SPACES)
def test_coseparator_property(sid):
    space = REG[sid]
    maps = coseparator_maps(space)
    v = verify_coseparator_property(build(sid), maps, budget=60, rng=random.Random(3))
    assert v.ok, (sid, v.witness)


@pytest.mark.parametrize("sid", [s for s in ALGEBRA_SPACES if s != "vee"])
def test_coseparator_maps_coseparate(sid):
    space = REG[sid]
    maps = coseparator_maps(space)
    assert maps
    v = coseparates(maps, space, budget=200, rng=random.Random(4))
    assert v.ok, (sid, v.witness)


def test_no_affine_family_separates_the_losing_arm():
    # cc_p(L@a, H@b) = H@((1-p)b) regardless of a, so any map commuting
    # with combinations is constant on the L arm; separation there is
    # impossible and the height map correctly reports expectations instead
    from girycheck.spaces import combine2

    a1 = VEE.element(("L", F(1, 4)))
    a2 = VEE.element(("L", F(3, 4)))
    b = VEE.element(("H", F(1, 2)))
    assert combine2(VEE, F(1, 2), a1, b) == combine2(VEE, F(1, 2), a2, b)
    maps = coseparator_maps(VEE)
    v = coseparates(maps, VEE, budget=200, rng=random.Random(4))
    assert not v.ok
    assert all(m(a1) == m(a2) for m in maps)


@pytest.mark.parametrize("sid", ALGEBRA_SPACES)
def test_support_condition(sid):
    v = support_condition_check(build(sid), budget=100, rng=random.Random(5))
    if REG[sid].kind.value == "geometric":
        assert v is None
    else:
        assert v is not None and v.ok, (sid, v.witness)


@pytest.mark.parametrize("sid", ALGEBRA_SPACES)
def test_induced_structure(sid):
    v = induced_structure_check(build(sid), budget=80, rng=random.Random(6))
    assert v.ok, (sid, v.witness)


@pytest.mark.parametrize("sid", ("unit_interval", "box2", "simplex3"))
def test_expectation_map_is_short(sid):
    space = REG[sid]
    v = lipschitz_check(build(sid), default_metric(space), budget=60, rng=random.Random(7))
    assert v.ok, (sid, v.witness)


def test_full_report_pass_shape():
    rep = full_report(UNIT, default_metric(UNIT), budget=60, rng=random.Random(8))
    assert isinstance(rep, AlgebraReport)
    assert rep.ok
    j = rep.to_json()
    assert j["overall"] == "pass"
    assert j["provenance"] == "geometric-barycenter"
    assert "support_condition" not in j  # no discrete direction on an interval
    assert j["compat"]["status"] in ("pass", "sampled-pass")


def test_full_report_rejection():
    rep = full_report(REG["C"], budget=60, rng=random.Random(9))
    assert isinstance(rep, Rejection)
    assert rep.to_json()["rejected"] is True


# ---------------------------------------------------------------------------
# corrupted rules must fail the right law


def test_constant_rule_fails_unit_law_at_a_landmark():
    zero = user_algebra(UNIT, lambda P: UNIT.element(0), "user-supplied")
    v = verify_unit_law(zero, budget=10, rng=random.Random(10))
    assert not v.ok
    assert v.witness == {"a": "1", "got": "0"}


def test_second_smallest_fails_mult_law():
    d4 = REG["D4-min"]

    def second_smallest(P):
        xs = sorted(support(P), key=lambda e: e.payload)
        return xs[1] if len(xs) > 1 else xs[0]

    h = user_algebra(d4, second_smallest)
    assert verify_unit_law(h).ok  # diracs are fine
    # pinned counterexample: flattening sees {0,1,2}, the inner route {1,2}
    P1 = FinMeasure.from_pairs(
        d4.id, [(d4.element(0), F(1, 2)), (d4.element(1), F(1, 2))]
    )
    P2 = dirac(d4.element(2))
    Q = MetaMeasure.from_pairs(d4.id, [(P1, F(1, 2)), (P2, F(1, 2))])
    assert h(mu(Q)) == d4.element(1)
    assert h(FinMeasure.from_pairs(d4.id, [(h(P1), F(1, 2)), (h(P2), F(1, 2))])) == d4.element(2)
    v = verify_mult_law(h, budget=300, rng=random.Random(11))
    assert not v.ok
    assert set(v.witness) == {"Q", "flatten_then_h", "h_inside_then_h"}


def test_max_of_support_on_min_space_passes_mult_but_fails_elsewhere():
    # the mult law alone does not pin down the right operator: the wrong
    # extreme satisfies it, and only the measure-aware checks reject it
    d4 = REG["D4-min"]

    def max_of_support(P):
        return max(support(P), key=lambda e: e.payload)

    h = user_algebra(d4, max_of_support)
    assert verify_unit_law(h).ok
    assert verify_mult_law(h, budget=200, rng=random.Random(12)).ok
    maps = coseparator_maps(d4)
    assert not verify_coseparator_property(h, maps, budget=200, rng=random.Random(13)).ok
    assert not induced_structure_check(h, budget=200, rng=random.Random(14)).ok


def test_weight_blind_rule_fails_coseparator_property():
    def midpoint_of_support(P):
        xs = support(P)
        return combine(UNIT, [F(1, len(xs))] * len(xs), xs)

    h = user_algebra(UNIT, midpoint_of_support)
    assert verify_unit_law(h, budget=20, rng=random.Random(15)).ok
    maps = coseparator_maps(UNIT)
    v = verify_coseparator_property(h, maps, budget=200, rng=random.Random(16))
    assert not v.ok
    assert set(v.witness) == {"P", "map", "m_of_h", "expectation"}


def test_fold_candidate_for_C_breaks_the_support_condition():
    C = REG["C"]

    def fold(P):
        xs = support(P)
        return combine(C, [F(1, len(xs))] * len(xs), xs)

    h = user_algebra(C, fold)
    v = support_condition_check(h, budget=50, rng=random.Random(17))
    assert v is not None and not v.ok
    assert v.witness == {"P": "measure on C: 0:1/2, 1:1/2", "h": "u"}


def test_wrong_branch_rule_fails_support_condition():
    # sending everything to the losing arm violates branch membership
    def to_L(P):
        total = sum(w * e.payload[1] for e, w in P.atoms)
        return VEE.element(("L", total / 2))

    h = user_algebra(VEE, to_L)
    P = FinMeasure.from_pairs(
        VEE.id,
        [(VEE.element(("H", F(1, 2))), F(1, 2)), (VEE.element(("H", F(1, 4))), F(1, 2))],
    )
    assert h(P).payload[0] == "L"
    v = support_condition_check(h, budget=300, rng=random.Random(18))
    assert v is not None and not v.ok


# ---------------------------------------------------------------------------
# the packaged counterexample


def test_counterexample_C_report():
    rep = counterexample_C(REG["C"])
    assert [tuple(i) for i in rep["ideals"]] == [("u",), ("0", "u"), ("1", "u")]
    assert rep["coseparation"]["status"] == "pass"
    assert rep["compat"]["status"] == "fail"
    assert rep["compat"]["witness"] == {
        "p": "1/2", "x": "0", "y": "1", "z": "0", "lhs": "1", "rhs": "1/2",
    }
    assert rep["support_condition"]["status"] == "fail"
    assert rep["poset"]["is_total"] is False
    assert rep["poset"]["witness"]["combines_to"] == "u"
    assert rep["rejection"]["rejected"] is True
    assert set(rep["rejection"]["reasons"]) == {"poset-not-total", "compat"}


def test_counterexample_defaults_to_builtin_C():
    assert counterexample_C() == counterexample_C(REG["C"])


# ---------------------------------------------------------------------------
# misc


def test_algebra_map_validates_inputs():
    h = build("unit_interval")
    box = REG["box2"]
    P = FinMeasure.from_pairs(box.id, [(box.element((0, 0)), F(1))])
    with pytest.raises(ValueError):
        h(P)
    bad = user_algebra(UNIT, lambda P: 17)
    with pytest.raises(ValueError):
        bad(dirac(UNIT.element(0)))


def test_vee_height_map_matches_expectations():
    maps = coseparator_maps(VEE)
    assert [m.name for m in maps] == ["height[H]"]
    m = maps[0]
    h = build("vee")
    rng = random.Random(19)
    for _ in range(60):
        P = random_measure(rng, VEE)
        assert as_ext(m(h(P))) == _expect(P, m)


def _expect(P, m):
    from girycheck.measures import expectation_functional

    return expectation_functional(P, m)
