import hashlib
import math
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from girycheck import metric_ot
from girycheck.extvalue import INF, ZERO, ExtValue
from girycheck.measures import FinMeasure, dirac
from girycheck.metric_ot import (
    brute_force_wasserstein,
    compat_check_2pt,
    compat_check_4pt,
    default_metric,
    discrete_metric,
    equiv_check,
    extended_abs_metric,
    glued_path_metric,
    l1_metric,
    linf_metric,
    order_metric,
    product_sum_metric,
    table_metric,
    wasserstein,
)
from girycheck.sampling import random_measure
from girycheck.spaces import Element, builtin_spaces, product_space
from generators import (
    arm_payloads, random_arm_tree, random_discrete_metric, random_finite_discrete_space,
)
import reference

REG = builtin_spaces()
UNIT = REG["unit_interval"]
UMETRIC = l1_metric(UNIT)


def unit_measure(*pairs):
    return FinMeasure.from_pairs(UNIT.id, [(UNIT.element(F(x)), F(w)) for x, w in pairs])


# ---------------------------------------------------------------------------
# metrics


def test_l1_metric_values():
    assert UMETRIC(UNIT.element(0), UNIT.element(F(3, 4))) == ExtValue(F(3, 4))
    box = REG["box2"]
    bm = l1_metric(box)
    assert bm(box.element((0, 0)), box.element((1, F(1, 2)))) == ExtValue(F(3, 2))
    lm = linf_metric(box)
    assert lm(box.element((0, 0)), box.element((1, F(1, 2)))) == ExtValue(1)


def test_discrete_and_order_metrics():
    chain = REG["chain-max"]
    dm = discrete_metric(chain)
    assert dm(chain.element("a"), chain.element("a")) == ZERO
    assert dm(chain.element("a"), chain.element("b")) == ExtValue(1)
    om = order_metric(chain)
    assert om(chain.element("a"), chain.element("d")) == ExtValue(3)


def test_extended_abs_metric():
    rinf = REG["rinf-grid"]
    m = extended_abs_metric(rinf)
    assert m(rinf.element(INF), rinf.element(INF)) == ZERO
    assert m(rinf.element(F(2)), rinf.element(INF)).is_inf
    assert m(rinf.element(F(-1)), rinf.element(F(3))) == ExtValue(4)


def test_table_metric_validates():
    two = REG["two"]
    e0, e1 = two.element("0"), two.element("1")
    tm = table_metric(two, {("0", "1"): F(5)})
    assert tm(e1, e0) == ExtValue(5)
    assert tm(e0, e1) == ExtValue(5)
    assert tm(e0, e0) == ZERO


def test_product_sum_metric():
    gd = REG["GxD"]
    m = product_sum_metric(gd)
    x = gd.element((0, 0))
    y = gd.element((F(1, 2), 3))
    assert m(x, y) == ExtValue(F(1, 2) + 3)


def test_glued_path_metric_on_vee():
    vee = REG["vee"]
    m = glued_path_metric(vee)
    same = m(vee.element(("H", F(1, 4))), vee.element(("H", F(3, 4))))
    assert same == ExtValue(F(1, 2))
    cross = m(vee.element(("L", F(1, 4))), vee.element(("H", F(3, 4))))
    # through the glue point at the origin of both arms
    assert cross == ExtValue(1)
    glue = m(vee.element(("L", F(0))), vee.element(("H", F(0))))
    assert glue == ZERO


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_glued_path_metric_is_the_tree_distance_on_random_arm_trees(seed):
    rng = random.Random(seed)
    space = random_arm_tree(rng)
    d = glued_path_metric(space)
    points = [space.element(p) for p in rng.sample(arm_payloads(space), 5)]
    for x in points:
        assert d(x, x) == ZERO
        for y in points:
            want = reference.tree_distance(space.carrier, x.payload, y.payload)
            if want is None:
                for a, b in ((x, y), (y, x)):
                    with pytest.raises(ValueError, match="^no identified glue point between"):
                        d(a, b)
            else:
                assert d(x, y) == d(y, x) == want


def test_metric_axioms_sampled():
    rng = random.Random(3)
    for sid in ("unit_interval", "box2", "simplex3", "vee", "rinf-grid", "GxD"):
        space = REG[sid]
        metric = default_metric(space)
        pts = [space.sample_element(rng) for _ in range(12)]
        for x in pts:
            assert metric(x, x) == ZERO
        for x, y in combinations(pts, 2):
            assert metric(x, y) == metric(y, x)
            assert (metric(x, y) == ZERO) == (x == y)
        for x, y, z in combinations(pts, 3):
            assert metric(x, z) <= metric(x, y) + metric(y, z)


def test_metric_rejects_foreign_elements():
    with pytest.raises(ValueError):
        UMETRIC(UNIT.element(0), REG["box2"].element((0, 0)))


# ---------------------------------------------------------------------------
# compatibility checks


def test_interval_metric_is_compatible():
    v = compat_check_2pt(UNIT, UMETRIC, budget=300, rng=random.Random(0))
    assert v.ok
    v4 = compat_check_4pt(UNIT, UMETRIC, budget=300, rng=random.Random(0))
    assert v4.ok


def test_every_multipoint_discrete_space_fails_compat():
    for sid in ("two", "C", "chain-max", "D4-min", "N-min"):
        space = REG[sid]
        v = compat_check_2pt(space, default_metric(space))
        assert not v.ok, sid
        assert v.status == "fail"


def test_single_point_space_is_trivially_compatible():
    point = REG["point"]
    v = compat_check_2pt(point, default_metric(point))
    assert v.ok and v.status == "pass"


def test_C_compat_witness_is_pinned():
    v = compat_check_2pt(REG["C"], default_metric(REG["C"]))
    assert v.witness == {"p": "1/2", "x": "0", "y": "1", "z": "0", "lhs": "1", "rhs": "1/2"}


def test_extended_grid_passes_compat():
    rinf = REG["rinf-grid"]
    v = compat_check_2pt(rinf, extended_abs_metric(rinf), budget=250, rng=random.Random(1))
    assert v.ok
    v4 = compat_check_4pt(rinf, extended_abs_metric(rinf), budget=250, rng=random.Random(1))
    assert v4.ok


def test_two_point_and_four_point_agree_on_builtins():
    rng = random.Random(4)
    for sid, space in sorted(REG.items()):
        v = equiv_check(space, default_metric(space), budget=150, rng=rng)
        assert v.ok, (sid, v.witness)


def test_equiv_on_random_discrete_spaces():
    rng = random.Random(5)
    for k in range(20):
        space = random_finite_discrete_space(rng, f"rand{k}")
        metric = table_metric(space, random_discrete_metric(rng, space.carrier.labels))
        v = equiv_check(space, metric, budget=100, rng=rng)
        assert v.ok, (k, v.witness)


# ---------------------------------------------------------------------------
# exact transport


def test_wasserstein_simple_pinned_value():
    P = dirac(UNIT.element(0))
    Q = unit_measure((0, F(1, 2)), (1, F(1, 2)))
    res = wasserstein(P, Q, UMETRIC)
    assert res.cost == ExtValue(F(1, 2))
    assert res.method == "lp"
    assert res.plan.marginals_ok()
    brute = brute_force_wasserstein(P, Q, UMETRIC)
    assert brute.cost == res.cost
    assert brute.method == "brute"


def test_wasserstein_zero_iff_equal():
    rng = random.Random(6)
    for _ in range(40):
        P = random_measure(rng, UNIT)
        Q = random_measure(rng, UNIT)
        res = wasserstein(P, Q, UMETRIC)
        assert (res.cost == ZERO) == (P == Q)
        assert wasserstein(P, P, UMETRIC).cost == ZERO


def test_wasserstein_symmetry():
    rng = random.Random(7)
    for _ in range(40):
        P = random_measure(rng, UNIT)
        Q = random_measure(rng, UNIT)
        assert wasserstein(P, Q, UMETRIC).cost == wasserstein(Q, P, UMETRIC).cost


def test_wasserstein_triangle_inequality():
    rng = random.Random(8)
    for _ in range(25):
        P, Q, R = (random_measure(rng, UNIT) for _ in range(3))
        pq = wasserstein(P, Q, UMETRIC).cost
        qr = wasserstein(Q, R, UMETRIC).cost
        pr = wasserstein(P, R, UMETRIC).cost
        assert pr <= pq + qr


def test_wasserstein_on_diracs_is_the_ground_metric():
    rng = random.Random(9)
    for sid in ("unit_interval", "box2", "vee", "rinf-grid"):
        space = REG[sid]
        metric = default_metric(space)
        for _ in range(20):
            x, y = space.sample_element(rng), space.sample_element(rng)
            assert wasserstein(dirac(x), dirac(y), metric).cost == metric(x, y)


def test_lp_matches_brute_force_everywhere():
    rng = random.Random(10)
    spaces = ["unit_interval", "box2", "simplex3", "chain-max", "vee", "GxD", "rinf-grid"]
    infinite = 0
    for _ in range(120):
        space = REG[spaces[rng.randrange(len(spaces))]]
        metric = default_metric(space)
        P = random_measure(rng, space, 4)
        Q = random_measure(rng, space, 4)
        lp = wasserstein(P, Q, metric)
        bf = brute_force_wasserstein(P, Q, metric)
        assert lp.cost == bf.cost, (space.id, P, Q)
        assert lp.plan.marginals_ok() and bf.plan.marginals_ok()
        assert lp.plan.cost(metric) == lp.cost
        assert bf.plan.cost(metric) == bf.cost
        infinite += lp.cost.is_inf
    assert infinite  # the folded infinite-units term is exercised


def test_infinite_distance_returns_independent_coupling():
    rinf = REG["rinf-grid"]
    metric = extended_abs_metric(rinf)
    P = FinMeasure.from_pairs(
        rinf.id, [(rinf.element(INF), F(1, 2)), (rinf.element(F(0)), F(1, 2))]
    )
    Q = dirac(rinf.element(F(1)))
    for solver in (wasserstein, brute_force_wasserstein):
        res = solver(P, Q, metric)
        assert res.cost.is_inf
        assert res.plan.marginals_ok()
        # independent coupling: joint mass is the product of marginals
        for e, w in res.plan.joint.atoms:
            xw = P.mass(rinf.element(e.payload[0]))
            yw = Q.mass(rinf.element(e.payload[1]))
            assert w == xw * yw


def test_infinite_points_fine_when_matched():
    rinf = REG["rinf-grid"]
    metric = extended_abs_metric(rinf)
    P = FinMeasure.from_pairs(
        rinf.id, [(rinf.element(INF), F(1, 4)), (rinf.element(F(0)), F(3, 4))]
    )
    Q = FinMeasure.from_pairs(
        rinf.id, [(rinf.element(INF), F(1, 4)), (rinf.element(F(2)), F(3, 4))]
    )
    res = wasserstein(P, Q, metric)
    assert res.cost == ExtValue(F(3, 2))
    assert brute_force_wasserstein(P, Q, metric).cost == res.cost


def test_infinite_units_outweigh_the_largest_finite_cost():
    # sending -4 to inf and inf to 4 costs two infinite units, which must lose
    # to moving -4 to 4 at the largest finite cost on the grid
    rinf = REG["rinf-grid"]
    metric = extended_abs_metric(rinf)
    P = FinMeasure.from_pairs(
        rinf.id, [(rinf.element(INF), F(1, 2)), (rinf.element(F(-4)), F(1, 2))]
    )
    Q = FinMeasure.from_pairs(
        rinf.id, [(rinf.element(INF), F(1, 2)), (rinf.element(F(4)), F(1, 2))]
    )
    res = wasserstein(P, Q, metric)
    assert res.cost == ExtValue(4)
    assert brute_force_wasserstein(P, Q, metric).cost == res.cost


def _check_both_solvers(P, Q, metric, cost):
    for solver in (wasserstein, brute_force_wasserstein):
        res = solver(P, Q, metric)
        assert res.cost == cost, solver.__name__
        assert res.plan.marginals_ok()
        assert res.plan.cost(metric) == cost
        if cost.is_inf:
            # independent coupling: joint mass is the product of marginals
            joint = res.plan.joint
            assert len(joint.atoms) == len(P.atoms) * len(Q.atoms)
            for e, w in joint.atoms:
                x, y = (Element(P.space_id, p) for p in e.payload)
                assert w == P.mass(x) * Q.mass(y)


def test_every_pair_at_infinite_distance():
    # no cell has a finite cost, so the finite costs are all 0 over cost_den 1
    rinf = REG["rinf-grid"]
    metric = extended_abs_metric(rinf)
    P = dirac(rinf.element(INF))
    _check_both_solvers(P, dirac(rinf.element(F(0))), metric, INF)
    Q = FinMeasure.from_pairs(
        rinf.id, [(rinf.element(F(-1)), F(1, 3)), (rinf.element(F(2)), F(2, 3))]
    )
    _check_both_solvers(Q, P, metric, INF)
    # 2x2 needs two coordinates: one infinite coordinate per side, crossed
    plane = product_space(rinf, rinf, "rinf-plane")
    metric = product_sum_metric(plane)
    P = FinMeasure.from_pairs(
        plane.id,
        [(plane.element((INF, F(0))), F(1, 4)), (plane.element((INF, F(1))), F(3, 4))],
    )
    Q = FinMeasure.from_pairs(
        plane.id,
        [(plane.element((F(0), INF)), F(2, 5)), (plane.element((F(-3), INF)), F(3, 5))],
    )
    _check_both_solvers(P, Q, metric, INF)


def test_equal_measures_and_single_atoms():
    box = REG["box2"]
    metric = l1_metric(box)
    x = box.element((F(1, 3), F(1, 2)))
    # one cell of cost 0: every finite cost is 0
    _check_both_solvers(dirac(x), dirac(x), metric, ZERO)
    _check_both_solvers(dirac(x), dirac(box.element((1, 0))), metric, ExtValue(F(7, 6)))
    P = FinMeasure.from_pairs(
        box.id,
        [(x, F(1, 6)), (box.element((0, 1)), F(1, 2)), (box.element((1, 1)), F(1, 3))],
    )
    _check_both_solvers(P, P, metric, ZERO)
    rinf = REG["rinf-grid"]
    inf = dirac(rinf.element(INF))
    _check_both_solvers(inf, inf, extended_abs_metric(rinf), ZERO)


def test_marginals_are_exactly_the_inputs():
    rng = random.Random(11)
    for _ in range(40):
        P = random_measure(rng, UNIT, 4)
        Q = random_measure(rng, UNIT, 4)
        plan = wasserstein(P, Q, UMETRIC).plan
        assert plan.left == P and plan.right == Q
        assert plan.marginal("left") == P
        assert plan.marginal("right") == Q


def _distinct_measure(rng, space, k):
    """k distinct points from the space's sampler with weights 1..9 over
    their sum."""
    points = {}
    while len(points) < k:
        points.setdefault(space.sample_element(rng), None)
    ws = [rng.randint(1, 9) for _ in range(k)]
    return FinMeasure.from_pairs(space.id, [(e, F(w, sum(ws))) for e, w in zip(points, ws)])


@pytest.mark.parametrize("sid", ["box2", "simplex3", "rinf-grid", "unit_interval"])
def test_the_joint_measure_is_built_in_canonical_order(sid):
    # _finish builds the joint straight from the plan in (i, j) order, with
    # no pass through from_pairs; from_pairs must find nothing to reorder
    space, rng = REG[sid], random.Random(f"joint/{sid}")
    metric = default_metric(space)
    costs = set()
    for _ in range(12):
        P, Q = (_distinct_measure(rng, space, rng.randint(4, 16)) for _ in range(2))
        small = [_distinct_measure(rng, space, rng.randint(1, 4)) for _ in range(2)]
        for result in (wasserstein(P, Q, metric), brute_force_wasserstein(*small, metric)):
            joint = result.plan.joint
            assert FinMeasure.from_pairs(joint.space_id, joint.atoms) == joint
            assert result.plan.marginals_ok()
            costs.add(result.cost.is_inf)
    assert costs == ({False, True} if sid == "rinf-grid" else {False})


def test_degenerate_equal_masses():
    # equal cumulative masses force degenerate pivots in the simplex
    P = unit_measure((0, F(1, 3)), (F(1, 2), F(1, 3)), (1, F(1, 3)))
    Q = unit_measure((F(1, 4), F(1, 3)), (F(3, 4), F(1, 3)), (F(1, 2), F(1, 3)))
    res = wasserstein(P, Q, UMETRIC)
    assert res.cost == brute_force_wasserstein(P, Q, UMETRIC).cost
    assert res.plan.marginals_ok()


def test_brute_force_support_cap():
    P = unit_measure((0, F(1, 5)), (F(1, 4), F(1, 5)), (F(1, 2), F(1, 5)),
                     (F(3, 4), F(1, 5)), (1, F(1, 5)))
    with pytest.raises(ValueError):
        brute_force_wasserstein(P, P, UMETRIC)


def test_wasserstein_requires_same_space():
    P = dirac(UNIT.element(0))
    Q = dirac(REG["box2"].element((0, 0)))
    with pytest.raises(ValueError):
        wasserstein(P, Q, UMETRIC)


# ---------------------------------------------------------------------------
# the simplex's pivot path, pinned to the rational solver's


def _raw_point(rng, sid):
    if sid == "box2":
        return (F(rng.randint(0, 64), 64), F(rng.randint(0, 64), 64))
    k = rng.randint(-16, 17)  # rinf-grid: quarter steps on [-4, 4], plus inf
    return INF if k == 17 else ExtValue(F(k, 4))


def _raw_measure(rng, sid, k):
    """k distinct points with weights 1..9 over their sum, as the benchmark's
    transport inputs are drawn."""
    points = {}
    while len(points) < k:
        points.setdefault(_raw_point(rng, sid), None)
    ws = [rng.randint(1, 9) for _ in range(k)]
    return [(p, F(w, sum(ws))) for p, w in zip(points, ws)]


def _matched_infinity(rng, k):
    """k finite rinf-grid points carrying 3/4 of the mass, and inf the rest."""
    ws = [rng.randint(1, 9) for _ in range(k)]
    cuts = rng.sample(range(-16, 17), k)
    return [(ExtValue(F(c, 4)), F(3 * w, 4 * sum(ws))) for c, w in zip(cuts, ws)] + [
        (INF, F(1, 4))
    ]


def _measure(sid, raw):
    space = REG[sid]
    return FinMeasure.from_pairs(sid, [(space.element(p), w) for p, w in raw])


def _pinned_instances():
    rng = random.Random("ladder/1")
    for k in (8, 16, 24, 32):
        yield f"box2/{k}", "box2", _raw_measure(rng, "box2", k), _raw_measure(rng, "box2", k)
    rng = random.Random("rinf/8")  # unequal infinite masses: the cost is inf
    p, q = _raw_measure(rng, "rinf-grid", 20), _raw_measure(rng, "rinf-grid", 20)
    yield "rinf-grid/inf", "rinf-grid", p, q
    rng = random.Random("rinf/2")
    yield "rinf-grid/matched", "rinf-grid", _matched_infinity(rng, 20), _matched_infinity(rng, 20)


# pivot count and sha256 of the sorted plan text, taken from the rational solver
PINNED_PIVOT_PATHS = {
    "box2/8": (14, "8030c00f0df01102e54f78df84cd2653afe160fe4ad2811679a95da164105f0d"),
    "box2/16": (79, "d7ed25f6aa5be00a340a7cf6f1a1f5a53714b1f3a83ebfa24234254453d88c3b"),
    "box2/24": (267, "5e469d357f99b7654610707a244bb225a3424554a03129cc424ebd61d4f8b71b"),
    "box2/32": (305, "ecf76560f6db19304dd73715ce10847d04ec2b94630bfca17d5169ce74756872"),
    "rinf-grid/inf": (74, "a7e04798ecf1fa6277d6a106a5025fffaeec846bf923645d0d38d1d98ffba981"),
    "rinf-grid/matched": (6, "18e0e625d6b21a9423b2dd9ff36afa04b00f352f70825025b737d53f778533ea"),
}


def test_pivot_path_is_pinned(monkeypatch):
    pivots = [0]
    pivot = metric_ot._pivot

    def counting(*args):
        pivots[0] += 1
        return pivot(*args)

    monkeypatch.setattr(metric_ot, "_pivot", counting)
    seen = {}
    for name, sid, p_raw, q_raw in _pinned_instances():
        pivots[0] = 0
        res = wasserstein(_measure(sid, p_raw), _measure(sid, q_raw), default_metric(REG[sid]))
        text = "\n".join(sorted(f"{e.payload[0]} {e.payload[1]} {w}" for e, w in res.plan.joint.atoms))
        seen[name] = (pivots[0], hashlib.sha256(text.encode()).hexdigest())
    assert seen == PINNED_PIVOT_PATHS


# ---------------------------------------------------------------------------
# the one tree walk per pivot, against the definitions of its outputs


@st.composite
def _spanning_trees(draw):
    """A random spanning tree of K(n, m) as a simplex basis, its cells in
    random order, with int costs folded as the simplex folds them: negative
    finite parts, and cells of infinite units at magnitude big."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = draw(st.permutations([(i, j) for i in range(n) for j in range(m)]))
    parent = list(range(n + m))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    basis = []
    for i, j in cells:
        ra, rb = find(i), find(n + j)
        if ra != rb:
            parent[ra] = rb
            basis.append([i, j, 1])
    units = draw(st.lists(st.integers(0, 1), min_size=n * m, max_size=n * m))
    finite = draw(st.lists(st.integers(-1000, 1000), min_size=n * m, max_size=n * m))
    big = 2 * (n + m) * max(abs(f) for f in finite) + 1
    costs = [[units[i * m + j] * big + finite[i * m + j] for j in range(m)] for i in range(n)]
    return n, m, basis, costs


@settings(max_examples=150, deadline=None)
@given(tree=_spanning_trees())
def test_tree_walk_gives_potentials_and_tree_paths(tree):
    n, m, basis, costs = tree
    pot, link, depth = metric_ot._tree_walk(basis, costs, n, m)
    # potentials: 0 at row 0 and u_i + v_j = c_ij on every basic cell
    assert pot[0] == 0
    assert all(pot[i] + pot[n + j] == costs[i][j] for i, j, _ in basis)
    basic = {(i, j) for i, j, _ in basis}
    for i, j in product(range(n), range(m)):
        if (i, j) in basic:
            continue
        # with the entering cell, the path closes one cycle: from row i it
        # alternates rows and columns along basic cells, through distinct
        # nodes, to column j
        node, seen = i, {i}
        for k in metric_ot._basis_path(link, depth, i, n + j):
            r, c, _ = basis[k]
            node = n + c if node == r else r if node == n + c else None
            assert node is not None and node not in seen
            seen.add(node)
        assert node == n + j


def test_tree_walk_refuses_a_disconnected_basis():
    # two cells of a 2x2 instance leave row 1 and column 1 unreached
    with pytest.raises(RuntimeError, match="lost connectivity"):
        metric_ot._tree_walk([[0, 0, 1], [1, 1, 1]], [[0, 1], [1, 0]], 2, 2)


# ---------------------------------------------------------------------------
# a min-cost-flow oracle for supports beyond the brute force's reach


def _flow_cost(P, Q, metric):
    """W1 by networkx on the instance scaled to integers here: a maximum flow
    over the finite-cost edges decides whether a finite plan exists, and
    min_cost_flow_cost then gives the optimum."""
    nx = pytest.importorskip("networkx")
    xs, ys = P.atoms, Q.atoms
    mass_scale = math.lcm(*(w.denominator for _, w in xs + ys))
    finite = {}
    for i, (x, _) in enumerate(xs):
        for j, (y, _) in enumerate(ys):
            d = metric(x, y)
            if not d.is_inf:
                finite[i, j] = d.value
    cost_scale = math.lcm(*(c.denominator for c in finite.values()))
    g = nx.DiGraph()
    for side, atoms, sign in (("x", xs, -1), ("y", ys, 1)):
        for i, (_, w) in enumerate(atoms):
            units = w.numerator * mass_scale // w.denominator
            g.add_node((side, i), demand=sign * units)
            g.add_edge(*(("s", ("x", i)) if side == "x" else (("y", i), "t")), capacity=units)
    for (i, j), c in finite.items():
        g.add_edge(("x", i), ("y", j), weight=c.numerator * cost_scale // c.denominator)
    if nx.maximum_flow_value(g, "s", "t") < mass_scale:
        return INF
    g.remove_nodes_from(["s", "t"])
    return ExtValue(F(nx.min_cost_flow_cost(g), mass_scale * cost_scale))


_GRID64 = st.integers(0, 64).map(lambda k: F(k, 64))
_POINTS = {
    "box2": st.tuples(_GRID64, _GRID64),
    "unit_interval": _GRID64,
    "simplex3": st.lists(st.integers(1, 9), min_size=3, max_size=3).map(
        lambda cs: tuple(F(c, sum(cs)) for c in cs)
    ),
    "rinf-grid": st.integers(-16, 17).map(lambda k: INF if k == 17 else ExtValue(F(k, 4))),
}


@st.composite
def _measure_pairs(draw):
    sid = draw(st.sampled_from(sorted(_POINTS)))

    def measure():
        k = draw(st.integers(5, 32))
        points = draw(st.lists(_POINTS[sid], min_size=k, max_size=k, unique=True))
        ws = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        return _measure(sid, [(p, F(w, sum(ws))) for p, w in zip(points, ws)])

    return sid, measure(), measure()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=_measure_pairs())
def test_wasserstein_matches_min_cost_flow(instance):
    sid, P, Q = instance
    metric = default_metric(REG[sid])
    res = wasserstein(P, Q, metric)
    assert res.cost == _flow_cost(P, Q, metric)
    assert res.plan.marginals_ok()
    assert res.plan.cost(metric) == res.cost


def test_wasserstein_support_cap():
    P = _measure("box2", _raw_measure(random.Random("cap/64"), "box2", 64))
    Q = _measure("box2", _raw_measure(random.Random("cap/64/q"), "box2", 64))
    metric = default_metric(REG["box2"])
    big = _measure("box2", _raw_measure(random.Random("cap/65"), "box2", 65))
    for args in ((big, Q), (P, big)):
        with pytest.raises(ValueError):
            wasserstein(*args, metric)
    res = wasserstein(P, Q, metric)
    assert res.plan.marginals_ok()
    assert res.cost == _flow_cost(P, Q, metric)
