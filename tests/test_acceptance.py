"""Release gate: ten end-to-end checks, one per shipping requirement.

Each test prints a single PASS/FAIL line to the real terminal (capture is
bypassed) so a full run shows the checklist at a glance.  Every numeric
comparison below is exact Fraction/ExtValue equality; the only tolerances
anywhere are the wall-clock ceilings asserted inline.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import combinations

from girycheck.algebra import (
    Rejection,
    build_algebra,
    coseparator_maps,
    counterexample_C,
    verify_coseparator_property,
    verify_mult_law,
    verify_unit_law,
)
from girycheck.extvalue import ext_sum
from girycheck.fields import (
    agreement_check,
    ev_block,
    ev_field,
    field_join,
    generate_field,
    same_members,
)
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
)
from girycheck.metric_ot import (
    brute_force_wasserstein,
    discrete_metric,
    equiv_check,
    l1_metric,
    table_metric,
    wasserstein,
)
from girycheck.registry import builtin_registry
from girycheck.sampling import random_measure, random_meta
from girycheck.spaces import (
    as_ext,
    char_map,
    coseparates,
    enumerate_ideals,
    is_ideal,
    labels_space,
)
from generators import random_discrete_metric, random_finite_discrete_space, random_tower

REGISTRY = builtin_registry()
SPACE = REGISTRY.space
METRIC = REGISTRY.metric

# every builtin that ships with an expectation operator
ALGEBRA_SPACES = (
    "unit_interval",
    "box2",
    "simplex3",
    "rinf-grid",
    "rplus-grid",
    "N-min",
    "chain-max",
    "GxD",
    "vee",
)
GEOMETRIC = ("unit_interval", "box2", "simplex3")


def _line(capfd, num, label, ok, detail=""):
    with capfd.disabled():
        tail = f" ({detail})" if detail else ""
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}{tail}", flush=True)


# ---------------------------------------------------------------------------
# 1. monad laws


def test_criterion_01_monad_laws(capfd):
    spaces = [SPACE(s) for s in ("unit_interval", "chain-max", "vee", "GxD", "rinf-grid")]
    rng = random.Random(101)
    failures = []
    t0 = time.perf_counter()
    for i in range(500):
        s = spaces[i % len(spaces)]
        P = random_measure(rng, s, max_atoms=5)
        if mu(dirac_meta(P)) != P:
            failures.append(("left-unit", s.id, i))
    for i in range(500):
        s = spaces[i % len(spaces)]
        P = random_measure(rng, s, max_atoms=5)
        pointwise = MetaMeasure.from_pairs(s.id, [(dirac(e), w) for e, w in P.atoms])
        if mu(pointwise) != P:
            failures.append(("right-unit", s.id, i))
    for i in range(500):
        s = spaces[i % len(spaces)]
        ws, metas = random_tower(rng, s)
        outer_first = mu(mix_meta(ws, metas))
        inner_first = convex_combine_measures(ws, [mu(M) for M in metas])
        if outer_first != inner_first:
            failures.append(("associativity", s.id, i))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _line(capfd, 1, "monad laws exact on 500 seeded instances per law", ok, f"{elapsed:.2f}s")
    assert not failures, failures[:3]
    assert elapsed < 5.0, f"monad-law suite took {elapsed:.2f}s, ceiling is 5s"


# ---------------------------------------------------------------------------
# 2. algebra laws on every shipped operator


def test_criterion_02_algebra_laws(capfd):
    failures = []
    t0 = time.perf_counter()
    for sid in ALGEBRA_SPACES:
        space = SPACE(sid)
        h = build_algebra(space, METRIC(sid))
        if isinstance(h, Rejection):
            failures.append((sid, "rejected", h.reason_names()))
            continue
        checks = (
            ("unit", verify_unit_law(h, budget=200, rng=random.Random(f"c2u/{sid}"))),
            ("mult", verify_mult_law(h, budget=300, rng=random.Random(f"c2m/{sid}"))),
            (
                "coseparator",
                verify_coseparator_property(
                    h, coseparator_maps(space), budget=200, rng=random.Random(f"c2c/{sid}")
                ),
            ),
        )
        failures += [(sid, name, v.witness) for name, v in checks if not v.ok]

    # pin one infinity-valued characteristic-map case explicitly: the check
    # above must have covered expectations that are actually infinite
    nmin = SPACE("N-min")
    h = build_algebra(nmin, METRIC("N-min"))
    chi = char_map(nmin, enumerate_ideals(nmin)[0])
    P = FinMeasure.from_pairs(nmin.id, [(nmin.element(0), F(1, 2)), (nmin.element(5), F(1, 2))])
    lhs, rhs = as_ext(chi(h(P))), expectation_functional(P, chi)
    if not (lhs.is_inf and lhs == rhs):
        failures.append(("N-min", "inf-char-map", (str(lhs), str(rhs))))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _line(capfd, 2, "algebra laws exact on the 9 shipped operators", ok, f"{elapsed:.2f}s")
    assert not failures, failures[:3]
    assert elapsed < 30.0, f"algebra-law suite took {elapsed:.2f}s, ceiling is 30s"


# ---------------------------------------------------------------------------
# 3. the collapse space is rejected, with both obstructions


def test_criterion_03_collapse_space_rejected(capfd):
    C = SPACE("C")
    rej = build_algebra(C, METRIC("C"))
    ok = isinstance(rej, Rejection) and rej.reason_names() == ("poset-not-total", "compat")
    if ok:
        reasons = dict(rej.reasons)
        ok = reasons["poset-not-total"].witness == {
            "x": "0",
            "y": "1",
            "combines_to": "u",
            "p": "1/2",
        } and reasons["compat"].witness == {
            "p": "1/2",
            "x": "0",
            "y": "1",
            "z": "0",
            "lhs": "1",
            "rhs": "1/2",
        }
    # the packaged report must carry the same exact fractions
    rep = counterexample_C(C)
    ok = ok and rep["compat"]["witness"]["lhs"] == "1" and rep["compat"]["witness"]["rhs"] == "1/2"
    _line(capfd, 3, "collapse space rejected with both exact witnesses", ok)
    assert ok, rej


# ---------------------------------------------------------------------------
# 4. ideals and coseparation on the collapse space, against brute force


def test_criterion_04_ideals_and_coseparation(capfd):
    C = SPACE("C")
    elems = C.enumerate_elements()
    ideals = enumerate_ideals(C)
    named = [tuple(C.point_str(e) for e in I.member_list()) for I in ideals]

    brute = {
        frozenset(combo)
        for r in range(1, len(elems))
        for combo in combinations(elems, r)
        if is_ideal(C, frozenset(combo))
    }

    maps = [char_map(C, I) for I in ideals]
    cosep = coseparates(maps=maps, space=C)
    pairwise = all(any(m(x) != m(y) for m in maps) for x, y in combinations(elems, 2))

    ok = (
        named == [("u",), ("0", "u"), ("1", "u")]
        and {I.members for I in ideals} == brute
        and cosep.ok
        and pairwise
    )
    _line(capfd, 4, "ideal enumeration and coseparation match brute force", ok)
    assert ok, (named, len(brute), cosep.status, pairwise)


# ---------------------------------------------------------------------------
# 5. transport solver agrees with vertex enumeration


def test_criterion_05_transport_matches_brute_force(capfd):
    pool = [
        (SPACE("unit_interval"), l1_metric(SPACE("unit_interval"))),
        (SPACE("box2"), l1_metric(SPACE("box2"))),
        (SPACE("simplex3"), l1_metric(SPACE("simplex3"))),
        (SPACE("two"), discrete_metric(SPACE("two"))),
        (SPACE("chain-max"), discrete_metric(SPACE("chain-max"))),
        (SPACE("D4-min"), discrete_metric(SPACE("D4-min"))),
    ]
    rng = random.Random(505)
    failures = []
    for i in range(300):
        space, metric = pool[i % len(pool)]
        P = random_measure(rng, space, max_atoms=4)
        Q = random_measure(rng, space, max_atoms=4)
        lp = wasserstein(P, Q, metric)
        br = brute_force_wasserstein(P, Q, metric)
        if lp.cost != br.cost:
            failures.append((space.id, i, str(lp.cost), str(br.cost)))
        if not (lp.plan.marginals_ok() and br.plan.marginals_ok()):
            failures.append((space.id, i, "marginals"))
        if lp.plan.cost(metric) != lp.cost:
            failures.append((space.id, i, "plan-cost"))
    ok = not failures
    _line(capfd, 5, "solver cost equals brute-force cost on 300 instances", ok)
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# 6. the operator is a contraction for transport distance


def test_criterion_06_operator_is_short(capfd):
    rng = random.Random(606)
    failures = []
    for i in range(500):
        sid = GEOMETRIC[i % len(GEOMETRIC)]
        space = SPACE(sid)
        metric = METRIC(sid)
        h = build_algebra(space, metric)
        P = random_measure(rng, space, max_atoms=4)
        Q = random_measure(rng, space, max_atoms=4)
        lhs = metric(h(P), h(Q))
        rhs = wasserstein(P, Q, metric).cost
        if not lhs <= rhs:
            failures.append((sid, i, str(lhs), str(rhs)))
    ok = not failures
    _line(capfd, 6, "d(h(P), h(Q)) <= transport distance on 500 pairs", ok)
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# 7. two-point and four-point compatibility always agree


def test_criterion_07_compat_scans_agree(capfd):
    failures = []
    for sid in REGISTRY.ids():
        v = equiv_check(SPACE(sid), METRIC(sid))
        if not v.ok:
            failures.append((sid, v.witness))
    rng = random.Random(707)
    for i in range(50):
        space = random_finite_discrete_space(rng, f"rnd{i}")
        metric = table_metric(space, random_discrete_metric(rng, space.carrier.labels))
        v = equiv_check(space, metric)
        if not v.ok:
            failures.append((space.id, v.witness))
    ok = not failures
    _line(capfd, 7, "2pt/4pt verdicts agree on builtins + 50 random spaces", ok)
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# 8. expectation is affine in the measure, infinities included


def test_criterion_08_expectation_affine_in_measure(capfd):
    pool = [SPACE(s) for s in ("N-min", "chain-max", "rinf-grid", "unit_interval")]
    maps_by_space = {s.id: coseparator_maps(s) for s in pool}
    rng = random.Random(808)
    failures = []
    inf_cases = 0
    for i in range(300):
        space = pool[i % len(pool)]
        Q = random_meta(rng, space, max_outer=4, max_atoms=4)
        m = rng.choice(maps_by_space[space.id])
        lhs = expectation_functional(mu(Q), m)
        rhs = ext_sum(w * expectation_functional(P, m) for P, w in Q.atoms)
        if lhs != rhs:
            failures.append((space.id, i, str(lhs), str(rhs)))
        if lhs.is_inf:
            inf_cases += 1
    ok = not failures and inf_cases >= 30
    _line(capfd, 8, "mixture expectations exact on 300 pairs", ok, f"{inf_cases} infinite")
    assert not failures, failures[:3]
    assert inf_cases >= 30, f"only {inf_cases} infinite-valued cases, need 30"


# ---------------------------------------------------------------------------
# 9. set fields: counting, diagonal join, agreement transfer


def test_criterion_09_fields_suite(capfd):
    failures = []

    # member count is 2^atoms, by enumeration, for a battery of fields
    rng = random.Random(909)
    scheme = [(1, 0, 1), (3, 2, 4), (5, 3, 6), (8, 4, 6), (12, 5, 8)]
    for u_size, n_gens, reps in scheme:
        universe = tuple(range(u_size))
        for r in range(reps):
            gens = [
                frozenset(x for x in universe if rng.getrandbits(1)) for _ in range(n_gens)
            ]
            f = generate_field(universe, gens)
            distinct = set(f.members())
            if len(distinct) != 2 ** len(f.atoms) or f.member_count != len(distinct):
                failures.append(("count", u_size, n_gens, r))
    edge = generate_field((0, 1, 2), [frozenset(), frozenset((0, 1, 2))])
    if set(edge.members()) != {frozenset(), frozenset((0, 1, 2))}:
        failures.append(("count", "degenerate-generators"))

    # the diagonal evaluation field is the join of its blocks, member for member
    two = SPACE("two")
    coins = [
        FinMeasure.from_pairs(
            two.id, [(two.element("1"), F(j, 4)), (two.element("0"), 1 - F(j, 4))]
        )
        for j in range(5)
    ]
    U0, U1 = {two.element("1")}, {two.element("0")}
    diag = ev_field(coins, [U0, U1], 2)
    manual = field_join(ev_block(coins, U0, 2), ev_block(coins, U1, 1))
    if not same_members(diag, manual):
        failures.append(("diagonal-join",))

    # agreement transfers from atoms to every member, and only from atoms:
    # verdict == full member-by-member agreement on 100 constructed triples
    space = labels_space("pf6", ("a", "b", "c", "d", "e", "f"), "min")
    universe = tuple(space.enumerate_elements())
    rng = random.Random(919)
    agree_count = 0
    for t in range(100):
        gens = [
            frozenset(e for e in universe if rng.getrandbits(1))
            for _ in range(rng.randint(1, 4))
        ]
        field = generate_field(universe, gens)
        P = random_measure(rng, space, max_atoms=4)
        if t % 2 == 0:
            # pile each atom's mass onto one point: agrees with P on the field
            pairs = []
            for a in field.atoms:
                mass = measure_eval(P, a)
                if mass:
                    pairs.append((min(a, key=lambda e: e.payload), mass))
            Q = FinMeasure.from_pairs(space.id, pairs)
        else:
            Q = random_measure(rng, space, max_atoms=4)
        atoms_ok = agreement_check(P, Q, field).ok
        members_ok = all(
            measure_eval(P, V) == measure_eval(Q, V) for V in field.members()
        )
        if atoms_ok != members_ok:
            failures.append(("agreement", t, atoms_ok, members_ok))
        agree_count += atoms_ok
    if not 40 <= agree_count <= 90:
        failures.append(("agreement-mix", agree_count))

    ok = not failures
    _line(capfd, 9, "field counting, diagonal join, agreement transfer", ok)
    assert ok, failures[:3]


# ---------------------------------------------------------------------------
# 10. the full report is reproducible byte for byte


def test_criterion_10_report_is_deterministic(capfd, tmp_path):
    outs = []
    for run in range(2):
        target = tmp_path / f"report{run}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "girycheck",
                "report-all",
                "--seed",
                "11",
                "--budget",
                "40",
                "--format",
                "json",
                "--out",
                str(target),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(target.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    _line(capfd, 10, "report-all byte-identical across two runs", ok)
    assert ok
