"""The exhaustive-or-sampled scan driver and the verdicts built on it.

The four scans that run through `spaces.scan` are checked against their
earlier loop-per-check bodies, kept below as reference oracles; the
compute-once tests count how often each compat scan runs.
"""

import dataclasses
import itertools
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import girycheck.algebra
import girycheck.cli
import girycheck.metric_ot
from girycheck.algebra import build_algebra, coseparator_maps, full_report
from girycheck.cli import main
from girycheck.metric_ot import (
    EXHAUSTIVE_CAP,
    compat_check_2pt,
    compat_check_4pt,
    default_metric,
    table_metric,
)
from girycheck.spaces import (
    P_GRID,
    AffineMap,
    builtin_spaces,
    char_map,
    combine2,
    coseparates,
    enumerate_ideals,
    is_affine,
    product_space,
    scan,
)
from girycheck.verdicts import failed, passed
from generators import random_discrete_metric, random_finite_discrete_space

REG = builtin_spaces()
UNIT = REG["unit_interval"]


# ---------------------------------------------------------------------------
# reference oracles: the checks as they were written before the scan driver,
# one loop each, kept verbatim


def _reference_finite_elements(space):
    return list(space.enumerate_elements()) if space.is_finite else None


def _reference_compat_witness(space, p, lhs, rhs, **points) -> dict:
    out = {"p": str(p), "lhs": str(lhs), "rhs": str(rhs)}
    for key, e in points.items():
        out[key] = space.point_str(e)
    return out


def _reference_compat_check_2pt(space, metric, budget=500, rng=None):
    def holds(p, x, y, z):
        lhs = metric(combine2(space, p, x, z), combine2(space, p, y, z))
        rhs = p * metric(x, y)
        return lhs <= rhs, lhs, rhs

    elems = _reference_finite_elements(space)
    if elems is not None and len(elems) ** 3 * len(P_GRID) <= EXHAUSTIVE_CAP:
        for p in P_GRID:
            for x in elems:
                for y in elems:
                    for z in elems:
                        ok, lhs, rhs = holds(p, x, y, z)
                        if not ok:
                            return failed(
                                _reference_compat_witness(space, p, lhs, rhs, x=x, y=y, z=z)
                            )
        return passed(exhaustive=True)
    rng = rng or random.Random(0)
    for _ in range(budget):
        p = rng.choice(P_GRID)
        x, y, z = (space.sample_element(rng) for _ in range(3))
        ok, lhs, rhs = holds(p, x, y, z)
        if not ok:
            return failed(_reference_compat_witness(space, p, lhs, rhs, x=x, y=y, z=z))
    return passed(exhaustive=False, note=f"{budget} sampled quadruples")


def _reference_compat_check_4pt(space, metric, budget=500, rng=None):
    def holds(p, x, y, xp, yp):
        lhs = metric(combine2(space, p, x, y), combine2(space, p, xp, yp))
        rhs = p * metric(x, xp) + (1 - p) * metric(y, yp)
        return lhs <= rhs, lhs, rhs

    elems = _reference_finite_elements(space)
    if elems is not None and len(elems) ** 4 * len(P_GRID) <= EXHAUSTIVE_CAP:
        for p in P_GRID:
            for x in elems:
                for y in elems:
                    for xp in elems:
                        for yp in elems:
                            ok, lhs, rhs = holds(p, x, y, xp, yp)
                            if not ok:
                                return failed(
                                    _reference_compat_witness(
                                        space, p, lhs, rhs, x=x, y=y, xp=xp, yp=yp
                                    )
                                )
        return passed(exhaustive=True)
    rng = rng or random.Random(0)
    for _ in range(budget):
        p = rng.choice(P_GRID)
        x, y, xp, yp = (space.sample_element(rng) for _ in range(4))
        ok, lhs, rhs = holds(p, x, y, xp, yp)
        if not ok:
            return failed(_reference_compat_witness(space, p, lhs, rhs, x=x, y=y, xp=xp, yp=yp))
    return passed(exhaustive=False, note=f"{budget} sampled quadruples")


def _reference_is_affine(m, budget=200, rng=None):
    dom, cod = m.domain, m.codomain
    elems = dom.enumerate_elements()
    if elems is not None and len(elems) ** 2 * len(P_GRID) <= 20000:
        pairs = itertools.product(elems, elems)
        exhaustive = True
    else:
        if rng is None:
            raise ValueError("sampled affinity check needs an rng")
        pairs = ((dom.sample_element(rng), dom.sample_element(rng)) for _ in range(budget))
        exhaustive = False
    for x, y in pairs:
        for p in P_GRID:
            lhs = m(combine2(dom, p, x, y))
            rhs = combine2(cod, p, m(x), m(y))
            if lhs != rhs:
                return failed(
                    {
                        "map": m.name,
                        "p": str(p),
                        "x": dom.point_str(x),
                        "y": dom.point_str(y),
                        "lhs": cod.point_str(lhs),
                        "rhs": cod.point_str(rhs),
                    }
                )
    return passed(exhaustive)


def _reference_coseparates(maps, space, budget=400, rng=None):
    elems = space.enumerate_elements()
    if elems is not None:
        pairs = itertools.combinations(elems, 2)
        exhaustive = True
    else:
        if rng is None:
            raise ValueError("sampled coseparation check needs an rng")
        pairs = (
            (space.sample_element(rng), space.sample_element(rng)) for _ in range(budget)
        )
        exhaustive = False
    for x, y in pairs:
        if x == y:
            continue
        if all(m(x) == m(y) for m in maps):
            return failed({"x": space.point_str(x), "y": space.point_str(y)})
    return passed(exhaustive)


# ---------------------------------------------------------------------------
# the rewired scans match their references

BUILTIN_IDS = sorted(REG)
BUDGETS = st.integers(min_value=1, max_value=50)
SEEDS = st.integers(min_value=0, max_value=2**32)
# N-min x D4-min has 128 points: a finite carrier past every cap, so each
# check samples it
BIG_FINITE = product_space(REG["N-min"], REG["D4-min"], "NxD")


def _same(new, ref, *args, seed):
    """Equal Verdicts, witness and note included, from equal rng streams;
    the stream must also end in the same state."""
    rng_new, rng_ref = random.Random(seed), random.Random(seed)
    a, b = new(*args, rng=rng_new), ref(*args, rng=rng_ref)
    assert a == b
    assert rng_new.getstate() == rng_ref.getstate()
    return a


def _random_space_and_metric(seed):
    rng = random.Random(seed)
    space = random_finite_discrete_space(rng, f"rand{seed}")
    return space, table_metric(space, random_discrete_metric(rng, space.carrier.labels))


@settings(max_examples=200, deadline=None)
@given(sid=st.sampled_from(BUILTIN_IDS + ["NxD", "random"]), budget=BUDGETS, seed=SEEDS)
def test_compat_scans_match_reference(sid, budget, seed):
    if sid == "random":
        space, metric = _random_space_and_metric(seed)
    else:
        space = BIG_FINITE if sid == "NxD" else REG[sid]
        metric = default_metric(space)
    for new, ref in (
        (compat_check_2pt, _reference_compat_check_2pt),
        (compat_check_4pt, _reference_compat_check_4pt),
    ):
        _same(new, ref, space, metric, budget, seed=seed)


def test_compat_scans_without_rng_match_reference():
    for sid in BUILTIN_IDS:
        space, metric = REG[sid], default_metric(REG[sid])
        assert compat_check_2pt(space, metric, 20) == _reference_compat_check_2pt(space, metric, 20)
        assert compat_check_4pt(space, metric, 20) == _reference_compat_check_4pt(space, metric, 20)


def _square(space):
    return AffineMap(space, space, lambda e: e.payload * e.payload, name="square")


def _flip():
    chain, two = REG["chain-max"], REG["two"]
    return AffineMap(chain, two, lambda e: "1" if e.payload == "a" else "0", name="flip")


def _maps_under_test(sid, seed):
    """(space, maps): the characteristic maps of a random space, the test
    maps of a built-in, or the non-affine maps of the existing tests."""
    if sid == "random":
        space, _ = _random_space_and_metric(seed)
        return space, [char_map(space, ideal) for ideal in enumerate_ideals(space)]
    if sid == "non-affine":
        C = REG["C"]
        return C, [_square(UNIT), _flip(), char_map(C, enumerate_ideals(C)[0])]
    if sid == "NxD":
        # every sixth of its 34 maps keeps the example under a second
        return BIG_FINITE, coseparator_maps(BIG_FINITE)[::6]
    return REG[sid], coseparator_maps(REG[sid])


# N-min is left out: its 31 characteristic maps are scanned exhaustively
# whatever the budget and seed, which takes about 30 s per example on a
# 2-core host
AFFINE_IDS = [sid for sid in BUILTIN_IDS if sid != "N-min"]


@settings(max_examples=80, deadline=None)
@given(
    sid=st.sampled_from(AFFINE_IDS + ["NxD", "random", "non-affine"]),
    budget=BUDGETS,
    seed=SEEDS,
    drop=st.integers(min_value=0, max_value=3),
)
def test_is_affine_and_coseparates_match_reference(sid, budget, seed, drop):
    space, maps = _maps_under_test(sid, seed)
    for m in maps:
        _same(is_affine, _reference_is_affine, m, budget, seed=seed)
    maps = [m for m in maps if m.domain == space]
    # dropping maps makes coseparation fail on some spaces, with a witness
    for kept in (maps, maps[drop:]):
        _same(coseparates, _reference_coseparates, kept, space, budget, seed=seed)


def test_first_witnesses_are_pinned():
    C = REG["C"]
    chi_u = char_map(C, enumerate_ideals(C)[0])
    assert coseparates([chi_u], C).witness == {"x": "0", "y": "1"}
    assert is_affine(_flip()).witness == {
        "map": "flip", "p": "1/2", "x": "a", "y": "b", "lhs": "0", "rhs": "1",
    }


def test_scan_visits_p_outermost_and_samples_past_the_cap():
    two = REG["two"]
    elems = two.enumerate_elements()
    seen = []

    def record(*case):
        seen.append(case)
        return None

    assert scan(two, 2, record, 5, None, grid=True, note="n") == passed(True)
    assert seen == list(itertools.product(P_GRID, elems, elems))
    seen.clear()
    assert scan(two, 2, record, 5, None) == passed(True)
    assert seen == list(itertools.product(elems, elems))
    # 2**2 * 9 = 36 evaluations exceed a cap of 35: five sampled pairs
    seen.clear()
    assert scan(two, 2, record, 5, random.Random(0), cap=35, note="n") == passed(False, "n")
    assert len(seen) == 5
    witness = scan(two, 1, lambda x: {"x": x.payload}, 5, None)
    assert witness == failed({"x": "0"})


def test_sampled_scans_without_rng_name_the_space():
    with pytest.raises(ValueError, match="unit_interval"):
        is_affine(_square(UNIT))
    with pytest.raises(ValueError, match="vee"):
        coseparates(coseparator_maps(REG["vee"]), REG["vee"])
    # a finite carrier past the affinity cap is sampled too
    with pytest.raises(ValueError, match="NxD"):
        is_affine(coseparator_maps(BIG_FINITE)[0])
    # exhaustive scans need no rng
    assert is_affine(coseparator_maps(REG["D4-min"])[0]).status == "pass"


# ---------------------------------------------------------------------------
# each compat verdict is computed once


def _count_calls(monkeypatch, name, modules):
    calls = []
    original = getattr(girycheck.metric_ot, name)

    def counted(*args, **kwargs):
        calls.append(args[0].id)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("sid", ["unit_interval", "rinf-grid"])
def test_full_report_runs_the_compat_scan_once(monkeypatch, sid):
    calls = _count_calls(monkeypatch, "compat_check_2pt", [girycheck.algebra])
    rep = full_report(REG[sid], budget=20, rng=random.Random(1))
    assert calls == [sid]
    assert rep.compat.status == "sampled-pass"


def test_check_compat_equiv_agrees_with_its_own_section(monkeypatch, capsys):
    mods = [girycheck.cli, girycheck.metric_ot]
    two = _count_calls(monkeypatch, "compat_check_2pt", mods)
    four = _count_calls(monkeypatch, "compat_check_4pt", mods)
    # the calls are counted in this process, so run every space here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    main(["check-compat", "--seed", "1", "--budget", "1", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    for sid, sec in doc["spaces"].items():
        statuses = {key: sec[key]["status"] for key in ("two_point", "four_point")}
        assert sec["equiv"]["witness"] == statuses, sid
    assert sorted(two) == sorted(four) == sorted(REG)


def test_algebra_map_hashes_and_ignores_compat_in_equality():
    alg = build_algebra(UNIT, budget=20, rng=random.Random(1))
    assert alg.compat.ok
    hash(alg)
    bare = dataclasses.replace(alg, compat=None)
    assert bare == alg and hash(bare) == hash(alg)
