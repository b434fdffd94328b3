"""The exhaustive-or-sampled scan driver and the verdicts built on it.

The four scans that run through `spaces.scan` are checked against the
model in `reference`; the compute-once tests count how often each compat
scan runs.
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
    compat_check_2pt,
    compat_check_4pt,
    decided_compat,
    default_metric,
    table_metric,
)
from girycheck.spaces import (
    P_GRID,
    AffineMap,
    builtin_spaces,
    char_map,
    coseparates,
    enumerate_ideals,
    is_affine,
    product_space,
    scan,
)
from girycheck.verdicts import failed, passed
from generators import random_discrete_metric, random_finite_discrete_space
import reference

REG = builtin_spaces()
UNIT = REG["unit_interval"]


# ---------------------------------------------------------------------------
# the scans match the model

BUILTIN_IDS = sorted(REG)
BUDGETS = st.integers(min_value=1, max_value=50)
SEEDS = st.integers(min_value=0, max_value=2**32)
# N-min x D4-min has 128 points: a finite carrier past every cap, so each
# check samples it
BIG_FINITE = product_space(REG["N-min"], REG["D4-min"], "NxD")


def _same(new, ref, *args, seed):
    """Verdicts with the model's JSON from equal rng streams; the stream
    must also end in the same state."""
    rng_new, rng_ref = random.Random(seed), random.Random(seed)
    assert new(*args, rng=rng_new).to_json() == ref(*args, rng=rng_ref)
    assert rng_new.getstate() == rng_ref.getstate()


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
        (compat_check_2pt, reference.compat_2pt),
        (compat_check_4pt, reference.compat_4pt),
    ):
        _same(new, ref, space, metric, budget, seed=seed)


def test_compat_scans_without_rng_match_reference():
    for sid in BUILTIN_IDS:
        space, metric = REG[sid], default_metric(REG[sid])
        assert compat_check_2pt(space, metric, 20).to_json() == reference.compat_2pt(
            space, metric, 20
        )
        assert compat_check_4pt(space, metric, 20).to_json() == reference.compat_4pt(
            space, metric, 20
        )


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
        _same(is_affine, reference.is_affine, m, budget, seed=seed)
    maps = [m for m in maps if m.domain == space]
    # dropping maps makes coseparation fail on some spaces, with a witness
    for kept in (maps, maps[drop:]):
        _same(coseparates, reference.coseparates, kept, space, budget, seed=seed)


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
    # the library's own norm decides compat on these carriers: no scan
    assert calls == []
    assert rep.compat.status == "pass"


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
    # each scan runs once per space, except where a norm decides compat
    scanned = [sid for sid in REG if decided_compat(REG[sid], default_metric(REG[sid])) is None]
    assert sorted(two) == sorted(four) == sorted(scanned)
    assert len(scanned) == len(REG) - 7


def test_algebra_map_hashes_and_ignores_compat_in_equality():
    alg = build_algebra(UNIT, budget=20, rng=random.Random(1))
    assert alg.compat.ok
    hash(alg)
    bare = dataclasses.replace(alg, compat=None)
    assert bare == alg and hash(bare) == hash(alg)
