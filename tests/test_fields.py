import random
from fractions import Fraction as F

import pytest

from girycheck.fields import (
    agreement_check,
    dyadic_field,
    dyadic_grid,
    ev_block,
    ev_field,
    field_join,
    field_leq,
    generate_field,
    same_members,
)
from girycheck.measures import FinMeasure, dirac, measure_eval
from girycheck.spaces import builtin_spaces, labels_space

REG = builtin_spaces()

FOUR = labels_space("four", ("1", "2", "3", "4"), "min")
E = {k: FOUR.element(k) for k in ("1", "2", "3", "4")}


def four_measure(*pairs):
    return FinMeasure.from_pairs(FOUR.id, [(E[k], F(w)) for k, w in pairs])


# ---------------------------------------------------------------------------
# generated fields


def test_atoms_partition_the_universe():
    f = generate_field((1, 2, 3, 4, 5), [frozenset({1, 2}), frozenset({2, 3})])
    assert sorted(x for a in f.atoms for x in a) == [1, 2, 3, 4, 5]
    assert sum(len(a) for a in f.atoms) == 5
    assert {frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4, 5})} == set(f.atoms)


def test_member_count_is_two_to_the_atoms():
    rng = random.Random(0)
    universe = tuple(range(10))
    for _ in range(50):
        gens = [
            frozenset(x for x in universe if rng.random() < 0.5)
            for _ in range(rng.randint(0, 5))
        ]
        f = generate_field(universe, gens)
        members = list(f.members())
        assert f.member_count == 2 ** len(f.atoms)
        assert len(members) == f.member_count
        assert len(set(members)) == f.member_count


def test_members_are_exactly_the_atom_unions():
    f = generate_field("abcdef", [frozenset("ab"), frozenset("bc")])
    members = set(f.members())
    assert frozenset() in members
    assert frozenset("abcdef") in members
    for m in members:
        assert f.contains_member(m)
    # a set splitting an atom is not a member
    assert not f.contains_member(frozenset("d"))
    assert frozenset("def") in members


def test_field_contains_generators_and_complements():
    gens = [frozenset({1, 2}), frozenset({2, 3})]
    f = generate_field((1, 2, 3, 4), gens)
    members = set(f.members())
    for g in gens:
        assert g in members
        assert frozenset(f.universe) - g in members
    # and intersections/unions of generators
    assert frozenset({2}) in members
    assert frozenset({1, 2, 3}) in members


def test_generator_cap():
    universe = tuple(range(20))
    with pytest.raises(ValueError):
        generate_field(universe, [frozenset({k}) for k in range(17)])


def test_universe_validation():
    with pytest.raises(ValueError):
        generate_field((1, 1, 2), [])
    with pytest.raises(ValueError):
        generate_field((1, 2), [frozenset({3})])


def test_atom_containing():
    f = generate_field((1, 2, 3), [frozenset({1})])
    assert f.atom_containing(2) == frozenset({2, 3})
    with pytest.raises(ValueError):
        f.atom_containing(9)


# ---------------------------------------------------------------------------
# joins and the subfield order


def test_join_is_commutative_and_idempotent():
    universe = tuple(range(8))
    a = generate_field(universe, [frozenset({0, 1, 2})])
    b = generate_field(universe, [frozenset({2, 3, 4}), frozenset({5})])
    assert same_members(field_join(a, b), field_join(b, a))
    assert same_members(field_join(a, a), a)
    assert field_leq(a, field_join(a, b))
    assert field_leq(b, field_join(a, b))


def test_join_is_the_smallest_upper_bound():
    universe = tuple(range(6))
    a = generate_field(universe, [frozenset({0, 1})])
    b = generate_field(universe, [frozenset({1, 2})])
    j = field_join(a, b)
    big = generate_field(universe, [frozenset({0, 1}), frozenset({1, 2}), frozenset({4})])
    assert field_leq(j, big)
    assert not field_leq(big, j)


def test_join_requires_matching_universes():
    a = generate_field((1, 2), [])
    b = generate_field((1, 3), [])
    with pytest.raises(ValueError):
        field_join(a, b)


def test_field_leq_is_member_containment():
    universe = tuple(range(6))
    rng = random.Random(1)
    for _ in range(25):
        a = generate_field(
            universe,
            [frozenset(x for x in universe if rng.random() < 0.5) for _ in range(2)],
        )
        b = field_join(
            a,
            generate_field(
                universe,
                [frozenset(x for x in universe if rng.random() < 0.5)],
            ),
        )
        assert field_leq(a, b)
        mem_a, mem_b = set(a.members()), set(b.members())
        assert mem_a <= mem_b


# ---------------------------------------------------------------------------
# the dyadic ladder


def test_dyadic_grid_excludes_zero():
    grid = dyadic_grid()
    assert len(grid) == 256
    assert min(grid) == F(1, 256) and max(grid) == 1


def test_dyadic_field_atoms_are_cells():
    f = dyadic_field(2)
    assert len(f.atoms) == 4
    assert f.member_count == 16
    cells = sorted(f.atoms, key=min)
    for k, cell in enumerate(cells):
        lo, hi = F(k, 4), F(k + 1, 4)
        assert cell == frozenset(x for x in dyadic_grid() if lo < x <= hi)


def test_dyadic_ladder_is_increasing():
    ladder = [dyadic_field(n) for n in range(5)]
    for a, b in zip(ladder, ladder[1:]):
        assert field_leq(a, b)
        assert not field_leq(b, a)


def test_dyadic_depth_cap():
    f = dyadic_field(8)
    assert len(f.atoms) == 256
    with pytest.raises(ValueError):
        dyadic_field(9)
    with pytest.raises(ValueError):
        list(f.members())  # 2^256 members: enumeration is refused


# ---------------------------------------------------------------------------
# evaluation fields over measures


def coin_family():
    two = REG["two"]
    one = two.element("1")
    zero = two.element("0")
    out = []
    for j in range(5):
        out.append(
            FinMeasure.from_pairs(two.id, [(one, F(j, 4)), (zero, 1 - F(j, 4))])
        )
    return two, tuple(out)


def test_ev_block_separates_by_evaluation():
    two, measures = coin_family()
    U = {two.element("1")}
    f = ev_block(measures, U, 2)
    # the five values of P(U) all have distinct quarter-tail signatures
    assert {frozenset(a) for a in f.atoms} == {frozenset({m}) for m in measures}
    # at depth 1 the strict tails at 0 and 1/2 leave three groups
    shallow = ev_block(measures, U, 1)
    assert {frozenset(a) for a in shallow.atoms} == {
        frozenset({measures[0]}),
        frozenset({measures[1], measures[2]}),
        frozenset({measures[3], measures[4]}),
    }


def test_diagonal_field_is_the_manual_join():
    two, measures = coin_family()
    U0 = {two.element("1")}
    U1 = {two.element("0")}
    diag = ev_field(measures, [U0, U1], 2)
    manual = field_join(
        ev_block(measures, U0, 2), ev_block(measures, U1, 1)
    )
    assert same_members(diag, manual)


def test_ev_field_needs_enough_evaluation_sets():
    _, measures = coin_family()
    with pytest.raises(ValueError):
        ev_field(measures, [], 1)


def test_deeper_diagonal_refines():
    two, measures = coin_family()
    Us = [{two.element("1")}, {two.element("0")}, set()]
    for n in range(2):
        assert field_leq(
            ev_field(measures, Us, n), ev_field(measures, Us, n + 1)
        )


# ---------------------------------------------------------------------------
# agreement across a field


def test_agreement_on_equal_measures():
    f = generate_field(tuple(E.values()), [frozenset({E["1"], E["2"]})])
    P = four_measure(("1", F(1, 2)), ("3", F(1, 2)))
    v = agreement_check(P, P, f)
    assert v.ok


def test_agreement_within_an_atom_despite_different_measures():
    f = generate_field(tuple(E.values()), [frozenset({E["1"], E["2"]})])
    # mass moves inside the atom {1,2}: the field cannot tell them apart
    P = dirac(E["1"])
    Q = dirac(E["2"])
    v = agreement_check(P, Q, f)
    assert v.ok


def test_generator_agreement_does_not_imply_member_agreement():
    gens = [frozenset({E["1"], E["2"]}), frozenset({E["2"], E["3"]})]
    f = generate_field(tuple(E.values()), gens)
    P = four_measure(("1", F(1, 2)), ("3", F(1, 2)))
    Q = four_measure(("2", F(1, 2)), ("4", F(1, 2)))
    for g in gens:
        assert measure_eval(P, g) == measure_eval(Q, g)
    v = agreement_check(P, Q, f)
    assert not v.ok
    assert v.note == "generators agree"
    assert set(v.witness) == {"member", "P", "Q"}


def test_atom_agreement_decides_every_member():
    # the finite form of the extension argument: once atoms agree, additivity
    # extends agreement to the whole field
    rng = random.Random(2)
    labels = tuple(str(k) for k in range(8))
    space = labels_space("eight", labels, "min")
    elems = tuple(space.enumerate_elements())
    for _ in range(60):
        gens = [
            frozenset(e for e in elems if rng.random() < 0.5)
            for _ in range(rng.randint(1, 4))
        ]
        f = generate_field(elems, gens)
        from girycheck.sampling import random_measure

        P = random_measure(rng, space, 4)
        Q = random_measure(rng, space, 4)
        v = agreement_check(P, Q, f)
        members_agree = all(
            measure_eval(P, m) == measure_eval(Q, m) for m in f.members()
        )
        assert v.ok == members_agree


def test_agreement_rejects_foreign_support():
    f = generate_field((E["1"], E["2"]), [])
    P = four_measure(("3", F(1)))
    with pytest.raises(ValueError):
        agreement_check(P, P, f)
