from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from girycheck.extvalue import INF, ZERO, ExtValue, ext_abs_diff, ext_sum, parse_ext
from girycheck.registry import builtin_registry
from girycheck.spaces import ext_element

rationals = st.fractions(max_denominator=64)
ext_values = st.one_of(st.just(INF), rationals.map(ExtValue))


def test_constructors():
    assert ExtValue().is_inf
    assert ExtValue(None).is_inf
    assert ExtValue(F(3, 7)).value == F(3, 7)
    assert ExtValue(5).value == 5
    assert ExtValue(INF).is_inf
    assert ExtValue("2/3").value == F(2, 3)


def test_floats_are_refused():
    rinf_grid = builtin_registry().space("rinf-grid")
    for make in (
        lambda: ExtValue(0.1),
        lambda: ext_element(0.1),
        lambda: rinf_grid.element(ExtValue(0.1)),
    ):
        with pytest.raises(ValueError, match=r"^float value 0\.1; values must be int or Fraction$"):
            make()
    for v in (3, F(1, 4), ExtValue(F(1, 4)), INF):
        assert ExtValue(v) == v
        assert ext_element(v).payload == v
        assert rinf_grid.element(ExtValue(v)).payload == v


def test_inf_has_no_finite_part():
    with pytest.raises(ValueError):
        INF.value


def test_absorbing_addition():
    assert (INF + ExtValue(3)).is_inf
    assert (ExtValue(3) + INF).is_inf
    assert (INF + INF).is_inf
    assert ExtValue(F(1, 2)) + ExtValue(F(1, 3)) == ExtValue(F(5, 6))
    # plain rationals coerce on either side
    assert F(1, 4) + ExtValue(F(1, 4)) == ExtValue(F(1, 2))
    assert ExtValue(F(1, 4)) + 1 == ExtValue(F(5, 4))


def test_scalar_multiplication():
    assert (F(2, 3) * INF).is_inf
    assert F(0) * INF == ZERO
    assert 0 * INF == ZERO
    assert F(1, 2) * ExtValue(F(1, 3)) == ExtValue(F(1, 6))
    assert ExtValue(F(1, 3)) * F(-2) == ExtValue(F(-2, 3))
    with pytest.raises(ValueError):
        F(-1) * INF


def test_float_scalars_are_refused():
    float_msg = r"^float value 0\.1; values must be int or Fraction$"
    for v in (ExtValue(1), ZERO, INF):
        with pytest.raises(ValueError, match=float_msg):
            v * 0.1
        with pytest.raises(ValueError, match=float_msg):
            0.1 * v
    assert ExtValue(1) * 3 == 3 * ExtValue(1) == ExtValue(3)


def test_total_ordering_with_inf_greatest():
    assert ExtValue(10 ** 9) < INF
    assert not INF < INF
    assert INF <= INF
    assert INF == INF
    assert ExtValue(F(1, 3)) < ExtValue(F(1, 2))
    assert max(ExtValue(2), INF, ExtValue(7)).is_inf


@given(a=rationals, b=rationals)
def test_finite_arithmetic_matches_fractions(a, b):
    assert (ExtValue(a) + ExtValue(b)).value == a + b
    assert (b * ExtValue(a)).value == a * b if b >= 0 or not ExtValue(a).is_inf else True
    assert (ExtValue(a) < ExtValue(b)) == (a < b)


@given(v=ext_values)
def test_inf_absorbs(v):
    assert (v + INF).is_inf
    assert (INF + v).is_inf


def test_parse_ext():
    assert parse_ext("inf").is_inf
    assert parse_ext(" 3/4 ") == ExtValue(F(3, 4))
    assert parse_ext("-2") == ExtValue(-2)
    with pytest.raises(ValueError):
        parse_ext("nope")


def test_ext_sum():
    assert ext_sum([]) == ZERO
    assert ext_sum([ExtValue(1), ExtValue(F(1, 2))]) == ExtValue(F(3, 2))
    assert ext_sum([ExtValue(1), INF, ExtValue(2)]).is_inf


def test_ext_abs_diff():
    assert ext_abs_diff(INF, INF) == ZERO
    assert ext_abs_diff(INF, ExtValue(4)).is_inf
    assert ext_abs_diff(ExtValue(4), INF).is_inf
    assert ext_abs_diff(ExtValue(F(1, 3)), ExtValue(F(1, 2))) == ExtValue(F(1, 6))


def test_hash_and_str():
    assert hash(ExtValue(F(1, 2))) == hash(ExtValue(F(2, 4)))
    assert str(INF) == "inf"
    assert str(ExtValue(F(5, 3))) == "5/3"
    assert {INF, ExtValue(None)} == {INF}


@given(rationals)
def test_hash_agrees_with_equality(q):
    # equal values hash alike, so sets and dicts join an ExtValue with its rational
    assert ExtValue(q) == q and hash(ExtValue(q)) == hash(q)
    assert len({ExtValue(q), q}) == 1
    table = {q: "rational"}
    table[ExtValue(q)] = "ext"
    assert table == {q: "ext"}
    if q.denominator == 1:
        assert len({ExtValue(q), q, int(q)}) == 1


def test_hash_sets_and_dicts_with_inf():
    assert len({ExtValue(1), F(1)}) == 1
    assert len({ExtValue(1), 1, INF, ExtValue(), ZERO, 0}) == 3
    assert {ExtValue(F(1, 2)): "a"}[F(1, 2)] == "a"
    assert {F(1, 2): "a"}[ExtValue(F(1, 2))] == "a"
    assert {INF: "inf"}[ExtValue()] == "inf"
