from fractions import Fraction

import pytest

from triring import params as pm
from triring.errors import NotUnitFraction, OrderingViolated, SumConstraintViolated

from conftest import random_valid_triples


def test_validate_accepts_the_reference_triple():
    p = pm.validate(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))
    # explicit inequalities: 1/2 > 9/20 and 1 > 1/2 > 1/4 > 1/5 > 0
    assert p.gamma > p.alpha + p.beta
    assert 1 > p.gamma > p.beta > p.alpha > 0


def test_validate_rejects_boundary_triple():
    with pytest.raises(OrderingViolated):
        pm.validate(Fraction(1, 2), Fraction(1, 2), Fraction(1))


def test_validate_rejects_equal_beta_gamma():
    with pytest.raises(OrderingViolated):
        pm.validate(Fraction(1, 3), Fraction(1, 2), Fraction(1, 2))


def test_validate_rejects_non_unit_fraction():
    with pytest.raises(NotUnitFraction):
        pm.validate(Fraction(2, 5), Fraction(1, 2), Fraction(3, 4))


def test_validate_rejects_sum_violation():
    # ordering fine, but gamma < alpha + beta
    with pytest.raises(SumConstraintViolated):
        pm.validate(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))


def test_derived_constants_reference_values():
    p = pm.validate(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))
    d = pm.derived_constants(p)
    assert d.a == Fraction(3, 8)
    assert d.b == Fraction(249, 400)
    assert d.c == Fraction(3, 8)
    assert d.w == Fraction(1, 2)
    assert d.ram == 20


def test_derived_constants_are_computed_once_per_triple():
    pm.derived_constants.cache_clear()
    triples = random_valid_triples(3, seed=5)
    first = [pm.derived_constants(p) for p in triples]
    for _ in range(3):
        assert [pm.derived_constants(p) for p in triples] == first
    info = pm.derived_constants.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (3, 9, 32)


@pytest.mark.parametrize("p", random_valid_triples(12, seed=3))
def test_sum_identities(p):
    al, be, ga = p.as_tuple()
    d = pm.derived_constants(p)
    assert d.a + d.b == 1 - (al - be) ** 2
    assert d.a + d.c == ga * (2 - ga)
    assert d.b + d.c == 1 - (al + be) ** 2 + ga * (2 * (al + be) - ga)
    assert d.w != 0


@pytest.mark.parametrize("p", random_valid_triples(12, seed=4))
def test_ram_divisibility(p):
    al, be, ga = p.as_tuple()
    d = pm.derived_constants(p)
    for value in (al, be, ga, ga - 1, al + be - ga, be - al):
        assert d.ram % value.denominator == 0


def test_eta_reference_product():
    p = pm.validate(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))
    expected = (
        Fraction(399, 400) * Fraction(3, 4) * Fraction(399, 400) * Fraction(243, 400)
    )
    assert pm.eta(p) == expected


@pytest.mark.parametrize("p", random_valid_triples(10, seed=5))
def test_eta_closed_form_factors_agree(p):
    factors = pm.eta_factors_closed_form(*p.as_tuple())
    product = Fraction(1)
    for f in factors:
        product *= f
    assert product == pm.eta(p)


def test_f_component_at_footnote_point():
    # ab + ac + bc at (1/2, 1/2, 1) is exactly 3/4
    al = be = Fraction(1, 2)
    ga = Fraction(1)
    a = ga * (1 - al - be) + 2 * al * be
    b = (al + be) * (ga - al - be) + 2 * al * be - ga + 1
    c = ga * (al + be - ga + 1) - 2 * al * be
    assert a * b + a * c + b * c == Fraction(3, 4)


def test_critical_residuals_footnote_point_vanishes():
    assert pm.critical_residuals(Fraction(1, 2), Fraction(1, 2), 1) == (0, 0, 0)


def test_critical_residuals_generic_point_not_all_zero():
    # the second condition vanishes there (2 beta = gamma), but the
    # triple is not the zero triple, so the point is not critical
    r = pm.critical_residuals(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))
    assert any(v != 0 for v in r)
    assert r[0] != 0 and r[1] == 0 and r[2] != 0


def test_critical_residuals_origin_by_substitution():
    # the first two products vanish at the origin; the third has both
    # factors equal to 1 there (its factors carry constant term 1)
    assert pm.critical_residuals(0, 0, 0) == (0, 0, 1)


def test_eta_scan_small_range_positive():
    count, minimum, argmin = pm.eta_scan(max_denominator=12)
    assert count > 0
    assert minimum > 0
    assert pm.eta(argmin) == minimum


def test_region_sample_is_informative_only():
    value = pm.region_sample_min(n=500, seed=1)
    assert isinstance(value, float)


def test_region_sample_shares_the_constants_bit_for_bit():
    # a, b and c come from the formulas of derived_constants, in the same
    # float operations, so the sampled minima keep every bit
    assert pm.region_sample_min() == 0.10944035619300817
    assert pm.region_sample_min(n=500, seed=1) == 0.15295932922090505
