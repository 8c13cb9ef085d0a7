import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triring.errors import (
    DomainMismatch,
    InconclusiveOrder,
    NonpositiveOrder,
    NonUnitInverse,
)
from triring.series import RATIONAL, PuiseuxSeries


def series_of(mapping, prec):
    return PuiseuxSeries.from_exponent_map(
        {Fraction(k): Fraction(v) for k, v in mapping.items()}, Fraction(prec)
    )


def test_half_power_product():
    half = PuiseuxSeries.x_power(Fraction(1, 2), 10)
    assert (half * half).ord() == 1


def test_differentiate_fractional_power():
    s = PuiseuxSeries.x_power(Fraction(1, 2), 10)
    d = s.differentiate()
    assert d.ord() == Fraction(-1, 2)
    assert d.leading_coeff() == Fraction(1, 2)


def test_geometric_inverse():
    one_plus = series_of({0: 1, 1: 1}, 8)
    inv = one_plus.invert()
    for k in range(7):
        assert inv.coefficient(k) == Fraction((-1) ** k)
    assert (inv * one_plus - 1).is_zero_to_prec()


def test_inverse_requires_unit():
    with pytest.raises(NonUnitInverse):
        PuiseuxSeries.zero(5).invert()


def test_ord_examples():
    s = PuiseuxSeries.from_exponent_map(
        {Fraction(-3, 2): Fraction(1), Fraction(-1, 2): Fraction(1)}, Fraction(5)
    )
    assert s.ord() == Fraction(-3, 2)
    assert s.leading_coeff() == 1


def test_series_minus_itself_inconclusive():
    s = series_of({0: 1, 1: 2, 2: 3}, 6)
    with pytest.raises(InconclusiveOrder) as err:
        (s - s).ord()
    assert err.value.prec == 6


def test_exp_examples():
    assert PuiseuxSeries.zero(7).exp().coefficient(0) == 1
    z = PuiseuxSeries.x_power(Fraction(1), 9)
    e = z.exp()
    for k in range(9):
        assert e.coefficient(k) == Fraction(1, math.factorial(k))


def test_exp_requires_positive_order():
    s = series_of({0: 1, 1: 1}, 6)
    with pytest.raises(NonpositiveOrder):
        s.exp()


def test_exp_leading_behaviour():
    # exp of a positive-order series starts at 1 and its first
    # correction equals the argument's leading term
    f = PuiseuxSeries.from_exponent_map(
        {Fraction(1, 2): Fraction(3, 7), Fraction(1): Fraction(-2)}, Fraction(4)
    )
    e = f.exp()
    assert e.coefficient(0) == 1
    assert e.coefficient(Fraction(1, 2)) == Fraction(3, 7)
    # term-by-term oracle: sum of f^n / n!
    acc = PuiseuxSeries.constant(Fraction(1), Fraction(4))
    power = PuiseuxSeries.constant(Fraction(1), Fraction(4))
    for n in range(1, 9):
        power = power * f
        acc = acc + power.scale(Fraction(1, math.factorial(n)))
    assert (e - acc).is_zero_to_prec()


def test_invert_round_trip_on_fractional_grid():
    f = PuiseuxSeries.from_exponent_map(
        {
            Fraction(-1, 2): Fraction(2),
            Fraction(0): Fraction(1),
            Fraction(3, 2): Fraction(-5),
        },
        Fraction(6),
    )
    product = f.invert() * f
    assert product.ord() == 0
    assert product.leading_coeff() == 1
    assert (product - 1).is_zero_to_prec()


def test_ord_multiplicative():
    rng = random.Random(2)
    for _ in range(15):
        f = series_of({rng.randint(-2, 2): rng.randint(1, 5),
                       3: rng.randint(1, 5)}, 7)
        h = series_of({rng.randint(0, 2): rng.randint(1, 5)}, 7)
        assert (f * h).ord() == f.ord() + h.ord()
        assert (f * h).leading_coeff() == f.leading_coeff() * h.leading_coeff()


def test_differentiate_lowers_order_by_one():
    f = PuiseuxSeries.from_exponent_map(
        {Fraction(3, 4): Fraction(2), Fraction(2): Fraction(5)}, Fraction(6)
    )
    assert f.differentiate().ord() == f.ord() - 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
)
def test_mul_matches_convolution_oracle(a, b):
    prec = Fraction(len(a) + len(b))
    fa = PuiseuxSeries(1, {i: Fraction(v) for i, v in enumerate(a)}, prec)
    fb = PuiseuxSeries(1, {i: Fraction(v) for i, v in enumerate(b)}, prec)
    prod = fa * fb
    # quadratic-time convolution oracle
    conv = {}
    for i, va in enumerate(a):
        for j, vb in enumerate(b):
            conv[i + j] = conv.get(i + j, 0) + va * vb
    for k, v in conv.items():
        if Fraction(k) < prod.prec:
            assert prod.coefficient(k) == v


def test_precision_tracks_multiplication():
    f = series_of({1: 1}, 5)   # known below x^5
    h = series_of({-2: 1}, 3)  # known below x^3
    prod = f * h
    # worst pairing: f's unknown tail (>= x^5) times h's lead x^-2
    assert prod.prec == 3
    assert prod.ord() == -1


def test_truncate_and_scale():
    s = series_of({0: 1, 1: 2, 3: 4}, 6)
    t = s.truncate(2)
    assert t.prec == 2
    with pytest.raises(InconclusiveOrder):
        t.coefficient(3)
    assert t.coefficient(1) == 2
    assert s.scale(Fraction(1, 2)).coefficient(1) == 1


def test_ram_merging_uses_lcm():
    a = PuiseuxSeries.x_power(Fraction(1, 2), 4)
    b = PuiseuxSeries.x_power(Fraction(1, 3), 4)
    s = a + b
    assert s.ram == 6
    assert s.ord() == Fraction(1, 3)
    assert (a * b).ord() == Fraction(5, 6)


def test_ram_never_changes_silently():
    a = PuiseuxSeries.x_power(Fraction(1, 2), 4)
    assert a.ram == 2
    assert a.shift(Fraction(1, 2)).ram == 2
    assert a.shift(Fraction(1, 3)).ram == 6


def test_normalize_ram():
    s = PuiseuxSeries(6, {6: Fraction(1), 12: Fraction(2)}, 5)
    n = s.normalize_ram()
    assert n.ram == 1
    assert n.coefficient(1) == 1 and n.coefficient(2) == 2


@pytest.mark.parametrize("value", [0.5, 1j, 2 + 0j])
def test_float_and_complex_coefficients_are_refused(value):
    with pytest.raises(DomainMismatch):
        PuiseuxSeries(1, {0: 1, 1: value}, 4)
    with pytest.raises(DomainMismatch):
        PuiseuxSeries.constant(value, 4)
    with pytest.raises(DomainMismatch):
        series_of({0: 1}, 4).scale(value)


@pytest.mark.parametrize("value", [1j, 0.5])
def test_float_and_complex_scalars_do_not_mix_in(value):
    s = series_of({0: 1, 1: 2}, 4)
    for op in (
        lambda: s + value,
        lambda: value + s,
        lambda: s - value,
        lambda: value - s,
        lambda: s * value,
        lambda: value * s,
        lambda: s / value,
    ):
        with pytest.raises(TypeError):
            op()


def test_json_round_trip_rational():
    s = PuiseuxSeries.from_exponent_map(
        {Fraction(-1, 2): Fraction(3, 4), Fraction(1): Fraction(-2)}, Fraction(5, 2)
    )
    back = PuiseuxSeries.from_json(s.to_json())
    assert back == s
    # an empty series is written with its prec as the base exponent
    for empty in (PuiseuxSeries(3, {}, Fraction(7, 2)), PuiseuxSeries.zero(-2)):
        assert PuiseuxSeries.from_json(empty.to_json()) == empty
    # an off-grid prec reads back on the grid, certifying the same steps
    off_grid = PuiseuxSeries(2, {1: Fraction(-1, 3), 4: 2}, Fraction(11, 4))
    back = PuiseuxSeries.from_json(off_grid.to_json())
    assert back.prec == 3
    assert back.truncate(Fraction(11, 4)) == off_grid


def test_json_schema_fields():
    s = series_of({0: 1, 2: 5}, 4)
    obj = s.to_json_obj()
    assert set(obj) == {"ram", "base_exponent", "coeffs", "truncation", "domain"}
    assert obj["ram"] == 1
    assert obj["base_exponent"] == "0"
    assert obj["truncation"] == 3
    assert obj["domain"] == RATIONAL
