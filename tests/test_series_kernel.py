"""The exact series product, reciprocal and exp against schoolbook oracles.

Exact ``PuiseuxSeries`` products go through the integer kernel
``_int_product`` and exact ``invert`` through the term recurrence
``_recurrence`` that ``exp`` also runs.  These tests compare both, and
the quotient ``a / b``, with a test-local ``Fraction`` convolution and
the term-by-term reciprocal recurrence, run to the last step ``prec``
certifies: same coefficients, same ``prec``, no coefficient at or past
the truncation bound, and ``int`` wherever a coefficient is integral.
The kernel, which the exact orders at z = 0 also call, picks a short schoolbook
product or one big-integer multiplication (Kronecker substitution) by
coefficient size.  Both paths are checked against an int convolution,
squares (one operand passed twice) included, on coefficients on both
sides of the rule and at its edge, and the rule is checked to pick the
path it names there.  The Kronecker path's digit width is checked on
the largest sums it can hold.  ``exp``, which
runs its recurrence on integers over a common denominator, is checked
against the ``Fraction`` recurrence ``reference_exp``: same
coefficients, ``int`` wherever integral.  The one-pass difference is
checked against the sum with the negated operand, and every operation
is checked to leave the stored form canonical: nonzero integer
numerators below the bound over their least common denominator.
A product with a one-term operand (a key shift, no Kronecker packing)
and the running sum ``geometric`` for s / (1 - sigma x) are checked
against the double loop, the latter against the product by the
written-out sum of sigma**n x**n, in every stored field.  Both skip
or shorten the gcd scan when nothing is cut, so the canonical-form test
also draws numerators that share a prime with the denominator except
on one step: cutting that step leaves a form that must be reduced.
The antiderivative ``integrate`` must differentiate back to its input.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_exp
from triring.hypergeom import tau_q_series_at_zero
from triring.params import validate
import triring.series as series_module
from triring.series import (
    _SHORT_PRODUCT_BITS,
    PuiseuxSeries,
    _ceil_steps,
    _int_product,
    _kronecker_product,
    _short_product,
)


def _lower(s):
    return Fraction(min(s.coeffs), s.ram) if s.coeffs else s.prec


def _bound(prec, ram):
    return -(-prec.numerator * ram // prec.denominator)


def schoolbook_mul(a, b):
    """``(ram, coeffs, prec)`` of ``a * b`` by the double loop over pairs."""
    ram = lcm(a.ram, b.ram)
    fa, fb = ram // a.ram, ram // b.ram
    prec = min(a.prec + _lower(b), b.prec + _lower(a))
    bound = _bound(prec, ram)
    out = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            k = k1 * fa + k2 * fb
            if k >= bound:
                continue
            acc = out.get(k)
            out[k] = c1 * c2 if acc is None else acc + c1 * c2
    return ram, {k: c for k, c in out.items() if c}, prec


def recurrence_invert(f):
    """``(ram, coeffs, prec)`` of ``1 / f`` by the term-by-term recurrence."""
    m = min(f.coeffs)
    c0 = f.coeffs[m]
    inv_c0 = Fraction(1) / c0
    h = {k - m: c * inv_c0 for k, c in f.coeffs.items() if k != m}
    steps = _bound(f.prec, f.ram) - m
    u = {0: Fraction(1)}
    for k in range(1, max(steps, 0)):
        acc = None
        for j, hj in h.items():
            if j > k:
                continue
            uk = u.get(k - j)
            if uk is None:
                continue
            term = hj * uk
            acc = term if acc is None else acc + term
        if acc:
            u[k] = -acc
    prec = f.prec - 2 * Fraction(m, f.ram)
    bound = _bound(prec, f.ram)
    coeffs = {k - m: c * inv_c0 for k, c in u.items()}
    return f.ram, {k: c for k, c in coeffs.items() if k < bound and c}, prec


def assert_canonical(s):
    for c in s.coeffs.values():
        assert type(c) is (int if c.denominator == 1 else Fraction)


def assert_matches(series, expected):
    ram, coeffs, prec = expected
    assert series.ram == ram
    assert series.prec == prec
    assert series.coeffs == coeffs
    assert all(k < _bound(prec, ram) for k in series.coeffs)


@st.composite
def coefficients(draw):
    """Exact coefficients from 1 bit to several hundred bits, int or Fraction."""
    bits = draw(st.integers(1, 400))
    num = draw(st.integers(-(1 << bits), 1 << bits))
    den = draw(st.one_of(st.just(1), st.integers(1, 1 << draw(st.integers(1, 200)))))
    value = Fraction(num, den)
    return value.numerator if value.denominator == 1 and draw(st.booleans()) else value


@st.composite
def exact_series(draw, min_terms=0):
    """Negative and positive steps on one residue class of a random stride."""
    ram = draw(st.sampled_from([1, 2, 3, 6, 40]))
    stride = draw(st.sampled_from([1, 1, 2, 3, 7, 40]))
    start = draw(st.integers(-30, 30))
    slots = draw(st.lists(st.integers(0, 16), min_size=min_terms, max_size=12, unique=True))
    coeffs = {start + stride * i: draw(coefficients()) for i in slots}
    # prec * ram may be fractional; it may cut stored steps away
    top = 3 * (start + stride * 17)
    prec = Fraction(draw(st.integers(3 * start - 6, top + 12)), 3 * ram)
    return PuiseuxSeries(ram, coeffs, prec)


@st.composite
def shared_factor_series(draw):
    """Numerators over a prime power, all but one step's a multiple of the prime.

    A result that cuts the one other step must divide the prime out.
    """
    ram = draw(st.sampled_from([1, 2, 3, 6, 40]))
    p = draw(st.sampled_from([2, 3, 5]))
    den = p ** draw(st.integers(1, 4))
    start = draw(st.integers(-10, 10))
    stride = draw(st.sampled_from([1, 2, 3, 40]))
    slots = draw(st.lists(st.integers(0, 16), min_size=1, max_size=10, unique=True))
    odd = draw(st.sampled_from(slots))
    coeffs = {}
    for i in slots:
        n = draw(st.integers(-(1 << 60), 1 << 60).filter(bool))
        num = p * n + draw(st.integers(1, p - 1)) if i == odd else p * n
        coeffs[start + stride * i] = Fraction(num, den)
    top = 3 * (start + stride * 17)
    prec = Fraction(draw(st.integers(3 * start - 6, top + 12)), 3 * ram)
    return PuiseuxSeries(ram, coeffs, prec)


@st.composite
def one_term_series(draw):
    """c x^(k / ram); ``prec`` may cut the term."""
    ram = draw(st.sampled_from([1, 2, 3, 6, 40]))
    k = draw(st.integers(-40, 40))
    c = draw(st.one_of(coefficients(), st.sampled_from([1, -1, 2, 9, Fraction(1, 2)])).filter(bool))
    return PuiseuxSeries(ram, {k: c}, Fraction(draw(st.integers(3 * k - 6, 3 * k + 90)), 3 * ram))


any_series = st.one_of(exact_series(), shared_factor_series())


def stored(s):
    return s.ram, s.prec, s.den, s.nums


@settings(max_examples=300, deadline=None)
@given(a=exact_series(), b=exact_series())
def test_exact_product_matches_schoolbook(a, b):
    product = a * b
    assert_matches(product, schoolbook_mul(a, b))
    assert_canonical(product)


@settings(max_examples=200, deadline=None)
@given(f=exact_series(min_terms=1))
def test_inverse_matches_recurrence(f):
    if not f.coeffs:  # every term cut by prec
        return
    inverse = f.invert()
    assert_matches(inverse, recurrence_invert(f))


@settings(max_examples=200, deadline=None)
@given(a=any_series, b=exact_series(min_terms=1))
def test_quotient_matches_schoolbook_over_the_recurrence(a, b):
    if not b.coeffs:  # every term cut by prec
        return
    quotient = a / b
    assert_matches(quotient, schoolbook_mul(a, PuiseuxSeries(*recurrence_invert(b))))
    assert_canonical(quotient)


def test_inverse_off_the_grid_reaches_the_last_certified_step():
    # 1 / (1 + x) known below x^(5/2) certifies x^2, with coefficient 1
    inverse = PuiseuxSeries(1, {0: 1, 1: 1}, Fraction(5, 2)).invert()
    assert stored(inverse) == (1, Fraction(5, 2), 1, {0: 1, 1: -1, 2: 1})
    # 1 + x known below x^(9/4) on the grid of ram 2: 1/g g is 1 below x^(9/4)
    g = PuiseuxSeries(2, {0: 1, 2: 1}, Fraction(9, 4))
    assert stored(g.invert()) == (2, Fraction(9, 4), 1, {0: 1, 2: -1, 4: 1})
    assert stored(g.invert() * g) == (2, Fraction(9, 4), 1, {0: 1})


@settings(max_examples=300, deadline=None)
@given(a=any_series, b=one_term_series())
def test_one_term_products_match_schoolbook(a, b):
    for product in (a * b, b * a):
        assert_matches(product, schoolbook_mul(a, b))
        assert_canonical_form(product)


def test_one_term_products_with_and_without_a_cut():
    # (1/2 + x/4 + x^3/4) (2 x^-1 known below x^5) = x^-1 + 1/2 + x^2/2, no cut
    a = PuiseuxSeries(1, {0: Fraction(1, 2), 1: Fraction(1, 4), 3: Fraction(1, 4)}, 9)
    b = PuiseuxSeries(1, {-1: 2}, 5)
    assert stored(a * b) == stored(b * a) == (1, 5, 2, {-1: 2, 0: 1, 2: 1})
    # x^-1 known below x^0 cuts x/4 and x^3/4: the 2/4 x^-1 left reduces to 1/2
    c = PuiseuxSeries(1, {-1: 1}, 0)
    assert stored(a * c) == stored(c * a) == (1, 0, 2, {-1: 1})


def binomial_product(s, sigma, known):
    """``stored`` of s times sigma**n x**n for n < known, by the double loop."""
    factor = PuiseuxSeries(1, {n: sigma ** n for n in range(known)}, known)
    return stored(PuiseuxSeries(*schoolbook_mul(s, factor)))


@settings(max_examples=300, deadline=None)
@given(s=any_series, sigma=st.sampled_from([1, -1]), n=st.integers(0, 40))
def test_geometric_running_sum_matches_the_binomial_product(s, sigma, n):
    for known in (n + 1, n, 0):
        got = s.geometric(sigma, known)
        assert stored(got) == binomial_product(s, sigma, known)
        assert_canonical_form(got)
    # x (1 - sigma x)**-1 known below x**n, as 1/(z-1) at infinity
    got = s.shift(1).geometric(sigma, n - 1)
    geometric = PuiseuxSeries(1, {k: sigma ** k for k in range(n + 1)}, n + 1)
    assert stored(got) == stored(s * (PuiseuxSeries.x_power(1, n) * geometric))


def test_geometric_with_and_without_a_cut():
    # (1 + x/2) / (1 - x) known below x^4: 1 + 3/2 (x + x^2 + x^3), no cut
    s = PuiseuxSeries(1, {0: 1, 1: Fraction(1, 2)}, 9)
    assert stored(s.geometric(1, 4)) == (1, 4, 2, {0: 2, 1: 3, 2: 3, 3: 3})
    # known below x^1 cuts x/2: the 2/2 left reduces to 1
    assert stored(s.geometric(1, 1)) == (1, 1, 1, {0: 1})
    # (1 + x/2) / (1 + x): 1 - x/2 + x^2/2 - ...
    assert stored(s.geometric(-1, 4)) == (1, 4, 2, {0: 2, 1: -1, 2: 1, 3: -1})
    # a factor known below x^0 has no term: empty, known below x^0
    assert stored(s.geometric(1, 0)) == (1, 0, 1, {})
    # on a grid of ram 3, on two residue classes
    t = PuiseuxSeries(3, {-1: 1, 1: Fraction(-1, 3)}, 4)
    assert stored(t.geometric(1, 2)) == binomial_product(t, 1, 2)


def test_empty_operand_gives_empty_product():
    f = PuiseuxSeries(2, {-3: Fraction(1, 3), 1: 5}, 4)
    zero = PuiseuxSeries.zero(Fraction(7, 2))
    for product in (f * zero, zero * f):
        assert product.coeffs == {}
        assert product.prec == min(Fraction(4) + Fraction(7, 2), Fraction(7, 2) - Fraction(3, 2))


def test_products_that_cancel_drop_their_zeros():
    one_plus_x = PuiseuxSeries(1, {0: 1, 1: 1}, 30)
    alternating = PuiseuxSeries(1, {k: (-1) ** k for k in range(12)}, 30)
    assert (one_plus_x * alternating).coeffs == {0: 1, 12: -1}
    a = PuiseuxSeries(3, {-2: Fraction(1, 2), 1: Fraction(-1, 2)}, 5)
    b = PuiseuxSeries(3, {4: 1, 7: 1}, 5)
    assert (a * b).coeffs == {2: Fraction(1, 2), 8: Fraction(-1, 2)}
    # the cancelling step is the last one below the bound
    c = PuiseuxSeries(3, {-2: 1, 1: 1}, 5)
    d = PuiseuxSeries(3, {4: 1, 7: -1}, Fraction(8, 3))
    assert (c * d).coeffs == {2: 1}


def test_terms_at_the_bound_are_absent():
    # prec = min(2 + 0, 2 + 0) = 2, so x^2 and beyond must not appear
    a = PuiseuxSeries(1, {0: 1, 1: 1}, 2)
    assert (a * a).coeffs == {0: 1, 1: 2}
    # fractional prec * ram: bound ceil(7/2 * 2) = 7 steps
    b = PuiseuxSeries(2, {0: 1, 3: 1}, Fraction(7, 2))
    assert max((b * b).coeffs) < 7


def test_large_and_small_numerators_in_one_operand():
    big = (1 << 500) + 1
    a = PuiseuxSeries(1, {0: 1, 1: big, 2: Fraction(-1, big)}, 10)
    b = PuiseuxSeries(1, {0: -1, 1: Fraction(big, 3), 2: 1}, 10)
    assert_matches(a * b, schoolbook_mul(a, b))
    assert_matches(a.invert(), recurrence_invert(a))


def test_stride_on_one_residue_class_at_high_ram():
    a = PuiseuxSeries(40, {7 + 40 * i: Fraction(i + 1, i + 2) for i in range(10)}, 12)
    b = PuiseuxSeries(40, {-13 + 40 * i: (-1) ** i * (i + 3) for i in range(10)}, 11)
    assert_matches(a * b, schoolbook_mul(a, b))
    assert_matches(a.invert(), recurrence_invert(a))


def schoolbook_int(a, b, bound):
    """The nonzero coefficients below ``bound`` of the int convolution of ``a`` and ``b``."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            if k1 + k2 < bound:
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


#: coefficient sizes of ``int_steps``: small ones, and ones near half the
#: kernel's rule, so that two operands' largest coefficients together fall
#: on either side of it, at its edge and past it
HALF_EDGE = _SHORT_PRODUCT_BITS // 2
COEFFICIENT_BITS = st.one_of(st.integers(1, 400), st.integers(HALF_EDGE - 8, HALF_EDGE + 8))


@st.composite
def int_steps(draw):
    """Integer coefficients on one residue class of a random stride."""
    stride = draw(st.sampled_from([1, 1, 2, 3, 7, 40]))
    start = draw(st.integers(-30, 30))
    slots = draw(st.lists(st.integers(0, 16), max_size=12, unique=True))
    coeffs = {}
    for i in slots:
        bits = draw(COEFFICIENT_BITS)
        coeffs[start + stride * i] = draw(st.integers(-(1 << bits), 1 << bits))
    return coeffs


def assert_both_paths(a, b, bound):
    """``_int_product`` and each of its two paths give the int convolution."""
    product = _int_product(a, b, bound)
    assert product == schoolbook_int(a, b, bound)
    assert all(type(c) is int for c in product.values())
    if a and b:
        assert _short_product(a, b, bound) == product == _kronecker_product(a, b, bound)
    return product


@settings(max_examples=300, deadline=None)
@given(a=int_steps(), b=int_steps(), data=st.data())
def test_int_product_matches_schoolbook(a, b, data):
    # bounds from below the first product step to past the last one, so
    # that most cut stored steps and some cut none
    lo, hi = (min(a) + min(b), max(a) + max(b)) if a and b else (-60, 1340)
    bound = data.draw(st.integers(lo - 2, hi + 2))
    assert_both_paths(a, b, bound)


@settings(max_examples=200, deadline=None)
@given(a=int_steps(), data=st.data())
def test_int_square_matches_schoolbook(a, data):
    # a is b: the diagonal and the doubled pairs above it, or one pack squared
    lo, hi = (2 * min(a), 2 * max(a)) if a else (-60, 1340)
    bound = data.draw(st.integers(lo - 2, hi + 2))
    assert assert_both_paths(a, a, bound) == _int_product(a, dict(a), bound)


@pytest.mark.parametrize("square", [False, True])
@pytest.mark.parametrize("extra", [-1, 0, 1, 2])
def test_the_rule_picks_the_path_at_its_edge(monkeypatch, square, extra):
    # the two largest coefficients have _SHORT_PRODUCT_BITS + extra bits
    # together; a square's total is even, so extra -1 and 1 round up
    half = (_SHORT_PRODUCT_BITS + extra + 1) // 2
    top_a = (1 << half) - 1
    top_b = top_a if square else (1 << (_SHORT_PRODUCT_BITS + extra - half)) - 1
    a = {0: top_a, 1: -3, 2: top_a // 5, 4: 1}
    b = a if square else {-1: 7, 0: -top_b, 3: top_b // 3}
    total = 2 * half if square else _SHORT_PRODUCT_BITS + extra
    taken = []

    def spy(name):
        path = getattr(series_module, name)

        def run(x, y, bound):
            taken.append(name)
            return path(x, y, bound)
        return run

    for name in ("_short_product", "_kronecker_product"):
        monkeypatch.setattr(series_module, name, spy(name))
    for bound in (1, 3, 5, 9):
        assert_both_paths(a, b, bound)
    want = "_short_product" if total <= _SHORT_PRODUCT_BITS else "_kronecker_product"
    assert taken == [want] * 4


def test_digit_width_holds_the_largest_sums():
    # equal-sign numerators of full size make every product digit as
    # large as the width allows: min(len) * max|A| * max|B|; the
    # Kronecker path is called directly, as the rule would send these
    # small coefficients to the short product
    for bits in range(1, 40):
        top = (1 << bits) - 1
        for length in (2, 3, 17, 64):
            a = {k: top for k in range(length)}
            for b in (a, dict(a), {k: -top for k in range(length)}):
                assert _kronecker_product(a, b, 2 * length) == schoolbook_int(a, b, 2 * length)


@settings(max_examples=100, deadline=None)
@given(a=exact_series())
def test_exact_square_matches_schoolbook(a):
    square = a * a
    assert_matches(square, schoolbook_mul(a, a))
    assert_canonical(square)


def test_int_product_of_empty_or_cancelling_operands():
    f = {-3: 5, 1: -(1 << 300)}
    assert _int_product(f, {}, 10) == {} and _int_product({}, f, 10) == {}
    # every step cut by the bound
    assert _int_product(f, {4: 1}, 1) == {}
    # (1 + x) (1 - x + x^2 - ...) leaves 1 and the last term
    alternating = {k: (-1) ** k for k in range(12)}
    assert _int_product({0: 1, 1: 1}, alternating, 30) == {0: 1, 12: -1}
    assert _int_product({0: 1, 1: 1}, alternating, 12) == {0: 1}
    # (x^-2 - x) (x^4 + x^7) on stride 3 cancels the middle step
    assert _int_product({-2: 1, 1: -1}, {4: 1, 7: 1}, 20) == {2: 1, 8: -1}
    big = (1 << 400) - 1
    assert _int_product({0: big, 1: big}, {0: big, 1: -big}, 5) == {0: big * big, 2: -big * big}


def assert_same_exp(f):
    got, want = f.exp(), reference_exp(f)
    assert (got.ram, got.prec) == (want.ram, want.prec)
    assert got.coeffs == want.coeffs
    assert_canonical(got)


@st.composite
def positive_order_series(draw):
    """Positive steps with gaps on grids of ram 1 to 6, int and Fraction coefficients."""
    ram = draw(st.integers(1, 6))
    steps = draw(st.lists(st.integers(1, 30), max_size=8, unique=True))
    coeffs = {}
    for k in steps:
        num = draw(st.integers(-(1 << 40), 1 << 40).filter(bool))
        den = draw(st.one_of(st.just(1), st.integers(1, 1 << 30)))
        value = Fraction(num, den)
        coeffs[k] = value.numerator if value.denominator == 1 and draw(st.booleans()) else value
    # prec * ram may be fractional and may cut stored steps away
    prec = Fraction(draw(st.integers(0, 3 * 40)), 3 * ram)
    return PuiseuxSeries(ram, coeffs, prec)


@settings(max_examples=200, deadline=None)
@given(f=positive_order_series())
def test_exp_matches_fraction_recurrence(f):
    assert_same_exp(f)


def test_exp_of_single_terms_and_the_zero_series():
    for ram in range(1, 7):
        for k in (1, 2, 5):
            for c in (1, -3, Fraction(-7, 4)):
                assert_same_exp(PuiseuxSeries(ram, {k: c}, Fraction(41, 3)))
    zero = PuiseuxSeries(3, {}, Fraction(7, 2))
    assert zero.exp().coeffs == {0: Fraction(1)} == reference_exp(zero).coeffs


#: the triples of the benchmark's expand workload, tau at N = 48 on each
EXPAND_TRIPLES = ((5, 4, 2), (7, 3, 2), (8, 6, 3), (13, 4, 3), (11, 9, 4), (22, 4, 3))


@pytest.mark.parametrize("triple", EXPAND_TRIPLES)
def test_exp_of_tau_matches_fraction_recurrence(triple):
    params = validate(*(Fraction(1, d) for d in triple))
    tau, q = tau_q_series_at_zero(params, 48)
    assert q == tau.exp()
    assert_same_exp(tau)


@settings(max_examples=200, deadline=None)
@given(a=exact_series(), b=exact_series())
def test_difference_equals_the_sum_with_the_negation(a, b):
    got, want = a - b, a + (-b)
    assert (got.ram, got.prec) == (want.ram, want.prec)
    assert got.coeffs == want.coeffs
    types = lambda s: {k: type(c) for k, c in s.coeffs.items()}
    assert types(got) == types(want)


def assert_canonical_form(s):
    """Integer numerators over the least common denominator, all below the bound."""
    assert s.den > 0
    assert gcd(s.den, *s.nums.values()) == 1
    assert all(type(c) is int and c for c in s.nums.values())
    assert all(k < _ceil_steps(s.prec, s.ram) for k in s.nums)
    assert PuiseuxSeries(s.ram, s.coeffs, s.prec) == s


@settings(max_examples=200, deadline=None)
@given(a=any_series, b=any_series, one=one_term_series(), data=st.data())
def test_every_operation_keeps_the_canonical_form(a, b, one, data):
    shift = Fraction(data.draw(st.integers(-20, 20)), data.draw(st.integers(1, 6)))
    cut = Fraction(data.draw(st.integers(-100, 100)), data.draw(st.integers(1, 6)))
    factor = Fraction(data.draw(st.sampled_from([1, -2, 3, 10])),
                      data.draw(st.sampled_from([1, 2, 5, 9])))
    n = data.draw(st.integers(0, 30))
    results = [a, a + b, a - b, a * b, a.scale(-6), a.scale(Fraction(-4, 9)), a.scale(0),
               a.scale(factor), a.differentiate(), a.shift(shift), a.truncate(cut),
               a.truncate(a.prec), a.normalize_ram(), a.with_ram(6 * a.ram), -a,
               a * one, one * a, a.geometric(1, n), a.geometric(-1, n)]
    if b.nums:
        results.append(a / b)
    if a.nums:
        results.append(a.invert())
        # exp needs a positive order
        results.append(a.shift(1 - a.ord()).exp())
    for s in results:
        assert_canonical_form(s)
    assert_canonical_form(PuiseuxSeries(3, {}, 0).exp())
    assert_canonical_form(PuiseuxSeries.zero(Fraction(5, 2), 2).exp())


@settings(max_examples=300, deadline=None)
@given(s=any_series)
def test_integral_differentiates_back_to_the_series(s):
    if -s.ram in s.nums:  # x^-1 has no antiderivative
        return
    got = s.integrate()
    assert got.prec == s.prec + 1
    assert 0 not in got.nums  # no constant term
    assert stored(got.differentiate()) == stored(s)
    assert_canonical(got)
    assert_canonical_form(got)


def test_integral_of_the_empty_series_and_of_x_to_the_minus_one():
    assert stored(PuiseuxSeries.zero(Fraction(7, 3), 3).integrate()) == (3, Fraction(10, 3), 1, {})
    # 3 x^-1/2 + 1/2 x^2 integrates to 6 x^(1/2) + 1/6 x^3
    s = PuiseuxSeries(2, {-1: 3, 4: Fraction(1, 2)}, 4)
    assert stored(s.integrate()) == (2, 5, 6, {1: 36, 6: 1})
    for ram in (1, 2, 3):
        with pytest.raises(ValueError, match="x\\*\\*-1"):
            PuiseuxSeries(ram, {-ram: 1, 0: 1}, 2).integrate()

