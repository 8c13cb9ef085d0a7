import cmath
import math
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest

from conftest import reference_2F1, reference_binomial
from test_series_kernel import assert_canonical
from triring import hypergeom as hg
from triring.errors import CutLineViolation, PolarParameter, TruncationExhausted
from triring.params import derived_constants, unit_fraction_triples, validate
from triring.ring import Poly
from triring.series import PuiseuxSeries

P134 = validate(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))
TRIPLES = [
    P134,
    validate(Fraction(1, 7), Fraction(1, 3), Fraction(1, 2)),
    validate(Fraction(1, 8), Fraction(1, 6), Fraction(1, 3)),
]


def test_pochhammer_falling_examples():
    x = Fraction(7, 3)
    assert hg.pochhammer_falling(x, 0) == 1
    assert hg.pochhammer_falling(5, 3) == 60  # 3*4*5
    # binomial check against (1-z)^s for s = 1/2
    s = Fraction(1, 2)
    binom = hg.binomial_series(s, 6, argument_sign=-1)
    for n in range(6):
        expected = hg.pochhammer_falling(s, n) / math.factorial(n) * (-1) ** n
        assert binom.coefficient(n) == expected


def test_gauss_2f1_basic_coefficients():
    F = hg.gauss_2F1(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2), 8)
    assert F.coefficient(0) == 1
    assert F.coefficient(1) == Fraction(1, 5) * Fraction(1, 4) / Fraction(1, 2)


def test_gauss_2f1_polar_parameter():
    with pytest.raises(PolarParameter):
        hg.gauss_2F1(Fraction(1, 2), Fraction(1, 3), Fraction(-2), 5)


@pytest.mark.parametrize("p", TRIPLES)
def test_gauss_2f1_satisfies_hypergeometric_ode(p):
    al, be, ga = p.as_tuple()
    N = 25
    F = hg.gauss_2F1(al, be, ga, N)
    z = PuiseuxSeries.x_power(Fraction(1), N + 1)
    one = PuiseuxSeries.constant(Fraction(1), N + 1)
    residual = (
        z * (one - z) * F.differentiate().differentiate()
        + (ga - (al + be + 1) * z) * F.differentiate()
        - al * be * F
    )
    assert residual.is_zero_to_prec()
    assert residual.prec >= N - 1


#: the triples of the benchmark's expand workload
EXPAND_TRIPLES = [
    validate(*(Fraction(1, d) for d in t))
    for t in ((5, 4, 2), (7, 3, 2), (8, 6, 3), (13, 4, 3), (11, 9, 4), (22, 4, 3))
]


def _recurrence_inputs(p):
    """The 2F1 parameters and binomial (exponent, sign) pairs of u0, u1, 1 and infinity."""
    al, be, ga = p.as_tuple()
    s = (al + be - ga + 1) / 2
    two_f_one = [
        (al, be, ga), (al - ga + 1, be - ga + 1, 2 - ga),  # u0, u1
        (al, be, al + be - ga + 1), (ga - al, ga - be, ga - al - be + 1),  # at 1
        (al, 1 - ga + al, 1 - be + al), (be, 1 - ga + be, 1 - al + be),  # at infinity
    ]
    return two_f_one, [(s, -1), (ga / 2, -1), (s, 1)]


def assert_same_fraction_series(got, want):
    assert (got.ram, got.prec) == (want.ram, want.prec)
    assert got.coeffs == want.coeffs
    assert_canonical(got)


@pytest.mark.parametrize("p", EXPAND_TRIPLES, ids=lambda p: p.label())
def test_integer_recurrences_match_the_fraction_loops(p):
    two_f_one, binomials = _recurrence_inputs(p)
    for a, b, c in two_f_one:
        assert_same_fraction_series(hg.gauss_2F1(a, b, c, 96), reference_2F1(a, b, c, 96))
    for s, sign in binomials:
        got = hg.binomial_series(s, 96, argument_sign=sign)
        assert_same_fraction_series(got, reference_binomial(s, 96, sign))


@pytest.mark.parametrize("upper", [(-3, Fraction(1, 4)), (Fraction(2, 3), -3), (-3, -3)])
def test_2f1_with_upper_parameter_minus_three_is_a_cubic(upper):
    c = Fraction(1, 2)
    F = hg.gauss_2F1(*upper, c, 12)
    assert_same_fraction_series(F, reference_2F1(*upper, c, 12))
    assert sorted(F.coeffs) == [0, 1, 2, 3]
    assert hg.gauss_2F1(0, upper[0], c, 12).coeffs == {0: 1}


@pytest.mark.parametrize("sign", [1, -1])
def test_binomial_series_with_integer_exponents_terminates(sign):
    square = hg.binomial_series(2, 12, argument_sign=sign)
    assert_same_fraction_series(square, reference_binomial(2, 12, sign))
    assert square.coeffs == {0: 1, 1: 2 * sign, 2: 1}  # (1 + sign x)^2
    cube = hg.binomial_series(3, 12, argument_sign=sign)
    assert cube.coeffs == {0: 1, 1: 3 * sign, 2: 3, 3: sign}
    assert hg.binomial_series(0, 12, argument_sign=sign).coeffs == {0: 1}
    for N in (0, 1):
        got = hg.binomial_series(Fraction(-1, 3), N, argument_sign=sign)
        assert_same_fraction_series(got, reference_binomial(Fraction(-1, 3), N, sign))


@pytest.mark.parametrize("c", [0, -1, Fraction(-7, 1)])  # -2: test_gauss_2f1_polar_parameter
def test_nonpositive_integer_lower_parameter_still_raises(c):
    with pytest.raises(PolarParameter):
        hg.gauss_2F1(Fraction(1, 2), Fraction(1, 3), c, 5)
    # a negative non-integer lower parameter is fine
    args = (Fraction(1, 2), Fraction(1, 3), c - Fraction(1, 2), 20)
    assert_same_fraction_series(hg.gauss_2F1(*args), reference_2F1(*args))


@pytest.mark.parametrize("p", TRIPLES)
def test_u_series_leading_terms(p):
    al, be, ga = p.as_tuple()
    u0 = hg.u_series("u0", p, 12)
    u1 = hg.u_series("u1", p, 12)
    assert u0.ord() == ga / 2 and u0.leading_coeff() == 1
    assert u1.ord() == 1 - ga / 2 and u1.leading_coeff() == 1
    assert (u0 * u0).ord() == ga and (u0 * u0).leading_coeff() == 1


@pytest.mark.parametrize("p", TRIPLES)
def test_leading_terms_at_zero(p):
    al, be, ga = p.as_tuple()
    fam = hg.y_series("zero", p, 12)
    assert fam.u0sq.ord() == ga and fam.u0sq.leading_coeff() == 1
    assert fam.y0.ord() == ga - 1 and fam.y0.leading_coeff() == ga / 2
    assert fam.y1.ord() == ga - 1 and fam.y1.leading_coeff() == (ga - 2) / 2
    assert fam.y2.ord() == ga - 1 and fam.y2.leading_coeff() == ga / 2


@pytest.mark.parametrize("p", TRIPLES)
def test_leading_terms_at_one(p):
    al, be, ga = p.as_tuple()
    th = Poly.var(hg.SYMBOLS_AT_ONE, "theta")
    fam = hg.y_series("one", p, 12)
    assert fam.u0sq.ord() == 1 + al + be - ga
    assert fam.u0sq.leading_coeff() == th ** 2
    shared = Fraction(-1, 2) * (1 + al + be - ga) * th ** 2
    assert fam.y0.ord() == al + be - ga and fam.y0.leading_coeff() == shared
    assert fam.y1.ord() == al + be - ga and fam.y1.leading_coeff() == shared
    assert fam.y2.ord() == al + be - ga
    assert fam.y2.leading_coeff() == Fraction(-1, 2) * (-1 + al + be - ga) * th ** 2


@pytest.mark.parametrize("p", TRIPLES)
def test_leading_terms_at_infinity(p):
    al, be, ga = p.as_tuple()
    zw = Poly.var(hg.SYMBOLS_AT_INF, "zw")
    fam = hg.y_series("inf", p, 12)
    assert fam.u0sq.ord() == -(1 - al + be)
    assert fam.u0sq.leading_coeff() == zw ** 2
    assert fam.y0.ord() == al - be
    assert fam.y0.leading_coeff() == Fraction(al - be - 1, 2) * zw ** 2
    assert fam.y1.leading_coeff() == Fraction(al - be + 1, 2) * zw ** 2
    assert fam.y2.leading_coeff() == Fraction(al - be + 1, 2) * zw ** 2


def test_difference_identities_at_zero():
    p = P134
    N = 16
    fam = hg.y_series("zero", p, N)
    inv_z = PuiseuxSeries.x_power(Fraction(-1), N)
    inv_zm1 = -hg._geometric(N)
    assert (fam.y0 - fam.y1 - fam.u0sq * inv_z).is_zero_to_prec()
    assert (fam.y0 - fam.y2 - fam.u0sq * inv_zm1).is_zero_to_prec()
    assert (fam.y1 - fam.y2 - fam.u0sq * (inv_z * inv_zm1)).is_zero_to_prec()


def _inverses_in_local_variable(point, N):
    """1/z and 1/(z-1) as series in the local variable x at 1 or infinity."""
    x = PuiseuxSeries.x_power(Fraction(1), N)
    one = PuiseuxSeries.constant(Fraction(1), N)
    if point == "one":  # z = 1 - x
        return (one - x).invert(), -PuiseuxSeries.x_power(Fraction(-1), N)
    return -x, -(x * (one + x).invert())  # z = -1/x


@pytest.mark.parametrize("point", ["one", "inf"])
@pytest.mark.parametrize("p", TRIPLES)
def test_difference_identities_at_one_and_infinity(point, p):
    # the identities hold for each symbol monomial's rational series
    N = 16
    fam = hg.y_series(point, p, N)
    inv_z, inv_zm1 = _inverses_in_local_variable(point, N)
    assert set(fam.u0sq.parts) == {(2, 0), (1, 1), (0, 2)}
    for m, sq in fam.u0sq.parts.items():
        y0, y1, y2 = (s.parts[m] for s in (fam.y0, fam.y1, fam.y2))
        for diff in (
            y0 - y1 - sq * inv_z,
            y0 - y2 - sq * inv_zm1,
            y1 - y2 - sq * (inv_z * inv_zm1),
        ):
            assert diff.is_zero_to_prec(), m
            assert diff.prec > N - 2


def _family_inverses(point, N):
    """1/z and 1/(z-1) in the local variable, built as ``y_series`` builds them."""
    x = PuiseuxSeries.x_power
    if point == "zero":
        return x(Fraction(-1), N), -hg._geometric(N)
    if point == "one":
        return hg._geometric(N), -x(Fraction(-1), N)
    return x(Fraction(1), N, Fraction(-1)), -(x(Fraction(1), N) * hg._geometric(N, sign=-1))


def _product_family(fam, N):
    """u0^2, y0, y1, y2 with y0 = u0 du0/dz, the cross part of u0^2 as AB + BA."""
    inv_z, inv_zm1 = _family_inverses(fam.point, N)
    if fam.point == "zero":
        u0 = fam.u0
        sq, y0 = u0 * u0, u0 * u0.differentiate()
        return sq, y0, y0 + -(sq * inv_z), y0 + -(sq * inv_zm1)
    if fam.point == "one":
        d_dz = lambda f: -f.differentiate()  # x = 1 - z
    else:
        d_dz = lambda f: f.differentiate().shift(2)  # x = (-z)^(-1)
    A, B = fam.u0.parts[1, 0], fam.u0.parts[0, 1]
    dA, dB = d_dz(A), d_dz(B)
    sq = hg.SymbolicSeries(fam.symbols, {(2, 0): A * A, (1, 1): A * B + B * A, (0, 2): B * B})
    y0 = hg.SymbolicSeries(fam.symbols, {(2, 0): A * dA, (1, 1): A * dB + B * dA, (0, 2): B * dB})
    y1, y2 = (
        hg.SymbolicSeries(fam.symbols, {m: y0.parts[m] + -(s * inv) for m, s in sq.parts.items()})
        for inv in (inv_z, inv_zm1)
    )
    return sq, y0, y1, y2


@pytest.mark.parametrize("N", [1, 2, 8, 40])
@pytest.mark.parametrize("point", ["zero", "one", "inf"])
@pytest.mark.parametrize("p", EXPAND_TRIPLES, ids=lambda p: p.label())
def test_family_equals_the_product_family(p, point, N):
    # y0 = (u0^2)'/2 and the cross part 2 AB keep every coefficient and prec
    fam = hg.y_series(point, p, N)
    for name, want in zip(("u0sq", "y0", "y1", "y2"), _product_family(fam, N)):
        got = getattr(fam, name)
        assert got.prec == want.prec, name
        if point == "zero":
            assert got == want, name
        else:
            assert set(got.parts) == set(want.parts) == {(2, 0), (1, 1), (0, 2)}
            for m, part in got.parts.items():
                assert part == want.parts[m], (name, m)


@pytest.mark.parametrize("p", TRIPLES)
def test_wronskian_is_one_minus_gamma(p):
    d = derived_constants(p)
    w = hg.wronskian_series(p, 20)
    assert (w - d.w).is_zero_to_prec()
    assert w.prec >= 18


@pytest.mark.parametrize("p", TRIPLES)
def test_normal_form_residuals_vanish(p):
    for which in ("u0", "u1"):
        res = hg.ode_residual_series(hg.u_series(which, p, 20), p, 20)
        assert res.is_zero_to_prec()
        assert res.prec >= 15


def test_tau_q_series():
    p = P134
    ga = p.gamma
    tau, q = hg.tau_q_series_at_zero(p, 16)
    assert tau.ord() == 1 - ga
    assert tau.leading_coeff() == 1
    assert q.coefficient(0) == 1
    assert q.ord() == 0
    # D tau = u0^2 tau' must be the constant 1 - gamma
    u0 = hg.u_series("u0", p, 16)
    lhs = u0 * u0 * tau.differentiate()
    assert (lhs - (1 - ga)).is_zero_to_prec()


# -- Gamma and numerics ---------------------------------------------------------


def test_connection_constants_against_mpmath():
    """theta and omega, hence ``math.gamma``, on every triple of the eta scan.

    The worst relative error is about 5e-14; 1e-12 also keeps the
    absolute 1e-11 on 1/5,1/4,1/2, where |theta| = |omega| = 3.18.
    """
    triples = unit_fraction_triples(30)
    assert len(triples) == 2130
    G = mp.gamma
    with mp.workdps(30):
        for p in triples:
            al, be, ga = (mp.mpf(v.numerator) / v.denominator for v in p.as_tuple())
            k = hg.connection_constants(p)
            theta = G(ga) * G(ga - al - be) / (G(ga - al) * G(ga - be))
            omega = G(ga) * G(be - al) / (G(ga - al) * G(be))
            for ours, theirs in ((k.theta, theta), (k.omega, omega)):
                assert abs(ours - complex(theirs)) <= 1e-12 * abs(complex(theirs)), p
            assert abs(abs(k.zeta1) - 1) < 1e-14


def test_hyp2f1_numeric_against_mpmath():
    for z in (0.3, -0.7, 0.2 + 0.4j):
        ours = hg.hyp2f1_numeric(0.2, 0.25, 0.5, z)
        theirs = complex(mp.hyp2f1(0.2, 0.25, 0.5, z))
        assert abs(ours - theirs) < 1e-12 * abs(theirs)
    for z in (-30.0, -5 + 3j):
        ours = hg.hyp2f1_numeric_ext(0.2, 0.25, 0.5, z)
        theirs = complex(mp.hyp2f1(0.2, 0.25, 0.5, z))
        assert abs(ours - theirs) < 1e-10 * abs(theirs)


def test_hyp2f1_numeric_raises_when_terms_run_out():
    # at |z| = 0.999 the terms shrink by about 0.1% each, far too slowly
    # for 50 terms; the partial sum must not be returned as a value
    with pytest.raises(TruncationExhausted, match="after 50 terms; last term"):
        hg.hyp2f1_numeric(0.2, 0.25, 0.5, 0.999, max_terms=50)
    with pytest.raises(TruncationExhausted):
        hg.hyp2f1_numeric(0.2, 0.25, 0.5, -0.999j, max_terms=50)
    # the same call converges once enough terms are allowed
    ours = hg.hyp2f1_numeric(0.2, 0.25, 0.5, 0.999)
    theirs = complex(mp.hyp2f1(0.2, 0.25, 0.5, 0.999))
    assert abs(ours - theirs) < 1e-10 * abs(theirs)


@pytest.mark.parametrize("c", [0, -1.0, -2])
def test_hyp2f1_numeric_rejects_a_polar_lower_parameter(c):
    with pytest.raises(PolarParameter):
        hg.hyp2f1_numeric(0.2, 0.25, c, 0.3)


def test_each_2f1_sum_is_made_once(monkeypatch):
    from triring import multiplicity as mult

    calls = []
    plain = hg.hyp2f1_numeric

    def counted(*args, **kwargs):
        calls.append(args)
        return plain(*args, **kwargs)

    monkeypatch.setattr(hg, "hyp2f1_numeric", counted)
    # three sums at each of 1 - z = 0.999, 0.99, 0.9 and two z at infinity;
    # theta by series and the omega variants reuse them
    hg.numeric_checks(P134)
    assert len(calls) == 15
    calls.clear()
    # u0, u0' and u1: u1's derivative is not summed
    mult._generator_values(P134, 0.3 + 0.2j)
    assert len(calls) == 3


def test_numeric_checks_reference_triple():
    rep = hg.numeric_checks(P134, samples=(0.1, 0.3, 0.5j), N=60)
    assert max(rep.wronskian_dev.values()) < 1e-9
    assert max(rep.ode_residual.values()) < 1e-9
    assert all(v < 1e-6 for v in rep.connection_at_one.values())
    assert all(v < 1e-6 for v in rep.connection_at_inf.values())
    assert abs(rep.theta_gamma_route - rep.theta_series_route) < 1e-6


def test_numeric_report_pass_rule():
    rep = hg.numeric_checks(P134, samples=(0.1, 0.3), N=60)
    assert rep.passed()
    assert not replace(rep, omega_matches_statement=False).passed()
    assert not replace(rep, wronskian_dev={0.1: 1e-8}).passed()
    assert not replace(rep, connection_at_inf={-30.0: 1e-5}).passed()


def test_omega_statement_form_wins():
    r_stmt, r_alt = hg.omega_variant_check(P134)
    assert r_stmt < 1e-8
    assert r_alt > 1e-2


def test_cut_line_rejected():
    with pytest.raises(CutLineViolation):
        hg.numeric_checks(P134, samples=(-0.5,))
    with pytest.raises(CutLineViolation):
        hg.numeric_checks(P134, samples=(1.5,))


def _mp_y_values(z):
    al, be, ga = (mp.mpf(1) / 5, mp.mpf(1) / 4, mp.mpf(1) / 2)

    def u0f(zz):
        return zz ** (ga / 2) * (1 - zz) ** ((al + be - ga + 1) / 2) * mp.hyp2f1(
            al, be, ga, zz
        )

    u0 = u0f(z)
    up = mp.diff(u0f, z)
    y0 = u0 * up
    return {
        "u0sq": complex(u0 * u0),
        "y0": complex(y0),
        "y1": complex(y0 - u0 * u0 / z),
        "y2": complex(y0 - u0 * u0 / (z - 1)),
    }


def test_symbolic_family_at_one_matches_direct_evaluation():
    # full-series oracle: bind theta, theta1 numerically and compare the
    # expansion at 1 against the closed form evaluated at z = 1 - x
    k = hg.connection_constants(P134)
    fam = hg.y_series("one", P134, 40)
    x0 = 0.06
    ref = _mp_y_values(mp.mpf(1) - mp.mpf(str(x0)))
    for name, s in fam.series_map().items():
        ours = s.evaluate(x0, bindings=k.bindings)
        assert abs(ours - ref[name]) < 1e-10, name


def test_symbolic_family_at_infinity_matches_direct_evaluation():
    k = hg.connection_constants(P134)
    fam = hg.y_series("inf", P134, 40)
    z = mp.mpf(-9)
    x0 = float(1 / (-z))
    ref = _mp_y_values(z)
    for name, s in fam.series_map().items():
        ours = s.evaluate(x0, bindings=k.bindings)
        assert abs(ours - ref[name]) < 1e-10 * abs(ref[name]), name


def test_tau_q_match_direct_evaluation():
    al, be, ga = (mp.mpf(1) / 5, mp.mpf(1) / 4, mp.mpf(1) / 2)

    def u0f(zz):
        return zz ** (ga / 2) * (1 - zz) ** ((al + be - ga + 1) / 2) * mp.hyp2f1(
            al, be, ga, zz
        )

    def u1f(zz):
        return zz ** (1 - ga / 2) * (1 - zz) ** ((al + be - ga + 1) / 2) * mp.hyp2f1(
            al - ga + 1, be - ga + 1, 2 - ga, zz
        )

    tau, q = hg.tau_q_series_at_zero(P134, 50)
    for z in (0.1, 0.2):
        ref = complex(u1f(mp.mpf(str(z))) / u0f(mp.mpf(str(z))))
        assert abs(tau.evaluate(z) - ref) < 1e-12
        assert abs(q.evaluate(z) - cmath.exp(ref)) < 1e-12


def test_evaluate_matches_mpmath_u0():
    # closed form against the truncated series at a well-converged point
    u0 = hg.u_series("u0", P134, 60)
    al, be, ga = (mp.mpf(1) / 5, mp.mpf(1) / 4, mp.mpf(1) / 2)
    for z in (0.1, 0.25):
        direct = complex(
            mp.mpf(z) ** (ga / 2)
            * (1 - mp.mpf(z)) ** ((al + be - ga + 1) / 2)
            * mp.hyp2f1(al, be, ga, z)
        )
        assert abs(u0.evaluate(z) - direct) < 1e-12
