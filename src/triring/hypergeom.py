"""Local expansions of the hypergeometric system at 0, 1 and infinity.

The two basic solutions are built as

    u0 = z**(gamma/2) (1-z)**((alpha+beta-gamma+1)/2) 2F1(alpha, beta; gamma; z)
    u1 = z**(1-gamma/2) (1-z)**((alpha+beta-gamma+1)/2)
         2F1(alpha-gamma+1, beta-gamma+1; 2-gamma; z)

which both solve the normal-form equation

    U'' + (a/(4 z^2) + b/(4 (z-1)^2) + c/(4 z^2 (z-1)^2)) U = 0

and have Wronskian u1' u0 - u1 u0' identically 1 - gamma.  From them the
weight-2 combinations y0 = u0 u0', y1 = y0 - u0^2/z, y2 = y0 - u0^2/(z-1)
and the pair tau = u1/u0, q = exp(tau) are produced as exact rational
Puiseux series at 0, y0 as (u0^2)'/2: the same precision as the product
u0 u0', for no second product.  1/z and 1/(z-1) enter y1 and y2 as maps
of a series: in each local variable they are one term (x^-1, -x^-1,
-x), a product that is a key shift, or geometric (1/(1-x), -x/(1+x)),
a running sum, each with the ``prec`` of the product by the truncated
series.  u0 and u1 share their (1-z)**s factor, so tau is
z**(1-gamma) times the quotient of their two 2F1 series.  At
1 and infinity the expansions go through the classical connection
formulas; the Gamma-ratio constants enter as opaque symbols (``theta``,
``theta1`` at 1; ``zw``, ``zw1`` at infinity, the products of the unit
``zeta1`` with the two connection coefficients) with floating bindings
supplied for numeric work.
u0 = s0 A + s1 B is linear in the two symbols, with rational series A
and B, so the series there are :class:`SymbolicSeries`, one rational
series per monomial, and u0^2 takes the three products A^2, AB and B^2.

Every exact coefficient comes from one term recurrence: 2F1 at x and at
-x, the binomials (1 +- x)**s and, as the exponents -1 and -2, the
geometric series.  u0 and u1 at 0 and A and B at 1 and infinity are each
x**lead (1 - sign x)**power 2F1(...; sign x).  The exact series of u0
and u1 and their closed-form floating values read one recipe.

The statement-form constant omega = G(g)G(b-a)/(G(g-a)G(b)) is the one
the numeric check confirms; the variant with G(alpha) in the denominator
is kept only to demonstrate that it fails, see the ``omega_residuals``
of :func:`numeric_checks`.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import CutLineViolation, InconclusiveOrder, PolarParameter, TruncationExhausted
from .params import TriangleParams, derived_constants
from .ring import Poly, key_order, terms_json_obj
from .series import PuiseuxSeries, json_list_text, rational_text, series_json_obj, series_json_text

SYMBOLS_AT_ONE = ("theta", "theta1")
SYMBOLS_AT_INF = ("zw", "zw1")

TOL = 1e-15
MAX_TERMS = 200_000
HALF = Fraction(1, 2)
# terms of u0, u1 for the floating checks: at N = 24 the truncated
# Wronskian is off by about 2e-9 at z = 0.5i, above its 1e-9 tolerance
NUMERIC_CHECK_ORDER = 60


# -- exact building blocks ------------------------------------------------------


def _term_series(upper, lower, N, sign=1):
    """sum_n prod (u)_n / (prod (l)_n n!) (sign x)^n to x**N, (v)_n rising.

    The one place series coefficients are written: every 2F1, binomial
    and geometric series of the package comes from here.  The term
    recurrence runs on one reduced integer numerator and denominator,
    and stops at the first zero term.  The terms go over the lcm of
    their denominators, the least common one, straight into the stored
    form of the series.
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    ud = math.prod(v.denominator for v in upper)
    ld = math.prod(v.denominator for v in lower)
    nums, dens = [1], [1]
    num = den = 1
    steps = zip(range(1, N + 1), _rising_numerators(upper, N), _rising_numerators(lower, N))
    for n, up, low in steps:
        num *= sign * ld * up
        if not num:
            break
        den *= n * ud * low
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        num, den = num // g, den // g
        nums.append(num)
        dens.append(den)
    common = math.lcm(*dens)
    return PuiseuxSeries._reduced(
        1, Fraction(N + 1), common, {n: c * (common // d) for n, (c, d) in enumerate(zip(nums, dens))}
    )


def _rising_numerators(values, N):
    """For n = 1 .. N, the product of the numerators of v + n - 1 over ``values``.

    v + n - 1 = (v.numerator + (n - 1) v.denominator) / v.denominator, so
    each numerator steps by its denominator: one addition per factor and step.
    """
    out = itertools.repeat(1, N)
    for v in values:
        p, d = v.numerator, v.denominator
        out = map(operator.mul, out, range(p, p + N * d, d))
    return out


def binomial_series(s, N, argument_sign=1):
    """(1 + argument_sign * x)**s truncated at x**N (exact rationals)."""
    return _term_series((-Fraction(s),), (), N, -argument_sign)  # binom(s, n) = (-s)_n (-1)^n / n!


def gauss_2F1(a, b, c, N, argument_sign=1):
    """Truncated 2F1(a, b; c; argument_sign * x) with exact rational coefficients.

    Uses the rising-factorial ratio convention for the coefficients.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if c.denominator == 1 and c <= 0:
        raise PolarParameter(f"lower parameter {c} is a nonpositive integer")
    return _term_series((a, b), (c,), N, argument_sign)


def _local_part(lead, power, F_args, N, sign=1):
    """x**lead (1 - sign x)**power 2F1(*F_args; sign x), truncated at x**N.

    Every basic solution at 0, 1 and infinity has this form: sign 1 at 0
    and 1, sign -1 at infinity, where the argument 1/z is -x.
    """
    return (binomial_series(power, N, -sign) * gauss_2F1(*F_args, N, sign)).shift(lead)


def _u_recipe(which, al, be, ga):
    """u0 or u1 at 0 as z**lead (1-z)**s 2F1(*F_args; z): ``(lead, s, F_args)``.

    Exact on Fractions, the same steps on floats.
    """
    s = (al + be - ga + 1) / 2
    if which == "u0":
        return ga / 2, s, (al, be, ga)
    if which == "u1":
        return 1 - ga / 2, s, (al - ga + 1, be - ga + 1, 2 - ga)
    raise ValueError("which must be 'u0' or 'u1'")


def u_series(which, params: TriangleParams, N):
    """Exact Puiseux series of u0 or u1 at z = 0."""
    lead, s, F_args = _u_recipe(which, *params.as_tuple())
    return _local_part(lead, s, F_args, N)


class SymbolicSeries:
    """A series whose coefficients are polynomials in two symbols.

    ``parts`` maps each symbol monomial (an exponent pair) to a rational
    :class:`PuiseuxSeries`, all cut at their least ``prec``; that is the
    precision the series would carry with polynomial coefficients, since
    min distributes over the sums in the product rule.
    """

    __slots__ = ("symbols", "parts", "prec")

    def __init__(self, symbols, parts):
        self.symbols = symbols
        self.prec = min(s.prec for s in parts.values())
        self.parts = {m: s.truncate(self.prec) for m, s in parts.items()}

    def ord(self):
        """The least leading exponent of the parts: monomials apart, they never cancel."""
        leads = [s.ord() for s in self.parts.values() if s.nums]
        if not leads:
            raise InconclusiveOrder(self.prec)
        return min(leads)

    def leading_coeff(self):
        e = self.ord()
        return Poly(self.symbols, {
            m: s.leading_coeff() for m, s in self.parts.items() if s.nums and s.ord() == e
        })

    def evaluate(self, x, bindings):
        """Numeric value at the local variable ``x`` under symbol bindings."""
        return sum(
            math.prod(bindings[name] ** e for name, e in zip(self.symbols, m)) * s.evaluate(x)
            for m, s in self.parts.items()
        )

    def to_json_obj(self):
        ram = math.lcm(*(s.ram for s in self.parts.values()))
        grid = {}  # {k: {monomial: coefficient}} on the parts' common grid
        for m, s in self.parts.items():
            for k, c in s.with_ram(ram).coeffs.items():
                grid.setdefault(k, {})[m] = c
        values = {k: terms_json_obj(self.symbols, t) for k, t in grid.items()}
        return series_json_obj(ram, self.prec, values, "symbolic")

    def json_text(self, newline="\n"):
        """``json.dumps(self.to_json_obj(), sort_keys=True, indent=2)`` at ``newline``.

        Each step's value is the ``terms_json_obj`` text at the indent of
        its ``"value"`` key, six spaces in from ``newline``: one
        ``{"coef": ..., "exps": [...]}`` item per monomial, whose text
        around the coefficient depends only on the monomial, so each
        monomial's head and tail are written once per series.
        """
        ram = math.lcm(*(s.ram for s in self.parts.values()))
        value = newline + "      "
        inner = value + "  "
        entry = inner + "  "
        key = entry + "  "
        head = f'{{{key}"coef": '
        grid = {}  # {k: [term text]}, each list in key order
        for m in key_order(self.symbols, self.parts):
            s = self.parts[m]
            f, den = ram // s.ram, s.den
            tail = f',{key}"exps": {json_list_text([str(e) for e in m], key)}{entry}}}'
            for k, c in s.nums.items():
                grid.setdefault(k * f, []).append(head + rational_text(c, den) + tail)
        symbols = json_list_text([_encode_str(name) for name in self.symbols], inner)
        first = f'{{{inner}"terms": [{entry}'
        sep = "," + entry
        last = f'{inner}],{inner}"vars": {symbols}{value}}}'
        return series_json_text(
            ram, self.prec, grid, "symbolic", newline,
            lambda terms, _: first + sep.join(terms) + last,
        )


@dataclass
class ExpansionFamily:
    """The four local series and u0 at one point.

    At 1 and infinity every series is a :class:`SymbolicSeries`.
    """

    point: str  # "zero" | "one" | "inf"
    local_variable: str
    u0: PuiseuxSeries
    u0sq: PuiseuxSeries
    y0: PuiseuxSeries
    y1: PuiseuxSeries
    y2: PuiseuxSeries
    symbols: tuple

    def series_map(self):
        return {"u0sq": self.u0sq, "y0": self.y0, "y1": self.y1, "y2": self.y2}


def _family_from_u0(point, local_variable, u0, inv_z, inv_zm1):
    """The family of u0; ``inv_z`` and ``inv_zm1`` map a series s to s/z and s/(z-1)."""
    u0sq = u0 * u0
    y0 = u0sq.differentiate().scale(HALF)  # (u0^2)'/2 = u0 u0'
    y1 = y0 - inv_z(u0sq)
    y2 = y0 - inv_zm1(u0sq)
    return ExpansionFamily(point, local_variable, u0, u0sq, y0, y1, y2, ())


def _symbolic_family(point, local_variable, A, B, d_dz, inv_z, inv_zm1, symbols):
    """The family of u0 = s0 A + s1 B for the symbols (s0, s1).

    ``d_dz`` maps a rational series in the local variable to its d/dz; it
    is linear, so y0 = (u0^2)'/2 is ``d_dz`` of each part of u0^2, halved.
    ``inv_z`` and ``inv_zm1`` map a rational series s to s/z and s/(z-1).
    """
    u0 = SymbolicSeries(symbols, {(1, 0): A, (0, 1): B})
    A, B = u0.parts[1, 0], u0.parts[0, 1]  # cut at their common prec
    u0sq = SymbolicSeries(symbols, {(2, 0): A * A, (1, 1): (A * B).scale(2), (0, 2): B * B})
    y0 = SymbolicSeries(symbols, {m: d_dz(s).scale(HALF) for m, s in u0sq.parts.items()})
    y1, y2 = (
        SymbolicSeries(symbols, {m: y0.parts[m] - inv(s) for m, s in u0sq.parts.items()})
        for inv in (inv_z, inv_zm1)
    )
    return ExpansionFamily(point, local_variable, u0, u0sq, y0, y1, y2, symbols)


def y_series(point, params: TriangleParams, N) -> ExpansionFamily:
    """Expansions of u0^2, y0, y1, y2 at the requested singular point.

    At zero the coefficients are exact rationals.  At one they are exact
    polynomials in the symbols theta, theta1; at infinity in zw, zw1.
    The geometric 1/(1-x) is known below x**(N+1), as the binomial
    series is, and -x/(1+x) at infinity below x**N.
    """
    al, be, ga = params.as_tuple()
    s = (al + be - ga + 1) / 2
    if point == "zero":
        u0 = u_series("u0", params, N)
        x_m1 = PuiseuxSeries.x_power(-1, N)
        return _family_from_u0(
            "zero", "z", u0,
            lambda f: f * x_m1,
            lambda f: -f.geometric(1, N + 1),  # 1/(z-1) = -1/(1-z)
        )
    if point == "one":
        A = _local_part(s, ga / 2, (al, be, al + be - ga + 1), N)
        B = _local_part(1 - s, ga / 2, (ga - al, ga - be, ga - al - be + 1), N)
        minus_x_m1 = -PuiseuxSeries.x_power(-1, N)
        return _symbolic_family(
            "one", "1-z", A, B, lambda f: -f.differentiate(),  # x = 1 - z
            lambda f: f.geometric(1, N + 1),  # 1/z = 1/(1-x)
            lambda f: f * minus_x_m1,  # z - 1 = -x
            SYMBOLS_AT_ONE,
        )
    if point == "inf":  # x = (-z)^(-1)
        A = _local_part((al - be - 1) / 2, s, (al, 1 - ga + al, 1 - be + al), N, sign=-1)
        B = _local_part((be - al - 1) / 2, s, (be, 1 - ga + be, 1 - al + be), N, sign=-1)
        minus_x = -PuiseuxSeries.x_power(1, N)
        return _symbolic_family(
            "inf", "(-z)^(-1)", A, B, lambda f: f.differentiate().shift(2),  # d/dz = x^2 d/dx
            lambda f: f * minus_x,  # 1/z = -x
            # 1/(z-1) = -x/(1+x); known below x**N, it is x times 1/(1+x)
            # known below x**(N-1)
            lambda f: -f.shift(1).geometric(-1, N - 1),
            SYMBOLS_AT_INF,
        )
    raise ValueError(f"unknown expansion point {point!r}")


def tau_q_series_at_zero(params: TriangleParams, N):
    """tau = u1/u0 (order 1 - gamma) and q = exp(tau), exact at z = 0.

    The shared (1-z)**s cancels: tau = z**(1-gamma) 2F1(u1's) / 2F1(u0's),
    with the same ``prec`` as the quotient of the u series.
    """
    lead0, _, F0_args = _u_recipe("u0", *params.as_tuple())
    lead1, _, F1_args = _u_recipe("u1", *params.as_tuple())
    tau = (gauss_2F1(*F1_args, N) / gauss_2F1(*F0_args, N)).shift(lead1 - lead0)
    tau = tau.normalize_ram()
    return tau, tau.exp()


def wronskian_series(params: TriangleParams, N):
    """u1' u0 - u1 u0' as a formal series; identically 1 - gamma."""
    u0 = u_series("u0", params, N)
    u1 = u_series("u1", params, N)
    return u1.differentiate() * u0 - u1 * u0.differentiate()


def normal_form_potential(params: TriangleParams, N):
    """a/(4 z^2) + b/(4 (z-1)^2) + c/(4 z^2 (z-1)^2) as an exact series."""
    d = derived_constants(params)
    g2 = binomial_series(-2, N, argument_sign=-1)  # 1/(1-z)^2 = 1/(z-1)^2
    x_m2 = PuiseuxSeries.x_power(Fraction(-2), N)
    return (
        x_m2.scale(d.a / 4)
        + g2.scale(d.b / 4)
        + (x_m2 * g2).scale(d.c / 4)
    )


def ode_residual_series(u, params: TriangleParams, N):
    """u'' + potential * u; vanishes identically for u0 and u1."""
    return u.differentiate().differentiate() + normal_form_potential(params, N) * u


# -- Gamma and the connection constants ----------------------------------------


@dataclass(frozen=True)
class ConnectionConstants:
    """Numeric values of the Gamma-ratio constants for one triple.

    ``omega`` follows the definition with Gamma(beta) in the denominator;
    ``omega_alt`` is the rejected variant with Gamma(alpha) instead (see
    the ``omega_residuals`` of :func:`numeric_checks`).  ``bindings``
    maps the adjoined series symbols to complex values: theta, theta1,
    zw = zeta1*omega and zw1 = zeta1*omega1.
    """

    theta: complex
    theta1: complex
    omega: complex
    omega_alt: complex
    omega1: complex
    zeta1: complex

    @property
    def bindings(self):
        return {
            "theta": self.theta,
            "theta1": self.theta1,
            "zw": self.zeta1 * self.omega,
            "zw1": self.zeta1 * self.omega1,
        }


def connection_constants(params: TriangleParams) -> ConnectionConstants:
    """The constants by ``math.gamma``: each argument lies in (-1, 0) or (0, 1)."""
    al, be, ga = (float(v) for v in params.as_tuple())
    G = math.gamma
    return ConnectionConstants(
        theta=complex(G(ga) * G(ga - al - be) / (G(ga - al) * G(ga - be))),
        theta1=complex(G(ga) * G(al + be - ga) / (G(al) * G(be))),
        omega=complex(G(ga) * G(be - al) / (G(ga - al) * G(be))),
        omega_alt=complex(G(ga) * G(be - al) / (G(ga - al) * G(al))),
        omega1=complex(G(ga) * G(al - be) / (G(al) * G(ga - be))),
        zeta1=cmath.exp(1j * cmath.pi * ga / 2),
    )


# -- numeric verification --------------------------------------------------------


def hyp2f1_numeric(a, b, c, z):
    """Plain series evaluation of 2F1; requires a finite z with |z| < 1.

    Raises :class:`TruncationExhausted` when the terms have not fallen
    below ``TOL`` relative to the sum within ``MAX_TERMS`` terms.
    """
    z = finite_point(z)
    if abs(z) >= 1:
        raise ValueError("series evaluation needs |z| < 1")
    a, b, c = float(a), float(b), float(c)
    if c <= 0 and c.is_integer():
        raise PolarParameter(f"lower parameter {c} is a nonpositive integer")
    term = 1.0 + 0j
    total = 1.0 + 0j
    for n in range(1, MAX_TERMS):
        term *= (a + n - 1) * (b + n - 1) / ((c + n - 1) * n) * z
        total += term
        if abs(term) < TOL * max(abs(total), 1e-30) and n > 8:
            return total
    raise TruncationExhausted(
        f"2F1({a}, {b}; {c}; {z}) not converged after {MAX_TERMS} terms; "
        f"last term {abs(term):.3e}"
    )


def finite_point(z):
    """``z`` as a complex number; ``ValueError`` when a part is NaN or infinite."""
    z = complex(z)
    if not cmath.isfinite(z):  # NaN would pass every range check
        raise ValueError(f"point {z} is not finite")
    return z


def _check_sample(z):
    z = finite_point(z)
    if z.imag == 0 and (z.real <= 0 or z.real >= 1):
        raise CutLineViolation(f"sample {z} lies on a branch cut")
    if abs(z) >= 1:
        raise ValueError(f"sample {z} is outside the convergence disk")
    return z


def _u_closed_form(which, params, z):
    """u = pref * 2F1(a, b; c; z) at z: ``(pref, g0, s, (a, b, c))``, pref = z^g0 (1-z)^s."""
    g0, s, F_args = _u_recipe(which, *(float(v) for v in params.as_tuple()))
    return z ** g0 * (1 - z) ** s, g0, s, F_args


def u_value(which, params, z):
    """Closed-form numeric u at a point of the cut unit disk."""
    z = complex(z)
    pref, _, _, F_args = _u_closed_form(which, params, z)
    return pref * hyp2f1_numeric(*F_args, z)


def u_value_and_derivative(which, params, z):
    """Closed-form numeric (u, u') at a point of the cut unit disk."""
    z = complex(z)
    pref, g0, s, (a1, b1, c1) = _u_closed_form(which, params, z)
    F = hyp2f1_numeric(a1, b1, c1, z)
    # d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z)
    Fp = a1 * b1 / c1 * hyp2f1_numeric(a1 + 1, b1 + 1, c1 + 1, z)
    u = pref * F
    up = pref * ((g0 / z - s / (1 - z)) * F + Fp)
    return u, up


@dataclass
class NumericReport:
    params: TriangleParams
    order: int
    wronskian_dev: dict
    ode_residual: dict
    connection_at_one: dict
    connection_at_inf: dict
    theta_gamma_route: complex
    theta_series_route: complex
    omega_matches_statement: bool
    omega_residuals: tuple

    def max_connection_residual(self):
        vals = list(self.connection_at_one.values()) + list(
            self.connection_at_inf.values()
        )
        return max(vals) if vals else 0.0

    def passed(self):
        return (
            max(self.wronskian_dev.values()) < 1e-9
            and self.max_connection_residual() < 1e-6
            and self.omega_matches_statement
        )

    def as_dict(self):
        c = lambda v: [v.real, v.imag]
        return {
            "params": self.params.label(),
            "order": self.order,
            "wronskian_dev": {str(k): v for k, v in self.wronskian_dev.items()},
            "ode_residual": {str(k): v for k, v in self.ode_residual.items()},
            "connection_at_one": {str(k): v for k, v in self.connection_at_one.items()},
            "connection_at_inf": {str(k): v for k, v in self.connection_at_inf.items()},
            "theta_gamma_route": c(self.theta_gamma_route),
            "theta_series_route": c(self.theta_series_route),
            "omega_matches_statement": self.omega_matches_statement,
            "omega_residuals": list(self.omega_residuals),
        }


def _infinity_residuals(params, k, z):
    """Relative residuals at z of the expansion at infinity under both omega variants.

    Returns ``(residual_statement_form, residual_alt_form)`` with the
    constants ``k``; the statement form (Gamma(beta) in the denominator)
    is the one that matches, the alternative fails by orders of magnitude.
    2F1 at z is taken by the Pfaff transform, at z/(z-1), which lies in
    the unit disk wherever Re(z) < 1/2.
    """
    al, be, ga = (float(v) for v in params.as_tuple())
    w = complex(z)
    lhs = (1 - w) ** (-al) * hyp2f1_numeric(al, ga - be, ga, w / (w - 1))
    t1 = hyp2f1_numeric(al, 1 - ga + al, 1 - be + al, 1 / z)
    t2 = hyp2f1_numeric(be, 1 - ga + be, 1 - al + be, 1 / z)
    rhs = lambda om: om * (-z) ** (-al) * t1 + k.omega1 * (-z) ** (-be) * t2
    return abs(lhs - rhs(k.omega)) / abs(lhs), abs(lhs - rhs(k.omega_alt)) / abs(lhs)


def numeric_checks(params: TriangleParams, samples=(0.1, 0.3, 0.5j), N=NUMERIC_CHECK_ORDER):
    """Floating validation of the ODE, Wronskian and connection formulas."""
    samples = [_check_sample(z) for z in samples]
    al, be, ga = (float(v) for v in params.as_tuple())
    d = derived_constants(params)
    k = connection_constants(params)
    u0 = u_series("u0", params, N)
    u1 = u_series("u1", params, N)
    u0_d = u0.differentiate()
    u1_d = u1.differentiate()
    u0_dd = u0_d.differentiate()

    wron = {}
    ode = {}
    for z in samples:
        w_val = u1_d.evaluate(z) * u0.evaluate(z) - u1.evaluate(z) * u0_d.evaluate(z)
        wron[z] = abs(w_val - complex(float(d.w)))
        pot = (
            float(d.a) / (4 * z ** 2)
            + float(d.b) / (4 * (z - 1) ** 2)
            + float(d.c) / (4 * z ** 2 * (z - 1) ** 2)
        )
        ode[z] = abs(u0_dd.evaluate(z) + pot * u0.evaluate(z))

    conn1 = {}
    for z in (1e-3, 1e-2, 0.1):
        lhs = hyp2f1_numeric(al, be, ga, 1 - z)
        first = hyp2f1_numeric(al, be, al + be - ga + 1, z)
        second = k.theta1 * z ** (ga - al - be) * hyp2f1_numeric(
            ga - al, ga - be, ga - al - be + 1, z
        )
        conn1[z] = abs(lhs - (k.theta * first + second)) / abs(lhs)
        if z == 1e-3:
            # theta by series: peel the second connection term off 2F1 near 1
            theta_series = (lhs - second) / first

    # the residuals at z = -30 also decide between the two omega variants
    residuals = {z: _infinity_residuals(params, k, z) for z in (-30.0, complex(-5, 3))}
    r_stmt, r_alt = residuals[-30.0]
    return NumericReport(
        params=params,
        order=N,
        wronskian_dev=wron,
        ode_residual=ode,
        connection_at_one=conn1,
        connection_at_inf={z: r[0] for z, r in residuals.items()},
        theta_gamma_route=k.theta,
        theta_series_route=theta_series,
        omega_matches_statement=(r_stmt < 1e-6 < r_alt),
        omega_residuals=(r_stmt, r_alt),
    )
