import math
import random
from fractions import Fraction

import pytest

from triring.derivation import apply_D
from triring.hypergeom import u_series
from triring.multiplicity import generator_series
from triring.params import validate
from triring.ring import AFFINE_VARS, Poly
from triring.series import PuiseuxSeries


@pytest.fixture
def base_params():
    return validate(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))


@pytest.fixture
def small_params():
    return validate(Fraction(1, 6), Fraction(1, 4), Fraction(1, 2))


def random_valid_triples(count, seed=0):
    """Deterministic pseudo-random valid unit-fraction triples."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = rng.randint(2, 6)
        b = rng.randint(c + 1, 18)
        a = rng.randint(b + 1, 30)
        if Fraction(1, c) > Fraction(1, a) + Fraction(1, b):  # a > b > c orders them
            trip = validate(Fraction(1, a), Fraction(1, b), Fraction(1, c))
            if trip not in out:
                out.append(trip)
    return out


def random_poly(rng, vars=AFFINE_VARS, max_degree=2, terms=4, coeff_range=6):
    out = Poly.zero(vars)
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_degree) for _ in vars)
        coef = Fraction(rng.randint(-coeff_range, coeff_range))
        out = out + Poly(vars, {exps: coef})
    return out


def random_isobaric(rng, weight, coeff_range=6):
    """Random nonzero isobaric polynomial of the given weight in y0,y1,y2."""
    vars = AFFINE_VARS
    while True:
        out = Poly.zero(vars)
        for _ in range(3):
            t0 = rng.randint(0, weight)
            t1 = rng.randint(0, weight - t0)
            t2 = weight - t0 - t1
            exps = (0, 0, t0, t1, t2)
            out = out + Poly(vars, {exps: Fraction(rng.randint(-coeff_range, coeff_range))})
        if out:
            return out


def reference_leibniz(P, table):
    """The derivation ``table`` on P, by Leibniz over exponent tuples.

    A reference for ``derivation.leibniz``, which works on packed keys:
    each term ``c m`` and variable of exponent ``e`` in ``m`` add
    ``c e img`` times ``m`` with that exponent lowered by one, the terms
    inserted in the same order.
    """
    images = [table.get(name) for name in P.vars]
    terms = {}
    for exps, coef in P.terms.items():
        for idx, e in enumerate(exps):
            if not e or not images[idx]:
                continue
            for img_exps, img_coef in images[idx].terms.items():
                key = [a + b for a, b in zip(exps, img_exps)]
                key[idx] -= 1
                key = tuple(key)
                terms[key] = terms.get(key, 0) + coef * e * img_coef
    return Poly(P.vars, terms)


def reference_generic_entry(P, params, values, n):
    """(D^n P) at the float generator ``values``, by ``apply_D`` n times and exact sums.

    A reference for ``multiplicity._flow``: D^n P is built as a
    polynomial over ``AFFINE_VARS`` and each of its terms t is evaluated
    exactly, every float value read as a Gaussian rational.  Returns the
    value, the slopes x_i d/dx_i (the sums of e_i(t) t, in the order of
    ``AFFINE_VARS``), each a ``(re, im)`` pair of Fractions, and the
    float sum of deg(t)^2 |t|.
    """
    Q = P
    for _ in range(n):
        Q = apply_D(Q, params)
    point = [(Fraction(values[v].real), Fraction(values[v].imag)) for v in AFFINE_VARS]
    value, slopes, remainder = (0, 0), [(0, 0)] * len(point), 0.0
    for exps, coef in Q.terms.items():
        re, im = Fraction(coef), Fraction(0)
        for (a, b), e in zip(point, exps):
            for _ in range(e):
                re, im = re * a - im * b, re * b + im * a
        value = (value[0] + re, value[1] + im)
        slopes = [(s + e * re, t + e * im) for (s, t), e in zip(slopes, exps)]
        remainder += sum(exps) ** 2 * math.hypot(re, im)
    return value, slopes, remainder


def series_sum(P, params, N):
    """P on the generator series at order N, summed in ``PuiseuxSeries`` arithmetic.

    A reference for the exact evaluator at 0: each coefficient times the
    product of generator powers, a constant term certified to the least
    ``prec`` of the five generators.  Its ``ord()`` and ``prec`` are what
    ``ord_at_zero`` reports at N when the sum is conclusive.
    """
    gens = generator_series(params, N)
    floor = min(gens[v].prec for v in AFFINE_VARS)
    total = None
    for exps, coef in P.terms.items():
        term = None
        for name, e in zip(P.vars, exps):
            for _ in range(e):
                term = gens[name] if term is None else term * gens[name]
        term = PuiseuxSeries.constant(coef, floor) if term is None else term.scale(coef)
        total = term if total is None else total + term
    return total


def reference_order(P, params, N, doublings):
    """``(ord, prec)`` of ``series_sum`` at the first of N, 2N, ... that decides.

    Tries ``doublings`` doublings past N, as ``ord_at_zero`` does, and
    returns None when every sum vanishes to its ``prec``.
    """
    order = N
    for _ in range(doublings + 1):
        value = series_sum(P, params, order)
        if value.coeffs:
            return value.ord(), value.prec
        order = max(2 * order, 1)
    return None


def reference_rows(params, monomials, N):
    """``(ram, prec, scale, coeffs)`` of each monomial by ``PuiseuxSeries`` products.

    A reference for ``multiplicity._monomial_rows``, which shares
    prefixes and powers between monomials: each monomial is built as the
    left-to-right product of its nonzero powers, each power
    ``s * s * ...`` from the left, the association ``_monomial_rows``
    uses, and its Fraction coefficients are then scaled by the lcm of
    their denominators.
    """
    gens = generator_series(params, N)
    series = [gens[v] for v in AFFINE_VARS]
    rows = []
    for exps in monomials:
        value = None
        for s, e in zip(series, exps):
            if not e:
                continue
            power = s
            for _ in range(e - 1):
                power = power * s
            value = power if value is None else value * power
        if value is None:
            rows.append((1, min(s.prec for s in series), 1, {0: 1}))
            continue
        scale = math.lcm(*[c.denominator for c in value.coeffs.values()])
        coeffs = {k: c.numerator * (scale // c.denominator) for k, c in value.coeffs.items()}
        rows.append((value.ram, value.prec, scale, coeffs))
    return rows


def reference_exp(f):
    """``exp(f)`` by the term-by-term ``Fraction`` recurrence, for ``ord(f) > 0``.

    From ``out' = f' out``: ``(k/r) out_k = sum_j (j/r) f_j out_{k-j}``,
    each ``out_k`` a ``Fraction`` summed term by term.  A reference for
    ``PuiseuxSeries.exp``, which runs the same recurrence on integers.
    """
    if not f.coeffs:
        return PuiseuxSeries(f.ram, {0: Fraction(1)}, f.prec)
    out = {0: Fraction(1)}
    for k in range(1, -(-f.prec.numerator * f.ram // f.prec.denominator)):
        acc = None
        for j, fj in f.coeffs.items():
            if j > k:
                continue
            ok = out.get(k - j)
            if ok is None:
                continue
            term = fj * ok * j
            acc = term if acc is None else acc + term
        if acc:
            out[k] = acc / k
    return PuiseuxSeries(f.ram, out, f.prec)


def reference_2F1(a, b, c, N, argument_sign=1):
    """2F1(a, b; c; argument_sign * x) to x**N by the term ratio in ``Fraction`` arithmetic.

    ``t_n = t_(n-1) (a+n-1)(b+n-1) / ((c+n-1) n)``, four ``Fraction``
    operations a term, times ``argument_sign ** n``.  A reference for
    ``hypergeom.gauss_2F1``, which runs the same recurrence on integers.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    coeffs = {}
    term = Fraction(1)
    for n in range(N + 1):
        if n:
            term = term * (a + n - 1) * (b + n - 1) / ((c + n - 1) * n)
        value = term * argument_sign ** n
        if value:
            coeffs[n] = value
    return PuiseuxSeries(1, coeffs, N + 1)


def reference_binomial(s, N, argument_sign=1):
    """(1 + argument_sign * x)**s to x**N by ``c_n = c_(n-1) (s-n+1)/n`` in ``Fraction``."""
    s = Fraction(s)
    coeffs = {}
    c = Fraction(1)
    for n in range(N + 1):
        if n:
            c = c * (s - n + 1) / n
        value = c * argument_sign ** n
        if value:
            coeffs[n] = value
    return PuiseuxSeries(1, coeffs, N + 1)


def reference_tau_q(params, N):
    """tau = (u1 / u0).normalize_ram() and q = exp(tau) from the two u series.

    A reference for ``hypergeom.tau_q_series_at_zero``, which cancels
    the shared (1-z)**s and divides the two 2F1 series.
    """
    tau = (u_series("u1", params, N) / u_series("u0", params, N)).normalize_ram()
    return tau, tau.exp()
