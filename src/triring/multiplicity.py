"""Vanishing orders of generator combinations, distances, and the audit.

Orders are computed in the z-coordinate throughout (the coordinate of
the hypergeometric argument); reports carry that label explicitly.  At
the singular point 0 the computation is exact, and ``ord_at_zero`` and
the audit share it: the series of the monomials, products of the
generator series, become integer columns, one per exponent, read from
the numerators and the common denominator each series stores, and the
order of a coefficient vector is the exponent of the first column with
a nonzero dot product, retrying at doubled order while every column
vanishes.  At a generic point u0 is a unit and the derivation D acts as
u0^2 d/dz, so the order of P is the least n with (D^n P)(z0) nonzero:
the exact iterates D^n P are evaluated at the five generator values at
z0, and the first whose value stands clear of the error those values
can carry gives the order.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from operator import mul

from . import hypergeom
from .errors import (
    CutLineViolation,
    NotHomogeneous,
    ThresholdAmbiguous,
    TruncationExhausted,
    ZeroPolynomial,
)
from .derivation import apply_D, dehomogenize, is_x_homogeneous, leibniz, x_degree
from .params import TriangleParams, derived_constants
from .ring import AFFINE_VARS, Poly
from .series import PuiseuxSeries

DEFAULT_ORDER = 24
MAX_DOUBLINGS = 3
# relative error allowed to each generator value at a generic point: about
# 40 times the worst relative error of the five generator values from
# u_value_and_derivative against mpmath at 30 digits (2.3e-14 over 400
# points of the cut disk on triples with denominators up to 20)
GENERIC_THRESHOLD = 1e-12
# D^n P grows with n; a derivative with more terms is not differentiated again
GENERIC_MAX_TERMS = 10000


@dataclass
class OrdReport:
    point: str  # "zero" or the numeric z0 as text
    poly: str
    ord: Fraction | int | None
    conclusive: bool
    truncation: Fraction  # at a generic point: N, the cap on derivatives tried
    domain: str
    coordinate: str = "z"


@lru_cache(maxsize=32)
def generator_series(params: TriangleParams, N: int):
    """Exact z = 0 series of tau, q, y0, y1, y2 (plus u0^2), cached."""
    fam = hypergeom.y_series("zero", params, N)
    tau, q = hypergeom._tau_q(fam.u0, hypergeom.u_series("u1", params, N))
    return {
        "tau": tau,
        "q": q,
        "y0": fam.y0.normalize_ram(),
        "y1": fam.y1.normalize_ram(),
        "y2": fam.y2.normalize_ram(),
        "u0sq": fam.u0sq.normalize_ram(),
    }


def _monomial_rows(params, monomials, N):
    """The series of the monomials at order N, in the order given.

    A monomial (an exponent tuple over ``AFFINE_VARS``) is its prefix,
    the exponents before its last nonzero one, times a power of its last
    variable.  Walked in sorted order, monomials sharing a prefix come
    together, so each prefix and power is built once, as a series
    product.  The constant monomial is 1 to the least ``prec`` of the
    five generators.
    """
    gens = generator_series(params, N)
    series = [gens[v] for v in AFFINE_VARS]
    powers = [[None, s] for s in series]
    monomials = list(monomials)
    rows = [None] * len(monomials)
    # (i, product of the factors at positions <= i) of the monomial before
    path, before = [], ()
    for idx in sorted(range(len(monomials)), key=monomials.__getitem__):
        exps = monomials[idx]
        same = next((i for i, (a, b) in enumerate(zip(exps, before)) if a != b), len(before))
        while path and path[-1][0] >= same:
            path.pop()
        for i in range(same, len(exps)):
            if exps[i]:
                pw = powers[i]
                while len(pw) <= exps[i]:
                    pw.append(pw[-1] * series[i])
                path.append((i, path[-1][1] * pw[exps[i]] if path else pw[exps[i]]))
        before = exps
        rows[idx] = path[-1][1] if path else PuiseuxSeries.constant(1, min(s.prec for s in series))
    return rows


def _integer_columns(rows):
    """The series ``rows`` as ``(ram, ((k, column), ...))`` with integer columns.

    Every row is put on one ``ram`` grid and cut at the least ``prec``
    of the rows.  Column ``k`` holds the coefficients of x^(k/ram), one
    per row in row order, times the lcm of their denominators; a
    positive scale per column keeps each zero test of a dot product
    exact.  Columns come in increasing order of ``k``, and every column
    is a tuple, so a shared result cannot be changed by its readers.
    """
    ram = math.lcm(*[s.ram for s in rows])
    limit = min(s.prec for s in rows) * ram
    grid = [s.with_ram(ram).nums for s in rows]
    scales = [s.den for s in rows]
    columns = []
    for k in sorted(k for k in set().union(*grid) if k < limit):
        entries = [g.get(k, 0) for g in grid]
        col = 1
        for n, d in zip(entries, scales):
            col = math.lcm(col, d // math.gcd(n, d))
        # a list first: tuple() of a generator allocates and then shrinks, so
        # freed columns would pile up in CPython's free list of their size
        columns.append((k, tuple([n * col // d for n, d in zip(entries, scales)])))
    return ram, tuple(columns)


def _first_orders(columns_at, vectors, N):
    """Orders at 0 of integer vectors by index, and the last order tried.

    A vector's order is k / ram for the first column k of
    ``columns_at(order)`` with a nonzero dot product; vectors meeting only
    zero columns retry at ``max(2 * order, 1)``, up to MAX_DOUBLINGS times.
    """
    pending, orders = list(range(len(vectors))), {}
    order = order_used = N
    for _ in range(MAX_DOUBLINGS + 1):
        if not pending:
            break
        order_used = order
        ram, columns = columns_at(order)
        still = []
        for idx in pending:
            vector = vectors[idx]
            for k, column in columns:
                if sum(map(mul, column, vector)):
                    orders[idx] = Fraction(k, ram)
                    break
            else:
                still.append(idx)
        pending = still
        order = max(2 * order, 1)
    return orders, order_used


def ord_at_zero(P: Poly, params: TriangleParams, N=DEFAULT_ORDER) -> OrdReport:
    """Exact z-coordinate vanishing order at 0, with automatic retries.

    Columns as in ``bound_audit``, uncached, for P's monomials (variables
    matched by name); ``truncation`` is the least ``prec`` of their
    series.  N must be nonnegative; N = 0 retries from order 1.
    """
    if not P:
        raise ZeroPolynomial("the zero polynomial has no order")
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    affine = P if P.vars == AFFINE_VARS else P.rename_ring(AFFINE_VARS, {v: v for v in AFFINE_VARS})
    terms = affine.terms  # decoded once: the retries below reuse the exponent tuples
    scale = math.lcm(*[c.denominator for c in terms.values()])
    vector = [c.numerator * (scale // c.denominator) for c in terms.values()]
    truncation = None

    def columns_at(order):
        nonlocal truncation
        rows = _monomial_rows(params, terms, order)
        truncation = min(s.prec for s in rows)
        return _integer_columns(rows)

    orders, order_used = _first_orders(columns_at, [vector], N)
    if not orders:
        raise TruncationExhausted(
            f"order of {P.to_text()} at zero still inconclusive at N={order_used}"
        )
    return OrdReport(
        point="zero",
        poly=P.to_text(),
        ord=orders[0],
        conclusive=True,
        truncation=truncation,
        domain="rational",
    )


# -- generic points -----------------------------------------------------------------


def _generator_values(params, z0):
    """tau, q, y0, y1, y2 at z0 from the closed-form u0, u0', u1."""
    u0, u0_d = hypergeom.u_value_and_derivative("u0", params, z0)
    tau = hypergeom.u_value("u1", params, z0) / u0
    y0 = u0 * u0_d
    u0sq = u0 * u0
    return {
        "tau": tau,
        "q": cmath.exp(tau),
        "y0": y0,
        "y1": y0 - u0sq / z0,
        "y2": y0 - u0sq / (z0 - 1),
    }


def _gaussian_point(values, names):
    """The float ``values`` of ``names`` as Gaussian integers X = x * 2^K, and K."""
    ratios = [
        part.as_integer_ratio()
        for name in names
        for part in (values[name].real, values[name].imag)
    ]
    K = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (K - den.bit_length() + 1) for num, den in ratios]
    return list(zip(ints[0::2], ints[1::2])), K


def _scaled_iterates(P: Poly, params):
    """Integer multiples of P, D P, D^2 P, ... as ``(poly, scale)``.

    D^n P is ``poly / scale``.  The iterates apply M D, M the least common
    denominator of the generator images of D, so the Leibniz rule runs on
    ints with no Fraction arithmetic.
    """
    yield P, 1
    images = {v: apply_D(Poly.var(P.vars, v), params) for v in P.vars}
    M = math.lcm(
        *(Fraction(c).denominator for img in images.values() for c in img.mono.values())
    )
    table = {v: M * img for v, img in images.items()}
    scale = math.lcm(*(Fraction(c).denominator for c in P.mono.values()))
    multiple = scale * P
    while True:
        multiple = leibniz(multiple, table)
        scale *= M
        yield multiple, scale


def _value_and_bound(P: Poly, values, scale=1):
    """P / scale exactly at the float ``values``, a bound on its input error, and their unit.

    The value carries no rounding: every term is a Gaussian integer over
    one common denominator.  If each input may be off by a relative error
    ``GENERIC_THRESHOLD``, the value of P may be off by that times
    sum_i |x_i dP/dx_i| (the sum over variables of |sum_t e_i(t) t|, t the
    terms), plus a second-order remainder of at most that squared times
    sum_t deg(t)^2 |t|.  Terms that cancel do not inflate the bound; only
    the sensitivity of P to its inputs does.

    Value and bound are floats in one ``unit``, a Fraction: 2^E over the
    common denominator, E the bit length of the largest term, so both
    stay near that term's size whatever the scale of P: no conversion
    overflows, and a constant factor of P cancels from their ratio.  The
    value is ``value * unit``.
    """
    point, K = _gaussian_point(values, P.vars)
    top = P.total_degree()
    lcm = math.lcm(*(Fraction(c).denominator for c in P.mono.values()))
    powers = [[(1, 0)] for _ in point]
    value = [0, 0]
    slopes = [[0, 0] for _ in point]
    terms = []
    for exps, coef in P.terms.items():
        deg = sum(exps)
        re, im = int(coef * lcm) << (K * (top - deg)), 0
        for i, e in enumerate(exps):
            if not e:
                continue
            pw = powers[i]
            while len(pw) <= e:
                (a, b), (c, d) = pw[-1], point[i]
                pw.append((a * c - b * d, a * d + b * c))
            c, d = pw[e]
            re, im = re * c - im * d, re * d + im * c
        value[0] += re
        value[1] += im
        for i, e in enumerate(exps):
            if e:
                slopes[i][0] += e * re
                slopes[i][1] += e * im
        terms.append((deg * deg, re, im))
    shift = 1 << max(max(abs(re), abs(im)).bit_length() for _, re, im in terms)
    mag = lambda re, im: abs(complex(re / shift, im / shift))
    remainder = sum(d2 * mag(re, im) for d2, re, im in terms)
    sensitivity = sum(mag(re, im) for re, im in slopes)
    eps = GENERIC_THRESHOLD
    bound = eps * (sensitivity + eps * remainder)
    unit = Fraction(shift, (lcm * scale) << (K * top))
    return complex(value[0] / shift, value[1] / shift), bound, unit


def ord_at_generic(P: Poly, params: TriangleParams, z0, N=DEFAULT_ORDER) -> OrdReport:
    """Numeric vanishing order at a generic point of the cut disk.

    ``z0`` must avoid the cut rays and stay inside the unit disk, away
    from 0 and 1; conclusive orders at such points are natural numbers.

    The order is the least n < N with |(D^n P)(z0)| above the error
    that a relative error of ``GENERIC_THRESHOLD`` in each of the five
    generator values could cause in it (``_value_and_bound``); a value
    within that bound is read as zero.  The value is computed exactly at
    those values, so terms that cancel cost no precision, and the ratio
    of value to bound is the margin of the decision.  Value and bound are
    compared in a unit taken from the largest term, so the decision is
    scale-free: there is no absolute floor, and c * P has the order of P
    for every constant c != 0.  A D^n P of more than
    ``GENERIC_MAX_TERMS`` terms still to differentiate, or no n < N
    clearing its bound, is ambiguous.
    """
    if not P:
        raise ZeroPolynomial("the zero polynomial has no order")
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    z0 = complex(z0)
    if abs(z0) >= 0.95 or abs(z0) < 1e-6 or abs(z0 - 1) < 0.05:
        raise ValueError("z0 must be inside the disk, away from 0 and 1")
    if z0.imag == 0 and z0.real < 0:
        raise CutLineViolation(f"{z0} lies on the branch cut along the negative axis")
    values = _generator_values(params, z0)
    iterates = _scaled_iterates(P, params)
    for n in range(N):
        multiple, scale = next(iterates)
        if not multiple:
            raise TruncationExhausted(f"D^{n} P is the zero polynomial")
        value, bound, _ = _value_and_bound(multiple, values, scale)
        if abs(value) > bound:
            return OrdReport(
                point=str(z0),
                poly=P.to_text(),
                ord=n,
                conclusive=True,
                truncation=Fraction(N),
                domain="complex",
            )
        if len(multiple.mono) > GENERIC_MAX_TERMS:
            raise ThresholdAmbiguous(
                f"D^{n} P has {len(multiple.mono)} terms, more than "
                f"{GENERIC_MAX_TERMS}, and is read as zero at {z0}"
            )
    raise ThresholdAmbiguous(f"no D^n P with n < {N} clears its error bound")


# -- hypersurface distance ------------------------------------------------------------


def log_dist_hypersurface(U: Poly, params: TriangleParams, N=DEFAULT_ORDER):
    """-log Dist of the zero hypersurface of U from the coordinate point.

    Exact at the singular point 0: combines the order of U evaluated on
    the coordinate functions, the least coefficient order, and the
    degree correction for unbounded coordinates.  The result is a
    nonnegative element of (1/ram) Z.
    """
    if not U:
        raise ZeroPolynomial("the zero polynomial cuts out no hypersurface")
    if not is_x_homogeneous(U):
        raise NotHomogeneous("U must be homogeneous in X0..X4")
    d = derived_constants(params)
    value_ord = ord_at_zero(dehomogenize(U), params, N).ord
    # each X-coefficient is a polynomial in t alone; substituting the
    # tau series gives order (lowest t-degree) * (1 - gamma) exactly, so
    # the least of these comes from the lowest t-degree in all of U
    t_idx = U.vars.index("t")
    min_coeff_ord = min(exps[t_idx] * d.w for exps in U.terms)
    gens = generator_series(params, N)
    correction = x_degree(U) * min(Fraction(0), *[gens[v].ord() for v in ("q", "y0", "y1", "y2")])
    return value_ord - min_coeff_ord - correction


# -- the degree-profile audit ----------------------------------------------------------


@dataclass
class BoundAudit:
    profile: tuple
    m1: int
    m2: int
    bound: int
    samples: int
    seed: int
    order_used: int
    max_ord: Fraction | None
    ratio: Fraction | None
    skipped: int
    all_within_bound: bool
    ords: list

    def as_dict(self):
        return {
            "profile": list(self.profile),
            "M1": self.m1,
            "M2": self.m2,
            "bound_M1_M2^4": self.bound,
            "samples": self.samples,
            "seed": self.seed,
            "order_used": self.order_used,
            "max_ord": None if self.max_ord is None else str(self.max_ord),
            "ratio_max_ord_over_bound": None if self.ratio is None else str(self.ratio),
            "skipped": self.skipped,
            "all_within_bound": self.all_within_bound,
            "ords": [str(o) for o in self.ords],
        }


def profile_bound(profile):
    """(M1, M2, M1*M2^4) for a partial-degree profile (dt, dq, dy0, dy1, dy2)."""
    dt, dq, dy0, dy1, dy2 = profile
    m1 = min(dt, dq) + 1
    m2 = max(dt, dq) + max(dy0, dy1, dy2)
    return m1, m2, m1 * m2 ** 4


@lru_cache(maxsize=32)
def _box_columns(params: TriangleParams, profile: tuple, N: int):
    """Integer columns of the profile box at order N, cached per process.

    Bounded like ``generator_series``.  Only the immutable
    ``(ram, columns)`` of ``_integer_columns`` is kept.  Rows come in
    ``itertools.product`` order, the order of each sample's draws.
    """
    box = itertools.product(*(range(d + 1) for d in profile))
    return _integer_columns(_monomial_rows(params, box, N))


# rng.choice(_NONZERO) keeps the top five bits of one 32-bit Mersenne
# Twister word and draws again while they are 18 or more; so a word whose
# top byte is b < 144 = 18 << 3 gives _NONZERO[b >> 3], here a signed byte
_NONZERO = [i for i in range(-9, 10) if i]
_TOP_BYTE = bytes(_NONZERO[b >> 3] % 256 if b < 144 else 0 for b in range(256))
_REJECTED = bytes(range(144, 256))


def _draws(seed, samples, size):
    """``samples`` lists of ``size`` coefficients from ``random.Random(seed)``.

    Equal to ``size`` calls of ``rng.choice(_NONZERO)`` per sample, one
    sample after the other, but drawn in batches: ``getrandbits(32 * m)``
    holds the next m words, the first in the lowest bits, and the top byte
    of each accepted word is mapped to its value at C speed.  The batch
    may draw more words than are used; the generator is local.
    """
    rng = random.Random(seed)
    need = samples * size
    values = bytearray()
    while len(values) < need:
        # 18 of 32 words are accepted; twice the shortfall almost always does
        words = 2 * (need - len(values)) + 16
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        values += raw[3::4].translate(_TOP_BYTE, _REJECTED)
    signed = memoryview(values).cast("b")
    return [signed[i:i + size].tolist() for i in range(0, need, size)]


def bound_audit(
    profile,
    params: TriangleParams,
    samples=200,
    N=16,
    seed=0,
) -> BoundAudit:
    """Empirical audit of the degree-profile multiplicity bound.

    Draws dense random polynomials with coefficients in {-9..9} minus 0
    on the requested profile box, computes each exact order at 0, and
    reports the maximum against M1*M2^4.  ``samples`` and ``N`` must be
    nonnegative; N = 0 retries from order 1.

    A sample is evaluated as integer dot products (``_first_orders``):
    the monomial series of the box become integer columns, one per
    exponent below the box's precision, each scaled by the lcm of its
    denominators.  The columns of each (params, profile, order) are
    built once per process and kept in a cache of at most 32 boxes
    (``_box_columns``), so auditing a box again with new seeds costs
    only the dot products.  Samples whose columns all give zero retry on
    the box at doubled order; any that stay inconclusive are skipped and
    counted, never silently dropped.  ``order_used`` is the truncation
    order of the last box built.
    """
    profile = tuple(int(d) for d in profile)
    if len(profile) != 5 or any(d < 0 for d in profile):
        raise ValueError("profile must be five nonnegative partial degrees")
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    m1, m2, bound = profile_bound(profile)
    draws = _draws(seed, samples, math.prod(d + 1 for d in profile))

    results, order_used = _first_orders(partial(_box_columns, params, profile), draws, N)
    ords = [results[i] for i in sorted(results)]
    max_ord = max(ords) if ords else None
    ratio = None if max_ord is None or not bound else Fraction(max_ord) / bound
    return BoundAudit(
        profile=profile,
        m1=m1,
        m2=m2,
        bound=bound,
        samples=samples,
        seed=seed,
        order_used=order_used,
        max_ord=max_ord,
        ratio=ratio,
        skipped=samples - len(results),
        all_within_bound=all(o <= bound for o in ords),
        ords=ords,
    )
