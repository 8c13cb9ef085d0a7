"""Vanishing orders of generator combinations, distances, and the audit.

Orders are computed in the z-coordinate throughout (the coordinate of
the hypergeometric argument); reports carry that label explicitly.  At
the singular point 0 the computation is exact: the five generator
series are substituted into the polynomial and the least surviving
exponent is read off, retrying at doubled order while the result is
inconclusive.  At a generic point the Taylor coefficients of u0, u1
come from the polynomial-coefficient recurrence of the normal-form
equation, seeded with closed-form initial values, and the order is the
first coefficient index above a relative threshold.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import hypergeom
from .errors import (
    CutLineViolation,
    InconclusiveOrder,
    NotHomogeneous,
    ThresholdAmbiguous,
    TruncationExhausted,
    ZeroPolynomial,
)
from .derivation import is_x_homogeneous, x_degree
from .params import TriangleParams, derived_constants
from .ring import AFFINE_VARS, Poly
from .series import PuiseuxSeries

DEFAULT_ORDER = 24
MAX_DOUBLINGS = 3
GENERIC_THRESHOLD = 1e-8
GENERIC_ABS_FLOOR = 1e-12


@dataclass
class OrdReport:
    point: str  # "zero" or the numeric z0 as text
    poly: str
    ord: Fraction | int | None
    conclusive: bool
    truncation: Fraction
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


def substitute_series(P: Poly, images: dict) -> PuiseuxSeries:
    """Evaluate a polynomial on series images of its variables."""
    if not P:
        raise ZeroPolynomial("refusing to expand the zero polynomial")
    prec_floor = min(s.prec for s in images.values())
    total = None
    powers = {name: {1: s} for name, s in images.items()}

    def power(name, e):
        cache = powers[name]
        top = max(k for k in cache if k <= e)
        acc = cache[top]
        for k in range(top + 1, e + 1):
            acc = acc * images[name]
            cache[k] = acc
        return acc

    for exps, coef in P.terms.items():
        term = None
        for name, e in zip(P.vars, exps):
            if not e:
                continue
            factor = power(name, e)
            term = factor if term is None else term * factor
        if term is None:
            term = PuiseuxSeries.constant(coef, prec_floor)
        else:
            term = term.scale(coef)
        total = term if total is None else total + term
    return total


def ord_at_zero(P: Poly, params: TriangleParams, N=DEFAULT_ORDER) -> OrdReport:
    """Exact z-coordinate vanishing order at 0, with automatic retries."""
    if not P:
        raise ZeroPolynomial("the zero polynomial has no order")
    order = N
    for _ in range(MAX_DOUBLINGS + 1):
        gens = generator_series(params, order)
        value = substitute_series(P, {v: gens[v] for v in AFFINE_VARS})
        try:
            return OrdReport(
                point="zero",
                poly=P.to_text(),
                ord=value.ord(),
                conclusive=True,
                truncation=value.prec,
                domain=value.domain,
            )
        except InconclusiveOrder:
            order = max(2 * order, 1)
    raise TruncationExhausted(
        f"order of {P.to_text()} at zero still inconclusive at N={order // 2}"
    )


# -- generic points -----------------------------------------------------------------


def _poly_mul(p1, p2):
    out = [0j] * (len(p1) + len(p2) - 1)
    for i, a in enumerate(p1):
        for j, b in enumerate(p2):
            out[i + j] += a * b
    return out


def taylor_u_series(params, z0, N, which):
    """Complex Taylor series of u0 or u1 at z0 via the ODE recurrence.

    The equation 4 z^2 (z-1)^2 U'' + (a (z-1)^2 + b z^2 + c) U = 0 has
    polynomial coefficients, giving a short recurrence; the two initial
    values come from the closed-form evaluation on the cut unit disk.
    """
    z0 = complex(z0)
    d = derived_constants(params)
    a, b, c = float(d.a), float(d.b), float(d.c)
    u, up = hypergeom.u_value_and_derivative(which, params, z0)
    lin = [z0, 1.0 + 0j]  # z0 + s
    lin1 = [z0 - 1, 1.0 + 0j]  # z0 - 1 + s
    p = _poly_mul(_poly_mul(lin, lin), _poly_mul(lin1, lin1))
    p = [4 * v for v in p]  # degree 4, p[0] != 0 away from 0 and 1
    qq = [
        a * (z0 - 1) ** 2 + b * z0 ** 2 + c,
        2 * a * (z0 - 1) + 2 * b * z0,
        a + b + 0j,
    ]
    coeffs = [u, up]
    for n in range(N - 1):
        # coefficient of s^n in p U'' + q U vanishes
        acc = 0j
        for j in range(1, 5):
            if 0 <= n - j + 2 < len(coeffs):
                acc += p[j] * (n - j + 2) * (n - j + 1) * coeffs[n - j + 2]
        for j in range(3):
            if 0 <= n - j < len(coeffs):
                acc += qq[j] * coeffs[n - j]
        coeffs.append(-acc / (p[0] * (n + 2) * (n + 1)))
    return PuiseuxSeries(1, dict(enumerate(coeffs)), len(coeffs))


def generator_series_at(params, z0, N):
    """Complex Taylor series of the five generators recentred at z0."""
    z0 = complex(z0)
    u0 = taylor_u_series(params, z0, N + 4, "u0")
    u1 = taylor_u_series(params, z0, N + 4, "u1")
    u0_d = u0.differentiate()
    zser = PuiseuxSeries(1, {0: z0, 1: 1.0 + 0j}, N + 4)
    y0 = u0 * u0_d
    y1 = y0 - (u0 * u0) / zser
    y2 = y0 - (u0 * u0) / (zser - 1.0)
    tau = u1 / u0
    tau0 = tau.coefficient(0)
    q = (tau - tau0).exp().scale(cmath.exp(tau0))
    return {"tau": tau, "q": q, "y0": y0, "y1": y1, "y2": y2}


def ord_at_generic(
    P: Poly,
    params: TriangleParams,
    z0,
    N=DEFAULT_ORDER,
    threshold=GENERIC_THRESHOLD,
) -> OrdReport:
    """Numeric vanishing order at a generic point of the cut disk.

    ``z0`` must avoid the cut rays and stay inside the unit disk, away
    from 0 and 1; conclusive orders at such points are natural numbers.

    Recentred Taylor coefficients grow like R0**(-k) with R0 the
    distance from z0 to the nearest singularity, so each coefficient is
    rescaled by R0**k before the relative threshold is applied;
    otherwise a long window would drown the low-order coefficients.
    """
    if not P:
        raise ZeroPolynomial("the zero polynomial has no order")
    z0 = complex(z0)
    if abs(z0) >= 0.95 or abs(z0) < 1e-6 or abs(z0 - 1) < 0.05:
        raise ValueError("z0 must be inside the disk, away from 0 and 1")
    if z0.imag == 0 and z0.real < 0:
        raise CutLineViolation(f"{z0} lies on the branch cut along the negative axis")
    gens = generator_series_at(params, z0, N)
    value = substitute_series(P, gens)
    radius = min(abs(z0), abs(z0 - 1))
    scaled = [
        abs(value.coefficient(k)) * radius ** k for k in range(int(value.prec))
    ]
    cmax = max(scaled) if scaled else 0.0
    if cmax == 0.0:
        raise TruncationExhausted("all recentred coefficients are exactly zero")
    if cmax < GENERIC_ABS_FLOOR:
        raise ThresholdAmbiguous(
            f"largest scaled coefficient {cmax:.3e} sits below the trust floor"
        )
    for k, mag in enumerate(scaled):
        if mag >= threshold * cmax:
            return OrdReport(
                point=str(z0),
                poly=P.to_text(),
                ord=k,
                conclusive=True,
                truncation=value.prec,
                domain=value.domain,
            )
    raise ThresholdAmbiguous("no coefficient clears the relative threshold")


# -- hypersurface distance ------------------------------------------------------------


def _coordinate_min_ord(params, N):
    gens = generator_series(params, N)
    vals = []
    for name in ("q", "y0", "y1", "y2"):
        vals.append(gens[name].ord())
    return min(Fraction(0), min(vals))


def log_dist_hypersurface(U: Poly, params: TriangleParams, N=DEFAULT_ORDER, point="zero"):
    """-log Dist of the zero hypersurface of U from the coordinate point.

    Exact at the singular point 0: combines the order of U evaluated on
    the coordinate functions, the least coefficient order, and the
    degree correction for unbounded coordinates.  The result is a
    nonnegative element of (1/ram) Z.
    """
    if point not in ("zero", "0", 0):
        raise ValueError("only the exact path at the singular point is supported")
    if not U:
        raise ZeroPolynomial("the zero polynomial cuts out no hypersurface")
    if not is_x_homogeneous(U):
        raise NotHomogeneous("U must be homogeneous in X0..X4")
    from .derivation import dehomogenize

    d = derived_constants(params)
    value_ord = ord_at_zero(dehomogenize(U), params, N).ord
    # each X-coefficient is a polynomial in t alone; substituting the
    # tau series gives order (lowest t-degree) * (1 - gamma) exactly
    t_idx = U.vars.index("t")
    lowest_t = {}
    for exps, _ in U.terms.items():
        key = exps[:t_idx] + exps[t_idx + 1:]
        e_t = exps[t_idx]
        lowest_t[key] = min(lowest_t.get(key, e_t), e_t)
    min_coeff_ord = min(m * d.w for m in lowest_t.values())
    correction = x_degree(U) * _coordinate_min_ord(params, N)
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


def _monomial_series_cache(params, profile, N):
    """Series of every monomial in the profile box, keyed by exponents.

    Each monomial is its parent (the same exponents with the last
    nonzero one lowered by one) times one generator, so the box costs
    one series product per monomial of total degree two or more.
    """
    gens = generator_series(params, N)
    boxes = {}
    for exps in itertools.product(*(range(d + 1) for d in profile)):
        last = max((i for i, e in enumerate(exps) if e), default=None)
        if last is None:
            prec = min(g.prec for g in gens.values())
            boxes[exps] = PuiseuxSeries.constant(Fraction(1), prec)
            continue
        gen = gens[AFFINE_VARS[last]]
        parent = exps[:last] + (exps[last] - 1,) + exps[last + 1:]
        boxes[exps] = boxes[parent] * gen if any(parent) else gen
    return boxes


def _integer_columns(box):
    """The box as ``(ram, ((k, column), ...))`` with integer columns.

    Every series is put on one ``ram`` grid and cut at the least ``prec``
    of the box.  Column ``k`` holds the coefficients of x^(k/ram), one
    per monomial in box order, times the lcm of their denominators; a
    positive scale per column keeps each zero test of a dot product
    exact.  Columns come in increasing order of ``k``, and every column
    is a tuple, so a shared result cannot be changed by its readers.
    """
    series = list(box.values())
    ram = math.lcm(*(s.ram for s in series))
    limit = min(s.prec for s in series) * ram
    rows = []
    for s in series:
        f = ram // s.ram
        rows.append({k * f: c for k, c in s.coeffs.items() if k * f < limit})
    columns = []
    for k in sorted(set().union(*rows)):
        entries = [row.get(k, 0) for row in rows]
        scale = math.lcm(*(c.denominator for c in entries))
        columns.append((k, tuple(int(c * scale) for c in entries)))
    return ram, tuple(columns)


@lru_cache(maxsize=32)
def _box_columns(params: TriangleParams, profile: tuple, N: int):
    """Integer columns of the profile box at order N, cached per process.

    Bounded like ``generator_series``.  Only the immutable
    ``(ram, columns)`` of ``_integer_columns`` is kept; the series of the
    box are dropped once their columns are built.
    """
    return _integer_columns(_monomial_series_cache(params, profile, N))


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

    A sample is evaluated as integer dot products: the monomial series
    of the box become integer columns, one per exponent below the box's
    precision, each scaled by the lcm of its denominators.  The columns
    of each (params, profile, order) are built once per process and kept
    in a cache of at most 32 boxes (``_box_columns``), so auditing a box
    again with new seeds costs only the dot products.  The order of
    a sample is the exponent of the first column whose dot product with
    its coefficient vector is nonzero.  When every column gives zero the
    sample is inconclusive and retries on the box at doubled order; any
    that stay inconclusive are skipped and counted, never silently
    dropped.  ``order_used`` is the truncation order of the last box built.
    """
    profile = tuple(int(d) for d in profile)
    if len(profile) != 5 or any(d < 0 for d in profile):
        raise ValueError("profile must be five nonnegative partial degrees")
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    m1, m2, bound = profile_bound(profile)
    rng = random.Random(seed)
    nonzero = [i for i in range(-9, 10) if i]
    size = math.prod(d + 1 for d in profile)
    draws = [[rng.choice(nonzero) for _ in range(size)] for _ in range(samples)]

    pending = list(range(samples))
    order = order_used = N
    results = {}
    for _ in range(MAX_DOUBLINGS + 1):
        if not pending:
            break
        order_used = order
        ram, columns = _box_columns(params, profile, order)
        still = []
        for idx in pending:
            sample = draws[idx]
            for k, column in columns:
                if sum(map(mul, column, sample)):
                    results[idx] = Fraction(k, ram)
                    break
            else:
                still.append(idx)
        pending = still
        order = max(2 * order, 1)
    skipped = len(pending)
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
        skipped=skipped,
        all_within_bound=all(o <= bound for o in ords),
        ords=ords,
    )
