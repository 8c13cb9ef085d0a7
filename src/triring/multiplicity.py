"""Vanishing orders of generator combinations, distances, and the audit.

Orders are computed in the z-coordinate throughout (the coordinate of
the hypergeometric argument); reports carry that label explicitly.  At
the singular point 0 the computation is exact: the series of a monomial
is a product of the generator series, and the order of a combination of
monomials is the exponent of its first nonzero coefficient below the
least precision of their series, retrying at doubled order while every
such coefficient vanishes, at most ``MAX_DOUBLINGS`` times.
``ord_at_zero`` and the audit build the products by one walk over the
monomials and read them by one reader as integer columns, one per step
of the grid (1/c)Z, c the denominator of gamma (``_grid``), and each
runs its own retries.  The audit builds each box's series whole and
keeps its columns, each made primitive, so that each sample is a run of
dot products; ``ord_at_zero`` builds lazy product nodes instead, which
the reader extends only as far as the coefficient that decides the
order.  A retry of ``ord_at_zero`` grows the same nodes to the doubled
order: the leaves take the generator series at that order, every
product keeps the coefficients it has computed, and the reader resumes
at the old limit, below which the combination met only zero
coefficients.  At a generic point u0 is a unit and the derivation D
acts as u0^2 d/dz, so the order of P is the least n with
(D^n P)(z0) nonzero: (D^n P)(z0) is the n-th derivative of P along the
flow of D from the five generator values at z0, run exactly as
truncated jets, and the first that stands clear of the error those
values can carry gives the order.
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
    NotHomogeneous,
    ThresholdAmbiguous,
    TruncationExhausted,
    ZeroPolynomial,
)
from .derivation import dehomogenize, integer_images, is_x_homogeneous, x_degree
from .params import TriangleParams, derived_constants
from .ring import AFFINE_VARS, FIELD, _MASK, Poly, _denominator
from .series import PuiseuxSeries

DEFAULT_ORDER = 24
MAX_DOUBLINGS = 3
# relative error allowed to each generator value at a generic point: about
# 40 times the worst relative error of the five generator values from
# u_value_and_derivative against mpmath at 30 digits (2.3e-14 over 400
# points of the cut disk on triples with denominators up to 20)
GENERIC_THRESHOLD = 1e-12


@dataclass
class OrdReport:
    point: str  # "zero" or the numeric z0 as text
    poly: str
    ord: Fraction | int | None
    conclusive: bool
    truncation: Fraction  # at a generic point: N, the cap on derivatives tried
    coordinate: str = "z"


@lru_cache(maxsize=32)
def generator_series(params: TriangleParams, N: int):
    """Exact z = 0 series of tau, q, y0, y1, y2, cached."""
    fam = hypergeom.y_series("zero", params, N)
    tau, q = hypergeom.tau_q_series_at_zero(params, N)
    return {
        "tau": tau,
        "q": q,
        "y0": fam.y0.normalize_ram(),
        "y1": fam.y1.normalize_ram(),
        "y2": fam.y2.normalize_ram(),
    }


def _walk_monomials(monomials, factors, product, one):
    """The products of ``factors`` that the monomials stand for, in the order given.

    A monomial (an exponent tuple over the factors) is its prefix, the
    exponents before its last nonzero one, times a power of its last
    factor.  Walked in sorted order, monomials sharing a prefix come
    together, so each prefix and power is built once, by
    ``product(left, right)``; a power is built from the left, and a
    prefix times a power is the prefix on the left.  The constant
    monomial is ``one``.
    """
    powers = [[None, s] for s in factors]
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
                    pw.append(product(pw[-1], factors[i]))
                path.append((i, product(path[-1][1], pw[exps[i]]) if path else pw[exps[i]]))
        before = exps
        rows[idx] = path[-1][1] if path else one
    return rows


def _monomial_rows(params, monomials, N):
    """The series of the monomials at order N, in the order given.

    Each is a ``PuiseuxSeries`` product of the generator series
    (``_walk_monomials``); the constant monomial is 1 to the least
    ``prec`` of the five generators.
    """
    *series, one = _leaf_series(params, N)
    return _walk_monomials(monomials, series, mul, one)


def _leaf_series(params, N):
    """The series of the five generators at order N, then 1 to their least ``prec``."""
    gens = generator_series(params, N)
    series = [gens[v] for v in AFFINE_VARS]
    return series + [PuiseuxSeries.constant(1, min(s.prec for s in series))]


def _grid(params):
    """The ``ram`` at 0, the denominator c of gamma: every step and ``prec`` lies on (1/c)Z.

    tau has its steps on 1 - gamma + Z, q = exp(tau) its ``ram``, and each
    y_i its steps on gamma - 1 + Z, at every order.
    """
    return params.gamma.denominator


def _first_step(columns, vector):
    """The k of the first ``(k, column)`` with a nonzero dot product with ``vector``, or None."""
    for k, column in columns:
        if sum(map(mul, column, vector)):
            return k
    return None


def _affine(P: Poly) -> Poly:
    """P over ``AFFINE_VARS``, variables matched by name; any other raises DomainMismatch."""
    return P if P.vars == AFFINE_VARS else P.rename_ring(AFFINE_VARS, {v: v for v in AFFINE_VARS})


class _Node:
    """A series product of the search at 0, computed only as far as it is read.

    Every node sits on one integer grid of steps k, standing for x^(k/ram).
    ``lo`` and ``prec`` are known before any arithmetic: ``prec`` is the
    step bound of ``PuiseuxSeries.__mul__``, min(a.prec + b.lo, b.prec +
    a.lo), and ``lo`` the least step a.lo + b.lo, since leading
    coefficients never cancel.  ``coef[n]`` is the integer coefficient
    over ``den`` of step lo + n, for the steps below ``known``; a leaf
    holds a generator series whole.  Every nonzero coefficient lies on a
    step lo + n with n a multiple of ``stride``.
    """

    __slots__ = ("a", "b", "lo", "prec", "den", "stride", "coef", "known")

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.prec = min(a.prec + b.lo, b.prec + a.lo)
        self.lo = self.known = a.lo + b.lo  # nothing lies below lo
        self.den = a.den * b.den
        self.stride = math.gcd(a.stride, b.stride)
        self.coef = []

    @classmethod
    def leaf(cls, s, ram):
        """The series ``s`` whole, on the grid ``ram``.

        ``ram`` must be a multiple of ``s.ram`` and of the denominator of
        ``s.prec``.
        """
        node = object.__new__(cls)
        node.a = node.b = None
        node.hold(s, ram)
        return node

    def hold(self, s, ram):
        """Make the node a leaf holding the series ``s`` whole on the grid ``ram``, at any order."""
        f = ram // s.ram
        self.prec = self.known = s.prec.numerator * (ram // s.prec.denominator)
        self.lo = min(s.nums) * f
        self.den = s.den
        self.coef = [0] * (self.prec - self.lo)
        for k, c in s.nums.items():
            self.coef[k * f - self.lo] = c
        # a single term lies on every stride; its length keeps the stride positive
        self.stride = math.gcd(*[k * f - self.lo for k in s.nums]) or len(self.coef)

    def regrow(self):
        """Keep the computed steps once both factors are put at a higher order.

        A step below ``known`` holds the same rational at any order, since
        it lies below ``prec``; so the steps are only scaled by the new
        ``den`` over the old, an integer, as a generator's least
        denominator at a higher order is a multiple of the one at a lower.
        ``prec``, ``lo`` and ``stride`` are those of the new factors.
        """
        coef = self.coef
        scale = self.a.den * self.b.den // self.den
        self.__init__(self.a, self.b)
        self.coef = [c * scale for c in coef] if scale != 1 else coef
        self.known += len(coef)

    def extend(self, stop):
        """Compute the steps below ``stop`` and on to the next step lo + 2^j - 1, below ``prec``.

        Ending each block on a step lo + 2^j - 1 past ``stop`` makes a node
        read step by step take about log2 of its steps in extensions, and
        an extension cut short by ``prec`` leaves the next one ending where
        it would have ended without the cut.  a * b below a step
        t reads a below t - b.lo and b below t - a.lo; step lo + n is the
        dot product of a's coefficients 0..n with b's n..0, taken only on
        the multiples of the larger stride.
        """
        start = self.known
        stop = min(self.prec, max(stop, self.lo + (1 << (start - self.lo + 1).bit_length()) - 1))
        a, b = self.a, self.b
        if a.known < stop - b.lo:
            a.extend(stop - b.lo)
        if b.known < stop - a.lo:
            b.extend(stop - a.lo)
        if a.stride < b.stride:
            a, b = b, a
        s, g, A, B = a.stride, self.stride, a.coef, b.coef
        self.coef += [sum(map(mul, A[:n + 1:s], B[n::-s])) if n % g == 0 else 0
                      for n in range(start - self.lo, stop - self.lo)]
        self.known = stop


def _product_graph(params, monomials, N):
    """A ``_Node`` per monomial at order N in the order given, and all nodes.

    The nodes are those of ``_monomial_rows``, built by the same walk with
    no arithmetic, on the grid ``_grid(params)``.  The list of all nodes
    holds the leaves of the five generators and of 1, then each product
    after its factors, as ``_grow`` takes them.
    """
    ram = _grid(params)
    nodes = [_Node.leaf(s, ram) for s in _leaf_series(params, N)]

    def product(a, b):
        nodes.append(_Node(a, b))
        return nodes[-1]

    return _walk_monomials(monomials, nodes[:5], product, nodes[5]), nodes


def _grow(nodes, params, N):
    """Grow the graph ``nodes`` of ``_product_graph`` to order N, in place.

    N must be above the graph's order.  Each leaf takes its series at
    order N whole, on the same grid, and each product keeps the steps it
    has computed (``_Node.regrow``), so no step is computed twice.
    """
    series, ram = _leaf_series(params, N), _grid(params)
    for node, s in zip(nodes, series):
        node.hold(s, ram)
    for node in nodes[len(series):]:
        node.regrow()


def _searched_columns(rows, limit, start=None):
    """The nonzero columns of the nodes ``rows`` from ``start`` below ``limit``, computed as read.

    Column k holds each row's coefficient of step k times the lcm of the
    rows' denominators, a positive multiple of the exact coefficients,
    so an integer vector's dot product with it vanishes exactly when the
    vector's combination of the rows has no term at step k.  Columns
    start at step ``start``, by default the least ``lo``, and a row is
    extended only when a column reaches past what it holds; a leaf holds
    every step below its ``prec`` and is never extended.
    """
    den = math.lcm(*[row.den for row in rows])
    weights = [den // row.den for row in rows]
    for k in range(min(row.lo for row in rows) if start is None else start, limit):
        column = []
        for row, w in zip(rows, weights):
            if row.known <= k:
                row.extend(k + 1)
            column.append(row.coef[k - row.lo] * w if k >= row.lo else 0)
        if any(column):
            yield k, column


def ord_at_zero(P: Poly, params: TriangleParams, N=DEFAULT_ORDER) -> OrdReport:
    """Exact z-coordinate vanishing order at 0, with automatic retries.

    The order is that of ``bound_audit``'s columns for P's monomials
    (variables matched by name), but the series are ``_Node`` products
    computed only as far as the first nonzero dot product needs;
    ``truncation`` is the least ``prec`` of the monomials' series, known
    before any product.  One product graph serves every order tried:
    while the vector meets only zero columns, a retry at doubled order
    grows it (``_grow``), keeping every step computed, and the reader
    resumes at the last order's limit.  ``MAX_DOUBLINGS`` is the budget
    of retries, and the orders tried are N, 2N, ... as without the
    growth.  N must be nonnegative; N = 0 retries from order 1.
    """
    if not P:
        raise ZeroPolynomial("the zero polynomial has no order")
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    terms = _affine(P).terms  # decoded once: the retries below reuse the exponent tuples
    scale = math.lcm(*[c.denominator for c in terms.values()])
    vector = [c.numerator * (scale // c.denominator) for c in terms.values()]
    ram = _grid(params)
    rows, nodes = _product_graph(params, terms, N)
    order, start = N, None
    for doubling in range(MAX_DOUBLINGS + 1):
        if doubling:  # the vector met only zero columns below the last limit
            order = max(2 * order, 1)
            _grow(nodes, params, order)
        limit = min(row.prec for row in rows)
        k = _first_step(_searched_columns(rows, limit, start), vector)
        if k is not None:
            return OrdReport(point="zero", poly=P.to_text(), ord=Fraction(k, ram), conclusive=True,
                             truncation=Fraction(limit, ram))
        start = limit
    raise TruncationExhausted(f"order of {P.to_text()} at zero still inconclusive at N={order}")


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
    """The float ``values`` of ``names`` as Gaussian integers X = x * 2^K, then 1, and K.

    Each is ``(Re X, Im X, |Re X| + |Im X|)``; the constant 1 takes no
    power of two.
    """
    ratios = [
        part.as_integer_ratio()
        for name in names
        for part in (values[name].real, values[name].imag)
    ]
    K = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (K - den.bit_length() + 1) for num, den in ratios]
    point = [(re, im, abs(re) + abs(im)) for re, im in zip(ints[0::2], ints[1::2])]
    return point + [(1, 0, 1)], K


def _conv(a, b, row):
    """Entry n of the product of jets ``a`` and ``b`` of n entries, ``row`` = C(n, .).

    An entry is ``(re, im, majorant)``: a Gaussian integer and an integer
    that runs the same sum on the majorants.
    """
    re = im = mj = 0
    for c, (p, q, u), (r, s, v) in zip(row, a, reversed(b)):
        re += c * (p * r - q * s)
        im += c * (p * s + q * r)
        mj += c * u * v
    return re, im, mj


def _combine(form, jets, j, n):
    """Entry n of part j of the linear form ``form``, (node, integer) pairs."""
    re = im = mj = 0
    for idx, c in form:
        p, q, u = jets[idx][j][n]
        re, im, mj = re + c * p, im + c * q, mj + abs(c) * u
    return re, im, mj


def _slope_entries(a, b, jet, row):
    """Append entry n of x_j d/dx_j of the product of nodes ``a`` and ``b`` to its part j."""
    for j in range(1, len(jet)):
        (p, q, _), (r, s, _) = _conv(a[j], b[0], row), _conv(a[0], b[j], row)
        jet[j].append((p + r, q + s, 0))


def _flow(P: Poly, params, values, slopes):
    """Entries n = 0, 1, ... of P along the flow of D from the float ``values``.

    Along the flow x(s) of D from the point x, P(x(s)) has n-th derivative
    (D^n P)(x) at s = 0.  Every monomial needed is a node: a generator,
    whose entry n comes from its image under D at entry n - 1, or the
    product of a shorter monomial and a generator, whose entry n is a
    binomial convolution.  The images are the cached table of
    ``derivation.integer_images``: the images of D times their least
    common denominator M.  A node of degree d holds its entries as
    Gaussian integers over M^n 2^(K(n+d)) (``_gaussian_point``), so entry
    n of P is exact over ``den`` = lcm(P) M^n 2^(K(n+top)), top = deg P.
    Entry 0 is P at x; the images of D enter from entry 1 on.

    Each entry carries a majorant: the same recurrence on absolute
    coefficients from |Re x_i| + |Im x_i|, which bounds the sum of |t|
    over the terms t of D^n P at x.  Part 0 of a node is its value; if
    ``slopes``, parts 1..5 are x_i d/dx_i of it by the product rule
    (their majorants stay 0).
    Yields ``((re, im, majorant), slopes or None, den)``.
    """
    point, K = _gaussian_point(values, AFFINE_VARS)
    top, deg_shift = P.total_degree(), FIELD * len(AFFINE_VARS)  # where a key keeps its degree
    lcm = _denominator(P)
    # nodes 0..4 are the generators and 5 the constant 1, each with its entry 0
    jets = [[[x]] for x in point]
    for s, jet in enumerate(jets if slopes else ()):
        jet += [[(point[s][0], point[s][1], 0) if j == s else (0, 0, 0)] for j in range(5)]
    index = {(): 5, **{(i,): i for i in range(5)}}  # sorted variable numbers: node
    products = []  # (factor, generator, product) jets, each after its factors

    def node(packed):  # a packed monomial key
        key, idx = (), 5
        for i in range(5):
            for _ in range(packed >> FIELD * i & _MASK):
                key += (i,)
                step = index.get(key)
                if step is None:  # entry 0 of a product is the product of entries 0
                    a, b = jets[idx], jets[i]
                    (p, q, u), (r, s, v) = a[0][0], b[0][0]
                    jet = [[(p * r - q * s, p * s + q * r, u * v)]]
                    if slopes:
                        jet += [[] for _ in a[1:]]
                        _slope_entries(a, b, jet, (1,))
                    step = index[key] = len(jets)
                    jets.append(jet)
                    products.append((a, b, jet))
                idx = step
        return idx

    def entry(n, den):
        slopes_n = [_combine(form, jets, j, n)[:2] for j in range(1, 6)] if slopes else None
        return _combine(form, jets, 0, n), slopes_n, den

    form = [(node(k), int(c * lcm) << K * (top - (k >> deg_shift))) for k, c in P.mono.items()]
    yield entry(0, lcm << K * top)
    M, images = integer_images(params)
    flows = [[(node(k), c << K * (2 - (k >> deg_shift))) for k, c in image.mono.items()]
             for image in images]
    flows.append([])  # the constant 1
    for n in itertools.count(1):
        for jet, flow in zip(jets, flows):
            for j, part in enumerate(jet):
                part.append(_combine(flow, jets, j, n - 1))
        row = [math.comb(n, k) for k in range(n + 1)]
        for a, b, jet in products:
            jet[0].append(_conv(a[0], b[0], row))
            _slope_entries(a, b, jet, row)
        yield entry(n, lcm * M ** n << K * (n + top))


def ord_at_generic(P: Poly, params: TriangleParams, z0, N=DEFAULT_ORDER) -> OrdReport:
    """Numeric vanishing order at a generic point of the cut disk.

    ``z0`` must avoid the cut rays and stay inside the unit disk, away
    from 0 and 1; conclusive orders at such points are natural numbers.

    The order is the least n < N with |(D^n P)(z0)| above the error
    that a relative error of ``GENERIC_THRESHOLD`` in each of the five
    generator values x could cause in it; a value within that bound is
    read as zero.  (D^n P)(x) is computed exactly as entry n of P along
    the flow of D from x (``_flow``, which reads the generator images
    ``apply_D`` reads), so terms that cancel cost no precision and no
    D^n P is ever built.  The bound is eps times the sum over i of
    |x_i d/dx_i (D^n P)(x)|, plus eps^2 (deg P + n)^2 times the majorant
    of entry n.  Slopes are computed only when the value
    does not already clear the cruder bound with (deg P + n) times the
    majorant in place of their sum.  Value and bound are compared in a
    unit taken from the majorant, so the decision is scale-free: there
    is no absolute floor, and c * P has the order of P for every
    constant c != 0.  No n < N clearing its bound is ambiguous.
    """
    if not P:
        raise ZeroPolynomial("the zero polynomial has no order")
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    z0 = hypergeom.finite_point(z0)
    if abs(z0) >= 0.95 or abs(z0) < 1e-6 or abs(z0 - 1) < 0.05:
        raise ValueError("z0 must be inside the disk, away from 0 and 1")
    if z0.imag == 0 and z0.real < 0:
        raise CutLineViolation(f"{z0} lies on the branch cut along the negative axis")
    affine = _affine(P)
    values = _generator_values(params, z0)
    top, eps = affine.total_degree(), GENERIC_THRESHOLD
    entries = _flow(affine, params, values, slopes=False)
    for n in range(N):
        (re, im, majorant), slopes, _ = next(entries)
        shift, d = 1 << majorant.bit_length(), top + n
        size, scale = abs(complex(re / shift, im / shift)), majorant / shift
        if size > eps * d * scale * (1 + eps * d):  # the slopes sum to at most d * majorant
            break
        if slopes is None:
            entries = _flow(affine, params, values, slopes=True)
            slopes = next(itertools.islice(entries, n, None))[1]
        sensitivity = sum(abs(complex(a / shift, b / shift)) for a, b in slopes)
        if size > eps * (sensitivity + eps * d * d * scale):
            break
    else:
        raise ThresholdAmbiguous(f"no D^n P with n < {N} clears its error bound")
    return OrdReport(point=str(z0), poly=P.to_text(), ord=n, conclusive=True,
                     truncation=Fraction(N))


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
    # q has order 0 and each y_i order gamma - 1 = -w < 0, so the least
    # coordinate order is -w, and each degree of U adds w
    return value_ord - min_coeff_ord + x_degree(U) * d.w


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
    """``((k, column), ...)``: the profile box at order N, cached per process.

    The rows are the ``_monomial_rows`` of the box in ``itertools.product``
    order, the order of each sample's draws, put whole on the grid
    ``_grid(params)`` as ``_Node`` leaves and read by ``_searched_columns``
    below their least ``prec``.  Each column is divided by the gcd of its
    entries, so it is primitive.  Bounded like ``generator_series``; only
    these tuples are kept, so a shared result cannot be changed by its
    readers.
    """
    box = itertools.product(*(range(d + 1) for d in profile))
    rows = [_Node.leaf(s, _grid(params)) for s in _monomial_rows(params, box, N)]
    columns = []
    for k, column in _searched_columns(rows, min(row.prec for row in rows)):
        g = math.gcd(*column)
        # a list first: tuple() of a generator allocates and then shrinks, so
        # freed columns would pile up in CPython's free list of their size
        columns.append((k, tuple([c // g for c in column])))
    return tuple(columns)


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

    A sample is evaluated as integer dot products (``_first_step``):
    the monomial series of the box become integer columns, one per step
    of the grid ``_grid(params)`` below the box's precision, each a
    positive multiple of the exact coefficients with no common factor.
    The columns of each (params, profile, order) are built once per
    process and kept in a cache of at most 32 boxes (``_box_columns``),
    so auditing a box again with new seeds costs only the dot products.
    Samples whose columns all give zero retry on the box at doubled
    order, up to ``MAX_DOUBLINGS`` times; any that stay inconclusive are
    skipped and counted, never silently dropped.  With no sample
    pending no box is built.  ``order_used`` is the truncation order of
    the last box read, N if none.
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

    steps, pending, order = [None] * samples, range(samples), N
    for doubling in range(MAX_DOUBLINGS + 1):
        if not pending:
            break
        if doubling:
            order = max(2 * order, 1)
        columns = _box_columns(params, profile, order)
        for i in pending:
            steps[i] = _first_step(columns, draws[i])
        pending = [i for i in pending if steps[i] is None]
    ords = [Fraction(k, _grid(params)) for k in steps if k is not None]
    max_ord = max(ords) if ords else None
    ratio = None if max_ord is None or not bound else Fraction(max_ord) / bound
    return BoundAudit(
        profile=profile,
        m1=m1,
        m2=m2,
        bound=bound,
        samples=samples,
        seed=seed,
        order_used=order,
        max_ord=max_ord,
        ratio=ratio,
        skipped=samples - len(ords),
        all_within_bound=all(o <= bound for o in ords),
        ords=ords,
    )
