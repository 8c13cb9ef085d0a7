"""Validation of the hypergeometric parameter triple and derived scalars.

Everything here is exact rational arithmetic; the floating sample of the
positivity landscape is informational only and clearly marked as such.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import NotUnitFraction, OrderingViolated, SumConstraintViolated


@dataclass(frozen=True)
class TriangleParams:
    """Validated triple ``alpha < beta < gamma`` of unit fractions.

    Satisfies ``gamma > alpha + beta`` and ``1 > gamma > beta > alpha > 0``.
    Construct through :func:`validate`.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def as_tuple(self):
        return (self.alpha, self.beta, self.gamma)

    def label(self):
        return f"{self.alpha},{self.beta},{self.gamma}"


@dataclass(frozen=True)
class DerivedConstants:
    a: Fraction
    b: Fraction
    c: Fraction
    w: Fraction
    ram: int


def validate(alpha, beta, gamma) -> TriangleParams:
    """Check the parameter triple, or raise the violated constraint.

    Check order: unit-fraction shape first, then the strict ordering
    ``1 > gamma > beta > alpha > 0``, then ``gamma > alpha + beta``.
    """
    alpha, beta, gamma = (Fraction(v) for v in (alpha, beta, gamma))
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if v.numerator != 1 or v.denominator < 1:
            raise NotUnitFraction(f"{name} = {v} is not 1/n for an integer n >= 1")
    problems = []
    if not gamma < 1:
        problems.append(f"gamma = {gamma} must be < 1")
    if not beta < gamma:
        problems.append(f"needs gamma > beta, got {gamma} <= {beta}")
    if not alpha < beta:
        problems.append(f"needs beta > alpha, got {beta} <= {alpha}")
    if not alpha > 0:
        problems.append(f"alpha = {alpha} must be > 0")
    if problems:
        raise OrderingViolated("; ".join(problems))
    if not gamma > alpha + beta:
        raise SumConstraintViolated(
            f"needs gamma > alpha + beta, got {gamma} <= {alpha + beta}"
        )
    return TriangleParams(alpha, beta, gamma)


def _abc(al, be, ga):
    """a, b and c from alpha, beta, gamma: exact on Fractions, the same steps on floats."""
    a = ga * (1 - al - be) + 2 * al * be
    b = (al + be) * (ga - al - be) + 2 * al * be - ga + 1
    c = ga * (al + be - ga + 1) - 2 * al * be
    return a, b, c


@lru_cache(maxsize=32)
def derived_constants(params: TriangleParams) -> DerivedConstants:
    """The scalars a, b, c, w = 1 - gamma and the ramification index, cached per triple.

    The cache is bounded like ``derivation.integer_images``.
    """
    al, be, ga = params.as_tuple()
    ram = lcm(al.denominator, be.denominator, ga.denominator)
    return DerivedConstants(*_abc(al, be, ga), 1 - ga, ram)


def eta(params: TriangleParams) -> Fraction:
    """The product (a+b)(a+c)(b+c)(ab+bc+ac); positive on valid triples."""
    d = derived_constants(params)
    return (d.a + d.b) * (d.a + d.c) * (d.b + d.c) * (
        d.a * d.b + d.b * d.c + d.a * d.c
    )


def eta_factors_closed_form(alpha, beta, gamma):
    """The four eta factors written directly in alpha, beta, gamma.

    Used as an independent route against the a,b,c-based product.
    """
    al, be, ga = Fraction(alpha), Fraction(beta), Fraction(gamma)
    f1 = 1 - (al - be) ** 2
    f2 = ga * (2 - ga)
    f3 = 1 - (al + be) ** 2 + ga * (2 * (al + be) - ga)
    f4 = 2 * (
        ga ** 2 * (-1 + al + be - 2 * al * be)
        + ga * (1 + al + be) * (1 - al - be + 2 * al * be)
        - 2 * (al * be) ** 2
    )
    return (f1, f2, f3, f4)


def critical_residuals(alpha, beta, gamma):
    """Left-hand sides of the simultaneous critical-point conditions.

    Accepts any rational triple; validity is deliberately not required so
    the boundary of the parameter region can be explored.
    """
    al, be, ga = Fraction(alpha), Fraction(beta), Fraction(gamma)
    r1 = (2 * al - ga) * (2 * be ** 2 + ga - 2 * be * ga)
    r2 = (2 * be - ga) * (2 * al ** 2 + ga - 2 * al * ga)
    r3 = (1 - al - be + 2 * al * be) * (1 + al + be - 2 * ga)
    return (r1, r2, r3)


def unit_fraction_triples(max_denominator):
    """All valid triples with every denominator at most ``max_denominator``."""
    out = []
    for c in range(2, max_denominator + 1):
        for b in range(c + 1, max_denominator + 1):
            for a in range(b + 1, max_denominator + 1):
                al, be, ga = Fraction(1, a), Fraction(1, b), Fraction(1, c)
                if ga > al + be:
                    out.append(TriangleParams(al, be, ga))
    return out


def eta_scan(max_denominator=30):
    """Exhaustive exact eta scan over valid unit-fraction triples.

    Returns ``(triples_checked, minimum_eta, minimizing_triple)``; eta is
    positive on the whole scan range, and callers assert exactly that.
    """
    best = None
    best_params = None
    count = 0
    for params in unit_fraction_triples(max_denominator):
        value = eta(params)
        count += 1
        if best is None or value < best:
            best, best_params = value, params
    return count, best, best_params


def region_sample_min(n=2000, seed=0):
    """Informative float sampling of ab+ac+bc over 0 < alpha < beta < gamma < 1.

    The region here is wider than the validated triples; the returned
    minimum is reported, never asserted.
    """
    rng = random.Random(seed)
    best = None
    for _ in range(n):
        a, b, c = _abc(*sorted(rng.random() for _ in range(3)))
        f = a * b + b * c + a * c
        if best is None or f < best:
            best = f
    return best
