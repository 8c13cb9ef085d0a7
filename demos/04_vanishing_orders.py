#!/usr/bin/env python3
"""Vanishing orders, hypersurface distances, and the degree audit.

Computes exact z-coordinate orders at the singular point 0 for the
standard generator combinations, numeric orders at a generic point,
-log Dist values for a few hypersurfaces, and finally runs a small
randomized audit of the degree-profile bound M1 * M2^4.
"""

from fractions import Fraction

from triring import (
    bound_audit,
    derived_constants,
    kappa,
    log_dist_hypersurface,
    ord_at_generic,
    ord_at_zero,
    poly_from_text,
    ramanujan_l,
    validate,
)
from triring.ring import HOMOG_VARS, Poly

LINE = "-" * 72

p = validate(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))
ga = p.gamma
print(f"triple ({p.label()}), gamma = {ga}")
print(LINE)

print("exact orders at the singular point 0 (z-coordinate):")
for s in ("y0 - y1", "y0 - y2", "y1 - y2", "tau", "q"):
    rep = ord_at_zero(poly_from_text(s), p)
    print(f"  ord({s:8}) = {rep.ord}")
rep = ord_at_zero(kappa(), p)
print(f"  ord(kappa)   = {rep.ord}   (sum of the factor orders)")
print(LINE)

print("numeric orders at the generic point z0 = 0.3 + 0.2i:")
for s in ("1", "y0 y1 - y2 + tau q", "tau^2 + q"):
    rep = ord_at_generic(poly_from_text(s), p, 0.3 + 0.2j)
    print(f"  ord({s}) = {rep.ord}")
# tau = 1/2 at this z0, to double precision
z0 = 0.22125195410815288
print(f"positive orders at z0 = {z0}, a zero of tau - 1/2:")
root = poly_from_text("tau - 1/2")
for label, P in (
    ("tau - 1/2", root),
    ("(tau - 1/2)^14 (y0 y1 + q y2^2 - 3)", root ** 14 * poly_from_text("y0 y1 + q y2^2 - 3")),
):
    rep = ord_at_generic(P, p, z0)
    print(f"  ord({label}) = {rep.ord}")
print(LINE)


def X(name):
    return Poly.var(HOMOG_VARS, name)


print("-log Dist for a few hypersurfaces (all in (1/ram) Z, nonnegative):")
for label, U in (
    ("X0", X("X0")),
    ("X2 - X3", X("X2") - X("X3")),
    ("t X0^2 + X1 X2", Poly.var(HOMOG_VARS, "t") * X("X0") ** 2 + X("X1") * X("X2")),
    ("universal element", ramanujan_l()),
):
    print(f"  {label:20} -> {log_dist_hypersurface(U, p)}")
print(LINE)

profile = (1, 1, 1, 1, 1)
audit = bound_audit(profile, p, samples=60, N=14, seed=7)
print(f"degree audit on profile {profile}:")
print(f"  M1 = {audit.m1}, M2 = {audit.m2}, bound M1*M2^4 = {audit.bound}")
print(f"  samples {audit.samples}, skipped {audit.skipped}")
print(f"  max observed ord = {audit.max_ord}, ratio to bound = {audit.ratio}")
print(f"  every conclusive order within the bound: {audit.all_within_bound}")
