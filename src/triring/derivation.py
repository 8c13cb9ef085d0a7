"""Derivations of the affine and homogeneous rings, and the Rankin bracket.

The derivation D acts on generators as

    D tau = w,   D q = w q,   D y_i = y_i**2 - L,

with L the weight-2 quadratic form built from the derived constants.
This module states D once: ``generator_images`` builds the five images
for one triple, and ``integer_images`` caches them times their least
common denominator; every derivation here, as well as the generic-point
flow of ``multiplicity``, reads that table.  D is extended to the whole
ring by Leibniz recursion over monomials, on integers, so no chain rule
ever enters.
D' keeps only the y-directions, H only the tau/q-directions, and
D = D' + H; each is D restricted to its generators.  The homogeneous
derivation on (t, X0..X4) is D carried through homogenization: it
dehomogenizes, applies D and homogenizes back, two X-degrees higher.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import ring
from .errors import DomainMismatch, NotHomogeneous, NotInR, NotIsobaric
from .params import TriangleParams, derived_constants
from .ring import (
    AFFINE_VARS, FIELD, HOMOG_VARS, _MASK, Poly, _check_degree, _denominator, _div, _unit,
)

#: the generators each derivation moves; D' and H kill the others
_MOVED = {"D": AFFINE_VARS, "Dprime": ("y0", "y1", "y2"), "Honly": ("tau", "q")}
#: the renaming (t, X1..X4) -> (tau, q, y0, y1, y2) of dehomogenization
_AFFINE_NAMES = {"t": "tau", "X1": "q", "X2": "y0", "X3": "y1", "X4": "y2"}


def quadratic_form(params: TriangleParams) -> Poly:
    """The form (1/4)(a(y0-y1)^2 + b(y0-y2)^2 + c(y1-y2)^2), from its six coefficients."""
    d = derived_constants(params)
    a, b, c = d.a / 4, d.b / 4, d.c / 4
    return Poly(AFFINE_VARS, {
        (0, 0, 2, 0, 0): a + b, (0, 0, 1, 1, 0): -2 * a, (0, 0, 0, 2, 0): a + c,
        (0, 0, 1, 0, 1): -2 * b, (0, 0, 0, 0, 2): b + c, (0, 0, 0, 1, 1): -2 * c,
    })


def generator_images(params: TriangleParams) -> tuple:
    """The images of tau, q, y0, y1, y2 under D, in that order."""
    d = derived_constants(params)
    g = ring.gens(AFFINE_VARS)
    L = quadratic_form(params)
    return (Poly.const(AFFINE_VARS, d.w), d.w * g["q"],
            *(g[y] ** 2 - L for y in ("y0", "y1", "y2")))


@lru_cache(maxsize=32)
def integer_images(params: TriangleParams) -> tuple:
    """``(M, images)``: the ``generator_images`` times their least common denominator M.

    The five images are Polys with integer coefficients, cached per
    triple and bounded like ``multiplicity.generator_series``;
    ``apply_variant`` and the generic-point flow of ``multiplicity`` read
    them.
    """
    images = generator_images(params)
    M = math.lcm(*map(_denominator, images))
    return M, tuple(M * image for image in images)


def leibniz(P: Poly, table) -> Poly:
    """The derivation sending each generator ``name`` to ``table[name]``, on P.

    ``table`` maps variable names of P to polynomials over ``P.vars``; a
    missing name, or a zero image, is a generator the derivation kills.
    """
    images = [table.get(name) for name in P.vars]
    for image in images:
        if image:
            P._check_same_ring(image)
    M = math.lcm(*(_denominator(image) for image in images if image))
    return _leibniz(P, [image and M * image for image in images], M)


def _leibniz(P: Poly, images, M) -> Poly:
    """The derivation sending variable i of P to ``images[i] / M``, on P.

    The images have integer coefficients, and P is taken over its least
    common denominator dP, so the sums run on integers and each result
    term is divided by ``dP * M`` once.  On packed keys, the term ``c m``
    gives ``c e img`` at key ``m - unit + img`` for each variable of
    exponent ``e`` in ``m``.
    """
    n = len(P.vars)
    active = [(FIELD * idx, _unit(n, idx), image) for idx, image in enumerate(images) if image]
    if not P or not active:
        return Poly.zero(P.vars)
    _check_degree(P._degree() - 1 + max(image._degree() for _, _, image in active))
    dP = _denominator(P)
    terms = {}
    get = terms.get
    for key, coef in P.mono.items():
        num = coef * dP if type(coef) is int else coef.numerator * (dP // coef.denominator)
        for shift, unit, image in active:
            e = key >> shift & _MASK
            if not e:
                continue
            base, scaled = key - unit, num * e
            for img_key, img_coef in image.mono.items():
                k = base + img_key
                acc = get(k)
                terms[k] = scaled * img_coef if acc is None else acc + scaled * img_coef
    den = dP * M
    return Poly._make(P.vars, {k: _div(c, den) for k, c in terms.items() if c})


def apply_D(P: Poly, params: TriangleParams) -> Poly:
    """Apply D by Leibniz extension of the generator rules."""
    return apply_variant(P, "D", params)


def apply_variant(P: Poly, kind: str, params: TriangleParams) -> Poly:
    """Apply one of D, Dprime (kills tau, q) or Honly (kills the y's).

    P must lie over (tau, q, y0, y1, y2); any other ring raises
    :class:`DomainMismatch`.
    """
    moved = _MOVED.get(kind)
    if moved is None:
        raise ValueError(f"kind must be one of {tuple(_MOVED)}")
    if P.vars != AFFINE_VARS:
        raise DomainMismatch(f"D acts on polynomials over {AFFINE_VARS}, not {P.vars}")
    M, images = integer_images(params)
    return _leibniz(P, [image if name in moved else None
                        for name, image in zip(AFFINE_VARS, images)], M)


def rankin_bracket(U: Poly, V: Poly, params: TriangleParams) -> Poly:
    """[U, V] = p(U) U D(V) - p(V) V D(U) on isobaric members of C[y0,y1,y2].

    Raises on non-isobaric input rather than decomposing it; the bracket
    is only defined on isobaric polynomials. The result is isobaric of
    weight p(U) + p(V) + 1.
    """
    for name, X in (("U", U), ("V", V)):
        if not ring.in_R(X):
            raise NotInR(f"{name} must lie in C[y0,y1,y2]")
        if not ring.is_isobaric(X):
            raise NotIsobaric(f"{name} is not isobaric")
    pu = ring.weight(U)
    pv = ring.weight(V)
    return pu * U * apply_D(V, params) - pv * V * apply_D(U, params)


# -- homogeneous side -----------------------------------------------------------


def x_degree(Q: Poly) -> int:
    return Q.total_degree(names=("X0", "X1", "X2", "X3", "X4"))


def is_x_homogeneous(Q: Poly) -> bool:
    if not Q:
        return True
    idxs = [Q.vars.index(n) for n in ("X0", "X1", "X2", "X3", "X4")]
    degs = {sum(e[i] for i in idxs) for e in Q.terms}
    return len(degs) == 1


def homog_D(Q: Poly, params: TriangleParams) -> Poly:
    """Homogeneous derivation on C[t][X0..X4]; raises X-degree by two.

    For Q homogeneous of X-degree d this is D carried through
    homogenization, ``_homogenize(apply_D(dehomogenize(Q)), d + 2)``.
    Both sides obey Leibniz and agree on the generators: t -> w X0^2,
    X0 -> 0, X1 -> w X0^2 X1 and X_{i+2} -> X0 (X_{i+2}^2 - U), with U
    the form L written in X2, X3, X4.
    """
    if not is_x_homogeneous(Q):
        raise NotHomogeneous("operand is not homogeneous in X0..X4")
    return _homogenize(apply_D(dehomogenize(Q), params), x_degree(Q) + 2)


def dehomogenize(Q: Poly) -> Poly:
    """Evaluate X0 -> 1 and rename (t, X1..X4) -> (tau, q, y0, y1, y2)."""
    parts = [Q.coefficient_of("X0", k) for k in range(Q.partial_degree("X0") + 1)]
    return Poly.sum(Q.vars, parts).rename_ring(AFFINE_VARS, _AFFINE_NAMES)


def _homogenize(P: Poly, degree: int) -> Poly:
    """The Q of X-degree ``degree`` with ``dehomogenize(Q) == P``.

    Renames (tau, q, y0, y1, y2) to (t, X1..X4) and pads each term with
    X0; ``degree`` must be at least the degree of P in q and the y's.
    """
    Q = P.rename_ring(HOMOG_VARS, {a: h for h, a in _AFFINE_NAMES.items()})
    return Poly(HOMOG_VARS, {
        (t, degree - sum(xs), *xs): c for (t, _, *xs), c in Q.terms.items()
    })
