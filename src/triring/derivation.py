"""Derivations of the affine and homogeneous rings, and the Rankin bracket.

The derivation D acts on generators as

    D tau = w,   D q = w q,   D y_i = y_i**2 - L,

with L the weight-2 quadratic form built from the derived constants; it
is extended to the whole ring by generator tables plus Leibniz recursion
over monomials, so no chain rule ever enters.  D' keeps only the
y-directions, H only the tau/q-directions, and D = D' + H.  The
homogeneous counterpart acts on (t, X0..X4) and raises X-degree by two.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import ring
from .errors import NotHomogeneous, NotInR, NotIsobaric
from .params import TriangleParams, derived_constants
from .ring import AFFINE_VARS, FIELD, HOMOG_VARS, _MASK, Poly, _check_degree, _tidy, _unit

KINDS = ("D", "Dprime", "Honly")


def quadratic_form(params: TriangleParams) -> Poly:
    """The form (1/4)(a(y0-y1)^2 + b(y0-y2)^2 + c(y1-y2)^2)."""
    d = derived_constants(params)
    g = ring.gens(AFFINE_VARS)
    y0, y1, y2 = g["y0"], g["y1"], g["y2"]
    return Fraction(1, 4) * (
        d.a * (y0 - y1) ** 2 + d.b * (y0 - y2) ** 2 + d.c * (y1 - y2) ** 2
    )


@lru_cache(maxsize=1)
def _tables(params):
    """Generator images of D, Dprime and Honly, cached for the last triple.

    Callers work on one triple at a time.  A single entry keeps memory
    flat when many triples pass through one process.
    """
    d = derived_constants(params)
    g = ring.gens(AFFINE_VARS)
    L = quadratic_form(params)
    zero = Poly.zero(AFFINE_VARS)
    w = Poly.const(AFFINE_VARS, d.w)
    full = {
        "tau": w,
        "q": d.w * g["q"],
        "y0": g["y0"] ** 2 - L,
        "y1": g["y1"] ** 2 - L,
        "y2": g["y2"] ** 2 - L,
    }
    dprime = dict(full, tau=zero, q=zero)
    honly = dict(full, y0=zero, y1=zero, y2=zero)
    return {"D": full, "Dprime": dprime, "Honly": honly}


def leibniz(P: Poly, table) -> Poly:
    """The derivation sending each generator ``name`` to ``table[name]``, on P.

    ``table`` maps variable names of P to polynomials over ``P.vars``; a
    missing name, or a zero image, is a generator the derivation kills.
    On packed keys, the term ``c m`` gives ``c e img`` at key
    ``m - unit + img`` for each variable of exponent ``e`` in ``m``.
    """
    images = [table.get(name) for name in P.vars]
    for image in images:
        if image:
            P._check_same_ring(image)
    n = len(P.vars)
    active = [(FIELD * idx, _unit(n, idx), image) for idx, image in enumerate(images) if image]
    if not P or not active:
        return Poly.zero(P.vars)
    _check_degree(P._degree() - 1 + max(image._degree() for _, _, image in active))
    terms = {}
    get = terms.get
    for key, coef in P.mono.items():
        for shift, unit, image in active:
            e = key >> shift & _MASK
            if not e:
                continue
            base, scaled = key - unit, coef * e
            for img_key, img_coef in image.mono.items():
                k = base + img_key
                acc = get(k)
                terms[k] = scaled * img_coef if acc is None else acc + scaled * img_coef
    return Poly._make(P.vars, _tidy(terms))


def apply_D(P: Poly, params: TriangleParams) -> Poly:
    """Apply D by Leibniz extension of the generator rules."""
    return leibniz(P, _tables(params)["D"])


def apply_variant(P: Poly, kind: str, params: TriangleParams) -> Poly:
    """Apply one of D, Dprime (kills tau, q) or Honly (kills the y's)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    return leibniz(P, _tables(params)[kind])


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


def homogeneous_quadratic_form(params: TriangleParams) -> Poly:
    """(1/4)(a(X2-X3)^2 + b(X2-X4)^2 + c(X3-X4)^2) over (t, X0..X4)."""
    d = derived_constants(params)
    g = ring.gens(HOMOG_VARS)
    X2, X3, X4 = g["X2"], g["X3"], g["X4"]
    return Fraction(1, 4) * (
        d.a * (X2 - X3) ** 2 + d.b * (X2 - X4) ** 2 + d.c * (X3 - X4) ** 2
    )


def x_degree(Q: Poly) -> int:
    return Q.total_degree(names=("X0", "X1", "X2", "X3", "X4"))


def is_x_homogeneous(Q: Poly) -> bool:
    if not Q:
        return True
    idxs = [Q.vars.index(n) for n in ("X0", "X1", "X2", "X3", "X4")]
    degs = {sum(e[i] for i in idxs) for e in Q.terms}
    return len(degs) == 1


def homog_D(Q: Poly, params: TriangleParams) -> Poly:
    """Homogeneous derivation on C[t][X0..X4]; raises X-degree by two."""
    if not is_x_homogeneous(Q):
        raise NotHomogeneous("operand is not homogeneous in X0..X4")
    d = derived_constants(params)
    g = ring.gens(HOMOG_VARS)
    X0 = g["X0"]
    U = homogeneous_quadratic_form(params)
    table = {
        "t": d.w * X0 ** 2,
        "X1": d.w * X0 ** 2 * g["X1"],
        "X2": X0 * (g["X2"] ** 2 - U),
        "X3": X0 * (g["X3"] ** 2 - U),
        "X4": X0 * (g["X4"] ** 2 - U),
    }
    return leibniz(Q, table)


def dehomogenize(Q: Poly) -> Poly:
    """Evaluate X0 -> 1 and rename (t, X1..X4) -> (tau, q, y0, y1, y2)."""
    affine = Q.substitute({"X0": Fraction(1)})
    return affine.rename_ring(
        AFFINE_VARS, {"t": "tau", "X1": "q", "X2": "y0", "X3": "y1", "X4": "y2"}
    )
