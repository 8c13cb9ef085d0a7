import random
from fractions import Fraction

import pytest
import sympy as sp

from triring import ring
from triring.errors import (
    DegreeZeroInVariable,
    DomainMismatch,
    PolyParseError,
    VariableOutsideR,
    ZeroPolynomial,
)
from triring.ring import (
    AFFINE_VARS,
    Poly,
    homogenize_weight,
    isobaric_components,
    poly_from_text,
    resultant,
    resultant_with_cofactors,
    weight,
)

from conftest import random_poly


def text(s):
    return poly_from_text(s)


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(11)
    for _ in range(40):
        a = random_poly(rng)
        b = random_poly(rng)
        c = random_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_mul_example():
    assert text("y0 + y1") * text("y0 - y1") == text("y0^2 - y1^2")


def test_weight_examples():
    assert weight(text("y0 y1 + tau q")) == 2
    kappa = text("q") * text("y0 - y1") * text("y0 - y2") * text("y1 - y2")
    assert weight(kappa) == 3
    assert kappa.partial_degree("q") == 1


def test_weight_of_zero_raises():
    with pytest.raises(ZeroPolynomial):
        weight(Poly.zero(AFFINE_VARS))


def test_weight_product_additive_for_isobaric():
    rng = random.Random(5)
    from conftest import random_isobaric

    for _ in range(20):
        a = random_isobaric(rng, rng.randint(1, 3))
        b = random_isobaric(rng, rng.randint(1, 3))
        assert weight(a * b) == weight(a) + weight(b)


def test_isobaric_components_example():
    comps = isobaric_components(text("y0^2 + tau y1 + q"))
    assert [(w, c.to_text()) for w, c in comps] == [
        (0, "q"),
        (1, "tau y1"),
        (2, "y0^2"),
    ]
    total = Poly.zero(AFFINE_VARS)
    for _, c in comps:
        total = total + c
    assert total == text("y0^2 + tau y1 + q")


def test_isobaric_singleton():
    comps = isobaric_components(text("y0 y1 + y2^2"))
    assert len(comps) == 1


def test_homogenize_examples():
    assert homogenize_weight(text("y0^2 + y1")) == poly_from_text(
        "y0^2 + y1 y3", vars=ring.RH_VARS
    )
    h = homogenize_weight(text("y0^3 + y0 y1 + 1"))
    assert h == poly_from_text("y0^3 + y0 y1 y3 + y3^3", vars=ring.RH_VARS)
    # isobaric input comes back with y3-degree 0
    iso = text("y0 y1 + y2^2")
    assert homogenize_weight(iso).partial_degree("y3") == 0


def at_y3_one(P):
    """P at y3 = 1: the sum of its coefficients of y3^k."""
    parts = [P.coefficient_of("y3", k) for k in range(P.partial_degree("y3") + 1)]
    return Poly.sum(P.vars, parts)


def test_homogenize_round_trip_random():
    rng = random.Random(7)
    for _ in range(20):
        f = Poly.zero(AFFINE_VARS)
        for _ in range(4):
            exps = (0, 0, rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
            f = f + Poly(AFFINE_VARS, {exps: Fraction(rng.randint(-4, 4))})
        if not f:
            continue
        h = homogenize_weight(f)
        back = at_y3_one(h).rename_ring(
            AFFINE_VARS, {"y0": "y0", "y1": "y1", "y2": "y2"}
        )
        assert back == f


def test_homogenize_rejects_tau():
    with pytest.raises(VariableOutsideR):
        homogenize_weight(text("tau y0"))


def test_resultant_sign_convention():
    vars = ("y", "u", "v")
    P = Poly.var(vars, "y") - Poly.var(vars, "u")
    Q = Poly.var(vars, "y") - Poly.var(vars, "v")
    # documented convention: Res_y(y - u, y - v) = u - v
    assert resultant(P, Q, "y") == Poly.var(vars, "u") - Poly.var(vars, "v")


def test_resultant_degree_zero_rejected():
    with pytest.raises(DegreeZeroInVariable):
        resultant(text("y0 + 1"), text("y1"), "y1")


def test_resultant_matches_sympy_on_random_bivariate():
    rng = random.Random(23)
    x, y = sp.symbols("x y")
    for _ in range(12):
        vars = ("x", "y")

        def draw():
            p = Poly.zero(vars)
            for _ in range(5):
                exps = (rng.randint(0, 2), rng.randint(1, 2))
                p = p + Poly(vars, {exps: Fraction(rng.randint(-5, 5))})
            return p

        P, Q = draw(), draw()
        if P.partial_degree("y") < 1 or Q.partial_degree("y") < 1:
            continue

        def to_sympy(f):
            return sp.expand(
                sum(sp.Rational(c) * x ** e[0] * y ** e[1] for e, c in f.terms.items())
                + sp.Integer(0)
            )

        ours = resultant(P, Q, "y")
        theirs = sp.resultant(sp.Poly(to_sympy(P), y, x), sp.Poly(to_sympy(Q), y, x)).as_expr()
        assert sp.expand(to_sympy(ours) - theirs) == 0


def test_resultant_cofactors_exhibit_membership():
    rng = random.Random(3)
    vars = ("x", "y")
    for _ in range(6):
        P = Poly(vars, {(0, 2): Fraction(rng.randint(1, 4)),
                        (1, 1): Fraction(rng.randint(-4, 4)),
                        (2, 0): Fraction(rng.randint(-4, 4))})
        Q = Poly(vars, {(0, 1): Fraction(rng.randint(1, 4)),
                        (1, 0): Fraction(rng.randint(-4, 4)),
                        (0, 0): Fraction(rng.randint(-4, 4))})
        R, A, B = resultant_with_cofactors(P, Q, "y")
        assert A * P + B * Q == R
        assert R == resultant(P, Q, "y")
        assert R.partial_degree("y") <= 0


def test_homogenized_resultant_eliminates_and_certifies():
    # the mechanism behind finding an isobaric element of a non-principal
    # ideal: weight-homogenize two coprime members, eliminate the
    # auxiliary variable, and read the cofactor identity back at y3 = 1
    U = text("y0^2 + y1")
    V = text("y1 y2 + y0")
    hU, hV = homogenize_weight(U), homogenize_weight(V)
    R, A, B = resultant_with_cofactors(hU, hV, "y3")
    assert R == resultant(hU, hV, "y3")
    assert R.partial_degree("y3") <= 0
    assert R and ring.is_isobaric(R)
    back = at_y3_one(A) * at_y3_one(hU) + at_y3_one(B) * at_y3_one(hV)
    assert back == R


def test_domain_mismatch_on_foreign_variables():
    P = text("y0")
    Q = Poly.var(("a", "b"), "a")
    with pytest.raises(DomainMismatch):
        P + Q
    with pytest.raises(DomainMismatch):
        P * Q


def test_text_round_trip():
    rng = random.Random(19)
    for _ in range(25):
        P = random_poly(rng)
        assert poly_from_text(P.to_text()) == P


def test_json_round_trip():
    rng = random.Random(29)
    for _ in range(25):
        P = random_poly(rng)
        assert Poly.from_json_obj(P.to_json_obj()) == P


def test_parse_rejects_unknown_variable():
    with pytest.raises(PolyParseError):
        poly_from_text("z0 + 1")


def test_parse_accepts_explicit_star_and_powers():
    assert poly_from_text("3/4 * tau^2 q y0^3") == poly_from_text("3/4 tau^2 q y0^3")
