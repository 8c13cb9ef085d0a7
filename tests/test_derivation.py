import math
import random
from fractions import Fraction

import pytest

from triring import derivation as dv
from triring import ring
from triring.errors import DomainMismatch, NotHomogeneous, NotInR, NotIsobaric
from triring.params import derived_constants, validate
from triring.ring import AFFINE_VARS, HOMOG_VARS, Poly, poly_from_text, weight

from conftest import random_isobaric, random_poly, random_valid_triples, reference_leibniz

P134 = validate(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))
#: three triples with different w and form L
TRIPLES = [
    P134,
    validate(Fraction(1, 7), Fraction(1, 3), Fraction(1, 2)),
    validate(Fraction(1, 8), Fraction(1, 6), Fraction(1, 3)),
]


def g(name):
    return Poly.var(AFFINE_VARS, name)


def test_generator_rules():
    d = derived_constants(P134)
    L = dv.quadratic_form(P134)
    assert dv.apply_D(g("tau"), P134) == Poly.const(AFFINE_VARS, d.w)
    assert dv.apply_D(g("q"), P134) == d.w * g("q")
    for y in ("y0", "y1", "y2"):
        assert dv.apply_D(g(y), P134) == g(y) ** 2 - L


def test_constant_annihilated():
    assert not dv.apply_D(Poly.const(AFFINE_VARS, 5), P134)


def test_difference_factorization():
    assert dv.apply_D(g("y0") - g("y1"), P134) == (g("y0") - g("y1")) * (g("y0") + g("y1"))


def test_kappa_derivative_cofactor_and_printed_variant():
    # expansion gives cofactor w + 2(y0+y1+y2); the variant with q in
    # place of w is recorded as a misprint and must NOT hold
    from triring.ideals import kappa

    d = derived_constants(P134)
    kap = kappa()
    correct = (Poly.const(AFFINE_VARS, d.w) + 2 * (g("y0") + g("y1") + g("y2"))) * kap
    printed = (g("q") + 2 * (g("y0") + g("y1") + g("y2"))) * kap
    assert dv.apply_D(kap, P134) == correct
    assert dv.apply_D(kap, P134) != printed


@pytest.mark.parametrize("p", random_valid_triples(5, seed=21))
def test_leibniz_on_random_polynomials(p):
    rng = random.Random(100)
    for _ in range(8):
        A = random_poly(rng)
        B = random_poly(rng)
        assert dv.apply_D(A * B, p) == dv.apply_D(A, p) * B + A * dv.apply_D(B, p)


def fractional(rng, P):
    """P with each coefficient divided by a small random integer."""
    return Poly(P.vars, {e: Fraction(c, rng.randint(1, 6)) for e, c in P.terms.items()})


@pytest.mark.parametrize("kind", ["integral", "P fractional", "images fractional", "both fractional"])
def test_leibniz_equals_the_reference(kind):
    rng = random.Random(kind)
    for _ in range(20):
        P = random_poly(rng, max_degree=3, terms=5)
        table = {name: random_poly(rng) for name in rng.sample(AFFINE_VARS, rng.randint(1, 5))}
        if kind in ("P fractional", "both fractional"):
            P = fractional(rng, P)
        if kind in ("images fractional", "both fractional"):
            table = {name: fractional(rng, image) for name, image in table.items()}
        got, want = dv.leibniz(P, table), reference_leibniz(P, table)
        assert got == want
        assert list(got.terms) == list(want.terms)
        for c in got.terms.values():
            assert type(c) is int or c.denominator != 1
        if kind == "integral":
            assert all(type(c) is int for c in got.terms.values())


@pytest.mark.parametrize("p", TRIPLES)
def test_apply_D_reads_the_integer_images(p):
    M, images = dv.integer_images(p)
    rational = dv.generator_images(p)
    assert images == tuple(M * image for image in rational)
    assert all(type(c) is int for image in images for c in image.terms.values())
    assert M == math.lcm(*(c.denominator for image in rational for c in image.terms.values()))
    table = dict(zip(AFFINE_VARS, rational))
    rng = random.Random(7)
    for _ in range(10):
        P = fractional(rng, random_poly(rng))
        assert dv.apply_D(P, p) == reference_leibniz(P, table)


def test_quadratic_form_is_the_sum_of_squared_differences():
    for p in TRIPLES:
        d = derived_constants(p)
        y0, y1, y2 = g("y0"), g("y1"), g("y2")
        want = Fraction(1, 4) * (d.a * (y0 - y1) ** 2 + d.b * (y0 - y2) ** 2 + d.c * (y1 - y2) ** 2)
        got = dv.quadratic_form(p)
        assert got == want
        assert list(got.terms) == list(want.terms)


def test_leibniz_refuses_images_over_other_variables():
    with pytest.raises(DomainMismatch):
        dv.leibniz(g("y0"), {"y0": Poly.var(HOMOG_VARS, "X2")})


@pytest.mark.parametrize("P", [
    Poly.var(HOMOG_VARS, "X1"),
    Poly.var(("t", "X0"), "t"),
    Poly.var(("y0", "y1", "y2"), "y0"),
    Poly.zero(("tau", "q")),
])
def test_foreign_ring_is_refused(P):
    # no generator name of another ring may fall through to a zero result
    with pytest.raises(DomainMismatch):
        dv.apply_D(P, P134)
    for kind in ("D", "Dprime", "Honly"):
        with pytest.raises(DomainMismatch):
            dv.apply_variant(P, kind, P134)


def test_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="kind must be one of"):
        dv.apply_variant(g("y0"), "H", P134)


def test_images_are_built_once_per_triple():
    dv.integer_images.cache_clear()
    P = poly_from_text("y0 y1 + q")
    for _ in range(4):
        for p in TRIPLES:
            dv.apply_D(P, p)
            dv.apply_variant(P, "Dprime", p)
    info = dv.integer_images.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (3, 21, 32)


def test_variant_split_and_examples():
    for p in TRIPLES:
        P = poly_from_text("tau^2 y0")
        assert dv.apply_variant(P, "Dprime", p) == poly_from_text("tau^2") * dv.apply_D(
            g("y0"), p
        )
        d = derived_constants(p)
        # H(tau q) = w q + w tau q by the Leibniz rule on H tau = w, H q = w q
        assert dv.apply_variant(poly_from_text("tau q"), "Honly", p) == d.w * g(
            "q"
        ) + d.w * poly_from_text("tau q")
        rng = random.Random(9)
        for _ in range(10):
            P = random_poly(rng)
            tau_q = P.coefficient_of("y0", 0).coefficient_of("y1", 0).coefficient_of("y2", 0)
            ys = P.coefficient_of("tau", 0).coefficient_of("q", 0)
            assert not dv.apply_variant(tau_q, "Dprime", p)
            assert not dv.apply_variant(ys, "Honly", p)
            assert dv.apply_variant(P, "Dprime", p) + dv.apply_variant(
                P, "Honly", p
            ) == dv.apply_D(P, p)


def test_weight_ledger_on_isobaric():
    rng = random.Random(31)
    for _ in range(15):
        X = random_isobaric(rng, rng.randint(1, 4))
        DX = dv.apply_D(X, P134)
        assert weight(DX) == weight(X) + 1


def test_degree_ledgers():
    rng = random.Random(33)
    for _ in range(15):
        X = random_poly(rng)
        if not X:
            continue
        DX = dv.apply_D(X, P134)
        if DX:
            assert DX.partial_degree("q") <= X.partial_degree("q")
            assert DX.partial_degree("tau") <= X.partial_degree("tau")


def test_stability_witness_divisibility():
    # D(q) divisible by q; D(yi - yj) divisible by yi - yj
    assert not dv.apply_D(g("q"), P134).divmod_single(g("q"))[1]
    for a, b in (("y0", "y1"), ("y0", "y2"), ("y1", "y2")):
        diff = g(a) - g(b)
        assert not dv.apply_D(diff, P134).divmod_single(diff)[1]


# -- Rankin bracket -----------------------------------------------------------


def test_bracket_rejects_non_isobaric():
    with pytest.raises(NotIsobaric):
        dv.rankin_bracket(g("y0") + g("y1") ** 2, g("y0"), P134)


def test_bracket_rejects_tau():
    with pytest.raises(NotInR):
        dv.rankin_bracket(poly_from_text("tau y0"), g("y0"), P134)


def test_bracket_diagonal_vanishes():
    rng = random.Random(41)
    for _ in range(10):
        X = random_isobaric(rng, rng.randint(1, 3))
        assert not dv.rankin_bracket(X, X, P134)


def test_bracket_antisymmetry_example():
    assert dv.rankin_bracket(g("y0"), g("y1"), P134) == -dv.rankin_bracket(
        g("y1"), g("y0"), P134
    )


def test_bracket_difference_expansion_and_printed_shorthand():
    # expansion-derived value; the shorthand (y1-y2) y0 that appears in
    # print has weight 2, not 3, and cannot equal a bracket of two
    # weight-1 elements
    L = dv.quadratic_form(P134)
    lhs = dv.rankin_bracket(g("y1") - g("y2"), g("y0"), P134)
    expansion = (g("y1") - g("y2")) * (
        g("y0") ** 2 - L - g("y0") * g("y1") - g("y0") * g("y2")
    )
    assert lhs == expansion
    assert lhs != (g("y1") - g("y2")) * g("y0")
    assert weight(lhs) == 3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bracket_laws_random(seed):
    rng = random.Random(seed)
    for _ in range(25):
        wx = rng.randint(1, 3)
        X = random_isobaric(rng, wx)
        Y = random_isobaric(rng, wx)
        Pw = random_isobaric(rng, rng.randint(1, 3))
        br = dv.rankin_bracket
        # antisymmetry and weight law
        assert br(X, Pw, P134) == -br(Pw, X, P134)
        out = br(X, Pw, P134)
        if out:
            assert weight(out) == weight(X) + weight(Pw) + 1
        # equal-weight additivity
        if X + Y:
            assert br(X + Y, Pw, P134) == br(X, Pw, P134) + br(Y, Pw, P134)
        # derivation law d_P(XY) = d_P(X) Y + X d_P(Y)
        assert br(X * Y, Pw, P134) == br(X, Pw, P134) * Y + X * br(Y, Pw, P134)


# -- homogeneous derivation ------------------------------------------------------


def X(name):
    return Poly.var(HOMOG_VARS, name)


def test_homog_generator_images():
    # the paper's table, with U the form L written in X2, X3, X4
    t, X0, X1, X2, X3, X4 = (X(name) for name in HOMOG_VARS)
    for p in TRIPLES:
        d = derived_constants(p)
        U = Fraction(1, 4) * (d.a * (X2 - X3) ** 2 + d.b * (X2 - X4) ** 2 + d.c * (X3 - X4) ** 2)
        assert dv.homog_D(t, p) == d.w * X0 ** 2
        assert not dv.homog_D(X0, p)
        assert dv.homog_D(X1, p) == d.w * X0 ** 2 * X1
        for Xi in (X2, X3, X4):
            assert dv.homog_D(Xi, p) == X0 * (Xi ** 2 - U)


def test_homog_degree_raises_by_two():
    rng = random.Random(53)
    for _ in range(10):
        deg = rng.randint(1, 3)
        Q = Poly.zero(HOMOG_VARS)
        for _ in range(4):
            xs = [0] * 5
            left = deg
            for i in range(4):
                take = rng.randint(0, left)
                xs[i] = take
                left -= take
            xs[4] = left
            exps = (rng.randint(0, 2),) + tuple(xs)
            Q = Q + Poly(HOMOG_VARS, {exps: Fraction(rng.randint(-4, 4))})
        if not Q:
            continue
        out = dv.homog_D(Q, P134)
        if out:
            assert dv.is_x_homogeneous(out)
            assert dv.x_degree(out) == deg + 2


def test_homog_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneous):
        dv.homog_D(X("X1") + X("X2") ** 2, P134)


def test_psi_compatibility():
    rng = random.Random(61)
    for _ in range(10):
        deg = rng.randint(1, 3)
        Q = Poly.zero(HOMOG_VARS)
        for _ in range(3):
            xs = [0] * 5
            left = deg
            for i in range(4):
                take = rng.randint(0, left)
                xs[i] = take
                left -= take
            xs[4] = left
            exps = (rng.randint(0, 1),) + tuple(xs)
            Q = Q + Poly(HOMOG_VARS, {exps: Fraction(rng.randint(-3, 3))})
        if not Q:
            continue
        lhs = dv.dehomogenize(dv.homog_D(Q, P134))
        rhs = dv.apply_D(dv.dehomogenize(Q), P134)
        assert lhs == rhs
