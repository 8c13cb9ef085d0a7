"""The integer-first coefficient invariant of ``ring.Poly`` and its division.

Every stored coefficient is a nonzero ``int`` or a ``Fraction`` whose
denominator is not 1, never a float; integral values are ints, so
integer inputs stay integers through add, sub and mul.  Every quotient
of coefficients goes through ``ring._div``.  Resultants are checked against sympy,
including a common root and a Bareiss elimination that must swap rows, and
the one-elimination cofactors against a test-local expansion of the
Sylvester determinant along its constant column, one minor per row.
The packed monomial keys are checked on 1 to 9 variables: int order is
the graded-lex order, the guard-mask division test is componentwise
``>=``, decoding and re-encoding keeps a polynomial and its term order,
packed ``leibniz`` equals the tuple-keyed ``reference_leibniz``, and no
exponent, product or derivative passes ``DEGREE_CAP``.  A term times a
polynomial, a key shift, equals a schoolbook product over exponent
tuples; the fused Bareiss update keeps the ring and degree checks; and
resultants, which run on operands with cleared denominators, scale as
``Res(cP, dQ) == c^m d^n Res(P, Q)``.
"""

import json
from fractions import Fraction
from operator import add, ge, sub

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.subresultants_qq_zz import sylvester

from conftest import reference_leibniz
from triring.derivation import leibniz
from triring.errors import DomainMismatch
from triring.ring import (
    AFFINE_VARS,
    DEGREE_CAP,
    Poly,
    _bareiss,
    _div,
    _poly_matrix_det,
    resultant,
    resultant_with_cofactors,
    sylvester_matrix,
)

VARS = ("x", "y")
SX, SY = sp.symbols("x y")

exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
int_coef = st.integers(-9, 9)
rat_coef = st.one_of(int_coef, st.fractions(min_value=-5, max_value=5, max_denominator=6))
int_poly = st.dictionaries(exps, int_coef, max_size=6).map(lambda t: Poly(VARS, t))
rat_poly = st.dictionaries(exps, rat_coef, max_size=6).map(lambda t: Poly(VARS, t))
any_poly = st.one_of(int_poly, rat_poly)

SETTINGS = settings(max_examples=60, deadline=None)


def assert_canonical(P):
    for e, c in P.terms.items():
        assert type(e) is tuple and len(e) == len(P.vars)
        assert type(c) in (int, Fraction), f"{c!r} stored at {e}"
        assert c != 0
        if type(c) is Fraction:
            assert c.denominator != 1, f"integral {c!r} stored as a Fraction"


def lead_divides(lead, e):
    return all(a <= b for a, b in zip(lead, e))


def to_sympy(P):
    return sp.expand(
        sum(sp.Rational(c.numerator, c.denominator) * SX ** e[0] * SY ** e[1]
            for e, c in P.terms.items())
        + sp.Integer(0)
    )


def in_y(P):
    return sp.Poly(to_sympy(P), SY, SX)


@SETTINGS
@given(any_poly, any_poly, rat_coef)
def test_arithmetic_stores_canonical_coefficients(P, Q, c):
    for R in (P + Q, P - Q, Q - P, P * Q, -P, P * c, c * P, P + c, c - P, P ** 2):
        assert_canonical(R)
    assert (P - Q) + Q == P
    assert P * Q - Q * P == Poly.zero(VARS)


@SETTINGS
@given(any_poly, any_poly)
def test_divmod_single_identity_and_remainder(P, D):
    assume(D)
    q, r = P.divmod_single(D)
    assert_canonical(q)
    assert_canonical(r)
    assert q * D + r == P
    lead, _ = D.leading()
    assert not any(lead_divides(lead, e) for e in r.terms)


@SETTINGS
@given(any_poly, any_poly, any_poly)
def test_divmod_many_identity_and_remainder(P, D1, D2):
    assume(D1 and D2)
    (q1, q2), r = P.divmod_many([D1, D2])
    for R in (q1, q2, r):
        assert_canonical(R)
    assert q1 * D1 + q2 * D2 + r == P
    leads = [D1.leading()[0], D2.leading()[0]]
    assert not any(lead_divides(l, e) for l in leads for e in r.terms)


@SETTINGS
@given(any_poly, any_poly, rat_coef)
def test_exact_div_recovers_the_factor(P, D, c):
    assume(D and c)
    quo = (P * D).exact_div(D)
    assert_canonical(quo)
    assert quo == P
    scaled = (P * c).exact_div(c)
    assert_canonical(scaled)
    assert scaled == P


def test_div_returns_int_when_integral():
    assert type(_div(6, 3)) is int and _div(6, 3) == 2
    assert type(_div(-7, 7)) is int and _div(-7, 7) == -1
    assert _div(3, -6) == Fraction(-1, 2)
    assert type(_div(Fraction(3, 2), Fraction(1, 2))) is int
    assert _div(1, Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        _div(1, 0)


def test_float_coefficient_is_rejected():
    with pytest.raises(DomainMismatch):
        Poly(VARS, {(1, 0): 0.5})
    with pytest.raises(DomainMismatch):
        Poly.const(VARS, 2.0)


def test_integral_fraction_is_stored_as_int_with_same_text_and_hash():
    P = Poly(VARS, {(1, 0): Fraction(6, 2), (0, 1): Fraction(1, 2)})
    assert type(P.terms[(1, 0)]) is int
    assert P.terms == {(1, 0): Fraction(3), (0, 1): Fraction(1, 2)}
    Q = Poly(VARS, {(1, 0): 3, (0, 1): Fraction(1, 2)})
    assert P == Q and hash(P) == hash(Q)
    assert P.to_text() == "1/2 * y + 3 * x"
    assert '"coef": "3"' in json.dumps(P.to_json_obj(), sort_keys=True)


# -- resultants against sympy --------------------------------------------------------

y_degree = st.integers(1, 3)


@st.composite
def poly_in_y(draw, coef):
    """A poly of positive degree in y: a nonzero y^n term plus a lower tail."""
    n = draw(y_degree)
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, n - 1)), coef, max_size=4))
    terms[(draw(st.integers(0, 1)), n)] = draw(coef.filter(bool))
    return Poly(VARS, terms)


@settings(max_examples=30, deadline=None)
@given(st.one_of(poly_in_y(int_coef), poly_in_y(rat_coef)),
       st.one_of(poly_in_y(int_coef), poly_in_y(rat_coef)))
def test_resultant_with_cofactors_matches_sympy(P, Q):
    R, A, B = resultant_with_cofactors(P, Q, "y")
    for X in (R, A, B):
        assert_canonical(X)
    assert A * P + B * Q == R
    ours = to_sympy(R)
    assert sp.expand(ours - sylvester(to_sympy(P), to_sympy(Q), SY).det()) == 0
    # sympy.resultant equals its own Sylvester determinant up to sign; they
    # differ at degrees (1, 3), e.g. Res_y(y + 1, y^3) is -1 but it returns 1
    theirs = sp.resultant(in_y(P), in_y(Q)).as_expr()
    assert sp.expand(ours - theirs) == 0 or sp.expand(ours + theirs) == 0


def test_resultant_of_a_common_root_is_zero():
    x, y = Poly.var(VARS, "x"), Poly.var(VARS, "y")
    P = (y - x) * (2 * y + 1)
    Q = (y - x) * (y - Fraction(2, 3)) * (y + x)
    R, A, B = resultant_with_cofactors(P, Q, "y")
    assert not R
    assert A * P + B * Q == Poly.zero(VARS)
    assert sp.resultant(in_y(P), in_y(Q)) == 0


def test_bareiss_swaps_rows_when_the_first_pivot_is_zero():
    x, y = Poly.var(VARS, "x"), Poly.var(VARS, "y")
    P = 3 * y ** 2 + x * y - Fraction(1, 2)
    Q = 2 * y ** 3 - x ** 2 * y + 5
    S = sylvester_matrix(P, Q, "y")
    rotated = S[1:] + S[:1]  # row 1 is y P, whose y^4 entry is zero
    assert not rotated[0][0]
    det = _poly_matrix_det(rotated)
    assert_canonical(det)
    want = sp.Matrix([[to_sympy(e) for e in row] for row in rotated]).det()
    assert sp.expand(to_sympy(det) - want) == 0
    # a zero first column gives a zero determinant through the same branch
    zero = Poly.zero(VARS)
    assert not _poly_matrix_det([[zero, x], [zero, y]])


# -- cofactors from one elimination against the minor expansion --------------------


def bareiss_det(matrix):
    """Plain fraction-free Bareiss determinant, independent of the package's."""
    n = len(matrix)
    M = [row[:] for row in matrix]
    sign, prev = 1, Poly.const(VARS, 1)
    for k in range(n - 1):
        if not M[k][k]:
            pivot = next((i for i in range(k + 1, n) if M[i][k]), None)
            if pivot is None:
                return Poly.zero(VARS)
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]).exact_div(prev)
        prev = M[k][k]
    return M[n - 1][n - 1] if sign == 1 else -M[n - 1][n - 1]


def cofactors_by_minors(P, Q, name):
    """(R, A, B) by expanding the Sylvester determinant along its constant column."""
    S = sylvester_matrix(P, Q, name)
    size, n, m = len(S), P.partial_degree(name), Q.partial_degree(name)
    A, B = Poly.zero(VARS), Poly.zero(VARS)
    for i in range(size):
        det = bareiss_det([row[:-1] for r, row in enumerate(S) if r != i])
        if (i + size - 1) % 2:
            det = -det
        if i < m:
            A = A + det * Poly.var(VARS, name, m - 1 - i)
        else:
            B = B + det * Poly.var(VARS, name, n - 1 - (i - m))
    return A * P + B * Q, A, B


@settings(max_examples=40, deadline=None)
@given(st.one_of(poly_in_y(int_coef), poly_in_y(rat_coef)),
       st.one_of(poly_in_y(int_coef), poly_in_y(rat_coef)))
def test_one_elimination_equals_the_minor_expansion(P, Q):
    R, A, B = resultant_with_cofactors(P, Q, "y")
    assert (R, A, B) == cofactors_by_minors(P, Q, "y")
    assert A * P + B * Q == R
    assert R == resultant(P, Q, "y")


def test_cofactor_elimination_swaps_rows_at_a_vanishing_pivot():
    x, y = Poly.var(VARS, "x"), Poly.var(VARS, "y")
    P, Q = y ** 2 + x, Fraction(1, 2) * y ** 3
    S = sylvester_matrix(P, Q, "y")
    # the leading 4x4 minor vanishes, so the fourth pivot is zero and the
    # elimination swaps in the last row
    assert sp.Matrix([[to_sympy(e) for e in row[:4]] for row in S[:4]]).det() == 0
    R, A, B = resultant_with_cofactors(P, Q, "y")
    assert (R, A, B) == cofactors_by_minors(P, Q, "y")
    assert R == Fraction(1, 4) * x ** 3  # (1/2)^deg P times P(0)^3
    assert A * P + B * Q == R
    for X in (R, A, B):
        assert_canonical(X)


def test_rank_deficient_leading_columns_give_three_zeros():
    x, y = Poly.var(VARS, "x"), Poly.var(VARS, "y")
    square = (y - x) ** 2  # a common factor of degree 2 kills every cofactor
    P, Q = square * (2 * y + 1), square * (y - Fraction(2, 3)) * (y + x)
    zero = Poly.zero(VARS)
    assert resultant_with_cofactors(P, Q, "y") == (zero, zero, zero)
    assert cofactors_by_minors(P, Q, "y") == (zero, zero, zero)


@SETTINGS
@given(any_poly, rat_coef)
def test_exact_div_by_a_constant_poly(P, c):
    assume(c)
    one = Poly.const(VARS, 1)
    assert P.exact_div(one) == P
    quo = (P * c).exact_div(Poly.const(VARS, c))
    assert_canonical(quo)
    assert quo == P


def test_exact_div_by_a_constant_poly_keeps_integral_quotients_int():
    x, y = Poly.var(VARS, "x"), Poly.var(VARS, "y")
    quo = (6 * x - 3 * y).exact_div(Poly.const(VARS, 3))
    assert quo.terms == {(1, 0): 2, (0, 1): -1}
    assert_canonical(quo)
    half = (Fraction(3, 2) * x + 4 * y).exact_div(Poly.const(VARS, Fraction(1, 2)))
    assert half.terms == {(1, 0): 3, (0, 1): 8}
    assert_canonical(half)
    assert (x + y).exact_div(Poly.const(VARS, 2)) == Fraction(1, 2) * (x + y)
    with pytest.raises(DomainMismatch):
        x.exact_div(Poly.const(("x", "z"), 2))


# -- packed monomial keys ---------------------------------------------------------------


def ring_of(n):
    return tuple(f"v{i}" for i in range(n))


@st.composite
def exponent_vector(draw, n, small=3):
    """Exponents up to ``small``, one of them possibly up to the cap; degree <= DEGREE_CAP."""
    exps = draw(st.lists(st.integers(0, small), min_size=n, max_size=n))
    i = draw(st.integers(0, n - 1))
    room = DEGREE_CAP - sum(exps) + exps[i]
    exps[i] = draw(st.one_of(st.integers(0, small), st.integers(0, room)))
    return tuple(exps)


@st.composite
def small_poly(draw, vars):
    exps = st.lists(st.integers(0, 3), min_size=len(vars), max_size=len(vars)).map(tuple)
    return Poly(vars, draw(st.dictionaries(exps, rat_coef, max_size=5)))


@SETTINGS
@given(st.data())
def test_key_order_is_the_graded_lex_order(data):
    n = data.draw(st.integers(1, 9))
    monos = data.draw(st.lists(exponent_vector(n), min_size=1, max_size=12, unique=True))
    graded_lex = sorted(monos, key=lambda e: (sum(e), tuple(reversed(e))))
    P = Poly(ring_of(n), {e: 1 for e in monos})
    assert [e for e, _ in reversed(P.sorted_terms())] == graded_lex
    assert [tuple(t["exps"]) for t in P.to_json_obj()["terms"]] == graded_lex
    assert P.leading() == (graded_lex[-1], 1)


@SETTINGS
@given(st.data())
def test_guard_mask_division_test_is_componentwise(data):
    n = data.draw(st.integers(1, 9))
    w = data.draw(exponent_vector(n))
    nearby = st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(
        lambda d: tuple(max(0, a + b) for a, b in zip(w, d))).filter(lambda e: sum(e) <= DEGREE_CAP)
    lead = data.draw(st.one_of(nearby, exponent_vector(n)))
    vars = ring_of(n)
    quo, rem = Poly(vars, {w: 3}).divmod_single(Poly(vars, {lead: 2}))
    if all(map(ge, w, lead)):
        assert not rem and quo.terms == {tuple(map(sub, w, lead)): Fraction(3, 2)}
    else:
        assert not quo and rem.terms == {w: 3}


@SETTINGS
@given(st.data())
def test_decoded_terms_rebuild_the_same_poly(data):
    vars = ring_of(data.draw(st.integers(1, 9)))
    wide = Poly(vars, data.draw(st.dictionaries(exponent_vector(len(vars)), rat_coef, max_size=6)))
    product = data.draw(small_poly(vars)) * data.draw(small_poly(vars))
    for P in (wide, product):
        Q = Poly(P.vars, P.terms)
        assert Q == P
        assert list(Q.terms) == list(P.terms) and list(Q.mono) == list(P.mono)


@SETTINGS
@given(st.data())
def test_packed_leibniz_equals_the_tuple_keyed_reference(data):
    vars = ring_of(data.draw(st.integers(1, 9)))
    P = data.draw(small_poly(vars))
    names = data.draw(st.lists(st.sampled_from(vars), unique=True))
    table = {name: data.draw(small_poly(vars)) for name in names}
    got, want = leibniz(P, table), reference_leibniz(P, table)
    assert got == want
    assert list(got.terms) == list(want.terms)
    assert_canonical(got)


def test_constructor_refuses_monomials_off_the_layout():
    for exps in [(0, 0, -1, 0, 0), (1, 0, 0, 2), (1, 0, 0, 2, 0, 0),
                 (0, 0, DEGREE_CAP + 1, 0, 0), (16384, 0, 16384, 0, 0),
                 (0, 0, 1.0, 0, 0), (0, 0, Fraction(1, 2), 0, 0)]:
        with pytest.raises(DomainMismatch):
            Poly(AFFINE_VARS, {exps: 1})
    for exponent in (-1, DEGREE_CAP + 1):
        with pytest.raises(DomainMismatch):
            Poly.var(AFFINE_VARS, "y0", exponent)
    top = Poly(AFFINE_VARS, {(1, 0, DEGREE_CAP - 1, 0, 0): 1})
    assert top.total_degree() == DEGREE_CAP and top.partial_degree("y0") == DEGREE_CAP - 1


def test_products_and_derivatives_past_the_cap_raise():
    y0 = Poly.var(AFFINE_VARS, "y0", 20000)
    with pytest.raises(DomainMismatch):
        y0 ** 2
    with pytest.raises(DomainMismatch):
        y0 * Poly.var(AFFINE_VARS, "tau", DEGREE_CAP - 19999)
    at_cap = y0 * Poly.var(AFFINE_VARS, "tau", DEGREE_CAP - 20000)
    assert at_cap.terms == {(DEGREE_CAP - 20000, 0, 20000, 0, 0): 1}
    square = {"y0": Poly.var(AFFINE_VARS, "y0", 2)}
    with pytest.raises(DomainMismatch):
        leibniz(Poly.var(AFFINE_VARS, "y0", DEGREE_CAP), square)
    below = leibniz(Poly.var(AFFINE_VARS, "y0", DEGREE_CAP - 1), square)
    assert below.terms == {(0, 0, DEGREE_CAP, 0, 0): DEGREE_CAP - 1}
    # a linear image keeps the degree, so a derivative at the cap is fine
    turn = leibniz(Poly.var(AFFINE_VARS, "y0", DEGREE_CAP), {"y0": Poly.var(AFFINE_VARS, "y1")})
    assert turn.terms == {(0, 0, DEGREE_CAP - 1, 1, 0): DEGREE_CAP}


# -- a term times a polynomial -------------------------------------------------------


def schoolbook(P, Q):
    """P * Q over exponent tuples, the terms of P outside, those of Q inside."""
    terms = {}
    for e1, c1 in P.terms.items():
        for e2, c2 in Q.terms.items():
            e = tuple(map(add, e1, e2))
            terms[e] = terms.get(e, 0) + Fraction(c1) * c2
    return Poly(P.vars, terms)


one_term = st.one_of(
    st.just(Poly.const(VARS, 1)),
    int_coef.map(lambda c: Poly.const(VARS, c)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).map(lambda c: Poly.const(VARS, c)),
    st.builds(lambda e, c: Poly(VARS, {e: c}), exps, rat_coef.filter(bool)),
    st.just(Poly.zero(VARS)),
)


@SETTINGS
@given(any_poly, one_term)
def test_a_term_times_a_polynomial_is_the_schoolbook_product(P, T):
    for got, want in ((P * T, schoolbook(P, T)), (T * P, schoolbook(T, P))):
        assert got == want
        assert list(got.terms) == list(want.terms)
        assert_canonical(got)
    if T.mono.get(0) is not None:  # a constant, also as a scalar
        c = T.mono[0]
        for got in (P * c, c * P, P * Fraction(c)):
            assert got == schoolbook(P, T)
            assert_canonical(got)
    if T == 1 and len(P.mono) > 1:  # times a constant 1, the other operand's terms
        assert (P * T).mono is P.mono and (T * P).mono is P.mono


def test_a_term_times_a_polynomial_keeps_the_ring_and_degree_checks():
    x, y = Poly.var(VARS, "x"), Poly.var(VARS, "y")
    P = 3 * x ** 2 - Fraction(1, 2) * y + 1
    for T in (Poly.const(("x", "z"), 1), Poly.var(("x", "z"), "z")):
        for product in (lambda: P * T, lambda: T * P):
            with pytest.raises(DomainMismatch):
                product()
    high = Poly.var(VARS, "x", DEGREE_CAP - 1)
    with pytest.raises(DomainMismatch):
        high * P
    with pytest.raises(DomainMismatch):
        P * Poly.var(VARS, "y", DEGREE_CAP - 1)
    assert (high * y).terms == {(DEGREE_CAP - 1, 1): 1}


def test_the_fused_bareiss_update_keeps_the_ring_and_degree_checks():
    x, y = Poly.var(VARS, "x"), Poly.var(VARS, "y")
    high, low = Poly.var(VARS, "x", 20000), Poly.var(VARS, "y", 15000)
    # the update of the last entry is x*piv - a*y: each product in turn passes the cap
    for matrix in ([[high, x], [y, low]], [[x + 1, high], [low, y]]):
        with pytest.raises(DomainMismatch):
            _poly_matrix_det(matrix)
        with pytest.raises(DomainMismatch):
            _bareiss([row[:-1] + [(row[-1], row[-1])] for row in matrix])
    assert _poly_matrix_det([[high, x], [y, y]]) == high * y - x * y
    other = Poly.var(("x", "z"), "z")
    for matrix in ([[x, y], [other, x]], [[x, other], [y, x]], [[x, y], [y, other]]):
        with pytest.raises(DomainMismatch):
            _poly_matrix_det(matrix)


# -- resultants on cleared denominators ------------------------------------------------

nonzero_rat = rat_coef.filter(bool)


@settings(max_examples=40, deadline=None)
@given(poly_in_y(rat_coef), poly_in_y(rat_coef), nonzero_rat, nonzero_rat)
def test_resultant_scales_by_powers_of_the_constants(P, Q, c, d):
    n, m = P.partial_degree("y"), Q.partial_degree("y")
    R = resultant(P, Q, "y")
    assert resultant(c * P, d * Q, "y") == Fraction(c) ** m * Fraction(d) ** n * R
    R2, A, B = resultant_with_cofactors(c * P, d * Q, "y")
    assert R2 == Fraction(c) ** m * Fraction(d) ** n * R
    assert A * (c * P) + B * (d * Q) == R2
    for X in (R2, A, B):
        assert_canonical(X)


def test_cofactors_of_operands_with_different_denominators():
    x, y = Poly.var(VARS, "x"), Poly.var(VARS, "y")
    P = Fraction(2, 3) * y ** 2 + Fraction(1, 6) * x * y - Fraction(5, 4)
    Q = Fraction(3, 5) * y ** 3 - Fraction(1, 7) * x ** 2 * y + Fraction(2, 35) * x
    R, A, B = resultant_with_cofactors(P, Q, "y")
    assert A * P + B * Q == R
    assert (R, A, B) == cofactors_by_minors(P, Q, "y")
    assert R == resultant(P, Q, "y")
    assert sp.expand(to_sympy(R) - sylvester(to_sympy(P), to_sympy(Q), SY).det()) == 0
    # the integer multiples 12 P and 35 Q scale R by 12^3 35^2 and A, B by one power less
    R12, A12, B12 = resultant_with_cofactors(12 * P, 35 * Q, "y")
    assert R12 == 12 ** 3 * 35 ** 2 * R
    assert (A12, B12) == (12 ** 2 * 35 ** 2 * A, 12 ** 3 * 35 * B)
    for X in (R, A, B, R12, A12, B12):
        assert_canonical(X)
