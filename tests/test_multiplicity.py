import gc
import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triring import ideals
from triring import multiplicity as mult
from triring.derivation import dehomogenize
from triring.errors import (
    DomainMismatch,
    ThresholdAmbiguous,
    TruncationExhausted,
    ZeroPolynomial,
)
from triring.params import derived_constants, unit_fraction_triples, validate
from triring.ring import AFFINE_VARS, HOMOG_VARS, Poly, poly_from_text

from conftest import reference_generic_entry, reference_order, reference_rows

P134 = validate(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))
TRIPLES = [
    P134,
    validate(Fraction(1, 7), Fraction(1, 3), Fraction(1, 2)),
    validate(Fraction(1, 8), Fraction(1, 6), Fraction(1, 3)),
]


def text(s, vars=AFFINE_VARS):
    return poly_from_text(s, vars=vars)


@pytest.mark.parametrize("p", TRIPLES)
def test_ord_at_zero_of_generator_combinations(p):
    ga = p.gamma
    # expected values computed from the series oracle: y0-y1 = u0^2/z,
    # y0-y2 = u0^2/(z-1), y1-y2 = u0^2/(z(z-1)), tau = u1/u0
    cases = {
        "1": 0,
        "y0 - y1": ga - 1,
        "y0 - y2": ga,
        "y1 - y2": ga - 1,
        "tau": 1 - ga,
    }
    for s, expected in cases.items():
        rep = mult.ord_at_zero(text(s), p)
        assert rep.ord == expected, s
        assert rep.coordinate == "z"
        assert rep.conclusive


@pytest.mark.parametrize("p", TRIPLES)
def test_ord_kappa(p):
    # kappa = q u0^6 / (z^2 (z-1)^2): order 3 gamma - 2
    rep = mult.ord_at_zero(ideals.kappa(), p)
    assert rep.ord == 3 * p.gamma - 2


def test_ord_denominator_divides_ram():
    for p in TRIPLES:
        ram = derived_constants(p).ram
        rng = random.Random(5)
        for _ in range(6):
            poly = Poly.zero(AFFINE_VARS)
            for _ in range(3):
                exps = tuple(rng.randint(0, 1) for _ in range(5))
                poly = poly + Poly(AFFINE_VARS, {exps: Fraction(rng.randint(-4, 4))})
            if not poly:
                continue
            rep = mult.ord_at_zero(poly, p)
            assert (Fraction(rep.ord) * ram).denominator == 1


def test_ord_additive_over_products():
    p = P134
    a = text("y0 - y1")
    b = text("q y2 + tau")
    ra = mult.ord_at_zero(a, p).ord
    rb = mult.ord_at_zero(b, p).ord
    rab = mult.ord_at_zero(a * b, p).ord
    assert rab == ra + rb


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        mult.ord_at_zero(Poly.zero(AFFINE_VARS), P134)


#: (y0 - y2)^9 y1 expanded, as the pow9 goldens write it
POW9 = text("y0 - y2") ** 9 * text("y1")
P863 = validate(Fraction(1, 8), Fraction(1, 6), Fraction(1, 3))


def _orders_tried(monkeypatch):
    """The orders whose generator series the search at 0 puts in its graph, in turn."""
    tried = []
    leaf_series = mult._leaf_series

    def recording(params, N):
        tried.append(N)
        return leaf_series(params, N)

    monkeypatch.setattr(mult, "_leaf_series", recording)
    return tried


def test_retry_resolves_high_order(monkeypatch):
    # from order 3 the expanded power vanishes below both 3 and 6
    tried = _orders_tried(monkeypatch)
    rep = mult.ord_at_zero(POW9, P863, N=3)
    assert tried == [3, 6, 12]
    assert (rep.ord, rep.truncation) == (Fraction(7, 3), Fraction(19, 3))
    # from order 1 it is still inconclusive after the last doubling
    tried.clear()
    with pytest.raises(TruncationExhausted, match="still inconclusive at N=8$"):
        mult.ord_at_zero(POW9, P134, N=1)
    assert tried == [1, 2, 4, 8]
    with pytest.raises(ZeroPolynomial):
        mult.ord_at_zero(ideals.kappa() - ideals.kappa(), P134, N=4)


def _steps_computed(monkeypatch):
    """A one-entry list counting the steps ``_Node.extend`` computes from now on."""
    steps = [0]
    extend = mult._Node.extend

    def counting(node, stop):
        start = node.known
        extend(node, stop)
        steps[0] += node.known - start

    monkeypatch.setattr(mult._Node, "extend", counting)
    return steps


@pytest.mark.parametrize("p, N, doublings", [(P863, 3, 2), (P134, 8, 1), (P134, 1, 3)])
def test_a_search_builds_one_product_graph(monkeypatch, p, N, doublings):
    built, leaves = [], []
    product_graph, leaf = mult._product_graph, mult._Node.leaf.__func__

    def building(*args):
        built.append(args)
        return product_graph(*args)

    def counting_leaf(cls, s, ram):
        leaves.append(s)
        return leaf(cls, s, ram)

    monkeypatch.setattr(mult, "_product_graph", building)
    monkeypatch.setattr(mult._Node, "leaf", classmethod(counting_leaf))
    tried = _orders_tried(monkeypatch)
    try:
        mult.ord_at_zero(POW9, p, N)
    except TruncationExhausted:
        pass
    assert len(tried) == doublings + 1
    assert built == [(p, POW9.terms, N)]
    assert len(leaves) == 6  # the five generators and 1


@pytest.mark.parametrize("p, N", [(P134, 8), (P863, 3), (P863, 6)])
def test_a_resumed_search_computes_no_more_steps_than_one_started_where_it_decides(
        monkeypatch, p, N):
    tried = _orders_tried(monkeypatch)
    steps = _steps_computed(monkeypatch)
    resumed = mult.ord_at_zero(POW9, p, N)
    assert len(tried) > 1
    resumed_steps, steps[0] = steps[0], 0
    direct = mult.ord_at_zero(POW9, p, tried[-1])
    assert (direct.ord, direct.truncation) == (resumed.ord, resumed.truncation)
    assert 0 < resumed_steps <= steps[0]


#: variable tuples for random polynomials: the full ring, sub-tuples, another order
SUB_VARS = [AFFINE_VARS, ("y0", "y1"), ("y2", "tau", "q"), ("y1", "y0")]


@st.composite
def sparse_polys(draw):
    vars = draw(st.sampled_from(SUB_VARS))
    exps = st.tuples(*(st.integers(0, 3) for _ in vars))
    coefs = st.fractions(-5, 5, max_denominator=7).filter(bool)
    terms = draw(st.dictionaries(exps, coefs, min_size=1, max_size=5))
    if draw(st.booleans()):
        terms[(0,) * len(vars)] = draw(coefs)
    return Poly(vars, terms)


@settings(max_examples=60, deadline=None)
@given(P=sparse_polys(), triple=st.sampled_from(TRIPLES), N=st.integers(1, 8))
def test_ord_at_zero_matches_the_series_sum(P, triple, N):
    reference = reference_order(P, triple, N, mult.MAX_DOUBLINGS)
    if reference is None:
        with pytest.raises(TruncationExhausted):
            mult.ord_at_zero(P, triple, N)
    else:
        report = mult.ord_at_zero(P, triple, N)
        assert (report.ord, report.truncation) == reference


def test_ord_at_zero_maps_variables_by_name():
    want = P134.gamma - 1
    assert mult.ord_at_zero(text("y0 - y1", vars=("y0", "y1")), P134).ord == want
    assert mult.ord_at_zero(text("y0 - y1", vars=("y1", "y0")), P134).ord == want
    assert mult.ord_at_zero(text("y0 - y1"), P134).ord == want
    with pytest.raises(DomainMismatch):
        mult.ord_at_zero(text("X0 - X1", vars=("X0", "X1")), P134)
    with pytest.raises(DomainMismatch):
        mult.ord_at_zero(text("y0 X0", vars=("y0", "X0")), P134)


def test_exact_orders_reject_negative_truncation():
    with pytest.raises(ValueError):
        mult.ord_at_zero(text("y0 - y1"), P134, N=-1)
    with pytest.raises(ValueError):
        mult.log_dist_hypersurface(text("X0 X2 - t X3^2", vars=HOMOG_VARS), P134, N=-1)


def test_warm_exact_orders_leave_no_cyclic_garbage():
    # the expanded (y0 - y2)^9 y1 decides after one doubling from N = 8 on
    # 1/5,1/4,1/2 and after two from N = 3 on 1/8,1/6,1/3: grown leaves and
    # rescaled nodes must be freed by reference counts alone
    searches = [(P134, 8), (P863, 3)]
    for p, N in searches:
        mult.ord_at_zero(POW9, p, N)
    mult.bound_audit((1, 1, 1, 1, 1), P134, samples=5, N=4, seed=0)
    gc.collect()
    gc.disable()
    try:
        for p, N in searches:
            mult.ord_at_zero(POW9, p, N)
            assert gc.collect() == 0
        mult.bound_audit((1, 1, 1, 1, 1), P134, samples=5, N=4, seed=0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_truncation_exhausted_on_deep_cancellation():
    # q - sum_{k<=K} tau^k/k! vanishes to order (K+1)(1-gamma), deeper
    # than the retry cap reaches from a tiny starting window
    K = 60
    poly = text("q")
    for k in range(K + 1):
        poly = poly - Poly(
            AFFINE_VARS, {(k, 0, 0, 0, 0): Fraction(1, math.factorial(k))}
        )
    with pytest.raises(TruncationExhausted):
        mult.ord_at_zero(poly, P134, N=2)
    # the same polynomial resolves once the window is generous enough
    rep = mult.ord_at_zero(poly, P134, N=36)
    assert rep.ord == (K + 1) * (1 - P134.gamma)


# -- generic points ------------------------------------------------------------


def test_generic_ord_constant():
    rep = mult.ord_at_generic(text("1"), P134, 0.3)
    assert rep.ord == 0


def test_generic_ord_nonvanishing_combination():
    rep = mult.ord_at_generic(text("y0 y1 - y2 + tau q"), P134, 0.3 + 0.2j)
    assert rep.ord == 0
    assert rep.conclusive


def _tau_root(c, start):
    # on 1/5,1/4,1/2, tau = z^(1/2) 2F1(7/10, 3/4; 3/2; z) / 2F1(1/5, 1/4; 1/2; z)
    # is real on (0, 1); the real z near ``start`` where it equals c
    al, be, ga = mp.mpf(1) / 5, mp.mpf(1) / 4, mp.mpf(1) / 2

    def tau(z):
        return (
            z ** (1 - ga)
            * mp.hyp2f1(al - ga + 1, be - ga + 1, 2 - ga, z)
            / mp.hyp2f1(al, be, ga, z)
        )

    with mp.workdps(30):
        return float(mp.findroot(lambda z: tau(z) - c, start))


def test_generic_order_at_a_zero_of_tau_minus_one_half():
    # tau passes 1/2 near z = 0.22125
    z0 = _tau_root(mp.mpf(1) / 2, 0.22)
    assert abs(z0 - 0.22125) < 1e-4
    rep = mult.ord_at_generic(text("tau - 1/2"), P134, z0)
    assert rep.ord == 1 and rep.conclusive
    assert rep.truncation == mult.DEFAULT_ORDER
    # N caps the derivatives tried: D^0 alone cannot decide
    with pytest.raises(ThresholdAmbiguous):
        mult.ord_at_generic(text("tau - 1/2"), P134, z0, N=1)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("unit", ["1", "y0 + 2", "q y1 - tau"])
def test_generic_order_of_a_power_of_tau_minus_one_half(k, unit):
    z0 = _tau_root(mp.mpf(1) / 2, 0.22)
    rep = mult.ord_at_generic(text("tau - 1/2") ** k * text(unit), P134, z0)
    assert rep.ord == k and rep.conclusive


@pytest.mark.parametrize("k", [14, 20])
def test_deep_generic_orders_are_decided(k):
    # D^10 of the order-14 case has 12049 terms: the flow of D never builds them
    z0 = _tau_root(mp.mpf(1) / 2, 0.22)
    rep = mult.ord_at_generic(text("tau - 1/2") ** k * text("y0 y1 + q y2^2 - 3"), P134, z0)
    assert rep.ord == k and rep.conclusive


def test_generic_orders_map_variables_by_name():
    z0 = _tau_root(mp.mpf(1) / 2, 0.22)
    assert mult.ord_at_generic(text("tau - 1/2", vars=("tau",)), P134, z0).ord == 1
    assert mult.ord_at_generic(text("y0 - y1", vars=("y1", "y0")), P134, 0.3).ord == 0
    with pytest.raises(DomainMismatch, match="X0"):
        mult.ord_at_generic(text("X0", vars=("X0",)), P134, 0.3)
    with pytest.raises(DomainMismatch, match="X0"):
        mult.ord_at_generic(text("y0 X0", vars=("y0", "X0")), P134, 0.3)


def test_closed_form_u0_matches_the_series_at_zero():
    # u0 and u0' from the closed form are the only numeric inputs of generic orders
    from triring import hypergeom as hg

    u0_zero = hg.u_series("u0", P134, 60)
    z0 = 0.4
    for dz in (0.02, -0.03, 0.02j):
        closed, _ = hg.u_value_and_derivative("u0", P134, z0 + dz)
        assert abs(closed - u0_zero.evaluate(z0 + dz)) < 1e-10


@pytest.mark.parametrize("poly", ["y0 y1 - y2 + tau q", "tau^2 y2 - 3 q y0^2 + y1 y2 + 2"])
def test_D_is_u0_squared_times_d_dz_on_generator_values(poly):
    # (D P)(g(z0)) = u0(z0)^2 (P o g)'(z0): the identity generic orders rest on
    from triring import hypergeom as hg

    P = text(poly)
    z0, h = 0.3 + 0.2j, 1e-5

    def at(z, n):
        (re, im, _), _, den = _entry(P, P134, z, n)
        return complex(re / den, im / den)

    u0, _ = hg.u_value_and_derivative("u0", P134, z0)
    lhs = at(z0, 1)
    slope = (at(z0 + h, 0) - at(z0 - h, 0)) / (2 * h)
    assert abs(lhs - u0 * u0 * slope) <= 1e-8 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("k", [6, 8, 12])
def test_expanded_power_that_cancels_is_not_read_as_zero(k):
    # at z0 = 0.25, tau - 1/2 is about 0.032 and its expanded k-th power
    # cancels to about 0.032^k against terms of size about 1: a relative
    # cut on that ratio would read it as zero, but it does not vanish
    rep = mult.ord_at_generic(text("tau - 1/2") ** k, P134, 0.25)
    assert rep.ord == 0 and rep.conclusive


def test_generic_value_is_exact_and_its_bound_follows_the_slopes():
    tau = mult._generator_values(P134, 0.25)["tau"]
    (re, im, majorant), slopes, den = _entry(text("tau - 1/2") ** 2, P134, 0.25, 0)
    value = complex(re / den, im / den)
    assert abs(value - (tau - 0.5) ** 2) <= 1e-15 * abs(tau - 0.5) ** 2
    # tau d/dtau (tau - 1/2)^2 = 2 tau (tau - 1/2), plus a second-order term
    slope = abs(2 * tau * (tau - 0.5))
    eps = mult.GENERIC_THRESHOLD
    # the bound of ord_at_generic: deg P + n = 2
    sensitivity = sum(abs(complex(a / den, b / den)) for a, b in slopes)
    bound = eps * (sensitivity + eps * 2 ** 2 * majorant / den)
    assert eps * slope <= bound <= eps * slope * 1.01


def test_a_value_within_the_second_order_term_is_read_as_zero():
    # (tau - t)^2 + 10^-30, t the float value of tau: the value 10^-30 has
    # no slope to clear, and eps^2 deg^2 times its majorant reads it as
    # zero, as does the zero first derivative; D^2 of it is 2 w^2
    t = Fraction(mult._generator_values(P134, 0.25)["tau"].real)
    P = Poly(AFFINE_VARS, {(2, 0, 0, 0, 0): 1, (1, 0, 0, 0, 0): -2 * t, (0,) * 5: t * t})
    assert mult.ord_at_generic(P + Fraction(1, 10 ** 30), P134, 0.25).ord == 2


def _entry(P, params, z0, n):
    """Entry n of P along the flow of D from the generator values at z0, with its slopes."""
    entries = mult._flow(P, params, mult._generator_values(params, z0), slopes=True)
    return next(itertools.islice(entries, n, None))


def _reference_order(P, params, z0, N):
    """The least n < N whose reference entry clears the bound of the iterated route, or None."""
    values, eps = mult._generator_values(params, z0), mult.GENERIC_THRESHOLD
    for n in range(N):
        value, slopes, remainder = reference_generic_entry(P, params, values, n)
        sensitivity = sum(math.hypot(*s) for s in slopes)
        if math.hypot(*value) > eps * (sensitivity + eps * remainder):
            return n
    return None


@st.composite
def cubic_polys(draw):
    exps = st.tuples(*[st.integers(0, 3)] * 5).filter(lambda e: sum(e) <= 3)
    coefs = st.fractions(-5, 5, max_denominator=7).filter(bool)
    return Poly(AFFINE_VARS, draw(st.dictionaries(exps, coefs, min_size=1, max_size=6)))


@settings(max_examples=40, deadline=None)
@given(P=cubic_polys(), triple=st.sampled_from(TRIPLES[:2]),
       z0=st.sampled_from([0.3 + 0.2j, 0.45 - 0.1j]), n=st.integers(0, 5))
def test_flow_entry_equals_the_iterated_derivation(P, triple, z0, n):
    (re, im, majorant), slopes, den = _entry(P, triple, z0, n)
    value, ref_slopes, remainder = reference_generic_entry(
        P, triple, mult._generator_values(triple, z0), n
    )
    assert (Fraction(re, den), Fraction(im, den)) == value
    assert [(Fraction(a, den), Fraction(b, den)) for a, b in slopes] == ref_slopes
    # the second-order term is never below that of the iterated route
    d = P.total_degree() + n
    assert d * d * majorant / den >= remainder
    order = _reference_order(P, triple, z0, 6)
    if order is None:
        with pytest.raises(ThresholdAmbiguous):
            mult.ord_at_generic(P, triple, z0, N=6)
    else:
        assert mult.ord_at_generic(P, triple, z0, N=6).ord == order


def test_generic_orders_are_natural_numbers():
    rng = random.Random(9)
    for _ in range(4):
        poly = Poly.zero(AFFINE_VARS)
        for _ in range(3):
            exps = tuple(rng.randint(0, 1) for _ in range(5))
            poly = poly + Poly(AFFINE_VARS, {exps: Fraction(rng.randint(1, 5))})
        rep = mult.ord_at_generic(poly, P134, 0.35 + 0.1j)
        assert isinstance(rep.ord, int) and rep.ord >= 0


def test_generic_tiny_constant_has_order_zero():
    # no absolute floor: a nonzero constant does not vanish, however small
    tiny = Poly.const(AFFINE_VARS, Fraction(1, 10 ** 40))
    assert mult.ord_at_generic(tiny, P134, 0.3).ord == 0


@pytest.mark.parametrize("c", [Fraction(1, 10 ** 13), Fraction(1, 10 ** 40), Fraction(10 ** 40),
                               Fraction(10 ** 400), Fraction(1, 10 ** 400)])
@pytest.mark.parametrize("poly, at_root, order", [
    ("y0 y1 - y2 + tau q", False, 0),
    # (tau - 1/2)^2 (y0 + 2), expanded
    ("tau^2 y0 - tau y0 + 2 * tau^2 + 1/4 * y0 - 2 * tau + 1/2", True, 2),
])
def test_generic_order_is_scale_free(c, poly, at_root, order):
    # a constant factor neither overflows the float conversions nor moves the order
    z0 = _tau_root(mp.mpf(1) / 2, 0.22) if at_root else 0.3 + 0.2j
    P = text(poly)
    assert mult.ord_at_generic(P, P134, z0).ord == order
    assert mult.ord_at_generic(c * P, P134, z0).ord == order


def test_generic_rejects_bad_points():
    with pytest.raises(ValueError):
        mult.ord_at_generic(text("y0"), P134, 1.02)
    with pytest.raises(ValueError):
        mult.ord_at_generic(text("y0"), P134, 1e-9)
    with pytest.raises(ValueError):
        mult.ord_at_generic(text("y0"), P134, 0.3, N=0)
    from triring.errors import CutLineViolation

    with pytest.raises(CutLineViolation):
        mult.ord_at_generic(text("y0"), P134, -0.4)


# -- hypersurface distance ------------------------------------------------------


def X(name):
    return Poly.var(HOMOG_VARS, name)


def test_log_dist_values():
    d = derived_constants(P134)
    # U = X0: ord(1) = 0, constant coefficients, degree-1 correction by
    # the most negative coordinate order gamma - 1
    assert mult.log_dist_hypersurface(X("X0"), P134) == d.w
    assert mult.log_dist_hypersurface(X("X2") - X("X3"), P134) == 0
    value = mult.log_dist_hypersurface(ideals.ramanujan_l(), P134)
    assert value == 2


def test_log_dist_corrects_each_degree_by_w():
    # log_dist_hypersurface adds w = 1 - gamma per X-degree of U: the least
    # order at 0 of 1, q, y0, y1 and y2 is that of the y_i, gamma - 1
    U = X("X0") * X("X2") - Poly.var(HOMOG_VARS, "t") * X("X3") ** 2
    for p in ROW_TRIPLES:
        w = derived_constants(p).w
        for N in (0, 4, 16):
            gens = mult.generator_series(p, N)
            assert [gens[v].ord() for v in ("q", "y0", "y1", "y2")] == [0, -w, -w, -w]
        # U has least t-degree 0 and X-degree 2
        value = mult.ord_at_zero(dehomogenize(U), p).ord
        assert mult.log_dist_hypersurface(U, p) == value + 2 * w


def test_log_dist_nonnegative_multiples_of_inverse_ram():
    d = derived_constants(P134)
    rng = random.Random(13)
    samples = [
        X("X0"),
        X("X1"),
        X("X2") - X("X3"),
        X("X2") * X("X3"),
        X("X0") * X("X4") - X("X2") * X("X3"),
        ideals.ramanujan_l(),
        Poly.var(HOMOG_VARS, "t") * X("X0") ** 2 + X("X1") * X("X2"),
    ]
    for U in samples:
        value = mult.log_dist_hypersurface(U, P134)
        assert value >= 0
        assert (Fraction(value) * d.ram).denominator == 1


def test_log_dist_homogenized_difference():
    # homogenization of y0 - y2: ord gamma, coefficient order 0,
    # degree-1 correction gamma - 1  ->  gamma - (gamma - 1) = 1
    U = X("X2") - X("X4")
    assert mult.log_dist_hypersurface(U, P134) == P134.gamma - (P134.gamma - 1)


def test_log_dist_rejects_inhomogeneous():
    from triring.errors import NotHomogeneous

    with pytest.raises(NotHomogeneous):
        mult.log_dist_hypersurface(X("X0") + X("X1") ** 2, P134)


# -- the audit -------------------------------------------------------------------


def test_profile_bound_values():
    assert mult.profile_bound((0, 1, 1, 1, 1)) == (1, 2, 16)
    assert mult.profile_bound((2, 2, 2, 2, 2)) == (3, 4, 768)


def test_the_bound_is_exceeded_at_profile_0_0_1_1_1():
    # profile_bound reads the bound as M1 M2^4 with no constant; on the box
    # (0,0,1,1,1) that is 1, and these three combinations vanish deeper
    assert mult.profile_bound((0, 0, 1, 1, 1)) == (1, 1, 1)
    witnesses = [
        (P863, "5*y0 + 2*y1 + 5*y2", Fraction(4, 3)),
        (P134, "4*y0*y1 - 4*y1*y2 - 3", 2),
        (TRIPLES[1], "3901*y0*y1 - 567*y0*y2 - 4090*y1*y2 - 3000", 2),
    ]
    for p, poly, order in witnesses:
        assert mult.ord_at_zero(text(poly), p).ord == order > 1


def test_audit_constant_profile():
    audit = mult.bound_audit((0, 0, 0, 0, 0), P134, samples=5, seed=1)
    assert audit.max_ord == 0
    assert audit.skipped == 0


def test_audit_small_profile():
    audit = mult.bound_audit((0, 1, 1, 1, 1), P134, samples=30, seed=7)
    assert audit.m1 == 1 and audit.m2 == 2 and audit.bound == 16
    assert audit.skipped == 0
    assert audit.all_within_bound
    assert all(o <= 16 for o in audit.ords)


def test_audit_deterministic_for_fixed_seed():
    a1 = mult.bound_audit((0, 1, 1, 0, 1), P134, samples=10, seed=42)
    a2 = mult.bound_audit((0, 1, 1, 0, 1), P134, samples=10, seed=42)
    assert a1.as_dict() == a2.as_dict()
    a3 = mult.bound_audit((0, 1, 1, 0, 1), P134, samples=10, seed=43)
    assert a3.as_dict() != a1.as_dict()


@pytest.mark.parametrize("kwargs", [{"samples": -1}, {"N": -2}])
def test_audit_rejects_negative_arguments_before_building(kwargs):
    mult._box_columns.cache_clear()
    with pytest.raises(ValueError):
        mult.bound_audit((1, 1, 0, 0, 0), P134, **kwargs)
    assert mult._box_columns.cache_info().currsize == 0


def test_audit_builds_each_box_once(monkeypatch):
    builds = []
    build = mult._monomial_rows

    def counting(params, monomials, N):
        monomials = tuple(monomials)
        builds.append((params, monomials, N))
        return build(params, monomials, N)

    monkeypatch.setattr(mult, "_monomial_rows", counting)
    mult._box_columns.cache_clear()
    # with no sample pending no box is built
    empty = mult.bound_audit((1, 1, 1, 0, 1), P134, samples=0, N=4)
    assert (empty.order_used, empty.ords, empty.max_ord) == (4, [], None)
    assert builds == [] and mult._box_columns.cache_info().currsize == 0
    a1 = mult.bound_audit((1, 1, 1, 0, 1), P134, samples=6, N=4, seed=1)
    a2 = mult.bound_audit((1, 1, 1, 0, 1), P134, samples=6, N=4, seed=2)
    assert a1.ords != a2.ords
    # one build, of the whole box in itertools.product order
    box = tuple(itertools.product(range(2), range(2), range(2), range(1), range(2)))
    assert builds == [(P134, box, 4)]
    assert mult._box_columns.cache_info().hits == 1


# the profiles of the benchmark's audit workload
BENCH_PROFILES = [(1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 2), (1, 2, 1, 2, 1),
                  (1, 1, 2, 1, 2), (1, 1, 2, 2, 2), (2, 2, 2, 2, 2)]


@pytest.mark.parametrize("p", TRIPLES)
def test_audit_reports_from_a_warm_cache_equal_fresh_ones(p):
    seeds = (3, 17, 101)
    for profile in BENCH_PROFILES:
        fresh = []
        for seed in seeds:
            mult._box_columns.cache_clear()
            fresh.append(mult.bound_audit(profile, p, samples=5, N=4, seed=seed).as_dict())
        hits = mult._box_columns.cache_info().hits
        warm = [mult.bound_audit(profile, p, samples=5, N=4, seed=seed).as_dict()
                for seed in seeds]
        assert mult._box_columns.cache_info().hits >= hits + len(seeds)
        assert warm == fresh


ROW_TRIPLES = [
    P134,  # ram 2
    validate(Fraction(1, 8), Fraction(1, 6), Fraction(1, 3)),  # ram 3
    validate(Fraction(1, 11), Fraction(1, 9), Fraction(1, 4)),  # ram 4
]


@pytest.mark.parametrize("p", ROW_TRIPLES)
@pytest.mark.parametrize("N", [0, 4, 16])
@pytest.mark.parametrize("profile", [(1, 1, 1, 1, 1), (2, 2, 2, 2, 2), (0, 3, 0, 1, 2)])
def test_monomial_rows_equal_the_series_products(p, N, profile):
    box = list(itertools.product(*(range(d + 1) for d in profile)))
    rows = [(s.ram, s.prec, s.den, s.nums) for s in mult._monomial_rows(p, box, N)]
    assert rows == reference_rows(p, box, N)


@pytest.mark.parametrize("p", ROW_TRIPLES)
def test_monomial_rows_of_an_expanded_power(p):
    pow9 = POW9.terms
    for N in (0, 4, 16):
        rows = [(s.ram, s.prec, s.den, s.nums) for s in mult._monomial_rows(p, pow9, N)]
        assert rows == reference_rows(p, pow9, N)


def _series_prec_and_least_step(s, ram):
    """``prec`` and the least stored step of the series ``s`` on the grid ``ram``, as integers."""
    prec = s.prec * ram
    assert prec.denominator == 1
    return int(prec), min(s.with_ram(ram).nums)


BOX_PROFILES = [(1, 1, 1, 1, 1), (2, 2, 2, 2, 2), (0, 3, 0, 1, 2)]


@pytest.mark.parametrize("p", ROW_TRIPLES)
@pytest.mark.parametrize("N", [0, 4, 16])
@pytest.mark.parametrize("which", [*BOX_PROFILES, "pow9"])
def test_product_nodes_know_the_prec_and_least_step_of_their_series(p, N, which):
    # the search reads each node's prec and least step before any product:
    # a wrong one would move truncation or skip a step
    if which == "pow9":
        monomials = list(POW9.terms)
    else:
        monomials = list(itertools.product(*(range(d + 1) for d in which)))
    ram = p.gamma.denominator
    rows, _ = mult._product_graph(p, monomials, N)
    for s, row in zip(mult._monomial_rows(p, monomials, N), rows, strict=True):
        assert (row.prec, row.lo) == _series_prec_and_least_step(s, ram)
    # every node of the walk, beside the series product it stands for
    gens = mult.generator_series(p, N)
    pairs = []

    def product(left, right):
        pairs.append((left[0] * right[0], mult._Node(left[1], right[1])))
        return pairs[-1]

    leaves = [(gens[v], mult._Node.leaf(gens[v], ram)) for v in AFFINE_VARS]
    mult._walk_monomials(monomials, leaves, product, None)
    assert pairs
    for s, node in pairs:
        assert (node.prec, node.lo) == _series_prec_and_least_step(s, ram)
        assert node.known == node.lo and not node.coef
    for s, node in pairs:
        if node.known < node.prec:
            node.extend(node.prec)
        coefficients = {node.lo + n: Fraction(c, node.den) for n, c in enumerate(node.coef) if c}
        assert coefficients == {k: Fraction(c, s.den) for k, c in s.with_ram(ram).nums.items()}


@pytest.mark.parametrize("p", unit_fraction_triples(12))
def test_every_series_at_zero_lies_on_the_grid_of_gamma(p):
    # the search puts every step and prec at 0 on the grid (1/c)Z, c the
    # denominator of gamma, at every order, and never refines it
    c = p.gamma.denominator
    assert mult._grid(p) == c
    for N in (0, 1, 2, 5, 8):
        for s in mult._leaf_series(p, N):
            assert c % s.ram == 0 and c % s.prec.denominator == 0, (N, s.ram, s.prec)


@pytest.mark.parametrize("p", ROW_TRIPLES)
def test_a_grown_graph_holds_the_series_of_the_higher_order(p):
    # the rows computed in part at order 4 are put at order 8; each must
    # then hold its series product at order 8 exactly
    ram = p.gamma.denominator
    rows, nodes = mult._product_graph(p, POW9.terms, 4)
    for i, row in enumerate(rows):
        row.extend(row.prec if i % 2 else (row.lo + row.prec) // 2)
    mult._grow(nodes, p, 8)
    for s, row in zip(mult._monomial_rows(p, POW9.terms, 8), rows, strict=True):
        assert (row.prec, row.lo) == _series_prec_and_least_step(s, ram)
        row.extend(row.prec)
        coefficients = {row.lo + n: Fraction(c, row.den) for n, c in enumerate(row.coef) if c}
        assert coefficients == {k: Fraction(c, s.den) for k, c in s.with_ram(ram).nums.items()}


def _deep_products():
    """The ``orders`` workload's products at 0, expanded; each cancels past its rows' least step."""
    d02 = text("y0 - y2")
    gens = [text(v) for v in AFFINE_VARS]
    return (
        [d02 ** k * g for k in range(1, 10) for g in gens]
        + [ideals.kappa() * d02 ** 2]
        + [text("tau^3") * d02 ** 4 * g for g in gens]
        + [text("q^2 y0 - q^2 y1") * text("y1 - y2") ** 2 * text(y) for y in ("y0", "y1", "y2")]
    )


@settings(max_examples=60, deadline=None)
@given(P=st.sampled_from(_deep_products()), p=st.sampled_from(ROW_TRIPLES), N=st.integers(0, 8))
@example(P=POW9, p=P134, N=1)  # still inconclusive at N = 8
@example(P=POW9, p=ROW_TRIPLES[2], N=8)  # decided after one doubling
@example(P=POW9, p=ROW_TRIPLES[1], N=3)  # decided after two
def test_ord_at_zero_matches_the_series_sum_through_deep_cancellation(P, p, N):
    reference = reference_order(P, p, N, mult.MAX_DOUBLINGS)
    if reference is None:
        with pytest.raises(TruncationExhausted):
            mult.ord_at_zero(P, p, N)
    else:
        report = mult.ord_at_zero(P, p, N)
        assert (report.ord, report.truncation) == reference


def test_the_search_stops_at_the_step_that_decides(monkeypatch):
    # the order of q^2 (y0 - y1)(y1 - y2)^2 y0 is its rows' least step, so
    # the search reads one step, and no node may hold a coefficient past
    # what that step needs of it
    graphs = []
    build = mult._product_graph

    def keeping(*args):
        graphs.append(build(*args))
        return graphs[-1]

    monkeypatch.setattr(mult, "_product_graph", keeping)
    P = text("q^2 y0 - q^2 y1") * text("y1 - y2") ** 2 * text("y0")
    report = mult.ord_at_zero(P, P134, N=48)
    ((rows, _),) = graphs
    ram = P134.gamma.denominator
    step = report.ord * ram
    assert step == min(row.lo for row in rows) == 4 * (P134.gamma - 1) * ram
    needs = {}

    def need(node, stop):  # the steps below stop of node, and what they read
        if node.a is not None and stop > node.lo:
            needs[node] = max(needs.get(node, stop), stop)
            need(node.a, stop - node.b.lo)
            need(node.b, stop - node.a.lo)

    for row in rows:
        need(row, int(step) + 1)
    seen, todo = set(), list(rows)
    while todo:
        node = todo.pop()
        if node.a is None or node in seen:
            continue
        seen.add(node)
        todo += [node.a, node.b]
        assert node.known == node.lo + len(node.coef) == needs.get(node, node.lo)
    assert needs and seen >= set(needs)


def test_cached_box_columns_are_immutable():
    columns = mult._box_columns(P134, (1, 1, 1, 1, 1), 4)
    assert isinstance(columns, tuple) and columns
    for k, column in columns:
        assert isinstance(column, tuple) and len(column) == 32
        assert all(type(c) is int for c in column)


@pytest.mark.parametrize("p", ROW_TRIPLES)
@pytest.mark.parametrize("N", [0, 4, 16])
@pytest.mark.parametrize("profile", BOX_PROFILES)
def test_cached_box_columns_are_primitive_multiples_of_the_exact_coefficients(p, N, profile):
    # a positive multiple per column keeps every dot product's zero test;
    # the gcd check pins the smallest such column
    box = list(itertools.product(*(range(d + 1) for d in profile)))
    reference = reference_rows(p, box, N)
    limit = min(prec for _, prec, _, _ in reference)
    exact = {}  # exponent: {row: exact coefficient}
    for row, (ram, _, scale, coeffs) in enumerate(reference):
        for k, c in coeffs.items():
            if Fraction(k, ram) < limit:
                exact.setdefault(Fraction(k, ram), {})[row] = Fraction(c, scale)
    ram, columns = p.gamma.denominator, mult._box_columns(p, profile, N)
    assert [Fraction(k, ram) for k, _ in columns] == sorted(exact)
    for k, column in columns:
        assert math.gcd(*column) == 1
        want = exact[Fraction(k, ram)]
        row = next(iter(want))
        factor = column[row] / want[row]
        assert factor > 0
        assert list(column) == [factor * want.get(i, 0) for i in range(len(box))]
