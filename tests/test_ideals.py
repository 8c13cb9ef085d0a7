import random
from fractions import Fraction

import pytest
import sympy as sp

from triring import ideals
from triring.derivation import apply_D, dehomogenize, homog_D, rankin_bracket
from triring.errors import BasisBudgetExceeded, IdentityFailed
from triring.params import derived_constants, eta, unit_fraction_triples, validate
from triring.ring import AFFINE_VARS, Poly, weight

from conftest import random_isobaric, random_valid_triples

P134 = validate(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))


def g(name):
    return Poly.var(AFFINE_VARS, name)


def test_kappa_shape():
    kap = ideals.kappa()
    assert kap.total_degree() == 4
    assert weight(kap) == 3


def test_ramanujan_l_homogeneous_of_degree_five():
    l = ideals.ramanujan_l()
    from triring.derivation import is_x_homogeneous, x_degree

    assert is_x_homogeneous(l)
    assert x_degree(l) == 5


def test_l_dehomogenizes_to_minus_kappa():
    assert dehomogenize(ideals.ramanujan_l()) == -ideals.kappa()


def test_principal_stability_of_the_four_ideals():
    d = derived_constants(P134)
    expected = {
        "q": Poly.const(AFFINE_VARS, d.w),
        "y0-y1": g("y0") + g("y1"),
        "y0-y2": g("y0") + g("y2"),
        "y1-y2": g("y1") + g("y2"),
    }
    for name, gen in ideals.stable_principal_ideals().items():
        cert = ideals.principal_stability(gen, P134)
        assert cert.verdict == "stable"
        assert cert.cofactors[0][0] == expected[name]
        assert cert.affine_cofactor_form


def test_principal_instability_of_y0():
    cert = ideals.principal_stability(g("y0"), P134)
    assert cert.verdict == "unstable"
    idx, n, escaped = cert.witness
    assert n == 1
    assert escaped == apply_D(g("y0"), P134)


def _principal_cases():
    q, d01, d02, d12 = (g("q"), g("y0") - g("y1"), g("y0") - g("y2"), g("y1") - g("y2"))
    cases = dict(ideals.stable_principal_ideals())
    cases["q*(y0-y1)^2*(y1-y2)"] = q * d01 ** 2 * d12
    cases["q^2*(y0-y2)*(y1-y2)"] = q ** 2 * d02 * d12
    cases["y0"] = g("y0")
    cases["tau"] = g("tau")
    return cases


@pytest.mark.parametrize("name", list(_principal_cases()))
def test_principal_stability_agrees_with_certify_stability(name):
    P = _principal_cases()[name]
    principal = ideals.principal_stability(P, P134)
    general = ideals.certify_stability([P], P134)
    assert principal.verdict == general.verdict
    assert principal.verdict == ("unstable" if name in ("y0", "tau") else "stable")
    assert principal.cofactors == general.cofactors
    assert principal.witness == general.witness
    if principal:
        assert principal.cofactors[0][0] * P == apply_D(P, P134)
    else:
        assert principal.witness == (0, 1, apply_D(P, P134))


def test_principal_stability_counts_division_steps():
    P = g("q") * (g("y0") - g("y1"))
    with pytest.raises(BasisBudgetExceeded):
        ideals.principal_stability(P, P134, step_budget=0)
    assert ideals.principal_stability(P, P134, step_budget=100).verdict == "stable"


@pytest.mark.parametrize("gens", [
    [g("y0") - g("y1"), g("y0") - g("y2")],
    [g("y0"), g("y1"), g("y2")],
])
def test_certify_stability_builds_one_basis(gens, monkeypatch):
    calls = []
    real = ideals.groebner_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ideals, "groebner_basis", counting)
    cert = ideals.certify_stability(gens, P134)
    assert cert.verdict == "stable"
    assert len(calls) == 1
    for idx, gen in enumerate(gens):
        total = Poly.sum(AFFINE_VARS, [c * h for c, h in zip(cert.cofactors[idx], gens)])
        assert total == apply_D(gen, P134)


def test_membership_examples():
    kap = ideals.kappa()
    assert ideals.membership(kap, [g("q")]).member
    assert ideals.membership(
        g("y1") - g("y2"), [g("y0") - g("y1"), g("y0") - g("y2")]
    ).member
    assert not ideals.membership(g("y0"), [g("q")]).member


def test_membership_cofactors_recheck():
    gens = [g("y0") - g("y1"), g("y0") - g("y2")]
    target = g("y1") - g("y2")
    res = ideals.membership(target, gens)
    assert res.member
    total = Poly.zero(AFFINE_VARS)
    for c, gen in zip(res.cofactors, gens):
        total = total + c * gen
    assert total == target


def test_kappa_in_each_stable_ideal_and_l_in_lifts():
    kap = ideals.kappa()
    for gen in ideals.stable_principal_ideals().values():
        assert ideals.membership(kap, [gen]).member
    l = ideals.ramanujan_l()
    for gen in ideals.stable_principal_lifts().values():
        assert ideals.membership(l, [gen]).member


def test_degenerate_ideal_stable_and_contains_differences():
    gens = [g("y0"), g("y1"), g("y2")]
    cert = ideals.certify_stability(gens, P134)
    assert cert.verdict == "stable"
    assert ideals.membership(g("y0") - g("y1"), gens).member
    assert ideals.membership(g("y0") - g("y2"), gens).member


def test_bracket_closure_in_stable_ideal():
    # X in a D-stable ideal and P isobaric imply [X, P] stays inside
    rng = random.Random(17)
    gen = g("y0") - g("y1")
    for _ in range(10):
        mult = random_isobaric(rng, rng.randint(0, 2))
        X = gen * mult
        if not X:
            continue
        Pw = random_isobaric(rng, rng.randint(1, 2))
        br = rankin_bracket(X, Pw, P134)
        if br:
            assert ideals.membership(br, [gen]).member


def test_case_one_reference_triple():
    report = ideals.certify_case_one(P134)
    assert all(report.checks.values())
    d = derived_constants(P134)
    # expanded y1^3 coefficient of K: the displayed (1/8) a^2 y1^3 piece
    # plus the y1^3 parts of the c- and a-blocks
    k_y1_cubed = report.K.terms.get((0, 0, 0, 3, 0))
    expected = Fraction(1, 8) * (d.a ** 2 - 4 * d.c + d.a * (d.c - 4))
    assert k_y1_cubed == expected


def test_case_one_failure_raises_with_residual(monkeypatch):
    real = ideals.expected_case_one_cubic
    y1_cubed = g("y1") ** 3
    monkeypatch.setattr(ideals, "expected_case_one_cubic", lambda p: real(p) + y1_cubed)
    with pytest.raises(IdentityFailed) as info:
        ideals.certify_case_one(P134)
    assert "K_closed_form" in str(info.value)
    assert info.value.residual == -y1_cubed
    report = ideals.certify_case_one(P134, raise_on_failure=False)
    assert report.checks["K_closed_form"] is False
    assert report.checks["H_closed_form"] is True


@pytest.mark.parametrize("p", random_valid_triples(10, seed=77))
def test_case_one_random_triples(p):
    report = ideals.certify_case_one(p)
    assert all(report.checks.values())


@pytest.mark.parametrize("p", unit_fraction_triples(12), ids=lambda p: p.label())
def test_case_one_closed_forms_match_their_displayed_products(p):
    # the displayed forms in Poly arithmetic, the reference for the coefficient tables
    d = derived_constants(p)
    a, b, c = d.a, d.b, d.c
    y1, y2 = g("y1"), g("y2")
    displayed_H = Fraction(-1, 4) * (a * y1 ** 2 + b * y2 ** 2 + c * (y1 - y2) ** 2)
    displayed_K = Fraction(1, 8) * (
        a ** 2 * y1 ** 3
        + b * (b - 4) * y2 ** 3
        - c * (y1 - y2) ** 2 * (4 * y1 + (4 - b) * y2)
        + a * y1 * ((c - 4) * y1 ** 2 + (b - 2 * c) * y1 * y2 + (b + c) * y2 ** 2)
    )
    assert ideals.expected_case_one_cubic(p) == displayed_K
    report = ideals.certify_case_one(p)
    assert report.H == displayed_H
    assert report.R1 == Fraction(-1, 256) * eta(p) * y2 ** 6
    assert report.R2 == Fraction(-1, 256) * eta(p) * y1 ** 6


def test_case_one_against_sympy_oracle():
    p = validate(Fraction(1, 6), Fraction(1, 4), Fraction(1, 2))
    d = derived_constants(p)
    y1, y2 = sp.symbols("y1 y2")
    a, b, c = (sp.Rational(v) for v in (d.a, d.b, d.c))
    H = -sp.Rational(1, 4) * (a * y1 ** 2 + b * y2 ** 2 + c * (y1 - y2) ** 2)
    report = ideals.certify_case_one(p)

    def to_sympy(f):
        out = sp.Integer(0)
        for exps, coef in f.terms.items():
            out += sp.Rational(coef) * y1 ** exps[3] * y2 ** exps[4]
        return sp.expand(out)

    assert sp.expand(to_sympy(report.H) - H) == 0
    r1 = sp.resultant(sp.Poly(to_sympy(report.H), y1), sp.Poly(to_sympy(report.K), y1))
    assert sp.expand(r1.as_expr() - to_sympy(report.R1)) == 0


def test_budget_exceeded_raises():
    with pytest.raises(BasisBudgetExceeded):
        ideals.membership(g("y0") ** 3, [g("y0")], step_budget=0)


def test_homog_lifts_are_d_stable():
    for gen in ideals.stable_principal_lifts().values():
        image = homog_D(gen, P134)
        quo, rem = image.divmod_single(gen)
        assert not rem
