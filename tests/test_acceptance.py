"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines.

Criterion 9 note: the criterion originally stated ord(y1 - y2) =
gamma - 2 and ord(kappa) = 3 gamma - 3 at 0.  Both treat 1/(z-1) as if
it had a pole at 0; it is a unit there.  Since y1 - y2 = u0^2/(z(z-1))
and ord(u0^2) = gamma, the correct orders are gamma - 1 and
3 gamma - 2, and test_c09_ord_computations_as_stated asserts those
(see the README).
"""

import random
import time
from fractions import Fraction

from triring import hypergeom as hg
from triring import ideals
from triring import multiplicity as mult
from triring import params as pm
from triring.derivation import apply_D, dehomogenize, quadratic_form, rankin_bracket
from triring.params import derived_constants, validate
from triring.ring import AFFINE_VARS, HOMOG_VARS, Poly, weight

from conftest import random_isobaric, random_valid_triples, series_sum

P134 = validate(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))
THREE_TRIPLES = [
    P134,
    validate(Fraction(1, 7), Fraction(1, 3), Fraction(1, 2)),
    validate(Fraction(1, 8), Fraction(1, 6), Fraction(1, 3)),
]


def g(name):
    return Poly.var(AFFINE_VARS, name)


class _Gate:
    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget = budget_s
        self.failures = []
        self.start = time.perf_counter()

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def finish(self):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if not self.failures else "FAIL"
        print(
            f"\n[{status}] criterion {self.number}: {self.title} "
            f"({elapsed:.2f}s / budget {self.budget}s)"
        )
        for msg in self.failures:
            print(f"       - {msg}")
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its {self.budget}s budget"
        )
        assert not self.failures, "; ".join(self.failures)


def test_c01_derivation_identities():
    gate = _Gate(1, "derivation identities on 10 random triples", 5)
    for p in random_valid_triples(10, seed=101):
        d = derived_constants(p)
        L = quadratic_form(p)
        gate.check(apply_D(g("tau"), p) == Poly.const(AFFINE_VARS, d.w), f"D tau != w at {p.label()}")
        gate.check(apply_D(g("q"), p) == d.w * g("q"), f"D q != w q at {p.label()}")
        for y in ("y0", "y1", "y2"):
            gate.check(
                apply_D(g(y), p) == g(y) ** 2 - L, f"D {y} != {y}^2 - L at {p.label()}"
            )
        for a, b in (("y0", "y1"), ("y0", "y2"), ("y1", "y2")):
            diff = g(a) - g(b)
            gate.check(
                apply_D(diff, p) == diff * (g(a) + g(b)),
                f"D({a}-{b}) factorization fails at {p.label()}",
            )
    gate.finish()


def test_c02_rankin_bracket_laws():
    gate = _Gate(2, "Rankin bracket laws on 200 random isobaric triples", 10)
    rng = random.Random(202)
    for i in range(200):
        wx = rng.randint(1, 3)
        X = random_isobaric(rng, wx)
        Y = random_isobaric(rng, wx)
        P = random_isobaric(rng, rng.randint(1, 3))
        br = rankin_bracket
        gate.check(br(X, P, P134) == -br(P, X, P134), f"antisymmetry #{i}")
        if X + Y:
            gate.check(
                br(X + Y, P, P134) == br(X, P, P134) + br(Y, P, P134),
                f"equal-weight additivity #{i}",
            )
        gate.check(
            br(X * Y, P, P134) == br(X, P, P134) * Y + X * br(Y, P, P134),
            f"derivation law #{i}",
        )
        out = br(X, P, P134)
        if out:
            gate.check(
                weight(out) == weight(X) + weight(P) + 1, f"weight law #{i}"
            )
    gate.finish()


def test_c03_stable_ideal_certificates():
    gate = _Gate(3, "stable-ideal certificates and universal element", 10)
    d = derived_constants(P134)
    expected_cofactors = {
        "q": Poly.const(AFFINE_VARS, d.w),
        "y0-y1": g("y0") + g("y1"),
        "y0-y2": g("y0") + g("y2"),
        "y1-y2": g("y1") + g("y2"),
    }
    kap = ideals.kappa()
    for name, gen in ideals.stable_principal_ideals().items():
        cert = ideals.principal_stability(gen, P134)
        gate.check(cert.verdict == "stable", f"({name}) not certified stable")
        gate.check(
            cert.cofactors[0][0] == expected_cofactors[name],
            f"({name}) cofactor differs",
        )
        gate.check(ideals.membership(kap, [gen]).member, f"kappa not in ({name})")
    gate.check(
        dehomogenize(ideals.ramanujan_l()) == -kap,
        "dehomogenized universal element is not -kappa",
    )
    expected_dk = (Poly.const(AFFINE_VARS, d.w) + 2 * (g("y0") + g("y1") + g("y2"))) * kap
    gate.check(apply_D(kap, P134) == expected_dk, "D(kappa) cofactor identity fails")
    gate.finish()


def test_c04_resultant_identity():
    gate = _Gate(4, "resultant identity on 10 random triples", 30)
    for p in random_valid_triples(10, seed=404):
        report = ideals.certify_case_one(p, raise_on_failure=False)
        for name, ok in report.checks.items():
            gate.check(ok, f"{name} fails at {p.label()}")
    # footnote value: ab + ac + bc at (1/2, 1/2, 1) is exactly 3/4
    al = be = Fraction(1, 2)
    ga = Fraction(1)
    a = ga * (1 - al - be) + 2 * al * be
    b = (al + be) * (ga - al - be) + 2 * al * be - ga + 1
    c = ga * (al + be - ga + 1) - 2 * al * be
    gate.check(a * b + a * c + b * c == Fraction(3, 4), "footnote value is not 3/4")
    gate.finish()


def test_c05_eta_positivity_scan():
    gate = _Gate(5, "eta > 0 for unit-fraction triples, denominators <= 30", 60)
    count, minimum, argmin = pm.eta_scan(max_denominator=30)
    gate.check(count > 100, f"scan covered only {count} triples")
    gate.check(
        minimum > 0,
        f"eta not positive: minimum {minimum} at {argmin.label() if argmin else '?'}",
    )
    print(f"       scanned {count} triples; min eta = {minimum} at ({argmin.label()})")
    gate.finish()


def test_c06_puiseux_leading_terms():
    gate = _Gate(6, "twelve leading terms at 0, 1, infinity for 3 triples", 20)
    N = 40
    th = Poly.var(hg.SYMBOLS_AT_ONE, "theta")
    zw = Poly.var(hg.SYMBOLS_AT_INF, "zw")
    for p in THREE_TRIPLES:
        al, be, ga = p.as_tuple()
        lbl = p.label()
        fam = hg.y_series("zero", p, N)
        checks0 = [
            (fam.u0sq.ord() == ga, f"u0^2 exponent at 0 ({lbl})"),
            (fam.u0sq.leading_coeff() == 1, f"u0^2 coefficient at 0 ({lbl})"),
            (fam.y0.ord() == ga - 1 and fam.y0.leading_coeff() == ga / 2,
             f"y0 leading term at 0 ({lbl})"),
            (fam.y1.ord() == ga - 1 and fam.y1.leading_coeff() == (ga - 2) / 2,
             f"y1 leading term at 0 ({lbl})"),
            (fam.y2.ord() == ga - 1 and fam.y2.leading_coeff() == ga / 2,
             f"y2 leading term at 0 ({lbl})"),
        ]
        fam1 = hg.y_series("one", p, N)
        shared = Fraction(-1, 2) * (1 + al + be - ga) * th ** 2
        checks1 = [
            (fam1.u0sq.ord() == 1 + al + be - ga and fam1.u0sq.leading_coeff() == th ** 2,
             f"u0^2 leading term at 1 ({lbl})"),
            (fam1.y0.ord() == al + be - ga and fam1.y0.leading_coeff() == shared,
             f"y0 leading term at 1 ({lbl})"),
            (fam1.y1.ord() == al + be - ga and fam1.y1.leading_coeff() == shared,
             f"y1 leading term at 1 ({lbl})"),
            (fam1.y2.ord() == al + be - ga
             and fam1.y2.leading_coeff() == Fraction(-1, 2) * (-1 + al + be - ga) * th ** 2,
             f"y2 leading term at 1 ({lbl})"),
        ]
        fami = hg.y_series("inf", p, N)
        checksi = [
            (fami.u0sq.ord() == -(1 - al + be) and fami.u0sq.leading_coeff() == zw ** 2,
             f"u0^2 leading term at infinity ({lbl})"),
            (fami.y0.ord() == al - be
             and fami.y0.leading_coeff() == Fraction(al - be - 1, 2) * zw ** 2,
             f"y0 leading term at infinity ({lbl})"),
            (fami.y1.ord() == al - be
             and fami.y1.leading_coeff() == Fraction(al - be + 1, 2) * zw ** 2,
             f"y1 leading term at infinity ({lbl})"),
            (fami.y2.ord() == al - be
             and fami.y2.leading_coeff() == Fraction(al - be + 1, 2) * zw ** 2,
             f"y2 leading term at infinity ({lbl})"),
        ]
        for ok, msg in checks0 + checks1 + checksi:
            gate.check(ok, msg)
    gate.finish()


def test_c07_analytic_algebraic_consistency():
    gate = _Gate(7, "formal Wronskian, ODE residual, derivation compatibility", 30)
    N = 40
    for p in THREE_TRIPLES[:2]:
        d = derived_constants(p)
        lbl = p.label()
        w = hg.wronskian_series(p, N)
        gate.check((w - d.w).is_zero_to_prec(), f"Wronskian not constant ({lbl})")
        gate.check(w.prec >= 30, f"Wronskian window too small ({lbl})")
        res = hg.ode_residual_series(hg.u_series("u0", p, N), p, N)
        gate.check(res.is_zero_to_prec(), f"normal-form residual of u0 ({lbl})")
        gens = mult.generator_series(p, N)
        u0sq = hg.y_series("zero", p, N).u0sq
        for name in AFFINE_VARS:
            lhs = u0sq * gens[name].differentiate()
            rhs = series_sum(apply_D(Poly.var(AFFINE_VARS, name), p), p, N)
            diff = lhs - rhs
            gate.check(
                diff.is_zero_to_prec() and diff.prec >= 20,
                f"derivation compatibility for {name} ({lbl})",
            )
    gate.finish()


def test_c08_numeric_connection_formulas():
    gate = _Gate(8, "numeric connection formulas and Wronskian", 5)
    rep = hg.numeric_checks(P134, samples=(0.1, 0.3, 0.5j), N=60)
    for z, dev in rep.wronskian_dev.items():
        gate.check(dev < 1e-9, f"Wronskian deviation {dev:.2e} at {z}")
    for z, resid in rep.connection_at_one.items():
        gate.check(resid < 1e-6, f"connection residual {resid:.2e} near 1 (z={z})")
    for z, resid in rep.connection_at_inf.items():
        gate.check(resid < 1e-6, f"connection residual {resid:.2e} at infinity (z={z})")
    gate.check(rep.omega_matches_statement, "statement-form omega does not match")
    gate.finish()


def test_c09_ord_computations_as_stated():
    """Orders at 0 of the generator differences, tau and kappa.

    The criterion originally stated ord(y1 - y2) = gamma - 2 and
    ord(kappa) = 3 gamma - 3.  Those values treat 1/(z-1) as if it had
    a pole at 0, and contradict the leading terms certified by
    criterion 6.  The test asserts the corrected values gamma - 1 and
    3 gamma - 2, derived beside each assertion.
    """
    gate = _Gate(9, "orders at 0 of generator differences, tau and kappa", 10)
    from triring.ring import poly_from_text

    for p in THREE_TRIPLES:
        ga = p.gamma
        lbl = p.label()
        stated = {
            "y0 - y1": ga - 1,
            "y0 - y2": ga,
            # y1 - y2 = (y0 - u0^2/z) - (y0 - u0^2/(z-1)) = u0^2/(z(z-1));
            # ord(u0^2) = gamma and 1/(z-1) is a unit at 0, so gamma - 1
            "y1 - y2": ga - 1,
            "tau": 1 - ga,
        }
        for s, expected in stated.items():
            got = mult.ord_at_zero(poly_from_text(s), p).ord
            gate.check(
                got == expected,
                f"ord({s}) = {got}, criterion states {expected} ({lbl})",
            )
        got_k = mult.ord_at_zero(ideals.kappa(), p).ord
        gate.check(
            # kappa = q u0^6/(z^2 (z-1)^2); ord(tau) = 1 - gamma > 0 makes
            # q = exp(tau) a unit; ord(u0^6) = 3 gamma, so 3 gamma - 2
            got_k == 3 * ga - 2,
            f"ord(kappa) = {got_k}, criterion states {3 * ga - 2} ({lbl})",
        )
    gate.finish()


def test_c09_log_dist_lattice_property():
    gate = _Gate(9, "-log Dist values are nonnegative multiples of 1/ram", 10)

    def X(name):
        return Poly.var(HOMOG_VARS, name)

    for p in THREE_TRIPLES:
        ram = derived_constants(p).ram
        samples = [
            X("X0"),
            X("X1"),
            X("X2") - X("X3"),
            X("X0") * X("X4") - X("X2") * X("X3"),
            ideals.ramanujan_l(),
            Poly.var(HOMOG_VARS, "t") * X("X0") ** 2 + X("X1") * X("X2"),
        ]
        for U in samples:
            value = mult.log_dist_hypersurface(U, p)
            gate.check(value >= 0, f"-log Dist < 0 for {U.to_text()} ({p.label()})")
            gate.check(
                (Fraction(value) * ram).denominator == 1,
                f"-log Dist not in (1/ram)Z for {U.to_text()} ({p.label()})",
            )
    gate.finish()


def test_c10_bound_audit():
    gate = _Gate(10, "degree-profile audit: 200 samples, degrees <= 2", 120)
    audit = mult.bound_audit((2, 2, 2, 2, 2), P134, samples=200, N=14, seed=1001)
    gate.check(audit.m1 == 3 and audit.m2 == 4 and audit.bound == 768,
               "M1/M2 recomputation mismatch")
    gate.check(audit.skipped == 0, f"{audit.skipped} samples stayed inconclusive")
    gate.check(audit.all_within_bound, "an order exceeded M1 * M2^4")
    print(
        f"       max ord {audit.max_ord}, ratio {audit.ratio}, "
        f"samples {audit.samples}, skipped {audit.skipped}"
    )
    gate.finish()
