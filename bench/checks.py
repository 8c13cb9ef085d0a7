"""Independent checks of every job's output.

Each ``check_<kind>`` returns a list of problems; an empty list means
the output is right.  The expected values come from closed forms in
alpha, beta, gamma, from the leading-term table, from mpmath (a test
oracle, never used by the program) and from the benchmark's own
polynomial arithmetic in :mod:`algebra`; none is a stored copy of an
earlier output.  The checks run outside the timed region.
"""

import json
import math
import random
from fractions import Fraction

import mpmath as mp

import algebra
from workloads import (
    ROOT_VARS,
    STABLE_NAMES,
    certify_polys,
    expand_factors,
    linear_poly,
    triple_values,
)

# -- closed forms ----------------------------------------------------------------------


def factor_orders(gamma):
    """Order at z = 0 of each factor (z coordinate)."""
    y = gamma - 1
    return {
        "tau": 1 - gamma,
        "q": Fraction(0),
        "y0": y,
        "y1": y,
        "y2": y,
        # y0 - y1 = u0^2/z, y0 - y2 = u0^2/(z-1), y1 - y2 = u0^2/(z(z-1))
        "d01": gamma - 1,
        "d02": gamma,
        "d12": gamma - 1,
        # q (y0-y1)(y0-y2)(y1-y2) with q a unit at 0
        "kappa": 3 * gamma - 2,
    }


def eta_closed_form(alpha, beta, gamma):
    """eta = (a+b)(a+c)(b+c)(ab+bc+ca), each factor written in alpha, beta, gamma."""
    al, be, ga = alpha, beta, gamma
    a_plus_b = (1 - al + be) * (1 + al - be)
    a_plus_c = ga * (2 - ga)
    b_plus_c = (1 - al - be + ga) * (1 + al + be - ga)
    pairs = 2 * (
        ga - ga ** 2 - al ** 2 * ga + al * ga ** 2 - be ** 2 * ga + be * ga ** 2
        + 2 * al ** 2 * be * ga + 2 * al * be ** 2 * ga - 2 * al * be * ga ** 2
        - 2 * al ** 2 * be ** 2
    )
    return a_plus_b * a_plus_c * b_plus_c * pairs


#: the adjoined symbols of the expansions at 1 and at infinity
SYMBOLS = {"one": ("theta", "theta1"), "inf": ("zw", "zw1")}


def leading_terms(point, alpha, beta, gamma):
    """Criterion-6 leading (exponent, coefficient) of each expanded series.

    At 1 and at infinity the coefficient shown multiplies the square of
    the point's first symbol (theta, zw).
    """
    al, be, ga = alpha, beta, gamma
    if point == "zero":
        return {
            "u0sq": (ga, Fraction(1)),
            "y0": (ga - 1, ga / 2),
            "y1": (ga - 1, (ga - 2) / 2),
            "y2": (ga - 1, ga / 2),
            "tau": (1 - ga, Fraction(1)),
            "q": (Fraction(0), Fraction(1)),
        }
    if point == "one":
        e = al + be - ga
        return {
            "u0sq": (1 + e, Fraction(1)),
            "y0": (e, -(1 + e) / 2),
            "y1": (e, -(1 + e) / 2),
            "y2": (e, -(e - 1) / 2),
        }
    e = al - be
    return {
        "u0sq": (e - 1, Fraction(1)),
        "y0": (e, (e - 1) / 2),
        "y1": (e, (e + 1) / 2),
        "y2": (e, (e + 1) / 2),
    }


def generator_values(triple, z):
    """tau, q, y0, y1, y2, u0sq at z from the 2F1 closed forms, by mpmath."""
    al, be, ga = (mp.mpf(v.numerator) / v.denominator for v in triple_values(triple))
    z = mp.mpc(z)
    s = (al + be - ga + 1) / 2
    pref = mp.power(z, ga / 2) * mp.power(1 - z, s)
    F = mp.hyp2f1(al, be, ga, z)
    dF = al * be / ga * mp.hyp2f1(al + 1, be + 1, ga + 1, z)
    u0 = pref * F
    du0 = u0 * (ga / (2 * z) - s / (1 - z)) + pref * dF
    u1 = mp.power(z, 1 - ga / 2) * mp.power(1 - z, s) * mp.hyp2f1(
        al - ga + 1, be - ga + 1, 2 - ga, z
    )
    y0 = u0 * du0
    tau = u1 / u0
    return {
        "u0sq": u0 * u0,
        "y0": y0,
        "y1": y0 - u0 * u0 / z,
        "y2": y0 - u0 * u0 / (z - 1),
        "tau": tau,
        "q": mp.exp(tau),
    }


# -- audit -------------------------------------------------------------------------------


def check_audit(job, result):
    problems = []
    profile = job["profile"]
    dt, dq, dy0, dy1, dy2 = profile
    m1 = min(dt, dq) + 1
    m2 = max(dt, dq) + max(dy0, dy1, dy2)
    bound = m1 * m2 ** 4
    if (result.m1, result.m2, result.bound) != (m1, m2, bound):
        problems.append(f"M1, M2, bound {result.m1, result.m2, result.bound} != {m1, m2, bound}")
    if result.skipped != 0:
        problems.append(f"{result.skipped} samples skipped")
    if len(result.ords) != job["samples"] or result.samples != job["samples"]:
        problems.append(f"{len(result.ords)} orders for {job['samples']} samples")
    _, _, gamma = triple_values(job["triple"])
    ram = math.lcm(*job["triple"])
    lowest = (dy0 + dy1 + dy2) * (gamma - 1)
    for o in result.ords:
        o = Fraction(o)
        if (o * ram).denominator != 1:
            problems.append(f"order {o} is not in (1/{ram})Z")
        if not lowest <= o <= bound:
            problems.append(f"order {o} outside [{lowest}, {bound}]")
    if result.ords:
        top = max(Fraction(o) for o in result.ords)
        if result.max_ord != top:
            problems.append(f"max_ord {result.max_ord} != {top}")
        if result.ratio != top / bound:
            problems.append(f"ratio {result.ratio} != {top / bound}")
    if result.all_within_bound != all(Fraction(o) <= bound for o in result.ords):
        problems.append("all_within_bound disagrees with the orders")
    return problems


# -- expand ------------------------------------------------------------------------------

POINT_NAMES = {"0": "zero", "1": "one", "inf": "inf"}
#: local variable value at which each series is evaluated
EVAL_X = 0.1
EVAL_TOL = 1e-9


def _json_coefficient(value):
    if isinstance(value, str):
        return Fraction(value)
    return {
        "vars": tuple(value["vars"]),
        "terms": {tuple(t["exps"]): Fraction(t["coef"]) for t in value["terms"]},
    }


def _numeric(coef, bindings):
    if isinstance(coef, Fraction):
        return float(coef)
    total = 0j
    for exps, c in coef["terms"].items():
        term = complex(c)
        for name, e in zip(coef["vars"], exps):
            term *= bindings[name] ** e
        total += term
    return total


def evaluate_series_json(obj, x, bindings):
    """Sum of the serialized series at a real local variable x > 0."""
    ram = obj["ram"]
    base_k = Fraction(obj["base_exponent"]) * ram
    total = 0j
    for item in obj["coeffs"]:
        exponent = (base_k + item["k"]) / ram
        total += _numeric(_json_coefficient(item["value"]), bindings) * x ** float(exponent)
    return total


def check_expand(job, result, connection_bindings):
    code, text = result
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    point = POINT_NAMES[job["point"]]
    alpha, beta, gamma = triple_values(job["triple"])
    label = ",".join(str(v) for v in (alpha, beta, gamma))
    if payload.get("params") != label or payload.get("point") != point:
        problems.append(f"header {payload.get('params')}/{payload.get('point')}")
    if payload.get("order") != job["order"]:
        problems.append(f"order {payload.get('order')} != {job['order']}")
    series = payload.get("series", {})
    expected = leading_terms(point, alpha, beta, gamma)
    if set(series) != set(expected):
        return problems + [f"series {sorted(series)} != {sorted(expected)}"]
    for name, (exponent, coef) in expected.items():
        obj = series[name]
        if Fraction(obj["base_exponent"]) != exponent:
            problems.append(f"{name}: leading exponent {obj['base_exponent']} != {exponent}")
        first = obj["coeffs"][0] if obj["coeffs"] else None
        if first is None or first["k"] != 0:
            problems.append(f"{name}: no coefficient at the leading exponent")
            continue
        got = _json_coefficient(first["value"])
        want = coef if point == "zero" else {"vars": SYMBOLS[point], "terms": {(2, 0): coef}}
        if got != want:
            problems.append(f"{name}: leading coefficient {got} != {want}")
    # values against the closed forms at one point of the local variable
    x = EVAL_X
    z = {"zero": x, "one": 1 - x, "inf": -1 / x}[point]
    exact = generator_values(job["triple"], z)
    for name, obj in series.items():
        got = evaluate_series_json(obj, x, connection_bindings)
        want = complex(exact[name])
        if abs(got - want) > EVAL_TOL * max(1, abs(want)):
            problems.append(f"{name}({z:.6g}) = {got:.12g}, closed form {want:.12g}")
    return problems


# -- orders ------------------------------------------------------------------------------

#: |P(z0)| must exceed this share of the sum of its terms' sizes
GENERIC_MARGIN = 1e-6


def evaluate_product(factors, values):
    """P at a point, from its expanded terms, and the sum of the terms' sizes."""
    total = mp.mpc(0)
    size = mp.mpf(0)
    for exps, c in expand_factors(factors).items():
        term = mp.mpf(c.numerator) / c.denominator
        for name, e in zip(algebra.VARS, exps):
            term *= values[name] ** e
        total += term
        size += abs(term)
    return total, size


def check_orders(job, result):
    problems = []
    _, _, gamma = triple_values(job["triple"])
    if not result.conclusive:
        problems.append("inconclusive")
    if job["kind"] == "exact":
        table = factor_orders(gamma)
        want = sum((e * table[name] for name, e in job["factors"]), Fraction(0))
        if result.ord != want:
            problems.append(f"ord {result.ord} != sum of factor orders {want}")
        return problems
    value, size = evaluate_product(job["factors"], generator_values(job["triple"], job["z0"]))
    if abs(value) <= GENERIC_MARGIN * size:
        problems.append(f"P(z0) = {mp.nstr(value, 6)} is not bounded away from 0")
    if result.ord != 0:
        problems.append(f"generic ord {result.ord} != 0")
    return problems


# -- certify -----------------------------------------------------------------------------


def _terms(poly):
    if tuple(poly.vars) != algebra.VARS:
        raise ValueError(f"unexpected variables {poly.vars}")
    return dict(poly.terms)


def _combine(cofactors, gens):
    out = {}
    for c, g in zip(cofactors, gens):
        out = algebra.add(out, algebra.mul(_terms(c), g))
    return out


def stable_cofactor(exponents, w):
    """F with D(P) = F P for P = q^e0 (y0-y1)^e1 (y0-y2)^e2 (y1-y2)^e3."""
    e0, e01, e02, e12 = exponents
    F = algebra.const(e0 * w)
    for name, k in (("y0", e01 + e02), ("y1", e01 + e12), ("y2", e02 + e12)):
        F = algebra.add(F, algebra.scale(algebra.var(name), k))
    return F


def _stable_exponents_of(factors):
    exps = dict.fromkeys(STABLE_NAMES, 0)
    for name, e in factors:
        exps[name] += e
    return tuple(exps[n] for n in STABLE_NAMES)


def check_certify(job, result):
    problems = []
    case_one, principal, stability, member, (R, A, B) = result
    alpha, beta, gamma = triple_values(job["triple"])
    w = 1 - gamma
    eta = eta_closed_form(alpha, beta, gamma)
    # case one: Res_y1(H, K) = -(1/256) eta y2^6 and Res_y2(H, K) = -(1/256) eta y1^6
    if not all(case_one.checks.values()):
        problems.append(f"case-one checks {case_one.checks}")
    if case_one.eta_value != eta:
        problems.append(f"eta {case_one.eta_value} != closed form {eta}")
    if _terms(case_one.R1) != {(0, 0, 0, 0, 6): -eta / 256}:
        problems.append(f"R1 = {case_one.R1} != -(1/256) eta y2^6")
    if _terms(case_one.R2) != {(0, 0, 0, 6, 0): -eta / 256}:
        problems.append(f"R2 = {case_one.R2} != -(1/256) eta y1^6")
    # principal stability: D(P) = (e0 w + sum e_ij (y_i + y_j)) P
    if principal.verdict != "stable":
        problems.append(f"principal verdict {principal.verdict}")
    elif _terms(principal.cofactors[0][0]) != stable_cofactor(job["principal"], w):
        problems.append(f"principal cofactor {principal.cofactors[0][0]}")
    # the ideal's stability cofactors re-expand to D(g_i) = F_i g_i
    _, gens, combination, _, _ = certify_polys(job)
    if stability.verdict != "stable":
        problems.append(f"ideal verdict {stability.verdict}")
    else:
        for i, g in enumerate(job["ideal"]):
            want = algebra.mul(stable_cofactor(_stable_exponents_of(g), w), gens[i])
            if _combine(stability.cofactors[i], gens) != want:
                problems.append(f"stability cofactors of generator {i} do not re-expand")
    # membership cofactors re-expand to the combination
    if not member.member:
        problems.append("combination not found in the ideal")
    elif _combine(member.cofactors, gens) != combination:
        problems.append("membership cofactors do not re-expand")
    # Poisson form: Res_y1(prod (y1 - a_i), prod (y1 - b_j)) = prod (a_i - b_j),
    # and A P + B Q = R; both identities are tested at two random integer
    # points with 40-bit coordinates, where a nonzero polynomial of this
    # degree vanishes with probability below 1e-10
    roots_p = [linear_poly(r, ROOT_VARS) for r in job["roots_p"]]
    roots_q = [linear_poly(r, ROOT_VARS) for r in job["roots_q"]]
    rng = random.Random(repr((job["roots_p"], job["roots_q"])))
    R_t, A_t, B_t = _terms(R), _terms(A), _terms(B)
    for _ in range(2):
        x = tuple(rng.randrange(-2 ** 40, 2 ** 40) for _ in algebra.VARS)
        y1 = x[algebra.VARS.index("y1")]
        a = [algebra.evaluate(r, x) for r in roots_p]
        b = [algebra.evaluate(r, x) for r in roots_q]
        R_x = algebra.evaluate(R_t, x)
        if R_x != math.prod(ai - bj for ai in a for bj in b):
            problems.append(f"resultant differs from prod (a_i - b_j) at {x}")
        P_x = math.prod(y1 - ai for ai in a)
        Q_x = math.prod(y1 - bj for bj in b)
        if algebra.evaluate(A_t, x) * P_x + algebra.evaluate(B_t, x) * Q_x != R_x:
            problems.append(f"A P + B Q != R at {x}")
    if algebra.degree_in(A_t, "y1") >= len(roots_q) or algebra.degree_in(B_t, "y1") >= len(roots_p):
        problems.append("cofactor degrees in y1 too high")
    return problems


CHECKS = {
    "audit": check_audit,
    "exact": check_orders,
    "generic": check_orders,
    "certify": check_certify,
}
