"""Command-line entry point.

Exit status: 0 on success, 1 on usage or validation errors, 2 when a
certified identity or residual check fails on the given input (so CI can
tell an identity regression from an operational failure).  JSON reports
are emitted with sorted keys and no timestamps: identical seed and
arguments give byte-identical output.  The environment variable
``TRIRING_ORDER`` overrides the default truncation order of every
command but ``audit``, whose ``--order`` defaults to 16; a value that
is not an integer, or is below 1, is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from . import hypergeom, ideals, multiplicity, params as params_mod
from .derivation import apply_D, apply_variant, rankin_bracket
from .errors import IdentityFailed, TriringError
from .ring import AFFINE_VARS, HOMOG_VARS, Poly, poly_from_text

USAGE_ERROR = 1
IDENTITY_ERROR = 2


def _default_order(fallback=24):
    text = os.environ.get("TRIRING_ORDER", "").strip()
    try:
        order = int(text or fallback)
    except ValueError:
        raise ValueError(f"TRIRING_ORDER must be an integer, got {text!r}") from None
    if order < 1:
        raise ValueError(f"TRIRING_ORDER must be at least 1, got {text!r}")
    return order


def _parse_triple(text):
    parts = text.replace(" ", ",").split(",")
    parts = [p for p in parts if p]
    if len(parts) != 3:
        raise ValueError(f"expected three rationals, got {text!r}")
    return params_mod.validate(*(Fraction(p) for p in parts))


def _parse_poly_arg(text, vars=AFFINE_VARS):
    return poly_from_text(text, vars=vars)


def _emit(args, payload, text_lines):
    if getattr(args, "emit", "text") == "json":
        payload.setdefault("seed", getattr(args, "seed", None))
        print(_json_text(payload))
    else:
        for line in text_lines:
            print(line)


def _json_text(payload):
    """``json.dumps(payload, sort_keys=True, indent=2)``, byte for byte.

    With ``indent`` set, ``json.dumps`` always runs its pure-Python
    encoder; ``_render`` writes the same text with the C string escaper.
    A payload holding anything but str-keyed dicts, lists, tuples, str,
    int, float, bool and None makes ``_render`` raise ``TypeError`` and
    goes to ``json.dumps`` whole.
    """
    parts = []
    try:
        _render(payload, "\n", parts)
    except TypeError:
        return json.dumps(payload, sort_keys=True, indent=2)
    return "".join(parts)


def _render(value, newline, parts):
    """Append the JSON text of ``value`` to ``parts``; ``newline`` carries the indent."""
    kind = type(value)
    if kind is str:
        parts.append(_encode_str(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        # a key that is not a str makes sorted or _encode_str raise TypeError
        for key in sorted(value):
            parts.append(sep + _encode_str(key) + ": ")
            _render(value[key], inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _render(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif kind is float or kind is bool or value is None:
        parts.append(json.dumps(value))
    else:
        raise TypeError(f"{kind.__name__} is left to json.dumps")


def _complex_arg(text):
    return complex(text.replace("i", "j"))


# -- subcommand handlers -----------------------------------------------------------


def _cmd_params(args):
    if args.action == "check":
        if not args.values:
            raise ValueError("check needs a triple like 1/5 1/4 1/2")
        triple = ",".join(args.values)
        p = _parse_triple(triple)
        d = params_mod.derived_constants(p)
        payload = {
            "params": p.label(),
            "valid": True,
            "a": str(d.a),
            "b": str(d.b),
            "c": str(d.c),
            "w": str(d.w),
            "ram": d.ram,
            "eta": str(params_mod.eta(p)),
        }
        _emit(args, payload, [
            f"valid triple ({p.label()})",
            f"a={d.a} b={d.b} c={d.c} w={d.w} ram={d.ram}",
            f"eta={params_mod.eta(p)}",
        ])
        return 0
    if args.action == "eta":
        count, minimum, argmin = params_mod.eta_scan(args.max_denominator)
        if argmin is None:
            raise ValueError(
                f"no valid unit-fraction triple has every denominator at most "
                f"{args.max_denominator}; the smallest is 1/5,1/4,1/2"
            )
        sample_min = params_mod.region_sample_min(seed=args.seed or 0)
        payload = {
            "max_denominator": args.max_denominator,
            "triples_checked": count,
            "min_eta": str(minimum),
            "argmin": argmin.label(),
            "all_positive": minimum > 0,
            "region_sample_min_float": sample_min,
        }
        _emit(args, payload, [
            f"checked {count} unit-fraction triples up to denominator {args.max_denominator}",
            f"min eta = {minimum} at ({argmin.label()})",
            f"all positive: {minimum > 0}",
            f"informative float min of ab+ac+bc over the open region: {sample_min:.6f}",
        ])
        return 0 if minimum > 0 else IDENTITY_ERROR
    if args.action == "residuals":
        parts = []
        for v in args.values:
            parts.extend(x for x in v.replace(" ", ",").split(",") if x)
        if len(parts) != 3:
            raise ValueError("residuals needs exactly three rationals")
        r = params_mod.critical_residuals(*(Fraction(v) for v in parts))
        payload = {"residuals": [str(v) for v in r]}
        _emit(args, payload, [f"critical residuals: {r[0]}, {r[1]}, {r[2]}"])
        return 0
    raise ValueError(f"unknown params action {args.action}")


def _cmd_derive(args):
    p = _parse_triple(args.params)
    P = _parse_poly_arg(args.poly)
    kind = {"D": "D", "Dprime": "Dprime", "H": "Honly"}[args.kind]
    out = apply_variant(P, kind, p)
    _emit(args, {"kind": args.kind, "params": p.label(), "result": out.to_json_obj()},
          [out.to_text()])
    return 0


def _cmd_bracket(args):
    p = _parse_triple(args.params)
    U = _parse_poly_arg(args.U)
    V = _parse_poly_arg(args.V)
    out = rankin_bracket(U, V, p)
    _emit(args, {"params": p.label(), "result": out.to_json_obj()}, [out.to_text()])
    return 0


def _cmd_ideal(args):
    p = _parse_triple(args.params) if args.params else None
    if args.action in ("certify-case1", "stable") and p is None:
        raise ValueError(f"ideal {args.action} needs --params")
    if args.action == "stable" and not args.gen:
        raise ValueError("ideal stable needs --gen")
    if args.action == "member" and not (args.poly and args.gens):
        raise ValueError("ideal member needs --poly and --gens")
    if args.action == "certify-case1":
        report = ideals.certify_case_one(p, raise_on_failure=False)
        ok = all(report.checks.values())
        payload = {
            "params": p.label(),
            "checks": report.checks,
            "eta": str(report.eta_value),
            "H": report.H.to_json_obj(),
            "K": report.K.to_json_obj(),
        }
        lines = [f"{name}: {'ok' if good else 'FAILED'}" for name, good in report.checks.items()]
        _emit(args, payload, lines)
        return 0 if ok else IDENTITY_ERROR
    if args.action == "stable":
        P = _parse_poly_arg(args.gen)
        cert = ideals.principal_stability(P, p, step_budget=args.budget)
        payload = {
            "params": p.label(),
            "generator": P.to_json_obj(),
            "verdict": cert.verdict,
        }
        lines = [f"verdict: {cert.verdict}"]
        if cert.verdict == "stable":
            cof = cert.cofactors[0][0]
            payload["cofactor"] = cof.to_json_obj()
            payload["cofactor_affine_form"] = cert.affine_cofactor_form
            lines.append(f"cofactor: {cof.to_text()}")
        else:
            payload["witness_power"] = cert.witness[1]
            lines.append(f"D^{cert.witness[1]}(gen) escapes the ideal")
        _emit(args, payload, lines)
        return 0
    if args.action == "member":
        P = _parse_poly_arg(args.poly)
        gens_list = [_parse_poly_arg(g) for g in args.gens]
        res = ideals.membership(P, gens_list, step_budget=args.budget)
        payload = {"member": res.member}
        lines = [f"member: {res.member}"]
        if res.member:
            payload["cofactors"] = [c.to_json_obj() for c in res.cofactors]
            lines.extend(f"cofactor[{i}]: {c.to_text()}" for i, c in enumerate(res.cofactors))
        _emit(args, payload, lines)
        return 0
    raise ValueError(f"unknown ideal action {args.action}")


def _coef_text(c):
    """A series coefficient as text: a rational, or a ``Poly`` in the symbols."""
    return c.to_text() if isinstance(c, Poly) else str(c)


def _cmd_hyper(args):
    if args.order is None:
        verify = args.action == "verify"
        args.order = _default_order(hypergeom.NUMERIC_CHECK_ORDER) if verify else _default_order()
    p = _parse_triple(args.params)
    if args.action == "expand":
        point = {"0": "zero", "1": "one", "inf": "inf"}[args.point]
        fam = hypergeom.y_series(point, p, args.order)
        series_json = {k: s.to_json_obj() for k, s in fam.series_map().items()}
        if point == "zero":
            tau, q = hypergeom._tau_q(fam.u0, hypergeom.u_series("u1", p, args.order))
            series_json["tau"] = tau.to_json_obj()
            series_json["q"] = q.to_json_obj()
        payload = {
            "params": p.label(),
            "point": point,
            "local_variable": fam.local_variable,
            "order": args.order,
            "series": series_json,
        }
        lines = [f"{name}: ord {s.ord()} lead {_coef_text(s.leading_coeff())}"
                 for name, s in fam.series_map().items()]
        _emit(args, payload, lines)
        return 0
    if args.action == "verify":
        samples = tuple(_complex_arg(s) for s in args.samples.split(",")) if args.samples else (0.1, 0.3, 0.5j)
        rep = hypergeom.numeric_checks(p, samples=samples, N=args.order)
        worst_w = max(rep.wronskian_dev.values())
        worst_conn = rep.max_connection_residual()
        ok = rep.passed()
        payload = dict(rep.as_dict(), passed=ok)
        lines = [
            f"wronskian deviation (max): {worst_w:.3e}",
            f"connection residual (max): {worst_conn:.3e}",
            f"omega statement-form confirmed: {rep.omega_matches_statement}",
            f"verdict: {'ok' if ok else 'FAILED'}",
        ]
        _emit(args, payload, lines)
        return 0 if ok else IDENTITY_ERROR
    raise ValueError(f"unknown hyper action {args.action}")


def _cmd_ord(args):
    p = _parse_triple(args.params)
    P = _parse_poly_arg(args.poly)
    if args.at in ("0", "zero"):
        rep = multiplicity.ord_at_zero(P, p, N=args.order)
    else:
        rep = multiplicity.ord_at_generic(P, p, _complex_arg(args.at), N=args.order)
    payload = {
        "point": rep.point,
        "poly": rep.poly,
        "ord": str(rep.ord),
        "coordinate": rep.coordinate,
        "conclusive": rep.conclusive,
        "order": args.order,
    }
    _emit(args, payload, [f"ord_{rep.point}({rep.poly}) = {rep.ord}  [z-coordinate]"])
    return 0


def _cmd_dist(args):
    p = _parse_triple(args.params)
    U = _parse_poly_arg(args.poly, vars=HOMOG_VARS)
    value = multiplicity.log_dist_hypersurface(U, p, N=args.order)
    payload = {"poly": U.to_json_obj(), "minus_log_dist": str(value), "order": args.order}
    _emit(args, payload, [f"-log Dist = {value}"])
    return 0


def _cmd_audit(args):
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    p = _parse_triple(args.params)
    profile = tuple(int(v) for v in args.profile.split(","))
    audit = multiplicity.bound_audit(
        profile, p, samples=args.samples, N=args.order, seed=args.seed
    )
    payload = audit.as_dict()
    payload["params"] = p.label()
    lines = [
        f"profile {profile}  M1={audit.m1} M2={audit.m2} bound={audit.bound}",
        f"samples={audit.samples} skipped={audit.skipped}",
        f"max ord = {audit.max_ord}  ratio = {audit.ratio}",
        f"all within bound: {audit.all_within_bound}",
    ]
    _emit(args, payload, lines)
    return 0 if audit.all_within_bound else IDENTITY_ERROR


def _cmd_verify(args):
    p = _parse_triple(args.params)
    N = args.order
    results = {}

    g = {v: Poly.var(AFFINE_VARS, v) for v in AFFINE_VARS}
    d = params_mod.derived_constants(p)
    from .derivation import quadratic_form

    L = quadratic_form(p)
    results["derivation_generator_rules"] = (
        apply_D(g["tau"], p) == Poly.const(AFFINE_VARS, d.w)
        and apply_D(g["q"], p) == d.w * g["q"]
        and all(apply_D(g[y], p) == g[y] ** 2 - L for y in ("y0", "y1", "y2"))
    )
    results["difference_factorizations"] = all(
        apply_D(g[a] - g[b], p) == (g[a] - g[b]) * (g[a] + g[b])
        for a, b in (("y0", "y1"), ("y0", "y2"), ("y1", "y2"))
    )

    fam = hypergeom.y_series("zero", p, N)
    al, be, ga = p.as_tuple()
    results["leading_terms_at_zero"] = (
        fam.u0sq.ord() == ga
        and fam.u0sq.leading_coeff() == 1
        and fam.y0.ord() == ga - 1
        and fam.y0.leading_coeff() == ga / 2
        and fam.y1.leading_coeff() == (ga - 2) / 2
        and fam.y2.leading_coeff() == ga / 2
    )
    th = Poly.var(hypergeom.SYMBOLS_AT_ONE, "theta")
    fam1 = hypergeom.y_series("one", p, N)
    results["leading_terms_at_one"] = (
        fam1.u0sq.ord() == 1 + al + be - ga
        and fam1.u0sq.leading_coeff() == th ** 2
        and fam1.y2.leading_coeff() == Fraction(-1, 2) * (-1 + al + be - ga) * th ** 2
    )
    zw = Poly.var(hypergeom.SYMBOLS_AT_INF, "zw")
    fam_inf = hypergeom.y_series("inf", p, N)
    results["leading_terms_at_infinity"] = (
        fam_inf.u0sq.ord() == -(1 - al + be)
        and fam_inf.u0sq.leading_coeff() == zw ** 2
        and fam_inf.y0.leading_coeff() == Fraction(al - be - 1, 2) * zw ** 2
    )

    results["wronskian_series_constant"] = (
        hypergeom.wronskian_series(p, N) - d.w
    ).is_zero_to_prec()
    results["normal_form_ode_residual"] = hypergeom.ode_residual_series(
        hypergeom.u_series("u0", p, N), p, N
    ).is_zero_to_prec()

    case1 = ideals.certify_case_one(p, raise_on_failure=False)
    results["resultant_identity"] = all(case1.checks.values())

    kap = ideals.kappa()
    stable = ideals.stable_principal_ideals()
    lifted = ideals.stable_principal_lifts()
    results["universal_element_memberships"] = all(
        ideals.membership(kap, [gen]).member for gen in stable.values()
    ) and all(
        ideals.membership(ideals.ramanujan_l(), [gen]).member
        for gen in lifted.values()
    )
    results["universal_element_derivative"] = apply_D(kap, p) == (
        Poly.const(AFFINE_VARS, d.w) + 2 * (g["y0"] + g["y1"] + g["y2"])
    ) * kap

    rep = hypergeom.numeric_checks(p, N=max(N, 40))
    results["numeric_connection_formulas"] = rep.passed()

    ok = all(results.values())
    payload = {"params": p.label(), "order": N, "checks": results, "passed": ok}
    lines = [f"{name}: {'ok' if good else 'FAILED'}" for name, good in results.items()]
    lines.append(f"verdict: {'all checks passed' if ok else 'FAILURES PRESENT'}")
    _emit(args, payload, lines)
    return 0 if ok else IDENTITY_ERROR


# -- parser -------------------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(
        prog="triring",
        description="Exact differential-ring, Puiseux-series and vanishing-order toolkit",
    )
    sub = top.add_subparsers(dest="command", required=True)
    order_kw = dict(type=int, default=_default_order(),
                    help="truncation order (default: TRIRING_ORDER or 24)")

    p_params = sub.add_parser("params", help="validate triples, scan eta")
    p_params.add_argument("action", choices=("check", "eta", "residuals"))
    p_params.add_argument("values", nargs="*", help="rationals like 1/5 1/4 1/2")
    p_params.add_argument("--max-denominator", type=int, default=30)
    p_params.add_argument("--seed", type=int, default=None)
    p_params.add_argument("--emit", choices=("text", "json"), default="text")
    p_params.set_defaults(fn=_cmd_params)

    p_derive = sub.add_parser("derive", help="apply a derivation to a polynomial")
    p_derive.add_argument("--kind", choices=("D", "Dprime", "H"), default="D")
    p_derive.add_argument("--params", required=True, help="a/b,c/d,e/f")
    p_derive.add_argument("poly")
    p_derive.add_argument("--emit", choices=("text", "json"), default="text")
    p_derive.set_defaults(fn=_cmd_derive)

    p_bracket = sub.add_parser("bracket", help="Rankin bracket of two isobaric polynomials")
    p_bracket.add_argument("--params", required=True)
    p_bracket.add_argument("U")
    p_bracket.add_argument("V")
    p_bracket.add_argument("--emit", choices=("text", "json"), default="text")
    p_bracket.set_defaults(fn=_cmd_bracket)

    p_ideal = sub.add_parser("ideal", help="stability certificates and membership")
    p_ideal.add_argument("action", choices=("certify-case1", "stable", "member"))
    p_ideal.add_argument("--params", default=None)
    p_ideal.add_argument("--gen", default=None, help="generator polynomial")
    p_ideal.add_argument("--poly", default=None)
    p_ideal.add_argument("--gens", nargs="*", default=[])
    p_ideal.add_argument("--budget", type=int, default=ideals.DEFAULT_STEP_BUDGET,
                         help="cap on the division steps of member's Buchberger run "
                              "and of stable's division (default: %(default)s)")
    p_ideal.add_argument("--emit", choices=("text", "json"), default="text")
    p_ideal.set_defaults(fn=_cmd_ideal)

    p_hyper = sub.add_parser("hyper", help="series expansion and numeric verification")
    p_hyper.add_argument("action", choices=("expand", "verify"))
    p_hyper.add_argument("--point", choices=("0", "1", "inf"), default="0")
    p_hyper.add_argument("--params", required=True)
    p_hyper.add_argument("--order", type=int, default=None,
                         help="truncation order (default: TRIRING_ORDER, or 24 for expand "
                              f"and {hypergeom.NUMERIC_CHECK_ORDER} for verify)")
    p_hyper.add_argument("--samples", default=None, help="comma list, e.g. 0.1,0.3,0.5i")
    p_hyper.add_argument("--emit", choices=("text", "json"), default="text")
    p_hyper.set_defaults(fn=_cmd_hyper)

    p_ord = sub.add_parser("ord", help="vanishing order of a generator polynomial")
    p_ord.add_argument("--at", default="0", help="0 or a complex point like 0.3+0.2i")
    p_ord.add_argument("--params", required=True)
    p_ord.add_argument("poly")
    p_ord.add_argument("--order", **dict(
        order_kw, help="truncation order at 0; at a generic point, the cap on the "
                       "number of derivatives D^n P tried (default: TRIRING_ORDER or 24)"))
    p_ord.add_argument("--emit", choices=("text", "json"), default="text")
    p_ord.set_defaults(fn=_cmd_ord)

    p_dist = sub.add_parser("dist", help="-log distance to a hypersurface")
    p_dist.add_argument("--at", default="0", choices=("0",))
    p_dist.add_argument("--params", required=True)
    p_dist.add_argument("poly", help="homogeneous polynomial in t, X0..X4")
    p_dist.add_argument("--order", **order_kw)
    p_dist.add_argument("--emit", choices=("text", "json"), default="text")
    p_dist.set_defaults(fn=_cmd_dist)

    p_audit = sub.add_parser("audit", help="degree-profile multiplicity audit")
    p_audit.add_argument("--profile", required=True, help="dtau,dq,dy0,dy1,dy2")
    p_audit.add_argument("--params", default="1/5,1/4,1/2")
    p_audit.add_argument("--samples", type=int, default=200)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--order", type=int, default=16)
    p_audit.add_argument("--emit", choices=("text", "json"), default="text")
    p_audit.set_defaults(fn=_cmd_audit)

    p_verify = sub.add_parser("verify", help="run the built-in identity suite")
    p_verify.add_argument("target", choices=("all",))
    p_verify.add_argument("--params", required=True)
    p_verify.add_argument("--order", **order_kw)
    p_verify.add_argument("--emit", choices=("text", "json"), default="text")
    p_verify.set_defaults(fn=_cmd_verify)
    return top


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    except ValueError as exc:  # a bad TRIRING_ORDER
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    order = getattr(args, "order", None)
    if order is not None and order < 1:
        print("error: --order must be at least 1", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.fn(args)
    except IdentityFailed as exc:
        print(f"identity failed: {exc}", file=sys.stderr)
        return IDENTITY_ERROR
    except (TriringError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
