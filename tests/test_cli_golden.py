"""CLI stdout of expand, verify, derive, bracket, ideal, ord and dist against frozen outputs.

The files under ``tests/golden`` named in ``CASES`` are the stdout of
``triring`` for each argument list.  The expand, verify and
certify-case1 files on 1/5,1/4,1/2 were captured when the expansions at
1 and infinity still carried polynomial coefficients inside the series
core; the derive, bracket, ideal and remaining certify-case1 files were
captured when ``Poly`` stored every coefficient as a ``Fraction`` and
divided by repeated leading-term searches; the ord and dist files were
captured when the order at 0 was read off a sum of scaled series rather
than the integer columns the audit uses; the generic ord files were
captured when generic orders still had an absolute trust floor and
Gamma was a Lanczos approximation; the ord files on 1/11,1/9,1/4 were
captured when the monomial rows were still built as ``PuiseuxSeries``
products; the order-48 expand file on 1/11,1/9,1/4 (tau and q on the
ram-4 grid) was captured when ``exp`` summed its recurrence in
``Fraction`` term by term and the JSON went through ``json.dumps``; the
Dprime and H derive files were captured when D, D' and H each had their
own table of generator images; the expand files at orders 1 and 2 at 1
and infinity were captured when 2F1 at -x was made by a second pass over
2F1 at x; those at 0 were captured when tau was the quotient of the u1
and u0 series and the JSON was written from ``to_json_obj`` dicts; the
ord files at orders 1 and 3 were captured when each doubling of the
search at 0 built its product graph anew.
Every rewrite must reproduce them
byte for byte, and with the same exit code.
"""

from pathlib import Path

import pytest

from triring.cli import run
from triring.ideals import kappa
from triring.ring import poly_from_text

GOLDEN = Path(__file__).parent / "golden"

TRIPLES = {"1_5_1_4_1_2": "1/5,1/4,1/2", "1_8_1_6_1_3": "1/8,1/6,1/3"}
T1, T2 = TRIPLES["1_5_1_4_1_2"], TRIPLES["1_8_1_6_1_3"]
#: a triple whose generator series live on the ram-4 grid
T3 = "1/11,1/9,1/4"
DERIVE_POLY = "y0^2 y1 - 3/7 * q tau y2"
#: every generator appears, so D' and H each keep some terms and kill others
VARIANT_POLY = "y0 y1 + tau q"
#: a member whose cofactor on the generator 2 q y0 is 1/2
MEMBER = ["ideal", "member", "--poly", "q y0 y1 - q y1^2 + q y0",
          "--gens", "2 * q y0", "y0 - y1"]
#: (y0 - y2)^9 y1 expanded; at --order 8 its order needs one doubling
POW9 = (poly_from_text("y0 - y2") ** 9 * poly_from_text("y1")).to_text()
ORD_POLYS = {
    "pow9_1_5_1_4_1_2_order8": (T1, POW9, "8"),
    "rational_1_5_1_4_1_2": (T1, "3/7 * q y0^2 - 1/2 * tau y1 y2 + 5/3", "24"),
    "1_8_1_6_1_3": (T2, "q y0^2 - 2 * q y0 y1 + q y1^2 - tau^2 y2", "24"),
    # ram 4: order 3/2, and order 9/4 from the tau, q and constant rows
    "pow9_1_11_1_9_1_4_order8": (T3, POW9, "8"),
    "tau_q_1_11_1_9_1_4_order8": (T3, "q - tau - 1 - 1/2 * tau^2", "8"),
    # two doublings, 3 -> 6 -> 12: order 7/3
    "pow9_1_8_1_6_1_3_order3": (T2, POW9, "3"),
}
#: still inconclusive at N = 8, the last doubling from 1: exit 1 with no stdout
ORD_EXHAUSTED = {"pow9_1_5_1_4_1_2_order1": (T1, POW9, "1")}
#: generic points: README's example; an expanded power that cancels to
#: order 0; order 2 at the root of tau = 1/2 on 1/5,1/4,1/2; and kappa
TAU_HALF = poly_from_text("tau - 1/2")
GENERIC_ORD = {
    "readme_1_5_1_4_1_2": (T1, "0.3+0.2i", "y0 y1 + tau", ("json", "text")),
    "tau_half_pow8_1_5_1_4_1_2": (T1, "0.25", (TAU_HALF ** 8).to_text(), ("json",)),
    "tau_half_sq_unit_1_5_1_4_1_2": (
        T1, "0.22125195410815288", (TAU_HALF ** 2 * poly_from_text("y0 + 2")).to_text(),
        ("json", "text"),
    ),
    "kappa_1_8_1_6_1_3": (T2, "0.3j", kappa().to_text(), ("json",)),
}
DIST_POLYS = {
    "1_5_1_4_1_2": (T1, "X0 X2 - t X3^2"),
    "1_8_1_6_1_3": (T2, "X1 X3 X4 - X0 X2^2 + 2/3 * t X0^3"),
}


def _cases():
    cases = {}
    for label, triple in TRIPLES.items():
        for point in ("0", "1", "inf"):
            for emit, ext in (("json", "json"), ("text", "txt")):
                cases[f"expand_{point}_{label}_order8.{ext}"] = ([
                    "hyper", "expand", "--point", point, "--params", triple,
                    "--order", "8", "--emit", emit,
                ], 0)
    # tau and q at 0, A and B at 1 and infinity at their lowest orders;
    # order 1 at infinity exits 1, since 1/z = -x there keeps no term below
    # its prec
    for label, triple in (("1_8_1_6_1_3", T2), ("1_22_1_4_1_3", "1/22,1/4,1/3")):
        for point, order in (("0", "1"), ("0", "2"), ("1", "1"), ("1", "2"), ("inf", "2")):
            cases[f"expand_{point}_{label}_order{order}.json"] = ([
                "hyper", "expand", "--point", point, "--params", triple,
                "--order", order, "--emit", "json",
            ], 0)
    cases["expand_0_1_11_1_9_1_4_order48.json"] = ([
        "hyper", "expand", "--point", "0", "--params", T3, "--order", "48", "--emit", "json",
    ], 0)
    cases["verify_all_1_5_1_4_1_2.json"] = (
        ["verify", "all", "--params", T1, "--emit", "json"], 0)
    cases["certify_case1_1_5_1_4_1_2.json"] = (
        ["ideal", "certify-case1", "--params", T1, "--emit", "json"], 0)
    cases["certify_case1_1_8_1_6_1_3.json"] = (
        ["ideal", "certify-case1", "--params", T2, "--emit", "json"], 0)
    cases["certify_case1_1_13_1_4_1_3.txt"] = (
        ["ideal", "certify-case1", "--params", "1/13,1/4,1/3"], 0)
    cases["derive_1_5_1_4_1_2.json"] = (
        ["derive", "--params", T1, "--emit", "json", DERIVE_POLY], 0)
    cases["derive_1_8_1_6_1_3.txt"] = (["derive", "--params", T2, DERIVE_POLY], 0)
    for kind in ("Dprime", "H"):
        for label, triple in TRIPLES.items():
            cases[f"derive_{kind}_{label}.json"] = (
                ["derive", "--kind", kind, "--params", triple, "--emit", "json", VARIANT_POLY], 0)
    cases["bracket_1_5_1_4_1_2.json"] = (
        ["bracket", "--params", T1, "--emit", "json", "y0 - y1", "y0 y2 - y1^2"], 0)
    cases["ideal_stable_1_5_1_4_1_2.json"] = ([
        "ideal", "stable", "--params", T1, "--gen", "y0 y1 - y0 y2 - y1^2 + y1 y2",
        "--emit", "json",
    ], 0)
    cases["ideal_stable_unstable_1_5_1_4_1_2.txt"] = (
        ["ideal", "stable", "--params", T1, "--gen", "y0"], 0)
    # stable takes one --gen; a generator list is a usage error with no stdout
    cases["ideal_stable_gens_1_5_1_4_1_2.json"] = (
        ["ideal", "stable", "--params", T1, "--gens", "q", "y0 - y1", "--emit", "json"], 1)
    cases["ideal_member_nonunit.json"] = (MEMBER + ["--emit", "json"], 0)
    cases["ideal_member_nonunit.txt"] = (MEMBER, 0)
    for polys, code in ((ORD_POLYS, 0), (ORD_EXHAUSTED, 1)):
        for label, (triple, poly, order) in polys.items():
            argv = ["ord", "--at", "0", "--params", triple, "--order", order, poly]
            cases[f"ord_zero_{label}.json"] = (argv + ["--emit", "json"], code)
            cases[f"ord_zero_{label}.txt"] = (argv, code)
    for label, (triple, at, poly, emits) in GENERIC_ORD.items():
        argv = ["ord", "--at", at, "--params", triple, poly]
        for emit in emits:
            ext = "json" if emit == "json" else "txt"
            cases[f"ord_generic_{label}.{ext}"] = (argv + ["--emit", emit], 0)
    for label, (triple, poly) in DIST_POLYS.items():
        cases[f"dist_{label}.json"] = (["dist", "--params", triple, "--emit", "json", poly], 0)
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_is_byte_identical(capsys, monkeypatch, name):
    # verify all runs at the default order
    monkeypatch.delenv("TRIRING_ORDER", raising=False)
    argv, want_code = CASES[name]
    code = run(argv)
    out = capsys.readouterr().out
    assert code == want_code
    assert out == (GOLDEN / name).read_text()
