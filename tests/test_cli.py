import json

import pytest

from triring import cli
from triring.cli import run
from triring.ring import poly_from_text


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_params_check_valid(capsys):
    code, out, _ = invoke(capsys, "params", "check", "1/5", "1/4", "1/2")
    assert code == 0
    assert "valid triple" in out


def test_params_check_invalid_exit_one(capsys):
    code, _, err = invoke(capsys, "params", "check", "1/2,1/2,1")
    assert code == 1
    assert "gamma" in err or "beta" in err


@pytest.mark.parametrize("cap", ["1", "4"])
def test_params_eta_below_the_smallest_triple_is_a_usage_error(capsys, cap):
    # no valid triple has every denominator at most 4; 1/5,1/4,1/2 is the smallest
    code, out, err = invoke(capsys, "params", "eta", "--max-denominator", cap)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_one(capsys):
    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 1


def test_derive_text_output(capsys):
    code, out, _ = invoke(
        capsys, "derive", "--kind", "D", "--params", "1/5,1/4,1/2", "y0 - y1"
    )
    assert code == 0
    assert out.strip() == "-y1^2 + y0^2"


def test_json_round_trip_derive_to_bracket(capsys):
    code, out, _ = invoke(
        capsys,
        "derive",
        "--kind",
        "D",
        "--params",
        "1/5,1/4,1/2",
        "y1 - y2",
        "--emit",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    poly_json = json.dumps(payload["result"])
    # the emitted polynomial is accepted verbatim as an input elsewhere
    code2, out2, _ = invoke(
        capsys, "bracket", "--params", "1/5,1/4,1/2", poly_json, "y0"
    )
    assert code2 == 0


def test_json_reports_are_deterministic(capsys):
    args = ("audit", "--profile", "0,1,1,0,1", "--samples", "8", "--seed", "5",
            "--params", "1/5,1/4,1/2", "--emit", "json")
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 5
    assert "max_ord" in payload and "ratio_max_ord_over_bound" in payload


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_audit_rejects_samples_below_one(capsys, samples):
    code, out, err = invoke(capsys, "audit", "--profile", "1,1,1,1,1", "--samples", samples)
    assert code == 1
    assert out == ""
    assert "--samples must be at least 1" in err


def test_ord_command(capsys):
    code, out, _ = invoke(
        capsys, "ord", "--at", "0", "--params", "1/5,1/4,1/2", "y0 - y2"
    )
    assert code == 0
    assert "1/2" in out


def test_ord_still_inconclusive_at_the_last_doubling_names_its_order(capsys):
    # (y0 - y2)^9 y1 expanded: from --order 1 the doublings end at N = 8
    poly = (poly_from_text("y0 - y2") ** 9 * poly_from_text("y1")).to_text()
    code, out, err = invoke(
        capsys, "ord", "--at", "0", "--params", "1/5,1/4,1/2", "--order", "1", poly
    )
    assert (code, out) == (1, "")
    assert err == f"error: order of {poly} at zero still inconclusive at N=8\n"


def test_ord_generic_command(capsys):
    code, out, _ = invoke(
        capsys, "ord", "--at", "0.3+0.2i", "--params", "1/5,1/4,1/2", "y0 y1 + tau"
    )
    assert code == 0
    assert "= 0" in out


def test_dist_command(capsys):
    code, out, _ = invoke(
        capsys, "dist", "--at", "0", "--params", "1/5,1/4,1/2", "X2 - X3"
    )
    assert code == 0
    assert "-log Dist = 0" in out


def test_hyper_expand_json_series_round_trip(capsys):
    code, out, _ = invoke(
        capsys,
        "hyper",
        "expand",
        "--point",
        "0",
        "--params",
        "1/5,1/4,1/2",
        "--order",
        "12",
        "--emit",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    from triring.series import PuiseuxSeries

    y0 = PuiseuxSeries.from_json_obj(payload["series"]["y0"])
    assert str(y0.ord()) == "-1/2"
    assert "tau" in payload["series"] and "q" in payload["series"]


def test_hyper_verify(capsys):
    code, out, _ = invoke(
        capsys, "hyper", "verify", "--params", "1/5,1/4,1/2", "--order", "50"
    )
    assert code == 0
    assert "verdict: ok" in out


def test_hyper_verify_default_order_passes(capsys, monkeypatch):
    # the README's invocation: no --order, so the checks' own order applies
    monkeypatch.delenv("TRIRING_ORDER", raising=False)
    code, out, _ = invoke(capsys, "hyper", "verify", "--params", "1/5,1/4,1/2", "--emit", "json")
    assert code == 0
    assert json.loads(out)["order"] == 60


def test_verify_all(capsys):
    code, out, _ = invoke(
        capsys, "verify", "all", "--params", "1/5,1/4,1/2", "--order", "24"
    )
    assert code == 0
    assert "all checks passed" in out


def test_ideal_stable_and_member(capsys):
    code, out, _ = invoke(
        capsys, "ideal", "stable", "--params", "1/5,1/4,1/2", "--gen", "q"
    )
    assert code == 0
    assert "verdict: stable" in out
    code, out, _ = invoke(
        capsys,
        "ideal",
        "member",
        "--poly",
        "y1 - y2",
        "--gens",
        "y0 - y1",
        "y0 - y2",
    )
    assert code == 0
    assert "member: True" in out


def test_identity_exit_code_two_is_reachable(capsys, monkeypatch):
    # force a failing identity by corrupting the expected eta value
    import triring.cli as cli_mod
    from triring import ideals as ideals_mod

    real = ideals_mod.certify_case_one

    def broken(params, raise_on_failure=True):
        report = real(params, raise_on_failure=False)
        report.checks["R1_identity"] = False
        return report

    monkeypatch.setattr(cli_mod.ideals, "certify_case_one", broken)
    code, out, _ = invoke(capsys, "ideal", "certify-case1", "--params", "1/5,1/4,1/2")
    assert code == 2


def test_env_var_sets_default_order(capsys, monkeypatch):
    monkeypatch.setenv("TRIRING_ORDER", "9")
    from triring.cli import _default_order

    assert _default_order(24) == 9


def test_env_var_that_is_not_an_integer_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("TRIRING_ORDER", "abc")
    code, out, err = invoke(capsys, "hyper", "expand", "--params", "1/5,1/4,1/2")
    assert code == 1
    assert out == ""
    assert "TRIRING_ORDER" in err and "'abc'" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_env_var_below_one_exits_one_naming_the_variable(capsys, monkeypatch, value):
    monkeypatch.setenv("TRIRING_ORDER", value)
    code, out, err = invoke(capsys, "hyper", "expand", "--params", "1/5,1/4,1/2")
    assert code == 1
    assert out == ""
    assert err == f"error: TRIRING_ORDER must be at least 1, got {value!r}\n"


@pytest.mark.parametrize("argv, task", [
    (["ideal", "stable", "--params", "1/5,1/4,1/2", "--gen", "q y0 - q y1"],
     "the reduction of D(g0)"),
    (["ideal", "member", "--poly", "y0^2", "--gens", "y0"], "the final membership reduction"),
    (["ideal", "member", "--poly", "y0^2", "--gens", "y0 y1 - 1", "y0^2 - y1"],
     "the Buchberger S-polynomial reductions"),
])
def test_budget_overrun_names_the_reduction(capsys, argv, task):
    assert run(argv + ["--budget", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: step budget exhausted in {task}\n"


def test_generic_ord_of_a_huge_coefficient(capsys):
    # a 401-digit coefficient must not overflow the float conversions
    code, out, _ = invoke(capsys, "ord", "--at", "0.3", "--params", "1/5,1/4,1/2",
                          f"{10 ** 400} * y0 y1 + tau")
    assert code == 0
    assert out.endswith(") = 0  [z-coordinate]\n")


def test_two_runs_build_the_parser_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert run(["params", "check", "1/5", "1/4", "1/2"]) == 0
        assert run(["params", "residuals", "1/5", "1/4", "1/2"]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]


@pytest.mark.parametrize("argv", [
    ["params", "check", "1/5", "1/4", "1/2"],
    ["ord", "--at", "0", "--params", "1/5,1/4,1/2", "y0", "--order", "8"],
])
def test_bad_env_var_leaves_commands_off_the_default_order_alone(capsys, monkeypatch, argv):
    monkeypatch.setenv("TRIRING_ORDER", "abc")
    code, out, err = invoke(capsys, *argv)
    assert code == 0
    assert out and err == ""


def test_bad_env_var_still_fails_the_default_order(capsys, monkeypatch):
    monkeypatch.setenv("TRIRING_ORDER", "abc")
    code, out, err = invoke(capsys, "hyper", "expand", "--params", "1/5,1/4,1/2")
    assert code == 1
    assert out == ""
    assert err == "error: TRIRING_ORDER must be an integer, got 'abc'\n"


@pytest.mark.parametrize("command", [
    "params check", "params eta", "params residuals", "derive", "bracket",
    "ideal certify-case1", "ideal stable", "ideal member", "hyper expand", "hyper verify",
    "ord", "dist", "audit", "verify",
])
def test_every_subcommand_help_lists_emit(capsys, command):
    code, out, _ = invoke(capsys, *command.split(), "--help")
    assert code == 0
    assert "--emit {text,json}" in out


JSON_ZERO_DENOMINATOR = json.dumps({
    "vars": ["tau", "q", "y0", "y1", "y2"],
    "terms": [{"exps": [0, 0, 1, 0, 0], "coef": "1/0"}],
})

FOREIGN_T = json.dumps({"vars": ["t", "X0"], "terms": [{"exps": [1, 0], "coef": "1"}]})


@pytest.mark.parametrize("argv", [
    ["params", "check", "1/0", "1/4", "1/2"],
    ["params", "residuals", "1/0", "1", "2"],
    ["derive", "--params", "1/5,1/0,1/2", "y0"],
    ["derive", "--params", "1/5,1/4,1/2", "1/0*y0"],
    ["derive", "--params", "1/5,1/4,1/2", JSON_ZERO_DENOMINATOR],
    ["derive", "--params", "1/5,1/4,1/2", '{"terms": []}'],
    ["derive", "--params", "1/5,1/4,1/2", '{"vars": 1}'],
    ["derive", "--params", "1/5,1/4,1/2", '{"vars": 1, "terms": []}'],
    ["derive", "--params", "1/5,1/4,1/2", '{"vars": ["y0"], "terms": [1]}'],
    # polynomials from rings with none of the generator names, not derived to 0
    ["derive", "--params", "1/5,1/4,1/2", FOREIGN_T],
    ["derive", "--kind", "Dprime", "--params", "1/5,1/4,1/2", FOREIGN_T],
    ["derive", "--kind", "H", "--params", "1/5,1/4,1/2", FOREIGN_T],
    ["params", "eta", "--seed", "3"],
    # an option that its action does not read, and an option before its action
    ["params", "check", "1/5", "1/4", "1/2", "--max-denominator", "5"],
    ["params", "eta", "1/5", "1/4", "1/2"],
    ["params", "residuals", "1/5", "1/4", "1/2", "--max-denominator", "5"],
    ["ideal", "certify-case1", "--params", "1/5,1/4,1/2", "--gen", "q"],
    ["ideal", "certify-case1", "--params", "1/5,1/4,1/2", "--poly", "q"],
    ["ideal", "certify-case1", "--params", "1/5,1/4,1/2", "--gens", "q"],
    ["ideal", "certify-case1", "--params", "1/5,1/4,1/2", "--budget", "5"],
    ["ideal", "stable", "--params", "1/5,1/4,1/2", "--gen", "q", "--poly", "q"],
    ["ideal", "stable", "--params", "1/5,1/4,1/2", "--gen", "q", "--gens", "q"],
    ["ideal", "member", "--poly", "y0", "--gens", "y0", "--params", "1/5,1/4,1/2"],
    ["ideal", "member", "--poly", "y0", "--gens", "y0", "--gen", "q"],
    ["hyper", "expand", "--params", "1/5,1/4,1/2", "--order", "4", "--samples", "0.1"],
    ["hyper", "verify", "--params", "1/5,1/4,1/2", "--order", "40", "--point", "inf"],
    ["hyper", "--params", "1/5,1/4,1/2", "expand", "--order", "4"],
], ids=lambda argv: " ".join(argv)[:60])
def test_bad_arguments_are_one_line_usage_errors(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("error:") == 1 and err.endswith("\n")


@pytest.mark.parametrize("sample", ["nan", "nanj", "0.1+nanj"])
def test_hyper_verify_refuses_a_non_finite_sample(capsys, sample):
    # NaN passes every range check; it must not reach the sums and read as a failed identity
    code, out, err = invoke(capsys, "hyper", "verify", "--params", "1/5,1/4,1/2",
                            "--samples", sample)
    assert code == 1
    assert out == ""
    assert "is not finite" in err


def test_generic_ord_refuses_a_non_finite_point(capsys):
    # without the check the 2F1 sums run to their term cap before failing
    code, out, err = invoke(capsys, "ord", "--at", "nanj", "--params", "1/5,1/4,1/2", "y0")
    assert code == 1
    assert out == ""
    assert "is not finite" in err


@pytest.mark.parametrize("emit", ["json", "text"])
def test_expand_with_no_certified_term_exits_one_under_either_emit(capsys, emit):
    # at infinity at order 1, 1/z = -x keeps no term below its prec, so
    # y1 has none; --emit json, which prints no orders, refuses it too
    code, out, err = invoke(capsys, "hyper", "expand", "--point", "inf", "--params",
                            "1/5,1/4,1/2", "--order", "1", "--emit", emit)
    assert code == 1
    assert out == ""
    assert err == "error: all coefficients vanish below exponent -1/20\n"


def test_generic_ord_at_inf_is_the_non_finite_error(capsys):
    # only a trailing "i" is the imaginary unit; "inf" reads as infinity
    code, out, err = invoke(capsys, "ord", "--at", "inf", "--params", "1/5,1/4,1/2", "y0")
    assert code == 1
    assert out == ""
    assert err == "error: point (inf+0j) is not finite\n"


def test_hyper_verify_at_inf_is_the_non_finite_error(capsys):
    code, out, err = invoke(capsys, "hyper", "verify", "--params", "1/5,1/4,1/2",
                            "--samples", "0.1,inf")
    assert code == 1
    assert out == ""
    assert err == "error: point (inf+0j) is not finite\n"


@pytest.mark.parametrize("text, value", [("0.5i", 0.5j), ("0.3+0.2i", 0.3 + 0.2j),
                                         (" -0.1-0.25i ", -0.1 - 0.25j), ("0.2", 0.2)])
def test_complex_arguments_read_a_trailing_i(text, value):
    assert cli._complex_arg(text, "--at") == value


@pytest.mark.parametrize("argv, message", [
    (["ord", "--at", "0.3+0.2x", "--params", "1/5,1/4,1/2", "y0"],
     "--at: '0.3+0.2x' is not a complex number"),
    (["hyper", "verify", "--params", "1/5,1/4,1/2", "--samples", "0.1,0.2i+"],
     "--samples: '0.2i+' is not a complex number"),
    (["hyper", "verify", "--params", "1/5,1/4,1/2", "--samples", ""],
     "--samples: '' is not a complex number"),
])
def test_a_malformed_complex_argument_is_named(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("coef", [0.1, True, None, [1]])
def test_json_coefficients_must_be_exact(capsys, coef):
    # a float would be read as its binary value and a bool as 0 or 1
    poly = json.dumps({"vars": ["tau", "q", "y0", "y1", "y2"],
                       "terms": [{"exps": [1, 0, 0, 0, 0], "coef": coef}]})
    code, out, err = invoke(capsys, "derive", "--kind", "H", "--params", "1/5,1/4,1/2", poly)
    assert code == 1
    assert out == ""
    assert "is not a str or an int" in err


def test_json_coefficients_may_be_str_or_int(capsys):
    poly = json.dumps({"vars": ["tau", "q", "y0", "y1", "y2"], "terms": [
        {"exps": [1, 0, 0, 0, 0], "coef": "1/10"}, {"exps": [0, 1, 0, 0, 0], "coef": 3}]})
    args = ("derive", "--kind", "H", "--params", "1/5,1/4,1/2")
    assert invoke(capsys, *args, poly) == invoke(capsys, *args, "1/10 tau + 3 q")
