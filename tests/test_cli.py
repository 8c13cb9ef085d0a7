import json

import pytest

from triring.cli import run


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

    assert _default_order() == 9


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
