"""CLI stdout of expand, verify and certify against frozen outputs.

The files under ``tests/golden`` named in ``CASES`` are the stdout of
``triring`` for each argument list, captured when the expansions at 1
and infinity still carried polynomial coefficients inside the series
core; the symbol-monomial split must reproduce them byte for byte.
"""

from pathlib import Path

import pytest

from triring.cli import run

GOLDEN = Path(__file__).parent / "golden"

TRIPLES = {"1_5_1_4_1_2": "1/5,1/4,1/2", "1_8_1_6_1_3": "1/8,1/6,1/3"}


def _cases():
    cases = {}
    for label, triple in TRIPLES.items():
        for point in ("0", "1", "inf"):
            for emit, ext in (("json", "json"), ("text", "txt")):
                cases[f"expand_{point}_{label}_order8.{ext}"] = [
                    "hyper", "expand", "--point", point, "--params", triple,
                    "--order", "8", "--emit", emit,
                ]
    cases["verify_all_1_5_1_4_1_2.json"] = [
        "verify", "all", "--params", "1/5,1/4,1/2", "--emit", "json",
    ]
    cases["certify_case1_1_5_1_4_1_2.json"] = [
        "ideal", "certify-case1", "--params", "1/5,1/4,1/2", "--emit", "json",
    ]
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_is_byte_identical(capsys, monkeypatch, name):
    # verify all runs at the default order
    monkeypatch.delenv("TRIRING_ORDER", raising=False)
    code = run(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()
