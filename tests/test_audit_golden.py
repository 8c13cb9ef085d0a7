"""The degree-profile audit against frozen outputs and an independent path.

The files under ``tests/golden`` are the ``--emit json`` stdout of
``triring audit`` (and one library report) as produced by the series-sum
evaluation the integer columns replaced; the audit must reproduce them
byte for byte.  ``ord_at_zero`` reads the same integer columns, so the
property test checks both against ``series_sum`` of ``conftest``, which
sums scaled generator series and never touches the column matrix: every
sampled order, and the order and truncation ``ord_at_zero`` reports.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triring import multiplicity as mult
from triring.cli import run
from triring.errors import TruncationExhausted
from triring.params import validate
from triring.ring import AFFINE_VARS, Poly

from conftest import reference_order

GOLDEN = Path(__file__).parent / "golden"

CLI_CASES = {
    # the README example at 40 samples
    "audit_readme_example": ["--profile", "2,2,2,2,2", "--samples", "40", "--seed", "7"],
    "audit_profile_11222_order4": ["--profile", "1,1,2,2,2", "--order", "4"],
    "audit_1_8_1_6_1_3": ["--params", "1/8,1/6,1/3", "--profile", "1,2,1,1,2",
                          "--samples", "60", "--seed", "3", "--order", "4"],
    # captured when the monomial rows were PuiseuxSeries products, and
    # each coefficient one rng.choice call
    "audit_1_11_1_9_1_4": ["--params", "1/11,1/9,1/4", "--profile", "1,2,1,2,1",
                           "--samples", "50", "--seed", "3", "--order", "4"],
    # ram 3 at N = 32, twice the order of any other box here; captured when
    # each column was scaled by the lcm of its denominators, not made primitive
    "audit_1_8_1_6_1_3_order32": ["--params", "1/8,1/6,1/3", "--profile", "2,2,2,2,2",
                                  "--order", "32", "--samples", "40", "--seed", "5"],
}

TRIPLES = [
    validate(Fraction(1, 5), Fraction(1, 4), Fraction(1, 2)),
    validate(Fraction(1, 7), Fraction(1, 3), Fraction(1, 2)),
    validate(Fraction(1, 8), Fraction(1, 6), Fraction(1, 3)),
]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_audit_json_is_byte_identical(capsys, name):
    code = run(["audit", *CLI_CASES[name], "--emit", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_inconclusive_samples_retry_and_are_skipped():
    # at N = 0 the five samples of order 2/3 see only vanishing columns;
    # the retry on the box at order 1 resolves all of them, and the report
    # gives that order
    audit = mult.bound_audit((1, 1, 0, 0, 0), TRIPLES[2], samples=40, N=0, seed=11)
    assert audit.skipped == 0
    assert audit.order_used == 1
    assert audit.ords.count(Fraction(2, 3)) == 5
    report = json.dumps(audit.as_dict(), sort_keys=True) + "\n"
    assert report == (GOLDEN / "bound_audit_order0_skipped.json").read_text()
    # ord_at_zero retries from N = 0 the same way
    polys = _sampled_polys((1, 1, 0, 0, 0), 40, 11)
    assert [mult.ord_at_zero(P, TRIPLES[2], 0).ord for P in polys] == audit.ords


@pytest.mark.parametrize("samples", [0, 1, 13, 200])
@pytest.mark.parametrize("size", [1, 32, 243])
def test_batched_draws_equal_the_choice_loop(samples, size):
    # the batches read random's Mersenne Twister words as rng.choice does;
    # a CPython release that changes either routine fails here first
    nonzero = [i for i in range(-9, 10) if i]
    for seed in [*range(12), 123456, 2 ** 40 + 3]:
        rng = random.Random(seed)
        loop = [[rng.choice(nonzero) for _ in range(size)] for _ in range(samples)]
        assert mult._draws(seed, samples, size) == loop


def _sampled_polys(profile, samples, seed):
    """The polynomials ``bound_audit`` draws, rebuilt as ``Poly`` objects."""
    rng = random.Random(seed)
    nonzero = [i for i in range(-9, 10) if i]
    box = list(itertools.product(*(range(d + 1) for d in profile)))
    return [
        Poly(AFFINE_VARS, {exps: Fraction(rng.choice(nonzero)) for exps in box})
        for _ in range(samples)
    ]


@settings(max_examples=25, deadline=None)
@given(
    profile=st.tuples(*(st.integers(0, 1) for _ in range(5))),
    triple=st.sampled_from(TRIPLES),
    N=st.integers(1, 4),
    seed=st.integers(0, 10 ** 6),
)
def test_audit_orders_match_ord_at_zero(profile, triple, N, seed):
    samples = 4
    audit = mult.bound_audit(profile, triple, samples=samples, N=N, seed=seed)
    expected = []
    for P in _sampled_polys(profile, samples, seed):
        reference = reference_order(P, triple, N, mult.MAX_DOUBLINGS)
        if reference is None:
            with pytest.raises(TruncationExhausted):
                mult.ord_at_zero(P, triple, N)
            continue
        report = mult.ord_at_zero(P, triple, N)
        assert (report.ord, report.truncation) == reference
        expected.append(reference[0])
    assert audit.ords == expected
    assert audit.skipped == samples - len(expected)
