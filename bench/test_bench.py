"""Tests of the benchmark itself: seeded inputs, the checks, the tracer.

Run with::

    python3 -m pytest -q bench/test_bench.py

Each check must pass the program's real output and reject a corrupted
copy of it, so that a wrong result can never be timed as a right one.
"""

import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import triring  # noqa: E402
import triring.cli  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from kernel import KERNEL_CHECKSUM, reference_kernel  # noqa: E402


def first_job(workload, kind=None, seed=5):
    for block in workloads.make_blocks(workload, seed):
        for job in block:
            if kind is None or job["kind"] == kind:
                return job
    raise LookupError(kind)


def run(job):
    return workloads.run_job(job, workloads.program_input(job, triring), triring, worker.capture)


def poly_with(poly, terms):
    return triring.Poly(poly.vars, terms)


# -- inputs -------------------------------------------------------------------------


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_blocks(workload, 7) == workloads.make_blocks(workload, 7)
    assert workloads.make_blocks(workload, 7) != workloads.make_blocks(workload, 8)


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_blocks_have_one_make_up(workload):
    """Every block of every seed holds the same kinds of job."""
    def shape(block):
        return sorted(
            (j["kind"], j.get("point"), j.get("order"), sum(j.get("profile", ())))
            for j in block
        )

    shapes = {str(shape(b)) for s in (1, 2) for b in workloads.make_blocks(workload, s)}
    assert len(shapes) == 1


def test_triples_are_valid():
    for triple in (*spec.EXPAND_TRIPLES, *spec.AUDIT_TRIPLES, *spec.ORDERS_TRIPLES):
        triring.validate(*workloads.triple_values(triple))
    assert len(workloads.unit_fraction_triples(30)) == triring.eta_scan(30)[0]


def test_reference_kernel_is_fixed():
    assert reference_kernel() == KERNEL_CHECKSUM


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {(m["name"], m["unit"]) for m in bench["per_layer"]}
    assert listed == {(n, tracer.metric_unit(n)) for n in tracer.PER_LAYER}
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)


# -- audit --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def audit_case():
    job = dict(first_job("audit"), profile=(1, 1, 1, 1, 1), samples=3)
    spec.warm_up(triring, "audit")
    return job, run(job)


def test_audit_check_passes(audit_case):
    job, result = audit_case
    assert checks.check_audit(job, result) == []


def test_audit_check_rejects_corruption(audit_case):
    job, result = audit_case
    ram = Fraction(1, math.lcm(*job["triple"]))
    ords = list(result.ords)
    lowest = 3 * (workloads.triple_values(job["triple"])[2] - 1)
    bad = [
        dataclasses.replace(result, ords=[ords[0] + ram / 2, *ords[1:]]),
        dataclasses.replace(result, ords=[lowest - ram, *ords[1:]]),
        dataclasses.replace(result, max_ord=result.max_ord + ram),
        dataclasses.replace(result, ratio=result.ratio * 2),
        dataclasses.replace(result, m2=result.m2 + 1),
        dataclasses.replace(result, skipped=1),
        dataclasses.replace(result, ords=ords[:-1]),
    ]
    for corrupted in bad:
        assert checks.check_audit(job, corrupted)


# -- orders -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def orders_cases():
    spec.warm_up(triring, "orders")
    exact = first_job("orders", "exact")
    generic = first_job("orders", "generic")
    return (exact, run(exact)), (generic, run(generic))


def test_orders_checks_pass(orders_cases):
    for job, result in orders_cases:
        assert checks.check_orders(job, result) == []


def test_orders_checks_reject_corruption(orders_cases):
    (exact, r_exact), (generic, r_generic) = orders_cases
    ram = Fraction(1, math.lcm(*exact["triple"]))
    assert checks.check_orders(exact, dataclasses.replace(r_exact, ord=r_exact.ord + ram))
    assert checks.check_orders(exact, dataclasses.replace(r_exact, conclusive=False))
    assert checks.check_orders(generic, dataclasses.replace(r_generic, ord=1))


def test_generic_margin_sees_a_zero():
    job = first_job("orders", "generic")
    values = checks.generator_values(job["triple"], job["z0"])
    value, size = checks.evaluate_product((("kappa", 1),), values)
    assert abs(value) > checks.GENERIC_MARGIN * size
    values["y2"] = values["y0"]  # makes y0 - y2, so kappa, vanish
    value, size = checks.evaluate_product((("kappa", 1),), values)
    assert abs(value) <= checks.GENERIC_MARGIN * size


# -- certify ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def certify_case():
    job = first_job("certify")
    return job, run(job)


def test_certify_check_passes(certify_case):
    job, result = certify_case
    assert checks.check_certify(job, result) == []


def test_certify_check_rejects_corruption(certify_case):
    job, result = certify_case
    case_one, principal, stability, member, (R, A, B) = result

    def bumped(poly, by=Fraction(1)):
        terms = dict(poly.terms)
        key = next(iter(terms))
        terms[key] += by
        return poly_with(poly, terms)

    w = 1 - workloads.triple_values(job["triple"])[2]
    cof = principal.cofactors[0][0]
    bad = [
        (case_one, principal, stability, member, (bumped(R), A, B)),
        (case_one, principal, stability, member, (R, bumped(A), B)),
        (dataclasses.replace(case_one, R1=bumped(case_one.R1)), principal, stability, member, (R, A, B)),
        (case_one, dataclasses.replace(principal, cofactors={0: [cof + w]}), stability, member, (R, A, B)),
        (case_one, principal, stability,
         dataclasses.replace(member, cofactors=[bumped(member.cofactors[0]), member.cofactors[1]]),
         (R, A, B)),
        (case_one, principal,
         dataclasses.replace(stability, cofactors={0: [bumped(c) if c else c + 1 for c in stability.cofactors[0]],
                                                   1: stability.cofactors[1]}),
         member, (R, A, B)),
    ]
    for corrupted in bad:
        assert checks.check_certify(job, corrupted)


def test_eta_closed_form_matches_the_program():
    for triple in workloads.unit_fraction_triples(12):
        params = triring.validate(*workloads.triple_values(triple))
        assert checks.eta_closed_form(*workloads.triple_values(triple)) == triring.eta(params)


# -- expand -------------------------------------------------------------------------


@pytest.fixture(scope="module", params=("0", "1", "inf"))
def expand_case(request):
    job = dict(first_job("expand"), point=request.param, order=24)
    params = triring.validate(*workloads.triple_values(job["triple"]))
    bindings = triring.hypergeom.connection_constants(params).bindings
    return job, run(job), bindings


def test_expand_check_passes(expand_case):
    job, result, bindings = expand_case
    assert checks.check_expand(job, result, bindings) == []


def test_expand_check_rejects_corruption(expand_case):
    job, (code, text), bindings = expand_case
    payload = json.loads(text)

    def corrupted(edit):
        p = json.loads(text)
        edit(p["series"]["y0"]["coeffs"])
        return 0, json.dumps(p)

    def bump_leading(coeffs):
        v = coeffs[0]["value"]
        if isinstance(v, str):
            coeffs[0]["value"] = str(Fraction(v) + 1)
        else:
            v["terms"][0]["coef"] = str(Fraction(v["terms"][0]["coef"]) + 1)

    def bump_second(coeffs):
        v = coeffs[1]["value"]
        if isinstance(v, str):
            coeffs[1]["value"] = str(Fraction(v) + Fraction(1, 100))
        else:
            v["terms"][0]["coef"] = str(Fraction(v["terms"][0]["coef"]) + Fraction(1, 100))

    assert payload["series"]["y0"]["coeffs"][1]["k"] > 0
    assert checks.check_expand(job, corrupted(bump_leading), bindings)
    assert checks.check_expand(job, corrupted(bump_second), bindings)
    assert checks.check_expand(job, (2, text), bindings)
    wrong_bindings = {k: v * 1.001 for k, v in bindings.items()}
    if job["point"] != "0":
        assert checks.check_expand(job, (code, text), wrong_bindings)


# -- tracer -------------------------------------------------------------------------


def test_tracer_reports_and_uninstalls():
    original = (triring.Poly.__mul__, triring.ideals.apply_D, triring.multiplicity.generator_series)
    t = tracer.Tracer()
    t.install(triring)
    try:
        assert triring.ideals.apply_D is not original[1]
        job = first_job("certify")
        inp = workloads.program_input(job, triring)
        t.active = True
        result = workloads.run_job(job, inp, triring, worker.capture)
        t.active = False
    finally:
        t.uninstall()
    assert (triring.Poly.__mul__, triring.ideals.apply_D,
            triring.multiplicity.generator_series) == original
    assert checks.check_certify(job, result) == []
    m = t.metrics(1, 0, 0, 0)
    assert set(m) == set(tracer.PER_LAYER)
    assert m["ring.mul_s"] > 0 and m["ring.resultant_s"] > 0
    assert m["derivation.apply_D_calls"] >= 2
    assert m["series.mul_s"] == 0
