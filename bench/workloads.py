"""Seeded job lists of the four workloads, and how each job is run.

A workload is a list of blocks and a block is a list of jobs.  A run
goes through the blocks in order, starting over at the end, and stops
only between blocks, so every run does whole blocks.  Every block of
audit, expand and orders covers the workload's whole set of triples and
job kinds, so all runs do the same mix of work; the seed picks the
details inside a block (coefficients, which variables, sample points,
job order).  A certify block is four independent jobs.

Jobs are plain data.  :func:`program_input` turns a job into the
arguments the program receives, outside the timed region, and
:func:`run_job` makes the one call that is timed.
"""

import cmath
import math
import random
from fractions import Fraction

import algebra
import spec

# -- shared input data ---------------------------------------------------------


def unit_fraction_triples(max_denominator=30):
    """Valid triples (as denominators) with every denominator at most the cap."""
    out = []
    for c in range(2, max_denominator + 1):
        for b in range(c + 1, max_denominator + 1):
            for a in range(b + 1, max_denominator + 1):
                if Fraction(1, c) > Fraction(1, a) + Fraction(1, b):
                    out.append((a, b, c))
    return out


def triple_values(triple):
    a, b, c = triple
    return Fraction(1, a), Fraction(1, b), Fraction(1, c)


def triple_label(triple):
    a, b, c = triple
    return f"1/{a},1/{b},1/{c}"


# the generators of the four principal stable ideals, and kappa
FACTORS = {
    "tau": algebra.var("tau"),
    "q": algebra.var("q"),
    "y0": algebra.var("y0"),
    "y1": algebra.var("y1"),
    "y2": algebra.var("y2"),
    "d01": algebra.sub(algebra.var("y0"), algebra.var("y1")),
    "d02": algebra.sub(algebra.var("y0"), algebra.var("y2")),
    "d12": algebra.sub(algebra.var("y1"), algebra.var("y2")),
}
FACTORS["kappa"] = algebra.product(
    [FACTORS["q"], FACTORS["d01"], FACTORS["d02"], FACTORS["d12"]]
)


def expand_factors(factors):
    """The expanded product of ``((factor name, exponent), ...)``."""
    return algebra.product(algebra.power(FACTORS[name], e) for name, e in factors)


# -- audit -------------------------------------------------------------------------

# boxes of 32, 2 x 48, 2 x 72, 108 and 243 monomials
AUDIT_PROFILES = ((1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 2), (1, 2, 1, 2, 1),
                  (1, 1, 2, 1, 2), (1, 1, 2, 2, 2), (2, 2, 2, 2, 2))


def audit_samples(profile):
    """Samples of an audit job: about ``spec.AUDIT_TERMS`` scale+add steps."""
    return round(spec.AUDIT_TERMS / math.prod(d + 1 for d in profile))


def audit_blocks(seed):
    """Every triple with seven profiles from (1,1,1,1,1) up to (2,2,2,2,2)."""
    rng = random.Random(f"audit/{seed}")
    blocks = []
    for _ in range(16):
        jobs = [
            {
                "kind": "audit",
                "triple": triple,
                "profile": profile,
                "samples": audit_samples(profile),
                "N": spec.AUDIT_ORDER,
                "seed": rng.randrange(10 ** 6),
            }
            for triple in spec.AUDIT_TRIPLES
            for profile in AUDIT_PROFILES
        ]
        rng.shuffle(jobs)
        blocks.append(jobs)
    return blocks


# -- expand -------------------------------------------------------------------------

def expand_blocks(seed):
    """Every triple with the seven (point, order) calls of the CLI."""
    rng = random.Random(f"expand/{seed}")
    blocks = []
    for _ in range(8):
        jobs = [
            {"kind": "expand", "triple": triple, "point": point, "order": order}
            for triple in spec.EXPAND_TRIPLES
            for point, order in spec.EXPAND_CALLS
        ]
        rng.shuffle(jobs)
        blocks.append(jobs)
    return blocks


# -- orders -------------------------------------------------------------------------

_Y = ("y0", "y1", "y2")


def _exact_templates(rng):
    """Seven products for ord_at_zero; (y0 - y2)^9 needs one doubling."""
    return [
        (("d02", 9), (rng.choice(("tau", "q", *_Y)), 1)),
        (("tau", 3), ("d02", 4), (rng.choice(("q", *_Y)), 1)),
        (("kappa", 1), ("d02", 2)),
        (("q", 2), ("d01", 1), ("d12", 2), (rng.choice(_Y), 1)),
        (("kappa", 1), *((y, 1) for y in rng.sample(_Y, 2))),
        (("tau", 2), ("q", 1), ("d12", 1), *((y, 1) for y in rng.sample(_Y, 2))),
        (("tau", 1), ("kappa", 1), (rng.choice(("d01", "d12")), 1)),
    ]


def _generic_templates(rng):
    return [
        (("d02", 3), (rng.choice(("tau", "q", *_Y)), 1)),
        (("kappa", 1), (rng.choice(("tau", *_Y)), 1)),
    ]


def generic_point(rng):
    """A point of the cut unit disk away from 0, 1 and the cuts."""
    r = rng.uniform(0.25, 0.6)
    phi = rng.choice((-1, 1)) * rng.uniform(0.3, 2.6)
    z = cmath.rect(r, phi)
    return complex(round(z.real, 6), round(z.imag, 6))


def orders_blocks(seed):
    """Every triple with seven exact orders at 0 and two at generic points."""
    rng = random.Random(f"orders/{seed}")
    blocks = []
    for _ in range(40):
        jobs = []
        for triple in spec.ORDERS_TRIPLES:
            jobs += [
                {"kind": "exact", "triple": triple, "factors": f, "N": spec.ORDERS_EXACT_N}
                for f in _exact_templates(rng)
            ]
            jobs += [
                {
                    "kind": "generic",
                    "triple": triple,
                    "factors": f,
                    "z0": generic_point(rng),
                    "N": spec.ORDERS_GENERIC_N,
                }
                for f in _generic_templates(rng)
            ]
        rng.shuffle(jobs)
        blocks.append(jobs)
    return blocks


# -- certify ------------------------------------------------------------------------

_DIFFS = ("d01", "d02", "d12")
ROOT_VARS = ("tau", "q", "y0", "y2")
STABLE_NAMES = ("q", "d01", "d02", "d12")
_NONZERO = (-3, -2, -1, 1, 2, 3)


def _linear_form(rng, names):
    """Coefficients of 1 and of each named variable, all variables present."""
    return (rng.randint(-4, 4),) + tuple(rng.choice(_NONZERO) for _ in names)


def _stable_exponents(rng, total):
    """Exponents (q, d01, d02, d12) in 0..2 adding up to ``total``."""
    while True:
        exps = tuple(rng.randint(0, 2) for _ in range(4))
        if sum(exps) == total:
            return exps


def certify_job(rng, triples):
    a, b, c = rng.sample(_DIFFS, 3)
    return {
        "kind": "certify",
        "triple": rng.choice(triples),
        # principal_stability of q^e0 d01^e1 d02^e2 d12^e3
        "principal": _stable_exponents(rng, 4),
        # the ideal (q * d_a, d_b * d_c) and a combination to test membership
        "ideal": ((("q", 1), (a, 1)), ((b, 1), (c, 1))),
        "combination": tuple(_linear_form(rng, algebra.VARS) for _ in range(2)),
        # P = (y1 - a1)(y1 - a2), Q = (y1 - b1)(y1 - b2)(y1 - b3)
        "roots_p": tuple(_linear_form(rng, ROOT_VARS) for _ in range(2)),
        "roots_q": tuple(_linear_form(rng, ROOT_VARS) for _ in range(3)),
    }


def certify_blocks(seed):
    """Four certify jobs per block, each on its own eta_scan triple."""
    rng = random.Random(f"certify/{seed}")
    triples = unit_fraction_triples(30)
    return [[certify_job(rng, triples) for _ in range(4)] for _ in range(100)]


def linear_poly(form, names):
    out = algebra.const(form[0])
    for name, coef in zip(names, form[1:]):
        out = algebra.add(out, algebra.scale(algebra.var(name), coef))
    return out


def certify_polys(job):
    """The principal generator, the ideal's generators, the combination, P and Q."""
    gens = [expand_factors(g) for g in job["ideal"]]
    combination = algebra.add(*(
        algebra.mul(linear_poly(form, algebra.VARS), g)
        for form, g in zip(job["combination"], gens)
    ))
    y1 = algebra.var("y1")
    P, Q = (
        algebra.product(algebra.sub(y1, linear_poly(r, ROOT_VARS)) for r in job[roots])
        for roots in ("roots_p", "roots_q")
    )
    return expand_factors(zip(STABLE_NAMES, job["principal"])), gens, combination, P, Q


BLOCKS = {
    "audit": audit_blocks,
    "expand": expand_blocks,
    "orders": orders_blocks,
    "certify": certify_blocks,
}


def make_blocks(workload, seed):
    return BLOCKS[workload](seed)


# -- program inputs and the timed call ------------------------------------------------


def program_input(job, triring):
    """Everything the timed call needs, built outside the timed region."""
    params = triring.validate(*triple_values(job["triple"]))
    poly = lambda p: triring.Poly(algebra.VARS, p)
    kind = job["kind"]
    if kind == "audit":
        return params
    if kind == "expand":
        return [
            "hyper", "expand", "--point", job["point"], "--params",
            triple_label(job["triple"]), "--order", str(job["order"]), "--emit", "json",
        ]
    if kind in ("exact", "generic"):
        return params, poly(expand_factors(job["factors"]))
    if kind == "certify":
        principal, gens, combination, P, Q = certify_polys(job)
        return params, poly(principal), [poly(g) for g in gens], poly(combination), poly(P), poly(Q)
    raise ValueError(f"unknown job kind {kind!r}")


def run_job(job, inp, triring, capture):
    """The timed call.  ``capture`` collects the CLI's standard output."""
    kind = job["kind"]
    if kind == "audit":
        return triring.multiplicity.bound_audit(
            job["profile"], inp, samples=job["samples"], N=job["N"], seed=job["seed"]
        )
    if kind == "expand":
        with capture() as out:
            code = triring.cli.run(inp)
        return code, out.getvalue()
    if kind == "exact":
        return triring.multiplicity.ord_at_zero(inp[1], inp[0], N=job["N"])
    if kind == "generic":
        return triring.multiplicity.ord_at_generic(inp[1], inp[0], job["z0"], N=job["N"])
    if kind == "certify":
        params, principal, gens, combination, P, Q = inp
        ideals = triring.ideals
        return (
            ideals.certify_case_one(params, raise_on_failure=False),
            ideals.principal_stability(principal, params),
            ideals.certify_stability(gens, params),
            ideals.membership(combination, gens),
            triring.resultant_with_cofactors(P, Q, "y1"),
        )
    raise ValueError(f"unknown job kind {kind!r}")
