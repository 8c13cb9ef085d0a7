"""Stable-ideal certificates and ideal-membership utilities.

The certificates here are constructive: a "stable" verdict carries the
cofactors that exhibit each derived generator inside the ideal, and an
"unstable" verdict carries the witness (gen index, 1, D(gen)) of the
first generator whose derivative escapes.  Membership runs Buchberger
with the graded-lex order over exact rationals; positive answers return
cofactors in terms of the original generators, re-checkable by direct
expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import ring
from .derivation import apply_D
from .errors import BasisBudgetExceeded, IdentityFailed, ZeroPolynomial
from .params import TriangleParams, derived_constants, eta
from .ring import AFFINE_VARS, HOMOG_VARS, Poly, resultant

DEFAULT_STEP_BUDGET = 10 ** 5


def kappa() -> Poly:
    """The universal element q(y0-y1)(y0-y2)(y1-y2), expanded canonically."""
    g = ring.gens(AFFINE_VARS)
    q, y0, y1, y2 = g["q"], g["y0"], g["y1"], g["y2"]
    return q * (y0 - y1) * (y0 - y2) * (y1 - y2)


def ramanujan_l() -> Poly:
    """Homogeneous counterpart X0 X1 (X3-X2)(X4-X2)(X4-X3) of kappa.

    Dehomogenizing at X0 = 1 and renaming (X1..X4) -> (q, y0, y1, y2)
    yields exactly -kappa; the sign comes from the three reversed
    difference factors.
    """
    g = ring.gens(HOMOG_VARS)
    X0, X1, X2, X3, X4 = g["X0"], g["X1"], g["X2"], g["X3"], g["X4"]
    return X0 * X1 * (X3 - X2) * (X4 - X2) * (X4 - X3)


# -- Groebner machinery ---------------------------------------------------------


def _mono_div(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def _mono_lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


class _Budget:
    def __init__(self, steps, task):
        self.left = steps
        self.task = task  # the reduction an overrun names

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BasisBudgetExceeded(f"step budget exhausted in {self.task}")


def _reduce(P, reps, basis, budget):
    """Fully reduce P against basis, tracking a representation.

    ``reps`` maps each basis element to its expression in the original
    generators (a coefficient list).  Returns (remainder, rep-of-quot).
    Each term taken by the division spends one step of ``budget``.
    """
    quots, rem = P.divmod_many(basis, budget.spend)
    n_orig = len(next(iter(reps.values()))) if reps else 0
    quot_rep = [
        Poly.sum(P.vars, [q * reps[i][j] for i, q in enumerate(quots) if q])
        for j in range(n_orig)
    ]
    return rem, quot_rep


def groebner_basis(generators, step_budget=DEFAULT_STEP_BUDGET):
    """Buchberger with graded-lex order, tracking generator representations.

    Returns ``(basis, reps)`` where ``basis[i] == sum_j reps[i][j] * gen_j``.
    """
    gens_list = [g for g in generators if g]
    if not gens_list:
        raise ZeroPolynomial("ideal needs at least one nonzero generator")
    vars = gens_list[0].vars
    budget = _Budget(step_budget, "the Buchberger S-polynomial reductions")
    basis = []
    reps = {}
    unit = lambda i: [
        Poly.const(vars, 1) if j == i else Poly.zero(vars)
        for j in range(len(gens_list))
    ]
    for i, g in enumerate(gens_list):
        basis.append(g)
        reps[len(basis) - 1] = unit(i)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        fi, fj = basis[i], basis[j]
        ei, ci = fi.leading()
        ej, cj = fj.leading()
        l = _mono_lcm(ei, ej)
        if l == tuple(a + b for a, b in zip(ei, ej)):
            continue  # coprime leading monomials reduce to zero
        mi = Poly(fi.vars, {_mono_div(l, ei): Fraction(1) / ci})
        mj = Poly(fj.vars, {_mono_div(l, ej): Fraction(1) / cj})
        s = mi * fi - mj * fj
        s_rep = [
            mi * a - mj * b for a, b in zip(reps[i], reps[j])
        ]
        rem, quot_rep = _reduce(s, reps, basis, budget)
        if rem:
            rem_rep = [a - b for a, b in zip(s_rep, quot_rep)]
            basis.append(rem)
            reps[len(basis) - 1] = rem_rep
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    return basis, reps


@dataclass
class MembershipResult:
    member: bool
    cofactors: list | None  # P == sum cofactors[i] * generators[i] when member

    def __bool__(self):
        return self.member


def membership(P, generators, step_budget=DEFAULT_STEP_BUDGET) -> MembershipResult:
    """Decide P in (generators) over Q; positive answers carry cofactors."""
    basis, reps = groebner_basis(generators, step_budget=step_budget)
    rem, quot_rep = _reduce(P, reps, basis, _Budget(step_budget, "the final membership reduction"))
    if rem:
        return MembershipResult(False, None)
    return MembershipResult(True, quot_rep)


# -- principal stability ----------------------------------------------------------


@dataclass
class StabilityCertificate:
    generators: list
    verdict: str  # "stable" | "unstable"
    cofactors: dict = field(default_factory=dict)  # gen index -> cofactor list
    witness: tuple | None = None  # (gen index, 1, D(gen)) for unstable
    affine_cofactor_form: bool | None = None  # principal case: F affine in y's

    def __bool__(self):
        return self.verdict == "stable"


def _cofactor_is_affine_weight_form(F):
    """True when F = l0 y0 + l1 y1 + l2 y2 + l3 with rational l's."""
    for exps in F.terms:
        degs = dict(zip(F.vars, exps))
        if degs.get("tau") or degs.get("q"):
            return False
        if sum(degs.get(v, 0) for v in ("y0", "y1", "y2")) > 1:
            return False
    return True


def principal_stability(P, params, step_budget=DEFAULT_STEP_BUDGET):
    """Stability certificate for the principal ideal (P).

    (P) is D-stable exactly when P divides D(P); the certificate then
    carries the cofactor F with D(P) = F P and whether F has the affine
    weight-one shape expected for irreducible P.  Otherwise the witness
    is (0, 1, D(P)).
    """
    cert = certify_stability([P], params, step_budget=step_budget)
    if cert:
        cert.affine_cofactor_form = _cofactor_is_affine_weight_form(cert.cofactors[0][0])
    return cert


def certify_stability(generators, params, step_budget=DEFAULT_STEP_BUDGET):
    """D-stability certificate for a finitely generated ideal.

    Stability of the ideal is equivalent to D(g) in the ideal for every
    generator g; cofactors witness each containment.  One Groebner basis
    serves every generator's reduction.
    """
    gens_list = [g for g in generators if g]
    basis, reps = groebner_basis(gens_list, step_budget=step_budget)
    cofactors = {}
    for idx, g in enumerate(gens_list):
        Dg = apply_D(g, params)
        budget = _Budget(step_budget, f"the reduction of D(g{idx})")
        rem, quot_rep = _reduce(Dg, reps, basis, budget)
        if rem:
            return StabilityCertificate(
                generators=gens_list, verdict="unstable", witness=(idx, 1, Dg)
            )
        cofactors[idx] = quot_rep
    return StabilityCertificate(
        generators=gens_list, verdict="stable", cofactors=cofactors
    )


# -- the case-one computation -------------------------------------------------------


def case_one_quadric(params) -> Poly:
    """H: image of D(y0) under y0 -> 0."""
    g = ring.gens(AFFINE_VARS)
    return apply_D(g["y0"], params).coefficient_of("y0", 0)


def expected_case_one_cubic(params) -> Poly:
    """The displayed closed form of K, built from its coefficients in a, b, c.

    8K = a^2 y1^3 + b(b-4) y2^3 - c(y1-y2)^2 (4y1 + (4-b)y2)
         + a y1 ((c-4) y1^2 + (b-2c) y1 y2 + (b+c) y2^2), expanded.
    """
    d = derived_constants(params)
    a, b, c = d.a, d.b, d.c
    return Poly(AFFINE_VARS, {
        (0, 0, 0, 3, 0): (a - 4) * (a + c) / 8,
        (0, 0, 0, 2, 1): (a * b - 2 * a * c + b * c + 4 * c) / 8,
        (0, 0, 0, 1, 2): (a * b + a * c - 2 * b * c + 4 * c) / 8,
        (0, 0, 0, 0, 3): (b - 4) * (b + c) / 8,
    })


@dataclass
class CaseOneReport:
    params: TriangleParams
    H: Poly
    K: Poly
    R1: Poly
    R2: Poly
    eta_value: Fraction
    checks: dict


def certify_case_one(params, raise_on_failure=True) -> CaseOneReport:
    """Recompute H, K and the two resultants and check their closed forms.

    Each closed form is built from its coefficients in a, b, c and eta.
    Verifies, all exactly:

    * H equals -(1/4)(a y1^2 + b y2^2 + c (y1-y2)^2),
    * K equals its displayed cubic,
    * Res_{y1}(H, K) == -(1/256) eta y2^6 and Res_{y2}(H, K) == -(1/256) eta y1^6.
    """
    d = derived_constants(params)
    H = case_one_quadric(params)
    K = apply_D(H, params).coefficient_of("y0", 0)  # image of D(H) under y0 -> 0
    R1 = resultant(H, K, "y1")
    R2 = resultant(H, K, "y2")
    e = eta(params)
    expected_H = Poly(AFFINE_VARS, {
        (0, 0, 0, 2, 0): -(d.a + d.c) / 4, (0, 0, 0, 1, 1): d.c / 2,
        (0, 0, 0, 0, 2): -(d.b + d.c) / 4,
    })
    pairs = {
        "H_closed_form": (H, expected_H),
        "K_closed_form": (K, expected_case_one_cubic(params)),
        "R1_identity": (R1, Poly(AFFINE_VARS, {(0, 0, 0, 0, 6): -e / 256})),
        "R2_identity": (R2, Poly(AFFINE_VARS, {(0, 0, 0, 6, 0): -e / 256})),
    }
    checks = {name: got == want for name, (got, want) in pairs.items()}
    failed = [name for name, ok in checks.items() if not ok]
    if raise_on_failure and failed:
        got, want = pairs[failed[0]]
        raise IdentityFailed(f"{failed[0]} failed for params {params.label()}", got - want)
    return CaseOneReport(params, H, K, R1, R2, e, checks)


def stable_principal_ideals():
    """Generators of the four distinguished principal D-stable ideals."""
    g = ring.gens(AFFINE_VARS)
    return {
        "q": g["q"],
        "y0-y1": g["y0"] - g["y1"],
        "y0-y2": g["y0"] - g["y2"],
        "y1-y2": g["y1"] - g["y2"],
    }


def stable_principal_lifts():
    """Homogeneous lifts of the four ideals, in the X variables."""
    g = ring.gens(HOMOG_VARS)
    return {
        "X1": g["X1"],
        "X3-X2": g["X3"] - g["X2"],
        "X4-X2": g["X4"] - g["X2"],
        "X4-X3": g["X4"] - g["X3"],
    }
