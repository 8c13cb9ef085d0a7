"""Fixed data shared by the benchmark's processes.

Kept free of imports so that the set-up probe can read it before it
starts its clock.  A triple is written by its three denominators:
``(5, 4, 2)`` stands for ``alpha, beta, gamma = 1/5, 1/4, 1/2``.
"""

WORKLOADS = ("audit", "expand", "orders", "certify")

# audit: bound_audit jobs over a few triples at a fixed truncation order; a
# job on a box of m monomials draws round(AUDIT_TERMS / m) samples, so every
# job makes about AUDIT_TERMS scale+add steps and the per-sample work, not the
# monomial box, takes most of its time, as in the program's own callers
AUDIT_TRIPLES = ((5, 4, 2), (7, 3, 2), (8, 6, 3))
AUDIT_ORDER = 4
AUDIT_TERMS = 1600

# orders: exact orders start at ORDERS_EXACT_N and double on retry;
# generic-point orders use ORDERS_GENERIC_N
ORDERS_TRIPLES = ((5, 4, 2), (7, 3, 2), (8, 6, 3))
ORDERS_EXACT_N = 8
ORDERS_GENERIC_N = 24

# expand: a spread of the eta_scan triples, with gamma = 1/2, 1/3 and 1/4,
# and the hyper expand calls (point, order) made for each triple; the expansion
# at 0 costs about half of one at 1 or infinity, so it also runs at order
# 48, and the middle call of each block, (0, 40), sits apart from the rest
EXPAND_TRIPLES = ((5, 4, 2), (7, 3, 2), (8, 6, 3), (13, 4, 3), (11, 9, 4), (22, 4, 3))
EXPAND_CALLS = (("0", 24), ("0", 40), ("0", 48), ("1", 24), ("1", 40), ("inf", 24), ("inf", 40))

# the generator series each workload's jobs read from the lazy cache
WARM_SERIES = {
    "audit": tuple((t, n) for t in AUDIT_TRIPLES for n in (AUDIT_ORDER, 2 * AUDIT_ORDER)),
    "orders": tuple(
        (t, n) for t in ORDERS_TRIPLES for n in (ORDERS_EXACT_N, 2 * ORDERS_EXACT_N)
    ),
    "expand": (),
    "certify": (),
}

# modules each workload calls, imported during set-up
MODULES = {
    "audit": ("triring",),
    "expand": ("triring", "triring.cli"),
    "orders": ("triring",),
    "certify": ("triring",),
}


def warm_up(triring, workload):
    """Fill the lazy caches the workload's jobs read; part of set-up."""
    from fractions import Fraction  # loaded by triring already

    for (a, b, c), n in WARM_SERIES[workload]:
        params = triring.validate(Fraction(1, a), Fraction(1, b), Fraction(1, c))
        triring.multiplicity.generator_series(params, n)
