"""Small exact polynomial arithmetic of the benchmark's own.

Polynomials are dicts from exponent tuples over ``VARS`` to ``Fraction``
coefficients, with no zero coefficient stored.  The benchmark builds
its inputs with these functions and re-expands the program's
certificates with them, so no check relies on the program's own
polynomial arithmetic.
"""

import math
from fractions import Fraction

VARS = ("tau", "q", "y0", "y1", "y2")


def const(c):
    c = Fraction(c)
    return {(0,) * len(VARS): c} if c else {}


def var(name, exponent=1):
    exps = [0] * len(VARS)
    exps[VARS.index(name)] = exponent
    return {tuple(exps): Fraction(1)}


def add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def sub(p, q):
    return add(p, q, -1)


def scale(p, c):
    c = Fraction(c)
    return {e: v * c for e, v in p.items()} if c else {}


def mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def power(p, n):
    out = const(1)
    for _ in range(n):
        out = mul(out, p)
    return out


def product(factors):
    out = const(1)
    for f in factors:
        out = mul(out, f)
    return out


def evaluate(p, point):
    """Value at ``point``, a tuple of numbers in the order of ``VARS``."""
    return sum(c * math.prod(x ** e for x, e in zip(point, exps) if e) for exps, c in p.items())


def degree_in(p, name):
    i = VARS.index(name)
    return max((e[i] for e in p), default=-1)
