"""The reference kernel: a fixed piece of pure-Python work.

One execution of :func:`reference_kernel` is the unit ``ref``.  The
kernel runs just before every timed job, and each job's time is divided
by it, so that a change in the host's speed during a run cancels out.
It multiplies two fixed sparse polynomials with ``Fraction``
coefficients of 40 to 80 bits, stored in dicts keyed by exponent
tuples: the same kind of work the toolkit does, on numbers of the size
its series carry.  Never change it: every recorded figure in ``ref``
depends on it.
"""

from fractions import Fraction

_LEFT = {
    (i, j, k): Fraction((7 * i + 3 * j + k + 1) * (10 ** 12 + i), (j + 2) * (k + 3))
    for i in range(5)
    for j in range(6)
    for k in range(3)
}
_RIGHT = {
    (i, j): Fraction((3 * i - j + 1) * (10 ** 9 + 7), (i + 2) * (i * j + 1))
    for i in range(5)
    for j in range(5)
    if 3 * i - j + 1
}


def reference_kernel():
    """Sparse product of the two fixed polynomials; returns a checksum."""
    out = {}
    for (i1, j1, k1), c1 in _LEFT.items():
        for (i2, j2), c2 in _RIGHT.items():
            key = (i1 + i2, j1 + j2, k1)
            acc = out.get(key)
            out[key] = c1 * c2 if acc is None else acc + c1 * c2
    return len(out), out[(8, 9, 2)]


#: what :func:`reference_kernel` returns; a run whose kernel disagrees stops
KERNEL_CHECKSUM = (270, Fraction(4058823557839764705996, 35))
