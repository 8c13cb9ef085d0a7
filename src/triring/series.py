"""Truncated Puiseux series with honest precision tracking.

A series holds coefficients on the exponent grid ``k / ram`` (``k`` may
be negative) together with ``prec``, the exponent bound below which the
coefficients are certified.  Every operation propagates ``prec``
pessimistically, so no result ever claims more terms than its inputs
support; ``ord`` raises :class:`InconclusiveOrder` instead of guessing
when all certified coefficients vanish.

Coefficients are exact: ``int`` or ``Fraction``.  A float or complex
coefficient is refused with :class:`DomainMismatch`; only ``evaluate``
turns a series into floating values.  A product of two series is one
big-integer multiplication (Kronecker substitution) in ``_int_product``,
a kernel on integer coefficients that the exact z = 0 orders share, and
the inverse is Newton's iteration on top of it.  ``exp`` runs its term
recurrence on integers over one common denominator and makes each
coefficient's ``Fraction`` once.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DomainMismatch,
    InconclusiveOrder,
    NonpositiveOrder,
    NonUnitInverse,
)

RATIONAL = "rational"

_SCALARS = (int, Fraction)


def _ceil_steps(prec, ram):
    """The least integer ``k`` with ``k >= prec * ram``."""
    return -(-prec.numerator * ram // prec.denominator)


class PuiseuxSeries:
    __slots__ = ("ram", "coeffs", "prec")

    def __init__(self, ram, coeffs, prec):
        if ram < 1:
            raise ValueError("ramification must be a positive integer")
        self.ram = int(ram)
        self.prec = Fraction(prec)
        bound = _ceil_steps(self.prec, self.ram)
        self.coeffs = {k: c for k, c in coeffs.items() if k < bound and c}
        for c in self.coeffs.values():
            if not isinstance(c, _SCALARS):
                raise DomainMismatch(f"coefficient {c!r} is not an exact rational")

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zero(cls, prec, ram=1):
        return cls(ram, {}, prec)

    @classmethod
    def constant(cls, value, prec, ram=1):
        return cls(ram, {0: value}, prec)

    @classmethod
    def x_power(cls, exponent, prec, coef=Fraction(1)):
        e = Fraction(exponent)
        r = e.denominator
        return cls(r, {e.numerator: coef}, prec)

    @classmethod
    def from_exponent_map(cls, mapping, prec):
        """Build from ``{exponent (Fraction): coefficient}``."""
        r = 1
        for e in mapping:
            r = lcm(r, Fraction(e).denominator)
        coeffs = {int(Fraction(e) * r): c for e, c in mapping.items()}
        return cls(r, coeffs, prec)

    # -- views ------------------------------------------------------------------

    def exponent_items(self):
        """Sorted ``(exponent, coefficient)`` pairs."""
        return [(Fraction(k, self.ram), c) for k, c in sorted(self.coeffs.items())]

    def coefficient(self, exponent):
        e = Fraction(exponent)
        if e >= self.prec:
            raise InconclusiveOrder(self.prec)
        k = e * self.ram
        if k.denominator != 1:
            return Fraction(0)
        return self.coeffs.get(k.numerator, Fraction(0))

    def is_zero_to_prec(self):
        return not self.coeffs

    def ord(self):
        """Least exponent with a nonzero certified coefficient."""
        if not self.coeffs:
            raise InconclusiveOrder(self.prec)
        return Fraction(min(self.coeffs), self.ram)

    def leading_coeff(self):
        if not self.coeffs:
            raise InconclusiveOrder(self.prec)
        return self.coeffs[min(self.coeffs)]

    def normalize_ram(self):
        """Reduce the grid to the coarsest one carrying all exponents."""
        g = self.ram
        for k in self.coeffs:
            g = gcd(g, k)
            if g == 1:
                return self
        if g == self.ram and not self.coeffs:
            return PuiseuxSeries(1, {}, self.prec)
        return PuiseuxSeries(
            self.ram // g, {k // g: c for k, c in self.coeffs.items()}, self.prec
        )

    def with_ram(self, new_ram):
        if new_ram % self.ram:
            raise ValueError("new ramification must be a multiple of the old")
        if new_ram == self.ram:
            return self
        f = new_ram // self.ram
        return PuiseuxSeries(new_ram, {k * f: c for k, c in self.coeffs.items()}, self.prec)

    def _aligned(self, other):
        r = lcm(self.ram, other.ram)
        return self.with_ram(r), other.with_ram(r)

    def _ord_lower_bound(self):
        # min certified exponent; if nothing stored, the series could
        # still start anywhere at or above prec
        if self.coeffs:
            return Fraction(min(self.coeffs), self.ram)
        return self.prec

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = PuiseuxSeries.constant(other, self.prec, 1)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._aligned(other)
        prec = min(a.prec, b.prec)
        coeffs = dict(a.coeffs)
        for k, c in b.coeffs.items():
            acc = coeffs.get(k)
            coeffs[k] = c if acc is None else acc + c
        return PuiseuxSeries(a.ram, coeffs, prec)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries(self.ram, {k: -c for k, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = PuiseuxSeries.constant(other, self.prec, 1)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._aligned(other)
        prec = min(a.prec, b.prec)
        coeffs = dict(a.coeffs)
        for k, c in b.coeffs.items():
            acc = coeffs.get(k)
            coeffs[k] = -c if acc is None else acc - c
        return PuiseuxSeries(a.ram, coeffs, prec)

    def __rsub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return -(self - other)

    def scale(self, factor):
        return PuiseuxSeries(
            self.ram, {k: factor * c for k, c in self.coeffs.items()}, self.prec
        )

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._aligned(other)
        prec = min(
            a.prec + b._ord_lower_bound(),
            b.prec + a._ord_lower_bound(),
        )
        bound = _ceil_steps(prec, a.ram)
        return PuiseuxSeries(a.ram, _exact_product(a.coeffs, b.coeffs, bound), prec)

    __rmul__ = __mul__

    def shift(self, exponent):
        """Multiply by the exact power x**exponent."""
        e = Fraction(exponent)
        r = lcm(self.ram, e.denominator)
        s = self.with_ram(r)
        off = int(e * r)
        return PuiseuxSeries(r, {k + off: c for k, c in s.coeffs.items()}, s.prec + e)

    def truncate(self, new_prec):
        new_prec = min(self.prec, Fraction(new_prec))
        return PuiseuxSeries(self.ram, self.coeffs, new_prec)

    def differentiate(self):
        """d/dx with respect to the series' own variable."""
        coeffs = {
            k - self.ram: c * Fraction(k, self.ram) for k, c in self.coeffs.items() if k
        }
        return PuiseuxSeries(self.ram, coeffs, self.prec - 1)

    def invert(self):
        """Multiplicative inverse; needs an exposed nonzero leading term."""
        if not self.coeffs:
            raise NonUnitInverse("no certified nonzero leading coefficient")
        m = min(self.coeffs)
        c0 = self.coeffs[m]
        inv_c0 = Fraction(1) / c0
        # h = f / (c0 x^(m/ram)) - 1, known below prec - m/ram
        h = {k - m: c * inv_c0 for k, c in self.coeffs.items() if k != m}
        h_prec_steps = int((self.prec * self.ram).__floor__()) - m
        u = _exact_reciprocal(h, max(h_prec_steps, 1))
        prec = self.prec - 2 * Fraction(m, self.ram)
        coeffs = {k - m: c * inv_c0 for k, c in u.items()}
        return PuiseuxSeries(self.ram, coeffs, prec)

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(1 / Fraction(other))
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self * other.invert()

    def exp(self):
        """exp of a series of positive order (composition with exp at 0)."""
        if not self.coeffs:
            return PuiseuxSeries(self.ram, {0: Fraction(1)}, self.prec)
        if min(self.coeffs) <= 0:
            raise NonpositiveOrder("exp needs ord > 0")
        # (k/r) out_k = sum_j (j/r) f_j out_{k-j}  from  out' = f' out, on
        # integers: j f_j = w_j / d, and out_i = num[i] / den over a common
        # denominator that grows (rescaling num) only when out_k needs it
        d = lcm(*[c.denominator for c in self.coeffs.values()])
        terms = [
            (j, j * c.numerator * (d // c.denominator)) for j, c in sorted(self.coeffs.items())
        ]
        n = _ceil_steps(self.prec, self.ram)
        num = [1] + [0] * (n - 1)
        den = 1
        out = {0: Fraction(1)}
        for k in range(1, n):
            acc = 0
            for j, w in terms:
                if j > k:
                    break
                acc += w * num[k - j]
            if acc:
                c = Fraction(acc, d * den * k)
                q = c.denominator
                if den % q:
                    grow = q // gcd(den, q)
                    for i in range(k):
                        num[i] *= grow
                    den *= grow
                num[k] = c.numerator * (den // q)
                out[k] = c
        return PuiseuxSeries(self.ram, out, self.prec)

    def scale_argument(self, factor):
        """Replace x by factor*x; integer exponent grids only."""
        if self.ram != 1:
            raise ValueError("argument scaling needs an integer exponent grid")
        return PuiseuxSeries(
            1, {k: c * factor ** k for k, c in self.coeffs.items()}, self.prec
        )

    # -- evaluation and serialization ------------------------------------------------

    def evaluate(self, x):
        """Principal-branch numeric evaluation at a complex point."""
        x = complex(x)
        total = 0j
        logx = cmath.log(x)
        for k, c in sorted(self.coeffs.items()):
            total += complex(c) * cmath.exp(logx * (k / self.ram))
        return total

    def to_json_obj(self):
        values = {k: str(c) for k, c in self.coeffs.items()}
        return series_json_obj(self.ram, self.prec, values, RATIONAL)

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj):
        ram = int(obj["ram"])
        base = Fraction(obj["base_exponent"])
        n = int(obj["truncation"])
        prec = base + Fraction(n + 1, ram)
        base_k = int(base * ram)
        coeffs = {base_k + int(item["k"]): _coef_unjson(item["value"]) for item in obj["coeffs"]}
        return cls(ram, coeffs, prec)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_obj(json.loads(text))

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._aligned(other)
        return a.coeffs == b.coeffs and a.prec == b.prec

    def __repr__(self):
        parts = []
        for e, c in self.exponent_items()[:8]:
            parts.append(f"({c})*x^({e})")
        tail = " + ..." if len(self.coeffs) > 8 else ""
        body = " + ".join(parts) if parts else "0"
        return f"PuiseuxSeries({body}{tail} + O(x^({self.prec})))"


# -- exact kernel ----------------------------------------------------------------------


def _exact_product(a, b, bound):
    """The coefficients below ``bound`` of the product of two exact series.

    ``a`` and ``b`` map grid steps to ``int``/``Fraction`` coefficients on
    one grid.  Terms that cannot land below ``bound`` are dropped first;
    each operand is then scaled to integer numerators over the lcm of its
    denominators and multiplied by ``_int_product``.  Integral results
    come back as ``int``.
    """
    if not a or not b:
        return {}
    a_min, b_min = min(a), min(b)
    a = [(k, c) for k, c in a.items() if k < bound - b_min]
    b = [(k, c) for k, c in b.items() if k < bound - a_min]
    if not a or not b:
        return {}
    da = lcm(*{c.denominator for _, c in a})
    db = lcm(*{c.denominator for _, c in b})
    a = {k: c.numerator * (da // c.denominator) for k, c in a}
    b = {k: c.numerator * (db // c.denominator) for k, c in b}
    product = _int_product(a, b, bound)
    d = da * db
    if d == 1:
        return product
    out = {}
    for k, c in product.items():
        q = Fraction(c, d)
        out[k] = q.numerator if q.denominator == 1 else q
    return out


def _int_product(a, b, bound):
    """The coefficients below ``bound`` of the product of two integer series.

    ``a`` and ``b`` map grid steps to ``int`` coefficients on one grid.
    The terms that can land below ``bound`` are compressed by the common
    stride of their steps, packed into one integer each with fixed-width
    signed digits (Kronecker substitution) and multiplied once; the
    nonzero digits come back as ``int`` coefficients.
    """
    if not a or not b:
        return {}
    a_min, b_min = min(a), min(b)
    a, last_a, big_a = _cut(a, a_min, bound - b_min)
    b, last_b, big_b = _cut(b, b_min, bound - a_min)
    if not a or not b:
        return {}
    g = _stride(a, b)
    if g > 1:
        a = [(k // g, c) for k, c in a]
        b = [(k // g, c) for k, c in b]
    len_a = last_a // g + 1
    len_b = last_b // g + 1
    # a product digit sums at most min(len_a, len_b) products; one more bit
    # holds its sign
    bits = big_a.bit_length() + big_b.bit_length() + min(len_a, len_b).bit_length() + 1
    width = (bits + 7) // 8
    half = 1 << (8 * width - 1)
    n = len_a + len_b - 1
    # the product's digits are signed; adding half to each one makes it
    # nonnegative without a carry
    product = _pack(a, len_a, width, half) * _pack(b, len_b, width, half)
    product += half * _repunit(width, n)
    raw = product.to_bytes(n * width, "little")
    stop = min(n, -(-(bound - a_min - b_min) // g))
    out = {}
    base = a_min + b_min
    for i in range(stop):
        c = int.from_bytes(raw[i * width:(i + 1) * width], "little") - half
        if c:
            out[base + i * g] = c
    return out


def _cut(terms, low, cut):
    """The ``(k - low, c)`` pairs with ``k < cut``, their last step and largest ``|c|``."""
    out = []
    last = big = 0
    for k, c in terms.items():
        if k < cut:
            k -= low
            out.append((k, c))
            if k > last:
                last = k
            if c > big:
                big = c
            elif -c > big:
                big = -c
    return out, last, big


def _stride(a, b):
    """The gcd of the steps of the ``(k, c)`` pairs of ``a`` and ``b``; 1 if all are 0."""
    g = 0
    for terms in (a, b):
        for k, _ in terms:
            g = gcd(g, k)
            if g == 1:
                return 1
    return g or 1


def _pack(terms, length, width, half):
    """``sum c * B^k`` for the ``(k, c)`` pairs, ``B = 2^(8 width)``, ``|c| < half``."""
    digits = [half] * length
    for k, c in terms:
        digits[k] = c + half
    packed = int.from_bytes(b"".join(x.to_bytes(width, "little") for x in digits), "little")
    return packed - half * _repunit(width, length)


def _repunit(width, n):
    """``1 + B + ... + B^(n-1)`` for ``B = 2^(8 width)``."""
    return int.from_bytes(b"\x01".ljust(width, b"\x00") * n, "little")


def _exact_reciprocal(h, n):
    """``1 / (1 + h)`` below step ``n`` for exact ``h`` of positive steps.

    Newton's iteration ``v <- v + v (1 - (1 + h) v)`` doubles the number
    of known steps each round.
    """
    one_plus_h = dict(h)
    one_plus_h[0] = 1
    v = {0: 1}
    known = 1
    while known < n:
        known = min(2 * known, n)
        # (1 + h) v is 1 below the old step count, so err starts there
        err = {k: -c for k, c in _exact_product(one_plus_h, v, known).items() if k}
        v.update(_exact_product(v, err, known))
    return v


def series_json_obj(ram, prec, values, domain):
    """The JSON layout of a series on the grid ``k / ram`` known below ``prec``.

    ``values`` maps each stored ``k`` to its coefficient's JSON value; the
    layout stores ``k`` as an offset from the leading exponent.
    """
    base = Fraction(min(values), ram) if values else prec
    n_steps = int(((prec - base) * ram).__ceil__()) - 1
    base_k = int(base * ram)
    coeffs = [{"k": k - base_k, "value": v} for k, v in sorted(values.items())]
    return {
        "ram": ram,
        "base_exponent": str(base),
        "coeffs": coeffs,
        "truncation": max(n_steps, 0),
        "domain": domain,
    }


def _coef_unjson(v):
    if isinstance(v, str):
        return Fraction(v)
    raise DomainMismatch(f"cannot deserialize coefficient {v!r}")
