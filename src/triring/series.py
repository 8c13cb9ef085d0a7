"""Truncated Puiseux series with honest precision tracking.

A series holds coefficients on the exponent grid ``k / ram`` (``k`` may
be negative) together with ``prec``, the exponent bound below which the
coefficients are certified.  Every operation propagates ``prec``
pessimistically, so no result ever claims more terms than its inputs
support; ``ord`` raises :class:`InconclusiveOrder` instead of guessing
when all certified coefficients vanish.

Coefficients are exact rationals, stored in one form only: integer
numerators ``nums`` (nonzero, keyed by grid step, each step below
``ceil(prec * ram)``) over one positive least common denominator
``den``, whose gcd with all the numerators is 1.  ``coeffs`` reads them
back as ``int`` where integral and ``Fraction`` otherwise.  A float or
complex coefficient is refused with :class:`DomainMismatch`; only
``evaluate`` turns a series into floating values.  Every operation works
on the numerators: a product of two series is one big-integer
multiplication (Kronecker substitution) in ``_int_product`` over the
product of the denominators, the inverse is Newton's iteration on top
of it, and ``exp`` runs its term recurrence over one running
denominator.
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


def _coef(num, den):
    """``num / den`` as an ``int`` when integral, else as a ``Fraction``."""
    return num // den if num % den == 0 else Fraction(num, den)


def _reduce(den, nums):
    """``den`` and ``nums`` divided by their gcd; the gcd loop stops at 1."""
    g = den
    for c in nums.values():
        if g == 1:
            break
        g = gcd(g, c)
    if g == 1:
        return den, nums
    return den // g, {k: c // g for k, c in nums.items()}


class PuiseuxSeries:
    __slots__ = ("ram", "prec", "den", "nums")

    def __init__(self, ram, coeffs, prec):
        if ram < 1:
            raise ValueError("ramification must be a positive integer")
        self.ram = int(ram)
        self.prec = Fraction(prec)
        bound = _ceil_steps(self.prec, self.ram)
        kept = [(k, c) for k, c in coeffs.items() if k < bound and c]
        for _, c in kept:
            if not isinstance(c, _SCALARS):
                raise DomainMismatch(f"coefficient {c!r} is not an exact rational")
        # the lcm of reduced denominators is coprime to the numerators together
        self.den = lcm(*[c.denominator for _, c in kept])
        self.nums = {k: c.numerator * (self.den // c.denominator) for k, c in kept}

    @classmethod
    def _make(cls, ram, prec, den, nums):
        """Trusted: nonzero int ``nums`` below ``ceil(prec * ram)`` over ``den > 0``.

        Cuts nothing; only divides out the gcd of ``den`` and the numerators.
        """
        s = object.__new__(cls)
        s.ram, s.prec = ram, prec
        s.den, s.nums = _reduce(den, nums)
        return s

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

    @property
    def coeffs(self):
        """``{step: coefficient}``, each an ``int`` when integral, else a ``Fraction``."""
        return {k: _coef(c, self.den) for k, c in self.nums.items()}

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
        return not self.nums

    def ord(self):
        """Least exponent with a nonzero certified coefficient."""
        if not self.nums:
            raise InconclusiveOrder(self.prec)
        return Fraction(min(self.nums), self.ram)

    def leading_coeff(self):
        if not self.nums:
            raise InconclusiveOrder(self.prec)
        return _coef(self.nums[min(self.nums)], self.den)

    def normalize_ram(self):
        """Reduce the grid to the coarsest one carrying all exponents."""
        g = self.ram
        for k in self.nums:
            if g == 1:
                break
            g = gcd(g, k)
        if g == 1:
            return self
        nums = {k // g: c for k, c in self.nums.items()}
        return PuiseuxSeries._make(self.ram // g, self.prec, self.den, nums)

    def with_ram(self, new_ram):
        if new_ram % self.ram:
            raise ValueError("new ramification must be a multiple of the old")
        if new_ram == self.ram:
            return self
        f = new_ram // self.ram
        nums = {k * f: c for k, c in self.nums.items()}
        return PuiseuxSeries._make(new_ram, self.prec, self.den, nums)

    def _aligned(self, other):
        r = lcm(self.ram, other.ram)
        return self.with_ram(r), other.with_ram(r)

    def _ord_lower_bound(self):
        # min certified exponent; if nothing stored, the series could
        # still start anywhere at or above prec
        if self.nums:
            return Fraction(min(self.nums), self.ram)
        return self.prec

    # -- arithmetic ---------------------------------------------------------------

    def _combine(self, other, sign):
        """``self + sign * other`` in one pass over the lcm of the denominators."""
        if isinstance(other, _SCALARS):
            other = PuiseuxSeries.constant(other, self.prec, 1)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._aligned(other)
        prec = min(a.prec, b.prec)
        bound = _ceil_steps(prec, a.ram)
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, sign * (den // b.den)
        nums = {k: c * fa for k, c in a.nums.items() if k < bound}
        for k, c in b.nums.items():
            if k < bound:
                nums[k] = nums.get(k, 0) + c * fb
        return PuiseuxSeries._make(a.ram, prec, den, {k: c for k, c in nums.items() if c})

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        nums = {k: -c for k, c in self.nums.items()}
        return PuiseuxSeries._make(self.ram, self.prec, self.den, nums)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return -(self - other)

    def scale(self, factor):
        if not isinstance(factor, _SCALARS):
            raise DomainMismatch(f"factor {factor!r} is not an exact rational")
        if not factor:
            return PuiseuxSeries._make(self.ram, self.prec, 1, {})
        p = factor.numerator
        nums = self.nums if p == 1 else {k: c * p for k, c in self.nums.items()}
        return PuiseuxSeries._make(self.ram, self.prec, self.den * factor.denominator, nums)

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
        nums = _int_product(a.nums, b.nums, _ceil_steps(prec, a.ram))
        return PuiseuxSeries._make(a.ram, prec, a.den * b.den, nums)

    __rmul__ = __mul__

    def shift(self, exponent):
        """Multiply by the exact power x**exponent."""
        e = Fraction(exponent)
        r = lcm(self.ram, e.denominator)
        s = self.with_ram(r)
        off = int(e * r)
        nums = {k + off: c for k, c in s.nums.items()}
        return PuiseuxSeries._make(r, s.prec + e, s.den, nums)

    def truncate(self, new_prec):
        new_prec = min(self.prec, Fraction(new_prec))
        bound = _ceil_steps(new_prec, self.ram)
        nums = {k: c for k, c in self.nums.items() if k < bound}
        return PuiseuxSeries._make(self.ram, new_prec, self.den, nums)

    def differentiate(self):
        """d/dx with respect to the series' own variable."""
        r = self.ram
        nums = {k - r: c * k for k, c in self.nums.items() if k}
        return PuiseuxSeries._make(r, self.prec - 1, self.den * r, nums)

    def invert(self):
        """Multiplicative inverse; needs an exposed nonzero leading term.

        f = sign (g / den) x^(m/ram), with g the numerators times ``sign``
        on steps k - m, so that g_0 > 0.  Newton's iteration
        ``v <- v + v (1 - (g / g_0) v)`` on ``v = w / d`` doubles the number
        of known steps of v = g_0 / g each round, and
        1/f = sign (den / g_0) x^(-m/ram) v.
        """
        if not self.nums:
            raise NonUnitInverse("no certified nonzero leading coefficient")
        m = min(self.nums)
        sign = 1 if self.nums[m] > 0 else -1
        n = max(int((self.prec * self.ram).__floor__()) - m, 1)
        g = {k - m: sign * c for k, c in self.nums.items()}
        w, d = {0: 1}, 1
        known = 1
        while known < n:
            known = min(2 * known, n)
            # the steps of g a round reads, over their own least common
            # denominator, which is far smaller than den in early rounds
            _, h = _reduce(self.den, {k: c for k, c in g.items() if k < known})
            c0 = h[0]
            # (h / c0) v is 1 below the old step count, so err starts there
            err = {k: -c for k, c in _int_product(h, w, known).items() if k}
            e, err = _reduce(c0 * d, err)
            # v + v err = (w e + w err) / (d e); w err starts at the old count
            step = _int_product(w, err, known)
            w = {k: c * e for k, c in w.items()}
            w.update(step)
            d, w = _reduce(d * e, w)
        nums = {k - m: sign * self.den * c for k, c in w.items()}
        prec = self.prec - 2 * Fraction(m, self.ram)
        return PuiseuxSeries._make(self.ram, prec, g[0] * d, nums)

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(1 / Fraction(other))
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self * other.invert()

    def exp(self):
        """exp of a series of positive order (composition with exp at 0)."""
        n = _ceil_steps(self.prec, self.ram)
        if not self.nums:
            return PuiseuxSeries._make(self.ram, self.prec, 1, {0: 1} if n > 0 else {})
        if min(self.nums) <= 0:
            raise NonpositiveOrder("exp needs ord > 0")
        # (k/r) out_k = sum_j (j/r) f_j out_{k-j}  from  out' = f' out, on
        # integers: j f_j = j nums[j] / d, and out_i = num[i] / den over a
        # common denominator that grows (rescaling num) only when out_k needs
        # it, so den ends as the least common denominator
        d = self.den
        terms = [(j, j * c) for j, c in sorted(self.nums.items())]
        num = [1] + [0] * (n - 1)
        den = 1
        for k in range(1, n):
            acc = 0
            for j, w in terms:
                if j > k:
                    break
                acc += w * num[k - j]
            if acc:
                q = d * den * k
                g = gcd(acc, q)
                acc, q = acc // g, q // g
                if den % q:
                    grow = q // gcd(den, q)
                    for i in range(k):
                        num[i] *= grow
                    den *= grow
                num[k] = acc * (den // q)
        nums = {k: c for k, c in enumerate(num) if c}
        return PuiseuxSeries._make(self.ram, self.prec, den, nums)

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
        for k, c in sorted(self.nums.items()):
            total += (c / self.den) * cmath.exp(logx * (k / self.ram))
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
        # an empty series is written with its prec as the base exponent
        prec = base + Fraction(n + 1, ram) if obj["coeffs"] else base
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
        return a.prec == b.prec and a.den == b.den and a.nums == b.nums

    def __repr__(self):
        parts = []
        for e, c in self.exponent_items()[:8]:
            parts.append(f"({c})*x^({e})")
        tail = " + ..." if len(self.nums) > 8 else ""
        body = " + ".join(parts) if parts else "0"
        return f"PuiseuxSeries({body}{tail} + O(x^({self.prec})))"


# -- integer kernel --------------------------------------------------------------------


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
