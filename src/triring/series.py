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
on the numerators: a product of two series is the integer kernel
``_int_product`` over the product of the denominators, the inverse is
Newton's iteration on top of it, and ``exp`` runs its term recurrence
over one running denominator.  ``json_text`` writes the JSON text of a
series straight from the numerators, one gcd per coefficient.

A product needs only its terms below the truncation bound, and the
kernel takes one of two paths by the size of the operands' largest
coefficients (``_SHORT_PRODUCT_BITS``).  The short product computes
each coefficient product that lands below the bound, about n^2 / 2 of
them, and no other.  The Kronecker product packs each operand into one
integer, with digits wide enough for any product coefficient, and
multiplies once (Kronecker substitution); it computes the whole
product and drops the part past the bound.  CPython multiplies big
ints by Karatsuba alone, so the one multiplication pays only once the
coefficients are large.

Two products skip the kernel.  A factor of one term c0 x^k0
is a shift of the other operand's keys and a scale of its numerators,
and ``geometric`` multiplies by 1 / (1 - sigma x) as a running sum
along each residue class of the steps; both keep the product's
``prec`` and cut.  Every result divides out the gcd of its denominator
and numerators, but only where one can appear is it scanned for:

- none where the numbers are those of a reduced input (``shift``,
  ``with_ram``, ``normalize_ram``, negation, a ``truncate`` that cuts
  nothing), where the denominator is built as the least common one
  (``exp``; ``hypergeom._term_series``), or for an uncut running sum,
  whose input steps are differences of its output steps;
- from ``|p| q`` for ``scale(p/q)`` and from ``|c0| den0`` for an uncut
  product by the one term c0 x^k0 over den0: of two reduced factors'
  product, the gcd divides what the new factor brings;
- in full for sums, other products, ``differentiate``, ``invert`` and
  any result that cut a stored step, since a cut can leave numerators
  that share a factor with the denominator.
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


def _reduce(den, nums, g=None):
    """``den`` and ``nums`` divided by their gcd; the gcd loop stops at 1.

    ``g``, when given, is a multiple of that gcd known in advance, and the
    loop starts from ``gcd(den, g)`` instead of ``den``.
    """
    g = den if g is None else gcd(den, g)
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
    def _make(cls, ram, prec, den, nums, g=None):
        """Trusted: nonzero int ``nums`` below ``ceil(prec * ram)`` over ``den > 0``.

        Cuts nothing; only divides out the gcd of ``den`` and the numerators,
        scanning them from ``gcd(den, g)`` when ``g`` is a known multiple of
        that gcd (see the module docstring for where one is known).
        """
        s = object.__new__(cls)
        s.ram, s.prec = ram, prec
        s.den, s.nums = _reduce(den, nums, g)
        return s

    @classmethod
    def _reduced(cls, ram, prec, den, nums):
        """Trusted like ``_make``, with ``gcd(den, *nums) == 1`` already: no scan."""
        s = object.__new__(cls)
        s.ram, s.prec, s.den, s.nums = ram, prec, den, nums
        return s

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zero(cls, prec, ram=1):
        return cls(ram, {}, prec)

    @classmethod
    def constant(cls, value, prec, ram=1):
        return cls(ram, {0: value}, prec)

    @classmethod
    def x_power(cls, exponent, prec):
        e = Fraction(exponent)
        r = e.denominator
        return cls(r, {e.numerator: 1}, prec)

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
        return PuiseuxSeries._reduced(self.ram // g, self.prec, self.den, nums)

    def with_ram(self, new_ram):
        if new_ram % self.ram:
            raise ValueError("new ramification must be a multiple of the old")
        if new_ram == self.ram:
            return self
        f = new_ram // self.ram
        nums = {k * f: c for k, c in self.nums.items()}
        return PuiseuxSeries._reduced(new_ram, self.prec, self.den, nums)

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
        return PuiseuxSeries._reduced(self.ram, self.prec, self.den, nums)

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
            return PuiseuxSeries._reduced(self.ram, self.prec, 1, {})
        p, q = factor.numerator, factor.denominator
        nums = self.nums if p == 1 else {k: c * p for k, c in self.nums.items()}
        # a common factor of den * q and the numerators p c divides |p| q
        return PuiseuxSeries._make(self.ram, self.prec, self.den * q, nums, abs(p) * q)

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
        if len(a.nums) == 1:  # a one-term operand goes to b
            a, b = b, a
        if len(b.nums) != 1:
            nums = _int_product(a.nums, b.nums, bound)
            return PuiseuxSeries._make(a.ram, prec, a.den * b.den, nums)
        # b is one term c0 x^(k0 / ram): a key shift and a scale of a's
        # numerators.  If none is cut, a common factor of the den and the
        # numerators c0 c divides |c0| b.den, since a and b are reduced
        ((k0, c0),) = b.nums.items()
        nums = {k + k0: c * c0 for k, c in a.nums.items() if k + k0 < bound}
        g = abs(c0) * b.den if len(nums) == len(a.nums) else None
        return PuiseuxSeries._make(a.ram, prec, a.den * b.den, nums, g)

    __rmul__ = __mul__

    def shift(self, exponent):
        """Multiply by the exact power x**exponent."""
        e = Fraction(exponent)
        r = lcm(self.ram, e.denominator)
        s = self.with_ram(r)
        off = int(e * r)
        nums = {k + off: c for k, c in s.nums.items()}
        return PuiseuxSeries._reduced(r, s.prec + e, s.den, nums)

    def truncate(self, new_prec):
        new_prec = min(self.prec, Fraction(new_prec))
        bound = _ceil_steps(new_prec, self.ram)
        if max(self.nums, default=bound - 1) < bound:
            return PuiseuxSeries._reduced(self.ram, new_prec, self.den, self.nums)
        nums = {k: c for k, c in self.nums.items() if k < bound}
        return PuiseuxSeries._make(self.ram, new_prec, self.den, nums)

    def geometric(self, sigma, known):
        """``self * F`` for F = 1 / (1 - sigma x), sigma = 1 or -1, known below x**known.

        F stores sigma**n x**n for n < known, as ``binomial_series(-1, N,
        -sigma)`` does with known N + 1; the result is ``self * F`` in
        ``prec``, ``den`` and ``nums``, with no product: out_k = s_k +
        sigma out_(k - ram), a running sum along each residue class of the
        steps of s = self.  The product stops below known + ord(self), so
        F's cut never shows.  If no step of s is cut, den is already
        reduced: a common factor of den and every out_k divides every
        s_k = out_k - sigma out_(k - ram).
        """
        r = self.ram
        # F's order is 0, or known when F is empty (known <= 0), and then
        # the bound cuts every step of s
        prec = min(self.prec + min(0, known), known + self._ord_lower_bound())
        bound = _ceil_steps(prec, r)
        t = {k: c for k, c in self.nums.items() if k < bound}
        starts = {}  # the first step of t in each residue class mod r
        for k in t:
            i = k % r
            if k < starts.get(i, bound):
                starts[i] = k
        nums = {}
        for first in starts.values():
            acc = 0
            for k in range(first, bound, r):
                acc = t.get(k, 0) + acc if sigma == 1 else t.get(k, 0) - acc
                if acc:
                    nums[k] = acc
        if len(t) == len(self.nums):
            return PuiseuxSeries._reduced(r, prec, self.den, nums)
        return PuiseuxSeries._make(r, prec, self.den, nums)

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
            return PuiseuxSeries._reduced(self.ram, self.prec, 1, {0: 1} if n > 0 else {})
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
        return PuiseuxSeries._reduced(self.ram, self.prec, den, nums)

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

    def json_text(self, newline="\n"):
        """``json.dumps(self.to_json_obj(), sort_keys=True, indent=2)`` at ``newline``."""
        den = self.den
        return series_json_text(
            self.ram, self.prec, self.nums, RATIONAL, newline, lambda c, _: rational_text(c, den)
        )

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


#: Operands whose two largest coefficients have at most this many bits
#: together take the short product, larger ones the Kronecker product.
#: Measured on 1/5,1/4,1/2 (2-core x86-64, Python 3.11), time in products
#: short over Kronecker: 0.58, 0.58 and 0.45 on one block each of the
#: benchmark's orders, expand and audit workloads (at most 49 terms and
#: 1,432 bits), 0.41 to 0.85 on each product of ``bench/series_micro.py``
#: at N <= 96; ``generator_series`` at N = 256 spends 1.03 times the
#: Kronecker time in products with this bound and 1.39 times with 4096,
#: as its 257-term products at 2,946 to 3,898 bits run 1.03 to 1.66 times
#: slower short.  A coefficient of these 2F1 series grows by about 12
#: bits a term; long operands of far smaller coefficients would be faster
#: on the Kronecker side, and no caller makes them.
_SHORT_PRODUCT_BITS = 2048


def _int_product(a, b, bound):
    """The coefficients below ``bound`` of the product of two integer series.

    ``a`` and ``b`` map grid steps to ``int`` coefficients on one grid;
    the result maps steps to the nonzero ``int`` coefficients.  ``a is
    b`` is a square.  The path is chosen by coefficient size: see
    ``_SHORT_PRODUCT_BITS``.
    """
    if not a or not b:
        return {}
    if _bits(a) + _bits(b) <= _SHORT_PRODUCT_BITS:
        return _short_product(a, b, bound)
    return _kronecker_product(a, b, bound)


def _bits(terms):
    """The bit length of the largest ``|c|`` of a nonempty ``{k: c}``."""
    return max(map(abs, terms.values())).bit_length()


def _short_product(a, b, bound):
    """``_int_product`` term by term, computing only the products below ``bound``.

    Each term of ``a`` walks the steps of ``b`` in increasing order and
    stops at ``bound`` less its own step; a square takes the diagonal once
    and each product above it doubled.
    """
    out = {}
    get = out.get
    if a is b:
        terms = sorted(a.items())
        for i, (k, c) in enumerate(terms):
            stop = bound - k
            if k >= stop:  # every later pair lands at 2k or above
                break
            out[2 * k] = get(2 * k, 0) + c * c
            c += c
            for k2, c2 in terms[i + 1:]:
                if k2 >= stop:
                    break
                out[k + k2] = get(k + k2, 0) + c * c2
    else:
        terms = sorted(b.items())
        for k, c in a.items():
            stop = bound - k
            for k2, c2 in terms:
                if k2 >= stop:
                    break
                out[k + k2] = get(k + k2, 0) + c * c2
    return {k: c for k, c in out.items() if c}


def _kronecker_product(a, b, bound):
    """``_int_product`` of nonempty operands as one big-integer multiplication.

    The terms that can land below ``bound`` are compressed by the common
    stride of their steps, packed into one integer each with fixed-width
    signed digits and multiplied once (Kronecker substitution); the nonzero
    digits below ``bound`` come back as ``int`` coefficients.  A square
    packs once.
    """
    square = a is b
    a_min, b_min = min(a), min(b)
    a, last_a, big_a = _cut(a, a_min, bound - b_min)
    b, last_b, big_b = (a, last_a, big_a) if square else _cut(b, b_min, bound - a_min)
    if not a or not b:
        return {}
    g = _stride(a, b)
    if g > 1:
        a = [(k // g, c) for k, c in a]
        b = a if square else [(k // g, c) for k, c in b]
    len_a = last_a // g + 1
    len_b = last_b // g + 1
    # a product digit sums at most min(len_a, len_b) products; one more bit
    # holds its sign
    bits = big_a.bit_length() + big_b.bit_length() + min(len_a, len_b).bit_length() + 1
    width = (bits + 7) // 8
    half = 1 << (8 * width - 1)
    n = len_a + len_b - 1
    # the product's digits are signed; adding half to each one makes it
    # nonnegative without a carry.  A square packs once and multiplies the
    # int by itself, which CPython squares faster than a product
    packed = _pack(a, len_a, width, half)
    product = packed * (packed if square else _pack(b, len_b, width, half))
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


def _json_layout(ram, prec, steps):
    """``(base_exponent, base_step, truncation)`` of a series with the stored ``steps``.

    The layout stores each step as an offset from the leading one; an
    empty series is written with ``prec`` as its base exponent.
    """
    base = Fraction(min(steps), ram) if steps else prec
    n_steps = int(((prec - base) * ram).__ceil__()) - 1
    return base, int(base * ram), max(n_steps, 0)


def series_json_obj(ram, prec, values, domain):
    """The JSON layout of a series on the grid ``k / ram`` known below ``prec``.

    ``values`` maps each stored ``k`` to its coefficient's JSON value; the
    layout stores ``k`` as an offset from the leading exponent.
    """
    base, base_k, truncation = _json_layout(ram, prec, values)
    coeffs = [{"k": k - base_k, "value": v} for k, v in sorted(values.items())]
    return {
        "ram": ram,
        "base_exponent": str(base),
        "coeffs": coeffs,
        "truncation": truncation,
        "domain": domain,
    }


def series_json_text(ram, prec, values, domain, newline, value_text):
    """``series_json_obj`` as ``json.dumps(sort_keys=True, indent=2)`` writes it.

    The text sits at the indent that ``newline`` (a line break and the
    indent's spaces) carries.  ``values`` maps each stored ``k`` to a
    coefficient, and ``value_text(value, newline)`` writes the JSON text
    of one at the indent of its ``"value"`` key.
    """
    base, base_k, truncation = _json_layout(ram, prec, values)
    inner = newline + "  "
    entry = inner + "  "
    key = entry + "  "
    coeffs = json_list_text([
        f'{{{key}"k": {k - base_k},{key}"value": {value_text(values[k], key)}{entry}}}'
        for k in sorted(values)
    ], inner)
    return (
        f'{{{inner}"base_exponent": "{base}",{inner}"coeffs": {coeffs},'
        f'{inner}"domain": {json.dumps(domain)},{inner}"ram": {ram},'
        f'{inner}"truncation": {truncation}{newline}}}'
    )


def json_list_text(texts, newline):
    """The JSON list of the item ``texts`` at the indent ``newline`` carries."""
    if not texts:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(texts) + newline + "]"


def rational_text(num, den):
    """The JSON string of ``str(num / den)`` for ``den > 0``: one gcd, no ``Fraction``."""
    g = gcd(num, den)
    return f'"{num // g}"' if g == den else f'"{num // g}/{den // g}"'


def _coef_unjson(v):
    if isinstance(v, str):
        return Fraction(v)
    raise DomainMismatch(f"cannot deserialize coefficient {v!r}")
