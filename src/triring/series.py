"""Truncated Puiseux series with honest precision tracking.

A series holds coefficients on the exponent grid ``k / ram`` (``k`` may
be negative) together with ``prec``, the exponent bound below which the
coefficients are certified.  Every operation propagates ``prec``
pessimistically, so no result ever claims more terms than its inputs
support; ``ord`` raises :class:`InconclusiveOrder` instead of guessing
when all certified coefficients vanish.

Coefficients may be exact rationals, exact polynomials in adjoined
constant symbols (:class:`~triring.ring.Poly` over the symbol names), or
complex floats; the three domains are tagged and rational coefficients
coerce into either extension, while symbolic and complex never mix.
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
from .ring import Poly

RATIONAL = "rational"
SYMBOLIC = "symbolic"
COMPLEX = "complex"


def _domain_of(coef):
    if isinstance(coef, (Fraction, int)):
        return RATIONAL
    if isinstance(coef, Poly):
        return SYMBOLIC
    if isinstance(coef, (complex, float)):
        return COMPLEX
    raise DomainMismatch(f"unsupported coefficient {coef!r}")


def _merge_domains(d1, d2):
    if d1 == d2:
        return d1
    if RATIONAL in (d1, d2):
        return d2 if d1 == RATIONAL else d1
    raise DomainMismatch(f"cannot mix {d1} and {d2} coefficients")


def _coerce(coef, domain):
    if domain == COMPLEX and isinstance(coef, (Fraction, int)):
        return complex(coef)
    return coef


class PuiseuxSeries:
    __slots__ = ("ram", "coeffs", "prec", "domain")

    def __init__(self, ram, coeffs, prec, domain=None):
        if ram < 1:
            raise ValueError("ramification must be a positive integer")
        self.ram = int(ram)
        self.prec = Fraction(prec)
        clean = {}
        seen = RATIONAL
        for k, c in coeffs.items():
            if isinstance(c, int):
                c = Fraction(c)
            if Fraction(k, self.ram) >= self.prec:
                continue
            if _is_zero(c):
                continue
            seen = _merge_domains(seen, _domain_of(c))
            clean[int(k)] = c
        self.domain = domain or seen
        if domain is not None:
            for k in clean:
                clean[k] = _coerce(clean[k], domain)
        self.coeffs = clean

    # -- constructors ------------------------------------------------------------

    @classmethod
    def zero(cls, prec, ram=1, domain=RATIONAL):
        return cls(ram, {}, prec, domain)

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
            return _zero_like(self.domain)
        return self.coeffs.get(k.numerator, _zero_like(self.domain))

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
            return PuiseuxSeries(1, {}, self.prec, self.domain)
        return PuiseuxSeries(
            self.ram // g,
            {k // g: c for k, c in self.coeffs.items()},
            self.prec,
            self.domain,
        )

    def with_ram(self, new_ram):
        if new_ram % self.ram:
            raise ValueError("new ramification must be a multiple of the old")
        if new_ram == self.ram:
            return self
        f = new_ram // self.ram
        return PuiseuxSeries(
            new_ram, {k * f: c for k, c in self.coeffs.items()}, self.prec, self.domain
        )

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
        if isinstance(other, (int, Fraction, Poly, complex, float)):
            other = PuiseuxSeries.constant(other, self.prec, 1)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._aligned(other)
        domain = _merge_domains(a.domain, b.domain)
        prec = min(a.prec, b.prec)
        coeffs = dict(a.coeffs)
        for k, c in b.coeffs.items():
            acc = coeffs.get(k)
            coeffs[k] = c if acc is None else acc + c
        return PuiseuxSeries(a.ram, coeffs, prec, domain)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries(
            self.ram, {k: -c for k, c in self.coeffs.items()}, self.prec, self.domain
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Poly, complex, float)):
            other = PuiseuxSeries.constant(other, self.prec, 1)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def scale(self, factor):
        if _is_zero(factor):
            return PuiseuxSeries(self.ram, {}, self.prec, self.domain)
        return PuiseuxSeries(
            self.ram,
            {k: factor * c for k, c in self.coeffs.items()},
            self.prec,
            _merge_domains(self.domain, _domain_of(factor)),
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly, complex, float)):
            return self.scale(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._aligned(other)
        domain = _merge_domains(a.domain, b.domain)
        prec = min(
            a.prec + b._ord_lower_bound(),
            b.prec + a._ord_lower_bound(),
        )
        bound = prec * a.ram
        coeffs = {}
        for k1, c1 in a.coeffs.items():
            for k2, c2 in b.coeffs.items():
                k = k1 + k2
                if k >= bound:
                    continue
                acc = coeffs.get(k)
                coeffs[k] = c1 * c2 if acc is None else acc + c1 * c2
        return PuiseuxSeries(a.ram, coeffs, prec, domain)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.invert() ** (-n)
        result = PuiseuxSeries.constant(Fraction(1), self.prec + abs(self._ord_lower_bound()) * n + 1, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def shift(self, exponent):
        """Multiply by the exact power x**exponent."""
        e = Fraction(exponent)
        r = lcm(self.ram, e.denominator)
        s = self.with_ram(r)
        off = int(e * r)
        return PuiseuxSeries(
            r, {k + off: c for k, c in s.coeffs.items()}, s.prec + e, s.domain
        )

    def truncate(self, new_prec):
        new_prec = min(self.prec, Fraction(new_prec))
        return PuiseuxSeries(self.ram, self.coeffs, new_prec, self.domain)

    def differentiate(self):
        """d/dx with respect to the series' own variable."""
        coeffs = {}
        for k, c in self.coeffs.items():
            if k == 0:
                continue
            factor = Fraction(k, self.ram)
            coeffs[k - self.ram] = (
                c * factor if self.domain != COMPLEX else c * float(factor)
            )
        return PuiseuxSeries(self.ram, coeffs, self.prec - 1, self.domain)

    def invert(self):
        """Multiplicative inverse; needs an exposed nonzero leading term."""
        if not self.coeffs:
            raise NonUnitInverse("no certified nonzero leading coefficient")
        m = min(self.coeffs)
        c0 = self.coeffs[m]
        if isinstance(c0, Poly):
            const = c0.constant_term()
            if len(c0.terms) != 1 or not const:
                raise NonUnitInverse("symbolic leading coefficient is not a unit")
            c0 = const
        inv_c0 = (1 / c0) if isinstance(c0, complex) else Fraction(1) / c0
        # h = f / (c0 x^(m/ram)) - 1, known below prec - m/ram
        h = {k - m: c * inv_c0 for k, c in self.coeffs.items() if k != m}
        h_prec_steps = int((self.prec * self.ram).__floor__()) - m
        u = {0: _one_like(self.domain)}
        for k in range(1, max(h_prec_steps, 0)):
            acc = None
            for j, hj in h.items():
                if j > k:
                    continue
                uk = u.get(k - j)
                if uk is None:
                    continue
                term = hj * uk
                acc = term if acc is None else acc + term
            if acc is not None and not _is_zero(acc):
                u[k] = -acc
        prec = self.prec - 2 * Fraction(m, self.ram)
        coeffs = {k - m: c * inv_c0 for k, c in u.items()}
        return PuiseuxSeries(self.ram, coeffs, prec, self.domain)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Poly, complex, float)):
            return self.scale(_invert_scalar(other))
        return self * other.invert()

    def exp(self):
        """exp of a series of positive order (composition with exp at 0)."""
        if not self.coeffs:
            return PuiseuxSeries(self.ram, {0: Fraction(1)}, self.prec, self.domain)
        if min(self.coeffs) <= 0:
            raise NonpositiveOrder("exp needs ord > 0")
        steps = int((self.prec * self.ram).__floor__())
        out = {0: _one_like(self.domain)}
        # (k/r) out_k = sum_j (j/r) f_j out_{k-j}  from  out' = f' out
        for k in range(1, max(steps, 0) + 1):
            if Fraction(k, self.ram) >= self.prec:
                break
            acc = None
            for j, fj in self.coeffs.items():
                if j > k:
                    continue
                ok = out.get(k - j)
                if ok is None:
                    continue
                term = fj * ok * j
                acc = term if acc is None else acc + term
            if acc is not None and not _is_zero(acc):
                value = (
                    acc / k if self.domain == COMPLEX else acc * Fraction(1, k)
                )
                if not _is_zero(value):
                    out[k] = value
        return PuiseuxSeries(self.ram, out, self.prec, self.domain)

    def scale_argument(self, factor):
        """Replace x by factor*x; integer exponent grids only."""
        if self.ram != 1:
            raise ValueError("argument scaling needs an integer exponent grid")
        return PuiseuxSeries(
            1,
            {k: c * factor ** k for k, c in self.coeffs.items()},
            self.prec,
            self.domain,
        )

    # -- evaluation and serialization ------------------------------------------------

    def evaluate(self, x, bindings=None):
        """Principal-branch numeric evaluation at a complex point."""
        x = complex(x)
        total = 0j
        logx = cmath.log(x)
        for k, c in sorted(self.coeffs.items()):
            total += _coeff_complex(c, bindings) * cmath.exp(logx * (k / self.ram))
        return total

    def to_json_obj(self):
        if self.coeffs:
            base = Fraction(min(self.coeffs), self.ram)
        else:
            base = self.prec
        n_steps = int(((self.prec - base) * self.ram).__ceil__()) - 1
        coeffs = [
            {"k": k - int(base * self.ram), "value": _coef_json(c)}
            for k, c in sorted(self.coeffs.items())
        ]
        return {
            "ram": self.ram,
            "base_exponent": str(base),
            "coeffs": coeffs,
            "truncation": max(n_steps, 0),
            "domain": self.domain,
        }

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
        return cls(ram, coeffs, prec, obj.get("domain"))

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


def _is_zero(c):
    if isinstance(c, Poly):
        return not c
    return c == 0


def _zero_like(domain):
    return 0j if domain == COMPLEX else Fraction(0)


def _one_like(domain):
    return complex(1) if domain == COMPLEX else Fraction(1)


def _invert_scalar(c):
    if isinstance(c, complex):
        return 1 / c
    if isinstance(c, Poly):
        raise NonUnitInverse("cannot divide by a symbolic coefficient")
    return Fraction(1) / Fraction(c)


def _coeff_complex(c, bindings):
    if isinstance(c, (Fraction, int, float)):
        return complex(c)
    if isinstance(c, complex):
        return c
    if isinstance(c, Poly):
        if bindings is None:
            raise DomainMismatch("symbolic coefficient needs symbol bindings")
        total = 0j
        for exps, coef in c.terms.items():
            term = complex(coef)
            for name, e in zip(c.vars, exps):
                if e:
                    term *= bindings[name] ** e
            total += term
        return total
    raise DomainMismatch(f"cannot evaluate coefficient {c!r}")


def _coef_json(c):
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, complex):
        return [c.real, c.imag]
    if isinstance(c, Poly):
        return c.to_json_obj()
    raise DomainMismatch(f"cannot serialize coefficient {c!r}")


def _coef_unjson(v):
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, list):
        return complex(v[0], v[1])
    if isinstance(v, dict):
        return Poly.from_json_obj(v)
    raise DomainMismatch(f"cannot deserialize coefficient {v!r}")
