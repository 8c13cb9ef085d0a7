"""Exact weighted multivariate polynomial arithmetic.

A :class:`Poly` is a sparse map from monomials to exact rational
coefficients over a fixed, ordered variable tuple.  An integral
coefficient is stored as an ``int`` and any other as a ``Fraction``, and
zero coefficients are never stored, so equality of canonical forms is
literal data equality (``3 == Fraction(3)`` with equal hashes, so the
two spellings of an integer never tell apart).  Every quotient of two
coefficients goes through :func:`_div`, which keeps that invariant;
``int / int`` would give a float.

Each monomial is stored as one packed ``int`` key, its only stored
form.  Over ``n`` variables, the exponent of variable ``i`` sits in the
16-bit field at bit ``16 i`` and the total degree in field ``n``, above
them all.  The top bit of every field is a guard that stays clear, so
no exponent or degree exceeds ``DEGREE_CAP`` (32767): the constructor
refuses anything else, and a product or derivative whose degree would
pass the cap raises :class:`DomainMismatch` before any field could carry
into the next.  So a product of monomials is the sum of their keys,
"``lead`` divides ``w``" is ``((w | G) - lead) & G == G`` for the guard
mask ``G``, and int order is the monomial order: graded lexicographic,
the later variable in the tuple more significant.  ``Poly(vars, terms)``
takes exponent tuples, and ``terms`` reads them back.

Two variable tuples cover every computation in the package:

* the affine ring over ``(tau, q, y0, y1, y2)``, graded by the weight
  that counts total degree in ``y0, y1, y2`` (``tau`` and ``q`` weigh
  nothing); an auxiliary weight-1 variable ``y3`` appears only inside
  :func:`homogenize_weight`;
* the homogeneous ring over ``(t, X0, .., X4)`` graded by plain degree
  in the ``X`` variables, with ``t`` acting as the coefficient variable.

Resultants are Sylvester determinants evaluated by fraction-free Bareiss
elimination on the operands scaled to integer coefficients, so no
polynomial GCDs are ever required.
"""

from __future__ import annotations

import json
import math
import re
import struct
from bisect import insort
from fractions import Fraction
from functools import lru_cache
from operator import add, sub

from .errors import (
    DegreeZeroInVariable,
    DomainMismatch,
    PolyParseError,
    VariableOutsideR,
    ZeroPolynomial,
)

AFFINE_VARS = ("tau", "q", "y0", "y1", "y2")
R_VARS = ("y0", "y1", "y2")
RH_VARS = ("y0", "y1", "y2", "y3")
HOMOG_VARS = ("t", "X0", "X1", "X2", "X3", "X4")

#: weight of each graded variable; variables absent here are weightless
VAR_WEIGHTS = {"y0": 1, "y1": 1, "y2": 1, "y3": 1}

#: bits per exponent field of a packed monomial (struct's ``H``); the top one is the guard
FIELD = 16
#: largest exponent and total degree a monomial may carry
DEGREE_CAP = (1 << FIELD - 1) - 1
_MASK = (1 << FIELD) - 1


@lru_cache(maxsize=None)
def _codec(n):
    """``(pack, unpack)`` for monomials over ``n`` variables.

    ``pack`` checks an exponent tuple and returns its key, raising
    :class:`DomainMismatch` for a wrong length, a negative or non-integer
    exponent or a degree over ``DEGREE_CAP``; ``unpack`` inverts it.
    ``struct`` does the field work in C.
    """
    fields = struct.Struct(f"<{n + 1}H")  # the exponents, then the degree
    size, unpack_exps = fields.size, struct.Struct(f"<{n}H").unpack_from

    def pack(exps):
        try:
            degree = sum(exps)
            if degree <= DEGREE_CAP:
                return int.from_bytes(fields.pack(*exps, degree), "little")
        except (struct.error, TypeError):
            pass
        raise DomainMismatch(
            f"monomial {exps!r} is not {n} natural exponents of degree at most {DEGREE_CAP}"
        )

    def unpack(key):
        return unpack_exps(key.to_bytes(size, "little"))

    return pack, unpack


def _unit(n, idx, exponent=1):
    """The key of ``exponent`` times variable ``idx`` of ``n``."""
    return (exponent << FIELD * idx) + (exponent << FIELD * n)


def _check_degree(degree):
    if degree > DEGREE_CAP:
        raise DomainMismatch(f"degree {degree} would pass the cap {DEGREE_CAP}")


def _exact(value):
    """``value`` as a stored coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool and other int subclasses
        return int(value)
    raise DomainMismatch(f"coefficient {value!r} is not an exact rational")


def _div(a, b):
    """Exact quotient of two coefficients, an int when it is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _tidy(terms):
    """Drop zero coefficients and store integral Fractions as ints."""
    return {
        e: c if type(c) is int or c.denominator != 1 else c.numerator
        for e, c in terms.items()
        if c
    }


def _shifted(mono, shift, coef):
    """``mono`` times the term ``coef != 0`` at key ``shift``: no key collides, none cancels."""
    if coef == 1:
        return mono if not shift else {k + shift: c for k, c in mono.items()}
    return {
        k + shift: c if type(c := a * coef) is int or c.denominator != 1 else c.numerator
        for k, a in mono.items()
    }


def _add_product(terms, left, right):
    """Add the product of the terms dicts ``left`` and ``right`` into ``terms``; return it."""
    get = terms.get
    right = list(right.items())
    for k1, c1 in left.items():
        for k2, c2 in right:
            key = k1 + k2
            acc = get(key)
            terms[key] = c1 * c2 if acc is None else acc + c1 * c2
    return terms


def _denominator(P):
    """The least common denominator of the coefficients of ``P``."""
    return math.lcm(*(c.denominator for c in P.mono.values() if type(c) is not int))


class Poly:
    """Sparse exact polynomial over a fixed variable tuple."""

    __slots__ = ("vars", "mono")

    def __init__(self, vars, terms):
        """``terms`` maps exponent tuples, one entry per variable, to coefficients."""
        self.vars = vars = tuple(vars)
        pack = _codec(len(vars))[0]
        mono = {}
        for exps, coef in terms.items():
            key = pack(exps)
            coef = _exact(coef)
            if coef:
                mono[key] = coef
        self.mono = mono

    @property
    def terms(self):
        """``{exponent tuple: coefficient}``, decoded from the packed keys."""
        unpack = _codec(len(self.vars))[1]
        return {unpack(key): c for key, c in self.mono.items()}

    # -- constructors --------------------------------------------------------

    @classmethod
    def _make(cls, vars, mono):
        """Trusted constructor: ``vars`` a tuple, ``mono`` already canonical.

        The keys are packed monomials over ``vars`` and the coefficients
        nonzero ints or non-integral Fractions; nothing is checked or copied.
        """
        P = object.__new__(cls)
        P.vars = vars
        P.mono = mono
        return P

    @classmethod
    def zero(cls, vars):
        return cls._make(tuple(vars), {})

    @classmethod
    def const(cls, vars, value):
        value = _exact(value)
        return cls._make(tuple(vars), {0: value} if value else {})

    @classmethod
    def var(cls, vars, name, exponent=1):
        vars = tuple(vars)
        if not 0 <= exponent <= DEGREE_CAP:
            raise DomainMismatch(f"exponent {exponent} is outside 0..{DEGREE_CAP}")
        return cls._make(vars, {_unit(len(vars), vars.index(name), exponent): 1})

    @classmethod
    def sum(cls, vars, polys):
        """Sum of ``polys``, accumulated in one terms dict."""
        terms = {}
        for P in polys:
            for key, coef in P.mono.items():
                terms[key] = terms.get(key, 0) + coef
        return cls._make(tuple(vars), _tidy(terms))

    # -- basic protocol --------------------------------------------------------

    def __bool__(self):
        return bool(self.mono)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.vars == other.vars and self.mono == other.mono
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.vars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.mono.items())))

    def _check_same_ring(self, other):
        if self.vars != other.vars:
            raise DomainMismatch(
                f"variable sets differ: {self.vars} vs {other.vars}"
            )

    def _coerce(self, other):
        if isinstance(other, Poly):
            self._check_same_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.vars, other)
        return None

    def _degree(self):
        """Total degree of the leading monomial; the zero polynomial must not ask."""
        return max(self.mono) >> FIELD * len(self.vars)

    # -- arithmetic -------------------------------------------------------------

    def _merge(self, other, op):
        """``self op other`` for ``op`` in (add, sub), in one copied dict."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.mono)
        for key, coef in other.mono.items():
            old = terms.get(key)
            if old is None:
                terms[key] = coef if op is add else -coef
                continue
            new = op(old, coef)
            if not new:
                del terms[key]
            elif type(new) is int or new.denominator != 1:
                terms[key] = new
            else:
                terms[key] = new.numerator
        return Poly._make(self.vars, terms)

    def __add__(self, other):
        return self._merge(other, add)

    __radd__ = __add__

    def __neg__(self):
        return Poly._make(self.vars, {k: -c for k, c in self.mono.items()})

    def __sub__(self, other):
        return self._merge(other, sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._merge(self, sub)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _exact(other)
            return Poly._make(self.vars, _shifted(self.mono, 0, other) if other else {})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_ring(other)
        mono, other_mono = self.mono, other.mono
        if not mono or not other_mono:
            return Poly._make(self.vars, {})
        top = FIELD * len(self.vars)
        _check_degree((max(mono) >> top) + (max(other_mono) >> top))
        if len(other_mono) == 1:  # a term times a polynomial is a key shift
            return Poly._make(self.vars, _shifted(mono, *next(iter(other_mono.items()))))
        if len(mono) == 1:
            return Poly._make(self.vars, _shifted(other_mono, *next(iter(mono.items()))))
        return Poly._make(self.vars, _tidy(_add_product({}, mono, other_mono)))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure --------------------------------------------------------------

    def partial_degree(self, name):
        """Largest exponent of ``name``; -1 for the zero polynomial."""
        shift = FIELD * self.vars.index(name)
        if not self.mono:
            return -1
        return max(key >> shift & _MASK for key in self.mono)

    def total_degree(self, names=None):
        if not self.mono:
            return -1
        if names is None:
            return self._degree()
        shifts = [FIELD * self.vars.index(n) for n in names]
        return max(sum(key >> s & _MASK for s in shifts) for key in self.mono)

    def coefficient_of(self, name, k):
        """Coefficient of ``name**k`` as a Poly in the same ring."""
        idx = self.vars.index(name)
        shift, drop = FIELD * idx, _unit(len(self.vars), idx, k)
        return Poly._make(self.vars, {
            key - drop: coef for key, coef in self.mono.items() if key >> shift & _MASK == k
        })

    def rename_ring(self, new_vars, mapping):
        """Move to another variable tuple, sending old names per ``mapping``.

        Variables absent from ``mapping`` must not occur.
        """
        new_vars = tuple(new_vars)
        n, top = len(new_vars), FIELD * len(self.vars)
        targets = [new_vars.index(mapping[v]) if v in mapping else None for v in self.vars]
        terms = {}
        for exps, (old, coef) in zip(self.terms, self.mono.items()):
            key = (old >> top) << FIELD * n  # the total degree is unchanged
            for name, e, idx in zip(self.vars, exps, targets):
                if not e:
                    continue
                if idx is None:
                    raise DomainMismatch(f"variable {name} has no image")
                key += e << FIELD * idx
            terms[key] = terms.get(key, 0) + coef
        return Poly._make(new_vars, _tidy(terms))

    # -- monomial order (graded lex, later variable more significant) ---------

    def leading(self):
        """(exponent vector, coefficient) of the leading monomial."""
        if not self.mono:
            raise ZeroPolynomial("zero polynomial has no leading term")
        key = max(self.mono)
        return _codec(len(self.vars))[1](key), self.mono[key]

    def sorted_terms(self):
        """Terms from the leading monomial downward."""
        unpack = _codec(len(self.vars))[1]
        return [(unpack(k), c) for k, c in sorted(self.mono.items(), reverse=True)]

    # -- exact division ----------------------------------------------------------

    def divmod_many(self, divisors, step=None):
        """Division by a list of polynomials under the graded-lex order.

        The terms of ``self`` are taken from the leading monomial down;
        each goes to the first divisor whose leading monomial divides it,
        or to the remainder when none does.  Returns ``(quotients,
        remainder)`` with ``self == sum(q * d) + remainder`` and no
        remainder term divisible by any divisor's leading monomial.
        ``step``, when given, is called once per term taken.

        The work is one mutable terms dict and a sorted list of its
        keys: a quotient step subtracts only the divisor's tail, whose
        products all lie below the term just taken.
        """
        leads, tails = [], []
        for d in divisors:
            if not d:
                raise ZeroDivisionError("division by the zero polynomial")
            self._check_same_ring(d)
            lead = max(d.mono)
            leads.append((lead, d.mono[lead]))
            tails.append([(k, c) for k, c in d.mono.items() if k != lead])
        guard = sum(1 << FIELD * i + FIELD - 1 for i in range(len(self.vars) + 1))
        quos = [{} for _ in divisors]
        rem = {}
        work = dict(self.mono)
        queue = sorted(work)
        while queue:
            w = queue.pop()
            w_c = work.pop(w, None)
            if w_c is None:  # cancelled, or a second entry for the same monomial
                continue
            if step is not None:
                step()
            w_guarded = w | guard
            for i, (lead, lead_c) in enumerate(leads):
                if (w_guarded - lead) & guard == guard:  # no field borrowed: lead divides w
                    break
            else:
                rem[w] = w_c
                continue
            shift = w - lead
            m = _div(w_c, lead_c)
            quos[i][shift] = m
            for t, t_c in tails[i]:
                key = shift + t
                old = work.get(key)
                if old is None:
                    new = -m * t_c
                    insort(queue, key)
                else:
                    new = old - m * t_c
                    if not new:
                        del work[key]
                        continue
                if type(new) is not int and new.denominator == 1:
                    new = new.numerator
                work[key] = new
        return [Poly._make(self.vars, q) for q in quos], Poly._make(self.vars, rem)

    def divmod_single(self, divisor):
        """``(quotient, remainder)`` of :meth:`divmod_many` by one divisor."""
        (quo,), rem = self.divmod_many([divisor])
        return quo, rem

    def exact_div(self, divisor):
        if isinstance(divisor, (int, Fraction)):
            return self * _div(1, _exact(divisor))
        c = divisor.mono.get(0) if len(divisor.mono) == 1 else None
        if c is not None and self.vars == divisor.vars:  # a nonzero constant divides exactly
            return self if c == 1 else Poly._make(
                self.vars, {k: _div(v, c) for k, v in self.mono.items()})
        quo, rem = self.divmod_single(divisor)
        if rem:
            raise ValueError("division is not exact")
        return quo

    # -- serialization -----------------------------------------------------------

    def to_json_obj(self):
        return terms_json_obj(self.vars, self.terms)

    @classmethod
    def from_json_obj(cls, obj):
        """The inverse of :meth:`to_json_obj`; a ``coef`` must be a str or an int."""
        terms = {}
        for t in obj["terms"]:
            coef = t["coef"]
            if type(coef) is not str and type(coef) is not int:  # a float is not exact, a bool no number
                raise PolyParseError(f"coefficient {coef!r} is not a str or an int")
            terms[tuple(t["exps"])] = Fraction(coef)
        return cls(obj["vars"], terms)

    def to_text(self):
        """Render as a sum of monomials, e.g. ``3/4 * tau^2 q y0 - y1``."""
        if not self.mono:
            return "0"
        parts = []
        for exps, coef in self.sorted_terms():
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = " ".join(factors)
            mag = abs(coef)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag} * {mono}"
            if not parts:
                parts.append(body if coef > 0 else f"-{body}")
            else:
                parts.append(("+ " if coef > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self.to_text()!r})"


_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<rat>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"(?:\^(?P<exp>-?\d+))?|(?P<star>\*))"
)


def terms_json_obj(vars, terms):
    """``Poly(vars, terms).to_json_obj()`` for nonzero ``terms``: terms in key order."""
    return {"vars": list(vars), "terms": [
        {"exps": list(e), "coef": str(terms[e])} for e in key_order(vars, terms)]}


def key_order(vars, monomials):
    """The exponent tuples ``monomials`` over ``vars`` sorted by packed key (graded lex)."""
    return sorted(monomials, key=_codec(len(vars))[0])


def poly_from_text(text, vars=AFFINE_VARS):
    """Parse the textual monomial-sum format, or a JSON object, into a :class:`Poly`.

    Accepts rational coefficients ``num/den``, optional ``*`` separators
    and ``^`` exponents, e.g. ``"1/4 * tau^2 q - y0 y1 + 3"``.  Malformed
    input raises :class:`PolyParseError`.
    """
    text = text.strip()
    try:
        if text.startswith("{"):
            return Poly.from_json_obj(json.loads(text))
        return _parse_sum(text, tuple(vars))
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise PolyParseError(f"cannot parse polynomial {text!r}: {exc!r}") from None


def _parse_sum(text, vars):
    terms = {}
    pos, sign, coef, exps = 0, 1, None, None

    def flush():
        nonlocal coef, exps, sign
        if coef is None and exps is None:
            return
        e = (0,) * len(vars) if exps is None else tuple(exps)
        terms[e] = terms.get(e, 0) + sign * (1 if coef is None else coef)
        coef, exps, sign = None, None, 1

    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise PolyParseError(f"cannot parse polynomial near {text[pos:pos+20]!r}")
        pos = m.end()
        if m.group("sign"):
            flush()
            sign = 1 if m.group("sign") == "+" else -1
        elif m.group("rat"):
            if coef is not None or exps is not None:
                raise PolyParseError("coefficient must precede its variables")
            coef = Fraction(m.group("rat"))
        elif m.group("name"):
            name = m.group("name")
            if name not in vars:
                raise PolyParseError(f"unknown variable {name!r} (expected {vars})")
            e = int(m.group("exp") or 1)
            if e < 0:
                raise PolyParseError("negative exponents are not polynomial")
            if exps is None:
                exps = [0] * len(vars)
            exps[vars.index(name)] += e
    flush()
    return Poly(vars, terms)


# -- grading -------------------------------------------------------------------


def weight(P):
    """Largest weight of a monomial of ``P`` (y-variables weigh 1)."""
    if not P:
        raise ZeroPolynomial("weight of the zero polynomial is undefined")
    best = 0
    for exps in P.terms:
        w = 0
        for name, e in zip(P.vars, exps):
            if name in VAR_WEIGHTS:
                w += e * VAR_WEIGHTS[name]
            elif e and name not in ("tau", "q", "t"):
                raise DomainMismatch(f"variable {name} carries no weight")
        best = max(best, w)
    return best


def isobaric_components(P):
    """Split ``P`` into its isobaric pieces, ordered by increasing weight.

    Returns a list of ``(weight, component)`` pairs whose sum is ``P``.
    """
    if not P:
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    buckets = {}
    for exps, (key, coef) in zip(P.terms, P.mono.items()):
        w = sum(e * VAR_WEIGHTS.get(name, 0) for name, e in zip(P.vars, exps))
        buckets.setdefault(w, {})[key] = coef
    return [(w, Poly._make(P.vars, buckets[w])) for w in sorted(buckets)]


def is_isobaric(P):
    return bool(P) and len(isobaric_components(P)) == 1


def in_R(P):
    """True when ``P`` involves only the weighted variables y0, y1, y2."""
    for exps in P.terms:
        for name, e in zip(P.vars, exps):
            if e and name not in ("y0", "y1", "y2"):
                return False
    return True


def homogenize_weight(F):
    """Weight-homogenize ``F`` in y0, y1, y2 by a weight-1 variable y3.

    The result lives over ``(y0, y1, y2, y3)``, is isobaric of weight
    ``weight(F)``, and restores ``F`` under ``y3 -> 1``.
    """
    if not F:
        raise ZeroPolynomial("cannot homogenize the zero polynomial")
    if not in_R(F):
        raise VariableOutsideR("weight homogenization is defined on C[y0,y1,y2]")
    p = weight(F)
    idx = {name: F.vars.index(name) for name in R_VARS if name in F.vars}
    terms = {}
    for exps, coef in F.terms.items():
        w = sum(exps[i] for i in idx.values())
        key = tuple(exps[idx[v]] if v in idx else 0 for v in R_VARS) + (p - w,)
        terms[key] = coef
    return Poly(RH_VARS, terms)


# -- resultants ------------------------------------------------------------------


def _cross(x, piv, a, y):
    """``x*piv - a*y``, the numerator of a Bareiss update, in one terms dict."""
    for P in (x, a, y):
        piv._check_same_ring(P)
    top = FIELD * len(piv.vars)
    products = [(l.mono, r.mono) for l, r in ((x, piv), (-a, y)) if l and r]
    for left, right in products:
        _check_degree((max(left) >> top) + (max(right) >> top))
    terms = {}
    for left, right in products:
        _add_product(terms, left, right)
    return Poly._make(piv.vars, _tidy(terms))


def _bareiss(M):
    """Last entry of a fraction-free Bareiss elimination of ``M``, in place.

    The last column holds equal-length tuples of Polys.  Every entry is a
    bordered minor (Sylvester's identity), so the exact division holds slot
    by slot: slot ``s`` of the result is the determinant with slot ``s`` of
    each tuple as the last column; all are zero when the first
    ``len(M) - 1`` columns have no pivot.  A row whose entry below the
    pivot is zero is left as it is when the pivot equals the last one,
    since its update is then ``x * piv / prev == x``.
    """
    last = len(M) - 1
    sign, prev = 1, Poly.const(M[0][last][0].vars, 1)
    for k in range(last):
        if not M[k][k]:
            pivot = next((i for i in range(k + 1, last + 1) if M[i][k]), None)
            if pivot is None:
                return (Poly.zero(prev.vars),) * len(M[0][last])
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        row_k, piv = M[k], M[k][k]
        for row in M[k + 1:]:
            a = row[k]
            if not a and piv == prev:
                continue
            for j in range(k + 1, last):
                row[j] = _cross(row[j], piv, a, row_k[j]).exact_div(prev)
            row[last] = tuple(_cross(x, piv, a, y).exact_div(prev)
                              for x, y in zip(row[last], row_k[last]))
        prev = piv
    return M[last][last] if sign == 1 else tuple(-x for x in M[last][last])


def _poly_matrix_det(matrix):
    """Fraction-free Bareiss determinant of a square matrix of Polys."""
    if not matrix:
        raise ValueError("empty matrix")
    return _bareiss([row[:-1] + [(row[-1],)] for row in matrix])[0]


def sylvester_matrix(P, Q, name):
    """Sylvester matrix of ``P`` and ``Q`` with respect to ``name``.

    Row ``i < deg Q`` holds the coefficients of ``name^(degQ-1-i) * P``;
    the remaining rows hold those of ``name^(degP-1-i) * Q``.  Columns
    run from the highest power of ``name`` down to the constant.
    """
    P._check_same_ring(Q)
    n = P.partial_degree(name)
    m = Q.partial_degree(name)
    if n < 1 or m < 1:
        raise DegreeZeroInVariable(
            f"both operands need positive degree in {name} (got {n}, {m})"
        )
    size = n + m
    p_coeffs = [P.coefficient_of(name, n - j) for j in range(n + 1)]
    q_coeffs = [Q.coefficient_of(name, m - j) for j in range(m + 1)]
    zero = Poly.zero(P.vars)
    rows = []
    for i in range(m):
        rows.append([zero] * i + p_coeffs + [zero] * (size - i - n - 1))
    for i in range(n):
        rows.append([zero] * i + q_coeffs + [zero] * (size - i - m - 1))
    return rows


def _cleared_sylvester(P, Q, name):
    """The Sylvester matrix of ``dP*P`` and ``dQ*Q``, dP, dQ, and ``1/(dP^m dQ^n)``.

    dP, dQ are the lcm of the denominators of P, Q; the matrix has m rows
    of ``dP*P`` and n of ``dQ*Q``, so the last factor scales its
    determinant back to the resultant of P and Q.
    """
    dP, dQ = _denominator(P), _denominator(Q)
    S = sylvester_matrix(P * dP, Q * dQ, name)
    m = Q.partial_degree(name)
    return S, dP, dQ, Fraction(1, dP ** m * dQ ** (len(S) - m))


def resultant(P, Q, name):
    """Resultant of ``P`` and ``Q`` in ``name`` (Sylvester determinant).

    Sign convention: ``resultant(y - u, y - v, "y") == u - v``.  The
    elimination runs on the operands with their denominators cleared.
    """
    S, _, _, back = _cleared_sylvester(P, Q, name)
    return _poly_matrix_det(S) * back


def resultant_with_cofactors(P, Q, name):
    """Resultant ``R`` plus ``A, B`` with ``A*P + B*Q == R``.

    One Bareiss elimination of the Sylvester matrix whose constant column
    carries (entry, ``name^k``, 0) in the row of ``name^k * P`` and (entry,
    0, ``name^k``) in that of ``name^k * Q``; ``deg_name(A) < deg_name(Q)``.
    It runs on ``dP*P`` and ``dQ*Q``, whose cofactors are ``dP^m dQ^n``
    times ``A/dP`` and ``B/dQ``.
    """
    S, dP, dQ, back = _cleared_sylvester(P, Q, name)
    size, m = len(S), Q.partial_degree(name)
    zero = Poly.zero(P.vars)
    for i, row in enumerate(S):
        power = Poly.var(P.vars, name, (m if i < m else size) - 1 - i)
        row[-1] = (row[-1], power, zero) if i < m else (row[-1], zero, power)
    R, A, B = _bareiss(S)
    return R * back, A * (dP * back), B * (dQ * back)


# -- convenience generators ---------------------------------------------------


def gens(vars=AFFINE_VARS):
    """Map each variable name to its generator polynomial."""
    return {name: Poly.var(vars, name) for name in vars}
