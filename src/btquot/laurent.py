"""Precision-tracked arithmetic in K_infinity = F_q((pi)), pi = 1/T.

A Laurent value represents an element known modulo pi^prec: it stores
the field, the valuation of its leading term, the known coefficients
(a tuple of codes into GF, leading one first, trailing zeros trimmed)
and the absolute precision bound.  A value whose known coefficients all
vanish is "zero at this precision": its true valuation is only bounded
below by prec.  The exact zero is the special value with prec = +infinity.

Operations propagate precision honestly: addition keeps the minimum of
the two precisions, multiplication keeps min(prec1 + val2, prec2 +
val1), inversion keeps the relative precision of its input.  Anything
that needs a leading coefficient that is not determined at the current
precision raises InsufficientPrecisionError; the program computes its
precisions, so that is an error, never a signal to retry.

Sums and negations are lookups in the tables of GF; products run on
GF.conv, the packed-integer kernel under every series product of the
package.  The one series inverse (_series_inverse, on code tuples, under
Laurent.inv and tree.column_vertex) takes its first INVERSE_BASE digits
term by term in table lookups and doubles them by Newton steps on
GF.conv (newton_sqrt keeps its digit loop).
Polynomials in T embed via T = pi^(-1), so v(f) = -deg(f).
"""

from __future__ import annotations

import math
from itertools import zip_longest

from .algebra import GF

INF = math.inf


class InsufficientPrecisionError(Exception):
    """The requested quantity is not determined at the current precision."""


class Laurent:
    """An element of F_q((pi)) known modulo pi^prec.

    ``coeffs`` is the tuple of known coefficient codes (Python ints).
    Exactness is a value test (prec == INF), never an identity test,
    since infinities computed by the precision rules are new float
    objects.
    """

    __slots__ = ("F", "val", "coeffs", "prec")

    def __init__(self, F: GF, val, coeffs, prec):
        cs = tuple(coeffs)
        # drop coefficients at or beyond the precision bound
        if prec != INF:
            cs = cs[:max(0, prec - val)]
        # advance past leading zeros, drop trailing ones
        end = len(cs)
        while end and not cs[end - 1]:
            end -= 1
        first = 0
        while first < end and not cs[first]:
            first += 1
        cs = cs[first:end]
        val = val + first if cs else prec
        if val > prec:
            raise ValueError("valuation above precision bound")
        self.F = F
        self.val = val
        self.coeffs = cs
        self.prec = prec

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, F: GF) -> "Laurent":
        """The exact zero."""
        return cls(F, INF, (), INF)

    @classmethod
    def zero_at(cls, F: GF, prec: int) -> "Laurent":
        """Zero at finite precision: O(pi^prec)."""
        return cls(F, prec, (), prec)

    @classmethod
    def from_poly(cls, F: GF, f, prec: int) -> "Laurent":
        """Embed f in A = F_q[T] via T = pi^(-1)."""
        if not f:
            return cls.zero(F)
        d = len(f) - 1
        if prec <= -d:
            raise ValueError("precision must exceed the valuation -deg(f)")
        return cls(F, -d, tuple(reversed(f)), prec)

    # -- structure -------------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.prec == INF and not self.coeffs

    def coeff(self, k: int) -> int:
        """Coefficient of pi^k; raises beyond the precision bound."""
        if k >= self.prec:
            raise InsufficientPrecisionError(
                f"coefficient of pi^{k} at precision O(pi^{self.prec})")
        if not self.coeffs or k < self.val:
            return 0
        i = k - self.val
        return self.coeffs[i] if i < len(self.coeffs) else 0

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.F.q != other.F.q:
            raise ValueError("mixed fields")

    def __add__(self, other: "Laurent") -> "Laurent":
        self._check(other)
        if self.is_exact_zero:
            return other
        if other.is_exact_zero:
            return self
        # both aligned at the lower valuation; the constructor drops the
        # sum's digits at and beyond prec
        prec = min(self.prec, other.prec)
        lo = min((x.val for x in (self, other) if x.coeffs), default=prec)
        a, b = ([0] * (x.val - lo) + list(x.coeffs) if x.coeffs else []
                for x in (self, other))
        add = self.F._add
        return Laurent(self.F, lo, [add[s][t] for s, t in
                                    zip_longest(a, b, fillvalue=0)], prec)

    def __neg__(self) -> "Laurent":
        neg = self.F._neg
        return Laurent(self.F, self.val, [neg[c] for c in self.coeffs],
                       self.prec)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        self._check(other)
        if self.is_exact_zero or other.is_exact_zero:
            return Laurent.zero(self.F)
        prec = min(self.prec + other.val, other.prec + self.val)
        val = self.val + other.val
        if not self.coeffs or not other.coeffs or val >= prec:
            # prec is finite here: exact zeros were returned above
            return Laurent.zero_at(self.F, prec)
        a, b = self.coeffs, other.coeffs
        if prec != INF:
            # only product digits below prec are kept
            a, b = a[:prec - val], b[:prec - val]
        return Laurent(self.F, val, self.F.conv(a, b), prec)

    def inv(self) -> "Laurent":
        """Inverse, to the same relative precision.

        Exact monomials invert exactly.  An exact series with more than
        one term has no finite inverse, so it raises ValueError; callers
        that need one must give the series a finite precision.
        """
        if self.is_exact_zero:
            raise ZeroDivisionError("inverse of exact zero")
        if not self.coeffs:
            raise InsufficientPrecisionError(
                "inverting a value indistinguishable from zero")
        F = self.F
        if self.prec == INF:
            if len(self.coeffs) > 1:
                raise ValueError(
                    "an exact series with several terms has no exact "
                    "inverse; give it a finite precision")
            return Laurent(F, -self.val, (F.inv(self.coeffs[0]),), INF)
        return Laurent(F, -self.val,
                       _series_inverse(F, self.coeffs, self.prec - self.val),
                       self.prec - 2 * self.val)

    def truncate(self, prec: int) -> "Laurent":
        if prec >= self.prec:
            return self
        return Laurent(self.F, self.val if self.coeffs else prec,
                       self.coeffs, prec)

    # -- value identity ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Laurent) and self.F.q == other.F.q
                and self.val == other.val and self.coeffs == other.coeffs
                and self.prec == other.prec)

    def __hash__(self):
        return hash((self.F.q, self.val, self.coeffs, self.prec))

    def __repr__(self):
        if self.is_exact_zero:
            return "0"
        parts = [f"{c}*pi^{self.val + i}"
                 for i, c in enumerate(self.coeffs) if c]
        parts.append(f"O(pi^{self.prec})")
        return " + ".join(parts)


def from_packed(F: GF, parts, w: int) -> list[Laurent]:
    """The sums (val, prec, S) packed by GF.pack at width w, each the
    series S from pi^val known below pi^prec: one unpack, each sum read
    to its precision or its last digit."""
    bits = 8 * w * F.fold.shape[1]
    ns = [max(0, min(p - o, -(-S.bit_length() // bits))) for o, p, S in parts]
    rows = F.unpack([S & (1 << bits * k) - 1 for (_, _, S), k
                     in zip(parts, ns)], max(ns), w).tolist()
    return [Laurent(F, o, r, p) for (o, p, _), r in zip(parts, rows)]


# digits of 1/a taken term by term before Newton doubling takes over
INVERSE_BASE = 32


def _series_inverse(F: GF, a, n: int):
    """The first n coefficients of 1/a for a unit power series a (code
    sequence, a[0] != 0).  The first min(n, INVERSE_BASE) come from the
    recursion b_i = -b_0 * sum_{j>=1} a_j b_(i-j), in table lookups;
    Newton doubling takes it from there: if a*b = 1 + pi^k*d modulo
    pi^(2k), then b - pi^k*b*d is the inverse modulo pi^(2k) (Brent and
    Kung, J. ACM 1978), O(M(n)) field work instead of the recursion's
    O(n^2).

    INVERSE_BASE = 32 is a measured crossover (timeit, q = 5, 9 and 49,
    2-core x86-64 machine, Python 3.11): the recursion takes 3.3-3.6 us
    for 8 digits and 30-34 us for 32, Newton from one digit 55 and
    95-106 us, as each of its GF.conv calls pays one pack and unpack.
    Taking the recursion on to 64 digits costs more than the doubling
    step from 32 does (64 digits: 104-166 us against 76-123 us).  As
    the base is a power of two, the doubling steps after it are those
    of a doubling from one digit, so no length costs more than Newton
    alone."""
    mul, add, neg = F._mul, F._add, F._neg
    a = list(a[:n]) + [0] * (n - len(a))
    b = [F.inv(a[0])]
    scale = mul[neg[b[0]]]
    k = min(n, INVERSE_BASE)
    for i in range(1, k):
        acc = 0
        for j in range(1, i + 1):
            acc = add[acc][mul[a[j]][b[i - j]]]
        b.append(scale[acc])
    while k < n:
        k2 = min(2 * k, n)
        d = F.conv(a[:k2], b)[k:k2]
        b += [neg[c] for c in F.conv(b[:k2 - k], d)[:k2 - k]]
        k = k2
    return b


def newton_sqrt(F: GF, f, prec: int) -> Laurent:
    """Square root of a monic even-degree polynomial, 1-unit branch.

    Returns s = pi^(-m) * (1 + ...) with s^2 = f + O(pi^prec), where
    deg f = 2m.  Digit-by-digit Newton lifting on the 1-unit pi^(2m) f,
    starting from u = 1: at step k the pi^k digit of u^2 - pi^(2m) f is
    halved and subtracted from u.  Step k recomputes only the pi^k digit
    of the square, a sum of k + 1 products, so the total cost is
    O(prec^2) field operations.

    The result carries m guard digits beyond the requested precision so
    that re-squaring it is still checkable at precision prec.
    """
    if not f or f[-1] != 1:
        raise ValueError("polynomial must be monic")
    d = len(f) - 1
    if d % 2:
        raise ValueError("polynomial must have even degree")
    m = d // 2
    digits = prec + 2 * m
    if digits < 1:
        raise ValueError("requested precision is too small")
    # a = pi^(2m) f as a coefficient array over pi^0 .. pi^(digits-1)
    a = [0] * digits
    for k in range(min(d + 1, digits)):
        a[k] = f[d - k]
    half = F.inv(F.from_int(2))
    u = [0] * digits
    u[0] = 1
    for k in range(1, digits):
        # pi^k digit of u^2 - a
        sq = 0
        for i in range(k + 1):
            if u[i]:
                sq = F.add(sq, F.mul(u[i], u[k - i]))
        c = F.sub(sq, a[k])
        if c:
            u[k] = F.neg(F.mul(c, half))
    return Laurent(F, -m, u, prec + m)


# ---------------------------------------------------------------------
# 2x2 matrices over K_infinity
# ---------------------------------------------------------------------

class Mat2:
    """A 2x2 matrix of Laurent values."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Laurent, b: Laurent, c: Laurent, d: Laurent):
        self.a, self.b, self.c, self.d = a, b, c, d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def __eq__(self, other):
        return (isinstance(other, Mat2)
                and self.entries() == other.entries())

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return (f"[[{self.a!r}, {self.b!r}],\n"
                f" [{self.c!r}, {self.d!r}]]")

