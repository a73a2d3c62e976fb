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
precision raises InsufficientPrecisionError, which callers treat as a
signal to retry the whole computation at higher precision.

Sums and negations are lookups in the tables of GF; products and the
Newton inverse run on GF.conv.  Polynomials in T embed via T = pi^(-1),
so v(f) = -deg(f).
"""

from __future__ import annotations

import math
from itertools import zip_longest

import numpy as np

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
    def constant(cls, F: GF, c: int, prec: int) -> "Laurent":
        return cls(F, 0, (c,), prec)

    @classmethod
    def pi_power(cls, F: GF, k: int, prec: int) -> "Laurent":
        return cls(F, k, (1,), prec)

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


def _series_inverse(F: GF, a, n: int):
    """The first n coefficients of 1/a for a unit power series a (code
    sequence, a[0] != 0), by Newton doubling: if a*b = 1 + pi^k*d modulo
    pi^(2k), then b - pi^k*b*d is the inverse modulo pi^(2k) (Brent and
    Kung, J. ACM 1978).  O(M(n)) field work instead of the O(n^2) of
    the term-by-term recursion."""
    neg = F._neg
    a = list(a[:n]) + [0] * (n - len(a))
    b = [F.inv(a[0])]
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        d = F.conv(a[:k2], b)[k:k2]
        b += [neg[c] for c in F.conv(b[:k2 - k], d)[:k2 - k]]
        k = k2
    return b


class SeriesStack:
    """A matrix S[x][k] of Laurent series held as one coefficient array,
    for products G * S by matrices G of exact finite series.

    codes[x, k, i] is the code of the pi^(val + i) coefficient of
    S[x][k], zero at and beyond that entry's precision; prec[x, k] is the
    precision (INF for an exact zero).  The product runs as one float64
    matrix product against the Toeplitz expansion of S in F_p
    coordinates (exact: every partial sum is an integer far below
    2^53), built once per width of G and kept.
    """

    def __init__(self, F: GF, rows):
        self.F = F
        known = [x for row in rows for x in row if x.coeffs]
        self.val = min((x.val for x in known), default=0)
        end = max((x.val + len(x.coeffs) for x in known), default=self.val)
        self.codes = np.zeros((len(rows), len(rows[0]),
                               max(1, end - self.val)), dtype=np.int64)
        for i, row in enumerate(rows):
            for k, x in enumerate(row):
                if x.coeffs:
                    off = x.val - self.val
                    self.codes[i, k, off:off + len(x.coeffs)] = x.coeffs
        self.prec = np.array([[float(x.prec) for x in row] for row in rows])
        self._width = 0
        self._toeplitz = None

    def _expansion(self, width: int):
        """Rows (tau, x, v), columns (k, w, j): coordinate w of
        theta^v * S[x][k] at index j - tau, with theta the generator of
        F_q over F_p; tau < width, j < N + width - 1."""
        if width > self._width:
            F, e = self.F, self.F.e
            X, K, N = self.codes.shape
            # theta^v * sum_u s_u theta^u has coordinates
            # sum_u fold[w, v + u] * s_u
            twist = np.stack([F.fold[:, v:v + e] for v in range(e)])
            sv = np.einsum("vwu,xknu->xvkwn", twist,
                           F.digits[self.codes]) % F.p
            T = np.zeros((width, X, e, K, e, N + width - 1))
            for tau in range(width):
                T[tau, ..., tau:tau + N] = sv
            self._toeplitz = T.reshape(width * X * e, -1)
            self._width = width
        return self._toeplitz

    def left_mul(self, G, base: int, vals):
        """Y = G * S for exact series G[r][x] = pi^base * sum_i G[r, x, i] pi^i
        (codes) with valuations vals[r, x] (INF for zero entries).

        Returns (codes, val, prec): codes[r, k, i] is the pi^(val + i)
        coefficient of Y[r][k], correct below prec[r, k], which follows
        the Laurent rule prec(g * s) = prec(s) + v(g), minimum over terms.
        """
        F = self.F
        R, X, M = G.shape
        T = self._expansion(M)
        rows = M * X * F.e
        Gd = F.digits[G].transpose(0, 2, 1, 3).reshape(R, rows)
        Y = (Gd @ T[:rows]).astype(np.int64) % F.p
        Y = Y.reshape(R, self.codes.shape[1], F.e, -1)
        codes = np.einsum("rkwj,w->rkj", Y, F.place)
        prec = (vals[:, :, None] + self.prec[None]).min(axis=1)
        return codes, base + self.val, prec


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

