"""The Bruhat-Tits tree for PGL_2(K_infinity).

Vertices are lattice classes [L(n, g)] in canonical normal form: the
class of the matrix [[pi^n, g], [0, 1]] with g a residue modulo
pi^n O_infinity.  A Vertex stores n together with the finitely many
coefficients of g (exponents from its valuation up to n-1, as codes
into GF); equality of the stored data is equality of vertices, so
vertices can key dicts and sets directly.

One rule reads a vertex off a matrix whose determinant's valuation is
known (column_vertex): n from it and the pivot (the bottom entry of
smaller valuation), g from one quotient cut at pi^n, taken on the code
tuples of the pivot column.  vnf, act and homspace.transport use it.
An InsufficientPrecisionError escapes when the working precision cannot
certify the determinant's valuation (vnf), the pivot or a digit of g.
distance and toward_base are closed forms in (n, gval, gcoeffs).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import zip_longest

from .algebra import GF, excerpt
from .laurent import (INF, InsufficientPrecisionError, Laurent, Mat2,
                      _series_inverse)


DEFAULT_PRECISION_CAP = 1 << 14


def retry_with_precision(fn, start: int, cap: int = DEFAULT_PRECISION_CAP):
    """fn(prec) at precision max(4, start), doubled after each
    InsufficientPrecisionError until an attempt at or above cap fails.
    Only tests call it: the program computes its precisions."""
    prec = max(4, start)
    while True:
        try:
            return fn(prec)
        except InsufficientPrecisionError:
            if prec >= cap:
                raise
            prec *= 2


@dataclass(frozen=True)
class Vertex:
    """[L(n, g)] with g = sum gcoeffs[i] * pi^(gval + i), reduced mod pi^n."""

    n: int
    gval: int
    gcoeffs: tuple[int, ...]

    @classmethod
    def make(cls, n: int, gval: int, gcoeffs) -> "Vertex":
        # canonical truncation: drop exponents >= n
        cs = list(gcoeffs)[:max(0, n - gval)]
        while cs and cs[0] == 0:
            cs.pop(0)
            gval += 1
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            gval = 0
        return cls(n, gval, tuple(cs))

    def degn(self) -> int:
        """deg_n(g) = n - v(g), with deg_n(0) = 0."""
        return self.n - self.gval if self.gcoeffs else 0

    def dist_to_base(self) -> int:
        """distance(self, BASE_VERTEX) = n - 2 min(n, 0, gval)."""
        return self.n - 2 * min(self.n, 0, self.gval)

    def __repr__(self):
        return format_vertex(self)


BASE_VERTEX = Vertex(0, 0, ())


# ---------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------

def vnf(M: Mat2) -> Vertex:
    """Vertex normal form of the lattice class of an invertible matrix:
    column_vertex at the valuation of its determinant."""
    a, b, c, d = M.a, M.b, M.c, M.d
    det = a * d - b * c
    if det.is_exact_zero:
        raise ZeroDivisionError("matrix is singular")
    if not det.coeffs:
        raise InsufficientPrecisionError("determinant undetermined")
    return column_vertex(a, c, b, d, det.val)


def act(A: Mat2, v: Vertex) -> Vertex:
    """The action of a unit A = iota(gamma), det A = nrd(gamma) in F_q^*;
    any invertible A acts by vnf(A * M_v), M_v = [[pi^n, g], [0, 1]].
    A * M_v = [[a pi^n, a g + b], [c pi^n, c g + d]] has determinant
    valuation n.  The Laurent form, for tests, of homspace.transport."""
    F, n = A.a.F, v.n
    g = Laurent(F, v.gval, v.gcoeffs, INF)  # the exact zero when g = 0
    return column_vertex(*(Laurent(F, x.val + n, x.coeffs, x.prec + n)
                           for x in (A.a, A.c)),
                         A.a * g + A.b, A.c * g + A.d, n)


def column_vertex(x1: Laurent, y1: Laurent, x2: Laurent, y2: Laurent,
                  det_val: int) -> Vertex:
    """The vertex of [[x1, x2], [y1, y2]], of determinant valuation
    det_val.  The pivot column (x, y) is the first if v(y1) < v(y2), else
    the second.  Clearing the other bottom entry with it and scaling by
    1/y gives [[det/y^2, x/y], [0, 1]] up to a column unit, so n =
    det_val - 2 v(y) and g = x/y mod pi^n, cut to its digits below pi^n.
    Those digits of g, from pi^(v(x) - v(y)), are the first digits of
    the code product of x's digits and 1/y's (laurent._series_inverse),
    so x and y must each be known to that many digits past their
    valuation; one fewer raises InsufficientPrecisionError."""
    x, y = (x1, y1) if y1.val < y2.val else (x2, y2)
    if y.is_exact_zero:
        raise ZeroDivisionError("matrix has zero bottom row")
    if not y.coeffs:
        raise InsufficientPrecisionError("bottom row valuations undetermined")
    n = det_val - 2 * y.val
    digits = n - (x.val - y.val)  # of x/y below pi^n
    if digits <= 0:
        return Vertex.make(n, 0, ())
    if min(x.prec - x.val, y.prec - y.val) < digits:
        raise InsufficientPrecisionError(
            f"top-right entry not determined modulo pi^{n}")
    F = y.F
    return Vertex.make(n, x.val - y.val, F.conv(
        x.coeffs[:digits], _series_inverse(F, y.coeffs, digits)))


# ---------------------------------------------------------------------
# adjacency, geodesics to the base vertex, distance
# ---------------------------------------------------------------------

def up_neighbor(v: Vertex) -> Vertex:
    """The neighbor [L(n-1, g mod pi^(n-1))]."""
    return Vertex.make(v.n - 1, v.gval, v.gcoeffs)


def down_neighbor(v: Vertex, alpha: int) -> Vertex:
    """The neighbor [L(n+1, g + alpha pi^n)]."""
    if not v.gcoeffs:
        return Vertex.make(v.n + 1, v.n, (alpha,))
    pad = v.n - (v.gval + len(v.gcoeffs))
    return Vertex.make(v.n + 1, v.gval, v.gcoeffs + (0,) * pad + (alpha,))


def neighbors(F: GF, v: Vertex) -> list[Vertex]:
    """All q+1 neighbors: the up-neighbor first, then the down ones,
    alpha in field order."""
    return [up_neighbor(v)] + [down_neighbor(v, a) for a in F.elements()]


def toward_base(v: Vertex, k: int) -> Vertex:
    """The vertex k steps from v along its geodesic to [L(0, 0)], for
    0 <= k <= v.dist_to_base(): up-neighbours [L(n - k, g mod pi^(n-k))]
    while g != 0 or n > 0, so for k <= max(deg_n(g), n), then the
    vertices [L(j, 0)] with j rising to 0."""
    d = v.degn()
    if k <= max(d, v.n):
        return Vertex.make(v.n - k, v.gval, v.gcoeffs)
    return Vertex(v.n - 2 * d + k, 0, ())


def distance(v: Vertex, w: Vertex) -> int:
    """n_v + n_w - 2 min(n_v, n_w, c), c = v(g_w - g_v): the first
    exponent where the (canonical) codes of g_v and g_w differ, or INF.

    Serre (*Trees*, ch. II.1): the class of an invertible X lies at
    distance v(det X) - 2 min v(X_ij) from [L(0, 0)], and M_v^(-1)
    carries v to [L(0, 0)] and w to the class of M_v^(-1) M_w =
    [[pi^(n_w - n_v), (g_w - g_v) pi^(-n_v)], [0, 1]].  A c at or above
    min(n_v, n_w) does not count, so each g is taken mod its own pi^n."""
    lo = min(v.gval, w.gval)
    digits = zip_longest((0,) * (v.gval - lo) + v.gcoeffs,
                         (0,) * (w.gval - lo) + w.gcoeffs, fillvalue=0)
    c = next((lo + i for i, (x, y) in enumerate(digits) if x != y), INF)
    return v.n + w.n - 2 * min(v.n, w.n, c)


# ---------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------

_VERTEX_RE = re.compile(
    r"^\(\s*(-?\d+)\s*;\s*(0|\d+(?:\s*,\s*\d+)*\s*@\s*-?\d+)\s*\)$")


def format_vertex(v: Vertex) -> str:
    """`(n; c_v,...,c_{n-1}@v)`, or `(n; 0)` when g = 0.

    Coefficients are printed as element codes (for prime q these are
    just the residues 0..p-1).
    """
    if not v.gcoeffs:
        return f"({v.n}; 0)"
    window = v.gcoeffs + (0,) * (v.n - v.gval - len(v.gcoeffs))
    return f"({v.n}; {','.join(str(c) for c in window)}@{v.gval})"


def parse_vertex(F: GF, text: str) -> Vertex:
    """The inverse of format_vertex; coefficients must be codes in
    0..q-1, written without a sign."""
    m = _VERTEX_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse vertex {excerpt(text)!r}")
    n = int(m.group(1))
    body = m.group(2)
    if body == "0":
        return Vertex.make(n, 0, ())
    coeff_part, val_part = body.split("@")
    gval = int(val_part)
    coeffs = [int(x) for x in coeff_part.split(",")]
    if max(coeffs) >= F.q:
        raise ValueError(f"coefficient code {max(coeffs)} is not "
                         f"in 0..{F.q - 1}")
    if gval + len(coeffs) > n:
        raise ValueError(f"coefficients reach exponent {gval + len(coeffs)} "
                         f"but must stay below n = {n}")
    return Vertex.make(n, gval, coeffs)
