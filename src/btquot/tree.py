"""The Bruhat-Tits tree for PGL_2(K_infinity).

Vertices are lattice classes [L(n, g)] in canonical normal form: the
class of the matrix [[pi^n, g], [0, 1]] with g a residue modulo
pi^n O_infinity.  A Vertex stores n together with the finitely many
coefficients of g (exponents from its valuation up to n-1, as codes
into GF); equality of the stored data is equality of vertices, so
vertices can key dicts and sets directly.

The normal form of an arbitrary invertible matrix is computed by column
reduction over GL_2(O_infinity) combined with scalar rescaling.  When
the working precision cannot certify a pivot choice or a coefficient of
g, an InsufficientPrecisionError escapes to the caller, who retries the
enclosing computation at doubled precision (retry_with_precision).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import GF
from .laurent import INF, InsufficientPrecisionError, Laurent, Mat2


DEFAULT_PRECISION_CAP = 1 << 14


def retry_with_precision(fn, start: int, cap: int = DEFAULT_PRECISION_CAP):
    """Call fn(prec) with doubling precision until it stops raising."""
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
        cs = list(gcoeffs)
        # canonical truncation: drop exponents >= n
        if gval + len(cs) > n:
            cs = cs[:n - gval]
        while cs and cs[0] == 0:
            cs.pop(0)
            gval += 1
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            gval = 0
        return cls(n, gval, tuple(cs))

    @property
    def g_is_zero(self) -> bool:
        return not self.gcoeffs

    def matrix(self, F: GF, prec=INF) -> Mat2:
        """The normal-form representative [[pi^n, g], [0, 1]], exact
        unless a finite prec is given (then every entry is O(pi^prec))."""
        g = (Laurent(F, self.gval, self.gcoeffs, prec) if self.gcoeffs
             else Laurent.zero(F))
        return Mat2(Laurent.pi_power(F, self.n, prec), g,
                    Laurent.zero(F), Laurent.constant(F, 1, prec))

    def degn(self) -> int:
        """deg_n(g) = max(0, n - v(g)), with deg_n(0) = 0."""
        if not self.gcoeffs:
            return 0
        return max(0, self.n - self.gval)

    def dist_to_base(self) -> int:
        """Distance to [L(0, 0)]: deg_n(g) + |n - deg_n(g)|."""
        d = self.degn()
        return d + abs(self.n - d)

    def __repr__(self):
        return format_vertex(self)


BASE_VERTEX = Vertex(0, 0, ())


# ---------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------

def _pivot_is_second(c: Laurent, d: Laurent) -> bool:
    """Decide whether v(d) <= v(c), raising when the precision cannot tell."""
    if d.is_exact_zero:
        if c.is_exact_zero:
            raise ZeroDivisionError("matrix has zero bottom row")
        if c.coeffs:
            return False
        raise InsufficientPrecisionError("bottom row valuations undetermined")
    if c.is_exact_zero:
        return True
    if d.coeffs and c.coeffs:
        return d.val <= c.val
    if d.coeffs:
        # c is zero at its precision, so v(c) >= c.prec
        if d.val <= c.prec:
            return True
        raise InsufficientPrecisionError("bottom-left valuation undetermined")
    if c.coeffs and c.val < d.prec:
        return False
    raise InsufficientPrecisionError("bottom row valuations undetermined")


def vnf(M: Mat2) -> Vertex:
    """Vertex normal form of the lattice class of an invertible matrix.

    Column reduction: pivot on the bottom-row entry of smaller
    valuation, clear the other bottom entry, rescale the matrix so the
    bottom row becomes (0, 1), and truncate the top-right entry modulo
    pi^n where pi^n is the top-left valuation.
    """
    a, b, c, d = M.a, M.b, M.c, M.d
    if not _pivot_is_second(c, d):
        a, b, c, d = b, a, d, c
    # clear c using the pivot d, then rescale by 1/d
    di = d.inv()
    if not c.is_exact_zero:
        factor = c * di
        a = a - factor * b
    A = a * di
    B = b * di
    if A.is_exact_zero:
        raise ZeroDivisionError("matrix is singular")
    if A.is_zero_at_prec:
        raise InsufficientPrecisionError("top-left valuation undetermined")
    n = A.val
    if B.is_exact_zero:
        return Vertex.make(n, 0, ())
    if B.coeffs and B.val >= n:
        return Vertex.make(n, 0, ())
    if B.prec < n:
        raise InsufficientPrecisionError(
            f"top-right entry not determined modulo pi^{n}")
    if B.is_zero_at_prec:
        return Vertex.make(n, 0, ())
    return Vertex.make(n, B.val, B.coeffs)  # make truncates at pi^n


def act(A: Mat2, v: Vertex) -> Vertex:
    """The action on lattice classes: vnf(A * matrix(v)), with the exact
    vertex matrix, so A alone bounds the precision."""
    return vnf(A * v.matrix(A.a.F))


# ---------------------------------------------------------------------
# adjacency, geodesics, distance
# ---------------------------------------------------------------------

def up_neighbor(v: Vertex) -> Vertex:
    """The neighbor [L(n-1, g mod pi^(n-1))]."""
    return Vertex.make(v.n - 1, v.gval, v.gcoeffs)


def down_neighbors(F: GF, v: Vertex) -> list[Vertex]:
    """The q neighbors [L(n+1, g + alpha pi^n)], alpha in field order."""
    out = []
    pad = v.n - (v.gval + len(v.gcoeffs))
    for alpha in F.elements():
        if v.gcoeffs:
            coeffs = v.gcoeffs + (0,) * pad + (alpha,)
            out.append(Vertex.make(v.n + 1, v.gval, coeffs))
        else:
            out.append(Vertex.make(v.n + 1, v.n, (alpha,)))
    return out


def neighbors(F: GF, v: Vertex) -> list[Vertex]:
    """All q+1 neighbors: the up-neighbor first, then the down ones."""
    return [up_neighbor(v)] + down_neighbors(F, v)


def geodesic_to_base(v: Vertex) -> list[Vertex]:
    """The geodesic from v to [L(0, 0)].

    First phase: up-neighbors until g vanishes (deg_n(g) steps); second
    phase: along the vertices [L(k, 0)] to k = 0.
    """
    path = [v]
    cur = v
    while not cur.g_is_zero:
        cur = up_neighbor(cur)
        path.append(cur)
    while cur.n != 0:
        step = -1 if cur.n > 0 else 1
        cur = Vertex.make(cur.n + step, 0, ())
        path.append(cur)
    return path


def distance(v: Vertex, w: Vertex) -> int:
    """Tree distance: the geodesics of v and w to the base vertex run
    together from the first vertex of v's that lies on w's, so the
    distance is the sum of the steps both take to reach it."""
    steps_w = {x: k for k, x in enumerate(geodesic_to_base(w))}
    return next(k + steps_w[x] for k, x in enumerate(geodesic_to_base(v))
                if x in steps_w)


# ---------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------

_VERTEX_RE = re.compile(
    r"^\(\s*(-?\d+)\s*;\s*(0|(?:-?\d+)(?:\s*,\s*-?\d+)*\s*@\s*-?\d+)\s*\)$")


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
    m = _VERTEX_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse vertex {text!r}")
    n = int(m.group(1))
    body = m.group(2)
    if body == "0":
        return Vertex.make(n, 0, ())
    coeff_part, val_part = body.split("@")
    gval = int(val_part)
    coeffs = [int(x) % F.q for x in coeff_part.split(",")]
    if gval + len(coeffs) > n:
        raise ValueError(f"coefficients reach exponent {gval + len(coeffs)} "
                         f"but must stay below n = {n}")
    return Vertex.make(n, gval, coeffs)
