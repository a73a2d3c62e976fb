"""Laurent values and 2x2 matrices over K_infinity inspected and built
the way the tests need; the package itself has no use for these."""

from btquot.laurent import INF, InsufficientPrecisionError, Laurent, Mat2
from btquot.tree import Vertex, vnf


def valuation(x: Laurent):
    """Exact valuation; raises if only a lower bound is known."""
    if x.coeffs:
        return x.val
    if x.is_exact_zero:
        return INF
    raise InsufficientPrecisionError(
        f"valuation only bounded below by {x.prec}")


def constant(F, c: int, prec) -> Laurent:
    """c + O(pi^prec)."""
    return Laurent(F, 0, (c,), prec)


def pi_power(F, k: int, prec) -> Laurent:
    """pi^k + O(pi^prec)."""
    return Laurent(F, k, (1,), prec)


def identity(F, prec: int) -> Mat2:
    one = constant(F, 1, prec)
    zero = Laurent.zero(F)
    return Mat2(one, zero, zero, one)


def from_polys(F, rows, prec: int) -> Mat2:
    (fa, fb), (fc, fd) = rows
    return Mat2(*(Laurent.from_poly(F, f, prec) if f else Laurent.zero(F)
                  for f in (fa, fb, fc, fd)))


def det(M: Mat2) -> Laurent:
    return M.a * M.d - M.b * M.c


def inv(M: Mat2) -> Mat2:
    dt = det(M)
    if dt.is_exact_zero:
        raise ZeroDivisionError("matrix is singular")
    if not dt.coeffs:
        raise InsufficientPrecisionError(
            "determinant indistinguishable from zero")
    di = dt.inv()
    return Mat2(M.d * di, -(M.b * di), -(M.c * di), M.a * di)


def vertex_matrix(F, v: Vertex, prec=INF) -> Mat2:
    """The normal-form representative [[pi^n, g], [0, 1]] of v, exact
    unless a finite prec is given (then every entry is O(pi^prec))."""
    g = (Laurent(F, v.gval, v.gcoeffs, prec) if v.gcoeffs
         else Laurent.zero(F))
    return Mat2(pi_power(F, v.n, prec), g,
                Laurent.zero(F), constant(F, 1, prec))


def general_act(A: Mat2, v: Vertex) -> Vertex:
    """The action of any invertible A on lattice classes, through vnf
    and its determinant: vnf(A * M_v), M_v the vertex_matrix of v.
    A * M_v = [[a pi^n, a g + b], [c pi^n, c g + d]] is formed by the
    column shift, so its only products are a g and c g.  tree.act takes
    the same value for units (det A in F_q^*) without the determinant."""
    F, n = A.a.F, v.n
    g = Laurent(F, v.gval, v.gcoeffs, INF)  # the exact zero when g = 0

    def shifted(x: Laurent) -> Laurent:
        return Laurent(F, x.val + n, x.coeffs, x.prec + n)
    return vnf(Mat2(shifted(A.a), A.a * g + A.b,
                    shifted(A.c), A.c * g + A.d))


def pivot_quotient(x: Laurent, y: Laurent, n: int) -> Laurent:
    """g = x/y read to its digits below pi^n as a Laurent product and
    inverse, the form tree.column_vertex took before it divided on code
    tuples; its precision is below n when x or y has too few digits."""
    digits = n - (x.val - y.val)
    return x.truncate(n + y.val) * y.truncate(y.val + digits).inv()


def add(M: Mat2, N: Mat2) -> Mat2:
    return Mat2(M.a + N.a, M.b + N.b, M.c + N.c, M.d + N.d)


def scale(M: Mat2, s: Laurent) -> Mat2:
    return Mat2(M.a * s, M.b * s, M.c * s, M.d * s)


def min_val(M: Mat2) -> int:
    """v_infinity of the matrix: minimum of the entry valuations."""
    exact, bounds = [], []
    for x in M.entries():
        if x.is_exact_zero:
            continue
        if x.coeffs:
            exact.append(x.val)
        else:
            bounds.append(x.prec)
    if not exact:
        if not bounds:
            return INF
        raise InsufficientPrecisionError(
            "no entry has a determined valuation")
    m = min(exact)
    if bounds and min(bounds) < m:
        raise InsufficientPrecisionError(
            "an undetermined entry may have smaller valuation")
    return m
