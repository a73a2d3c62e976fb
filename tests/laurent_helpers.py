"""Laurent values and 2x2 matrices over K_infinity inspected and built
the way the tests need; the package itself has no use for these."""

from btquot.laurent import INF, InsufficientPrecisionError, Laurent, Mat2


def valuation(x: Laurent):
    """Exact valuation; raises if only a lower bound is known."""
    if x.coeffs:
        return x.val
    if x.is_exact_zero:
        return INF
    raise InsufficientPrecisionError(
        f"valuation only bounded below by {x.prec}")


def identity(F, prec: int) -> Mat2:
    one = Laurent.constant(F, 1, prec)
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
