"""Tests for precision-tracked Laurent arithmetic and Newton square roots.

Square roots are validated by re-squaring and comparing digits against
the directly embedded polynomial; inverses by round-trip to the
identity.  Precision honesty is checked by recomputing at higher
precision and truncating.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btquot.algebra import field, parse_poly, poly_trim
from btquot.laurent import (
    INVERSE_BASE,
    InsufficientPrecisionError,
    Laurent,
    Mat2,
    _series_inverse,
    newton_sqrt,
)
from laurent_helpers import (constant, det, identity, inv, min_val,
                             pi_power, valuation)

F3 = field(3)
F5 = field(5)
F7 = field(7)


def P(F, s):
    return parse_poly(F, s)


def test_from_poly_examples():
    z = Laurent.from_poly(F3, (), 7)
    assert z.is_exact_zero and z.val == math.inf
    t = Laurent.from_poly(F3, P(F3, "T"), 5)
    assert (t.val, t.coeffs, t.prec) == (-1, (1,), 5)
    f = Laurent.from_poly(F5, P(F5, "T^2+1"), 3)
    assert f.val == -2
    assert [f.coeff(k) for k in range(-2, 3)] == [1, 0, 1, 0, 0]
    with pytest.raises(ValueError):
        Laurent.from_poly(F5, P(F5, "T^2"), -2)


def test_coeff_access_and_precision_wall():
    x = Laurent.from_poly(F5, P(F5, "T+2"), 4)
    assert x.coeff(-1) == 1
    assert x.coeff(0) == 2
    assert x.coeff(3) == 0
    with pytest.raises(InsufficientPrecisionError):
        x.coeff(4)


def test_add_mul_precision_rules():
    x = constant(F5, 1, 2)            # 1 + O(pi^2)
    y = Laurent(F5, -1, (1,), 3)               # pi^-1 + O(pi^3)
    assert (x + y).prec == 2
    assert (x * y).prec == min(2 + (-1), 3 + 0)
    assert (x * y).val == -1
    # zero at a precision: O(pi^2) * pi^-1 = O(pi^1)
    z = Laurent.zero_at(F5, 2)
    assert not (z * y).coeffs and (z * y).prec == 1


def test_leading_zero_cancellation_tracks_valuation():
    x = Laurent(F3, 0, (1, 2), 5)
    y = Laurent(F3, 0, (2, 2), 5)
    s = x + y
    assert s.val == 1 and s.coeffs == (1,)
    d = x + x + x  # 3 = 0 in F_3
    assert not d.coeffs and d.prec == 5


@settings(max_examples=100)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=5),
       st.lists(st.integers(0, 4), min_size=1, max_size=5))
def test_mul_valuation_additive(fc, gc):
    f, g = poly_trim(fc), poly_trim(gc)
    if not f or not g:
        return
    x = Laurent.from_poly(F5, f, 6)
    y = Laurent.from_poly(F5, g, 6)
    assert valuation(x * y) == valuation(x) + valuation(y)
    s = x + y
    if s.coeffs:
        assert valuation(s) >= min(valuation(x), valuation(y))


def test_inverse_roundtrip_and_precision():
    x = Laurent.from_poly(F5, P(F5, "T^2+2*T+3"), 6)
    xi = x.inv()
    assert xi.val == 2
    assert xi.prec == 6 - 2 * (-2)
    prod = x * xi
    one = prod - constant(F5, 1, prod.prec)
    assert not one.coeffs
    with pytest.raises(InsufficientPrecisionError):
        Laurent.zero_at(F5, 3).inv()
    with pytest.raises(ZeroDivisionError):
        Laurent.zero(F5).inv()


@settings(max_examples=80)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_truncation_honesty(fc):
    f = poly_trim(fc)
    if not f:
        return
    lo = Laurent.from_poly(F3, f, 4)
    hi = Laurent.from_poly(F3, f, 9)
    assert hi.truncate(4) == lo
    assert (hi * hi).truncate((lo * lo).prec) == lo * lo
    assert hi.inv().truncate(lo.inv().prec) == lo.inv()


# ---------------------------------------------------------------------
# Newton square roots
# ---------------------------------------------------------------------

def test_newton_sqrt_trivial_cases():
    s = newton_sqrt(F5, (1,), 6)
    assert (s.val, s.coeffs) == (0, (1,))
    s = newton_sqrt(F5, P(F5, "T^2"), 6)
    assert (s.val, s.coeffs) == (-1, (1,))
    assert s.prec == 7  # one guard digit for deg 2


def test_newton_sqrt_rejects_bad_inputs():
    with pytest.raises(ValueError):
        newton_sqrt(F5, P(F5, "T^3"), 5)   # odd degree
    with pytest.raises(ValueError):
        newton_sqrt(F5, P(F5, "2*T^2"), 5)  # not monic
    with pytest.raises(ValueError):
        newton_sqrt(F5, (), 5)


def test_newton_sqrt_example_digits():
    f = P(F5, "T^2+2*T+3")
    s = newton_sqrt(F5, f, 8)
    assert s.val == -1 and s.coeffs[0] == 1
    diff = s * s - Laurent.from_poly(F5, f, 8)
    assert not diff.coeffs
    assert diff.prec >= 8


@pytest.mark.parametrize("q,text", [
    (3, "T^2+T+2"),
    (5, "T^2+2*T+3"),
    (7, "T^2+1"),
    (5, "T^4+T^2+2*T+2"),
    (3, "T^4+2*T^3+2"),
])
@pytest.mark.parametrize("prec", [1, 2, 5, 17])
def test_newton_sqrt_resquare(q, text, prec):
    F = field(q)
    f = P(F, text)
    m = (len(f) - 1) // 2
    s = newton_sqrt(F, f, prec)
    assert s.val == -m and s.coeffs[0] == 1
    diff = s * s - Laurent.from_poly(F, f, prec)
    assert not diff.coeffs and diff.prec >= prec


def test_newton_sqrt_precision_honesty():
    f = P(F5, "T^4+T^2+2*T+2")
    lo = newton_sqrt(F5, f, 5)
    hi = newton_sqrt(F5, f, 40)
    assert hi.truncate(lo.prec) == lo


# ---------------------------------------------------------------------
# 2x2 matrices
# ---------------------------------------------------------------------

def _vertex_style_matrix(F, n, gpoly, prec):
    """[[pi^n, g], [0, 1]] with g given as a polynomial in pi."""
    g = Laurent(F, 0, gpoly, prec) if gpoly else Laurent.zero_at(F, prec)
    return Mat2(pi_power(F, n, prec), g,
                Laurent.zero(F), constant(F, 1, prec))


def test_mat2_det_and_identity():
    A = _vertex_style_matrix(F5, 3, (), 8)
    dt = det(A)
    assert (dt.val, dt.coeffs) == (3, (1,))
    I = identity(F5, 8)
    assert A * I == A


def _assert_identityish(M):
    for entry, target in zip(M.entries(), (1, 0, 0, 1)):
        diff = entry - constant(entry.F, target, entry.prec) \
            if not entry.is_exact_zero else entry
        if isinstance(diff, Laurent) and diff.is_exact_zero:
            continue
        assert not diff.coeffs, M


def test_mat2_inverse_roundtrip():
    A = Mat2(pi_power(F5, 1, 9), Laurent.zero(F5),
             Laurent(F5, 0, (2, 0, 3), 9), constant(F5, 1, 9))
    B = inv(A)
    _assert_identityish(A * B)
    _assert_identityish(B * A)


def test_mat2_inv_precision_failure_is_recoverable():
    one = constant(F3, 1, 1)
    M = Mat2(one, one, one, one)  # det = O(pi), undetermined
    with pytest.raises(InsufficientPrecisionError):
        inv(M)
    zero = Laurent.zero(F3)
    c = constant(F3, 2, 5)
    with pytest.raises(ZeroDivisionError):
        inv(Mat2(c, zero, c, zero))  # exactly singular


def test_mat2_min_val():
    A = _vertex_style_matrix(F5, 2, (4,), 6)
    assert min_val(A) == 0
    B = Mat2(Laurent.zero_at(F5, -1), constant(F5, 1, 4),
             Laurent.zero(F5), constant(F5, 1, 4))
    with pytest.raises(InsufficientPrecisionError):
        min_val(B)


# ---------------------------------------------------------------------
# exact values: infinity is compared by value, inverses stay honest
# ---------------------------------------------------------------------

def test_computed_infinity_is_exact():
    z = Laurent(F5, 0, (), math.inf + 0)
    assert z.is_exact_zero
    x = Laurent(F5, 1, (1,), math.inf + 0)
    assert x.coeff(50) == 0


def test_exact_product_of_exact_series():
    x = Laurent(F5, 1, (1,), math.inf)
    y = Laurent(F5, 0, (1, 2), math.inf)
    prod = x * y
    assert prod == Laurent(F5, 1, (1, 2), math.inf)
    assert prod.prec == math.inf
    assert (prod + y).prec == math.inf


def test_exact_monomial_inverse_is_exact():
    x = Laurent(F5, 2, (3,), math.inf)
    assert x.inv() == Laurent(F5, -2, (2,), math.inf)
    assert x.inv().inv() == x


def test_exact_multi_term_inverse_raises():
    one_plus_pi = Laurent(F5, 0, (1, 1), math.inf)
    with pytest.raises(ValueError):
        one_plus_pi.inv()
    # at a finite precision the inverse exists: 1 - pi + pi^2 - ...
    assert one_plus_pi.truncate(6).inv() == \
        Laurent(F5, 0, (1, 4, 1, 4, 1, 4), 6)


# ---------------------------------------------------------------------
# array kernels against schoolbook references
# ---------------------------------------------------------------------

# with series of up to 40 coefficients these reach packed slots of 1, 2
# and 4 bytes in GF.conv
KERNEL_FIELDS = [3, 7, 9, 25, 27, 49, 127]


def school_mul(x, y):
    """x * y by the coefficient double loop and the precision rule."""
    F = x.F
    if x.is_exact_zero or y.is_exact_zero:
        return Laurent.zero(F)
    prec = min(x.prec + y.val, y.prec + x.val)
    if not x.coeffs or not y.coeffs:
        return Laurent.zero(F) if prec == math.inf else \
            Laurent.zero_at(F, prec)
    out = [0] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return Laurent(F, x.val + y.val, out, prec)


def school_add(x, y):
    F = x.F
    prec = min(x.prec, y.prec)
    if x.is_exact_zero:
        return y
    if y.is_exact_zero:
        return x
    ends = [z.val + len(z.coeffs) for z in (x, y) if z.coeffs]
    lo = min(x.val, y.val)
    hi = min(prec, max(ends, default=prec))
    if lo >= hi:
        return Laurent.zero_at(F, prec)
    return Laurent(F, lo, [F.add(x.coeff(k), y.coeff(k))
                           for k in range(lo, hi)], prec)


def school_inv(x):
    """1/x term by term: b_k = -b_0 * sum_{j>=1} c_j b_{k-j}."""
    F = x.F
    c = x.coeffs
    rel = x.prec - x.val
    b = [F.inv(c[0])]
    for k in range(1, rel):
        acc = 0
        for j in range(1, min(k, len(c) - 1) + 1):
            acc = F.add(acc, F.mul(c[j], b[k - j]))
        b.append(F.neg(F.mul(acc, b[0])))
    return Laurent(F, -x.val, b, x.prec - 2 * x.val)


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_series_inverse_matches_schoolbook_across_its_base(q):
    # the term-by-term base and the Newton steps after it
    F, K = field(q), INVERSE_BASE
    rng = random.Random(q)
    for n in (1, 2, K - 1, K, K + 1, 2 * K - 1, 2 * K, 2 * K + 1, 3 * K + 7):
        for length in (1, n // 3 + 1, n):
            a = [rng.randrange(1, q)] + [rng.randrange(q)
                                         for _ in range(length - 1)]
            x = Laurent(F, 0, a, n)
            b = _series_inverse(F, a, n)
            assert len(b) == n
            assert Laurent(F, 0, b, n) == school_inv(x), (n, length)


@st.composite
def series(draw, q, exact=None, unit=False):
    """A Laurent value over GF(q): exact or not, possibly zero at its
    precision or the exact zero."""
    F = field(q)
    val = draw(st.integers(-3, 3))
    coeffs = draw(st.lists(st.integers(0, q - 1), max_size=40))
    if unit:
        coeffs = [draw(st.integers(1, q - 1))] + coeffs
    is_exact = draw(st.booleans()) if exact is None else exact
    if is_exact:
        if not any(coeffs):
            return Laurent.zero(F)
        return Laurent(F, val, coeffs, math.inf)
    prec = val + draw(st.integers(0 if not unit else 1, 45))
    return Laurent(F, val, coeffs, prec)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(KERNEL_FIELDS))
def test_array_mul_and_add_match_schoolbook(data, q):
    x = data.draw(series(q))
    y = data.draw(series(q))
    assert x * y == school_mul(x, y)
    assert y * x == school_mul(x, y)
    assert x + y == school_add(x, y)
    assert x - x == school_add(x, -x)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(KERNEL_FIELDS))
def test_newton_inverse_matches_schoolbook(data, q):
    x = data.draw(series(q, exact=False, unit=True))
    assert x.inv() == school_inv(x)
    one = x * x.inv() - constant(x.F, 1, math.inf)
    assert not one.coeffs
