"""Tests for the base arithmetic layer.

Expected values for the nontrivial cases are produced by brute-force
oracles defined at the top of this file (square tables by enumeration,
trial division, the local case analysis of the Hilbert symbol, and the
product formula over all places), not by the code under test.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btquot import algebra
from btquot.algebra import (
    GF,
    MAX_Q,
    ONE_POLY,
    T_POLY,
    ZERO_POLY,
    _prime_divisors,
    enumerate_monic_irreducibles,
    enumerate_monic_polys,
    field,
    format_poly,
    hilbert_symbol,
    is_irreducible,
    legendre,
    parse_poly,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_neg,
    poly_pow_mod,
    poly_sort_key,
    poly_trim,
    split_polys,
    sqrt_mod_irreducible,
)

F3 = field(3)
F5 = field(5)
F7 = field(7)


def P(F, text):
    return parse_poly(F, text)


# ---------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------

def all_residues(F, f):
    """All residues modulo f as trimmed tuples."""
    d = poly_deg(f)
    out = []
    for coeffs in itertools.product(range(F.q), repeat=d):
        out.append(poly_trim(coeffs))
    return out


def squares_mod(F, f):
    """Set of nonzero squares modulo f, by enumeration."""
    sq = set()
    for r in all_residues(F, f):
        if r:
            sq.add(poly_mod(F, poly_mul(F, r, r), f))
    sq.discard(ZERO_POLY)
    return sq


def legendre_oracle(F, a, f):
    am = poly_mod(F, a, f)
    if not am:
        return 0
    return 1 if am in squares_mod(F, f) else -1


def legendre_euler(F, a, varpi):
    """Euler's criterion, the form legendre took before it used
    reciprocity: a^((q^deg - 1)/2) in A/(varpi) is 1 or -1, or a is 0
    there."""
    am = poly_mod(F, a, varpi)
    if not am:
        return 0
    s = poly_pow_mod(F, am, (F.q ** poly_deg(varpi) - 1) // 2, varpi)
    assert s in (ONE_POLY, (F.neg(1),)), s
    return 1 if s == ONE_POLY else -1


def hilbert_oracle(F, a, b, varpi):
    """Local case analysis: strip the valuation, decide by square tests.

    For odd residue characteristic: (u, v) = +1 for units u, v;
    (pu, v) = [v square mod p]; (pu, pv) = [-uv square mod p].
    """
    def split(f):
        v = 0
        while not poly_mod(F, f, varpi):
            f = poly_divmod(F, f, varpi)[0]
            v += 1
        return v % 2, f

    va, u = split(a)
    vb, v = split(b)
    if va and vb:
        target = poly_neg(F, poly_mul(F, u, v))
    elif va:
        target = v
    elif vb:
        target = u
    else:
        return 1
    return 1 if poly_mod(F, target, varpi) in squares_mod(F, varpi) else -1


def irreducible_oracle(F, f):
    """Trial division by every monic polynomial of smaller degree."""
    d = poly_deg(f)
    if d <= 0:
        return False
    for k in range(1, d // 2 + 1):
        for g in enumerate_monic_polys(F, k):
            if not poly_mod(F, f, g):
                return False
    return True


def schoolbook_add(F, a, b):
    """Coordinatewise sum of two codes over F_p."""
    return F.from_coords([x + y for x, y in zip(F.coords(a), F.coords(b))])


def schoolbook_neg(F, a):
    return F.from_coords([-x for x in F.coords(a)])


def schoolbook_mul(F, a, b):
    """Product of the coordinate polynomials, reduced term by term from
    the top by the defining polynomial F.modulus."""
    ca, cb = F.coords(a), F.coords(b)
    prod = [0] * (2 * F.e - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] = (prod[i + j] + x * y) % F.p
    for k in range(len(prod) - 1, F.e - 1, -1):
        c = prod[k]
        prod[k] = 0
        for j in range(F.e):
            prod[k - F.e + j] = (prod[k - F.e + j] - c * F.modulus[j]) % F.p
    return F.from_coords(prod[:F.e])


def monic_irreducible_count(q, d):
    """Gauss necklace count (1/d) sum_{k | d} mu(k) q^(d/k)."""
    def mu(n):
        result, m = 1, n
        p = 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                result = -result
            p += 1
        if m > 1:
            result = -result
        return result

    total = sum(mu(k) * q ** (d // k) for k in range(1, d + 1) if d % k == 0)
    return total // d


# ---------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------

@pytest.mark.parametrize("q", [3, 9])
def test_field_axioms_exhaustive(q):
    F = GF(q)
    els = list(range(q))
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a, b, c in itertools.product(els, repeat=3):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [25, 27, 49])
@settings(max_examples=60)
@given(st.data())
def test_field_axioms_sampled(q, data):
    F = GF(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a:
        assert F.mul(a, F.inv(a)) == 1
    # Frobenius is additive in characteristic p
    assert F.pow(F.add(a, b), F.p) == F.add(F.pow(a, F.p), F.pow(b, F.p))


# the defining polynomials (constant first) the fields had when they
# were a table; the derived default must reproduce them
FORMER_MODULI = {
    9: (1, 0, 1),      # x^2 + 1           over F_3
    25: (1, 1, 1),     # x^2 + x + 1       over F_5
    27: (1, 0, 2, 1),  # x^3 + 2x^2 + 1    over F_3
    49: (1, 0, 1),     # x^2 + 1           over F_7
}


@pytest.mark.parametrize("q", sorted(FORMER_MODULI))
def test_default_moduli_are_first_canonical_irreducibles(q):
    F = GF(q)
    base = GF(F.p)
    first = next(enumerate_monic_irreducibles(base, F.e))
    assert F.modulus == FORMER_MODULI[q] == first


@pytest.mark.parametrize("q", [81, 121, 125])
def test_every_prime_power_up_to_the_maximum_has_a_default_modulus(q):
    F = GF(q)
    assert F.modulus == next(enumerate_monic_irreducibles(GF(F.p), F.e))
    a = F.primitive_root()
    assert F.pow(a, q - 1) == 1 and F.mul(a, F.inv(a)) == 1


def test_coords_roundtrip_and_order():
    F = GF(9)
    for a in range(9):
        assert F.from_coords(F.coords(a)) == a
        assert len(F.coords(a)) == 2
    # canonical order is lexicographic on (c0, c1)
    els = F.elements()
    assert [F.coords(a) for a in els] == sorted(F.coords(a) for a in range(9))


@pytest.mark.parametrize("F", [GF(q) for q in (3, 5, 7, 9, 25, 27, 49)]
                         + [GF(9, modulus=(2, 2, 1))],
                         ids=lambda F: f"{F.q}-{F.modulus}")
def test_field_codes_match_schoolbook_reference(F):
    els = range(F.q)
    for a in els:
        assert F.neg(a) == schoolbook_neg(F, a)
        for b in els:
            assert F.add(a, b) == schoolbook_add(F, a, b)
            assert F.sub(a, b) == schoolbook_add(F, a, schoolbook_neg(F, b))
            assert F.mul(a, b) == schoolbook_mul(F, a, b)
        if a:
            assert schoolbook_mul(F, a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    # column k of fold holds the coordinates of x^k (x has the code p)
    powers = [1]
    for _ in range(3 * F.e - 3):
        powers.append(schoolbook_mul(F, powers[-1], F.p))
    assert F.fold.T.tolist() == [list(F.coords(c)) for c in powers]


def brute_order(mul, x, one):
    """The multiplicative order of x, by repeated multiplication."""
    order, acc = 1, x
    while acc != one:
        acc, order = mul(acc, x), order + 1
    return order


ODD_PRIME_POWERS = [q for q in range(3, MAX_Q + 1, 2)
                    if len(_prime_divisors(q)) == 1]


# the first three roots by hand; for every other odd prime power up to
# MAX_Q the brute-force search alone decides
@pytest.mark.parametrize("q,root", [(3, 2), (5, 2), (7, 3)] + [
    (q, None) for q in ODD_PRIME_POWERS if q > 7])
def test_primitive_root_matches_bruteforce(q, root):
    F = field(q)
    g = F.primitive_root()
    assert g == next(a for a in F.elements()
                     if a and brute_order(F.mul, a, 1) == q - 1)
    assert root in (None, g)


def test_prime_divisors_match_bruteforce():
    primes = [p for p in range(2, 2001) if all(p % k for k in range(2, p))]
    for n in range(1, 2001):
        assert _prime_divisors(n) == [p for p in primes if n % p == 0]


def test_primitive_root_extension_field():
    F = GF(9)
    g = F.primitive_root()
    powers = {F.pow(g, k) for k in range(8)}
    assert len(powers) == 8
    # no earlier element in canonical order generates
    for a in F.elements():
        if a == g:
            break
        if a == 0:
            continue
        assert len({F.pow(a, k) for k in range(8)}) < 8


# ---------------------------------------------------------------------
# power, product and the order test
# ---------------------------------------------------------------------

# k = 0, 1, 2^j and 2^j - 1 for j <= 8, and 12 seeded k <= 200
POWER_EXPONENTS = sorted({0, 1, *(2 ** j for j in range(9)),
                          *(2 ** j - 1 for j in range(1, 9)),
                          *random.Random(19).sample(range(201), 12)})


def residue_ring(F, f):
    """(mul, one, elements) of A/(f)."""
    residues = [poly_trim(c) for c in itertools.product(
        F.elements(), repeat=poly_deg(f))]
    return (lambda a, b: poly_mod(F, poly_mul(F, a, b), f), ONE_POLY,
            residues)


def test_power_matches_repeated_multiplication_in_fields():
    F9 = field(9)
    f = next(enumerate_monic_irreducibles(F3, 3))
    for mul, one, xs in [(F9.mul, 1, range(9)), residue_ring(F3, f)]:
        for x in xs:
            acc, powers = one, []
            for _ in range(POWER_EXPONENTS[-1] + 1):
                powers.append(acc)
                acc = mul(acc, x)
            for k in POWER_EXPONENTS:
                assert algebra.power(mul, x, k, one) == powers[k]


def test_power_makes_the_left_to_right_products_and_none_by_one():
    # in the free monoid of strings no power of x is the identity "", so
    # an operand "" could only be the one passed in
    calls = []

    def cat(a, b):
        calls.append((a, b))
        return a + b

    for k in range(300):
        calls.clear()
        assert algebra.power(cat, "x", k, "") == "x" * k
        assert len(calls) == max(0, k.bit_length() - 1
                                 + bin(k).count("1") - 1)
        assert all("" not in c for c in calls)


def test_pow_of_negative_exponent_is_the_inverse_power():
    for F in (field(7), field(9), field(25)):
        for a in range(1, F.q):
            for k in (1, 2, 3, F.q - 2, 2 * F.q + 1):
                assert F.pow(a, -k) == F.pow(F.inv(a), k)
                assert F.mul(F.pow(a, k), F.pow(a, -k)) == 1


def test_product_folds_left_to_right_without_one():
    calls = []

    def cat(a, b):
        calls.append((a, b))
        return a + b

    assert algebra.product(cat, [], "") == "" and calls == []
    assert algebra.product(cat, iter(["x"]), "") == "x" and calls == []
    assert algebra.product(cat, ["x", "y", "z"], "") == "xyz"
    assert calls == [("x", "y"), ("xy", "z")]


@pytest.mark.parametrize("q", [3, 7, 9, 13, 25, 27])
def test_order_test_matches_bruteforce(q):
    F = field(q)
    divisors = [n for n in range(1, q) if (q - 1) % n == 0]
    for a in range(1, q):
        order = brute_order(F.mul, a, 1)
        for n in divisors:
            if n % order == 0:  # the order test's premise, a^n = 1
                assert algebra.has_order(F.mul, a, n, 1) == (order == n)


def test_field_above_max_q_rejected_before_any_work(monkeypatch):
    # the size check comes first, so no large field is ever factored or
    # tabulated here
    def refuse(q):
        raise AssertionError(f"GF({q}) got past the size check")
    monkeypatch.setattr(algebra, "_factor_prime_power", refuse)
    for q in (MAX_Q + 4, 3 ** 5, 10 ** 9 + 7):
        with pytest.raises(ValueError, match="supported maximum"):
            GF(q)


def test_max_q_is_an_accepted_odd_prime():
    assert GF(MAX_Q).q == MAX_Q


def test_bad_field_specs_rejected():
    with pytest.raises(ValueError):
        GF(4)  # characteristic 2
    with pytest.raises(ValueError):
        GF(12)  # not a prime power
    with pytest.raises(ValueError):
        GF(9, modulus=(0, 0, 1))  # x^2 is reducible


# ---------------------------------------------------------------------
# polynomial ring
# ---------------------------------------------------------------------

def test_poly_divmod_examples():
    # (T^2+1, T) over F_3
    q, r = poly_divmod(F3, P(F3, "T^2+1"), T_POLY)
    assert (q, r) == (T_POLY, ONE_POLY)
    # unit divisor
    f = P(F5, "T^3+2*T+1")
    assert poly_divmod(F5, f, ONE_POLY) == (f, ZERO_POLY)
    # (T^3+2T+1, T^2+1) over F_5: re-multiplication fixes (T, T+1)
    g = P(F5, "T^2+1")
    q, r = poly_divmod(F5, f, g)
    assert poly_add(F5, poly_mul(F5, q, g), r) == f
    assert poly_deg(r) < poly_deg(g)
    assert (q, r) == (T_POLY, P(F5, "T+1"))


def test_poly_divmod_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(F3, ONE_POLY, ZERO_POLY)


@settings(max_examples=150)
@given(
    st.lists(st.integers(0, 4), max_size=6),
    st.lists(st.integers(0, 4), min_size=1, max_size=4),
)
def test_poly_divmod_identity(fc, gc):
    f, g = poly_trim(fc), poly_trim(gc)
    if not g:
        return
    q, r = poly_divmod(F5, f, g)
    assert poly_add(F5, poly_mul(F5, q, g), r) == f
    assert poly_deg(r) < poly_deg(g)


@settings(max_examples=100)
@given(
    st.lists(st.integers(0, 2), max_size=5),
    st.lists(st.integers(0, 2), max_size=5),
)
def test_poly_mul_degree_additivity(fc, gc):
    f, g = poly_trim(fc), poly_trim(gc)
    h = poly_mul(F3, f, g)
    if f and g:
        assert poly_deg(h) == poly_deg(f) + poly_deg(g)
    else:
        assert h == ZERO_POLY


CONV_FIELDS = [3, 5, 7, 9, 25, 27, 49, 127]
OPERAND_KINDS = [tuple, list, lambda c: np.array(c, dtype=np.int64)]


@pytest.mark.parametrize("q", CONV_FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_conv_matches_poly_mul(q, data):
    # an int64 array operand must be read code by code, not as the raw
    # memory that bytes() of an array gives
    F = field(q)
    codes = st.lists(st.integers(0, q - 1), min_size=1, max_size=60)
    a, b = data.draw(codes), data.draw(codes)
    kind = data.draw(st.sampled_from(OPERAND_KINDS))
    prod = F.conv(kind(a), kind(b))
    assert len(prod) == len(a) + len(b) - 1
    assert poly_trim(prod) == poly_mul(F, poly_trim(a), poly_trim(b))


@pytest.mark.parametrize("q", CONV_FIELDS)
def test_conv_top_digits_at_every_slot_width(q):
    # every digit p-1: the slot sums meet the bound the slot width is
    # derived from, at lengths on both sides of each width change
    F = field(q)
    for n in (1, 2, 4, 5, 7, 8, 16, 64, 300):
        a, b = [q - 1] * n, [q - 1] * (n + 3)
        for kind in OPERAND_KINDS:
            assert F.conv(kind(a), kind(b)) == list(poly_mul(F, a, b))


def test_gcd_of_coprimes_and_common_factor():
    f = poly_mul(F5, P(F5, "T+1"), P(F5, "T+2"))
    g = poly_mul(F5, P(F5, "T+1"), P(F5, "T+3"))
    assert poly_gcd(F5, f, g) == P(F5, "T+1")
    assert poly_gcd(F5, P(F5, "T"), P(F5, "T+1")) == ONE_POLY


# ---------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------

def test_is_irreducible_examples():
    assert is_irreducible(F3, T_POLY)
    assert is_irreducible(F5, T_POLY)
    assert is_irreducible(F5, P(F5, "T^2+2*T+3"))  # no root in F_5
    assert not is_irreducible(F5, P(F5, "T^2+1"))  # root 2
    with pytest.raises(ValueError):
        is_irreducible(F3, ZERO_POLY)


@pytest.mark.parametrize("q,maxdeg", [(3, 4), (5, 3), (7, 2)])
def test_is_irreducible_against_trial_division(q, maxdeg):
    F = field(q)
    for d in range(1, maxdeg + 1):
        for f in enumerate_monic_polys(F, d):
            assert is_irreducible(F, f) == irreducible_oracle(F, f), f


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_irreducible_counts(q, d):
    F = field(q)
    got = sum(1 for _ in enumerate_monic_irreducibles(F, d))
    assert got == monic_irreducible_count(q, d)


def test_enumeration_order_degree_one():
    assert list(enumerate_monic_irreducibles(F3, 1)) == [
        T_POLY, P(F3, "T+1"), P(F3, "T+2")]


def test_enumeration_order_is_canonical():
    polys = list(enumerate_monic_irreducibles(F5, 2))
    keys = [poly_sort_key(F5, f, 3) for f in polys]
    assert keys == sorted(keys)
    assert len(polys) == 10


@pytest.mark.parametrize("d", [0, 1, 2])
def test_monic_enumeration_follows_poly_sort_key_q9(d):
    F = GF(9)
    polys = list(enumerate_monic_polys(F, d))
    assert len(set(polys)) == len(polys) == 9 ** d
    assert all(poly_deg(f) == d and f[-1] == 1 for f in polys)
    assert polys == sorted(polys, key=lambda f: poly_sort_key(F, f))


# ---------------------------------------------------------------------
# legendre / hilbert
# ---------------------------------------------------------------------

def test_legendre_examples():
    assert legendre(F3, T_POLY, T_POLY) == 0
    assert legendre(F5, ONE_POLY, P(F5, "T+2")) == 1
    assert legendre(F5, P(F5, "2"), T_POLY) == -1  # squares in F_5: {1, 4}
    with pytest.raises(ValueError):
        legendre(F5, ONE_POLY, P(F5, "T^2+1"))  # reducible modulus


@pytest.mark.parametrize("q", [3, 5])
def test_legendre_against_square_table(q):
    F = field(q)
    moduli = [T_POLY, P(F, "T+1"), next(enumerate_monic_irreducibles(F, 2))]
    for f in moduli:
        for a in all_residues(F, f):
            assert legendre(F, a, f) == legendre_oracle(F, a, f)


@settings(max_examples=120)
@given(st.lists(st.integers(0, 4), max_size=5),
       st.lists(st.integers(0, 4), max_size=5))
def test_legendre_multiplicative(ac, bc):
    a, b = poly_trim(ac), poly_trim(bc)
    varpi = P(F5, "T^2+2*T+3")
    la, lb = legendre(F5, a, varpi), legendre(F5, b, varpi)
    assert legendre(F5, poly_mul(F5, a, b), varpi) == la * lb
    if la:
        assert legendre(F5, poly_mul(F5, a, a), varpi) == 1


@pytest.mark.parametrize("q", [3, 5])
def test_quadratic_reciprocity(q):
    F = field(q)
    irr = []
    for d in (1, 2, 3):
        irr.extend(enumerate_monic_irreducibles(F, d))
    eps = (q - 1) // 2
    for p1, p2 in itertools.combinations(irr, 2):
        lhs = legendre(F, p1, p2) * legendre(F, p2, p1)
        rhs = (-1) ** (eps * poly_deg(p1) * poly_deg(p2))
        assert lhs == rhs, (p1, p2)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49])
def test_legendre_by_reciprocity_matches_euler(q):
    """For two seeded monic irreducibles varpi of each degree 1 to 4:
    every constant, multiples of varpi and seeded a of degree up to 3
    deg varpi give Euler's criterion's symbol."""
    F, rng = field(q), random.Random(q)
    for d in (1, 2, 3, 4):
        monic = iter(lambda: tuple(rng.randrange(q) for _ in range(d))
                     + (1,), None)
        irreducibles = (f for f in monic if is_irreducible(F, f))
        for varpi in (next(irreducibles), next(irreducibles)):
            def poly(deg):
                return poly_trim([rng.randrange(q) for _ in range(deg)]
                                 + [rng.randrange(1, q)])
            tests = [(c,) for c in range(1, q)]
            tests += [poly_mul(F, varpi, poly(rng.randint(0, d)))
                      for _ in range(3)]
            tests += [poly(rng.randint(1, 3 * d)) for _ in range(12)]
            for a in tests:
                assert legendre(F, a, varpi) == legendre_euler(F, a, varpi), \
                    (a, varpi)


def test_hilbert_symbol_examples():
    # unit first argument
    for b in [ONE_POLY, P(F5, "T+1"), P(F5, "3")]:
        assert hilbert_symbol(F5, ONE_POLY, b, P(F5, "T+3")) == 1
    # (T, T+1) at T+2 over F_5, against the local case analysis
    varpi = P(F5, "T+2")
    expected = hilbert_oracle(F5, T_POLY, P(F5, "T+1"), varpi)
    assert hilbert_symbol(F5, T_POLY, P(F5, "T+1"), varpi) == expected
    with pytest.raises(ValueError):
        hilbert_symbol(F5, ZERO_POLY, ONE_POLY, T_POLY)


@pytest.mark.parametrize("q", [3, 5])
def test_hilbert_against_case_analysis(q):
    F = field(q)
    varpis = [T_POLY, P(F, "T+1"), next(enumerate_monic_irreducibles(F, 2))]
    pool = [ONE_POLY, P(F, "2"), T_POLY, P(F, "T+1"), P(F, "T+2"),
            P(F, "T^2+T+2")]
    for varpi in varpis:
        for a, b in itertools.product(pool, repeat=2):
            got = hilbert_symbol(F, a, b, varpi)
            assert got == hilbert_oracle(F, a, b, varpi), (a, b, varpi)
            assert got == hilbert_symbol(F, b, a, varpi)


@pytest.mark.parametrize("q", [3, 5])
def test_hilbert_bimultiplicative(q):
    F = field(q)
    varpi = P(F, "T+1")
    pool = [ONE_POLY, P(F, "2"), T_POLY, P(F, "T+2"), P(F, "T^2+T+2")]
    for a1, a2, b in itertools.product(pool, repeat=3):
        lhs = hilbert_symbol(F, poly_mul(F, a1, a2), b, varpi)
        assert lhs == (hilbert_symbol(F, a1, b, varpi)
                       * hilbert_symbol(F, a2, b, varpi))


def _infinite_place_symbol(F, a, b):
    """Hilbert symbol at the place at infinity (uniformizer 1/T).

    v(f) = -deg f; the unit part reduces to the leading coefficient in
    the residue field F_q.
    """
    fq_squares = {F.mul(x, x) for x in range(1, F.q)}

    def chi(c):
        return 1 if c in fq_squares else -1

    va, vb = -poly_deg(a), -poly_deg(b)
    eps = (F.q - 1) // 2
    sign = -1 if (va * vb * eps) % 2 else 1
    return sign * chi(a[-1]) ** (vb % 2) * chi(b[-1]) ** (va % 2)


@pytest.mark.parametrize("q", [3, 5])
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_hilbert_product_formula(q, data):
    """Product of local symbols over all places (including infinity) is 1."""
    F = field(q)
    pool = ([T_POLY, P(F, "T+1"), P(F, "T+2")]
            + list(enumerate_monic_irreducibles(F, 2))[:2])
    scalars = st.integers(1, q - 1)

    def factored(label):
        exps = data.draw(
            st.lists(st.integers(0, 2), min_size=len(pool),
                     max_size=len(pool)), label=label)
        c = data.draw(scalars, label=label + "_scalar")
        f = (c,)
        for p, k in zip(pool, exps):
            for _ in range(k):
                f = poly_mul(F, f, p)
        return f

    a = factored("a")
    b = factored("b")
    prod = _infinite_place_symbol(F, a, b)
    for varpi in pool:
        prod *= hilbert_symbol(F, a, b, varpi)
    assert prod == 1


# ---------------------------------------------------------------------
# sqrt
# ---------------------------------------------------------------------

def test_sqrt_examples():
    assert sqrt_mod_irreducible(F5, ONE_POLY, P(F5, "T+2")) == ONE_POLY
    assert sqrt_mod_irreducible(F5, P(F5, "4"), T_POLY) == P(F5, "2")
    with pytest.raises(ValueError):
        sqrt_mod_irreducible(F5, P(F5, "2"), T_POLY)  # non-square


@pytest.mark.parametrize("q", [3, 5])
def test_sqrt_exhaustive_small_moduli(q):
    F = field(q)
    moduli = [T_POLY, P(F, "T+1"), next(enumerate_monic_irreducibles(F, 2))]
    for f in moduli:
        d = poly_deg(f)
        for a in squares_mod(F, f):
            x = sqrt_mod_irreducible(F, a, f)
            assert poly_mod(F, poly_mul(F, x, x), f) == a
            other = poly_neg(F, x)
            assert poly_sort_key(F, x, d) <= poly_sort_key(F, other, d)


def test_sqrt_degree_three_modulus():
    f = next(enumerate_monic_irreducibles(F3, 3))
    count = 0
    for a in squares_mod(F3, f):
        x = sqrt_mod_irreducible(F3, a, f)
        assert poly_mod(F3, poly_mul(F3, x, x), f) == a
        count += 1
    assert count == (3 ** 3 - 1) // 2


# ---------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------

def test_parse_poly_accepts_variants():
    f = P(F5, "T^2+2*T+3")
    assert P(F5, "3 + T^2 + 2T") == f
    assert P(F5, "2*T + T^2 + 3") == f
    assert P(F5, "T^2 + 2 T + 3".replace(" ", "")) == f
    assert P(F5, "-T+1") == poly_trim([1, 4])
    assert P(F5, "T - T") == ZERO_POLY
    assert P(F5, "7") == P(F5, "2")
    # signs runs, and whitespace around *, ^ and before T
    assert P(F5, "T - -1") == P(F5, "T+1")
    assert P(F5, "--T") == T_POLY
    assert P(F5, "2 T") == P(F5, "2*T")
    assert P(F5, "T ^ 2") == P(F5, "T^2")
    assert P(F5, "-[1]") == (4,)
    F9 = field(9)
    assert P(F9, "[1, 2]*T") == (0, F9.from_coords([1, 2]))


def test_parse_poly_extension_coeffs():
    F9 = field(9)
    f = parse_poly(F9, "[1,2]*T^2+[0,1]*T+2")
    assert f == (2, F9.from_coords([0, 1]), F9.from_coords([1, 2]))
    assert parse_poly(F9, format_poly(F9, f)) == f


def test_parse_poly_rejects_garbage():
    # the last five were once misread as 12, 3*T, T, T and 2
    for bad in ["", "x+1", "T^", "^2", "[1,2", "T^-1",
                "1 2", "1 2 3 T", "T+", "T+-", "2*"]:
        with pytest.raises(ValueError):
            parse_poly(F5, bad)
    # once misread as 0, 1 and 1
    for bad in ["[]", "[,1]", "[1,]"]:
        with pytest.raises(ValueError):
            parse_poly(field(9), bad)


def test_format_poly_canonical():
    assert format_poly(F5, ZERO_POLY) == "0"
    assert format_poly(F5, P(F5, "3+T^2+2T")) == "T^2+2*T+3"
    assert format_poly(F5, T_POLY) == "T"
    assert format_poly(F3, P(F3, "2*T^3")) == "2*T^3"


@settings(max_examples=150)
@given(st.lists(st.integers(0, 6), max_size=6))
def test_format_parse_roundtrip(coeffs):
    f = poly_trim(coeffs)
    assert parse_poly(F7, format_poly(F7, f)) == f


@pytest.mark.parametrize("q", [9, 25, 27])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_format_parse_roundtrip_non_prime(q, data):
    F = field(q)
    polys = data.draw(st.lists(
        st.lists(st.integers(0, q - 1), max_size=5).map(poly_trim),
        min_size=1, max_size=4))
    for f in polys:
        assert parse_poly(F, format_poly(F, f)) == f
    # a --primes list: the commas inside coordinate vectors do not split
    joined = ",".join(format_poly(F, f) for f in polys)
    assert [parse_poly(F, t) for t in split_polys(joined)] == polys
