"""Tests for the quaternion algebra, its order arithmetic and embedding.

The main oracle represents elements as exact 2x2 matrices over
A[s]/(s^2 - alpha) with a power of alpha as common denominator (the
standard splitting of the algebra over K(s)).  Matrix multiplication
there is an independent model of the product, so the closed-form
structure constants can be checked against it wholesale.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btquot.algebra import (
    ONE_POLY,
    ZERO_POLY,
    field,
    parse_poly,
    poly_add,
    poly_deg,
    poly_mod,
    poly_mul,
    poly_neg,
    poly_scale,
    poly_sort_key,
    poly_sub,
    poly_trim,
    slot_bytes,
)
from btquot.laurent import INF, Laurent, Mat2
from laurent_helpers import add as mat_add, constant, det
from btquot.quaternion import (
    QUAT_ONE,
    AlgebraData,
    QuatElem,
    RamificationSet,
    alpha_degree_bound,
    build_algebra,
    find_alpha,
    format_quat,
    height,
    norm_form,
    parse_quat,
)
from btquot import quaternion
from btquot.homspace import transport
from btquot.tree import Vertex, act
from test_algebra import legendre_euler
from test_golden import CASES, GOLDEN, golden_units

T = (0, 1)


def lin(c):
    """The monic linear polynomial T + c."""
    return poly_trim((c, 1))


# ---------------------------------------------------------------------------
# oracle: exact splitting over A[s]/(s^2 - alpha)
# ---------------------------------------------------------------------------

def _sym_add(F, x, y):
    return (poly_add(F, x[0], y[0]), poly_add(F, x[1], y[1]))


def _sym_mul(F, alpha, x, y):
    u1, v1 = x
    u2, v2 = y
    u = poly_add(F, poly_mul(F, u1, u2),
                 poly_mul(F, alpha, poly_mul(F, v1, v2)))
    v = poly_add(F, poly_mul(F, u1, v2), poly_mul(F, v1, u2))
    return (u, v)


def _mat_mul(F, alpha, A, B):
    out = [[((), ()) for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            acc = ((), ())
            for k in range(2):
                acc = _sym_add(F, acc, _sym_mul(F, alpha, A[i][k], B[k][j]))
            out[i][j] = acc
    return out


def split_matrix(alg, x):
    """alpha * iota(x) as a matrix over A[s]/(s^2 - alpha), exactly."""
    F = alg.F
    al, r, eps = alg.alpha, alg.r, alg.epsilon
    l1, l2, l3, l4 = x.lam

    def e(u, v=()):  # u + v*s
        return (u, v)

    a = _sym_add(F, e(poly_mul(F, al, l1)),
                 e((), poly_add(F, poly_mul(F, al, l2),
                                poly_mul(F, eps, l4))))
    b = e(poly_mul(F, al, l3), l4)
    c = e(poly_mul(F, al, poly_mul(F, r, l3)),
          poly_neg(F, poly_mul(F, r, l4)))
    d = _sym_add(F, e(poly_mul(F, al, l1)),
                 e((), poly_neg(F, poly_add(F, poly_mul(F, al, l2),
                                            poly_mul(F, eps, l4)))))
    return [[a, b], [c, d]]


def assert_product_matches_matrix_model(alg, x, y):
    F = alg.F
    z = alg.mul(x, y)
    lhs = _mat_mul(F, alg.alpha, split_matrix(alg, x), split_matrix(alg, y))
    rhs = split_matrix(alg, z)  # denominator alpha, lhs has alpha^2
    for i in range(2):
        for j in range(2):
            want_u = poly_mul(F, alg.alpha, rhs[i][j][0])
            want_v = poly_mul(F, alg.alpha, rhs[i][j][1])
            assert lhs[i][j] == (want_u, want_v)


def nrd_closed_form(alg, x):
    """l1^2 - alpha*l2^2 - r*l3^2 - 2*eps*l2*l4 - nu*l4^2 (derived from
    conjugation; used only as a second opinion on nrd)."""
    F = alg.F
    l1, l2, l3, l4 = x.lam
    out = poly_mul(F, l1, l1)
    out = poly_sub(F, out, poly_mul(F, alg.alpha, poly_mul(F, l2, l2)))
    out = poly_sub(F, out, poly_mul(F, alg.r, poly_mul(F, l3, l3)))
    out = poly_sub(F, out, poly_scale(F, F.from_int(2),
                                      poly_mul(F, alg.epsilon,
                                               poly_mul(F, l2, l4))))
    out = poly_sub(F, out, poly_mul(F, alg.nu, poly_mul(F, l4, l4)))
    return out


# ---------------------------------------------------------------------------
# oracle: alpha search by evaluation (all test primes are linear)
# ---------------------------------------------------------------------------

def first_alpha_by_brute_force(q, roots):
    """First monic irreducible of even degree whose values at the given
    points are non-squares, enumerating coefficients constant-first."""
    F = field(q)
    nonsquares = set(range(1, q)) - {F.mul(a, a) for a in range(1, q)}
    for degree in (2, 4):
        smaller = [f for d in range(1, degree)
                   for f in monic_polys_brute(q, d)]
        for coeffs in itertools.product(range(q), repeat=degree):
            cand = coeffs + (1,)
            if any(not divides_remainder(F, cand, g) for g in smaller
                   if 2 * poly_deg(g) <= degree):
                continue
            if all(poly_eval(F, cand, pt) in nonsquares for pt in roots):
                return poly_trim(cand)
    raise AssertionError("oracle search failed")


def poly_eval(F, f, x):
    acc = 0
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def monic_polys_brute(q, degree):
    return [poly_trim(c + (1,)) for c in
            itertools.product(range(q), repeat=degree)]


def divides_remainder(F, f, g):
    """True if g does NOT divide f (trial-division helper)."""
    return bool(poly_mod(F, f, g))


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def alg3():
    return build_algebra(field(3), [lin(0), lin(1)])


@pytest.fixture(scope="module")
def alg5():
    return build_algebra(field(5), [lin(0), lin(1), lin(2), lin(3)])


def quat_strategy(q, maxdeg=2):
    coeff = st.integers(min_value=0, max_value=q - 1)
    poly = st.lists(coeff, min_size=0, max_size=maxdeg + 1).map(
        lambda c: poly_trim(tuple(c)))
    return st.tuples(poly, poly, poly, poly).map(QuatElem)


# ---------------------------------------------------------------------------
# ramification set and alpha search
# ---------------------------------------------------------------------------

class TestRamificationSet:
    def test_q3_pair(self):
        F = field(3)
        ram = RamificationSet.make(F, [lin(0), lin(1)])
        assert ram.r == (0, 1, 1)  # T^2 + T
        assert ram.d == 2
        assert ram.odd_flag == 1

    def test_even_degree_place_clears_odd_flag(self):
        F = field(3)
        ram = RamificationSet.make(F, [lin(0), (1, 0, 1)])  # T, T^2+1
        assert ram.odd_flag == 0

    def test_odd_cardinality_rejected(self):
        with pytest.raises(ValueError):
            RamificationSet.make(field(3), [lin(0)])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            RamificationSet.make(field(3), [lin(0), lin(0)])

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            RamificationSet.make(field(3), [lin(0), (0, 1, 1)])

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            RamificationSet.make(field(3), [lin(0), (1, 2)])


class TestFindAlpha:
    def test_q3_pair_value(self, alg3):
        # first monic irreducible quadratic over F_3 that is a
        # non-square mod T and mod T+1
        assert alg3.alpha == (2, 1, 1)  # T^2 + T + 2
        assert alg3.alpha == first_alpha_by_brute_force(3, [0, 2])

    def test_q5_quadruple_needs_degree_four(self, alg5):
        # no monic irreducible quadratic over F_5 works for
        # {T, T+1, T+2, T+3}; the search must continue to degree 4
        F = field(5)
        nonsq = {2, 3}
        roots = [0, 4, 3, 2]  # -0, -1, -2, -3
        for cand in monic_polys_brute(5, 2):
            if poly_deg(cand) != 2:
                continue
            has_root = any(poly_eval(F, cand, a) == 0 for a in range(5))
            if not has_root:
                assert not all(
                    poly_eval(F, cand, pt) in nonsq for pt in roots)
        assert poly_deg(alg5.alpha) == 4
        assert alg5.alpha == first_alpha_by_brute_force(5, roots)

    def test_degree_bound_table(self):
        assert alpha_degree_bound(3, 2, 2) == 9
        assert alpha_degree_bound(3, 4, 3) == 10
        assert alpha_degree_bound(3, 6, 3) == 8
        assert alpha_degree_bound(3, 8, 4) == 5
        assert alpha_degree_bound(5, 4, 4) == 7
        assert alpha_degree_bound(5, 6, 3) == 6
        assert alpha_degree_bound(5, 8, 4) == 5
        assert alpha_degree_bound(7, 2, 2) == 5
        assert alpha_degree_bound(9, 4, 2) == 5
        assert alpha_degree_bound(9, 6, 2) == 3
        assert alpha_degree_bound(11, 2, 2) == 5
        assert alpha_degree_bound(11, 4, 4) == 5

    def test_found_alpha_within_bound_small_cases(self):
        for q in (3, 5, 7):
            F = field(q)
            for pair in itertools.combinations(range(q), 2):
                ram = RamificationSet.make(F, [lin(c) for c in pair])
                a = find_alpha(F, ram)
                assert poly_deg(a) <= alpha_degree_bound(q, 2, ram.d)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_find_alpha_returns_every_goldens_alpha(self, case, monkeypatch):
        """The alpha each golden file stores, found again with legendre
        by reciprocity and with Euler's criterion in its place."""
        text = json.loads((GOLDEN / f"{case}.json").read_text())
        F = field(text["q"])
        ram = RamificationSet.make(F, [parse_poly(F, p)
                                       for p in text["primes"]])
        alpha = parse_poly(F, text["alpha"])
        assert find_alpha(F, ram) == alpha
        monkeypatch.setattr(quaternion, "legendre", legendre_euler)
        assert find_alpha(F, ram) == alpha

    def test_legendre_r_alpha_is_plus_one(self, alg3, alg5):
        from btquot.algebra import legendre
        for alg in (alg3, alg5):
            assert legendre(alg.F, alg.r, alg.alpha) == 1

    def test_each_polynomial_tested_irreducible_once(self):
        """RamificationSet.make tests each prime; find_alpha's legendre
        calls, one per candidate and prime, find the kept answer, and
        alpha is the only other polynomial tested: 5 Rabin tests for the
        q7-72 algebra instead of 50."""
        from btquot.algebra import is_irreducible
        F = field(7)
        primes = [parse_poly(F, t) for t in ("T^2+1", "T", "T+1", "T+2")]
        is_irreducible.cache_clear()
        alg = build_algebra(F, primes)
        info = is_irreducible.cache_info()
        assert info.misses == len(primes) + 1
        assert info.hits >= 40
        assert is_irreducible(F, alg.alpha)
        assert is_irreducible.cache_info().misses == info.misses


# ---------------------------------------------------------------------------
# algebra construction
# ---------------------------------------------------------------------------

class TestBuildAlgebra:
    def test_q3_epsilon_nu(self, alg3):
        assert alg3.epsilon == (1,)
        assert alg3.nu == (2,)
        assert alg3.m == 1

    def test_epsilon_identity_exact(self, alg3, alg5):
        for alg in (alg3, alg5):
            F = alg.F
            lhs = poly_mul(F, alg.epsilon, alg.epsilon)
            rhs = poly_add(F, alg.r, poly_mul(F, alg.nu, alg.alpha))
            assert lhs == rhs
            assert poly_deg(alg.epsilon) < poly_deg(alg.alpha)

    def test_epsilon_canonical_branch(self, alg3, alg5):
        for alg in (alg3, alg5):
            F = alg.F
            neg = poly_neg(F, alg.epsilon)
            k = poly_deg(alg.alpha)
            assert (poly_sort_key(F, alg.epsilon, k)
                    <= poly_sort_key(F, neg, k))

    def test_even_q_rejected(self):
        # even q cannot even be constructed as a coefficient field
        from btquot.algebra import GF
        with pytest.raises(ValueError):
            GF(4, modulus=(1, 1, 1))
        with pytest.raises(ValueError):
            GF(2)

    def test_verification_runs_clean(self):
        # construction runs the ramification and product table
        # self-checks; both must pass silently
        build_algebra(field(7), [lin(0), lin(1)])


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def quat_add(alg, x, y):
    return QuatElem(tuple(poly_add(alg.F, a, b)
                          for a, b in zip(x.lam, y.lam)))


def quat_neg(alg, x):
    return QuatElem(tuple(poly_neg(alg.F, a) for a in x.lam))


def trd(alg, x):
    """Reduced trace x + conj(x) = 2 lam_1."""
    return poly_scale(alg.F, alg.F.from_int(2), x.lam[0])


def basis(alg):
    Z, O = ZERO_POLY, ONE_POLY
    return (QuatElem((O, Z, Z, Z)), QuatElem((Z, O, Z, Z)),
            QuatElem((Z, Z, O, Z)), QuatElem((Z, Z, Z, O)))


class TestMultiplication:
    def test_defining_relations(self, alg3, alg5):
        for alg in (alg3, alg5, kernel_alg(7), kernel_alg(9)):
            F = alg.F
            one, i, j, k = basis(alg)
            assert alg.mul(i, i).lam == (alg.alpha, (), (), ())
            assert alg.mul(j, j).lam == (alg.r, (), (), ())
            ij = alg.mul(i, j)
            ji = alg.mul(j, i)
            assert ji == quat_neg(alg, ij)
            # alpha * k = eps * i + ij
            lhs = QuatElem(tuple(poly_mul(F, alg.alpha, c) for c in k.lam))
            rhs = quat_add(alg, QuatElem(tuple(poly_mul(F, alg.epsilon, c)
                                         for c in i.lam)), ij)
            assert lhs == rhs

    def test_identity(self, alg3):
        x = QuatElem(((1, 2), (0, 1), (2,), (1, 1)))
        assert alg3.mul(x, QUAT_ONE) == x
        assert alg3.mul(QUAT_ONE, x) == x

    def test_basis_products_match_matrix_model(self, alg3, alg5):
        for alg in (alg3, alg5, kernel_alg(7), kernel_alg(9)):
            for x in basis(alg):
                for y in basis(alg):
                    assert_product_matches_matrix_model(alg, x, y)

    @settings(max_examples=60, deadline=None)
    @given(quat_strategy(3), quat_strategy(3))
    def test_random_products_match_matrix_model_q3(self, x, y):
        assert_product_matches_matrix_model(_ALG3, x, y)

    @settings(max_examples=30, deadline=None)
    @given(quat_strategy(5, maxdeg=1), quat_strategy(5, maxdeg=1))
    def test_random_products_match_matrix_model_q5(self, x, y):
        assert_product_matches_matrix_model(_ALG5, x, y)

    @settings(max_examples=40, deadline=None)
    @given(quat_strategy(3, maxdeg=1), quat_strategy(3, maxdeg=1),
           quat_strategy(3, maxdeg=1))
    def test_associativity(self, x, y, z):
        alg = _ALG3
        assert alg.mul(alg.mul(x, y), z) == alg.mul(x, alg.mul(y, z))

    @settings(max_examples=40, deadline=None)
    @given(quat_strategy(3, maxdeg=1), quat_strategy(3, maxdeg=1),
           quat_strategy(3, maxdeg=1))
    def test_distributivity(self, x, y, z):
        alg = _ALG3
        assert (alg.mul(x, quat_add(alg, y, z))
                == quat_add(alg, alg.mul(x, y), alg.mul(x, z)))


def poly_det(F, m):
    """Determinant of a square polynomial matrix, by Laplace expansion
    along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = ZERO_POLY
    for col, a in enumerate(m[0]):
        term = poly_mul(F, a, poly_det(F, [row[:col] + row[col + 1:]
                                           for row in m[1:]]))
        total = poly_add(F, total, poly_neg(F, term) if col % 2 else term)
    return total


class TestProductTableCheck:
    @pytest.mark.parametrize("q", [3, 5])
    def test_every_single_coordinate_perturbation_raises(self, q,
                                                         monkeypatch):
        F = field(q)
        primes = [parse_poly(F, t) for t in _KERNEL_PRIMES[q]]
        table = AlgebraData._structure_constants
        for s, t, k in itertools.product(range(4), repeat=3):
            def perturbed(alg, s=s, t=t, k=k):
                W = table(alg)
                entry = list(W[s][t])
                entry[k] = poly_add(alg.F, entry[k], ONE_POLY)
                W[s][t] = tuple(entry)
                return W
            monkeypatch.setattr(AlgebraData, "_structure_constants",
                                perturbed)
            with pytest.raises(AssertionError, match="product table"):
                build_algebra(F, primes)

    def test_reduced_discriminant_is_r(self, alg3, alg5):
        # the Gram determinant of trd over the order basis is -16 r^2
        for alg in (alg3, alg5, kernel_alg(7), kernel_alg(9)):
            F = alg.F
            b = basis(alg)
            gram = [[trd(alg, alg.mul(x, y)) for y in b] for x in b]
            assert poly_det(F, gram) == poly_scale(
                F, F.from_int(-16), poly_mul(F, alg.r, alg.r))


# ---------------------------------------------------------------------------
# norm, trace, conjugation, units
# ---------------------------------------------------------------------------

class TestNormAndUnits:
    def test_nrd_basis_values(self, alg3, alg5):
        for alg in (alg3, alg5):
            F = alg.F
            one, i, j, k = basis(alg)
            assert alg.nrd(one) == ONE_POLY
            assert alg.nrd(i) == poly_neg(F, alg.alpha)
            assert alg.nrd(j) == poly_neg(F, alg.r)
            assert alg.nrd(k) == poly_neg(F, alg.nu)

    @settings(max_examples=50, deadline=None)
    @given(quat_strategy(3))
    def test_nrd_closed_form(self, x):
        assert _ALG3.nrd(x) == nrd_closed_form(_ALG3, x)

    @settings(max_examples=40, deadline=None)
    @given(quat_strategy(3, maxdeg=1), quat_strategy(3, maxdeg=1))
    def test_nrd_multiplicative(self, x, y):
        alg = _ALG3
        F = alg.F
        assert alg.nrd(alg.mul(x, y)) == poly_mul(F, alg.nrd(x),
                                                  alg.nrd(y))

    def test_conj_is_antihomomorphic_involution(self, alg3):
        x = QuatElem(((1,), (2, 1), (), (1,)))
        y = QuatElem(((0, 2), (1,), (2,), ()))
        assert alg3.conj(alg3.conj(x)) == x
        assert (alg3.conj(alg3.mul(x, y))
                == alg3.mul(alg3.conj(y), alg3.conj(x)))

    def test_trd(self, alg3):
        x = QuatElem(((1, 2), (1,), (2,), (0, 1)))
        assert trd(alg3, x) == poly_scale(alg3.F, 2, (1, 2))

    def test_division_algebra_no_zero_norms_height0(self, alg3):
        F = alg3.F
        for coords in itertools.product(range(3), repeat=4):
            if coords == (0, 0, 0, 0):
                continue
            x = QuatElem(tuple((c,) if c else () for c in coords))
            assert alg3.nrd(x) != ZERO_POLY

    def test_unit_criterion_and_inverse(self, alg3):
        # scalar units
        two = QuatElem(((2,), (), (), ()))
        assert alg3.is_unit(two)
        assert alg3.mul(two, alg3.inverse_unit(two)) == QUAT_ONE
        # i is not a unit: nrd = -alpha has positive degree
        assert not alg3.is_unit(basis(alg3)[1])

    def test_nonscalar_units_exist_and_invert(self, alg3):
        found = []
        for coords in itertools.product(range(3), repeat=4):
            x = QuatElem(tuple((c,) if c else () for c in coords))
            if x.is_zero() or not alg3.is_unit(x):
                continue
            if any(coords[1:]):
                found.append(x)
        assert found, "expected non-scalar units of height 0"
        for x in found[:5]:
            inv = alg3.inverse_unit(x)
            assert alg3.mul(x, inv) == QUAT_ONE
            assert alg3.mul(inv, x) == QUAT_ONE

    def test_power(self, alg3):
        x = QuatElem(((2,), (), (), ()))
        assert alg3.power(x, 0) == QUAT_ONE
        assert alg3.power(x, 2) == QuatElem(((1,), (), (), ()))
        assert alg3.power(x, -1) == alg3.inverse_unit(x)


def golden_elements(case):
    """The algebra of a golden case, its stored units with seeded
    products and inverses of them, and seeded non-units, both of heights
    0 to at least 12."""
    alg, gens = golden_units(case)
    rng = random.Random(case)
    units = list(gens)
    while len(units) < 40 or max(map(height, units)) < 12:
        x = rng.choice(units)
        y = rng.choice(gens)
        units.append(alg.mul(x, alg.inverse_unit(y) if rng.random() < 0.3
                             else y))
    q = alg.F.q
    others = [QuatElem(tuple(poly_trim(tuple(
        rng.randrange(q) for _ in range(rng.randint(0, h + 1))))
        for _ in range(4))) for h in range(0, 21) for _ in range(3)]
    others += [alg.mul(QuatElem((T, ZERO_POLY, ZERO_POLY, ZERO_POLY)), x)
               for x in units[::4]]
    return alg, units, others


class TestNormForm:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_norm_form_is_x_times_its_conjugate(self, case):
        alg, units, others = golden_elements(case)
        for x in units + others:
            prod = alg.mul(x, alg.conj(x)).lam
            assert alg.nrd(x) == prod[0] and not any(prod[1:]), x
        assert all(alg.is_unit(x) for x in units)
        assert not any(alg.is_unit(x) for x in others[-len(units[::4]):])

    def test_the_form_of_the_table(self, alg5):
        # x1^2 - alpha x2^2 - r x3^2 - nu x4^2 - 2 epsilon x2 x4
        F, neg = alg5.F, (lambda f: poly_neg(alg5.F, f))
        assert norm_form(F, alg5._tensor) == [
            ((0, 0), ONE_POLY), ((1, 1), neg(alg5.alpha)),
            ((1, 3), poly_scale(F, F.from_int(-2), alg5.epsilon)),
            ((2, 2), neg(alg5.r)), ((3, 3), neg(alg5.nu))]

    def test_a_table_whose_norm_is_not_scalar_raises(self, alg5):
        # a vector coordinate of any product of basis elements enters a
        # coefficient of the vector part of x conj(x)
        F = alg5.F
        for s, t, k in itertools.product(range(4), range(4), (1, 2, 3)):
            W = [list(row) for row in alg5._tensor]
            entry = list(W[s][t])
            entry[k] = poly_add(F, entry[k], ONE_POLY)
            W[s][t] = tuple(entry)
            with pytest.raises(AssertionError, match="not scalar"):
                norm_form(F, W)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def _entry_diff_small(a, b, prec):
    d = a - b
    return d.is_exact_zero or (not d.coeffs and d.prec >= prec)


def assert_mat_equal_at(A, B, prec):
    for a, b in zip(A.entries(), B.entries()):
        assert _entry_diff_small(a, b, prec)


class TestEmbedding:
    def test_identity(self, alg3):
        M = alg3.embed(QUAT_ONE, 6)
        I = constant(alg3.F, 1, 6)
        Z = Laurent.zero(alg3.F)
        assert _entry_diff_small(M.a, I, 6)
        assert _entry_diff_small(M.b, Z, 6)
        assert _entry_diff_small(M.c, Z, 6)
        assert _entry_diff_small(M.d, I, 6)

    def test_i_squares_to_alpha(self, alg3, alg5):
        for alg in (alg3, alg5):
            F = alg.F
            Mi = alg.embed(basis(alg)[1], 10)
            sq = Mi * Mi
            al = Laurent.from_poly(F, alg.alpha, 8)
            assert _entry_diff_small(sq.a, al, 8)
            assert _entry_diff_small(sq.d, al, 8)
            assert _entry_diff_small(sq.b, Laurent.zero(F), 8)
            assert _entry_diff_small(sq.c, Laurent.zero(F), 8)

    def test_j_image(self, alg3):
        F = alg3.F
        Mj = alg3.embed(basis(alg3)[2], 8)
        assert _entry_diff_small(Mj.b, constant(F, 1, 8), 8)
        assert _entry_diff_small(Mj.c, Laurent.from_poly(F, alg3.r, 8), 8)
        assert _entry_diff_small(Mj.a, Laurent.zero(F), 8)

    @settings(max_examples=25, deadline=None)
    @given(quat_strategy(3, maxdeg=1), quat_strategy(3, maxdeg=1))
    def test_homomorphism(self, x, y):
        alg = _ALG3
        got = alg.embed(alg.mul(x, y), 8)
        prod = alg.embed(x, 8) * alg.embed(y, 8)
        assert_mat_equal_at(got, prod, 5)

    @settings(max_examples=25, deadline=None)
    @given(quat_strategy(3, maxdeg=1))
    def test_det_is_nrd(self, x):
        alg = _ALG3
        dt = det(alg.embed(x, 10))
        n = alg.nrd(x)
        want = (Laurent.from_poly(alg.F, n, 6) if n
                else Laurent.zero_at(alg.F, 6))
        assert _entry_diff_small(dt, want, 5)

    def test_additive(self, alg5):
        x = QuatElem(((1, 2), (3,), (), (0, 1)))
        y = QuatElem(((2,), (0, 4), (1,), (3,)))
        got = alg5.embed(quat_add(alg5, x, y), 8)
        want = mat_add(alg5.embed(x, 8), alg5.embed(y, 8))
        assert_mat_equal_at(got, want, 8)


# ---------------------------------------------------------------------------
# the packed kernel against schoolbook references
# ---------------------------------------------------------------------------

def mul_reference(alg, x, y):
    """sum_{s,t,k} x_s y_t W_stk by polynomial products over the 4x4x4
    structure tensor, one poly_mul/poly_add at a time."""
    F = alg.F
    out = [ZERO_POLY] * 4
    for s in range(4):
        if not x.lam[s]:
            continue
        for t in range(4):
            if not y.lam[t]:
                continue
            c = poly_mul(F, x.lam[s], y.lam[t])
            for k, w in enumerate(alg._tensor[s][t]):
                if w:
                    out[k] = poly_add(F, out[k], poly_mul(F, c, w))
    return QuatElem(tuple(out))


def embed_reference(alg, x, prec):
    """sum_k lam_k * iota(b_k) as Laurent-object products and sums, over
    the basis images at the precision embed packs."""
    F = alg.F
    maxdeg = max((poly_deg(c) for c in x.lam), default=0)
    B = alg.basis_embedding(-(-(prec + max(0, maxdeg)) // 16) * 16)
    entries = [Laurent.zero(F)] * 4
    for f, Bk in zip(x.lam, B):
        if not f:
            continue
        lam = Laurent.from_poly(F, f, INF)
        for i, e in enumerate(Bk.entries()):
            if not e.is_exact_zero:
                entries[i] = entries[i] + lam * e
    return Mat2(*entries)


_KERNEL_PRIMES = {3: ["T", "T+1"], 5: ["T", "T+1", "T+2", "T+3"],
                  7: ["T^2+1", "T", "T+1", "T+2"], 9: ["T", "T+1", "T+[0,1]",
                                                       "T+2"],
                  25: ["T", "T+1"], 27: ["T", "T+1"], 49: ["T", "T+1"],
                  127: ["T", "T+1"]}
_KERNEL_ALGS = {}


def kernel_alg(q):
    if q not in _KERNEL_ALGS:
        F = field(q)
        _KERNEL_ALGS[q] = build_algebra(
            F, [parse_poly(F, t) for t in _KERNEL_PRIMES[q]])
    return _KERNEL_ALGS[q]


def kernel_quat(data, q):
    """Coordinates of degree up to 1, 4 or 40; empty lists are zero
    coordinates."""
    maxdeg = data.draw(st.sampled_from((1, 4, 40)))
    return data.draw(quat_strategy(q, maxdeg))


def top_quat(q, deg):
    """Every coordinate of degree deg with every digit p-1: the largest
    slot sums the kernel can meet at that length."""
    return QuatElem(((q - 1,) * (deg + 1),) * 4)


class TestPackedKernel:
    @pytest.mark.parametrize("q", sorted(_KERNEL_PRIMES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mul_matches_reference(self, q, data):
        alg = kernel_alg(q)
        x, y = kernel_quat(data, q), kernel_quat(data, q)
        assert alg.mul(x, y) == mul_reference(alg, x, y)

    @pytest.mark.parametrize("q", sorted(_KERNEL_PRIMES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_embed_matches_reference(self, q, data):
        alg = kernel_alg(q)
        x = kernel_quat(data, q)
        prec = data.draw(st.integers(min_value=1, max_value=70))
        assert alg.embed(x, prec) == embed_reference(alg, x, prec)

    @pytest.mark.parametrize("q", sorted(_KERNEL_PRIMES))
    def test_largest_digits_match_reference(self, q):
        alg = kernel_alg(q)
        for deg in (0, 7, 12, 60):
            x = top_quat(q, deg)
            assert alg.mul(x, x) == mul_reference(alg, x, x)
            for prec in (1, 23, 64):
                assert alg.embed(x, prec) == embed_reference(alg, x, prec)
            prod = alg.mul(x, alg.conj(x)).lam
            assert alg.nrd(x) == prod[0] and not any(prod[1:])

    @pytest.mark.parametrize("q", sorted(_KERNEL_PRIMES))
    def test_transport_at_the_largest_digits(self, q, monkeypatch):
        # every digit p-1 in x and in g_v, g_v long enough to pass changes
        # of the slot width that holds transport's sums S_x g_v + S_y;
        # against act on an embedding at 4 times transport's precision
        alg = kernel_alg(q)
        precs, real = [], alg.embed_packed
        monkeypatch.setattr(alg, "embed_packed", lambda x, prec, g=():
                            precs.append(prec) or real(x, prec, g))
        for deg, n, gval in ((0, 2, -1), (7, 4, -20), (12, 8, -70),
                             (60, 3, -300)):
            x = top_quat(q, deg)
            v = Vertex.make(n, gval, [q - 1] * (n - gval))
            got = transport(alg, x, v)
            (prec,) = precs
            assert got == act(alg.embed(x, 4 * prec), v)
            precs.clear()

    @pytest.mark.parametrize("q", [3, 9, 27, 127])
    def test_dense_top_digit_tensor_matches_reference(self, q, monkeypatch):
        # structure constants of every length l with every digit p-1 in
        # every slot of the tensor: the slot sums come close to the bound
        # the slot width is derived from, at several sizes
        alg = build_algebra(field(q), [lin(0), lin(1)])
        for length, deg in ((1, 0), (4, 3), (16, 15), (16, 40), (5, 60)):
            W = [[((q - 1,) * length,) * 4 for _ in range(4)]
                 for _ in range(4)]
            monkeypatch.setattr(alg, "_tensor", W)
            monkeypatch.setattr(alg, "_tensor_len", length)
            monkeypatch.setattr(alg, "_packed_tensor", {})
            x = top_quat(q, deg)
            assert alg.mul(x, x) == mul_reference(alg, x, x)

    def test_zero_operands(self):
        alg = kernel_alg(9)
        zero = QuatElem((ZERO_POLY,) * 4)
        x = top_quat(9, 3)
        assert alg.mul(zero, x) == alg.mul(x, zero) == zero
        M = alg.embed(zero, 20)
        assert all(e.is_exact_zero for e in M.entries())

    @pytest.mark.parametrize("q", [5, 9])
    def test_packed_basis_reads_its_longest_entry_once(self, q,
                                                       monkeypatch):
        # N, the longest basis entry, sets the width: read once per
        # precision, then from the memo, for every width asked for
        alg = build_algebra(field(q), [lin(0), lin(1)])
        F, real, read = alg.F, alg.basis_entries, []
        monkeypatch.setattr(alg, "basis_entries",
                            lambda prec: read.append(prec) or real(prec))
        n = max(len(e.coeffs) for row in real(48) for e in row)
        widths = set()
        for glen in (0, 7, 3000, 0, 7):
            w, rows = alg.packed_basis(48, glen)
            assert w == slot_bytes(4 * F.e * (F.p - 1) ** 2 * n
                                   * (F.e * (F.p - 1) * glen + 1))
            widths.add(w)
        # the entries once for N, then once per new width for the rows
        assert len(widths) > 1 and read == [48] * (1 + len(widths))
        assert alg.packed_basis(48, 7)[1] is rows

    def test_slot_width_is_the_narrowest_that_holds_the_bound(self):
        assert [slot_bytes(b) for b in (0, 255, 256, (1 << 32) - 1,
                                        1 << 32, (1 << 64) - 1)] \
            == [1, 1, 2, 4, 8, 8]
        with pytest.raises(AssertionError):
            slot_bytes(1 << 64)

    def test_slot_bound_refuses_rather_than_wraps(self, monkeypatch):
        # a structure constant long enough that the bound on a slot sum
        # passes 64 bits: the product raises instead of computing with
        # slots that might carry into their neighbours
        alg = build_algebra(field(127), [lin(0), lin(1)])
        x = top_quat(127, 2)
        assert alg.mul(x, x) == mul_reference(alg, x, x)
        monkeypatch.setattr(alg, "_tensor_len", 1 << 40)
        with pytest.raises(AssertionError, match="exceeds 64 bits"):
            alg.mul(x, x)


# ---------------------------------------------------------------------------
# height and text form
# ---------------------------------------------------------------------------

class TestHeightAndText:
    def test_height_examples(self, alg3):
        assert height(QUAT_ONE) == 0
        assert height(QuatElem(((), (0, 1), (), ()))) == 1  # T*i
        assert height(QuatElem(((1,), (), (), (0, 0, 2)))) == 2

    def test_height_zero_element(self):
        with pytest.raises(ValueError):
            height(QuatElem(((), (), (), ())))

    def test_format(self):
        F = field(3)
        x = QuatElem(((1, 1), (2,), (), (0, 1)))
        assert format_quat(F, x) == "T+1 + (2)*i + (0)*j + (T)*k"

    def test_parse_roundtrip(self):
        F = field(5)
        xs = [QuatElem(((1, 1), (2,), (), (0, 1))),
              QuatElem(((), (), (), ())),
              QuatElem(((0, 0, 3), (4, 4), (1,), (2, 0, 1)))]
        for x in xs:
            assert parse_quat(F, format_quat(F, x)) == x

    @pytest.mark.parametrize("q", [9, 25, 27])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_parse_roundtrip_non_prime(self, q, data):
        F = field(q)
        x = data.draw(quat_strategy(q))
        assert parse_quat(F, format_quat(F, x)) == x

    def test_parse_scalar_with_plus(self):
        F = field(3)
        x = parse_quat(F, "T^2+2 + (1)*i + (T)*j + (0)*k")
        assert x.lam == ((2, 0, 1), (1,), (0, 1), ())

    def test_parse_garbage_rejected(self):
        F = field(3)
        for bad in ["T + 1*i + (2)*j + (0)*k", "", "(2)*j + (0)*k",
                    "x + (1)*i + (2)*j + (0)*k", "T + (1)*i +"]:
            with pytest.raises(ValueError,
                               match="cannot parse quaternion element"):
                parse_quat(F, bad)

    def test_parse_short_forms(self):
        F = field(3)
        assert parse_quat(F, "1") == QUAT_ONE
        assert parse_quat(F, "T^2+1") == QuatElem(((1, 0, 1), (), (), ()))
        assert parse_quat(F, "T + (1)*i + (2)*j") == \
            QuatElem(((0, 1), (1,), (2,), ()))


# module-level instances for hypothesis tests (fixtures are not visible
# inside @given)
_ALG3 = build_algebra(field(3), [lin(0), lin(1)])
_ALG5 = build_algebra(field(5), [lin(0), lin(1), lin(2), lin(3)])
