"""Tests for the Bruhat-Tits tree module.

Normal forms are validated against a lattice-class equality oracle
(membership of N^(-1) M in GL_2(O_infinity) up to scalar), distances
against breadth-first search over the neighbor relation and against the
meeting point of two geodesics walked one neighbour at a time, and the
action of a unit against the normal form of the full matrix product.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btquot.algebra import field, parse_poly
from btquot.laurent import InsufficientPrecisionError, Laurent, Mat2
from btquot.quaternion import QUAT_ONE, QuatElem, build_algebra, height
from btquot.quotient import compute_quotient, presentation
from laurent_helpers import (constant, det, from_polys, general_act,
                             identity, inv, min_val, pi_power, pivot_quotient,
                             scale, valuation, vertex_matrix)
from btquot.tree import (
    BASE_VERTEX,
    Vertex,
    act,
    column_vertex,
    distance,
    format_vertex,
    neighbors,
    parse_vertex,
    retry_with_precision,
    toward_base,
    up_neighbor,
    vnf,
)

F3 = field(3)
F5 = field(5)
F9 = field(9)


def P(F, s):
    return parse_poly(F, s)


# ---------------------------------------------------------------------
# oracle: lattice class equality
# ---------------------------------------------------------------------

def same_lattice_class(M: Mat2, N: Mat2) -> bool:
    """Whether M and N span the same O-lattice up to K^* scaling.

    Criterion: P = N^(-1) M, rescaled by pi^(-min val), must lie in
    GL_2(O_infinity): all entries of valuation >= 0 and determinant a
    unit.
    """
    Pm = inv(N) * M
    s = min_val(Pm)
    Q = scale(Pm, pi_power(Pm.a.F, -s, 64))
    for x in Q.entries():
        if x.is_exact_zero:
            continue
        if not x.coeffs:
            if x.prec < 0:
                raise InsufficientPrecisionError("entry undetermined")
            continue
        if valuation(x) < 0:
            return False
    return valuation(det(Q)) == 0


def ball(F, radius):
    """All vertices within the given distance of the base vertex."""
    seen = {BASE_VERTEX}
    frontier = [BASE_VERTEX]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w in neighbors(F, v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def bfs_distance(F, v, w, cap=10):
    """Breadth-first search distance in the tree, neighbors generated lazily."""
    if v == w:
        return 0
    seen = {v}
    frontier = [v]
    for d in range(1, cap + 1):
        nxt = []
        for u in frontier:
            for x in neighbors(F, u):
                if x == w:
                    return d
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    raise AssertionError(f"no path within {cap} steps")


def walk_to_base(v):
    """The geodesic from v to the base vertex, one neighbour at a time:
    up-neighbours while g != 0, then along [L(j, 0)] to j = 0."""
    path = [v]
    while path[-1].gcoeffs:
        path.append(up_neighbor(path[-1]))
    while path[-1].n:
        n = path[-1].n
        path.append(Vertex.make(n - 1 if n > 0 else n + 1, 0, ()))
    return path


def walk_distance(v, w):
    """The steps v and w take along their walks to the base vertex to
    the first vertex the two share."""
    steps = {x: k for k, x in enumerate(walk_to_base(w))}
    return next(k + steps[x] for k, x in enumerate(walk_to_base(v))
                if x in steps)


def seeded_vertex(rng, q):
    """n from -12 to 12; g = 0, or g from just below pi^n down to as
    far as pi^-60."""
    n = rng.randint(-12, 12)
    if rng.random() < 0.2:
        return Vertex.make(n, 0, ())
    gval = rng.choice([n - rng.randint(1, 6), rng.randint(-60, n - 1)])
    return Vertex.make(n, gval, [rng.randrange(q) for _ in range(n - gval)])


def random_walk(F, rng, v, steps):
    """The end of a random non-backtracking walk of the given length."""
    prev = None
    for _ in range(steps):
        prev, v = v, rng.choice([u for u in neighbors(F, v) if u != prev])
    return v


# ---------------------------------------------------------------------
# vertex basics
# ---------------------------------------------------------------------

def test_vertex_canonical_truncation():
    assert Vertex.make(2, 0, (0, 1, 7, 9)) == Vertex(2, 1, (1,))
    assert Vertex.make(3, 1, (1, 0)) == Vertex(3, 1, (1,))
    assert Vertex.make(-1, 0, ()) == Vertex(-1, 0, ())
    assert Vertex.make(2, 2, (1,)) == Vertex(2, 0, ())
    assert Vertex.make(2, 5, (1,) * 5) == Vertex(2, 0, ())  # all above n


def test_vertex_text_form():
    assert format_vertex(BASE_VERTEX) == "(0; 0)"
    v = Vertex.make(2, 1, (1,))
    assert format_vertex(v) == "(2; 1@1)"
    w = Vertex.make(1, -2, (1, 1, 0))
    assert format_vertex(w) == "(1; 1,1,0@-2)"
    for s in ["(0; 0)", "(2; 1@1)", "(1; 1,1,0@-2)", "(-3; 0)"]:
        assert format_vertex(parse_vertex(F3, s)) == s
    with pytest.raises(ValueError):
        parse_vertex(F3, "(2; 1@5)")  # exponent reaches n
    with pytest.raises(ValueError):
        parse_vertex(F3, "nonsense")
    # codes must lie in 0..q-1 and carry no sign; exponents may be negative
    assert parse_vertex(F5, "(1; 4@-1)") == Vertex.make(1, -1, (4,))
    assert parse_vertex(F9, "(1; 8@0)") == Vertex.make(1, 0, (8,))
    for F, s in [(F5, "(1; 7@0)"), (F5, "(1; 5@0)"), (F5, "(1; -1@0)"),
                 (F5, "(2; 1,-1@0)"), (F9, "(1; 12@0)"), (F9, "(1; 9@0)")]:
        with pytest.raises(ValueError):
            parse_vertex(F, s)


# ---------------------------------------------------------------------
# vnf
# ---------------------------------------------------------------------

def test_vnf_examples():
    I = identity(F3, 10)
    assert vnf(I) == BASE_VERTEX
    swap = from_polys(F3, [((), P(F3, "1")), (P(F3, "1"), ())], 10)
    assert vnf(swap) == BASE_VERTEX
    # exact entries, pivot 1 + pi with several terms, in either column
    pi2 = pi_power(F5, 2, math.inf)
    b = Laurent(F5, -1, (1, 0, 3), math.inf)  # pi^-1 (1 + 3 pi^2)
    d = Laurent(F5, 0, (1, 1), math.inf)
    zero = Laurent.zero(F5)
    assert format_vertex(vnf(Mat2(pi2, b, zero, d))) == "(2; 1,4,4@-1)"
    assert format_vertex(vnf(Mat2(b, pi2, d, zero))) == "(2; 1,4,4@-1)"
    # singular, or with a zero bottom row
    for M in [Mat2(d, d, d, d), Mat2(d, b, zero, zero)]:
        with pytest.raises(ZeroDivisionError):
            vnf(M)


def test_vnf_of_normal_form_is_identity():
    for v in [BASE_VERTEX, Vertex.make(2, 1, (1,)), Vertex.make(-2, 0, ()),
              Vertex.make(3, -1, (2, 0, 1)), Vertex.make(1, -3, (1, 2, 0, 2))]:
        assert vnf(vertex_matrix(F3, v, 16)) == v


def _random_integral_matrix(F, rng, prec=24):
    """A random product of elementary matrices over F_q[T]."""
    M = identity(F, prec)
    for _ in range(rng.randint(1, 4)):
        kind = rng.randint(0, 3)
        f = tuple(rng.randint(0, F.q - 1) for _ in range(rng.randint(1, 3)))
        f = f if any(f) else (1,)
        if kind == 0:
            E = from_polys(F, [(P(F, "1"), f), ((), P(F, "1"))], prec)
        elif kind == 1:
            E = from_polys(F, [(P(F, "1"), ()), (f, P(F, "1"))], prec)
        elif kind == 2:
            c = (rng.randint(1, F.q - 1),)
            E = from_polys(F, [(c, ()), ((), P(F, "1"))], prec)
        else:
            E = from_polys(F, [((), P(F, "1")), (P(F, "1"), ())], prec)
        M = M * E
    return M


@pytest.mark.parametrize("q", [3, 5])
def test_vnf_against_lattice_oracle(q):
    F = field(q)
    rng = random.Random(q * 977)
    for _ in range(40):
        M = _random_integral_matrix(F, rng)
        v = vnf(M)
        assert same_lattice_class(M, vertex_matrix(F, v, 24))
        # idempotence
        assert vnf(vertex_matrix(F, v, 24)) == v


def test_vnf_insufficient_precision_recoverable():
    v = Vertex.make(5, 1, (1,))
    M = Mat2(pi_power(F3, 5, 12), Laurent(F3, 1, (1,), 2),
             Laurent.zero(F3), constant(F3, 1, 12))
    with pytest.raises(InsufficientPrecisionError):
        vnf(M)
    got = retry_with_precision(lambda p: vnf(vertex_matrix(F3, v, p)), 2)
    assert got == v

    # det [[1, 1], [1, 1 + pi^5]] = pi^5 is zero at precision 4
    def near_singular(p):
        one = constant(F3, 1, p)
        return Mat2(one, one, one, Laurent(F3, 0, (1, 0, 0, 0, 0, 1), p))
    with pytest.raises(InsufficientPrecisionError):
        vnf(near_singular(4))
    got = retry_with_precision(lambda p: vnf(near_singular(p)), 4)
    assert got == Vertex.make(5, 0, (1,))


def _unit_series(F, rng, val, digits, prec):
    """A series from pi^val with a nonzero leading digit and about
    digits more, some of them trailing zeros, known below prec."""
    cs = [rng.randrange(1, F.q)] + [rng.randrange(F.q)
                                    for _ in range(rng.randint(0, digits))]
    return Laurent(F, val, cs + [0] * rng.randint(0, 3), prec)


# digits of g = x/y, on both sides of laurent.INVERSE_BASE = 32
QUOTIENT_DIGITS = (1, 2, 3, 5, 8, 13, 22, 31, 32, 33, 47, 63, 64, 65, 129,
                   257, 600)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49])
def test_pivot_quotient_on_codes_matches_the_laurent_form(q):
    # column_vertex divides x by y on their code tuples; the Laurent
    # product and inverse it replaced give the same vertex, on exact
    # inputs and on inputs known to 0-2 digits more than g needs, and
    # g y = x below pi^(n + v(y)), a check with no inverse in it
    F = field(q)
    rng = random.Random(3200 + q)
    far = Laurent.zero(F)  # second column: never the pivot
    for digits in (0, *QUOTIENT_DIGITS):
        xval, yval = rng.randint(-6, 6), rng.randint(-6, 6)
        n = digits + xval - yval
        for exact in (False, True):
            x, y = (_unit_series(F, rng, val, digits, math.inf) if exact
                    else _unit_series(F, rng, val, rng.randint(0, digits),
                                      val + max(digits, 1)
                                      + rng.randint(0, 2))
                    for val in (xval, yval))
            v = column_vertex(x, y, far, far, n + 2 * yval)
            if digits == 0:
                assert v == Vertex.make(n, 0, ()), (q, x, y)
                continue
            g = pivot_quotient(x, y, n)
            assert g.prec >= n
            assert v == Vertex.make(n, g.val, g.coeffs), (q, digits, exact)
            rest = Laurent(F, v.gval, v.gcoeffs, n) * y - x
            assert rest.prec == n + yval and not rest.coeffs


@pytest.mark.parametrize("q", [3, 9, 49])
@pytest.mark.parametrize("digits", [1, 2, 32, 33, 100])
def test_pivot_quotient_refuses_one_digit_short(q, digits):
    # x and y must each be known to digits relative digits; one fewer in
    # either refuses (a y with no digit left has no valuation), exactly
    # enough gives the vertex of more precision
    F = field(q)
    rng = random.Random(q * 1000 + digits)
    xval, yval = rng.randint(-4, 4), rng.randint(-4, 4)
    n, far = digits + xval - yval, Laurent.zero(F)
    x, y = (_unit_series(F, rng, val, digits + 4, math.inf)
            for val in (xval, yval))
    want = column_vertex(x, y, far, far, n + 2 * yval)
    for short in (False, True):
        for which in "xy":
            cut = {c: z.truncate(z.val + digits - (short and c == which))
                   for c, z in zip("xy", (x, y))}
            args = (cut["x"], cut["y"], far, far, n + 2 * yval)
            if short:
                with pytest.raises(InsufficientPrecisionError,
                                   match="not determined modulo|"
                                   "valuations undetermined"):
                    column_vertex(*args)
            else:
                assert column_vertex(*args) == want


@pytest.mark.parametrize("start,cap,tried", [
    (5, 64, [5, 10, 20, 40, 80]), (100, 8, [100]), (1, 4, [4])])
def test_precision_cap_bounds_the_doubling_not_the_start(start, cap, tried):
    # the error propagates once an attempt at a precision >= cap fails
    attempts = []

    def never_enough(prec):
        attempts.append(prec)
        raise InsufficientPrecisionError(f"precision {prec}")
    with pytest.raises(InsufficientPrecisionError):
        retry_with_precision(never_enough, start, cap)
    assert attempts == tried
    assert retry_with_precision(lambda prec: prec, start, cap) == tried[0]


# ---------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------

def test_neighbors_of_base_over_f3():
    got = neighbors(F3, BASE_VERTEX)
    assert got == [Vertex.make(-1, 0, ()), Vertex.make(1, 0, ()),
                   Vertex.make(1, 0, (1,)), Vertex.make(1, 0, (2,))]


@pytest.mark.parametrize("q", [3, 5])
def test_neighbor_count_and_distinctness(q):
    F = field(q)
    for v in [BASE_VERTEX, Vertex.make(2, 1, (1,)), Vertex.make(-3, 0, ()),
              Vertex.make(1, -2, (2, 1, 0))]:
        ns = neighbors(F, v)
        assert len(ns) == q + 1
        assert len(set(ns)) == q + 1
        assert v not in ns


def test_neighbor_relation_symmetric_on_ball():
    verts = ball(F3, 3)
    for v in verts:
        for w in neighbors(F3, v):
            assert v in neighbors(F3, w), (v, w)


def test_ball_sizes_confirm_tree_regularity():
    # 1 + (q+1)(1 + q + q^2 + ...) vertices in a radius-r ball
    assert len(ball(F3, 1)) == 5
    assert len(ball(F3, 2)) == 1 + 4 * (1 + 3)
    assert len(ball(F3, 4)) == 1 + 4 * (1 + 3 + 9 + 27)
    assert len(ball(F5, 2)) == 1 + 6 * (1 + 5)


# ---------------------------------------------------------------------
# geodesics and distance
# ---------------------------------------------------------------------

def test_geodesic_examples():
    assert BASE_VERTEX.dist_to_base() == 0
    assert toward_base(BASE_VERTEX, 0) == BASE_VERTEX
    v = Vertex.make(2, 1, (1,))
    assert v.dist_to_base() == 2
    assert [toward_base(v, k) for k in range(3)] == [
        v, Vertex.make(1, 0, ()), BASE_VERTEX]
    w = Vertex.make(-3, 0, ())
    assert w.dist_to_base() == 3
    assert [toward_base(w, k) for k in range(4)] == [
        Vertex.make(k, 0, ()) for k in (-3, -2, -1, 0)]


def test_geodesic_is_a_path():
    """toward_base(v, k), k = 0..d, is the walk to the base vertex, a
    path without repeats of d = v.dist_to_base() steps."""
    cases = [(F3, v) for v in (
        Vertex.make(3, 0, (1, 0, 2)), Vertex.make(1, -2, (1, 1, 1)),
        Vertex.make(-2, 0, ()), Vertex.make(4, 2, (2, 1)))]
    rng = random.Random(29)
    cases += [(F, seeded_vertex(rng, F.q)) for F in (F3, F5, F9)
              for _ in range(20)]
    for F, v in cases:
        path = [toward_base(v, k) for k in range(v.dist_to_base() + 1)]
        assert path == walk_to_base(v), v
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert b in neighbors(F, a)


def test_distance_basics():
    v = Vertex.make(2, 0, (1, 2))
    assert distance(v, v) == 0
    for n in (-3, -1, 0, 2, 4):
        assert distance(BASE_VERTEX, Vertex.make(n, 0, ())) == abs(n)


def test_distance_from_base_matches_formula_and_bfs():
    for v in ball(F3, 3):
        d = distance(BASE_VERTEX, v)
        assert d == v.dist_to_base()
        assert d == distance(v, BASE_VERTEX)


@pytest.mark.parametrize("F", [F3, F5, F9], ids=lambda F: f"q{F.q}")
def test_distance_against_the_walks_to_the_base(F):
    """Seeded pairs, far apart or a short random walk apart (so sharing
    much of their geodesics), against the walks' meeting point, and
    against breadth-first search when close."""
    rng = random.Random(F.q)
    for i in range(300):
        v = seeded_vertex(rng, F.q)
        w = (seeded_vertex(rng, F.q) if i % 2 else
             random_walk(F, rng, v, rng.randint(0, 8)))
        d = distance(v, w)
        assert d == walk_distance(v, w) == distance(w, v), (v, w)
        if d <= 3:
            assert d == bfs_distance(F, v, w, cap=3), (v, w)
        assert v.dist_to_base() == distance(v, BASE_VERTEX)
        assert all(distance(v, u) == 1 for u in neighbors(F, v))


def test_pairwise_distance_against_bfs():
    verts = sorted(ball(F3, 2), key=lambda v: (v.n, v.gval, v.gcoeffs))
    for v, w in itertools.product(verts, repeat=2):
        d = distance(v, w)
        assert d == bfs_distance(F3, v, w), (v, w)
        # oracle: the class of Mv^(-1) Mw lies at distance d from the base
        Mv, Mw = vertex_matrix(F3, v), vertex_matrix(F3, w)
        assert d == vnf(inv(Mv) * Mw).dist_to_base(), (v, w)
        assert (d - (v.n - w.n)) % 2 == 0  # parity invariant


# ---------------------------------------------------------------------
# action
# ---------------------------------------------------------------------

# the general action of an invertible matrix (non-units included)

def test_act_identity_and_scalars():
    v = Vertex.make(2, 1, (1,))
    assert general_act(identity(F3, 16), v) == v
    lam = from_polys(F3, [(P(F3, "T^2+1"), ()), ((), P(F3, "T^2+1"))], 16)
    assert general_act(lam, v) == v


def test_act_associativity():
    rng = random.Random(123)
    verts = [BASE_VERTEX, Vertex.make(1, 0, (1,)), Vertex.make(-2, 0, ()),
             Vertex.make(2, 0, (2, 1))]
    for _ in range(25):
        A = _random_integral_matrix(F3, rng)
        B = _random_integral_matrix(F3, rng)
        for v in verts:
            assert (general_act(A, general_act(B, v))
                    == general_act(A * B, v))
            # the helper's column shift is the full product's
            assert general_act(A, v) == vnf(A * vertex_matrix(F3, v))


def test_act_preserves_distance():
    rng = random.Random(5)
    v = Vertex.make(2, 0, (1, 2))
    w = Vertex.make(-1, 0, ())
    d = distance(v, w)
    for _ in range(10):
        A = _random_integral_matrix(F3, rng)
        assert distance(general_act(A, v), general_act(A, w)) == d


@settings(max_examples=40)
@given(st.integers(-3, 3), st.lists(st.integers(0, 2), max_size=4))
def test_act_roundtrip_inverse(n, gcs):
    v = Vertex.make(n, n - len(gcs), gcs)
    A = from_polys(F3, [(P(F3, "1"), P(F3, "T")), ((), P(F3, "1"))], 24)
    assert general_act(inv(A), general_act(A, v)) == v


# the action of a unit: act against the general path

@functools.lru_cache(maxsize=None)
def seeded_units(q):
    """Units of the worked example (q=5) or of the q=9 case: End bases
    of the terminal vertices, then seeded words of one to four letters
    in the presentation's generators and their inverses."""
    F = field(q)
    primes = {5: ("T", "T+1", "T+2", "T+3"),
              9: ("T", "T+1", "T+2", "T+[0,1]")}[q]
    alg = build_algebra(F, [parse_poly(F, s) for s in primes])
    G = compute_quotient(alg)
    gens = [g for _, g in presentation(G).generator_items()]
    gens += [alg.inverse_unit(g) for g in gens]
    units = [b for i in G.terminal_ids() for b in G.end_basis[i]]
    rng = random.Random(q)
    for _ in range(40):
        g = QUAT_ONE
        for _ in range(rng.randint(1, 4)):
            g = alg.mul(g, rng.choice(gens))
        units.append(g)
    return alg, tuple(units)


@st.composite
def vertices(draw, q):
    """n < 0, n = 0 or n > 0, with g = 0 or g != 0."""
    n = draw(st.integers(-3, 4))
    gval = draw(st.integers(n - 4, n - 1))
    gcs = draw(st.lists(st.integers(0, q - 1), max_size=n - gval))
    return Vertex.make(n, gval, gcs)


def test_act_of_a_unit_equals_the_general_normal_form():
    """For units, act(iota(g), v) = vnf(iota(g) * M_v); the draws
    cover both pivot columns, both signs of n and both kinds of g."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from([5, 9]).flatmap(
        lambda q: st.tuples(st.just(q), st.integers(0, 10 ** 6),
                            vertices(q))))
    def check(case):
        q, k, v = case
        alg, units = seeded_units(q)
        g = units[k % len(units)]
        start = 4 * (height(g) + alg.m + abs(v.n) + 4)
        got = retry_with_precision(lambda p: act(alg.embed(g, p), v), start)
        assert got == retry_with_precision(
            lambda p: general_act(alg.embed(g, p), v), start), (q, g, v)
        M = alg.embed(g, start) * vertex_matrix(alg.F, v)
        seen.add(("first column" if M.c.val < M.d.val else "second column",
                  (v.n > 0) - (v.n < 0), bool(v.gcoeffs)))

    check()
    assert {s[0] for s in seen} == {"first column", "second column"}
    assert {s[1:] for s in seen} == set(itertools.product((-1, 0, 1),
                                                          (False, True)))


@pytest.mark.parametrize("q", [5, 9])
def test_act_of_a_unit_retries_from_too_low_a_precision(q):
    alg, units = seeded_units(q)
    v = Vertex.make(40, -3, (1, 0, 2, 1))
    for g in units:
        with pytest.raises(InsufficientPrecisionError):
            act(alg.embed(g, 4), v)
        got = retry_with_precision(lambda p: act(alg.embed(g, p), v), 4)
        assert got == retry_with_precision(
            lambda p: general_act(alg.embed(g, p), v), 64)


@pytest.mark.parametrize("q", [5, 9])
def test_scalar_units_fix_every_vertex(q):
    """F_q^* is the kernel of the action, which lets the solution check
    skip the embedding of a scalar unit."""
    alg, _ = seeded_units(q)
    for v in (Vertex.make(-2, -5, (1, 0, q - 1)), Vertex.make(-1, 0, ()),
              BASE_VERTEX, Vertex.make(0, -3, (1, 2)),
              Vertex.make(3, 0, (2, 1, 1)), Vertex.make(4, 0, ())):
        for c in range(1, q):
            g = QuatElem(((c,), (), (), ()))
            start = 4 * (alg.m + abs(v.n) + 4)
            assert retry_with_precision(
                lambda p: act(alg.embed(g, p), v), start) == v, (q, c, v)
