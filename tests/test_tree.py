"""Tests for the Bruhat-Tits tree module.

Normal forms are validated against a lattice-class equality oracle
(membership of N^(-1) M in GL_2(O_infinity) up to scalar), distances
against breadth-first search over the neighbor relation.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btquot.algebra import field, parse_poly
from btquot.laurent import InsufficientPrecisionError, Laurent, Mat2
from laurent_helpers import (det, from_polys, identity, inv, min_val, scale,
                             valuation)
from btquot.tree import (
    BASE_VERTEX,
    Vertex,
    act,
    distance,
    down_neighbors,
    format_vertex,
    geodesic_to_base,
    neighbors,
    parse_vertex,
    retry_with_precision,
    up_neighbor,
    vnf,
)

F3 = field(3)
F5 = field(5)


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
    Q = scale(Pm, Laurent.pi_power(Pm.a.F, -s, 64))
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
    F9 = field(9)
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
    pi2 = Laurent.pi_power(F5, 2, math.inf)
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
        assert vnf(v.matrix(F3, 16)) == v


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
        assert same_lattice_class(M, v.matrix(F, 24))
        # idempotence
        assert vnf(v.matrix(F, 24)) == v


def test_vnf_insufficient_precision_recoverable():
    v = Vertex.make(5, 1, (1,))
    M = Mat2(Laurent.pi_power(F3, 5, 12), Laurent(F3, 1, (1,), 2),
             Laurent.zero(F3), Laurent.constant(F3, 1, 12))
    with pytest.raises(InsufficientPrecisionError):
        vnf(M)
    got = retry_with_precision(lambda p: vnf(v.matrix(F3, p)), 2)
    assert got == v

    # det [[1, 1], [1, 1 + pi^5]] = pi^5 is zero at precision 4
    def near_singular(p):
        one = Laurent.constant(F3, 1, p)
        return Mat2(one, one, one, Laurent(F3, 0, (1, 0, 0, 0, 0, 1), p))
    with pytest.raises(InsufficientPrecisionError):
        vnf(near_singular(4))
    got = retry_with_precision(lambda p: vnf(near_singular(p)), 4)
    assert got == Vertex.make(5, 0, (1,))


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
    assert geodesic_to_base(BASE_VERTEX) == [BASE_VERTEX]
    v = Vertex.make(2, 1, (1,))
    path = geodesic_to_base(v)
    assert path[0] == v and path[-1] == BASE_VERTEX
    assert len(path) - 1 == 2 == v.dist_to_base()
    w = Vertex.make(-3, 0, ())
    assert geodesic_to_base(w) == [Vertex.make(k, 0, ()) for k in (-3, -2, -1, 0)]


def test_geodesic_is_a_path():
    for v in [Vertex.make(3, 0, (1, 0, 2)), Vertex.make(1, -2, (1, 1, 1)),
              Vertex.make(-2, 0, ()), Vertex.make(4, 2, (2, 1))]:
        path = geodesic_to_base(v)
        assert len(set(path)) == len(path)
        assert len(path) - 1 == v.dist_to_base()
        for a, b in zip(path, path[1:]):
            assert b in neighbors(F3, a)


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


def test_pairwise_distance_against_bfs():
    verts = sorted(ball(F3, 2), key=lambda v: (v.n, v.gval, v.gcoeffs))
    for v, w in itertools.product(verts, repeat=2):
        d = distance(v, w)
        assert d == bfs_distance(F3, v, w), (v, w)
        # oracle: the class of Mv^(-1) Mw lies at distance d from the base
        Mv, Mw = v.matrix(F3), w.matrix(F3)
        assert d == vnf(inv(Mv) * Mw).dist_to_base(), (v, w)
        assert (d - (v.n - w.n)) % 2 == 0  # parity invariant


# ---------------------------------------------------------------------
# action
# ---------------------------------------------------------------------

def test_act_identity_and_scalars():
    v = Vertex.make(2, 1, (1,))
    assert act(identity(F3, 16), v) == v
    lam = from_polys(F3, [(P(F3, "T^2+1"), ()), ((), P(F3, "T^2+1"))], 16)
    assert act(lam, v) == v


def test_act_associativity():
    rng = random.Random(123)
    verts = [BASE_VERTEX, Vertex.make(1, 0, (1,)), Vertex.make(-2, 0, ()),
             Vertex.make(2, 0, (2, 1))]
    for _ in range(25):
        A = _random_integral_matrix(F3, rng)
        B = _random_integral_matrix(F3, rng)
        for v in verts:
            assert act(A, act(B, v)) == act(A * B, v)


def test_act_preserves_distance():
    rng = random.Random(5)
    v = Vertex.make(2, 0, (1, 2))
    w = Vertex.make(-1, 0, ())
    d = distance(v, w)
    for _ in range(10):
        A = _random_integral_matrix(F3, rng)
        assert distance(act(A, v), act(A, w)) == d


@settings(max_examples=40)
@given(st.integers(-3, 3), st.lists(st.integers(0, 2), max_size=4))
def test_act_roundtrip_inverse(n, gcs):
    v = Vertex.make(n, n - len(gcs), gcs)
    A = from_polys(F3, [(P(F3, "1"), P(F3, "T")), ((), P(F3, "1"))], 24)
    assert act(inv(A), act(A, v)) == v
