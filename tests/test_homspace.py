"""Tests for the hom-set solver.

The oracle enumerates order elements directly: for coordinate degrees up
to a small height h, all solutions of nrd = c (c in F_q^*) are found by
table lookup on the quadratic in the first coordinate, and the surviving
units are pushed through the tree action.  The solver must reproduce
those sets exactly.
"""

import functools
import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btquot import quotient
from btquot.algebra import (field, parse_poly, poly_add, poly_mul,
                            poly_scale, poly_trim)
from btquot.cli import _split_primes
from btquot.homspace import (HomSet, _assert_solution, _bottom_rows,
                             _kernel_rows, _monic, _start_precision,
                             _top_rows, _vector_to_quat, bottom_kernels, hom,
                             hom_stack, stability, transport)
from btquot.laurent import INF, InsufficientPrecisionError, Laurent
from btquot.quaternion import QUAT_ONE, QuatElem, build_algebra
from btquot.tree import BASE_VERTEX, Vertex, act, neighbors, retry_with_precision
from laurent_helpers import inv, scale, vertex_matrix
from test_golden import CASES

ALG3 = build_algebra(field(3), [(0, 1), (1, 1)])
ALG5 = build_algebra(field(5), [(0, 1), (1, 1), (2, 1), (3, 1)])


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def brute_units(alg, h):
    """All order elements with coordinate degrees <= h and unit norm,
    found by solving nrd = c for the first coordinate via a square
    table."""
    F = alg.F
    polys = [poly_trim(tuple(c))
             for c in itertools.product(F.elements(), repeat=h + 1)]
    roots_of = {}
    for f in polys:
        roots_of.setdefault(poly_mul(F, f, f), []).append(f)
    two = F.from_int(2)
    units = []
    for l2 in polys:
        a_l2sq = poly_mul(F, alg.alpha, poly_mul(F, l2, l2))
        for l4 in polys:
            partial = poly_add(
                F, a_l2sq,
                poly_add(F,
                         poly_scale(F, two,
                                    poly_mul(F, alg.epsilon,
                                             poly_mul(F, l2, l4))),
                         poly_mul(F, alg.nu, poly_mul(F, l4, l4))))
            for l3 in polys:
                rhs0 = poly_add(F, partial,
                                poly_mul(F, alg.r, poly_mul(F, l3, l3)))
                for c in F.elements():
                    if c == 0:
                        continue
                    rhs = poly_add(F, rhs0, (c,))
                    for l1 in roots_of.get(rhs, ()):
                        units.append(QuatElem((l1, l2, l3, l4)))
    return units


def oracle_hom_map(alg, units, v):
    """Group the units by where they send v: target -> set of elements."""
    out = {}
    for u in units:
        def run(prec, u=u):
            return act(alg.embed(u, prec), v)
        w = retry_with_precision(run, 32)
        out.setdefault(w, set()).add(u)
    return out


# ---------------------------------------------------------------------------
# oracle equivalence on the small case
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def units_h2():
    return tuple(brute_units(ALG3, 2))


class TestOracleEquivalence:
    def test_unit_enumeration_sane(self):
        units = units_h2()
        assert len(units) == len(set(units))
        # scalars are present
        for c in (1, 2):
            assert QuatElem((poly_trim((c,)), (), (), ())) in units
        for u in units[:50]:
            assert ALG3.is_unit(u)

    def test_hom_matches_oracle_on_radius_one_pairs(self):
        # both endpoints within distance 1 of the base vertex: there the
        # height bound is <= 2 and the oracle enumeration is complete
        ball1 = [BASE_VERTEX] + list(neighbors(ALG3.F, BASE_VERTEX))
        for v in ball1:
            groups = oracle_hom_map(ALG3, units_h2(), v)
            for w in ball1:
                if (v.n - w.n) % 2:
                    continue
                got = set(hom(ALG3, v, w).elements())
                assert got == groups.get(w, set()), (v, w)

    def test_solver_contains_oracle_hits_everywhere(self):
        # for farther targets the enumeration is only partial, but every
        # unit it finds must appear in the solver's answer
        groups = oracle_hom_map(ALG3, units_h2(), BASE_VERTEX)
        for w, expected in sorted(groups.items(),
                                  key=lambda kv: repr(kv[0]))[:12]:
            got = set(hom(ALG3, BASE_VERTEX, w).elements())
            assert expected <= got, w


# ---------------------------------------------------------------------------
# structure of End and stability
# ---------------------------------------------------------------------------

class TestEndomorphisms:
    def test_scalars_always_present(self):
        for alg, v in [(ALG3, BASE_VERTEX), (ALG5, BASE_VERTEX),
                       (ALG5, Vertex.make(2, 1, (3,)))]:
            ends = hom(alg, v, v)
            assert QUAT_ONE in set(ends.elements())
            assert ends.dim >= 1

    def test_q3_both_candidate_base_vertices_unstable(self):
        v1 = Vertex.make(1, 0, ())
        s0 = stability(hom(ALG3, BASE_VERTEX, BASE_VERTEX))
        s1 = stability(hom(ALG3, v1, v1))
        assert s0 == "unstable"
        assert s1 == "unstable"

    def test_q5_base_unstable_shifted_stable(self):
        v1 = Vertex.make(1, 0, ())
        E0 = hom(ALG5, BASE_VERTEX, BASE_VERTEX)
        E1 = hom(ALG5, v1, v1)
        assert (stability(E0), stability(E1)) == ("unstable", "stable")
        assert E0.cardinality == 24  # q^2 - 1
        assert E1.cardinality == 4   # q - 1

    def test_q5_level_two_has_one_unstable(self):
        lvl2 = [Vertex.make(2, 0, ())] + [Vertex.make(2, 1, (a,))
                                          for a in range(1, 5)]
        kinds = [stability(hom(ALG5, v, v)) for v in lvl2]
        assert kinds.count("unstable") == 1

    def test_stability_rejects_a_line_other_than_the_scalars(self):
        # the solver's basis of a one-dimensional End is exactly (1,)
        v = Vertex.make(2, 1, (3,))
        (g,) = hom(ALG5, Vertex.make(2, 1, (1,)), v).basis
        for basis in ((QuatElem(((2,), (), (), ())),), (g,)):
            with pytest.raises(AssertionError, match=r"neither \(1,\)"):
                stability(HomSet(ALG5.F, v, v, basis))

    def test_stability_invariant_under_pairing_transport(self):
        lvl2 = [Vertex.make(2, 0, ())] + [Vertex.make(2, 1, (a,))
                                          for a in range(1, 5)]
        for v, w in itertools.combinations(lvl2, 2):
            if hom(ALG5, v, w).dim:
                assert (stability(hom(ALG5, v, v))
                        == stability(hom(ALG5, w, w)))


class TestWorkedExamplePairings:
    def test_two_pairings_of_cardinality_four(self):
        lvl2 = [Vertex.make(2, 0, ())] + [Vertex.make(2, 1, (a,))
                                          for a in range(1, 5)]
        stable = [v for v in lvl2
                  if stability(hom(ALG5, v, v)) == "stable"]
        assert len(stable) == 4
        paired = [(v, w) for v, w in itertools.combinations(stable, 2)
                  if hom(ALG5, v, w).dim]
        assert len(paired) == 2
        for v, w in paired:
            assert hom(ALG5, v, w).cardinality == 4
        # the two pairs partition the four stable vertices
        seen = [v for pair in paired for v in pair]
        assert len(set(seen)) == 4


# ---------------------------------------------------------------------------
# algebraic properties of hom sets
# ---------------------------------------------------------------------------

class TestHomProperties:
    def test_parity_mismatch_is_empty(self):
        u = Vertex.make(1, 0, ())
        H = hom(ALG3, BASE_VERTEX, u)
        assert H.dim == 0 and H.cardinality == 0
        assert list(H.elements()) == []

    def test_symmetry_of_cardinalities(self):
        pairs = [(BASE_VERTEX, BASE_VERTEX),
                 (BASE_VERTEX, Vertex.make(2, 0, ())),
                 (Vertex.make(2, 1, (1,)), Vertex.make(2, 1, (3,))),
                 (Vertex.make(2, 0, ()), Vertex.make(2, 1, (4,)))]
        for v, w in pairs:
            assert hom(ALG5, v, w).cardinality == hom(ALG5, w, v).cardinality

    def test_composition_closure(self):
        lvl2 = [Vertex.make(2, 0, ())] + [Vertex.make(2, 1, (a,))
                                          for a in range(1, 5)]
        stable = [v for v in lvl2
                  if stability(hom(ALG5, v, v)) == "stable"]
        pairs = [(v, w) for v, w in itertools.product(stable, repeat=2)
                 if v != w and hom(ALG5, v, w).dim]
        v, w = pairs[0]
        back = set(hom(ALG5, w, v).elements())
        ends = set(hom(ALG5, v, v).elements())
        for gamma in hom(ALG5, v, w).elements():
            for delta in back:
                assert ALG5.mul(delta, gamma) in ends

    def test_scalar_saturation(self):
        F = ALG5.F
        for v in (BASE_VERTEX, Vertex.make(2, 1, (1,))):
            H = hom(ALG5, v, v)
            elems = set(H.elements())
            assert len(elems) == H.cardinality
            for gamma in elems:
                for c in range(2, 5):
                    scaled = ALG5.scale(c, gamma)
                    assert scaled in elems

    def test_solution_check_rejects_a_target_that_is_not_the_image(self):
        v, w = Vertex.make(2, 1, (1,)), Vertex.make(2, 1, (3,))
        (g,) = hom(ALG5, v, w).basis
        assert any(g.lam[1:]), "the unit must not be a scalar"
        # a unit within the height bound, but w is its only image of v
        other = Vertex.make(2, 1, (2,))
        assert other.dist_to_base() == w.dist_to_base()
        with pytest.raises(AssertionError,
                           match="does not map source to target"):
            _assert_solution(ALG5, g, v, other)

    def test_solution_check_returns_images_of_further_vertices(self):
        v, w = Vertex.make(2, 1, (1,)), Vertex.make(2, 1, (3,))
        (g,) = hom(ALG5, v, w).basis
        more = neighbors(ALG5.F, v)
        assert _assert_solution(ALG5, g, v, w, *more) == \
            [transport(ALG5, g, u) for u in more]
        assert _assert_solution(ALG5, g, v, w) == []

    def test_scalar_solution_check_keeps_the_unit_check_and_the_target(self):
        # a scalar unit fixes every vertex without an embedding: it maps
        # v to v only, and its images of further vertices are themselves
        v, w = Vertex.make(2, 1, (1,)), Vertex.make(2, 1, (3,))
        more = neighbors(ALG5.F, v)
        two = QuatElem(((2,), (), (), ()))
        for c in (QUAT_ONE, two):
            with pytest.raises(AssertionError,
                               match="does not map source to target"):
                _assert_solution(ALG5, c, v, w)
            assert _assert_solution(ALG5, c, v, v, *more) == more
            assert _assert_solution(ALG5, c, w, w) == []
        with pytest.raises(AssertionError, match="not a unit"):
            _assert_solution(ALG5, QuatElem(((0, 1), (), (), ())), v, v)

    def test_basis_normalized_and_deterministic(self):
        v = Vertex.make(2, 1, (1,))
        w = Vertex.make(2, 1, (3,))
        H1 = hom(ALG5, v, w)
        H2 = hom(ALG5, v, w)
        assert H1.basis == H2.basis
        for b in H1.basis:
            # first nonzero coefficient in the flattened (coordinate,
            # degree) order is 1 after the echelon normalization
            flat = [c for lam in b.lam for c in lam]
            assert next(c for c in flat if c) == 1

    def test_height_bound_on_bases(self):
        from btquot.quaternion import height
        from btquot.tree import distance
        F = ALG5.F
        cases = [(BASE_VERTEX, BASE_VERTEX),
                 (Vertex.make(2, 0, ()), Vertex.make(2, 1, (4,))),
                 (Vertex.make(2, 1, (1,)), Vertex.make(2, 1, (3,)))]
        for v, w in cases:
            n = max(distance(v, BASE_VERTEX),
                    distance(w, BASE_VERTEX))
            for b in hom(ALG5, v, w).basis:
                assert height(b) <= n + ALG5.m


# ---------------------------------------------------------------------------
# the one elimination against brute-force kernel enumeration
# ---------------------------------------------------------------------------

def kernel_basis(F, A, ncols):
    """The reduced echelon kernel basis of each system of the stack A, as
    tuples (_kernel_rows, each row scaled to leading coefficient 1)."""
    return [[tuple(x) for x in K if any(x)]
            for K in _monic(F, _kernel_rows(F, A, ncols)).tolist()]


def system_stack(alg, v, ws, nm, prec):
    """The F_q-linear equations of Hom(v, w) for every w in ws, as one
    (len(ws), 4 tmax, 4(nm + 1)) stack, rows keyed (rho, t): each
    target's top rows, then its bottom rows, padded with zero rows to
    a common tmax.  These are the systems the two stages of hom_stack
    solve."""
    ns = sorted({u.n for u in ws})
    parts = (_top_rows(alg, v, ws, nm, prec),
             _bottom_rows(alg, [v], ns, nm, prec)[[ns.index(u.n)
                                                   for u in ws]])
    tmax = max(A.shape[1] for A in parts) // 2
    return np.concatenate([np.pad(
        A.reshape(len(ws), 2, A.shape[1] // 2, -1),
        ((0, 0), (0, 0), (0, tmax - A.shape[1] // 2), (0, 0)))
        for A in parts], axis=1).reshape(len(ws), 4 * tmax, -1)


def brute_kernel(F, rows, ncols):
    """Every x in F_q^ncols with rows . x = 0, by enumeration."""
    out = set()
    for x in itertools.product(range(F.q), repeat=ncols):
        if all(_dot(F, row, x) == 0 for row in rows):
            out.add(x)
    return out


def _dot(F, row, x):
    acc = 0
    for a, b in zip(row, x):
        acc = F.add(acc, F.mul(a, b))
    return acc


def span(F, basis, ncols):
    out = set()
    for cs in itertools.product(range(F.q), repeat=len(basis)):
        vec = [0] * ncols
        for c, b in zip(cs, basis):
            vec = [F.add(v, F.mul(c, x)) for v, x in zip(vec, b)]
        out.add(tuple(vec))
    return out


def kernel_of_one(F, A, ncols):
    """The kernel basis of the single matrix A, as a stack of one."""
    (basis,) = kernel_basis(F, A[None], ncols)
    return basis


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([3, 7, 9, 25, 27]))
def test_kernel_matches_enumeration(data, q):
    F = field(q)
    ncols = data.draw(st.integers(1, 4 if q <= 9 else 3))
    nrows = data.draw(st.integers(0, 4))
    # few distinct values, so that dependent and zero rows are common
    values = data.draw(st.lists(st.integers(0, q - 1), min_size=1,
                                max_size=3))
    rows = [[data.draw(st.sampled_from(values)) for _ in range(ncols)]
            for _ in range(nrows)]
    A = np.array(rows, dtype=np.int64).reshape(nrows, ncols)
    basis = kernel_of_one(F, A, ncols)
    assert span(F, basis, ncols) == brute_kernel(F, rows, ncols)
    assert len(span(F, basis, ncols)) == q ** len(basis)
    for b in basis:
        assert next(c for c in b if c) == 1
    # the reduced echelon basis ignores row order and repeated rows
    rng = random.Random(q * 101 + nrows)
    shuffled = rows + rows[:1]
    rng.shuffle(shuffled)
    B = np.array(shuffled, dtype=np.int64).reshape(len(shuffled), ncols)
    assert kernel_of_one(F, B, ncols) == basis


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([3, 7, 9, 25, 27]))
def test_stacked_kernels_match_single_and_enumeration(data, q):
    """Each system of a stack, padded with zero rows to the stack's row
    count, has the basis it has alone, and that basis spans the kernel."""
    F = field(q)
    ncols = data.draw(st.integers(1, 4 if q <= 9 else 3))
    values = data.draw(st.lists(st.integers(0, q - 1), min_size=1,
                                max_size=3))
    systems = []
    for _ in range(data.draw(st.integers(1, 4))):
        nrows = data.draw(st.integers(0, 4))
        systems.append([[data.draw(st.sampled_from(values))
                         for _ in range(ncols)] for _ in range(nrows)])
    height = max(len(rows) for rows in systems) + data.draw(st.integers(0, 2))
    stack = np.zeros((len(systems), height, ncols), dtype=np.int64)
    for b, rows in enumerate(systems):
        if rows:
            stack[b, :len(rows)] = rows
    got = kernel_basis(F, stack, ncols)
    assert len(got) == len(systems)
    for basis, rows in zip(got, systems):
        A = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
        assert basis == kernel_of_one(F, A, ncols)
        assert span(F, basis, ncols) == brute_kernel(F, rows, ncols)


@functools.lru_cache(maxsize=None)
def q5_spheres():
    """The spheres of radius 0..3 around the base vertex, for q = 5."""
    spheres = [[BASE_VERTEX]]
    seen = {BASE_VERTEX}
    for _ in range(3):
        shell = [u for v in spheres[-1] for u in neighbors(ALG5.F, v)
                 if u not in seen]
        seen.update(shell)
        spheres.append(shell)
    return spheres


def test_stacked_systems_hold_their_own_equations():
    """Every system of a stack has, among its nonzero rows and in order,
    exactly the equations of its stack of one, also where other systems
    of the stack need rows it does not."""
    extra = 0
    for sphere in q5_spheres()[2:]:
        for v in sphere[:4]:
            ws = [v] + [w for w in sphere[:12]
                        if w != v and (w.n - v.n) % 2 == 0]
            nm = max(u.dist_to_base() for u in ws) + ALG5.m
            stack = system_stack(ALG5, v, ws, nm, 128)
            assert len(stack) == len(ws)
            for A, w in zip(stack, ws):
                (alone,) = system_stack(ALG5, v, [w], nm, 128)
                assert np.array_equal(A[A.any(axis=1)],
                                      alone[alone.any(axis=1)])
                extra += (A.any(axis=1) & ~stack[0].any(axis=1)).any()
    assert extra, "no system needed a row the first system lacks"


def test_candidate_stack_matches_sequential_hom():
    """The stacked solve of a candidate against End and a list of targets
    of its parity, mixed height bound and mixed n, with the bottom
    kernels of a level that holds them all, gives, for every target, the
    basis that a hom call on that target alone gives."""
    lvl1, lvl2, lvl3 = q5_spheres()[1:]
    pool = lvl3[:6] + lvl1 + lvl2[:10]
    cands = lvl1[:2] + lvl2[:6] + lvl3[:2]
    assert {v.n % 2 for v in pool} == {0, 1}
    assert len({v.dist_to_base() for v in pool}) == 3
    bottoms = {}
    for parity in (0, 1):
        level = [v for v in dict.fromkeys(pool + cands) if v.n % 2 == parity]
        bottoms.update(zip(level, level_bottoms(ALG5, level)))
    hits = bounds = ns = 0
    for k, cand in enumerate(cands):
        same = [w for w in pool if w != cand and (w.n - cand.n) % 2 == 0]
        targets = [cand, *same[k:k + 9]]
        stacked = hom_stack(ALG5, cand, targets, bottoms[cand])
        assert [hs.target for hs in stacked] == targets
        for hs, w in zip(stacked, targets):
            assert hs.basis == hom(ALG5, cand, w).basis, (cand, w)
        hits += any(hs.dim for hs in stacked[1:])
        bounds += len({max(cand.dist_to_base(), w.dist_to_base())
                       for w in targets}) > 1
        ns += len({w.n for w in targets}) > 1
    assert hits, "no candidate met a target in its orbit"
    assert bounds, "no stack mixed height bounds"
    assert ns, "no stack mixed values of n"


def test_stack_rejects_a_target_of_the_other_parity():
    v, w = Vertex.make(2, 0, ()), Vertex.make(1, 0, ())
    bottom = bottom_kernels(ALG5, [v], 2, [2])[0]
    with pytest.raises(AssertionError, match="parities"):
        hom_stack(ALG5, v, [v, w], bottom)


def reference_system(alg, v, w, nm, prec):
    """The equations of Hom(v, w) from Mat2 products: row (rho, t), column
    (k, j) holds the pi^(j - t) coefficient of entry rho of
    pi^s * Mw^(-1) * iota(b_k) * Mv, s = (n_w - n_v)/2, for t = 1, 2, ...
    down to the lowest exponent any lam_k * T^j can reach; zero rows
    dropped."""
    F = alg.F
    left = scale(inv(vertex_matrix(F, w)),
                 Laurent.pi_power(F, (w.n - v.n) // 2, INF))
    Ys = [left * B * vertex_matrix(F, v)
          for B in alg.basis_embedding(prec)]
    low = min(x.val for Y in Ys for x in Y.entries() if x.coeffs) - nm
    rows = [[Y.entries()[rho].coeff(j - t) for Y in Ys
             for j in range(nm + 1)]
            for rho in range(4) for t in range(1, nm - low + 1)]
    A = np.array(rows, dtype=np.int64)
    return A[A.any(axis=1)]


def oracle_vertices(q):
    """Vertices of both parities, n of both signs, g zero and nonzero,
    and g with every digit q - 1, which drives the packed slot sums of
    the system build toward their bounds."""
    top = q - 1
    return [BASE_VERTEX, Vertex.make(2, 0, ()), Vertex.make(-2, 0, ()),
            Vertex.make(2, 1, (1,)), Vertex.make(-2, -5, (top,) * 3),
            Vertex.make(4, -2, (top,) * 6), Vertex.make(6, 0, (top,) * 6),
            Vertex.make(1, 0, ()), Vertex.make(-1, -4, (top, 0, 2 % q)),
            Vertex.make(5, -1, (top,) * 6), Vertex.make(3, -3, (top,) * 6)]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49, 125, 127])
def test_system_stack_matches_mat2_reference(q):
    """Each system of a stack, built as hom_stack builds it (from its
    start precision, retried), has the nonzero equations and the kernel
    basis of the Mat2 reference, for every source against every vertex
    of its parity."""
    alg = build_algebra(field(q), [(0, 1), (1, 1)])
    F, vs = alg.F, oracle_vertices(q)
    systems = 0
    for v in vs:
        ws = [w for w in vs if (w.n - v.n) % 2 == 0]
        n = max(u.dist_to_base() for u in ws)
        nm = n + alg.m
        used = []

        def build(prec):
            used.append(prec)
            return system_stack(alg, v, ws, nm, prec)
        stack = retry_with_precision(build, _start_precision(alg, n))
        ncols = 4 * (nm + 1)
        for A, w, basis in zip(stack, ws, kernel_basis(F, stack, ncols)):
            ref = reference_system(alg, v, w, nm, 2 * used[-1])
            assert np.array_equal(A[A.any(axis=1)], ref), (v, w)
            assert basis == kernel_of_one(F, ref, ncols), (v, w)
            systems += 1
    assert systems == sum(sum((w.n - v.n) % 2 == 0 for w in vs) for v in vs)


def one_stage(alg, v, targets):
    """The bases of hom_stack(alg, v, targets, bottom) from one
    elimination of each target's whole system (system_stack), top and
    bottom rows together, at the stack's own height bound."""
    n = max(u.dist_to_base() for u in (v, *targets))
    nm = n + alg.m
    stack = retry_with_precision(
        lambda prec: system_stack(alg, v, targets, nm, prec),
        _start_precision(alg, n))
    return [tuple(_vector_to_quat(x, nm) for x in vecs)
            for vecs in kernel_basis(alg.F, stack, 4 * (nm + 1))]


ALG9 = build_algebra(field(9), [parse_poly(field(9), t)
                                for t in ("T", "T+1", "T+2", "T+[0,1]")])


def level_bottoms(alg, level):
    """bottom_kernels for a level, as compute_quotient asks for them: at
    its largest distance to the base vertex and for its values of n."""
    return bottom_kernels(alg, level, max(u.dist_to_base() for u in level),
                          sorted({u.n for u in level}))


@pytest.mark.parametrize("q", [5, 9])
def test_two_stage_solve_matches_one_stage(q):
    """hom_stack's bases, with its bottom kernels computed for the stack
    alone or for a whole level of candidates (a larger height bound when
    a far candidate is in the level), equal the one-stage solve's, on
    stacks that mix values of n and height bounds.  A level is one
    parity of n, so the candidates are split into one level each, and a
    stack holds the candidates of its source's parity."""
    alg = {5: ALG5, 9: ALG9}[q]
    # far candidates first, so that later stacks may leave them out
    if q == 5:
        cands = q5_spheres()[3][:4] + q5_spheres()[1] + q5_spheres()[2][:12]
    else:
        near = neighbors(alg.F, BASE_VERTEX)
        mid = [u for u in neighbors(alg.F, near[0]) if u != BASE_VERTEX]
        far = [u for u in neighbors(alg.F, mid[0]) if u != near[0]]
        cands = far[:4] + mid[:12] + near
    assert {v.n % 2 for v in cands} == {0, 1}
    bottoms = {}
    for parity in (0, 1):
        level = [v for v in cands if v.n % 2 == parity]
        bottoms.update(zip(level, level_bottoms(alg, level)))
    dims, groups, bounds = Counter(), Counter(), Counter()
    for i, v in enumerate(cands):
        same = [w for w in cands[max(0, i - 12):i] if (w.n - v.n) % 2 == 0]
        earlier = [w for w in cands[:i] if (w.n - v.n) % 2 == 0]
        for targets in ([v, *same], [v, *earlier[-4:]]):
            want = one_stage(alg, v, targets)
            own = bottom_kernels(
                alg, [v], max(w.dist_to_base() for w in targets),
                sorted({w.n for w in targets}))[0]
            for bottom in (own, bottoms[v]):
                assert [hs.basis for hs in hom_stack(alg, v, targets,
                                                     bottom)] == want
            dims.update(len(b) for b in want)
            groups[len({w.n for w in targets})] += 1
            bounds[bottoms[v][0] > max(w.dist_to_base()
                                       for w in targets)] += 1
    assert {1, 2} <= set(dims), dims
    assert groups[2], "no stack mixed values of n"
    assert bounds[True], "no level bound above a stack's own"


def recorded_search(monkeypatch, case):
    """The algebra of a golden case, with the bottom_kernels and hom_stack
    calls of its compute_quotient: (sources, n, ns) per level and
    (v, targets, bottom) per stack."""
    args = dict(zip(CASES[case][::2], CASES[case][1::2]))
    F = field(int(args["--q"]))
    alg = build_algebra(F, [parse_poly(F, t)
                            for t in _split_primes(args["--primes"])])
    levels, stacks = [], []

    def level(alg, sources, n, ns):
        levels.append((list(sources), n, list(ns)))
        return bottom_kernels(alg, sources, n, ns)

    def stack(alg, v, targets, bottom):
        stacks.append((v, list(targets), bottom))
        return hom_stack(alg, v, targets, bottom)
    monkeypatch.setattr(quotient, "bottom_kernels", level)
    monkeypatch.setattr(quotient, "hom_stack", stack)
    quotient.compute_quotient(alg)
    return alg, levels, stacks


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_search_level_has_one_parity_of_n(monkeypatch, case):
    """The tree is bipartite and a vertex's distance to the base vertex
    has the parity of its n, so each level of the search, a set of
    vertices at one distance from the initial one, has one parity of n;
    it is asked for at its own largest distance and values of n."""
    _, levels, stacks = recorded_search(monkeypatch, case)
    assert levels and sum(len(sources) for sources, _, _ in levels) == \
        len(stacks)
    for sources, n, ns in levels:
        assert len({v.n % 2 for v in sources}) == 1, (case, sources)
        assert n == max(v.dist_to_base() for v in sources)
        assert ns == sorted({v.n for v in sources})


@pytest.mark.parametrize("case", ["q5-worked", "q9-deg4"])
def test_search_level_kernels_solve_as_one_stage(monkeypatch, case):
    """Every stack of the search, solved with its level's bottom kernels,
    has the one-stage bases.  The worked example starts at (1; 0), so its
    first level holds the base vertex and vertices two steps from it,
    and its first stack is solved above its own height bound."""
    alg, _, stacks = recorded_search(monkeypatch, case)
    above = 0
    for v, targets, bottom in stacks:
        assert [hs.basis for hs in hom_stack(alg, v, targets, bottom)] == \
            one_stage(alg, v, targets), (v, targets)
        above += bottom[0] > max(u.dist_to_base() for u in (v, *targets))
    assert above or case != "q5-worked"


def test_bottom_kernels_reject_the_other_parity():
    with pytest.raises(AssertionError, match="parities"):
        bottom_kernels(ALG5, [Vertex.make(2, 0, ())], 2, [1, 2])
    with pytest.raises(AssertionError, match="parities"):
        bottom_kernels(ALG5, [BASE_VERTEX, Vertex.make(1, 0, ())], 1, [0])


@pytest.mark.parametrize("q", [7, 25])
def test_two_stage_solve_matches_one_stage_on_oracle_vertices(q):
    """The same on the oracle vertices: n of both signs and g with every
    digit q - 1, each source against all of them of its parity, with the
    bottom kernels of the level of those."""
    alg = build_algebra(field(q), [(0, 1), (1, 1)])
    vs = oracle_vertices(q)
    for parity in (0, 1):
        level = [v for v in vs if v.n % 2 == parity]
        for v, bottom in zip(level, level_bottoms(alg, level)):
            assert [hs.basis for hs in hom_stack(alg, v, level, bottom)] \
                == one_stage(alg, v, level), v


# ---------------------------------------------------------------------------
# the precision-retry path, started below what the kernels need
# ---------------------------------------------------------------------------

def counting(fn):
    """fn, plus a list of the precisions at which it raised."""
    raised = []

    def wrapped(prec):
        try:
            return fn(prec)
        except InsufficientPrecisionError:
            raised.append(prec)
            raise
    return wrapped, raised


class TestPrecisionRetry:
    V = Vertex.make(12, 1, (1, 0, 3, 2))
    W = Vertex.make(12, 0, (2, 1, 4))
    FAR = Vertex.make(20, -6, (1, 0, 3, 2))

    def test_act_of_embedding_retries_then_agrees(self):
        g = hom(ALG5, Vertex.make(2, 0, ()), Vertex.make(2, 1, (4,))).basis[0]
        attempt, raised = counting(
            lambda prec: act(ALG5.embed(g, prec), self.FAR))
        got = retry_with_precision(attempt, 1)
        assert raised, "the low start never ran out of precision"
        assert got == transport(ALG5, g, self.FAR)
        assert got == act(ALG5.embed(g, 256), self.FAR)

    def test_hom_system_retries_then_agrees(self):
        v, w = self.V, self.W
        nm = max(v.dist_to_base(), w.dist_to_base()) + ALG5.m
        attempt, raised = counting(
            lambda prec: system_stack(ALG5, v, [w], nm, prec))
        low = retry_with_precision(attempt, 1)
        assert raised, "the low start never ran out of precision"
        high = system_stack(ALG5, v, [w], nm, 256)
        assert np.array_equal(low, high)
        ncols = 4 * (nm + 1)
        assert kernel_basis(ALG5.F, low, ncols) == \
            kernel_basis(ALG5.F, high, ncols)

    def test_stacked_system_retries_then_agrees(self):
        # End(V) and targets of one height bound, built as one stack
        v = self.V
        ws = [v, self.W, Vertex.make(12, 1, (3, 0, 3, 2)),
              Vertex.make(10, 0, (1, 1))]
        nm = max(u.dist_to_base() for u in ws) + ALG5.m
        assert all(max(v.dist_to_base(), u.dist_to_base()) + ALG5.m == nm
                   for u in ws)
        attempt, raised = counting(
            lambda prec: system_stack(ALG5, v, ws, nm, prec))
        low = retry_with_precision(attempt, 1)
        assert raised, "the low start never ran out of precision"
        high = system_stack(ALG5, v, ws, nm, 256)
        assert np.array_equal(low, high)
        ncols = 4 * (nm + 1)
        bases = kernel_basis(ALG5.F, low, ncols)
        assert bases == kernel_basis(ALG5.F, high, ncols)
        assert [len(b) for b in bases] == \
            [hom(ALG5, v, u).dim for u in ws]

    def test_system_below_needed_precision_raises(self):
        with pytest.raises(InsufficientPrecisionError):
            system_stack(ALG5, self.V, [self.W], 13, 4)
