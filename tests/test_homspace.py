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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btquot.algebra import field, poly_add, poly_mul, poly_scale, poly_trim
from btquot.homspace import (HomSet, _kernel_basis, _system_stack, hom,
                             hom_stack, stability)
from btquot.laurent import InsufficientPrecisionError
from btquot.quaternion import QUAT_ONE, QuatElem, build_algebra
from btquot.quotient import transport
from btquot.tree import BASE_VERTEX, Vertex, act, neighbors, retry_with_precision

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
            n = max(distance(F, v, BASE_VERTEX),
                    distance(F, w, BASE_VERTEX))
            for b in hom(ALG5, v, w).basis:
                assert height(b) <= n + ALG5.m


# ---------------------------------------------------------------------------
# the one elimination against brute-force kernel enumeration
# ---------------------------------------------------------------------------

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
    (basis,) = _kernel_basis(F, A[None], ncols)
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
    got = _kernel_basis(F, stack, ncols)
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
            stack = _system_stack(ALG5, v, ws, nm, 128)
            assert len(stack) == len(ws)
            for A, w in zip(stack, ws):
                (alone,) = _system_stack(ALG5, v, [w], nm, 128)
                assert np.array_equal(A[A.any(axis=1)],
                                      alone[alone.any(axis=1)])
                extra += (A.any(axis=1) & ~stack[0].any(axis=1)).any()
    assert extra, "no system needed a row the first system lacks"


def test_candidate_stack_matches_sequential_hom():
    """The stacked solve of a candidate against End and a list of targets
    of mixed parity and mixed height bound gives the End basis and the
    first nonzero target (index and basis) that sequential hom calls in
    candidate order give."""
    lvl2, lvl3 = q5_spheres()[2:]
    pool = lvl2[:10] + lvl3[:6]
    assert {v.n % 2 for v in pool} == {0, 1}
    assert len({v.dist_to_base() for v in pool}) == 2
    hits = 0
    for k, cand in enumerate(lvl2[:6] + lvl3[:2]):
        targets = [w for w in pool if w != cand][k:k + 9]
        stacked = hom_stack(ALG5, cand, [cand, *targets])
        assert [hs.target for hs in stacked] == [cand, *targets]
        assert stacked[0].basis == hom(ALG5, cand, cand).basis
        first = next(((j, hs.basis) for j, hs in enumerate(stacked[1:])
                      if hs.dim), None)
        expected = None
        for j, w in enumerate(targets):
            hs = hom(ALG5, cand, w)
            if hs.dim:
                expected = (j, hs.basis)
                break
        assert first == expected, cand
        hits += first is not None
    assert hits, "no candidate met a target in its orbit"


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
            lambda prec: _system_stack(ALG5, v, [w], nm, prec))
        low = retry_with_precision(attempt, 1)
        assert raised, "the low start never ran out of precision"
        high = _system_stack(ALG5, v, [w], nm, 256)
        assert np.array_equal(low, high)
        ncols = 4 * (nm + 1)
        assert _kernel_basis(ALG5.F, low, ncols) == \
            _kernel_basis(ALG5.F, high, ncols)

    def test_stacked_system_retries_then_agrees(self):
        # End(V) and targets of one height bound, built as one stack
        v = self.V
        ws = [v, self.W, Vertex.make(12, 1, (3, 0, 3, 2)),
              Vertex.make(10, 0, (1, 1))]
        nm = max(u.dist_to_base() for u in ws) + ALG5.m
        assert all(max(v.dist_to_base(), u.dist_to_base()) + ALG5.m == nm
                   for u in ws)
        attempt, raised = counting(
            lambda prec: _system_stack(ALG5, v, ws, nm, prec))
        low = retry_with_precision(attempt, 1)
        assert raised, "the low start never ran out of precision"
        high = _system_stack(ALG5, v, ws, nm, 256)
        assert np.array_equal(low, high)
        ncols = 4 * (nm + 1)
        bases = _kernel_basis(ALG5.F, low, ncols)
        assert bases == _kernel_basis(ALG5.F, high, ncols)
        assert [len(b) for b in bases] == \
            [hom(ALG5, v, u).dim for u in ws]

    def test_system_below_needed_precision_raises(self):
        with pytest.raises(InsufficientPrecisionError):
            _system_stack(ALG5, self.V, [self.W], 13, 4)
