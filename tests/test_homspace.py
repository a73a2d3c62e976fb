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

from btquot import homspace, laurent, quaternion, quotient
from btquot.algebra import (field, parse_poly, poly_add, poly_mul,
                            poly_scale, poly_trim)
from btquot.homspace import (HomSet, _assert_solution, _fq_matmul,
                             _kernel_rows, _level_rows, _monic, _reduction,
                             _vector_to_quat, _widths, bottom_kernels, hom,
                             hom_stack, stability, transport)
from btquot.laurent import (INF, InsufficientPrecisionError, Laurent, Mat2,
                            from_packed)
from btquot.quaternion import QUAT_ONE, AlgebraData, QuatElem, build_algebra
from btquot.serialize import graph_from_json, graph_to_json
from btquot.tree import (BASE_VERTEX, Vertex, act, distance, neighbors,
                         retry_with_precision)
from laurent_helpers import inv, pi_power, scale, vertex_matrix
from oracle_units import laurent_check
from test_golden import (CASES, GOLDEN, case_algebra, golden_solutions,
                         golden_units)

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
        # deg lam_k <= (d_v + d_w)/2 + o_k, o = (0, m - 1, 0, m), m = 2
        assert ALG5.m == 2
        cases = [(BASE_VERTEX, BASE_VERTEX),
                 (Vertex.make(2, 0, ()), Vertex.make(2, 1, (4,))),
                 (Vertex.make(2, 1, (1,)), Vertex.make(2, 1, (3,))),
                 (BASE_VERTEX, Vertex.make(4, 0, ()))]
        for v, w in cases:
            D = (distance(v, BASE_VERTEX) + distance(w, BASE_VERTEX)) // 2
            for b in hom(ALG5, v, w).basis:
                assert all(len(lam) - 1 <= c for lam, c in
                           zip(b.lam, (D, D + 1, D, D + 2))), (v, w, b)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stored_units_reach_the_height_bound(case):
    """Every stored pairing unit and End basis element gamma, mapping v
    to w, has deg lam_k <= (d_v + d_w)/2 + o_k, and some reach that
    bound exactly for lam_1, for lam_3 and for lam_4: a bound one lower
    on any of them would lose a stored unit."""
    alg, solutions = golden_solutions(case)
    reached = set()
    for g, v, w in solutions:
        bound = _widths(alg, (v.dist_to_base() + w.dist_to_base()) // 2)
        assert all(len(lam) <= c for lam, c in zip(g.lam, bound)), (g, v, w)
        reached.update(k for k, (lam, c) in enumerate(zip(g.lam, bound))
                       if len(lam) == c)
    assert {0, 2, 3} <= reached, reached


def test_hom_of_a_far_pair_holds_a_product_of_pairing_units(monkeypatch):
    """On q5-worked, a product g of 3 to 6 stored pairing units moves a
    vertex v within distance 2 of the base vertex to w = transport(g, v),
    farther than the radius-4 balls of the acceptance test: g lies in
    the span of hom(v, w), whose system has sum_k (D + o_k + 1) columns,
    D = (d_v + d_w)/2 and o = (0, m - 1, 0, m)."""
    alg, solutions = golden_solutions("q5-worked")
    pairing = [g for g, v, w in solutions if v != w]
    near = neighbors(alg.F, BASE_VERTEX)
    ball = [BASE_VERTEX, *near, *{u: 0 for v in near
                                  for u in neighbors(alg.F, v)
                                  if u != BASE_VERTEX}]
    built = []

    def level_rows(alg, sources, n, ns, D):
        A = real(alg, sources, n, ns, D)
        built.append((D, A.shape[-1]))
        return A
    real = homspace._level_rows
    monkeypatch.setattr(homspace, "_level_rows", level_rows)
    rng = random.Random(31)
    far = []
    for _ in range(12):
        g = functools.reduce(alg.mul, rng.choices(pairing,
                                                  k=rng.randint(3, 6)))
        v = rng.choice(ball)
        w = transport(alg, g, v)
        assert g in set(hom(alg, v, w).elements()), (g, v, w)
        D = (v.dist_to_base() + w.dist_to_base()) // 2
        assert built.pop() == (D, 4 * D + 4 + (alg.m - 1) + alg.m)
        far.append(distance(BASE_VERTEX, w))
    assert min(far) > 4 and max(far) > 16, far


# ---------------------------------------------------------------------------
# the solution check: Y integral, and Ybar on the link, against tree.act
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", sorted(CASES))
def test_solution_check_images_match_transport(case):
    """On a golden graph, the check's images of all q+1 neighbours of a
    pairing's candidate, src among them and its image the stored back,
    and of all neighbours of a terminal vertex under every End element,
    are transport's."""
    alg = case_algebra(case)
    G = graph_from_json((GOLDEN / f"{case}.json").read_text(), alg)
    F, checks = alg.F, []
    for k in G.pairings:
        e, back = G.edges[k], G.edges[k + 1].direction
        checks.append((e.elem, e.direction, G.vertices[e.dst]))
        nbrs = neighbors(F, e.direction)
        images = _assert_solution(alg, *checks[-1], *nbrs)
        assert images[nbrs.index(G.vertices[e.src])] == back
    for i, basis in G.end_basis.items():
        v = G.vertices[i]
        checks += [(x, v, v) for x in HomSet(F, v, v, basis).elements()]
    assert G.pairings
    for gamma, v, w in checks:
        nbrs = neighbors(F, v)
        assert _assert_solution(alg, gamma, v, w, *nbrs) == \
            [transport(alg, gamma, u) for u in nbrs]
        assert transport(alg, gamma, v) == w


class TestSolutionCheckRejects:
    """The rejections of the check but a wrong target of V's parity,
    which TestHomProperties covers."""

    V, W = Vertex.make(2, 1, (1,)), Vertex.make(2, 1, (3,))

    def unit(self):
        (g,) = hom(ALG5, self.V, self.W).basis
        assert any(g.lam[1:]), "the unit must not be a scalar"
        return g

    def test_a_target_of_the_other_parity(self):
        for other in (Vertex.make(1, 1, ()), Vertex.make(3, 1, (3,))):
            with pytest.raises(AssertionError,
                               match="does not map source to target"):
                _assert_solution(ALG5, self.unit(), self.V, other)

    def test_a_non_unit(self):
        # T g is no scalar, and nrd(T g) = T^2 nrd(g)
        T = QuatElem(((0, 1), (), (), ()))
        with pytest.raises(AssertionError, match="not a unit"):
            _assert_solution(ALG5, ALG5.mul(T, self.unit()), self.V, self.W)

    def test_a_further_vertex_that_is_not_a_neighbour(self):
        g = self.unit()
        for far in (self.W, Vertex.make(3, 1, (2, 4)), Vertex.make(4, 1, (1,)),
                    Vertex.make(3, 0, (1, 1)), Vertex.make(1, 0, (1,))):
            with pytest.raises(AssertionError, match="^vertex and source "
                               "are not tree neighbours$"):
                _assert_solution(ALG5, g, self.V, self.W,
                                 *neighbors(ALG5.F, self.V), far)

    def test_a_precision_above_the_cap(self):
        # against a far target of V's parity, the check reads iota(g)
        # below pi^18, before it can tell that g maps V elsewhere
        alg = build_algebra(ALG5.F, [(0, 1), (1, 1), (2, 1), (3, 1)],
                            precision_cap=16)
        far = Vertex.make(20, -6, (1, 0, 3, 2))
        with pytest.raises(InsufficientPrecisionError, match="^check "
                           "needs precision 18, above the cap 16$"):
            _assert_solution(alg, self.unit(), self.V, far)


# ---------------------------------------------------------------------------
# the packed check against its Laurent form (oracle_units.laurent_check)
# ---------------------------------------------------------------------------

T_ELEM = QuatElem(((0, 1), (), (), ()))
NOT_A_UNIT = (AssertionError, "hom solution is not a unit of the order")


def outcome(check, alg, gamma, v, w, *more):
    """check's images of the vertices more, or its refusal's class and
    text."""
    try:
        return check(alg, gamma, v, w, *more)
    except (AssertionError, InsufficientPrecisionError) as exc:
        return type(exc), str(exc)


def same_outcome(alg, gamma, v, w, *more):
    """The outcome of _assert_solution, asserted equal to laurent_check's."""
    got = outcome(_assert_solution, alg, gamma, v, w, *more)
    assert got == outcome(laurent_check, alg, gamma, v, w, *more), \
        (gamma, v, w)
    return got


@functools.cache
def check_units(q):
    """An algebra over F_q and units of it: a golden graph's stored units
    for q = 5 and 9, the End basis elements of the two vertices of the
    quotient for T, T + 1 otherwise; then seeded products of 2 to 4 of
    them, of larger height."""
    if q in (5, 9):
        alg, units = golden_units({5: "q5-worked", 9: "q9-deg4"}[q])
    else:
        alg = build_algebra(field(q), [(0, 1), (1, 1)])
        G = quotient.compute_quotient(alg)
        units = [b for bs in G.end_basis.values() for b in bs]
    rng = random.Random(q)
    return alg, units + [functools.reduce(alg.mul, rng.choices(
        units, k=rng.randint(2, 4))) for _ in range(12)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_packed_check_agrees_with_the_laurent_check_on_golden_units(case):
    """On every stored unit, with all neighbours of its source as the
    further vertices, the same images as laurent_check and as
    transport; and the same refusal against three other stored
    vertices as targets, and for T times the unit."""
    alg, solutions = golden_solutions(case)
    F, rng = alg.F, random.Random(case)
    stored = sorted({x for _, v, w in solutions for x in (v, w)}, key=repr)
    refusals = Counter()
    for g, v, w in solutions:
        nbrs = neighbors(F, v)
        assert same_outcome(alg, g, v, w, *nbrs) == \
            [transport(alg, g, u) for u in nbrs]
        for x in rng.sample([x for x in stored if x != w], 3):
            refusals[same_outcome(alg, g, v, x)[1]] += 1
        assert same_outcome(alg, alg.mul(T_ELEM, g), v, w) == NOT_A_UNIT
    assert refusals["hom solution does not map source to target"], refusals


def walk(F, rng, steps):
    """The end of a seeded walk of the given number of steps from the
    base vertex, each to a random neighbour."""
    v = BASE_VERTEX
    for _ in range(steps):
        v = rng.choice(neighbors(F, v))
    return v


@pytest.mark.parametrize("q", [5, 9, 25])
def test_packed_check_agrees_with_the_laurent_check_on_a_ball(q):
    """Seeded (unit, vertex) pairs on the radius-3 ball of F_q: the same
    images of all neighbours of v under the unit's target, and the same
    refusal of another target of its parity, of T times the unit, and
    of a further vertex that is no neighbour of v."""
    alg, units = check_units(q)
    F, rng = alg.F, random.Random(3 * q)
    refusals = Counter()
    for _ in range(40):
        g, v = rng.choice(units), walk(F, rng, rng.randint(0, 3))
        w, nbrs = transport(alg, g, v), neighbors(F, v)
        assert same_outcome(alg, g, v, w, *nbrs) == \
            [transport(alg, g, u) for u in nbrs]
        # another target of w's parity, and a vertex two steps from v
        x = walk(F, rng, 2 * rng.randint(0, 1) + w.n % 2)
        x = x if x != w else neighbors(F, neighbors(F, w)[0])[1]
        far = neighbors(F, rng.choice(nbrs[1:]))[1]
        for args in ((v, x), (v, w, *nbrs, far)):
            got = same_outcome(alg, g, *args)
            if isinstance(got, tuple):
                refusals[got[1]] += 1
        assert same_outcome(alg, alg.mul(T_ELEM, g), v, w) == NOT_A_UNIT
    assert refusals["hom solution does not map source to target"] and \
        refusals["vertex and source are not tree neighbours"], refusals


@pytest.mark.parametrize("q", [9, 27])
def test_packed_check_at_the_largest_g_digits(q):
    """Sources and wrong targets whose g digits are all q - 1, every
    coordinate p - 1, so that g_v, -g_w and their product fill the slots
    the check's width is sized for: the same outcome as laurent_check,
    and transport's images."""
    alg, units = check_units(q)
    F = alg.F
    for g in random.Random(q).sample(units, 8):
        for n, gval in ((2, -1), (5, -6), (9, -20), (-3, -12)):
            v = Vertex.make(n, gval, [q - 1] * (n - gval))
            w, nbrs = transport(alg, g, v), neighbors(F, v)
            assert same_outcome(alg, g, v, w, *nbrs) == \
                [transport(alg, g, u) for u in nbrs]
            x = Vertex.make(w.n + 2, gval, [q - 1] * (w.n + 2 - gval))
            assert isinstance(same_outcome(alg, g, v, x), tuple)


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_reads_its_sums_to_exactly_its_precision(monkeypatch, case):
    """Every stored non-scalar unit passes with embed_packed's sums cut
    to the check's precision P, and is refused with them cut to P - 1."""
    alg, solutions = golden_solutions(case)
    real, precs = alg.embed_packed, []
    checked = 0
    for g, v, w in solutions:
        if not any(g.lam[1:]):
            continue
        nbrs = neighbors(alg.F, v)
        want = [transport(alg, g, u) for u in nbrs]
        monkeypatch.setattr(alg, "embed_packed",
                            truncating(alg, real, 0, precs))
        assert _assert_solution(alg, g, v, w, *nbrs) == want
        assert len(precs) == 1
        precs.clear()
        monkeypatch.setattr(alg, "embed_packed", truncating(alg, real, 1))
        with pytest.raises(AssertionError,
                           match="^solution check short of precision$"):
            _assert_solution(alg, g, v, w)
        monkeypatch.setattr(alg, "embed_packed", real)
        checked += 1
    assert checked


@pytest.mark.parametrize("case", sorted(CASES))
def test_reduction_mod_pi_has_determinant_nrd(case):
    """det(Y mod pi) = det Y = nrd(gamma) for every stored non-scalar
    unit: the constant the check's proof of a unit rests on."""
    alg, solutions = golden_solutions(case)
    F = alg.F
    dets = [(F.sub(F.mul(a, d), F.mul(b, c)),) == alg.nrd(g)
            for g, v, w in solutions if any(g.lam[1:])
            for (a, b), (c, d) in [_reduction(alg, g, v, w)]]
    assert dets and all(dets)


def test_check_success_path_takes_no_norm_and_no_laurent_embedding(
        monkeypatch):
    """On every golden's stored units, with all neighbours of the source,
    the check computes no reduced norm and builds no Laurent embedding
    or series: nrd, AlgebraData.embed and from_packed all raise."""
    checks = []
    for case in sorted(CASES):
        alg, solutions = golden_solutions(case)
        for g, v, w in solutions:
            nbrs = neighbors(alg.F, v)
            checks.append((alg, g, v, w, nbrs,
                           [transport(alg, g, u) for u in nbrs]))

    def called(*args, **kwargs):
        raise RuntimeError("called on the check's success path")
    monkeypatch.setattr(AlgebraData, "nrd", called)
    monkeypatch.setattr(AlgebraData, "embed", called)
    for module in (homspace, quaternion, laurent):
        monkeypatch.setattr(module, "from_packed", called)
    for alg, g, v, w, nbrs, want in checks:
        assert _assert_solution(alg, g, v, w, *nbrs) == want


# ---------------------------------------------------------------------------
# the one elimination against brute-force kernel enumeration
# ---------------------------------------------------------------------------

def kernel_basis(F, A, ncols):
    """The reduced echelon kernel basis of each system of the stack A, as
    tuples (_kernel_rows, each row scaled to leading coefficient 1)."""
    return [[tuple(x) for x in K if any(x)]
            for K in _monic(F, _kernel_rows(F, A, ncols)).tolist()]


def system_stack(alg, v, ws, n):
    """The F_q-linear equations of Hom(v, w) for every w in ws, as one
    (len(ws), 4 tmax, sum(_widths(alg, n))) stack, rows keyed (rho, t):
    each target's top rows, then its bottom rows, padded with zero rows
    to tmax.  Both come from the level builder (_level_rows) at the
    level bound and height n, at the precision it computes, with B and
    D = Eq(pi^(s - n) P2*) as in hom_stack: the bottom rows are D's rows
    t > n, and the top rows B - G D, G the Toeplitz matrix of g_w's
    coefficients over all of D's rows (row t, column n + t + gval + i -
    n_w holds c_i).  Unprojected, so not only C's rows count.  These are
    the systems the two stages of hom_stack solve."""
    F = alg.F
    add, _, neg, _ = F.tables()
    ns = sorted({u.n for u in ws})
    A = _level_rows(alg, [v], n, [ns], n)
    tmax = A.shape[3]
    out = []
    for w in ws:
        B, D = A[ns.index(w.n)]
        G = np.zeros((tmax, tmax), dtype=np.int64)
        for i, c in enumerate(w.gcoeffs):
            for t in range(1, tmax + 1):
                u = n + t + w.gval + i - w.n
                if 1 <= u <= tmax:
                    G[t - 1, u - 1] = c
        bottom = np.zeros_like(D)
        bottom[:, :tmax - n] = D[:, n:]
        out.append(np.concatenate([add[B, neg[_fq_matmul(F, G[None], D)]],
                                   bottom]).reshape(4 * tmax, -1))
    return np.stack(out)


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
            n = max(u.dist_to_base() for u in ws)
            stack = system_stack(ALG5, v, ws, n)
            assert len(stack) == len(ws)
            for A, w in zip(stack, ws):
                (alone,) = system_stack(ALG5, v, [w], n)
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
        (stacked,) = hom_stack(ALG5, [(cand, targets, bottoms[cand])])
        homs = [stacked[k] for k in range(len(targets))]
        assert [hs.target for hs in homs] == targets
        assert [hs.dim for hs in homs] == stacked.dims
        for hs, w in zip(homs, targets):
            assert hs.basis == hom(ALG5, cand, w).basis, (cand, w)
        hits += any(stacked.dims[1:])
        bounds += len({max(cand.dist_to_base(), w.dist_to_base())
                       for w in targets}) > 1
        ns += len({w.n for w in targets}) > 1
    assert hits, "no candidate met a target in its orbit"
    assert bounds, "no stack mixed height bounds"
    assert ns, "no stack mixed values of n"


def test_stack_rejects_a_target_of_the_other_parity():
    v, w = Vertex.make(2, 0, ()), Vertex.make(1, 0, ())
    bottom = bottom_kernels(ALG5, [v], 2, [[2]])[0]
    with pytest.raises(AssertionError, match="parities"):
        hom_stack(ALG5, [(v, [v, w], bottom)])


def test_stack_rejects_a_target_outside_its_level():
    """A target farther from the base vertex than the bottom kernels'
    bound n, whose Toeplitz band would not fit, a pair with d_v + d_w
    above twice their height D, whose solutions may need a column they
    leave out, and stacks whose bottom kernels come from two
    bottom_kernels calls, whose row indices point into different arrays,
    are refused; a target that is not a source of the call is solved."""
    v, w, u = (Vertex.make(2, 0, ()), Vertex.make(2, 1, (4,)),
               Vertex.make(4, 0, ()))
    bottom = bottom_kernels(ALG5, [v], 2, [[2]])[0]
    assert hom_stack(ALG5, [(v, [w], bottom)])[0].dims == [1]
    with pytest.raises(AssertionError, match="target farther than"):
        hom_stack(ALG5, [(v, [v, u], bottom)])
    low = bottom_kernels(ALG5, [v], 2, [[2]], 1)[0]
    with pytest.raises(AssertionError, match="beyond its bottom kernels' "
                       "height"):
        hom_stack(ALG5, [(v, [w], low)])
    other = bottom_kernels(ALG5, [v], 2, [[2]])[0]
    with pytest.raises(AssertionError, match="two bottom_kernels calls"):
        hom_stack(ALG5, [(v, [v], bottom), (v, [v], other)])
    with pytest.raises(AssertionError, match="below a source's bound"):
        bottom_kernels(ALG5, [v, Vertex.make(4, 0, ())], 2, [[2], []])


def reference_system(alg, v, w, widths, prec):
    """The equations of Hom(v, w) from Mat2 products: row (rho, t), column
    (k, j), j < widths[k], holds the pi^(j - t) coefficient of entry rho
    of pi^s * Mw^(-1) * iota(b_k) * Mv, s = (n_w - n_v)/2, for t = 1, 2,
    ... down to the lowest exponent any lam_k * T^j can reach; zero rows
    dropped."""
    F = alg.F
    left = scale(inv(vertex_matrix(F, w)),
                 pi_power(F, (w.n - v.n) // 2, INF))
    Ys = [left * B * vertex_matrix(F, v)
          for B in alg.basis_embedding(prec)]
    top = max(widths) - 1
    low = min(x.val for Y in Ys for x in Y.entries() if x.coeffs) - top
    rows = [[Y.entries()[rho].coeff(j - t) for Y, c in zip(Ys, widths)
             for j in range(c)]
            for rho in range(4) for t in range(1, top - low + 1)]
    A = np.array(rows, dtype=np.int64)
    return A[A.any(axis=1)]


def full_width(basis, widths, top):
    """Each vector of basis, on the columns of widths, spread onto the
    columns j <= top of every coordinate, zero on the others."""
    ends = list(itertools.accumulate(widths))
    return [tuple(x for c, e in zip(widths, ends)
                  for x in (*b[e - c:e], *(0,) * (top + 1 - c)))
            for b in basis]


def oracle_vertices(q):
    """Vertices of both parities, n of both signs, g zero and nonzero,
    and g with every digit q - 1, the largest code of the F_q products
    of the system build.  (8; 0) with deg_n(g) = 8, the largest distance
    to the base vertex of its parity, reaches the bound of hom_stack's
    identity."""
    top = q - 1
    return [BASE_VERTEX, Vertex.make(2, 0, ()), Vertex.make(-2, 0, ()),
            Vertex.make(2, 1, (1,)), Vertex.make(-2, -5, (top,) * 3),
            Vertex.make(4, -2, (top,) * 6), Vertex.make(6, 0, (top,) * 6),
            Vertex.make(8, 0, (top,) * 8),
            Vertex.make(1, 0, ()), Vertex.make(-1, -4, (top, 0, 2 % q)),
            Vertex.make(5, -1, (top,) * 6), Vertex.make(3, -3, (top,) * 6)]


def wider_basis(monkeypatch, alg):
    """Make the system build of alg read a basis embedded at 4 times the
    precision it asks for."""
    real = alg.basis_entries
    monkeypatch.setattr(alg, "basis_entries", lambda prec: real(4 * prec))


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49, 125, 127])
def test_system_stack_matches_mat2_reference(monkeypatch, q):
    """Each system of a stack, built as hom_stack builds it (at the
    precision the level builder computes), is the one built from a basis
    embedded at 4 times that precision, and has the nonzero equations
    and the kernel basis of the Mat2 reference, for every source against
    every vertex of its parity.  On the columns j <= n + m of every
    coordinate, the reference has the same kernel basis, zero on the
    columns past n + o_k: no solution needs a column the build leaves
    out.  Some system reads C's deepest row: n_w - gval = n, the row n +
    1 - deg_n(g_w) = 1 (see hom_stack)."""
    alg = build_algebra(field(q), [(0, 1), (1, 1)])
    F, vs = alg.F, oracle_vertices(q)
    systems = deepest = 0
    for v in vs:
        ws = [w for w in vs if (w.n - v.n) % 2 == 0]
        n = max(u.dist_to_base() for u in ws)
        nm, widths = n + alg.m, _widths(alg, n)
        stack = system_stack(alg, v, ws, n)
        with monkeypatch.context() as mp:
            wider_basis(mp, alg)
            assert np.array_equal(system_stack(alg, v, ws, n), stack), v
        ncols = sum(widths)
        for A, w, basis in zip(stack, ws, kernel_basis(F, stack, ncols)):
            ref, wide = (retry_with_precision(functools.partial(
                reference_system, alg, v, w, c), 4 * nm)
                for c in (widths, (nm + 1,) * 4))
            assert np.array_equal(A[A.any(axis=1)], ref), (v, w)
            assert basis == kernel_of_one(F, ref, ncols), (v, w)
            assert full_width(basis, widths, nm) == \
                kernel_of_one(F, wide, 4 * (nm + 1)), (v, w)
            systems += 1
            deepest += bool(w.gcoeffs) and w.degn() == n
    assert systems == sum(sum((w.n - v.n) % 2 == 0 for w in vs) for v in vs)
    assert deepest, "no system reads C's deepest row"


def stack_bases(alg, stacks):
    """The bases of one hom_stack call on stacks: per stack, per target."""
    return [[homs[k].basis for k in range(len(homs.targets))]
            for homs in hom_stack(alg, stacks)]


def one_stage(alg, v, targets):
    """The bases of hom_stack on the stack (v, targets, bottom) from one
    elimination of each target's whole system (system_stack), top and
    bottom rows together, at the stack's own largest distance to the
    base vertex."""
    widths = _widths(alg, max(u.dist_to_base() for u in (v, *targets)))
    stack = system_stack(alg, v, targets, widths[0] - 1)
    return [tuple(_vector_to_quat(x, widths) for x in vecs)
            for vecs in kernel_basis(alg.F, stack, sum(widths))]


ALG9 = build_algebra(field(9), [parse_poly(field(9), t)
                                for t in ("T", "T+1", "T+2", "T+[0,1]")])


def level_bottoms(alg, level):
    """bottom_kernels for a level, at its largest distance to the base
    vertex, each source against all of the level's values of n."""
    return bottom_kernels(alg, level, max(u.dist_to_base() for u in level),
                          [sorted({u.n for u in level})] * len(level))


@pytest.mark.parametrize("q", [5, 9])
def test_two_stage_solve_matches_one_stage(q):
    """hom_stack's bases, with its bottom kernels computed for a level of
    the stack alone (its source and targets) or for a whole level of
    candidates (a larger height bound when a far candidate is in the
    level), equal the one-stage solve's, on
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
                [sorted({w.n for w in targets})])[0]
            for bottom in (own, bottoms[v]):
                assert stack_bases(alg, [(v, targets, bottom)]) == [want]
            dims.update(len(b) for b in want)
            groups[len({w.n for w in targets})] += 1
            bounds[bottoms[v][0] > max(w.dist_to_base()
                                       for w in targets)] += 1
    assert {1, 2} <= set(dims), dims
    assert groups[2], "no stack mixed values of n"
    assert bounds[True], "no level bound above a stack's own"


def recorded_search(monkeypatch, case):
    """The algebra of a golden case, its graph, and the bottom_kernels
    and hom_stack calls of its compute_quotient: per level (the
    candidates at one distance from the initial vertex), per
    bottom_kernels call, (sources, n, ns, entries); per hom_stack call
    its stacks (v, targets, bottom) and their bases."""
    alg = case_algebra(case)
    batches, calls = [], []

    def batch(alg, sources, n, ns):
        out = bottom_kernels(alg, sources, n, ns)
        batches.append((list(sources), n, [list(x) for x in ns], out))
        return out

    def stack(alg, stacks):
        out = hom_stack(alg, stacks)
        calls.append(([(v, list(t), b) for v, t, b in stacks],
                      [[homs[k].basis for k in range(len(homs.targets))]
                       for homs in out]))
        return out
    monkeypatch.setattr(quotient, "bottom_kernels", batch)
    monkeypatch.setattr(quotient, "hom_stack", stack)
    G = quotient.compute_quotient(alg)

    def level(b):
        (d,) = {distance(G.vertices[0], v) for v in b[0]}
        return d
    levels = [list(run) for _, run in itertools.groupby(batches, key=level)]
    assert len({level(run[0]) for run in levels}) == len(levels), \
        "the batches of a level are not consecutive"
    return alg, G, levels, calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_search_level_has_one_parity_of_n(monkeypatch, case):
    """The tree is bipartite and a vertex's distance to the base vertex
    has the parity of its n, so each level of the search, a set of
    vertices at one distance from the initial one, has one parity of n;
    every batch of it is asked for at the level's largest distance, and
    each candidate for the values of n of itself and the earlier
    candidates of the level, the only targets its stack can hold."""
    _, _, levels, calls = recorded_search(monkeypatch, case)
    assert levels and sum(len(sources) for batches in levels
                          for sources, *_ in batches) == \
        sum(len(stacks) for stacks, _ in calls)
    for batches in levels:
        sources = [v for batch, *_ in batches for v in batch]
        ns = [x for _, _, xs, _ in batches for x in xs]
        assert len({v.n % 2 for v in sources}) == 1, (case, sources)
        assert {n for _, n, _, _ in batches} == \
            {max(v.dist_to_base() for v in sources)}
        assert ns == [sorted({v.n for v in sources[:i + 1]})
                      for i in range(len(sources))]


@pytest.mark.parametrize("case", sorted(CASES))
def test_search_level_kernels_solve_as_one_stage(monkeypatch, case):
    """Every stack of the search, solved in its sibling group's call with
    its level's bottom kernels, has the bases of the same stack solved
    alone and the one-stage bases.  The worked example starts at (1; 0),
    so its first level holds the base vertex and vertices two steps from
    it, and its first stack is solved above its own height bound."""
    alg, _, _, calls = recorded_search(monkeypatch, case)
    above = grouped = 0
    for stacks, bases in calls:
        for (v, targets, bottom), got in zip(stacks, bases):
            assert stack_bases(alg, [(v, targets, bottom)]) == [got]
            assert got == one_stage(alg, v, targets), (v, targets)
            above += bottom[0] > max(u.dist_to_base()
                                     for u in (v, *targets))
        grouped += len(stacks) > 1
    assert above or case != "q5-worked"
    assert grouped, "no call solved a sibling group of several stacks"


@pytest.mark.parametrize("chunk", [2, 5])
@pytest.mark.parametrize("case", ["q5-worked", "q7-deg4", "q9-deg4"])
def test_search_batches_whole_sibling_groups(monkeypatch, case, chunk):
    """With _CHUNK set to chunk, the search builds stage 1 for batches of
    whole sibling groups (the sources of one hom_stack call), each
    closed by the group that brings it to at least chunk candidates or
    by the last group of its level; every hom_stack call solves on the
    entries of one bottom_kernels call, each stack on its source's
    entry; and the graph is the golden one."""
    monkeypatch.setattr(quotient, "_CHUNK", chunk)
    _, G, levels, calls = recorded_search(monkeypatch, case)
    assert graph_to_json(G) == (GOLDEN / f"{case}.json").read_text()
    groups = iter(calls)
    sizes = Counter()
    for batches in levels:
        for k, (sources, _, _, entries) in enumerate(batches):
            assert len(sources) >= chunk or k + 1 == len(batches)
            at = {v: i for i, v in enumerate(sources)}
            held = []
            while len(held) < len(sources):
                stacks, _ = next(groups)
                held += [v for v, _, _ in stacks]
                assert all(bottom is entries[at[v]]
                           for v, _, bottom in stacks)
                sizes["groups"] += 1
            assert held == sources
            # closed by its last group, not later
            assert len(held) - len(stacks) < chunk
            sizes["batches"] += 1
            sizes["levels split"] += k == 1
    assert next(groups, None) is None
    # chunk 2 splits a level into batches, chunk 5 joins groups in one
    assert sizes["levels split"] if chunk == 2 else \
        sizes["groups"] > sizes["batches"], sizes


def test_bottom_kernels_reject_the_other_parity():
    with pytest.raises(AssertionError, match="parities"):
        bottom_kernels(ALG5, [Vertex.make(2, 0, ())], 2, [[1, 2]])
    with pytest.raises(AssertionError, match="parities"):
        bottom_kernels(ALG5, [BASE_VERTEX, Vertex.make(1, 0, ())], 1,
                       [[0], [0]])


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
            assert stack_bases(alg, [(v, level, bottom)]) == \
                [one_stage(alg, v, level)], v


# ---------------------------------------------------------------------------
# act retried from below what it needs, and the computed precisions of
# transport and of the hom systems
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


V = Vertex.make(12, 1, (1, 0, 3, 2))
W = Vertex.make(12, 0, (2, 1, 4))


class TestPrecisionRetry:
    FAR = Vertex.make(20, -6, (1, 0, 3, 2))

    def test_act_of_embedding_retries_then_agrees(self):
        g = hom(ALG5, Vertex.make(2, 0, ()), Vertex.make(2, 1, (4,))).basis[0]
        attempt, raised = counting(
            lambda prec: act(ALG5.embed(g, prec), self.FAR))
        got = retry_with_precision(attempt, 1)
        assert raised, "the low start never ran out of precision"
        assert got == transport(ALG5, g, self.FAR)
        assert got == act(ALG5.embed(g, 256), self.FAR)


def truncating(alg, real, drop=0, precs=None):
    """real, alg's embed_packed, with each sum cut to its digits below
    prec - drop for a request at prec, each prec recorded in precs.
    embed_packed rounds its basis up, so the real sums know more: the
    cut keeps transport from reading digits its bound does not grant."""
    def embed_packed(x, prec, gs=()):
        if precs is not None:
            precs.append(prec)
        w, sums, Gs = real(x, prec, gs)
        bits, cut = 8 * w * alg.F.fold.shape[1], prec - drop
        return w, [(o, min(p, cut), S & (1 << bits * max(0, cut - o)) - 1)
                   for o, p, S in sums], Gs
    return embed_packed


def embedding(alg, embed_packed, x, prec):
    """iota(x) from the sums of embed_packed, as AlgebraData.embed."""
    w, sums, _ = embed_packed(x, prec)
    return Mat2(*from_packed(alg.F, sums, w))


def transport_pairs(case):
    """The algebra of a golden case, and (unit, vertex) pairs: every
    pairing unit and End basis element on its own vertex, and it and its
    cube on seeded vertices with negative gval and n of both signs."""
    alg = case_algebra(case)
    G = graph_from_json((GOLDEN / f"{case}.json").read_text(), alg)
    pairs = [(G.edges[k].elem, G.edges[k].direction) for k in G.pairings]
    pairs += [(b, G.vertices[i]) for i, bs in G.end_basis.items()
              for b in bs]
    rng = random.Random(case)
    for g, _ in list(pairs):
        # g and its cube, of three times its height
        for x, n in itertools.product((g, alg.power(g, 3)),
                                      (rng.randint(-8, -1),
                                       rng.randint(0, 8))):
            gval = rng.randint(min(n, 0) - 12, min(n, 0) - 1)
            pairs.append((x, Vertex.make(n, gval, [
                rng.randrange(1, alg.F.q)
                for _ in range(rng.randint(1, n - gval))])))
    assert any(v.n < 0 for _, v in pairs) and \
        any(v.gval < 0 < v.n for _, v in pairs)
    return alg, pairs


KHAT = QuatElem(((), (), (), (1,)))


class TestComputedPrecision:
    """The system build reads the basis at the precision it computes, the
    least that knows every coefficient its equations read: a basis
    embedded at 4 times that precision gives the same systems, and one
    known below it is refused.  transport takes one packed embedding, at
    the precision P its docstring proves enough, refuses a P above the
    cap, and takes a pivot running short at P for a broken bound."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_transport_agrees_with_a_wider_embedding(self, monkeypatch,
                                                     case):
        alg, pairs = transport_pairs(case)
        real, precs = alg.embed_packed, []
        monkeypatch.setattr(alg, "embed_packed",
                            truncating(alg, real, 0, precs))
        for g, v in pairs:
            got = transport(alg, g, v)
            (prec,) = precs
            precs.clear()
            assert got == act(embedding(alg, real, g, 4 * prec), v), (g, v)

    def test_transport_short_of_its_precision_raises(self, monkeypatch):
        # khat at the base vertex over q = 3: h = 0, beta = max(m, deg r)
        # = 2 and k = 0, so P = 2 + max(0, 0 + 1) = 3.  The pivot still
        # has what it needs at P - 2, not at P - 3
        real, precs = ALG3.embed_packed, []
        monkeypatch.setattr(ALG3, "embed_packed",
                            truncating(ALG3, real, 0, precs))
        want = transport(ALG3, KHAT, BASE_VERTEX)
        assert precs == [3]
        for drop, short in ((2, False), (3, True)):
            monkeypatch.setattr(ALG3, "embed_packed",
                                truncating(ALG3, real, drop))
            if short:
                with pytest.raises(AssertionError, match="short of"):
                    transport(ALG3, KHAT, BASE_VERTEX)
            else:
                assert transport(ALG3, KHAT, BASE_VERTEX) == want

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_transport_short_of_digits_refuses_or_is_right(self,
                                                           monkeypatch,
                                                           case):
        """With every sum cut below P - drop, transport gives g . v until
        the first drop it refuses: no column is read past the digits its
        sums know, g_v's valuation counted (a label above them reads a
        cut digit)."""
        alg, pairs = transport_pairs(case)
        real, precs, refused = alg.embed_packed, [], 0
        for g, v in pairs:
            monkeypatch.setattr(alg, "embed_packed",
                                truncating(alg, real, 0, precs))
            want = transport(alg, g, v)
            for drop in range(1, precs.pop() + 1):
                monkeypatch.setattr(alg, "embed_packed",
                                    truncating(alg, real, drop))
                try:
                    got = transport(alg, g, v)
                except AssertionError as e:
                    assert "short of" in str(e)
                    refused += 1
                    break
                else:
                    assert got == want, (g, v, drop)
        assert refused

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_transport_is_one_packed_pass(self, monkeypatch, case):
        """transport forms the pivot column from the packed embedding and
        divides on its codes: no Laurent embedding, series product or
        series inverse (each vertex transported twice, so that the second
        finds the basis of its precision memoized)."""
        alg, units = golden_units(case)
        calls = Counter()

        def spy(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped
        monkeypatch.setattr(AlgebraData, "embed",
                            spy("embed", AlgebraData.embed))
        monkeypatch.setattr(Laurent, "__mul__",
                            spy("mul", Laurent.__mul__))
        monkeypatch.setattr(Laurent, "inv", spy("inv", Laurent.inv))
        rng = random.Random(case)
        for g in units:
            for n in (rng.randint(-8, -1), rng.randint(0, 8)):
                gval = rng.randint(min(n, 0) - 12, n - 1)
                # a nonzero first digit: g_v != 0
                v = Vertex.make(n, gval, [rng.randrange(1, alg.F.q)] + [
                    rng.randrange(alg.F.q)
                    for _ in range(rng.randint(0, n - gval - 1))])
                want = transport(alg, g, v)
                calls.clear()
                assert transport(alg, g, v) == want
                assert calls == Counter(), (g, v)

    def test_a_computed_precision_above_the_cap_raises(self):
        F, primes = ALG3.F, ALG3.ram.primes
        alg = build_algebra(F, primes, precision_cap=2)
        with pytest.raises(InsufficientPrecisionError, match="^transport "
                           "needs precision 3, above the cap 2$"):
            transport(alg, KHAT, BASE_VERTEX)
        assert transport(build_algebra(F, primes, precision_cap=3), KHAT,
                         BASE_VERTEX) == transport(ALG3, KHAT, BASE_VERTEX)
        with pytest.raises(InsufficientPrecisionError,
                           match="^hom system needs precision"):
            hom(alg, V, W)

    def test_hom_system_agrees_with_a_wider_basis(self, monkeypatch):
        n = max(V.dist_to_base(), W.dist_to_base())
        got = system_stack(ALG5, V, [W], n)
        wider_basis(monkeypatch, ALG5)
        wide = system_stack(ALG5, V, [W], n)
        assert np.array_equal(got, wide)
        ncols = sum(_widths(ALG5, n))
        assert kernel_basis(ALG5.F, got, ncols) == \
            kernel_basis(ALG5.F, wide, ncols)

    def test_stacked_system_agrees_with_a_wider_basis(self, monkeypatch):
        # End(V) and targets of one height bound, built as one stack
        ws = [V, W, Vertex.make(12, 1, (3, 0, 3, 2)),
              Vertex.make(10, 0, (1, 1))]
        n = max(u.dist_to_base() for u in ws)
        assert all(max(V.dist_to_base(), u.dist_to_base()) == n
                   for u in ws)
        dims = [hom(ALG5, V, u).dim for u in ws]
        got = system_stack(ALG5, V, ws, n)
        wider_basis(monkeypatch, ALG5)
        wide = system_stack(ALG5, V, ws, n)
        assert np.array_equal(got, wide)
        ncols = sum(_widths(ALG5, n))
        bases = kernel_basis(ALG5.F, got, ncols)
        assert bases == kernel_basis(ALG5.F, wide, ncols)
        assert [len(b) for b in bases] == dims

    def test_level_build_agrees_with_a_wider_basis(self, monkeypatch):
        level = [V, W, Vertex.make(10, 0, (1, 1))]
        ns = [sorted({u.n for u in level[:i + 1]})
              for i in range(len(level))]
        n = max(u.dist_to_base() for u in level)
        want = [hom(ALG5, W, u).basis for u in level[:2]]
        got = bottom_kernels(ALG5, level, n, ns)
        wider_basis(monkeypatch, ALG5)
        wide = bottom_kernels(ALG5, level, n, ns)
        for (*_, x, xs), (*_, y, ys) in zip(got, wide):
            assert x == y
            assert all(np.array_equal(a, b) for a, b in zip(xs, ys))
        assert stack_bases(ALG5, [(W, level[:2], wide[1])]) == [want]

    def test_basis_short_of_the_precision_raises(self, monkeypatch):
        # End(V) reads a, b, c, d below pi^(n + m + n) = pi^26; the basis
        # embedded at 4 is known below pi^16 only
        real = ALG5.basis_entries
        assert min(e.prec for row in real(4) for e in row) < 26
        monkeypatch.setattr(ALG5, "basis_entries", lambda prec: real(4))
        with pytest.raises(AssertionError, match="short of"):
            bottom_kernels(ALG5, [V], 12, [[12]])
        with pytest.raises(AssertionError, match="short of"):
            hom(ALG5, V, W)
