"""Tests for the quotient graph, reduction, presentation, word problem.

Reference points: the two-vertex degenerate domain at q=3, the twelve
vertex domain for q=5 with four linear ramified primes (eight terminal
vertices, five paired edges), and the closed-form vertex/edge counts,
all cross-checked against the hom-space solver and exact arithmetic.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btquot import quotient
from btquot.algebra import _prime_divisors, field, parse_poly
from btquot.homspace import HomSet, hom, transport_all
from btquot.quaternion import QUAT_ONE, QuatElem, build_algebra, height
from btquot.quotient import (Presentation, QuotientGraph, Word,
                             compute_quotient, diameter_bound, evaluate_word,
                             express_in_generators, graph_diameter,
                             predicted_invariants, presentation, reduce,
                             transport, two_cycle_counts,
                             verify_structure)
from btquot.tree import BASE_VERTEX, Vertex, distance, neighbors, parse_vertex

F3 = field(3)
F5 = field(5)
F7 = field(7)

ALG3 = build_algebra(F3, [(0, 1), (1, 1)])          # degenerate domain
ALG3B = build_algebra(F3, [(0, 1), (1, 0, 1)])      # T, T^2+1
ALG5 = build_algebra(F5, [(0, 1), (1, 1), (2, 1), (3, 1)])

G3 = compute_quotient(ALG3)
G3B = compute_quotient(ALG3B)
G5 = compute_quotient(ALG5)

PRES3 = presentation(G3)
PRES3B = presentation(G3B)
PRES5 = presentation(G5)

# eight terminal vertices each; q=9 puts F_81 over a non-prime F_9
G7 = compute_quotient(build_algebra(F7, [(0, 1), (1, 1), (2, 1), (3, 1)]))
F9 = field(9)
G9 = compute_quotient(build_algebra(
    F9, [parse_poly(F9, t) for t in ("T", "T+1", "T+2", "T+[0,1]")]))


def _multiplicative_order_is(alg, x, n):
    return (alg.power(x, n) == QUAT_ONE
            and all(alg.power(x, n // d) != QUAT_ONE
                    for d in _prime_divisors(n)))


def random_unit(alg, pres, rng, max_letters=6):
    gens = [g for _, g in pres.generator_items()]
    out = QUAT_ONE
    for _ in range(rng.randrange(max_letters + 1)):
        g = rng.choice(gens)
        if rng.random() < 0.5:
            g = alg.inverse_unit(g)
        out = alg.mul(out, g)
    return out


class TestPredictedInvariants:
    # (q, primes, odd, genus, terminal, internal)
    TABLE = [
        (3, ["T", "T+1"], 1, 0, 2, 0),
        (3, ["T", "T^2+1"], 0, 3, 0, 2),
        (5, ["T", "T+1", "T+2", "T+3"], 1, 5, 8, 4),
        (5, ["T^2+T+1", "T", "T+1", "T+2"], 0, 65, 0, 32),
        (5, ["T^2+2", "T", "T+1", "T+2"], 0, 65, 0, 32),
        (7, ["T", "T+1"], 1, 0, 2, 0),
    ]

    @pytest.mark.parametrize("q,primes,odd,genus,term,internal", TABLE)
    def test_known_values(self, q, primes, odd, genus, term, internal):
        F = field(q)
        alg = build_algebra(F, [parse_poly(F, t) for t in primes])
        pred = predicted_invariants(alg)
        assert pred.odd_mass == odd
        assert pred.genus == genus
        assert pred.terminal_count == term
        assert pred.internal_count == internal

    def test_counts_are_certified_integral(self):
        # the Fraction arithmetic inside must never truncate: recompute
        # the q=5 example by hand
        from fractions import Fraction
        q = 5
        prod = (q - 1) ** 4
        genus = 1 + Fraction(prod, q * q - 1) - Fraction(q, q + 1) * 8
        assert genus == 5


class TestDegenerateDomain:
    def test_two_vertices(self):
        assert len(G3.vertices) == 2
        assert G3.vertices[0] == BASE_VERTEX
        assert G3.vertices[1] == Vertex.make(1, 0, ())
        assert G3.stable == [False, False]
        assert not G3.pairings
        assert len(G3.edges) == 2
        assert G3.degree(0) == G3.degree(1) == 1

    def test_both_vertices_carry_end_bases(self):
        assert set(G3.end_basis) == {0, 1}
        assert all(len(b) == 2 for b in G3.end_basis.values())

    def test_verify_structure_passes(self):
        rep = verify_structure(ALG3, G3)
        assert rep.passed
        assert rep.vertex_count == 2
        assert rep.paired_count == 0
        assert rep.two_cycle_pairs == 0

    def test_presentation_shape(self):
        names = [n for n, _ in PRES3.generator_items()]
        assert names == ["g0", "gv1", "gv2"]
        assert PRES3.relation_strings() == [
            "g0^2 = 1", "gv1^4 = g0", "gv2^4 = g0"]

    def test_same_shape_at_q7(self):
        alg = build_algebra(F7, [(0, 1), (1, 1)])
        G = compute_quotient(alg)
        assert len(G.vertices) == 2
        assert G.stable == [False, False]
        assert verify_structure(alg, G).passed


class TestWorkedExample:
    def test_counts(self):
        assert len(G5.vertices) == 12
        assert len(G5.terminal_ids()) == 8
        assert sum(G5.stable) == 4
        assert len(G5.pairings) == 5
        assert len(G5.edges) == 32
        assert G5.levels == 3

    def test_initial_vertex(self):
        # the base vertex has a two-dimensional endomorphism space, so
        # the search starts one step up
        assert G5.vertices[0] == Vertex.make(1, 0, ())
        assert G5.stable[0]
        # the base vertex itself is a terminal vertex of the domain
        i = G5.vid[BASE_VERTEX]
        assert not G5.stable[i]

    def test_degrees(self):
        for i in range(12):
            assert G5.degree(i) == (6 if G5.stable[i] else 1)

    def test_no_loops_no_stray_kinds(self):
        assert all(e.src != e.dst for e in G5.edges)
        kinds = {e.kind for e in G5.edges}
        assert kinds == {"tree", "opposite", "pairing", "pairing_opposite"}

    def test_verify_structure(self):
        rep = verify_structure(ALG5, G5)
        assert rep.passed
        assert rep.predicted.genus == 5
        assert rep.undirected_edge_count == 16

    def test_diameter_independent_bfs(self):
        # Floyd-Warshall over the undirected adjacency as a second opinion
        n = len(G5.vertices)
        INFTY = 99
        dist = [[0 if i == j else INFTY for j in range(n)] for i in range(n)]
        for e in G5.edges:
            dist[e.src][e.dst] = 1
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    d = dist[i][k] + dist[k][j]
                    if d < dist[i][j]:
                        dist[i][j] = d
        diam = max(max(row) for row in dist)
        assert diam == graph_diameter(G5)
        assert diam <= diameter_bound(5, 4)


class TestGraphWellFormedness:
    @pytest.mark.parametrize("G", [G3, G3B, G5], ids=["g3", "g3b", "g5"])
    def test_opposite_edges_share_index(self, G):
        directed = {(e.src, e.dst, e.index) for e in G.edges}
        assert len(directed) == len(G.edges)
        for e in G.edges:
            assert (e.dst, e.src, e.index) in directed

    @pytest.mark.parametrize("G", [G3, G3B, G5], ids=["g3", "g3b", "g5"])
    def test_spanning_tree_realized(self, G):
        tree_edges = [e for e in G.edges if e.kind == "tree"]
        assert len(tree_edges) == len(G.vertices) - 1
        F = G.alg.F
        for e in tree_edges:
            assert distance(G.vertices[e.src], G.vertices[e.dst]) == 1
            assert e.direction == G.vertices[e.dst]
        # connectivity of the tree edges alone
        seen = {0}
        frontier = [0]
        adj = {}
        for e in tree_edges:
            adj.setdefault(e.src, []).append(e.dst)
            adj.setdefault(e.dst, []).append(e.src)
        while frontier:
            x = frontier.pop()
            for y in adj.get(x, []):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        assert seen == set(range(len(G.vertices)))

    @pytest.mark.parametrize("G", [G3B, G5], ids=["g3b", "g5"])
    def test_pairing_labels_transport_correctly(self, G):
        alg = G.alg
        F = alg.F
        for k in G.pairings:
            e = G.edges[k]
            assert alg.is_unit(e.elem)
            # the candidate hangs off the source vertex
            assert distance(G.vertices[e.src], e.direction) == 1
            assert e.direction not in G.vid
            assert transport(alg, e.elem, e.direction) == G.vertices[e.dst]

    @pytest.mark.parametrize("G", [G3B, G5], ids=["g3b", "g5"])
    def test_directions_exhaust_tree_neighbors(self, G):
        F = G.alg.F
        for i, v in enumerate(G.vertices):
            dirs = [G.edges[k].direction for k in G.out_edges[i]]
            assert len(set(dirs)) == len(dirs)
            if G.stable[i]:
                assert set(dirs) == set(neighbors(F, v))

    @pytest.mark.parametrize("G", [G3, G3B, G5], ids=["g3", "g3b", "g5"])
    def test_labels_pairwise_inequivalent(self, G):
        alg = G.alg
        F = alg.F
        vs = G.vertices
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                if (distance(vs[i], BASE_VERTEX)
                        - distance(vs[j], BASE_VERTEX)) % 2:
                    continue
                assert hom(alg, vs[i], vs[j]).dim == 0

    def test_determinism(self):
        alg = build_algebra(F5, [(0, 1), (1, 1), (2, 1), (3, 1)])
        H = compute_quotient(alg)
        assert H.vertices == G5.vertices
        assert H.edges == G5.edges
        assert H.end_basis == G5.end_basis
        assert H.pairings == G5.pairings
        pres = presentation(H)
        assert pres == PRES5


class TestBuilders:
    """The builders assert the rules of the construction, for computed
    and loaded graphs alike."""

    def test_end_basis_not_of_the_solver_shape_rejected(self):
        i = G5.terminal_ids()[0]
        b1, b2 = G5.end_basis[i]
        QuotientGraph(ALG5)._add_vertex(G5.vertices[i], [b1, b2])
        for basis in ([b2, b1], [b1, b1], [QUAT_ONE, QUAT_ONE], [b1],
                      [], [b1, b2, b1]):
            with pytest.raises(AssertionError, match="echelon"):
                QuotientGraph(ALG5)._add_vertex(G5.vertices[i], basis)

    def test_end_basis_of_another_vertex_rejected(self):
        # of the solver's shape, and a unit, but it moves the vertex
        i, j = G5.terminal_ids()[:2]
        with pytest.raises(AssertionError, match="does not map source"):
            QuotientGraph(ALG5)._add_vertex(G5.vertices[i], G5.end_basis[j])

    def test_search_checks_every_end_basis_it_keeps(self, monkeypatch):
        """compute_quotient keeps an unstable candidate's End basis only
        through _add_vertex, which checks each element: an End basis of
        another terminal vertex in the stack's answer fails there."""
        ends = {G5.vertices[i]: G5.end_basis[i] for i in G5.terminal_ids()}
        solve, swapped = quotient.hom_stack, []

        def stack(alg, v, targets, bottom):
            homs = solve(alg, v, targets, bottom)
            if homs[0].dim == 2:
                swapped.append(v)
                homs[0] = HomSet(alg.F, v, v, next(
                    b for u, b in ends.items() if u != v))
            return homs
        monkeypatch.setattr(quotient, "hom_stack", stack)
        with pytest.raises(AssertionError,
                           match="does not map source") as exc:
            compute_quotient(ALG5)
        assert len(swapped) == 1
        assert exc.traceback[-2].name == "_add_vertex"

    def test_tree_pair_between_non_neighbours_rejected(self):
        G = QuotientGraph(ALG5)
        G._add_vertex(BASE_VERTEX, None)
        G._add_vertex(Vertex.make(2, 0, ()), None)
        with pytest.raises(AssertionError, match="not tree neighbours"):
            G._add_tree_pair(0, 1)
        assert not G.edges

    @staticmethod
    def _pairing_endpoints():
        """The worked example's first pairing edge e, and a graph holding
        the labels of its endpoints as vertices 0 and 1."""
        e = G5.edges[G5.pairings[0]]
        G = QuotientGraph(ALG5)
        G._add_vertex(G5.vertices[e.src], None)
        G._add_vertex(G5.vertices[e.dst], None)
        return G, e

    def test_pairing_unit_not_mapping_the_candidate_rejected(self):
        G, e = self._pairing_endpoints()
        # a scalar unit fixes every vertex, the candidate included
        with pytest.raises(AssertionError, match="does not map source"):
            G._add_pairing(0, 1, e.direction, QuatElem(((2,), (), (), ())))
        assert not G.edges
        assert G._add_pairing(0, 1, e.direction, e.elem) \
            == G5.edges[G5.pairings[0] + 1].direction

    def test_pairing_candidate_not_next_to_its_source_rejected(self):
        # maps onto the target label, from three steps off the source
        G, e = self._pairing_endpoints()
        u = PRES5.vertex_gens[0][1]
        far = transport(ALG5, u, e.direction)
        assert distance(far, G.vertices[0]) == 3
        g = ALG5.mul(e.elem, ALG5.inverse_unit(u))
        assert transport(ALG5, g, far) == G.vertices[1]
        with pytest.raises(AssertionError, match="not tree neighbours"):
            G._add_pairing(0, 1, far, g)


class TestReduce:
    @pytest.mark.parametrize("G", [G3, G3B, G5], ids=["g3", "g3b", "g5"])
    def test_domain_vertices_reduce_to_themselves(self, G):
        for v in G.vertices:
            w, g = reduce(G, v)
            assert w == v
            assert g == QUAT_ONE

    @pytest.mark.parametrize("G", [G3, G3B, G5], ids=["g3", "g3b", "g5"])
    def test_complete_on_all_tree_neighbors(self, G):
        # every tree neighbor of a domain vertex reduces into the domain
        F = G.alg.F
        for v in G.vertices:
            for u in neighbors(F, v):
                w, g = reduce(G, u)   # internal transporter check
                assert w in G.vid

    @pytest.mark.parametrize("G,pres", [(G3, PRES3), (G5, PRES5)],
                             ids=["g3", "g5"])
    def test_random_translates_round_trip(self, G, pres):
        alg = G.alg
        rng = random.Random(20240811)
        for _ in range(15):
            gamma = random_unit(alg, pres, rng)
            w0 = rng.choice(G.vertices)
            v = transport(alg, gamma, w0)
            w, g = reduce(G, v)
            assert w in G.vid
            assert transport(alg, g, w) == v
            # the landing vertex is equivalent to the starting one
            assert w == w0 or hom(alg, w0, w).dim > 0

    def test_far_vertex(self):
        v = parse_vertex(F5, "(4; 2,1,3@1)")
        w, g = reduce(G5, v)
        assert w in G5.vid
        assert transport(ALG5, g, w) == v


class TestPresentation:
    @pytest.mark.parametrize("alg,G,pres", [
        (ALG3, G3, PRES3), (ALG3B, G3B, PRES3B), (ALG5, G5, PRES5)],
        ids=["g3", "g3b", "g5"])
    def test_relations_hold_exactly(self, alg, G, pres):
        q = alg.F.q
        assert alg.power(pres.g0, q - 1) == QUAT_ONE
        for k in range(1, q - 1):
            assert alg.power(pres.g0, k) != QUAT_ONE
        for _, gv in pres.vertex_gens:
            assert alg.power(gv, q + 1) == pres.g0
            assert alg.power(gv, q * q - 1) == QUAT_ONE
        for _, ge in pres.edge_gens:
            assert alg.mul(ge, pres.g0) == alg.mul(pres.g0, ge)

    def test_g0_is_canonical_primitive_scalar(self):
        assert PRES5.g0.lam == ((2,), (), (), ())
        assert PRES3.g0.lam == ((2,), (), (), ())

    def test_vertex_generator_orders_are_maximal(self):
        q = 5
        for _, gv in PRES5.vertex_gens:
            seen = set()
            acc = QUAT_ONE
            for _ in range(q * q - 1):
                acc = ALG5.mul(acc, gv)
                seen.add(acc)
            assert len(seen) == q * q - 1

    def test_order_test_matches_bruteforce_orders(self):
        for i in G5.terminal_ids():
            v = G5.vertices[i]
            ends = list(HomSet(F5, v, v, G5.end_basis[i]).elements())
            assert len(ends) == 24
            for x in ends:
                order, acc = 1, x
                while acc != QUAT_ONE:
                    acc = ALG5.mul(acc, x)
                    order += 1
                assert _multiplicative_order_is(ALG5, x, 24) == (order == 24)
                assert _multiplicative_order_is(ALG5, x, order)

    def test_worked_example_shape(self):
        names = [n for n, _ in PRES5.generator_items()]
        assert names == ["g0"] + [f"gv{i}" for i in range(1, 9)] \
            + [f"g{k}" for k in range(1, 6)]
        rels = PRES5.relation_strings()
        assert rels[0] == "g0^4 = 1"
        assert all(r == f"gv{i}^6 = g0" for i, r in enumerate(rels[1:9], 1))
        assert all(r == f"[g{k}, g0] = 1" for k, r in enumerate(rels[9:], 1))

    def test_edge_generators_match_pairings(self):
        assert len(PRES5.edge_gens) == 5
        for (k, g), kk in zip(PRES5.edge_gens, G5.pairings):
            assert k == kk
            assert g == G5.edges[kk].elem


class TestStabilizerField:
    """QuotientGraph.stabilizer against the enumeration of End(v) that
    presentation and the reduction walk used before: every terminal
    vertex of the degenerate q=3 domain, of q5-worked and of the q=7 and
    q=9 graphs on four linear primes (q3-deg3, R={T, T^2+1}, has no
    terminal vertex)."""

    GRAPHS = pytest.mark.parametrize("G", [G3, G5, G7, G9],
                                     ids=["g3", "g5", "g7", "g9"])

    @GRAPHS
    def test_generator_is_first_in_enumeration(self, G):
        alg, q = G.alg, G.q
        g0 = QuatElem(((alg.F.primitive_root(),), (), (), ()))
        for i in G.terminal_ids():
            v = G.vertices[i]
            expected = next(
                x for x in HomSet(alg.F, v, v, G.end_basis[i]).elements()
                if _multiplicative_order_is(alg, x, q * q - 1)
                and alg.power(x, q + 1) == g0)
            assert G.stabilizer(i).gen == expected

    @GRAPHS
    def test_log_matches_bruteforce_powers(self, G):
        alg, q = G.alg, G.q
        for i in G.terminal_ids():
            stab = G.stabilizer(i)
            acc = QUAT_ONE
            for s in range(q * q - 1):
                assert stab.log(acc) == s
                assert stab.power(s) == acc
                acc = alg.mul(acc, stab.gen)
            assert acc == QUAT_ONE

    @GRAPHS
    def test_rotation_is_first_element_onto_parent(self, G):
        alg = G.alg
        for i in G.terminal_ids():
            v = G.vertices[i]
            parent = G.edges[G.out_edges[i][0]].direction
            targets = [t for t in neighbors(alg.F, v) if t != parent]
            first = {}
            for x in HomSet(alg.F, v, v, G.end_basis[i]).elements():
                for t, image in zip(targets, transport_all(alg, x, targets)):
                    if image == parent:
                        first.setdefault(t, x)
                if len(first) == len(targets):
                    break
            stab = G.stabilizer(i)
            for t in targets:
                assert stab.power(stab.rotation(t, parent)) == first[t]

    def test_misses_raise_assertion_error(self):
        i = G5.terminal_ids()[0]
        stab = G5.stabilizer(i)
        far = Vertex.make(G5.vertices[i].n + 2, 0, ())
        parent = G5.edges[G5.out_edges[i][0]].direction
        with pytest.raises(AssertionError, match="no rotation onto"):
            stab.rotation(far, parent)
        for x in (QuatElem(((), (), (), ())), G5.edges[G5.pairings[0]].elem,
                  QuatElem(((0, 1), (), (), ()))):
            with pytest.raises(AssertionError, match="not a power"):
                stab.log(x)

    def test_built_once_per_vertex(self):
        i = G5.terminal_ids()[0]
        assert G5.stabilizer(i) is G5.stabilizer(i)


class TestWordProblem:
    def test_identity_is_empty_word(self):
        w = express_in_generators(G5, QUAT_ONE, PRES5)
        assert w.letters == ()
        assert str(w) == "1"

    def test_scalar_is_central_power(self):
        gamma = ALG5.power(PRES5.g0, 3)
        w = express_in_generators(G5, gamma, PRES5)
        assert w.letters == (("g0", 3),)

    def test_pairing_generator_expresses_as_itself(self):
        for k in range(1, 6):
            name = f"g{k}"
            gamma = dict(PRES5.generator_items())[name]
            w = express_in_generators(G5, gamma, PRES5)
            assert evaluate_word(ALG5, PRES5, w) == gamma

    def test_non_unit_rejected(self):
        from btquot.quaternion import QuatElem
        with pytest.raises(ValueError):
            express_in_generators(G5, QuatElem(((0, 1), (), (), ())), PRES5)

    @pytest.mark.parametrize("G,pres", [(G3, PRES3), (G3B, PRES3B),
                                        (G5, PRES5)],
                             ids=["g3", "g3b", "g5"])
    def test_random_words_round_trip(self, G, pres):
        alg = G.alg
        rng = random.Random(99)
        for _ in range(12):
            gamma = random_unit(alg, pres, rng)
            word = express_in_generators(G, gamma, pres)
            assert evaluate_word(alg, pres, word) == gamma

    def test_degenerate_domain_stabilizer_residual(self):
        # in the two-vertex domain the initial vertex has the large
        # stabilizer, so residuals are powers of its own generator
        d = dict(PRES3.generator_items())
        gamma = ALG3.mul(d["gv1"], ALG3.mul(d["gv2"], d["gv2"]))
        word = express_in_generators(G3, gamma, PRES3)
        assert evaluate_word(ALG3, PRES3, word) == gamma

    @given(st.lists(st.tuples(st.integers(0, 13), st.booleans()),
                    max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_word_evaluation_is_group_homomorphic(self, picks):
        gens = [g for _, g in PRES5.generator_items()]
        gamma = QUAT_ONE
        for i, inv in picks:
            g = gens[i]
            gamma = ALG5.mul(gamma, ALG5.inverse_unit(g) if inv else g)
        word = express_in_generators(G5, gamma, PRES5)
        assert evaluate_word(ALG5, PRES5, word) == gamma


class TestTwoCycles:
    def test_rotation_count_is_twice_pair_count(self):
        for G in (G3, G3B, G5):
            pairs, rot = two_cycle_counts(G)
            assert rot == 2 * pairs

    def test_worked_example_multiplicities(self):
        mult = G5.undirected_multiplicities()
        assert sum(mult.values()) == 16
        # three pairings join vertex 3's and vertex 2's side onto the
        # same internal vertex, producing parallel edges
        assert max(mult.values()) >= 2


def test_every_action_is_by_a_unit(monkeypatch):
    """tree.act assumes det iota(g) in F_q^*, which transport_all does
    not check: every production caller must pass a unit.  Each stage of
    the pipeline on the worked example runs with a transport_all that
    asserts it, and each but verify_structure (which reads the stored
    End bases and tables) is seen to transport at all.  graph_from_json
    transports only through the solution check of homspace.  Patching
    homspace alone suffices: quotient's transport is homspace's, which
    reads transport_all from homspace's globals."""
    from btquot import homspace, serialize
    orig = homspace.transport_all
    calls = []

    def checked(alg, g, vs):
        assert alg.is_unit(g), f"transport_all called with a non-unit {g}"
        calls.append(g)
        return orig(alg, g, vs)

    monkeypatch.setattr(homspace, "transport_all", checked)
    with pytest.raises(AssertionError):
        homspace.transport(ALG5, QuatElem(((0, 1), (), (), ())), BASE_VERTEX)

    rng = random.Random(11)

    def stage(fn, *args):
        calls.clear()
        out = fn(*args)
        assert calls, f"{fn.__name__} made no transport"
        return out

    alg = build_algebra(F5, [(0, 1), (1, 1), (2, 1), (3, 1)])
    G = stage(compute_quotient, alg)
    assert verify_structure(alg, G).passed
    G = stage(serialize.graph_from_json, serialize.graph_to_json(G))
    pres = stage(presentation, G)
    gammas = [random_unit(G.alg, pres, rng) for _ in range(8)]
    far = Vertex.make(5, 1, (1, 2, 3))
    stage(lambda: [reduce(G, transport(G.alg, g, far)) for g in gammas])
    stage(lambda: [express_in_generators(G, g, pres) for g in gammas])
