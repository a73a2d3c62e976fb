"""Quotient of the tree by the unit group: graph, reduction, presentation.

The unit group of the quaternion order acts on the tree.  This module
computes an enhanced fundamental domain for that action:

* a finite graph with one vertex per orbit, each vertex labeled by a
  tree vertex in normal form, and each terminal vertex additionally
  labeled by a basis of its endomorphism space (its stabilizer minus
  zero);
* an edge pairing: edges leaving the realized spanning tree come in
  pairs identified by explicit units, one unit per paired edge;
* from these data, a presentation of the unit group and a solution of
  the word problem (reduction of any tree vertex into the domain, and
  an expression of any unit as a word in the generators).

The graph is grown outward from an initial vertex by breadth-first
search.  Every newly met tree vertex is classified by its endomorphism
space: a two-dimensional space means a large stabilizer, and the vertex
becomes a degree-one (terminal) vertex of the quotient; otherwise the
search either pairs the new edge with an earlier candidate of the same
level (when the hom space between the two is nonzero) or keeps the edge
in the spanning tree and recurses on the new vertex.  The tree is
bipartite (Serre, *Trees*, ch. II) and a vertex's distance to the base
vertex has the parity of its n, so a level, one distance from the
initial vertex, has one parity of n: homspace.bottom_kernels serves it
in one call, at its largest distance to the base vertex.

Edges are directed and come in opposite pairs sharing a multiplicity
index, so parallel edges between the same two vertices are
distinguished.  Four kinds occur: ``tree`` edges realize the spanning
tree (their endpoints are adjacent in the tree itself), ``opposite``
edges are their reversals, ``pairing`` edges carry a unit that maps an
unrealized candidate vertex onto an existing one, and
``pairing_opposite`` edges are the reversals of those.

Reduction walks a vertex toward the domain along its geodesic to the
base vertex: at an internal vertex a step applies the pairing unit of
the edge covering the direction, at a terminal vertex it rotates the
direction onto the parent by a stabilizer element.  That stabilizer is
F_{q^2}^*, tabulated once per terminal vertex on first use
(homspace.StabilizerField), so the rotation, the stabilizer letters of
a word and the presentation's vertex generators are lookups.  Each is
the first element in HomSet.elements() order with its property.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import poly_deg
from .homspace import (HomSet, StabilizerField, _assert_solution,
                       bottom_kernels, has_solver_shape, hom, hom_stack,
                       stability, transport)
from .quaternion import QUAT_ONE, AlgebraData, QuatElem, height
from .tree import (BASE_VERTEX, Vertex, distance, geodesic_to_base,
                   neighbors, up_neighbor)


# ---------------------------------------------------------------------
# the quotient graph
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientEdge:
    """One directed edge of the quotient graph.

    ``direction`` is the tree neighbor of the source vertex label that
    this edge accounts for; across all edges leaving a vertex, the
    directions exhaust its tree neighbors.  ``elem`` is the pairing
    unit for kind ``pairing`` (it maps ``direction``, the unrealized
    candidate, onto the target's label) and the same unit on the
    reversed ``pairing_opposite`` edge (where it is to be inverted).
    """

    src: int
    dst: int
    index: int
    kind: str  # "tree" | "opposite" | "pairing" | "pairing_opposite"
    direction: Vertex
    elem: QuatElem | None = None


@dataclass
class QuotientGraph:
    """The enhanced fundamental domain.

    Vertices are indexed by position in ``vertices``, vertex 0 being
    the initial one; ``vid`` inverts the labeling.  ``end_basis`` holds
    the endomorphism bases of the terminal (two-dimensional) vertices,
    and only it tells them apart.  ``pairings`` lists the positions of
    the ``pairing`` edges in creation order.  Computed and loaded graphs
    alike are built by _add_vertex, _add_tree_pair and _add_pairing,
    which assert every rule of the construction.
    """

    alg: AlgebraData
    vertices: list[Vertex] = field(default_factory=list)
    vid: dict[Vertex, int] = field(default_factory=dict)
    end_basis: dict[int, tuple[QuatElem, ...]] = field(default_factory=dict)
    edges: list[QuotientEdge] = field(default_factory=list)
    out_edges: dict[int, list[int]] = field(default_factory=dict)
    pairings: list[int] = field(default_factory=list)
    _stabilizers: dict[int, StabilizerField] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def q(self) -> int:
        return self.alg.F.q

    @property
    def stable(self) -> list[bool]:
        """Per vertex, whether it is stable (internal), read off end_basis."""
        return [i not in self.end_basis for i in range(len(self.vertices))]

    @property
    def levels(self) -> int:
        """The number of search levels: each adds a label at its own tree
        distance from the initial label, so this is the largest one."""
        return max(distance(self.vertices[0], v) for v in self.vertices)

    def degree(self, i: int) -> int:
        return len(self.out_edges[i])

    def terminal_ids(self) -> list[int]:
        return sorted(self.end_basis)

    def stabilizer(self, i: int) -> StabilizerField:
        """End of the terminal vertex i as F_{q^2}, built on first use."""
        if i not in self._stabilizers:
            v = self.vertices[i]
            self._stabilizers[i] = StabilizerField(
                self.alg, HomSet(self.alg.F, v, v, self.end_basis[i]))
        return self._stabilizers[i]

    def generator_names(self) -> dict:
        """The presentation's generator names but g0: gv1, gv2, ... of
        the terminal vertices i and g1, g2, ... of the pairing edges k, in
        order, keyed ("stab", i) and ("pairing", k) as in _reduction_walk."""
        names = {("stab", i): f"gv{t + 1}"
                 for t, i in enumerate(self.terminal_ids())}
        return names | {("pairing", k): f"g{t + 1}"
                        for t, k in enumerate(self.pairings)}

    def undirected_multiplicities(self) -> Counter:
        """Number of undirected edges per unordered vertex pair."""
        mult = Counter()
        for e in self.edges:
            if e.kind in ("tree", "pairing"):
                mult[(min(e.src, e.dst), max(e.src, e.dst))] += 1
        return mult

    # -- construction helpers ------------------------------------------

    def _add_vertex(self, v: Vertex, basis) -> int:
        """Add v, stable unless it comes with an End basis.  That must
        have two elements, each a unit fixing v (_assert_solution), and
        the solver's shape (has_solver_shape), which only hom_stack's
        basis of End(v) has."""
        i = len(self.vertices)
        if basis is not None:
            if len(basis) != 2 or not has_solver_shape(basis):
                raise AssertionError("End basis is not the reduced echelon "
                                     "kernel basis")
            for b in basis:
                _assert_solution(self.alg, b, v, v)
            self.end_basis[i] = tuple(basis)
        self.vertices.append(v)
        self.vid[v] = i
        self.out_edges[i] = []
        return i

    def _next_index(self, a: int, b: int) -> int:
        """The number of undirected a-b edges so far: each has exactly
        one directed edge a -> b (there are no loops)."""
        return sum(self.edges[k].dst == b for k in self.out_edges[a])

    def _add_edge(self, e: QuotientEdge) -> int:
        k = len(self.edges)
        self.edges.append(e)
        self.out_edges[e.src].append(k)
        return k

    def _add_tree_pair(self, parent: int, child: int) -> None:
        a, b = self.vertices[parent], self.vertices[child]
        _assert_adjacent(a, b, f"labels of tree edge {parent} -> {child}")
        idx = self._next_index(parent, child)
        self._add_edge(QuotientEdge(parent, child, idx, "tree", b))
        self._add_edge(QuotientEdge(child, parent, idx, "opposite", a))

    def _add_pairing(self, src: int, dst: int, candidate: Vertex,
                     g: QuatElem) -> Vertex:
        """The pairing edge src -> dst and, directly after it, its
        reversal (express_in_generators reads the generator of a
        pairing_opposite edge k off edge k - 1), once candidate is a
        neighbour of src and g maps it onto dst, and (g,) has the
        solver's shape (has_solver_shape), which only hom_stack's basis
        of the line Hom(candidate, dst) has: its first nonzero (k, j)
        coordinate is 1.
        Returns the reversal's direction g . src, from the check's
        embedding of g."""
        _assert_adjacent(self.vertices[src], candidate, "source label and "
                         f"candidate of pairing edge {src} -> {dst}")
        (back,) = _assert_solution(self.alg, g, candidate, self.vertices[dst],
                                   self.vertices[src])
        if not has_solver_shape((g,)):
            raise AssertionError("pairing unit's first nonzero coordinate "
                                 "is not 1, as the solver's basis has it")
        idx = self._next_index(src, dst)
        k = self._add_edge(QuotientEdge(src, dst, idx, "pairing",
                                        candidate, g))
        self._add_edge(QuotientEdge(dst, src, idx, "pairing_opposite",
                                    back, g))
        self.pairings.append(k)
        return back


def _assert_adjacent(a: Vertex, b: Vertex, what: str) -> None:
    """Tree neighbours: one is the other's up-neighbour."""
    if up_neighbor(a) != b and up_neighbor(b) != a:
        raise AssertionError(f"the {what} are not tree neighbours")


def compute_quotient(alg: AlgebraData) -> QuotientGraph:
    """Breadth-first construction of the enhanced fundamental domain."""
    F = alg.F
    q = F.q
    G = QuotientGraph(alg)
    v0 = BASE_VERTEX
    ends0 = hom(alg, v0, v0)
    if stability(ends0) == "unstable":
        v1 = Vertex.make(1, 0, ())
        ends1 = hom(alg, v1, v1)
        if stability(ends1) == "unstable":
            # the degenerate domain: two adjacent terminal vertices
            G._add_vertex(v0, ends0.basis)
            G._add_vertex(v1, ends1.basis)
            G._add_tree_pair(0, 1)
            return G
        v0 = v1

    G._add_vertex(v0, None)
    frontier = [(0, u) for u in neighbors(F, v0)]

    while frontier:
        alive: list = list(frontier)
        cands = [cand for _, cand in frontier]
        bottoms = bottom_kernels(alg, cands,
                                 max(u.dist_to_base() for u in cands),
                                 sorted({u.n for u in cands}))
        nxt: list = []
        for i in range(len(alive)):
            # only i itself and earlier candidates are ever cleared
            src_id, cand = alive[i]
            src_v = G.vertices[src_id]
            # one stacked solve: End(cand), then every live earlier
            # candidate of the level, in order
            live = [j for j in range(i) if alive[j] is not None]
            homs = hom_stack(alg, cand, [cand, *(alive[j][1] for j in live)],
                             bottoms[i])
            if stability(homs[0]) == "unstable":
                new_id = G._add_vertex(cand, homs[0].basis)
                G._add_tree_pair(src_id, new_id)
                alive[i] = None
                continue

            for j, hs in zip(live, homs[1:]):
                if hs.dim == 0:
                    continue
                assert hs.dim == 1, "hom space between one-dimensional " \
                    "vertices must be a line"
                wp_id = G.vid[hs.target]
                back = G._add_pairing(src_id, wp_id, cand, hs.basis[0])
                alive[i] = None
                try:
                    nxt.remove((wp_id, back))
                except ValueError:
                    raise AssertionError(
                        "pairing should cancel a frontier edge of its "
                        "target, but none was found") from None
                if G.degree(wp_id) == q + 1:
                    alive[j] = None
                break
            else:
                new_id = G._add_vertex(cand, None)
                G._add_tree_pair(src_id, new_id)
                nxt.extend((new_id, u) for u in neighbors(F, cand)
                           if u != src_v)
        frontier = nxt
    return G


# ---------------------------------------------------------------------
# reduction into the domain
# ---------------------------------------------------------------------

def _reduction_walk(G: QuotientGraph, v: Vertex):
    """Move v into the domain step by step.

    Returns (w, steps) where w is the vertex label reached and steps is
    the list of (unit, letter) applied, earliest first; the letter is
    ("pairing", edge_index, sign) or ("stab", vertex_id, s) for the unit
    gen^s of G.stabilizer(vertex_id), and records how each step reads
    in the generators.  The product of the units (latest leftmost) maps
    v to w.
    """
    alg = G.alg
    cur = v
    steps = []
    prev_hit = None
    while True:
        path = geodesic_to_base(cur)
        hit = next(t for t, x in enumerate(path) if x in G.vid)
        assert prev_hit is None or hit < prev_hit, \
            "reduction step failed to approach the domain"
        prev_hit = hit
        if hit == 0:
            return path[0], steps
        vi = path[hit]
        vi_id = G.vid[vi]
        target = path[hit - 1]

        if vi_id not in G.end_basis:
            step = None
            for k in G.out_edges[vi_id]:
                e = G.edges[k]
                if e.kind == "pairing" and e.direction == target:
                    step = e.elem
                    steps.append((step, ("pairing", k, 1)))
                    break
                if e.kind == "pairing_opposite" and e.direction == target:
                    step = alg.inverse_unit(e.elem)
                    steps.append((step, ("pairing", k, -1)))
                    break
            assert step is not None, \
                "no edge of the domain covers the required direction"
        else:
            parent = G.edges[G.out_edges[vi_id][0]].direction
            stab = G.stabilizer(vi_id)
            s = stab.rotation(target, parent)
            step = stab.power(s)
            steps.append((step, ("stab", vi_id, s)))
        cur = transport(alg, step, cur)


def reduce(G: QuotientGraph, v: Vertex) -> tuple[Vertex, QuatElem]:
    """The domain vertex w and a unit g with v = g . w."""
    alg = G.alg
    w, steps = _reduction_walk(G, v)
    total = QUAT_ONE
    for step, _ in steps:
        total = alg.mul(step, total)
    g = alg.inverse_unit(total)
    assert transport(alg, g, w) == v, "reduction transporter is wrong"
    return w, g


# ---------------------------------------------------------------------
# presentation
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    """Generators and relations of the unit group.

    The central generator g0 is the canonical primitive scalar; each
    terminal vertex contributes a stabilizer generator gv{i} of
    multiplicative order q^2 - 1 whose (q+1)-st power is exactly g0;
    each paired edge contributes its pairing unit g{k}, named by
    QuotientGraph.generator_names.  The vertex generators are those of
    QuotientGraph.stabilizer.  The defining relations are g0^(q-1) = 1,
    gv{i}^(q+1) = g0 and [g{k}, g0] = 1, and they are verified by exact
    arithmetic on construction.
    """

    q: int
    g0: QuatElem
    vertex_gens: tuple[tuple[int, QuatElem], ...]
    edge_gens: tuple[tuple[int, QuatElem], ...]
    names: tuple[str, ...]

    def generator_items(self):
        """(name, unit) pairs, g0 first, in canonical order."""
        units = [self.g0, *(g for _, g in self.vertex_gens + self.edge_gens)]
        return list(zip(self.names, units))

    def relation_strings(self) -> list[str]:
        g0, *names = self.names
        nv = len(self.vertex_gens)
        return [f"{g0}^{self.q - 1} = 1",
                *(f"{x}^{self.q + 1} = {g0}" for x in names[:nv]),
                *(f"[{x}, {g0}] = 1" for x in names[nv:])]


def presentation(G: QuotientGraph) -> Presentation:
    """Generators of the unit group read off the domain, with the
    defining relations checked by exact arithmetic."""
    alg = G.alg
    F = alg.F
    q = F.q
    g0 = QuatElem(((F.primitive_root(),), (), (), ()))
    vertex_gens = [(i, G.stabilizer(i).gen) for i in G.terminal_ids()]
    edge_gens = [(k, G.edges[k].elem) for k in G.pairings]

    assert alg.power(g0, q - 1) == QUAT_ONE
    for _, gv in vertex_gens:
        assert alg.power(gv, q + 1) == g0
    for _, ge in edge_gens:
        assert alg.mul(ge, g0) == alg.mul(g0, ge)

    return Presentation(q, g0, tuple(vertex_gens), tuple(edge_gens),
                        ("g0", *G.generator_names().values()))


# ---------------------------------------------------------------------
# the word problem
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Word:
    """A word in the presentation's generators, as (name, exponent)
    letters; the empty tuple is the identity."""

    letters: tuple[tuple[str, int], ...]

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " * ".join(name if e == 1 else f"{name}^{e}"
                          for name, e in self.letters)


def evaluate_word(alg: AlgebraData, pres: Presentation,
                  word: Word) -> QuatElem:
    gens = dict(pres.generator_items())
    out = QUAT_ONE
    for name, e in word.letters:
        out = alg.mul(out, alg.power(gens[name], e))
    return out


def express_in_generators(G: QuotientGraph, gamma: QuatElem,
                          pres: Presentation | None = None) -> Word:
    """gamma as a word in the presentation's generators, exactly.

    The walk moving gamma . v0 back to the initial vertex v0 spells the
    word in reverse; the residual element stabilizes v0 and is a power
    of g0 (or of the initial vertex's own stabilizer generator in the
    two-vertex degenerate case).
    """
    alg = G.alg
    q = G.q
    if not alg.is_unit(gamma):
        raise ValueError("element is not a unit of the order "
                         "(nrd not in F_q^*)")
    if pres is None:
        pres = presentation(G)

    names = G.generator_names()

    base = G.vertices[0]
    w, steps = _reduction_walk(G, transport(alg, gamma, base))
    assert w == base, "a unit must carry the initial vertex to an " \
        "equivalent vertex, and labels are pairwise inequivalent"

    letters = []
    total = QUAT_ONE
    for step, info in steps:
        total = alg.mul(step, total)
        if info[0] == "pairing":
            _, k, sign = info
            if G.edges[k].kind == "pairing_opposite":
                k -= 1  # the pairing edge directly precedes its reversal
            letters.append((names["pairing", k], -sign))
        else:
            _, vi_id, s = info
            assert s != 0
            letters.append((names["stab", vi_id], (q * q - 1 - s)))

    residual = alg.mul(total, gamma)
    if 0 not in G.end_basis:
        # End(v0) is F_q, so the residual is a power of the scalar g0
        g0 = pres.g0.lam[0][0]
        logs = {QuatElem(((alg.F.pow(g0, s),), (), (), ())): s
                for s in range(q - 1)}
        t = logs.get(residual)
        if t is None:
            raise AssertionError(
                "element is not a power of the stabilizer generator")
        if t:
            letters.append(("g0", t))
    else:
        s = G.stabilizer(0).log(residual)
        if s:
            letters.append((names["stab", 0], s))

    word = Word(tuple(letters))
    assert evaluate_word(alg, pres, word) == gamma, \
        "word does not multiply back to the element"
    return word


# ---------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class PredictedInvariants:
    """Closed-form invariants of the quotient graph."""

    odd_mass: int       # 1 if all ramified places have odd degree
    genus: int          # first Betti number = number of paired edges
    terminal_count: int
    internal_count: int


def predicted_invariants(alg: AlgebraData) -> PredictedInvariants:
    q = alg.F.q
    primes = alg.ram.primes
    odd = alg.ram.odd_flag
    prod = 1
    for p in primes:
        prod *= q ** poly_deg(p) - 1
    v1 = 2 ** (len(primes) - 1) * odd
    genus = (1 + Fraction(prod, q * q - 1)
             - Fraction(q, q + 1) * v1)
    assert genus.denominator == 1 and genus >= 0, \
        "genus formula must produce a nonnegative integer"
    genus = int(genus)
    vq1 = Fraction(2 * genus - 2 + v1, q - 1)
    assert vq1.denominator == 1 and vq1 >= 0, \
        "internal vertex count must be a nonnegative integer"
    return PredictedInvariants(odd, genus, v1, int(vq1))


def diameter_bound(q: int, deg_r: int) -> float:
    """Upper bound for the graph diameter, from the Ramanujan property
    of a finite cover; valid for graphs on at least three vertices."""
    return 2 * deg_r + 2 * (2 * math.log(2, q) + 1 - math.log(q - 1, q))


def graph_diameter(G: QuotientGraph) -> int:
    n = len(G.vertices)
    adj = [sorted({G.edges[k].dst for k in G.out_edges[i]})
           for i in range(n)]
    diam = 0
    for s in range(n):
        dist = {s: 0}
        queue = [s]
        for x in queue:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        assert len(dist) == n, "quotient graph must be connected"
        diam = max(diam, max(dist.values()))
    return diam


def two_cycle_counts(G: QuotientGraph) -> tuple[int, int]:
    """(pairs, rotations): the number of unordered pairs of parallel
    edges, and the number of closed non-backtracking length-two walks
    up to rotation.  The second is twice the first."""
    pairs = sum(n * (n - 1) // 2
                for n in G.undirected_multiplicities().values())
    return pairs, 2 * pairs


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class StructureReport:
    vertex_count: int
    undirected_edge_count: int
    paired_count: int
    predicted: PredictedInvariants
    diameter: int
    two_cycle_pairs: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            flag = "ok" if c.passed else "FAIL"
            out.append(f"[{flag:>4}] {c.name}: {c.detail}")
        return out


def verify_structure(alg: AlgebraData, G: QuotientGraph) -> StructureReport:
    """Check the computed domain against the closed-form invariants and
    the height and diameter bounds."""
    q = alg.F.q
    deg_r = alg.ram.d
    pred = predicted_invariants(alg)
    nver = len(G.vertices)
    assert len(G.edges) % 2 == 0
    nedg = len(G.edges) // 2
    terminals = G.terminal_ids()
    nterm = len(terminals)
    nint = nver - nterm
    npair = len(G.pairings)
    checks = []

    loops = [e for e in G.edges if e.src == e.dst]
    checks.append(CheckResult(
        "no loops", not loops, f"{len(loops)} loop edges"))

    bad_deg = []
    for i in range(nver):
        d = G.degree(i)
        expect = 1 if i in G.end_basis else q + 1
        if d != expect:
            bad_deg.append((i, d, expect))
    checks.append(CheckResult(
        "degrees match labels", not bad_deg,
        f"degrees are 1 on terminal and {q + 1} on internal vertices"
        if not bad_deg else f"mismatches at {bad_deg}"))

    checks.append(CheckResult(
        "terminal vertex count", nterm == pred.terminal_count,
        f"{nterm} terminal vertices, formula gives {pred.terminal_count}"))

    checks.append(CheckResult(
        "internal vertex count", nint == pred.internal_count,
        f"{nint} internal vertices, formula gives {pred.internal_count}"))

    betti = nedg - nver + 1
    ok_h1 = npair == pred.genus == betti
    checks.append(CheckResult(
        "paired edges = first Betti number = genus", ok_h1,
        f"{npair} paired, e - v + 1 = {betti}, formula gives {pred.genus}"))

    diam = graph_diameter(G)
    bound = diameter_bound(q, deg_r)
    if nver >= 3:
        ok_diam = diam <= bound + 1e-9
        detail = f"diameter {diam} <= {bound:.3f}"
    else:
        ok_diam = True
        detail = f"diameter {diam}; bound not applicable below 3 vertices"
    checks.append(CheckResult("diameter bound", ok_diam, detail))

    m = alg.m
    max_h = 0
    bad_h = []
    global_bound = m + bound
    for k in G.pairings:
        e = G.edges[k]
        n = distance(G.vertices[0], e.direction)
        h = height(e.elem)
        max_h = max(max_h, h)
        if h > m + n or h > global_bound + 1e-9:
            bad_h.append(("edge", k, h, m + n))
    for i in terminals:
        n = distance(G.vertices[0], G.vertices[i])
        for b in G.end_basis[i]:
            h = height(b)
            max_h = max(max_h, h)
            if h > m + n or h > global_bound + 1e-9:
                bad_h.append(("vertex", i, h, m + n))
    checks.append(CheckResult(
        "label heights", not bad_h,
        f"max height {max_h}, global bound {global_bound:.3f}"
        if not bad_h else f"violations: {bad_h}"))

    pairs, _ = two_cycle_counts(G)

    return StructureReport(
        vertex_count=nver, undirected_edge_count=nedg, paired_count=npair,
        predicted=pred, diameter=diam, two_cycle_pairs=pairs,
        checks=tuple(checks))
