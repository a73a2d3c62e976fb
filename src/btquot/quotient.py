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
in the spanning tree and recurses on the new vertex.

Edges are directed and come in opposite pairs sharing a multiplicity
index, so parallel edges between the same two vertices are
distinguished.  Four kinds occur: ``tree`` edges realize the spanning
tree (their endpoints are adjacent in the tree itself), ``opposite``
edges are their reversals, ``pairing`` edges carry a unit that maps an
unrealized candidate vertex onto an existing one, and
``pairing_opposite`` edges are the reversals of those.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import _prime_divisors, poly_deg
from .homspace import HomSet, hom, hom_stack, stability, verified
from .quaternion import QUAT_ONE, AlgebraData, QuatElem, height
from .tree import (BASE_VERTEX, Vertex, act, distance, geodesic_to_base,
                   neighbors, retry_with_precision)


def transport(alg: AlgebraData, g: QuatElem, v: Vertex) -> Vertex:
    """The vertex g . v, retrying the embedding at higher precision."""
    return transport_all(alg, g, (v,))[0]


def transport_all(alg: AlgebraData, g: QuatElem, vs) -> list[Vertex]:
    """The vertices g . v for v in vs, from one embedding of g per
    precision tried."""
    start = 4 * (height(g) + alg.m + max(abs(v.n) for v in vs) + 4)

    def images(prec):
        M = alg.embed(g, prec)
        return [act(M, v) for v in vs]

    return retry_with_precision(images, start, alg.precision_cap)


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

    Vertices are indexed by position in ``vertices``; ``vid`` inverts
    the labeling.  ``end_basis`` holds the endomorphism bases of the
    terminal (two-dimensional) vertices.  ``pairings`` lists the
    positions of the ``pairing`` edges in creation order.
    """

    alg: AlgebraData
    vertices: list[Vertex] = field(default_factory=list)
    vid: dict[Vertex, int] = field(default_factory=dict)
    stable: list[bool] = field(default_factory=list)
    end_basis: dict[int, tuple[QuatElem, ...]] = field(default_factory=dict)
    edges: list[QuotientEdge] = field(default_factory=list)
    out_edges: dict[int, list[int]] = field(default_factory=dict)
    pairings: list[int] = field(default_factory=list)
    initial: int = 0
    levels: int = 0

    @property
    def q(self) -> int:
        return self.alg.F.q

    def degree(self, i: int) -> int:
        return len(self.out_edges[i])

    def terminal_ids(self) -> list[int]:
        return [i for i, s in enumerate(self.stable) if not s]

    def undirected_multiplicities(self) -> Counter:
        """Number of undirected edges per unordered vertex pair."""
        mult = Counter()
        for e in self.edges:
            if e.kind in ("tree", "pairing"):
                mult[(min(e.src, e.dst), max(e.src, e.dst))] += 1
        return mult

    # -- construction helpers ------------------------------------------

    def _add_vertex(self, v: Vertex, stable: bool, basis) -> int:
        i = len(self.vertices)
        self.vertices.append(v)
        self.vid[v] = i
        self.stable.append(stable)
        self.out_edges[i] = []
        if basis is not None:
            self.end_basis[i] = tuple(basis)
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
        idx = self._next_index(parent, child)
        self._add_edge(QuotientEdge(parent, child, idx, "tree",
                                    self.vertices[child]))
        self._add_edge(QuotientEdge(child, parent, idx, "opposite",
                                    self.vertices[parent]))

    def _add_pairing(self, src: int, dst: int, candidate: Vertex,
                     g: QuatElem, back_direction: Vertex) -> None:
        idx = self._next_index(src, dst)
        k = self._add_edge(QuotientEdge(src, dst, idx, "pairing",
                                        candidate, g))
        self._add_edge(QuotientEdge(dst, src, idx, "pairing_opposite",
                                    back_direction, g))
        self.pairings.append(k)


def _two_vertex_quotient(alg: AlgebraData, first, second) -> QuotientGraph:
    """The degenerate domain: two adjacent terminal vertices."""
    G = QuotientGraph(alg)
    (v0, ends0), (v1, ends1) = first, second
    G._add_vertex(v0, stable=False, basis=ends0.basis)
    G._add_vertex(v1, stable=False, basis=ends1.basis)
    G._add_tree_pair(0, 1)
    G.initial = 0
    G.levels = 1
    return G


def compute_quotient(alg: AlgebraData) -> QuotientGraph:
    """Breadth-first construction of the enhanced fundamental domain."""
    F = alg.F
    q = F.q
    v0 = BASE_VERTEX
    ends0 = hom(alg, v0, v0)
    if stability(ends0) == "unstable":
        v1 = Vertex.make(1, 0, ())
        ends1 = hom(alg, v1, v1)
        if stability(ends1) == "unstable":
            return _two_vertex_quotient(alg, (v0, ends0), (v1, ends1))
        v0, ends0 = v1, ends1

    G = QuotientGraph(alg)
    G._add_vertex(v0, stable=True, basis=None)
    G.initial = 0
    frontier = [(0, u) for u in neighbors(F, v0)]

    while frontier:
        G.levels += 1
        alive: list = list(frontier)
        nxt: list = []
        for i in range(len(alive)):
            if alive[i] is None:
                continue
            src_id, cand = alive[i]
            src_v = G.vertices[src_id]
            # one stacked solve: End(cand), then every live earlier
            # candidate of the level, in order
            live = [j for j in range(i) if alive[j] is not None]
            homs = hom_stack(alg, cand, [cand, *(alive[j][1] for j in live)])
            ends = verified(alg, homs[0])
            kind = stability(ends)

            if kind == "unstable":
                new_id = G._add_vertex(cand, stable=False, basis=ends.basis)
                G._add_tree_pair(src_id, new_id)
                alive[i] = None
                continue

            matched = False
            for j, hs in zip(live, homs[1:]):
                if hs.dim == 0:
                    continue
                assert hs.dim == 1, "hom space between one-dimensional " \
                    "vertices must be a line"
                wp_id = G.vid[hs.target]
                g = verified(alg, hs).basis[0]
                back = transport(alg, g, src_v)
                G._add_pairing(src_id, wp_id, cand, g, back)
                alive[i] = None
                try:
                    nxt.remove((wp_id, back))
                except ValueError:
                    raise AssertionError(
                        "pairing should cancel a frontier edge of its "
                        "target, but none was found") from None
                if G.degree(wp_id) == q + 1:
                    alive[j] = None
                matched = True
                break

            if not matched:
                new_id = G._add_vertex(cand, stable=True, basis=None)
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
    ("pairing", edge_index, sign) or ("stab", vertex_id, unit) and
    records how each step reads in the generators.  The product of the
    units (latest leftmost) maps v to w.
    """
    alg = G.alg
    F = alg.F
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

        if G.stable[vi_id]:
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
            ends = HomSet(F, vi, vi, G.end_basis[vi_id])
            step = None
            for cand in ends.elements():
                if transport(alg, cand, target) == parent:
                    step = cand
                    steps.append((step, ("stab", vi_id, cand)))
                    break
            assert step is not None, \
                "stabilizer acts transitively on directions, but no " \
                "rotation onto the parent was found"
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

def _multiplicative_order_is(alg: AlgebraData, x: QuatElem, n: int) -> bool:
    return (alg.power(x, n) == QUAT_ONE
            and all(alg.power(x, n // d) != QUAT_ONE
                    for d in _prime_divisors(n)))


@dataclass(frozen=True)
class Presentation:
    """Generators and relations of the unit group.

    The central generator g0 is the canonical primitive scalar; each
    terminal vertex contributes a stabilizer generator gv{i} of
    multiplicative order q^2 - 1 whose (q+1)-st power is exactly g0;
    each paired edge contributes its pairing unit g{k}.  The defining
    relations are g0^(q-1) = 1, gv{i}^(q+1) = g0 and [g{k}, g0] = 1,
    and they are verified by exact arithmetic on construction.
    """

    q: int
    g0: QuatElem
    vertex_gens: tuple[tuple[int, QuatElem], ...]
    edge_gens: tuple[tuple[int, QuatElem], ...]

    def generator_items(self):
        """(name, unit) pairs, g0 first, in canonical order."""
        out = [("g0", self.g0)]
        out += [(f"gv{i + 1}", g)
                for i, (_, g) in enumerate(self.vertex_gens)]
        out += [(f"g{k + 1}", g)
                for k, (_, g) in enumerate(self.edge_gens)]
        return out

    def relation_strings(self) -> list[str]:
        rels = [f"g0^{self.q - 1} = 1"]
        rels += [f"gv{i + 1}^{self.q + 1} = g0"
                 for i in range(len(self.vertex_gens))]
        rels += [f"[g{k + 1}, g0] = 1"
                 for k in range(len(self.edge_gens))]
        return rels


def presentation(G: QuotientGraph) -> Presentation:
    """Generators of the unit group read off the domain, with the
    defining relations checked by exact arithmetic."""
    alg = G.alg
    F = alg.F
    q = F.q
    g0 = QuatElem(((F.primitive_root(),), (), (), ()))

    vertex_gens = []
    for i in G.terminal_ids():
        v = G.vertices[i]
        ends = HomSet(F, v, v, G.end_basis[i])
        chosen = None
        for cand in ends.elements():
            if not _multiplicative_order_is(alg, cand, q * q - 1):
                continue
            if alg.power(cand, q + 1) == g0:
                chosen = cand
                break
        if chosen is None:
            raise RuntimeError(
                "no stabilizer generator with the prescribed central "
                "power; this indicates an arithmetic bug")
        vertex_gens.append((i, chosen))

    edge_gens = [(k, G.edges[k].elem) for k in G.pairings]

    assert alg.power(g0, q - 1) == QUAT_ONE
    for _, gv in vertex_gens:
        assert alg.power(gv, q + 1) == g0
    for _, ge in edge_gens:
        assert alg.mul(ge, g0) == alg.mul(g0, ge)

    return Presentation(q, g0, tuple(vertex_gens), tuple(edge_gens))


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


def evaluate_word(alg: AlgebraData, pres: Presentation, word: Word) -> QuatElem:
    gens = dict(pres.generator_items())
    out = QUAT_ONE
    for name, e in word.letters:
        out = alg.mul(out, alg.power(gens[name], e))
    return out


def _stab_log(alg: AlgebraData, gen: QuatElem, x: QuatElem, order: int) -> int:
    """The exponent s with gen^s = x, 0 <= s < order."""
    acc = QUAT_ONE
    for s in range(order):
        if acc == x:
            return s
        acc = alg.mul(acc, gen)
    raise AssertionError("element is not a power of the stabilizer generator")


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
        raise ValueError("element is not a unit of the order")
    if pres is None:
        pres = presentation(G)

    pairing_name = {k: f"g{t + 1}" for t, k in enumerate(G.pairings)}
    partner = {}
    for k in G.pairings:
        e = G.edges[k]
        partner[(e.dst, e.src, e.index)] = k
    vertex_name = {i: f"gv{t + 1}"
                   for t, (i, _) in enumerate(pres.vertex_gens)}
    vertex_gen = dict(pres.vertex_gens)

    base = G.vertices[G.initial]
    w, steps = _reduction_walk(G, transport(alg, gamma, base))
    assert w == base, "a unit must carry the initial vertex to an " \
        "equivalent vertex, and labels are pairwise inequivalent"

    letters = []
    total = QUAT_ONE
    for step, info in steps:
        total = alg.mul(step, total)
        if info[0] == "pairing":
            _, k, sign = info
            e = G.edges[k]
            if e.kind == "pairing_opposite":
                k = partner[(e.src, e.dst, e.index)]
            letters.append((pairing_name[k], -sign))
        else:
            _, vi_id, elem = info
            gen = vertex_gen[vi_id]
            s = _stab_log(alg, gen, elem, q * q - 1)
            assert s != 0
            letters.append((vertex_name[vi_id], (q * q - 1 - s)))

    residual = alg.mul(total, gamma)
    if G.stable[G.initial]:
        t = _stab_log(alg, pres.g0, residual, q - 1)
        if t:
            letters.append(("g0", t))
    else:
        gen = vertex_gen[G.initial]
        s = _stab_log(alg, gen, residual, q * q - 1)
        if s:
            letters.append((vertex_name[G.initial], s))

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
    q: int
    deg_r: int
    vertex_count: int
    undirected_edge_count: int
    terminal_count: int
    internal_count: int
    paired_count: int
    predicted: PredictedInvariants
    diameter: int
    diameter_upper: float
    max_label_height: int
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
    F = alg.F
    q = F.q
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
        expect = 1 if not G.stable[i] else q + 1
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
        n = distance(F, G.vertices[G.initial], e.direction)
        h = height(e.elem)
        max_h = max(max_h, h)
        if h > m + n or h > global_bound + 1e-9:
            bad_h.append(("edge", k, h, m + n))
    for i in terminals:
        n = distance(F, G.vertices[G.initial], G.vertices[i])
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
        q=q, deg_r=deg_r, vertex_count=nver, undirected_edge_count=nedg,
        terminal_count=nterm, internal_count=nint, paired_count=npair,
        predicted=pred, diameter=diam, diameter_upper=bound,
        max_label_height=max_h, two_cycle_pairs=pairs, checks=tuple(checks))
