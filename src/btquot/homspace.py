"""Equivariant hom sets between tree vertices, by exact linear algebra.

For vertices v, w of the tree, Hom(v, w) = {gamma in Gamma : gamma.v = w}
together with 0 is an F_q-vector space of dimension 0, 1 or 2 inside the
quaternion algebra.  For gamma = lam_1 + lam_2 i + lam_3 j + lam_4 khat,
the lam_k polynomials, the condition gamma.v = w is equivalent to

    pi^((n_w - n_v)/2) * Mw^(-1) * iota(gamma) * Mv  in  M_2(O_infinity),

where Mv = [[pi^n_v, g_v], [0, 1]] and Mw are the exact vertex matrices.
The map is linear in gamma, so once the degrees of the lam_k are bounded
the condition is a linear system over F_q in their coefficients.

The bound is per coordinate.  det iota(gamma) = nrd(gamma) is in F_q^*,
so iota(gamma) has elementary divisors pi^-D, pi^D with D = -min
v(iota(gamma)_ij), and gamma moves the base vertex by 2D (Serre, Trees,
ch. II.1).  gamma is an isometry with gamma.v = w, so 2D <= d(base, w) +
d(w, gamma.base) = d_w + d_v (d: dist_to_base).  iota(gamma) = [[a, b],
[c, d]] gives the coordinates back (q is odd; s = sqrt(alpha), v(s) = -m,
m = deg(alpha)/2, deg epsilon <= 2m - 1, deg r >= 0):

    lam_1 = (a + d)/2,                  deg <= D,
    lam_3 = (b + c/r)/2,                deg <= D,
    lam_4 = s (b - c/r)/2,              deg <= D + m,
    lam_2 = ((a - d)/2 - lam_4 epsilon/s)/s,  deg <= D + max(m - 1, 0),

so deg lam_k <= (d_v + d_w)/2 + o_k, o = (0, max(m - 1, 0), 0, m).  A
system at height D keeps the columns T^j of lam_k for j <= D + o_k, in
k-major order: sum_k (D + o_k + 1) columns (_widths), one layout from
the equations (solver._level_rows) through both kernels to the solution
vectors (solver._vector_to_quat).  The search solves a level at D = n,
its largest distance to the base vertex; hom solves a pair at D = (d_v +
d_w)/2.

Any D >= (d_v + d_w)/2 gives the same basis.  Every solution vanishes on
the columns j > (d_v + d_w)/2 + o_k, so the solutions of a system at
height D are all the solutions, and a column dropped between two heights
is zero on all of them.  The solver's basis is the reduced echelon basis
of the solution space (has_solver_shape), fixed by the space and the
order of its columns; dropping columns zero on the whole space keeps the
order of the rest and that shape, so it drops them from the same basis,
and the quaternions do not change.

The systems are built and solved as numpy arrays by the solver module,
the one module that imports numpy when it is loaded: hom and
quotient.compute_quotient import it when they are called, so that a
process that only reads a stored graph over a prime field never loads
numpy.

Solutions automatically have reduced norm in F_q^* and map v to w (the
determinant argument fixes the norm's valuation, and a unit of the order
with the right action is forced); both are asserted (_assert_solution),
never used as filters, once per kept basis: by hom, and by
QuotientGraph's builders on every End element and pairing unit,
computed or loaded, exactly and apart from the solver: by the
integrality of one matrix Y, whose reduction mod pi also gives the
unit's images of the source's neighbours.  An integral Y is itself the
proof of a unit: det Y = nrd(gamma) then lies in O_infinity and in
F_q[T], so in F_q, and is nonzero for gamma != 0 in a division algebra.
So the check computes no reduced norm unless it refuses, and reads Y
straight off embed_packed's sums, packed beside g_v, -g_w and their
product: one pack and one unpack, and no Laurent entry.  A stable
vertex keeps no End basis; stability asserts it is exactly (1,).  A
scalar unit lies in F_q^*, the kernel of the action, so the check
embeds none.

Reduction and the word problem act by a unit g on any vertex v through
transport: the pivot column of iota(g) M_v from the packed embedding,
in one pass of GF's packed kernel at a precision computed from g and v,
read by tree.column_vertex.  det iota(g) = nrd(g) is a nonzero
constant, so no determinant, Laurent embedding or matrix is formed.

For an unstable vertex, End(v) plus zero is a field with q^2 elements;
StabilizerField tabulates it on coordinates over the End basis, so that
its generator, discrete logarithms and rotations of the neighbours are
lookups instead of enumerations of End(v).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (GF, ZERO_POLY, has_order, poly_add, poly_mul,
                      poly_scale, power)
from .laurent import INF, InsufficientPrecisionError, from_packed
from .quaternion import QUAT_ONE, AlgebraData, QuatElem, height
from .tree import (Vertex, column_vertex, down_neighbor, neighbors,
                   up_neighbor)


def transport(alg: AlgebraData, g: QuatElem, v: Vertex) -> Vertex:
    """The vertex g . v, at a precision P computed from g and v, with no
    retry.  g must be a unit (nrd(g) in F_q^*), or the vertex is wrong,
    not an error: callers pass units checked by is_unit, stabilizer
    powers, pairing units and inverses.

    A M_v = [[a pi^n, a g_v + b], [c pi^n, c g_v + d]], A = iota(g), is
    one pass over embed_packed's sums, packed with g_v: two shifts, two
    products (x g_v + y known below min(prec_x + gval, prec_y)), one
    unpack; tree.column_vertex reads g . v off its pivot column, by a
    series inverse and one product on its code tuples.

    A, known below pi^P, has entries of valuation >= -(h + beta), h =
    height(g), beta = max(m, deg r) (from sqrt(alpha) and r in the
    basis).  As det A is in F_q^*, A moves the base vertex by -2 min
    v(A_ij) <= 2 (h + beta) (Serre, Trees, ch. II.1), so -n_gv <= d_gv
    <= d_v + 2 (h + beta) (d: dist_to_base), and the pivot has valuation
    nu = (n - n_gv)/2 <= (n + d_v)/2 + h + beta.  For k = min(n, gval,
    0), A M_v is known below pi^(P + k), with entries of valuation >= k
    - (h + beta): P + k > nu fixes the pivot and nu, and P + k >= n - k
    + h + beta fixes g_gv = x/y mod pi^n_gv, which reads x below pi^(n -
    nu) and y below pi^(n - v(x)) for the pivot column (x, y):

        P = h + beta + max(n - 2k, (n + d_v)/2 + 1 - k).

    P above alg's cap raises InsufficientPrecisionError; a pivot short
    at P breaks this bound, an AssertionError.
    """
    n, gv, k = v.n, v.gval, min(v.n, v.gval, 0)
    prec = _within_cap(alg, height(g) + max(alg.m, alg.ram.d) + max(
        n - 2 * k, (n + v.dist_to_base()) // 2 + 1 - k), "transport")
    w, (a, b, c, d), (G,) = alg.embed_packed(g, prec, (v.gcoeffs,))
    bits = 8 * w * alg.F.slots
    cols = [(o + n, p + n, X) for o, p, X in (a, c)]
    for (ox, px, X), (oy, py, Y) in ((a, b), (c, d)):
        lo = min(ox + gv, oy)
        cols.append((lo, min(px + gv if G else INF, py),
                     (X * G << bits * (ox + gv - lo))
                     + (Y << bits * (oy - lo))))
    try:
        return column_vertex(*from_packed(alg.F, cols, w), n)
    except InsufficientPrecisionError:
        raise AssertionError("transport short of its computed precision") \
            from None


def _within_cap(alg: AlgebraData, prec: int, what: str) -> int:
    """prec, or InsufficientPrecisionError if it is above alg's cap."""
    if prec > alg.precision_cap:
        raise InsufficientPrecisionError(f"{what} needs precision {prec}, "
                                         f"above the cap {alg.precision_cap}")
    return prec


@dataclass(frozen=True)
class HomSet:
    """All gamma with gamma.source = target, as an F_q-basis.

    The nonzero F_q-combinations of the basis are exactly the hom set;
    the basis is in reduced echelon order with leading coefficients 1.
    """

    field: GF
    source: Vertex
    target: Vertex
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def cardinality(self) -> int:
        return self.field.q ** self.dim - 1

    def combination(self, coeffs) -> QuatElem:
        """The F_q-combination sum c_i * b_i of the basis."""
        F = self.field
        lam = [ZERO_POLY] * 4
        for c, b in zip(coeffs, self.basis):
            if c:
                for k in range(4):
                    lam[k] = poly_add(F, lam[k],
                                      poly_scale(F, c, b.lam[k]))
        return QuatElem(tuple(lam))

    def elements(self):
        """All nonzero F_q-combinations of the basis, coefficient
        vectors in lexicographic F.elements() order."""
        for coeffs in itertools.product(self.field.elements(),
                                        repeat=self.dim):
            if any(coeffs):
                yield self.combination(coeffs)


class StabilizerField:
    """End(v) = Hom(v, v) plus zero, for an unstable vertex v, as the
    field F_{q^2}, with its action on the q+1 tree neighbours of v.

    The basis.  The solver's basis (b1, b2) of ends is always (1, x).
    Its elements' last nonzero (k, j) coordinates, their pivots, strictly
    increase, and each is zero in the later element (has_solver_shape),
    so c1*b1 + c2*b2 ends at the pivot of the last b_s it uses.  1 lies
    in the span, and its only nonzero coordinate, (0, 0), is the least:
    so 1 = c1*b1, and b1 = 1, since b1's first coefficient is 1.
    Asserted.  So c1 + c2*x is coded (c1, c2), read off any element at
    (0, 0), which is zero in x, and at x's first nonzero coordinate,
    where x has 1 and 1 has 0.  A quaternion whose two coefficients
    there do not recombine to it is not in End(v).

    The arithmetic.  One product, x*x = s + t*x, gives End(v) as
    F_q[x]/(x^2 - t*x - s), and a product of codes costs 5 F.mul
    (_mul).  The conjugate of x is t - x, so the norm of c1 + c2*x is
    c1^2 + t*c1*c2 - s*c2^2, and it equals c^(q+1), since the Frobenius
    c -> c^q of F_{q^2} is the conjugation.  The table is built from
    that product and one solution check of the generator
    (_assert_solution):

    * gen, the first code in HomSet.elements() order with norm
      F.primitive_root() and of order q^2 - 1 (algebra.has_order): so
      its (q+1)-st power is that scalar, asserted by algebra.power;
    * the code of gen^s for every s, each the last times gen by _mul,
      and its inverse, the discrete log;
    * the cycle that gen induces on the neighbours of v (by Y mod pi of
      the check).  The scalars fix every vertex, and End(v)^*/F_q^*
      (cyclic of order q+1) acts simply transitively on the neighbours,
      so the cycle has length q+1, and gen^s maps the neighbour t to u
      exactly for the s in one class modulo q+1: a coset c * gen^s0.
    """

    def __init__(self, alg: AlgebraData, ends: HomSet):
        F = alg.F
        q = F.q
        n = q * q - 1
        self.field = F
        self.ends = ends
        one_b, x = ends.basis
        if one_b != QUAT_ONE:
            raise AssertionError("the End basis must start with 1")
        self._pivot = next((k, j) for k, f in enumerate(x.lam)
                           for j, c in enumerate(f) if c)
        rel = self._code(alg.mul(x, x))
        if rel is None:
            raise AssertionError("End(v) must be a ring containing 1")
        s, t = self._rel = rel
        one, prim = (1, 0), F.primitive_root()
        gen = next((c for c in itertools.product(F.elements(), repeat=2)
                    if F.sub(F.mul(c[0], F.add(c[0], F.mul(t, c[1]))),
                             F.mul(s, F.mul(c[1], c[1]))) == prim
                    and has_order(self._mul, c, n, one)), None)
        if gen is None:
            raise RuntimeError(
                "no stabilizer generator with the prescribed central "
                "power; this indicates an arithmetic bug")
        if power(self._mul, gen, q + 1, one) != (prim, 0):
            raise AssertionError("the generator's (q+1)-st power is not "
                                 "its norm F.primitive_root()")
        self._powers = [one, *itertools.accumulate(
            itertools.repeat(gen, n - 1), self._mul)]
        self._log = {c: k for k, c in enumerate(self._powers)}
        self.gen = ends.combination(gen)

        v = ends.source
        nbrs = neighbors(F, v)
        image = dict(zip(nbrs, _assert_solution(alg, self.gen, v, v, *nbrs)))
        cycle = [nbrs[0]]
        for _ in range(q):
            cycle.append(image.get(cycle[-1]))
        if image.get(cycle[-1]) != nbrs[0] or set(cycle) != set(nbrs):
            raise AssertionError("the stabilizer generator must permute "
                                 "the neighbours in one (q+1)-cycle")
        self._position = {u: k for k, u in enumerate(cycle)}
        rank = {a: r for r, a in enumerate(F.elements())}
        self._first = [
            min(range(s0, n, q + 1),
                key=lambda k: [rank[c] for c in self._powers[k]])
            for s0 in range(q + 1)]

    def _code(self, y: QuatElem):
        """(c1, c2) with y = c1 + c2*x, or None if y is not in End(v)."""
        k, j = self._pivot
        c = (y.lam[0][0] if y.lam[0] else 0,
             y.lam[k][j] if j < len(y.lam[k]) else 0)
        return c if self.ends.combination(c) == y else None

    def _mul(self, a, b):
        """The code of a*b: with x^2 = s + t*x and the products u = a1 b1,
        w = a2 b2, (a1 + a2)(b1 + b2), it is (u + s w, (a1 + a2)(b1 + b2)
        - u + (t - 1) w)."""
        F = self.field
        s, t = self._rel
        u, w = F.mul(a[0], b[0]), F.mul(a[1], b[1])
        mid = F.mul(F.add(a[0], a[1]), F.add(b[0], b[1]))
        return (F.add(u, F.mul(s, w)),
                F.add(F.sub(mid, u), F.mul(F.sub(t, 1), w)))

    def power(self, s: int) -> QuatElem:
        """gen^s, for 0 <= s < q^2 - 1."""
        return self.ends.combination(self._powers[s])

    def log(self, x: QuatElem) -> int:
        """The exponent s with gen^s = x, 0 <= s < q^2 - 1."""
        s = self._log.get(self._code(x))
        if s is None:
            raise AssertionError(
                "element is not a power of the stabilizer generator")
        return s

    def rotation(self, t: Vertex, u: Vertex) -> int:
        """The exponent s of the first element gen^s in HomSet.elements()
        order that maps the neighbour t onto the neighbour u."""
        if t not in self._position or u not in self._position:
            raise AssertionError(
                "stabilizer acts transitively on directions, but no "
                "rotation onto the parent was found")
        s0 = (self._position[u] - self._position[t]) % len(self._position)
        return self._first[s0]


def _widths(alg: AlgebraData, D: int) -> tuple:
    """The columns of each coordinate lam_k in a hom system at height D:
    T^j for j <= D + o_k, o = (0, max(m - 1, 0), 0, m) (see the module
    docstring), D + o_k + 1 of them."""
    m = alg.m
    return tuple(D + 1 + o for o in (0, max(m - 1, 0), 0, m))


def _assert_solution(alg: AlgebraData, gamma: QuatElem, v: Vertex,
                     w: Vertex, *more: Vertex) -> list[Vertex]:
    """Assert that gamma is a unit within the height bound mapping v to
    w, deg lam_k <= (d_v + d_w)/2 + o_k (the module docstring's); return
    its images of the vertices more, each asserted a tree neighbour of v.

    A scalar is a unit exactly when it is a nonzero constant, and it
    fixes every vertex, so it embeds none and returns more as is.  Any
    other gamma maps v to w as a unit exactly when Y = pi^s Mw^(-1)
    iota(gamma) Mv, s = (n_w - n_v)/2, is integral (_reduction), and no
    reduced norm is computed: det Y = nrd(gamma) is then in O_infinity
    and in F_q[T], so in F_q, and it is nonzero because gamma != 0 lies
    in a division algebra (Serre, Trees, ch. II.1).  So Y lies in
    GL_2(O_infinity), and iota(gamma) Mv = lambda Mw U, U in there,
    forces 2 v(lambda) = n_v - n_w and Y = pi^s lambda U.  det Ybar =
    det Y != 0 is asserted, a free check of the reduction.  Ybar = Y mod
    pi maps the line of a neighbour of v in L_v / pi L_v = P^1(F_q), on
    Mv's columns (1, 0) up and (alpha, 1) down with alpha, to the line
    of its image next to w.  Only a refusal computes nrd(gamma)
    (is_unit), to name a non-unit as such before any other fault."""
    F = alg.F
    try:
        bound = _widths(alg, (v.dist_to_base() + w.dist_to_base()) // 2)
        if any(len(lam) > c for lam, c in zip(gamma.lam, bound)):
            raise AssertionError("hom solution violates the height bound")
        if (v.n - w.n) % 2 or not any(gamma.lam[1:]):
            if (v.n - w.n) % 2 or v != w or len(gamma.lam[0]) != 1:
                raise AssertionError(
                    "hom solution does not map source to target")
            return list(more)
        Ybar = _reduction(alg, gamma, v, w)
        if Ybar is None:
            raise AssertionError("hom solution does not map source to target")
        (y11, y12), (y21, y22) = Ybar
        if F.mul(y11, y22) == F.mul(y12, y21):
            raise AssertionError("Y mod pi is singular, but its determinant "
                                 "is nrd(gamma) in F_q^*")
        up, images = up_neighbor(v), []
        for u in more:
            # u's line: (1, 0) up, (alpha, 1) for alpha its pi^n_v digit
            x, y = (1, 0) if u == up else \
                (dict(enumerate(u.gcoeffs, u.gval)).get(v.n, 0), 1)
            if y and u != down_neighbor(v, x):
                raise AssertionError(
                    "vertex and source are not tree neighbours")
            top, bottom = (F.add(F.mul(r, x), F.mul(t, y)) for r, t in Ybar)
            images.append(down_neighbor(w, F.mul(top, F.inv(bottom)))
                          if bottom else up_neighbor(w))
        return images
    except (AssertionError, InsufficientPrecisionError):
        if not alg.is_unit(gamma):
            raise AssertionError(
                "hom solution is not a unit of the order") from None
        raise


def _reduction(alg: AlgebraData, gamma: QuatElem, v: Vertex, w: Vertex):
    """Ybar = Y mod pi as its rows ((y11, y12), (y21, y22)) for a
    quaternion gamma of the parity of v and w, or None if Y = pi^s Mw^(-1)
    iota(gamma) Mv, s = (n_w - n_v)/2, is not integral.

    Y is iota(gamma) Mv by columns, then row operations, from iota(gamma)
    at the least precision that knows Y below pi^1, P = 1 - s - min(n_v,
    g-_v) - min(0, g-_w - n_w), g- = min(0, v(g)): each entry of Y a sum
    of products of embed_packed's sums a, b, c, d with the exact g_v,
    -g_w and g_v (-g_w), the last folded first (poly_mul), so that no
    product has more than the three factors a packed slot holds, for
    every q.  One pass of GF's packed kernel, one pack and one unpack;
    sums known below less than P are refused, a P above alg's cap
    raises InsufficientPrecisionError."""
    F, s = alg.F, (w.n - v.n) // 2
    prec = _within_cap(alg, 1 - s - min(v.n, v.gval, 0)
                       - min(0, w.gval - w.n, -w.n), "check")
    hw = [F.neg(t) for t in w.gcoeffs]
    w8, sums, (G, H, GH) = alg.embed_packed(
        gamma, prec, (v.gcoeffs, hw, poly_mul(F, v.gcoeffs, hw)))
    if min((p for _, p, S in sums if S), default=INF) < prec:
        raise AssertionError("solution check short of precision")
    (va, _, A), (vb, _, B), (vc, _, C), (vd, _, D) = sums
    gv, gw = v.gval, w.gval
    # Y_11, Y_21, Y_12, Y_22: pi^k times a sum of nonzero terms t, each a
    # series from pi^f; each read from pi^e, the least k + f or 0 if lower
    Y = [(s - w.n + v.n, [(va, A), (vc + gw, C * H)]),
         (s + v.n, [(vc, C)]),
         (s - w.n, [(va + gv, A * G), (vb, B), (vc + gv + gw, C * GH),
                    (vd + gw, D * H)]),
         (s, [(vc + gv, C * G), (vd, D)])]
    Y = [(k, [(f, t) for f, t in ts if t]) for k, ts in Y]
    es = [min(0, k + min((f for f, _ in ts), default=0)) for k, ts in Y]
    # row i of an entry holds its pi^(e + i) coefficient, e in es
    n = 1 - min(es)
    bits = 8 * w8 * F.slots
    rows = F.unpack([sum(t << bits * (k + f - e) for f, t in ts)
                     & (1 << bits * n) - 1 for (k, ts), e in zip(Y, es)],
                    n, w8)
    if any(any(r[:-e]) for r, e in zip(rows, es)):
        return None
    y11, y21, y12, y22 = (r[-e] for r, e in zip(rows, es))
    return (y11, y12), (y21, y22)


def has_solver_shape(basis) -> bool:
    """Whether basis has the shape of hom_stack's, the only basis of its
    span of that shape: each element's first nonzero (k, j) coordinate is
    1, and their last nonzero (k, j) coordinates strictly increase, each
    zero in the other elements."""
    nz = [{(k, j): c for k, f in enumerate(b.lam)
           for j, c in enumerate(f) if c} for b in basis]
    last = [max(x, default=None) for x in nz]
    return all(next(iter(x.values()), 0) == 1 for x in nz) and \
        last == sorted(set(last)) and \
        not any(p in y for i, p in enumerate(last) for y in nz[i + 1:])


def hom(alg: AlgebraData, v: Vertex, w: Vertex) -> HomSet:
    """The set {gamma in Gamma : gamma.v = w} as a HomSet, the only
    single-pair solve: empty across parities of n, else hom_stack on one
    stack, of w over the bottom kernels of v alone at the level bound
    max(d_v, d_w) and the pair's height (d_v + d_w)/2, every basis
    element asserted (_assert_solution)."""
    if (v.n - w.n) % 2:
        return HomSet(alg.F, v, w, ())
    from .solver import bottom_kernels, hom_stack
    dv, dw = v.dist_to_base(), w.dist_to_base()
    bottom = bottom_kernels(alg, [v], max(dv, dw), [[w.n]],
                            (dv + dw) // 2)[0]
    hs = hom_stack(alg, [(v, [w], bottom)])[0][0]
    for gamma in hs.basis:
        _assert_solution(alg, gamma, v, w)
    return hs


def stability(ends: HomSet) -> str:
    """Stable iff the endomorphisms are just the scalars, whose solver
    basis is exactly (1,), unstable iff they form a quadratic field."""
    if ends.basis == (QUAT_ONE,):
        return "stable"
    if ends.dim == 2:
        return "unstable"
    raise AssertionError(f"End of {ends.source!r} is neither (1,) nor 2-dim")
