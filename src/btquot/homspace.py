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
the equations (_level_rows) through both kernels to the solution vectors
(_vector_to_quat).  The search solves a level at D = n, its largest
distance to the base vertex; hom solves a pair at D = (d_v + d_w)/2.

Any D >= (d_v + d_w)/2 gives the same basis.  Every solution vanishes on
the columns j > (d_v + d_w)/2 + o_k, so the solutions of a system at
height D are all the solutions, and a column dropped between two heights
is zero on all of them.  The solver's basis is the reduced echelon basis
of the solution space (has_solver_shape), fixed by the space and the
order of its columns; dropping columns zero on the whole space keeps the
order of the rest and that shape, so it drops them from the same basis,
and the quaternions do not change.

hom_stack solves stacks of one search level, which share its parity of
n: each stack a source v and its targets, for a candidate End(v) and
Hom(v, w') for the earlier candidates w' of its level still live when
its sibling group (the candidates of one frontier vertex) is solved, the
first nonzero one in candidate order its pairing.  A stack is solved at
its level's height D = n (the columns a pair does not need are zero on
every solution, see above); hom solves a single pair, empty across
parities.  Both work from arrays:

* entries: Y = pi^s Mw^(-1) iota(b_k) Mv, s = (n_w - n_v)/2: the
  column operation of Mv on one F_q grid of the basis entries
  (AlgebraData.basis_entries), pi^n_v an offset of the exponent and g_v
  a Toeplitz matrix of its coefficients, and shifts for the row operation
  of Mw^(-1), which leave g_w to F_q coefficients (see hom_stack).  The
  grid is taken at the least precision that knows every coefficient the
  equations read, computed from the level (_level_rows), so no entry
  runs short and nothing is retried;
* equations: row (entry, t), column (k, j), j <= D + o_k, holds the
  pi^(j - t) coefficient of Y_k, for every t >= 1 (the T^j coefficient
  of lam_k must not push that entry below O_infinity), read off in one
  Toeplitz gather;
* kernel, in two stages: per (v, n_w), for a batch of whole sibling
  groups of a level at its largest distance n to the base vertex
  (bottom_kernels, one build and one elimination per batch), the kernel
  K of the rows free of g_w (the bottom rows, and the top rows past n),
  and the other top rows' parts free of g_w projected onto K; then per
  target, those parts combined with g_w's coefficients
  by one F_q product and eliminated over dim K columns, the targets of
  a sibling group's stacks in one elimination, gathered from their
  batch's arrays (hom_stack).  Both stages eliminate by Gauss-Jordan
  with F_q table lookups, and the product runs on coordinate planes
  folded by the modulus, the same for prime and non-prime q.  Mapped
  back through K, the result is each system's reduced echelon kernel
  basis, which is unique, so it depends neither on how the rows were
  assembled nor on the other systems eliminated with it.

Solutions automatically have reduced norm in F_q^* and map v to w (the
determinant argument fixes the norm's valuation, and a unit of the order
with the right action is forced); both are asserted (_assert_solution),
never used as filters, once per kept basis: by hom, and by
QuotientGraph's builders on every End element and pairing unit,
computed or loaded, exactly and apart from the solver: by the
integrality of one matrix, whose reduction mod pi also gives the unit's
images of the source's neighbours.  A stable vertex keeps no End basis;
stability asserts it is exactly (1,).  A scalar unit lies in F_q^*, the
kernel of the action, so the check embeds none.

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
from functools import lru_cache

import numpy as np

from .algebra import (GF, ZERO_POLY, has_order, poly_add, poly_scale,
                      poly_trim, power, slot_bytes)
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
    w, (a, b, c, d), G = alg.embed_packed(g, prec, v.gcoeffs)
    bits = 8 * w * alg.F.fold.shape[1]
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

    The element c1*b1 + c2*b2 of the basis (b1, b2) of ends is coded by
    (c1, c2), read off any element at the echelon pivots of the basis
    (where one basis element has coefficient 1 and the other 0).  A
    quaternion whose pivot coefficients do not recombine to it is not
    in End(v).  The table is built once, from four products and one
    solution check of the generator (_assert_solution):

    * the multiplication constants, the codes of b_s * b_t;
    * gen, the first element in HomSet.elements() order with (q+1)-st
      power the scalar F.primitive_root(), so gen^(q^2 - 1) = 1, and of
      order q^2 - 1, by algebra.power and algebra.has_order on codes;
    * the code of gen^s for every s, each a product by gen and none by
      1, and its inverse, the discrete log;
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
        b1, b2 = ({(k, j): c for k, f in enumerate(b.lam)
                   for j, c in enumerate(f) if c} for b in ends.basis)
        self._pivots = [next(p for p, c in x.items() if c == 1 and p not in y)
                        for x, y in ((b1, b2), (b2, b1))]
        codes = [self._code(x) for x in (*(alg.mul(x, y) for x in ends.basis
                                           for y in ends.basis), QUAT_ONE)]
        if None in codes:
            raise AssertionError("End(v) must be a ring containing 1")
        *self._consts, one = codes
        central = tuple(F.mul(F.primitive_root(), c) for c in one)
        gen = next((c for c in itertools.product(F.elements(), repeat=2)
                    if power(self._mul, c, q + 1, one) == central
                    and has_order(self._mul, c, n, one)), None)
        if gen is None:
            raise RuntimeError(
                "no stabilizer generator with the prescribed central "
                "power; this indicates an arithmetic bug")
        self._powers = [one, *itertools.accumulate(
            itertools.repeat(gen, n - 1), self._mul)]
        self._log = {c: s for s, c in enumerate(self._powers)}
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
                key=lambda s: [rank[c] for c in self._powers[s]])
            for s0 in range(q + 1)]

    def _code(self, x: QuatElem):
        """(c1, c2) with x = c1*b1 + c2*b2, or None if x is not in End(v)."""
        c = tuple(x.lam[k][j] if j < len(x.lam[k]) else 0
                  for k, j in self._pivots)
        return c if self.ends.combination(c) == x else None

    def _mul(self, a, b):
        F = self.field
        out = (0, 0)
        for (s, t), (k1, k2) in zip(((0, 0), (0, 1), (1, 0), (1, 1)),
                                    self._consts):
            w = F.mul(a[s], b[t])
            out = (F.add(out[0], F.mul(w, k1)), F.add(out[1], F.mul(w, k2)))
        return out

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


def _level_rows(alg: AlgebraData, sources, n: int, ns, D: int):
    """The equations of the systems of each v in sources against each
    n_w in its list in ns, at height D: (systems, 2, 2, tmax, N), the
    pairs pi^(s - n_w) P1* and pi^(s - n) P2* (see hom_stack) of P =
    iota(b_k) Mv = [[pi^n_v a, b + g_v a], [pi^n_v c, d + g_v c]], row
    (rho, t) the equation of entry rho at t = 1..tmax, tmax down to the
    lowest nonzero exponent of any entry, and column (k, j) of the N =
    sum(_widths(alg, D)) columns the pi^(j - t) coefficient of series k,
    for j <= D + o_k only.  With top = D + m, the largest j, they read
    a, b, c, d below prec = top - min(s - n_w, s - n) - min(0, n_v,
    gval), the largest over the systems: the basis entries, taken at
    prec rounded up to 16 as embed rounds and asserted known to it, go
    on one grid of codes below it, on which pi^n_v and the shifts are
    offsets of the exponent and g_v a, g_v c one F_q product by a
    Toeplitz matrix of g_v's coefficients; one gather puts the entries
    on the exponents -tmax..top - 1 and one Toeplitz gather reads the
    equations, each coordinate's kept columns only."""
    F, widths = alg.F, _widths(alg, D)
    top = max(widths) - 1
    systems = [(i, v, u, (u - v.n) // 2)
               for i, (v, us) in enumerate(zip(sources, ns)) for u in us]
    prec = _within_cap(alg, max(top - min(s - u, s - n) - min(0, v.n, v.gval)
                                for _, v, u, s in systems), "hom system")
    entries = [e for row in alg.basis_entries(-(-prec // 16) * 16)
               for e in row]
    if min(e.prec for e in entries) < prec:
        raise AssertionError("basis embedding short of the hom systems' "
                             "precision")
    # exponent val stays zero, below every entry and product by a g_v;
    # the gather reads it for any lower exponent
    val = min(e.val for e in entries if e.coeffs) + \
        min(0, *(v.gval for v in sources)) - 1
    Z = np.zeros((16, prec - val), dtype=np.int64)
    for z, e in zip(Z, entries):
        if e.val < prec:  # not an exact zero, nor zero below prec
            cs = e.coeffs[:prec - e.val]
            z[e.val - val:][:len(cs)] = cs
    Z = Z.reshape(4, 4, -1)
    G = _toeplitz(sources, [v.gval for v in sources], Z.shape[2])
    # (b + g_v a, d + g_v c) for each v in sources
    right = F.tables()[0][Z[1::2], _fq_matmul(F, Z[None, ::2], G[:, None])]
    Y, vals = [], []
    for i, v, u, s in systems:
        for x, shift in enumerate((s - u, s - n)):
            Y += [Z[2 * x], right[i, x]]
            vals += [val + v.n + shift, val + shift]
    Y, vals = np.array(Y), np.array(vals)
    nonzero = Y.any(axis=1)
    tmax = top - int((nonzero.argmax(axis=1) + vals)[nonzero.any(axis=1)]
                     .min(initial=0))
    at = np.maximum(np.arange(-tmax, top) - vals[:, None], 0)
    window = Y[np.arange(len(Y))[:, None, None], np.arange(4)[:, None],
               at[:, None]]
    # column (k, j), in the one layout of _widths
    k = np.repeat(np.arange(4), widths)
    j = np.concatenate([np.arange(c) for c in widths])
    t = np.arange(1, tmax + 1)[:, None]
    A = window[:, k, j - t + tmax]
    return A.reshape(len(systems), 2, 2, tmax, len(k))


def _kernel_rows(F: GF, A, ncols: int):
    """Kernel bases of a stack of code matrices A[b] over F_q, as one
    (len(A), d, ncols) array: for each system one row per free column f
    of its reduced echelon form, in column order, with 1 at f and 0 at
    the other free columns, then zero rows up to d, the largest kernel
    dimension of the stack.  The reduced echelon form is unique, so
    neither the row order, nor redundant or zero rows, nor the other
    systems of the stack can change a system's rows; rows that are zero
    in every system are dropped first.

    One Gauss-Jordan elimination by F_q table lookups, the same for
    prime and non-prime q, runs over the whole stack, column by column.
    In every system the column takes a nonzero row of A as its pivot,
    and one gather from the table of a - f*b clears the column in every
    other row of every system; that zeroes the pivot row in A, so no row
    is chosen twice, and its normalized copy goes to the column's slot
    below A.  A system without a pivot picks the zero row put above A,
    which changes nothing.  Once its column is cleared, a column never
    changes again, so it is kept aside and the working matrix drops it.
    The working matrix holds the systems on its last axis, so that every
    broadcast of a row or a column runs along the stack, not along a
    short row.
    """
    _, mul, neg, inv = F.tables()
    q = F.q
    step = _step_table(F)
    A = A[:, A.any(axis=(0, 2))]
    B, R, _ = A.shape
    W = np.zeros((1 + R + ncols, ncols, B), dtype=np.int64)
    W[1:R + 1] = A.transpose(1, 2, 0)
    slots = np.empty((ncols, ncols, B), dtype=np.int64)
    systems = np.arange(B)
    for c in range(ncols):
        # codes are >= 0: argmax finds a nonzero entry, else the zero row
        prow = W[W[:R + 1, 0].argmax(axis=0), :, systems].T
        row = mul[inv[prow[0]], prow]
        at = W * (q * q)
        at += W[:, :1] * q
        at += row
        W = step.take(at)
        W[R + 1 + c] = row
        slots[:, c] = W[R + 1:, 0]
        W = W[:, 1:]
    slots = slots.transpose(2, 0, 1)
    # the row of free column f: 1 at f, minus f's entry in each pivot row
    free = np.diagonal(slots, axis1=1, axis2=2) == 0
    dims = free.sum(axis=1)
    d = np.arange(dims.max(initial=0))
    f = np.argsort(~free, axis=1, kind="stable")[:, d]
    K = neg[slots[systems[:, None], :, f]]
    K[systems[:, None], d, f] = 1
    return K * (d < dims[:, None])[..., None]


def _monic(F: GF, X):
    """The rows of X (along its last axis), each scaled so its first
    nonzero entry is 1; zero rows stay zero."""
    _, mul, _, inv = F.tables()
    rows = X.reshape(-1, X.shape[-1])
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return mul[inv[lead][:, None], rows].reshape(X.shape)


@lru_cache(maxsize=None)
def _step_table(F: GF):
    """step[(a*q + f)*q + b] = a - f*b, flattened."""
    add, mul, neg, _ = F.tables()
    return add[np.arange(F.q)[:, None, None], neg[mul][None]].ravel()


def _fq_matmul(F: GF, X, Y):
    """X @ Y over F_q for code arrays, stacked as np.matmul stacks them:
    the integer products of the coordinate planes of X and Y, plane i
    times plane j landing on x^(i+j), which GF.fold_products takes back
    to coordinates; for prime q, the integer product mod p."""
    planes = (np.take(F.digits.T, X, axis=1)[:, None]
              @ np.take(F.digits.T, Y, axis=1)[None])
    coords = (F.fold_products.reshape(F.e, -1)
              @ planes.reshape(F.e * F.e, -1) % F.p)
    return (F.place @ coords).reshape(planes.shape[2:])


def _vector_to_quat(vec, widths) -> QuatElem:
    """The quaternion of a solution vector, lam_k on the widths[k]
    columns of coordinate k (_widths)."""
    ends = itertools.accumulate(widths)
    return QuatElem(tuple(poly_trim(tuple(vec[e - c:e]))
                          for c, e in zip(widths, ends)))


def _assert_solution(alg: AlgebraData, gamma: QuatElem, v: Vertex,
                     w: Vertex, *more: Vertex) -> list[Vertex]:
    """Assert that gamma is a unit within the height bound mapping v to
    w, deg lam_k <= (d_v + d_w)/2 + o_k (the module docstring's); return
    its images of the vertices more, each asserted a tree neighbour of v
    (a scalar unit embeds none and returns more as is).

    gamma.v = w exactly when Y = pi^s Mw^(-1) iota(gamma) Mv, s = (n_w -
    n_v)/2, is integral: det Y = nrd(gamma) in F_q^* puts an integral Y
    in GL_2(O_infinity), and iota(gamma) Mv = lambda Mw U, U in there,
    forces 2 v(lambda) = n_v - n_w and Y = pi^s lambda U.  Ybar = Y mod
    pi maps the line of a neighbour of v in L_v / pi L_v = P^1(F_q), on
    Mv's columns (1, 0) up and (alpha, 1) down with alpha, to the line
    of its image next to w (Serre, Trees, ch. II.1).  Y is iota(gamma)
    Mv by columns, then row operations, from iota(gamma) at the least
    precision that knows Y below pi^1,
    P = 1 - s - min(n_v, g-_v) - min(0, g-_w - n_w), g- = min(0, v(g)):
    each entry of Y a sum of products of a, b, c, d, g_v and -g_w, all
    in one pass of GF's packed kernel, one pack and one unpack."""
    if not alg.is_unit(gamma):
        raise AssertionError("hom solution is not a unit of the order")
    bound = _widths(alg, (v.dist_to_base() + w.dist_to_base()) // 2)
    if any(len(lam) > c for lam, c in zip(gamma.lam, bound)):
        raise AssertionError("hom solution violates the height bound")
    if (v.n - w.n) % 2 or not any(gamma.lam[1:]):
        if (v.n - w.n) % 2 or v != w:
            raise AssertionError("hom solution does not map source to target")
        return list(more)
    F, s = alg.F, (w.n - v.n) // 2
    prec = _within_cap(alg, 1 - s - min(v.n, v.gval, 0)
                       - min(0, w.gval - w.n, -w.n), "check")
    ents = alg.embed(gamma, prec).entries()
    lo = min(x.val for x in ents if x.coeffs)
    w8 = slot_bytes(4 * F.e ** 2 * (F.p - 1) ** 3 * (prec - lo)
                    * (len(v.gcoeffs) + 1) * (len(w.gcoeffs) + 1))
    bits = 8 * w8 * F.fold.shape[1]
    # a, b, c, d from pi^lo, known below pi^prec; g_v and -g_w, exact
    A, B, C, D, G, H = F.pack([*((0,) * (x.val - lo) + x.coeffs[:prec - x.val]
                                 if x.val < prec else () for x in ents),
                               v.gcoeffs, [F.neg(t) for t in w.gcoeffs]], w8)
    gv, gw = v.gval, w.gval
    # Y_11, Y_21, Y_12, Y_22: pi^(lo + k) times a sum of terms t from
    # pi^f, so known below pi^(prec + k + f) for the least f; each read
    # from pi^e, e that exponent or 0 if lower
    Y = [(s - w.n + v.n, [(A, 0), (H * C, gw)]), (s + v.n, [(C, 0)]),
         (s - w.n, [(A * G, gv), (B, 0), (H * C * G, gv + gw), (H * D, gw)]),
         (s, [(C * G, gv), (D, 0)])]
    es = [min(0, lo + k + min(f for _, f in ts)) for k, ts in Y]
    if min(prec - lo + e for e in es) < 1:
        raise AssertionError("solution check short of precision")
    # row i of an entry holds its pi^(e + i) coefficient, e in es
    n = max(1 - e for e in es)
    rows = F.unpack([sum(t << bits * (lo + k + f - e) for t, f in ts)
                     & (1 << bits * n) - 1 for (k, ts), e in zip(Y, es)],
                    n, w8).tolist()
    if any(any(r[:-e]) for r, e in zip(rows, es)):
        raise AssertionError("hom solution does not map source to target")
    ys = [r[-e] for r, e in zip(rows, es)]
    Ybar = (ys[0::2], ys[1::2])
    up, images = up_neighbor(v), []
    for u in more:
        # u's line: (1, 0) up, (alpha, 1) for alpha its pi^n_v digit
        x, y = (1, 0) if u == up else \
            (dict(enumerate(u.gcoeffs, u.gval)).get(v.n, 0), 1)
        if y and u != down_neighbor(v, x):
            raise AssertionError("vertex and source are not tree neighbours")
        top, bottom = (F.add(F.mul(r, x), F.mul(t, y)) for r, t in Ybar)
        images.append(down_neighbor(w, F.mul(top, F.inv(bottom)))
                      if bottom else up_neighbor(w))
    return images


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


# hom systems eliminated together in stage 2: a sibling group's stacks
# are solved in consecutive pieces of at most this many systems (one
# stack more if a stack alone has more), enough to share the per-column
# cost, few enough that a group of long stacks keeps the peak RSS
_PIECE = 256


def _toeplitz(vertices, offsets, size: int):
    """For each vertex, g = sum_i c_i pi^(gval + i), and its offset o, the
    size x size matrix M[t, u] = c_i for u = t + o + i, so that x M holds
    the coefficients of x pi^o sum_i c_i pi^i below the size-th; o + i
    stays within 1 - size..size - 1."""
    band = np.zeros((len(vertices), 2 * size), dtype=np.int64)
    for row, v, o in zip(band, vertices, offsets):
        row[size - 1 + o:][:len(v.gcoeffs)] = v.gcoeffs
    return band[:, np.arange(size) - np.arange(size)[:, None] + size - 1]


def bottom_kernels(alg: AlgebraData, sources, n: int, ns,
                   D: int | None = None) -> list:
    """The only build of hom systems: for each v in sources (all within
    distance n of the base vertex), (n, D, rows, parts) at height D,
    by default n, the search's: on the columns of _widths(alg, D), which
    serve a target w of v only if d_v + d_w <= 2D (hom_stack asserts
    it).  parts = (K, B' K^t, C K^t, dims), with K, B' and C as in
    hom_stack and dims the kernel dimensions (the nonzero rows of K,
    which come first), are stacks over the systems of every source, the
    same tuple in every entry; rows[n_w] is v's system for each n_w in
    its list in ns (each of v's parity).  The sources are built by one
    _level_rows call, at the precision it computes, and eliminated in
    one stack; the search asks for whole sibling groups at a time."""
    D = n if D is None else D
    if any((v.n - u) % 2 for v, us in zip(sources, ns) for u in us):
        raise AssertionError("bottom kernels asked across parities of n")
    if max(v.dist_to_base() for v in sources) > n:
        raise AssertionError("bottom kernels below a source's bound")
    F = alg.F
    A = _level_rows(alg, sources, n, ns, D)
    N = A.shape[-1]
    # the rows t > n of B and of Eq(pi^(s - n) P2*), free of g_w
    K = _kernel_rows(F, A[..., n:, :].reshape(len(A), -1, N), N)
    XK = _fq_matmul(F, A[..., :n, :], K.transpose(0, 2, 1)[:, None, None])
    parts = (K, XK[:, 0], XK[:, 1], K.any(axis=2).sum(axis=1))
    first = itertools.accumulate(map(len, ns), initial=0)
    return [(n, D, dict(zip(us, itertools.count(lo))), parts)
            for us, lo in zip(ns, first)]


@dataclass(frozen=True, eq=False)
class StackHoms:
    """The hom sets of one stack of hom_stack, in target order: dims[k]
    is the dimension of Hom(source, targets[k]), and self[k] its HomSet,
    built from row k of vectors (its basis rows, zero rows between them,
    on the columns widths of _widths) only when asked for: the search
    reads End and its pairing hits."""

    field: GF
    source: Vertex
    targets: list
    widths: tuple
    vectors: np.ndarray
    dims: list

    def __getitem__(self, k: int) -> HomSet:
        return HomSet(self.field, self.source, self.targets[k], tuple(
            _vector_to_quat(x, self.widths) for x in self.vectors[k].tolist()
            if any(x)))


def hom_stack(alg: AlgebraData, stacks) -> list[StackHoms]:
    """Hom(v, w) for every w in targets of every stack (v, targets,
    bottom), in order, bases not yet checked.  bottom is v's entry of
    one bottom_kernels call, the same call for every stack, at a level
    bound n at least the distance of every target to the base vertex
    and a height D with d_v + d_w <= 2D for every target w; the targets
    are of v's parity of n.  Consecutive stacks are solved together, in
    pieces of at most _PIECE systems (one per target) but a single
    stack, each by one elimination.

    They are solved on the columns of bottom's height D.  With s = (n_w
    - n_v)/2 and Eq(X)[t] the equation rows t >= 1 of an entry pair X
    (so Eq(pi^a X)[t] = Eq(X)[t + a]), the system of (v, w) has the top
    rows T(w) = Eq(pi^(s - n_w) (P1* - g_w P2*)) and the bottom rows
    Eq(pi^s P2*), the rows t > n of Eq(pi^(s - n) P2*), whose rows t <= n
    form C.

    For g_w = sum_i c_i pi^(gval + i), T(w) = B - sum_i c_i Eq(pi^(s -
    n_w + gval + i) P2*), B = Eq(pi^(s - n_w) P1*), whose row t is row n
    + t + gval + i - n_w of Eq(pi^(s - n) P2*): past t = n_w - gval - i
    a bottom row, and up to it a row of C, at least n + 1 - deg_n(g_w)
    >= 1 as deg_n(g_w) = n_w - gval <= dist(w) <= n.  So the rows t > n
    of T(w) are B's plus bottom rows, whatever g_w is.  Per n_w, bottom
    holds the kernel rows K of the bottom rows and B's rows t > n (row i
    has 1 at the free column f_i of their reduced echelon form, 0 at the
    other free columns, nothing past f_i), B' K^t for B' the rows t <= n
    of B, and C K^t.  T(w) K^t is zero past row n, and up to it B' K^t
    minus a Toeplitz matrix of g_w's coefficients (built once per call,
    for each distinct target) times C K^t, one F_q product for the
    piece, and one elimination of it gives y, x = y K for every solution
    x.  The piece keeps the rows of K up to its widest kernel; a zero row of
    a system's K among them is a zero column of T(w) K^t, whose kernel
    row maps to x = 0, dropped.  Only the systems with a kernel row are
    mapped back through their K.

    x = y K, scaled to leading coefficient 1, is the reduced echelon
    kernel basis of the whole system.  Added rows only add pivots, so
    its free columns are among the f_i, and x_(f_i) = y_i.  A kernel
    vector supported on the columns up to f_i is y K with y_i' = 0 for
    i' > i, so f_i is free in the system exactly when i is free in T
    K^t, whose kernel row for i (1 at i, 0 at its other free columns)
    maps to the system's own for f_i.  It is unique, so the piece does
    not change it.

    A pair (v, w) with d_v + d_w < 2D, a target nearer the base vertex
    than the level's farthest or the source itself, gets the basis of
    its own height (d_v + d_w)/2: every solution vanishes on the columns
    j > (d_v + d_w)/2 + o_k (asserted by _assert_solution), which the
    columns of D add, and the reduced echelon basis does not change when
    they are dropped (module docstring).
    """
    # row indices of one call's parts point into that call's arrays only
    n, D, _, parts = stacks[0][2]
    if any(bottom[3] is not parts for _, _, bottom in stacks):
        raise AssertionError("hom stacks of two bottom_kernels calls")
    if any((v.n - w.n) % 2 for v, targets, _ in stacks for w in targets):
        raise AssertionError("hom stack asked across parities of n")
    # the distinct targets, and each system's among them
    index: dict = {}
    at = [index.setdefault(w, len(index))
          for _, targets, _ in stacks for w in targets]
    dist = np.array([w.dist_to_base() for w in index])
    if dist.max() > n:
        raise AssertionError("hom stack target farther than its bottom "
                             "kernels' bound from the base vertex")
    if (dist[at] + np.repeat([v.dist_to_base() for v, _, _ in stacks],
                             [len(t) for _, t, _ in stacks])).max() > 2 * D:
        raise AssertionError("hom stack pair beyond its bottom kernels' "
                             "height")
    # G[t, u] = -c_i for u = n + t + gval + i - n_w (see above)
    G = alg.F.tables()[2][_toeplitz(list(index),
                                    [n - w.degn() for w in index], n)]
    out, piece, lo, hi = [], [], 0, 0
    for stack in stacks:
        if piece and hi + len(stack[1]) - lo > _PIECE:
            out += _solve_piece(alg, piece, G[at[lo:hi]])
            piece, lo = [], hi
        piece.append(stack)
        hi += len(stack[1])
    return out + _solve_piece(alg, piece, G[at[lo:hi]])


def _solve_piece(alg: AlgebraData, stacks, G) -> list[StackHoms]:
    """hom_stack on one piece of stacks, by one elimination; G holds the
    Toeplitz matrix of each system's target."""
    F = alg.F
    add = F.tables()[0]
    _, D, _, (Ks, BKs, CKs, kdims) = stacks[0][2]
    sel = np.array([rows[w.n] for _, targets, (_, _, rows, _) in stacks
                    for w in targets])
    # a kernel's nonzero rows come first: the piece needs d of them
    d = int(kdims[sel].max())
    TK = add[BKs[sel, ..., :d], _fq_matmul(F, G[:, None], CKs[sel, ..., :d])]
    Y = _kernel_rows(F, TK.reshape(len(sel), -1, d), d)
    # only systems with a kernel row are mapped back through their K
    hit = np.flatnonzero(Y.any(axis=(1, 2)))
    X = np.zeros((len(sel), Y.shape[1], Ks.shape[2]), dtype=np.int64)
    X[hit] = _monic(F, _fq_matmul(F, Y[hit], Ks[sel[hit], :d]))
    dims = X.any(axis=2).sum(axis=1)
    if dims.max() > 2:
        raise AssertionError(f"hom space has impossible dimension "
                             f"{dims.max()}")
    first = itertools.accumulate((len(t) for _, t, _ in stacks), initial=0)
    widths = _widths(alg, D)
    return [StackHoms(F, v, targets, widths, X[lo:lo + len(targets)],
                      dims[lo:lo + len(targets)].tolist())
            for (v, targets, _), lo in zip(stacks, first)]


def hom(alg: AlgebraData, v: Vertex, w: Vertex) -> HomSet:
    """The set {gamma in Gamma : gamma.v = w} as a HomSet, the only
    single-pair solve: empty across parities of n, else hom_stack on one
    stack, of w over the bottom kernels of v alone at the level bound
    max(d_v, d_w) and the pair's height (d_v + d_w)/2, every basis
    element asserted (_assert_solution)."""
    if (v.n - w.n) % 2:
        return HomSet(alg.F, v, w, ())
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
