"""Equivariant hom sets between tree vertices, by exact linear algebra.

For vertices v, w of the tree, Hom(v, w) = {gamma in Gamma : gamma.v = w}
together with 0 is an F_q-vector space of dimension 0, 1 or 2 inside the
quaternion algebra.  Writing a candidate's four order-basis coordinates
as polynomials lam_k of degree <= nm = n + m (the height bound; n is the
larger of the two distances to the base vertex, m = deg(alpha)/2), the
condition gamma.v = w is equivalent to

    pi^((n_w - n_v)/2) * Mw^(-1) * iota(gamma) * Mv  in  M_2(O_infinity),

where Mv = [[pi^n_v, g_v], [0, 1]] and Mw are the exact vertex matrices.
The map is linear in gamma, so the condition is a linear system over
F_q in the 4(nm + 1) polynomial coefficients.

hom_stack solves one source v against targets w of one search level,
which share v's parity of n: for each candidate, End(v) and Hom(v, w')
for every live earlier candidate w' of its level, the first nonzero one
in candidate order its pairing.  A stack is solved at the level's
height bound (a larger one than a pair needs adds only pivot columns,
see hom_stack); hom solves a single pair, empty across parities.  Both
work from arrays:

* entries: Y = pi^s Mw^(-1) iota(b_k) Mv, s = (n_w - n_v)/2, as two
  exact factors on the packed rows of the basis embedding
  (AlgebraData.packed_basis): the column operation of Mv, then the row
  operation of Mw^(-1), which leaves the bottom row free of g_w.  One
  unpack puts them on a common exponent grid with the Laurent
  precision rule alongside; an entry known below pi^nm only raises
  InsufficientPrecisionError, and the build is retried at doubled
  precision;
* equations: row (entry, t), column (k, j) holds the pi^(j - t)
  coefficient of Y_k, for every t >= 1 (the T^j coefficient of lam_k
  must not push that entry below O_infinity), read off in one Toeplitz
  gather;
* kernel, in two stages: the kernel K of the bottom rows once per
  (v, n_w), for a whole level at its largest distance to the base
  vertex (bottom_kernels), then each target's top rows projected onto
  K by one F_q product and eliminated over dim K columns.  Both are one
  Gauss-Jordan elimination by F_q table lookups, and the product runs
  on coordinate planes folded by the modulus, the same for prime and
  non-prime q.  Mapped back through K, the result is each system's
  reduced echelon kernel basis, which is unique, so it depends neither
  on how the rows were assembled nor on the other systems of the stack.

Solutions automatically have reduced norm in F_q^* and map v to w (the
determinant argument fixes the norm's valuation, and a unit of the order
with the right action is forced); both are asserted (_assert_solution),
never used as filters, once per kept basis: by hom, and by
QuotientGraph's builders on every End element and pairing unit,
computed or loaded.  A stable vertex keeps no End basis; stability
asserts it is exactly (1,).  A scalar unit lies in F_q^*, the kernel of
the action, so the check embeds none.  A dimension above 2 is asserted
against on every system of every stack.

The action of a unit g on tree vertices is transport_all, the only code
that embeds a unit and acts with it: one embedding iota(g) per precision
tried, applied to every vertex asked for by tree.act, which relies on
det iota(g) = nrd(g) being a nonzero constant and so forms no
determinant and no full matrix product.  The solution check, which
also returns g's images of further vertices, the stabilizer tables and
reduction all go through it, each with a unit (see transport_all).

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

from .algebra import (GF, ZERO_POLY, _prime_divisors, poly_add, poly_neg,
                      poly_scale, poly_trim, slot_bytes)
from .laurent import InsufficientPrecisionError
from .quaternion import QUAT_ONE, AlgebraData, QuatElem, height
from .tree import Vertex, act, neighbors, retry_with_precision


def transport(alg: AlgebraData, g: QuatElem, v: Vertex) -> Vertex:
    """The vertex g . v, retrying the embedding at higher precision."""
    return transport_all(alg, g, (v,))[0]


def transport_all(alg: AlgebraData, g: QuatElem, vs) -> list[Vertex]:
    """The vertices g . v for v in vs, from one embedding of g per
    precision tried.

    g must be a unit of the order (nrd(g) in F_q^*): tree.act reads the
    valuation of the determinant off that, and a non-unit gives a wrong
    vertex, not an error.  It is not checked here; every caller upholds
    it.  _assert_solution and express_in_generators check is_unit
    before they transport; the stabilizer generator and its powers are
    nonzero elements of End(v), whose nonzero elements are all units;
    reduction steps and transporters are products and inverses of those
    and of checked pairing units.
    """
    start = 4 * (height(g) + alg.m + max(abs(v.n) for v in vs) + 4)

    def images(prec):
        M = alg.embed(g, prec)
        return [act(M, v) for v in vs]

    return retry_with_precision(images, start, alg.precision_cap)


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
    transport_all of the generator:

    * the multiplication constants, the codes of b_s * b_t;
    * gen, the first element in HomSet.elements() order with (q+1)-st
      power the scalar F.primitive_root(), so gen^(q^2 - 1) = 1, and of
      order q^2 - 1 (no gen^((q^2 - 1)/d) = 1, d prime), on codes;
    * the code of gen^s for every s, and its inverse, the discrete log;
    * the cycle that gen induces on the neighbours of v.  The scalars
      fix every vertex, and End(v)^*/F_q^* (cyclic of order q+1) acts
      simply transitively on the neighbours, so the cycle has length
      q+1, and gen^s maps the neighbour t to u exactly for the s in one
      class modulo q+1: a coset c * gen^s0, c in F_q^*.
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
        self._one = one
        central = tuple(F.mul(F.primitive_root(), c) for c in one)
        gen = next((c for c in itertools.product(F.elements(), repeat=2)
                    if self._pow(c, q + 1) == central
                    and all(self._pow(c, n // d) != one
                            for d in _prime_divisors(n))), None)
        if gen is None:
            raise RuntimeError(
                "no stabilizer generator with the prescribed central "
                "power; this indicates an arithmetic bug")
        self._powers = [one]
        for _ in range(n - 1):
            self._powers.append(self._mul(self._powers[-1], gen))
        self._log = {c: s for s, c in enumerate(self._powers)}
        self.gen = ends.combination(gen)

        nbrs = neighbors(F, ends.source)
        image = dict(zip(nbrs, transport_all(alg, self.gen, nbrs)))
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

    def _pow(self, a, k: int):
        acc = self._one
        while k:
            if k & 1:
                acc = self._mul(acc, a)
            a = self._mul(a, a)
            k >>= 1
        return acc

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


def _add_times(x, g, y, bits: int):
    """The packed row x + g * y, for rows (val, prec, ints) of four
    series from pi^val, known below prec (their least precision), and g
    = (val, int) exact; the Laurent rule gives the precision."""
    gval, gi = g
    if not gi:
        return x
    (vx, px, xs), (vy, py, ys) = x, y
    v = min(vx, gval + vy)
    sx, sy = bits * (vx - v), bits * (gval + vy - v)
    return v, min(px, py + gval), [(a << sx) + (gi * b << sy)
                                   for a, b in zip(xs, ys)]


def _shift(x, k: int):
    """The packed row pi^k * x."""
    return x[0] + k, x[1] + k, x[2]


def _column_op(alg: AlgebraData, v: Vertex, gv: int, w: int, prec: int):
    """The packed rows ((P11, P12), (P21, P22)) of P = iota(b_k) Mv =
    [[pi^n_v a, b + g_v a], [pi^n_v c, d + g_v c]] at slot width w, for
    iota(b_k) = [[a, b], [c, d]] and gv = g_v packed."""
    _, rows = alg.packed_basis(prec, w)
    a, b, c, d = ((vb, min(pr for pr, _ in row), [x for _, x in row])
                  for vb, row in rows)
    bits = 8 * w * alg.F.fold.shape[1]
    return ((_shift(a, v.n), _add_times(b, (v.gval, gv), a, bits)),
            (_shift(c, v.n), _add_times(d, (v.gval, gv), c, bits)))


def _equations(F: GF, entries, nm: int, w: int):
    """The equations of packed entries Y, two per system, as a stack
    (len(entries) / 2, 2 tmax, 4(nm + 1)): row (rho, t), column (k, j)
    holds the pi^(j - t) coefficient of series k of the system's entry
    rho, t = 1..tmax.  One unpack puts the entries on a common exponent
    grid and one Toeplitz gather reads them; tmax reaches the lowest
    exponent of any entry, so a row past a system's own range is zero.
    Raises InsufficientPrecisionError when an entry is known below pi^nm
    only."""
    if min(pr for _, pr, _ in entries) < nm:
        raise InsufficientPrecisionError(
            "system matrix below required precision")
    bits = 8 * w * F.fold.shape[1]
    yval = min(vy for vy, _, _ in entries)
    n = max(0, nm - yval)  # the window reads no exponent from nm on
    flat = [x << bits * (vy - yval) & (1 << bits * n) - 1
            for vy, _, xs in entries for x in xs]
    Y = F.unpack(flat, n, w).reshape(len(entries), 4, n)
    nonzero = Y.any(axis=(0, 1)).nonzero()[0]
    vmin = min(0, yval + int(nonzero[0])) if len(nonzero) else 0
    tmax = nm - vmin
    # exponents j - t run over [-tmax, nm); pad Y onto that window
    window = np.zeros((len(entries), 4, nm + tmax), dtype=np.int64)
    lo, hi = max(-tmax, yval), min(nm, yval + n)
    if lo < hi:
        window[..., lo + tmax:hi + tmax] = Y[..., lo - yval:hi - yval]
    t = np.arange(1, tmax + 1)[:, None]
    j = np.arange(nm + 1)[None, :]
    A = window[..., j - t + tmax].transpose(0, 2, 1, 3)
    return A.reshape(len(entries) // 2, 2 * tmax, 4 * (nm + 1))


def _top_rows(alg: AlgebraData, v: Vertex, ws, nm: int, prec: int):
    """The top rows of the system of v against each w in ws.
    Mw^(-1) = [[pi^(-n_w), -pi^(-n_w) g_w], [0, 1]] changes only the top
    row of P: with s = (n_w - n_v)/2, Y1* = pi^(s - n_w) (P1* - g_w P2*),
    and Y2* = pi^s P2* depends on w only through n_w (_bottom_rows).
    A digit of iota(b_k) is below p and a product by g sums at most e L
    products of a slot by a digit of g (L its coefficient count), so a
    slot of P is below B = (p-1)(1 + e(p-1)L_v), and of Y1* below
    B (1 + e(p-1)L_w)."""
    F = alg.F
    w = slot_bytes((F.p - 1) * (1 + F.e * (F.p - 1) * len(v.gcoeffs))
                   * (1 + F.e * (F.p - 1)
                      * max(len(u.gcoeffs) for u in ws)))
    gv, *ngw = F.pack([v.gcoeffs, *(poly_neg(F, u.gcoeffs) for u in ws)], w)
    top, bottom = _column_op(alg, v, gv, w, prec)
    bits = 8 * w * F.fold.shape[1]
    return _equations(F, [
        _shift(_add_times(x, (u.gval, gw), y, bits), (u.n - v.n) // 2 - u.n)
        for u, gw in zip(ws, ngw) for x, y in zip(top, bottom)], nm, w)


def _bottom_rows(alg: AlgebraData, sources, ns, nm: int, prec: int):
    """The bottom rows Y2* = pi^s P2* of the system of v against a
    target at each n in ns, for every v in sources, in order; a slot is
    below the bound of P's (see _top_rows)."""
    F = alg.F
    w = slot_bytes((F.p - 1) * (1 + F.e * (F.p - 1)
                                * max(len(v.gcoeffs) for v in sources)))
    entries = []
    for v, gv in zip(sources, F.pack([v.gcoeffs for v in sources], w)):
        _, bottom = _column_op(alg, v, gv, w, prec)
        entries += [_shift(y, (n - v.n) // 2) for n in ns for y in bottom]
    return _equations(F, entries, nm, w)


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
    """
    _, mul, neg, inv = F.tables()
    q = F.q
    step = _step_table(F)
    A = A[:, A.any(axis=(0, 2))]
    B, R, _ = A.shape
    W = np.zeros((B, 1 + R + ncols, ncols), dtype=np.int64)
    W[:, 1:R + 1] = A
    slots = np.empty((B, ncols, ncols), dtype=np.int64)
    systems = np.arange(B)
    for c in range(ncols):
        # codes are >= 0: argmax finds a nonzero entry, else the zero row
        prow = W[systems, W[:, :R + 1, 0].argmax(axis=1)]
        row = mul[inv[prow[:, 0]][:, None], prow]
        W = step[W * (q * q) + W[:, :, :1] * q + row[:, None, :]]
        W[:, R + 1 + c] = row
        slots[:, :, c] = W[:, R + 1:, 0]
        W = W[:, :, 1:]
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


def _vector_to_quat(vec, nm: int) -> QuatElem:
    return QuatElem(tuple(poly_trim(tuple(vec[k * (nm + 1):][:nm + 1]))
                          for k in range(4)))


def _assert_solution(alg: AlgebraData, gamma: QuatElem, v: Vertex,
                     w: Vertex, *more: Vertex) -> list[Vertex]:
    """Assert that gamma is a unit within the height bound mapping v to
    w; return its images of the vertices more, from the same embedding
    (none for a scalar unit, which fixes every vertex)."""
    nm = max(v.dist_to_base(), w.dist_to_base()) + alg.m
    if not alg.is_unit(gamma):
        raise AssertionError("hom solution is not a unit of the order")
    if height(gamma) > nm:
        raise AssertionError("hom solution violates the height bound")
    vs = (v, *more)
    image, *images = (transport_all(alg, gamma, vs) if any(gamma.lam[1:])
                      else vs)
    if image != w:
        raise AssertionError("hom solution does not map source to target")
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


# sources whose bottom rows are built and eliminated together: enough to
# share the elimination's per-column cost across a search level, and few
# enough that its working arrays, (1 + R + N) N int64 per system, stay
# small next to the rest of a compute (a whole level of q5-192 at once
# doubled the peak RSS)
_CHUNK = 32


def _start_precision(alg: AlgebraData, n: int) -> int:
    """The precision a system at the height bound n + m is first built
    at (raised by retry_with_precision while an entry runs short)."""
    return 2 * n + max(alg.ram.d, alg.m) + alg.m + 1


def bottom_kernels(alg: AlgebraData, sources, n: int, ns) -> list:
    """The first stage of hom_stack, for a search level: for each v in
    sources, (n, {n_w: K}), K the kernel rows (_kernel_rows) of the
    bottom rows of v against a target at n_w, for each n_w in ns, at the
    height bound n + m.  Every n_w must have each source's parity (a
    level's vertices share one).  _CHUNK sources at a time are built
    together, retried at doubled precision while any runs short, and
    eliminated in one stack."""
    if any((v.n - u) % 2 for v in sources for u in ns):
        raise AssertionError("bottom kernels asked across parities of n")
    out = []
    for i in range(0, len(sources), _CHUNK):
        part = sources[i:i + _CHUNK]
        A = retry_with_precision(
            lambda prec: _bottom_rows(alg, part, ns, n + alg.m, prec),
            _start_precision(alg, n), alg.precision_cap)
        rows = iter(_kernel_rows(alg.F, A, A.shape[2]))
        out += [(n, {u: next(rows) for u in ns}) for _ in part]
    return out


def hom_stack(alg: AlgebraData, v: Vertex, targets,
              bottom) -> list[HomSet]:
    """Hom(v, w) for every w in targets, in order, bases not yet checked.
    bottom is v's entry of bottom_kernels for a search level that holds
    v and these targets, all of v's parity of n.

    They are solved at the height bound nm = n + m of bottom, n at least
    the largest distance to the base vertex among v and them.  Their
    bottom rows depend on w only through n_w (see _top_rows), and bottom
    holds their kernel rows K per n_w: row i has 1 at the free column
    f_i of their reduced echelon form, 0 at the other free columns, and
    nothing past f_i.  Every solution is x = y K, so one elimination of
    the projected top rows T K^t (built once, retried as a whole at
    doubled precision while any runs short) gives y.  K is padded with
    zero rows to the widest kernel eliminated with it; those zero in
    every target are dropped, and any other is a zero column of T K^t,
    whose kernel row maps to x = 0 and is dropped.

    x = y K, scaled to leading coefficient 1, is the reduced echelon
    kernel basis of the whole system.  Added rows only add pivots, so
    its free columns are among the f_i, and x_(f_i) = y_i.  A kernel
    vector supported on the columns up to f_i is y K with y_i' = 0 for
    i' > i, so f_i is free in the system exactly when i is free in T
    K^t, whose kernel row for i (1 at i, 0 at its other free columns)
    maps to the system's own for f_i.

    A target nearer the base vertex than the level's farthest gets the
    basis of its own bound nm_w: every solution has height <= nm_w
    (asserted by _assert_solution), so the columns j > nm_w are pivot
    columns, and the reduced echelon basis is unique.  A dimension above
    2 is asserted against on every system.
    """
    F = alg.F
    if any((v.n - w.n) % 2 for w in targets):
        raise AssertionError("hom stack asked across parities of n")
    n, kernels = bottom
    if max(u.dist_to_base() for u in (v, *targets)) > n:
        raise AssertionError("bottom kernels below the stack's bound")
    nm = n + alg.m
    T = retry_with_precision(
        lambda prec: _top_rows(alg, v, targets, nm, prec),
        _start_precision(alg, n), alg.precision_cap)
    K = np.stack([kernels[u.n] for u in targets])
    K = K[:, K.any(axis=(0, 2))]
    Y = _kernel_rows(F, _fq_matmul(F, T, K.transpose(0, 2, 1)), K.shape[1])
    X = _monic(F, _fq_matmul(F, Y, K))
    dim = X.any(axis=2).sum(axis=1).max()
    if dim > 2:
        raise AssertionError(f"hom space has impossible dimension {dim}")
    return [HomSet(F, v, w, tuple(_vector_to_quat(x, nm) for x in xs
                                  if any(x)))
            for w, xs in zip(targets, X.tolist())]


def hom(alg: AlgebraData, v: Vertex, w: Vertex) -> HomSet:
    """The set {gamma in Gamma : gamma.v = w} as a HomSet, the only
    single-pair solve: empty across parities of n, else hom_stack on its
    own bottom kernels, every basis element asserted (_assert_solution)."""
    if (v.n - w.n) % 2:
        return HomSet(alg.F, v, w, ())
    far = max(v.dist_to_base(), w.dist_to_base())
    (hs,) = hom_stack(alg, v, [w], bottom_kernels(alg, [v], far, [w.n])[0])
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
