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

The solver works on stacks: one source v against a list of targets w
(hom_stack).  The quotient search asks, for each candidate, for End(v)
and Hom(v, w') for every live earlier candidate w' of its level, and
takes the first nonzero one in candidate order as its pairing, so one
stack serves the whole candidate.  Targets of the other parity are
empty; the rest are one stack, built and solved at once at the largest
n among them (a larger height bound than a pair needs adds only pivot
columns, see hom_stack), from arrays:

* columns: the images Y_k of the four basis elements, two exact
  factors on the packed rows of the basis embedding
  (AlgebraData.packed_basis): the column operation of Mv once per
  stack, the row operation of Mw^(-1) once per target, then one unpack
  of every entry onto a common exponent grid, with the Laurent
  precision rule carried alongside (see _system_stack).  A column known
  below pi^nm only raises InsufficientPrecisionError, and the whole
  stack is retried at doubled precision;
* equations: row (entry, t), column (k, j) holds the pi^(j - t)
  coefficient of Y_k, for every t >= 1 (the T^j coefficient of lam_k
  must not push that entry below O_infinity), read off for every
  target in one Toeplitz gather;
* kernel: one Gauss-Jordan elimination by F_q table lookups over the
  stack, the same for prime and non-prime q.  Each system's reduced
  echelon basis is unique, so the answer depends neither on how the
  rows were assembled nor on the other systems of the stack.

Solutions automatically have reduced norm in F_q^* and map v to w (the
determinant argument fixes the norm's valuation, and a unit of the order
with the right action is forced); both facts are asserted (verified),
never used as filters: on every basis hom returns, in the quotient
search on End(v) and (in QuotientGraph._add_pairing) on the pairing it
takes, and on every label of a loaded graph.  A scalar unit (every End
basis holds 1) lies in F_q^*, the kernel of the action, so the check
embeds none: it fixes every vertex.  A dimension above 2 is asserted
against on every system of every stack.

The action of a unit g on tree vertices is transport_all, the only code
that embeds a unit and acts with it: one embedding iota(g) per precision
tried, applied to every vertex asked for by tree.act, which relies on
det iota(g) = nrd(g) being a nonzero constant and so forms no
determinant and no full matrix product.  The solution check, the
stabilizer tables, reduction and the checks of a loaded graph all go
through it, each with a unit (see transport_all); the check also
returns g's images of further vertices.

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
    and of verified pairing units.
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
    * gen, the first element in HomSet.elements() order with
      multiplicative order q^2 - 1 and with (q+1)-st power the scalar
      F.primitive_root(), both tested on codes;
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
                    and self._pow(c, n) == one
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


def _system_stack(alg: AlgebraData, v: Vertex, ws, nm: int, prec: int):
    """The F_q-linear equations of Hom(v, w) for every w in ws, as one
    (len(ws), rows, 4(nm + 1)) stack.  System i forces every pi^(-t),
    t >= 1, coefficient of pi^s * Mw^(-1) iota(lambda) Mv to vanish,
    s = (n_w - n_v)/2, where lambda_k = sum_j lam[k][j] T^j, deg <= nm,
    over the order basis.

    Row (rho, t), column (k, j) of a system holds the pi^(j - t)
    coefficient of Y[rho][k] = (pi^s * Mw^(-1) iota(b_k) Mv)[rho], built
    by two exact factors on the packed rows of the basis embedding
    (AlgebraData.packed_basis):

    * once per stack, the column operation of Mv: with iota(b_k) =
      [[a, b], [c, d]], P = [[pi^n_v a, b + g_v a], [pi^n_v c, d + g_v c]];
    * once per target, the row operation of Mw^(-1):
      Y = [[pi^(s - n_w) (P11 - g_w P21), pi^(s - n_w) (P12 - g_w P22)],
           [pi^s P21, pi^s P22]], so the bottom row is P's, shifted.

    Each entry carries the least precision of its terms by the Laurent
    rule.  All slots share one width, and the rows are repacked at it
    where packed_basis's differs.  It comes from this bound: a digit of
    iota(b_k) or of g is below p, a slot of P below B = (p-1)(1 +
    e(p-1)L_v), and one of Y below B (1 + e(p-1)L_w), L the coefficient
    count of g (for g_w the longest among the targets), since a product
    by g sums at most e L products of a slot by a digit of g.  One unpack
    puts every Y on a common exponent grid; then one Toeplitz gather
    reads all systems.  A row
    index t past one system's own range reads exponents below that
    system's first nonzero coefficient, and rows zero in every system
    are dropped; zero rows never change a kernel.  Raises
    InsufficientPrecisionError when a column of any system is known
    below pi^nm only.
    """
    F = alg.F
    E = F.fold.shape[1]
    w0, rows = alg.packed_basis(prec)
    w = slot_bytes((F.p - 1) * (1 + F.e * (F.p - 1) * len(v.gcoeffs))
                   * (1 + F.e * (F.p - 1)
                      * max(len(u.gcoeffs) for u in ws)))
    ints = [x for _, row in rows for _, x in row]
    if w != w0:
        n = -(-max(ints).bit_length() // (8 * w0 * E))
        ints = F.pack(F.unpack(ints, n, w0).tolist(), w)
    bits = 8 * w * E
    a, b, c, d = ((vb, min(pr for pr, _ in row), ints[4 * x:4 * x + 4])
                  for x, (vb, row) in enumerate(rows))
    gv, *ngw = F.pack([v.gcoeffs, *(poly_neg(F, u.gcoeffs) for u in ws)], w)
    top = (_shift(a, v.n), _add_times(b, (v.gval, gv), a, bits))
    bottom = (_shift(c, v.n), _add_times(d, (v.gval, gv), c, bits))
    Ys = []
    for u, gw in zip(ws, ngw):
        s = (u.n - v.n) // 2
        Ys += [_shift(_add_times(x, (u.gval, gw), y, bits), s - u.n)
               for x, y in zip(top, bottom)]
        Ys += [_shift(y, s) for y in bottom]
    if min(pr for _, pr, _ in Ys) < nm:
        raise InsufficientPrecisionError(
            "system matrix below required precision")
    yval = min(vy for vy, _, _ in Ys)
    n = max(0, nm - yval)  # the window reads no exponent from nm on
    flat = [x << bits * (vy - yval) & (1 << bits * n) - 1
            for vy, _, xs in Ys for x in xs]
    Y = F.unpack(flat, n, w).reshape(len(ws), 4, 4, n)
    nonzero = Y.any(axis=(0, 1, 2)).nonzero()[0]
    vmin = min(0, yval + int(nonzero[0])) if len(nonzero) else 0
    tmax = nm - vmin
    # exponents j - t run over [-tmax, nm); pad Y onto that window
    window = np.zeros((len(ws), 4, 4, nm + tmax), dtype=np.int64)
    lo, hi = max(-tmax, yval), min(nm, yval + Y.shape[3])
    if lo < hi:
        window[..., lo + tmax:hi + tmax] = Y[..., lo - yval:hi - yval]
    t = np.arange(1, tmax + 1)[:, None]
    j = np.arange(nm + 1)[None, :]
    A = window[..., j - t + tmax].transpose(0, 1, 3, 2, 4)
    A = A.reshape(len(ws), 4 * tmax, 4 * (nm + 1))
    return A[:, A.any(axis=(0, 2))]


def _kernel_basis(F: GF, A, ncols: int):
    """Kernel bases of a stack of code matrices A[b] over F_q, one list
    per system: one vector per free column of the system's reduced
    echelon form, in column order, each scaled so its first nonzero
    entry is 1.  The reduced echelon form is unique, so neither the row
    order, nor redundant or zero rows, nor the other systems of the
    stack can change a system's result.

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
    out = [[] for _ in range(B)]
    diag = slots[:, np.arange(ncols), np.arange(ncols)]
    for b in (diag == 0).any(axis=1).nonzero()[0]:
        for f in (diag[b] == 0).nonzero()[0]:
            vec = neg[slots[b, :, f]]
            vec[f] = 1
            lead = vec[vec.nonzero()[0][0]]
            out[b].append(tuple(mul[inv[lead]][vec].tolist()))
    return out


@lru_cache(maxsize=None)
def _step_table(F: GF):
    """step[(a*q + f)*q + b] = a - f*b, flattened."""
    add, mul, neg, _ = F.tables()
    return add[np.arange(F.q)[:, None, None], neg[mul][None]].ravel()


def _vector_to_quat(vec, nm: int) -> QuatElem:
    lam = []
    for col in range(4):
        coeffs = vec[col * (nm + 1):(col + 1) * (nm + 1)]
        lam.append(poly_trim(tuple(coeffs)))
    return QuatElem(tuple(lam))


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


def hom_stack(alg: AlgebraData, v: Vertex, targets) -> list[HomSet]:
    """Hom(v, w) for every w in targets, in order, bases not yet checked
    (see verified).

    Targets of the other parity get the empty set.  The rest are one
    stacked system build at n, the largest distance to the base vertex
    among v and them, which fixes nm and the start precision; it is
    retried as a whole at doubled precision while any of its systems
    runs short, and eliminated once.  A target w nearer the base vertex
    gets the same basis as at its own bound nm_w: every solution has
    height <= nm_w (asserted by _assert_solution), so the columns
    j > nm_w are pivot columns, and the reduced echelon basis is unique.
    """
    F = alg.F
    idx = [i for i, w in enumerate(targets) if (v.n - w.n) % 2 == 0]
    bases = [()] * len(targets)
    if idx:
        ws = [targets[i] for i in idx]
        n = max(u.dist_to_base() for u in (v, *ws))
        nm = n + alg.m
        A = retry_with_precision(
            lambda prec: _system_stack(alg, v, ws, nm, prec),
            2 * n + max(alg.ram.d, alg.m) + alg.m + 1, alg.precision_cap)
        for i, vecs in zip(idx, _kernel_basis(F, A, 4 * (nm + 1))):
            if len(vecs) > 2:
                raise AssertionError(
                    f"hom space has impossible dimension {len(vecs)}")
            bases[i] = tuple(_vector_to_quat(vec, nm) for vec in vecs)
    return [HomSet(F, v, w, b) for w, b in zip(targets, bases)]


def verified(alg: AlgebraData, hs: HomSet) -> HomSet:
    """hs, once every basis element is asserted to be a unit of the
    order within the height bound that maps hs.source to hs.target."""
    for gamma in hs.basis:
        _assert_solution(alg, gamma, hs.source, hs.target)
    return hs


def hom(alg: AlgebraData, v: Vertex, w: Vertex) -> HomSet:
    """The set {gamma in Gamma : gamma.v = w} as a HomSet."""
    return verified(alg, hom_stack(alg, v, [w])[0])


def stability(ends: HomSet) -> str:
    """Stable iff the endomorphisms are just the scalars (dim 1),
    unstable iff they form a quadratic field (dim 2)."""
    if ends.dim == 1:
        return "stable"
    if ends.dim == 2:
        return "unstable"
    raise AssertionError(
        f"endomorphism algebra of {ends.source!r} has impossible "
        f"dimension {ends.dim}")
