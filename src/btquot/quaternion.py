"""The division quaternion algebra, its maximal order, and the embedding.

The algebra D over K = F_q(T) has generators i, j with i^2 = alpha,
j^2 = r, ij = -ji, where r is the squarefree product of the ramified
primes and alpha is an auxiliary monic irreducible of even degree that
is a non-square modulo every ramified prime.  With epsilon^2 = r +
nu*alpha (deg epsilon < deg alpha), the maximal order is

    Lambda = A + A i + A j + A khat,      khat = (epsilon*i + ij)/alpha,

and elements are stored as coordinate 4-tuples of polynomials in that
basis.  Products are computed through the 4x4x4 tensor of structure
constants, the products of basis elements in closed form (khat^2 = nu,
i khat = epsilon + j, ...; see AlgebraData._structure_constants).  They
are integral because alpha divides epsilon^2 - r exactly, which is
asserted.  The whole table is checked against the defining identities
and associativity at construction, which makes the reduced
discriminant of the basis (r).

The product, the norm and the embedding run on the packed-integer
kernel of GF (GF.pack, GF.unpack): coefficient sequences become Python
ints with a fixed-width slot per F_p digit, are multiplied and added as
big integers, and are unpacked once per output.  Each states its own
bound on every slot sum, from which slot_bytes picks the slot width.
The packed rows of the embedded order basis (packed_basis) serve
embed_packed, whose sums homspace.transport and the solution check
(homspace._assert_solution) carry on, packed beside exact code
polynomials, and embed unpacks as Laurent entries for the tests; the
hom systems read its entries (basis_entries).

The unit group Gamma consists of the elements whose reduced norm lies
in F_q^*.  The reduced norm x * conj(x) is the norm form read off the
product table (norm_form), whose check at construction makes x *
conj(x) scalar for every x.

The embedding into M_2(K_infinity) sends i to diag(s, -s) with
s = sqrt(alpha) (1-unit branch), j to [[0, 1], [r, 0]], and khat to
(1/s) [[epsilon, 1], [-r, -epsilon]].

Text form.  format_quat writes `l1 + (l2)*i + (l3)*j + (l4)*k`, and
parse_quat reads it back by one regex: a scalar part, which may hold
'+', then the parts of i, j and k, each optional, in that order, each
read by parse_poly; anything else is a ValueError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .algebra import (
    GF,
    ONE_POLY,
    ZERO_POLY,
    enumerate_monic_polys,
    format_poly,
    hilbert_symbol,
    is_irreducible,
    legendre,
    parse_poly,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_mul,
    poly_neg,
    poly_scale,
    poly_sub,
    poly_trim,
    power,
    slot_bytes,
    sqrt_mod_irreducible,
)
from .laurent import INF, Laurent, Mat2, from_packed, newton_sqrt
from .tree import DEFAULT_PRECISION_CAP


@dataclass(frozen=True)
class RamificationSet:
    """The finite ramified places: distinct monic irreducibles, even count."""

    primes: tuple
    r: tuple
    d: int
    odd_flag: int  # 1 iff every place has odd degree

    @classmethod
    def make(cls, F: GF, primes) -> "RamificationSet":
        primes = tuple(primes)
        if len(primes) % 2 or len(primes) < 2:
            raise ValueError("ramification set must have even cardinality "
                             ">= 2")
        if len(set(primes)) != len(primes):
            raise ValueError("ramified places must be distinct")
        r = ONE_POLY
        for p in primes:
            if not p or p[-1] != 1 or not is_irreducible(F, p):
                raise ValueError(
                    f"not monic irreducible: {format_poly(F, p)}")
            r = poly_mul(F, r, p)
        odd_flag = 0 if any(poly_deg(p) % 2 == 0 for p in primes) else 1
        return cls(primes, r, poly_deg(r), odd_flag)


def alpha_degree_bound(q: int, num_primes: int, d: int) -> int:
    """Upper bound for deg(alpha) in terms of q, #R and d = deg r."""
    l = num_primes
    if q == 3:
        if l <= 4:
            return d + 7
        if l == 6:
            return d + 5
        return d + 1
    if q in (5, 7):
        return d + 3 if l <= 6 else d + 1
    if q == 9:
        return d + 3 if l <= 4 else d + 1
    return d + 3 if l == 2 else d + 1


def find_alpha(F: GF, ram: RamificationSet):
    """First monic irreducible of even degree that is a non-square at
    every ramified place (tested first, being cheaper), searching degrees
    2, 4, ... in canonical order up to alpha_degree_bound."""
    bound = alpha_degree_bound(F.q, len(ram.primes), ram.d)
    for degree in range(2, bound + 1, 2):
        for cand in enumerate_monic_polys(F, degree):
            if (all(legendre(F, cand, p) == -1 for p in ram.primes)
                    and is_irreducible(F, cand)):
                return cand
    raise RuntimeError(f"alpha search exceeded the degree bound {bound}; "
                       "this indicates an arithmetic bug")


@dataclass(frozen=True)
class QuatElem:
    """Coordinates (lam1, lam2, lam3, lam4) in the basis (1, i, j, khat)."""

    lam: tuple

    def __iter__(self):
        return iter(self.lam)

    def is_zero(self) -> bool:
        return all(not c for c in self.lam)


QUAT_ONE = QuatElem((ONE_POLY, ZERO_POLY, ZERO_POLY, ZERO_POLY))


def format_quat(F: GF, x: QuatElem) -> str:
    """`l1 + (l2)*i + (l3)*j + (l4)*k` with k = (epsilon*i + ij)/alpha."""
    l1, l2, l3, l4 = (format_poly(F, c) for c in x.lam)
    return f"{l1} + ({l2})*i + ({l3})*j + ({l4})*k"


_QUAT_RE = re.compile(r"(.*?)" + "".join(
    rf"(?:\+\s*\(([^()]*)\)\s*\*\s*{name}\s*)?" for name in "ijk"),
    re.DOTALL)


def parse_quat(F: GF, text: str) -> QuatElem:
    """Inverse of format_quat (see the module docstring).  Absent parts
    are zero, so plain polynomials parse as scalars."""
    parts = _QUAT_RE.fullmatch(text).groups()
    try:
        return QuatElem(tuple(ZERO_POLY if p is None else parse_poly(F, p)
                              for p in parts))
    except ValueError as exc:
        raise ValueError(f"cannot parse quaternion element {text!r}: "
                         f"{exc}") from None


def norm_form(F: GF, W) -> list:
    """The reduced norm as a quadratic form read off the product table W
    of (1, i, j, khat): [((s, t), Q_st)], s <= t, Q_st != 0.  conj
    negates i, j and khat, so x conj(x) = sum_{s,t} sigma_t x_s x_t
    W[s][t], sigma = (1, -1, -1, -1), and Q_st is the scalar part of
    sigma_t W[s][t] (+ sigma_s W[t][s] if s < t).  The vector parts of
    these coefficients are those of the vector part of x conj(x), which
    vanishes on the infinite domain A^4 exactly when they all do:
    asserted.  Here, x1^2 - alpha x2^2 - r x3^2 - nu x4^2 - 2 eps x2 x4."""
    form = []
    for s, t in [(s, t) for s in range(4) for t in range(s, 4)]:
        c = (ZERO_POLY,) * 4
        for a, b in {(s, t), (t, s)}:
            c = tuple(poly_add(F, u, v if b == 0 else poly_neg(F, v))
                      for u, v in zip(c, W[a][b]))
        if any(c[1:]):
            raise AssertionError("x * conj(x) is not scalar")
        if c[0]:
            form.append(((s, t), c[0]))
    return form


class AlgebraData:
    """The algebra (alpha, r / K) with its maximal order and embedding.

    Immutable after construction.  No series computation on the algebra
    runs above precision_cap.  sqrt(alpha) is memoized at the highest
    precision requested so far, the embedded order basis (with
    1/sqrt(alpha) inside it) once per precision (basis_entries), packed
    once per precision and slot width (packed_basis), and the packed
    product table and norm form once per slot width.
    The memos are plain dicts: the package runs single-threaded.
    """

    def __init__(self, F: GF, primes,
                 precision_cap: int = DEFAULT_PRECISION_CAP):
        self.F = F
        self.precision_cap = precision_cap
        self.ram = RamificationSet.make(F, primes)
        self.r = self.ram.r
        self.alpha = find_alpha(F, self.ram)
        self.m = poly_deg(self.alpha) // 2
        self.epsilon = sqrt_mod_irreducible(F, self.r, self.alpha)
        diff = poly_sub(F, poly_mul(F, self.epsilon, self.epsilon), self.r)
        self.nu, rem = poly_divmod(F, diff, self.alpha)
        if rem:
            raise AssertionError("epsilon^2 - r is not divisible by alpha")
        self._tensor = self._structure_constants()
        self._tensor_len = max(len(w) for row in self._tensor
                               for ws in row for w in ws)
        self._sqrt_cache = None
        self._packed_tensor, self._packed_basis = {}, {}
        self._basis_entries = {}
        self._verify_ramification()
        self._verify_product_table()
        form = norm_form(F, self._tensor)
        self._norm = form, max(len(c) for _, c in form), {}

    # -- construction: the product table and its checks ----------------

    def _structure_constants(self):
        """The products b_s * b_t of the order basis (1, i, j, khat),
        row s and column t, as coordinate 4-tuples.  With
        nu = (epsilon^2 - r)/alpha they follow from i^2 = alpha,
        j^2 = r and ij = -ji:

            i^2 = alpha,    j^2 = r,    khat^2 = nu,
            ij = -epsilon i + alpha khat,   ji = epsilon i - alpha khat,
            i khat = epsilon + j,           khat i = epsilon - j,
            j khat = nu i - epsilon khat,   khat j = -nu i + epsilon khat.
        """
        F = self.F
        Z, O = ZERO_POLY, ONE_POLY
        al, r, eps, nu = self.alpha, self.r, self.epsilon, self.nu
        nal, neps, nnu, nO = (poly_neg(F, c) for c in (al, eps, nu, O))
        e = ((O, Z, Z, Z), (Z, O, Z, Z), (Z, Z, O, Z), (Z, Z, Z, O))
        return [list(e),
                [e[1], (al, Z, Z, Z), (Z, neps, Z, al), (eps, Z, O, Z)],
                [e[2], (Z, eps, Z, nal), (r, Z, Z, Z), (Z, nu, Z, neps)],
                [e[3], (eps, Z, nO, Z), (Z, nnu, Z, eps), (nu, Z, Z, Z)]]

    def _verify_ramification(self):
        """hilbert_symbol(alpha, r, p) = -1 exactly for p in R."""
        F = self.F
        for p in self.ram.primes:
            if hilbert_symbol(F, self.alpha, self.r, p) != -1:
                raise AssertionError(f"algebra not ramified at {p}")
        if hilbert_symbol(F, self.alpha, self.r, self.alpha) != 1:
            raise AssertionError("algebra unexpectedly ramified at alpha")

    def _verify_product_table(self):
        """The identity row and column, i^2 = alpha, j^2 = r,
        ij = alpha khat - epsilon i and ji = -ij; then i(ij) = alpha j,
        (ij)j = r i, (ji)i = alpha j, j(ji) = r i and (ij)^2 = -alpha r,
        which associativity asks for, pin down i khat, khat j, khat i,
        j khat and khat^2 in turn, each entering its identity times a
        power of alpha.  With a correct table and epsilon^2 - r =
        nu alpha, the reduced discriminant is (r): det(trd(b_s b_t)) =
        16 r (alpha nu - epsilon^2) = -16 r^2."""
        F, W, Z = self.F, self._tensor, ZERO_POLY
        al, r = self.alpha, self.r
        e = [tuple(ONE_POLY if k == s else Z for k in range(4))
             for s in range(4)]
        ij = (Z, poly_neg(F, self.epsilon), Z, al)
        if not (all(W[0][s] == W[s][0] == e[s] for s in range(4))
                and W[1][1] == (al, Z, Z, Z) and W[2][2] == (r, Z, Z, Z)
                and W[1][2] == ij
                and W[2][1] == tuple(poly_neg(F, c) for c in ij)):
            raise AssertionError("product table breaks a defining identity")
        i, j, ij, ji = map(QuatElem, (e[1], e[2], W[1][2], W[2][1]))
        aj, ri = (Z, Z, al, Z), (Z, r, Z, Z)
        pairs = ((i, ij), (ij, j), (ji, i), (j, ji), (ij, ij))
        if [self.mul(x, y).lam for x, y in pairs] != [
                aj, ri, aj, ri, (poly_neg(F, poly_mul(F, al, r)), Z, Z, Z)]:
            raise AssertionError("product table is not associative")

    # -- arithmetic in Lambda -------------------------------------------

    def mul(self, x: QuatElem, y: QuatElem) -> QuatElem:
        """x * y = sum_{s,t,k} x_s y_t W_stk b_k: at most 16 + 64 packed
        products.  A slot sums at most 16 e^2 L_W min(L_x, L_y) products
        of three digits, each below p^3 (L: coefficient counts, L_W that
        of the longest structure constant W_stk)."""
        lx, ly = max(map(len, x.lam)), max(map(len, y.lam))
        if not lx or not ly:
            return QuatElem((ZERO_POLY,) * 4)
        F = self.F
        w = slot_bytes(16 * F.e ** 2 * (F.p - 1) ** 3 * self._tensor_len
                       * min(lx, ly))
        W = self._packed_tensor.get(w)
        if W is None:
            W = self._packed_tensor[w] = [
                (s, t, [(k, c) for k, c in
                        enumerate(F.pack(self._tensor[s][t], w)) if c])
                for s in range(4) for t in range(4)]
        X, Y = F.pack(x.lam, w), F.pack(y.lam, w)
        out = [0] * 4
        for s, t, terms in W:
            c = X[s] * Y[t]
            if c:
                for k, wk in terms:
                    out[k] += c * wk
        n = lx + ly + self._tensor_len - 2
        return QuatElem(tuple(map(poly_trim,
                                  F.unpack(out, n, w).tolist())))

    def scale(self, c: int, x: QuatElem) -> QuatElem:
        return QuatElem(tuple(poly_scale(self.F, c, a) for a in x.lam))

    def conj(self, x: QuatElem) -> QuatElem:
        F = self.F
        l1, l2, l3, l4 = x.lam
        return QuatElem((l1, poly_neg(F, l2), poly_neg(F, l3),
                         poly_neg(F, l4)))

    def nrd(self, x: QuatElem):
        """Reduced norm x * conj(x), by the norm form (norm_form): one
        pack and one unpack.  A slot sums at most T e^2 L_Q L_x products
        of three digits, each below p^3 (T terms, L: longest length)."""
        lx = max(map(len, x.lam))
        F, (form, lq, packed) = self.F, self._norm
        w = slot_bytes(len(form) * F.e ** 2 * (F.p - 1) ** 3 * lq * lx)
        Q = packed.get(w)
        if Q is None:
            Q = packed[w] = list(zip((st for st, _ in form),
                                     F.pack([c for _, c in form], w)))
        X = F.pack(x.lam, w)
        total = sum(c * X[s] * X[t] for (s, t), c in Q)
        return poly_trim(F.unpack((total,), 2 * lx + lq - 2, w)[0].tolist())

    def is_unit(self, x: QuatElem) -> bool:
        """Membership in Gamma: reduced norm in F_q^*."""
        return poly_deg(self.nrd(x)) == 0

    def inverse_unit(self, x: QuatElem) -> QuatElem:
        """Inverse of a unit: conj(x) / nrd(x)."""
        n = self.nrd(x)
        if poly_deg(n) != 0:
            raise ValueError("not a unit of the order")
        return self.scale(self.F.inv(n[0]), self.conj(x))

    def power(self, x: QuatElem, k: int) -> QuatElem:
        """x^k by algebra.power, with no product by 1; a negative k
        raises the inverse of the unit x."""
        if k < 0:
            x, k = self.inverse_unit(x), -k
        return power(self.mul, x, k, QUAT_ONE)

    # -- embedding into M_2(K_infinity) ----------------------------------

    def sqrt_alpha(self, prec: int) -> Laurent:
        """sqrt(alpha) on the 1-unit branch, memoized by precision."""
        if self._sqrt_cache is None or self._sqrt_cache.prec < prec:
            self._sqrt_cache = newton_sqrt(self.F, self.alpha, prec)
        return self._sqrt_cache.truncate(prec)

    def basis_embedding(self, prec: int) -> tuple:
        """(iota(1), iota(i), iota(j), iota(khat)), every entry at
        precision >= prec.

        sqrt(alpha) and its inverse are taken at the working precision
        prec + 2m + deg(r) + 4, and the polynomial constants are lifted
        at it, so every nonzero entry has finite precision.
        """
        F = self.F
        work = prec + 2 * self.m + poly_deg(self.r) + 4
        s = self.sqrt_alpha(work)
        si = s.inv()
        one = Laurent.from_poly(F, ONE_POLY, work)
        r = Laurent.from_poly(F, self.r, work)
        zero = Laurent.zero(F)
        es = Laurent.from_poly(F, self.epsilon, work) * si
        rs = r * si
        return (Mat2(one, zero, zero, one), Mat2(s, zero, zero, -s),
                Mat2(zero, one, r, zero), Mat2(es, si, -rs, -es))

    def basis_entries(self, prec: int) -> list:
        """basis_embedding(prec) by matrix entry, memoized per precision:
        [x][k] is the entry x in (a, b, c, d) of iota(b_k).  The hom
        systems read it."""
        if prec not in self._basis_entries:
            self._basis_entries[prec] = list(zip(*(
                M.entries() for M in self.basis_embedding(prec))))
        return self._basis_entries[prec]

    def packed_basis(self, prec: int, glen: int = 0):
        """basis_embedding(prec) packed row by row, memoized per
        precision, with N the longest entry, and per width: (w, rows),
        rows[x] = (val, [(prec_k, int_k)]) the entry x in (a, b, c, d) of
        iota(b_k), k = 0..3, as series from pi^val, the lowest valuation
        of the four (an exact zero is 0 at precision INF).  Slots hold
        single digits, at the width w = slot_bytes(4 e (p-1)^2 N (e (p-1)
        glen + 1)): a slot of one of embed_packed's sums is at most 4 e
        (p-1)^2 N, so this bounds such a sum plus its products with code
        polynomials of glen digits in all.
        """
        F = self.F
        if prec not in self._packed_basis:
            self._packed_basis[prec] = (max(
                len(e.coeffs) for row in self.basis_entries(prec)
                for e in row), {})
        n, by_width = self._packed_basis[prec]
        w = slot_bytes(4 * F.e * (F.p - 1) ** 2 * n
                       * (F.e * (F.p - 1) * glen + 1))
        if w not in by_width:
            rows = by_width[w] = []
            for entries in self.basis_entries(prec):
                vb = min((e.val for e in entries if e.coeffs), default=0)
                packed = F.pack([(0,) * (e.val - vb) + e.coeffs
                                 if e.coeffs else () for e in entries], w)
                rows.append((vb, list(zip((e.prec for e in entries),
                                          packed))))
        return w, by_width[w]

    def embed_packed(self, x: QuatElem, prec: int, gs=()):
        """iota(x), known below pi^prec, as packed sums: (w, [(val,
        prec_x, S_x)] for x in (a, b, c, d), Gs), S_x = sum_k lam_k
        iota(b_k)_x a series from pi^val known below pi^prec_x >= prec,
        and Gs the exact code polynomials gs, packed beside the
        coordinates.  The width w holds a sum S_y plus one product S_x G
        for each G in Gs (packed_basis, glen their total length): a
        product S_x G has three factors (lam_k, the basis entry and G),
        as many as the E = 3e - 2 slots of a packed coefficient hold,
        for every q.  A coordinate of degree D costs D digits, so the
        basis is taken at precision prec + max deg(lam_k), rounded up to
        a multiple of 16 so that a long-running process memoizes only a
        few of them.  A sum is at most four big-int products.
        """
        D = max(map(len, x.lam)) - 1
        w, rows = self.packed_basis(-(-(prec + max(0, D)) // 16) * 16,
                                    sum(map(len, gs)))
        # pi^D lam_k as a series in pi, all four starting at pi^0
        packed = self.F.pack([(0,) * (D + 1 - len(f)) + f[::-1]
                              for f in x.lam] + list(gs), w)
        sums = []
        for vb, row in rows:
            # an exact zero (all terms 0 at precision INF) stays exact
            terms = [(pr - len(f) + 1, c * b)
                     for f, c, (pr, b) in zip(x.lam, packed, row) if c]
            pr = min(terms, default=(INF,))[0]
            if pr < prec:
                raise AssertionError(
                    "embedding lost more precision than budgeted")
            sums.append((vb - D, pr, sum(t[1] for t in terms)))
        return w, sums, packed[4:]

    def embed(self, x: QuatElem, prec: int) -> Mat2:
        """iota(x) in M_2(K_infinity), entries at precision >= prec: the
        sums of embed_packed, unpacked once (from_packed).  The program
        reads the sums themselves; tests compare against this form."""
        w, sums, _ = self.embed_packed(x, prec)
        return Mat2(*from_packed(self.F, sums, w))


def build_algebra(F: GF, primes,
                  precision_cap: int = DEFAULT_PRECISION_CAP) -> AlgebraData:
    """The algebra ramified exactly at the given primes, its series
    computations capped at precision_cap."""
    return AlgebraData(F, primes, precision_cap=precision_cap)


def height(x: QuatElem) -> int:
    """max_i deg(lam_i); raises on the zero element."""
    if x.is_zero():
        raise ValueError("height of the zero element")
    return max(poly_deg(c) for c in x.lam if c)

