"""The division quaternion algebra, its maximal order, and the embedding.

The algebra D over K = F_q(T) has generators i, j with i^2 = alpha,
j^2 = r, ij = -ji, where r is the squarefree product of the ramified
primes and alpha is an auxiliary monic irreducible of even degree that
is a non-square modulo every ramified prime.  With epsilon^2 = r +
nu*alpha (deg epsilon < deg alpha), the maximal order is

    Lambda = A + A i + A j + A khat,      khat = (epsilon*i + ij)/alpha,

and elements are stored as coordinate 4-tuples of polynomials in that
basis.  Products are computed through a 4x4x4 tensor of structure
constants derived symbolically at construction time by expanding in the
(1, i, j, ij) basis and converting back; the conversions must divide
exactly by alpha, which is asserted.

The product and the embedding run on the packed-integer kernel of GF
(GF.pack, GF.unpack): coefficient sequences become Python ints with a
fixed-width slot per F_p digit, are multiplied and added as big
integers, and are unpacked once per output.  Each states its own bound
on every slot sum, from which slot_bytes picks the slot width.

The unit group Gamma consists of the elements whose reduced norm lies
in F_q^*; the reduced norm itself is computed as x * conj(x), never
from a closed formula.

The embedding into M_2(K_infinity) sends i to diag(s, -s) with
s = sqrt(alpha) (1-unit branch), j to [[0, 1], [r, 0]], and khat to
(1/s) [[epsilon, 1], [-r, -epsilon]].
"""

from __future__ import annotations

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
    slot_bytes,
    sqrt_mod_irreducible,
)
from .laurent import INF, Laurent, Mat2, SeriesStack, newton_sqrt
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


def parse_quat(F: GF, text: str) -> QuatElem:
    """Inverse of format_quat.  The scalar part may contain '+', so the
    three bracketed components are peeled off from the right; absent
    components are zero, so plain polynomials parse as scalars."""
    comps = {}
    rest = text.strip()
    for name in ("k", "j", "i"):
        if not rest.replace(" ", "").endswith(f")*{name}"):
            comps[name] = ZERO_POLY
            continue
        idx = rest.rfind("(")
        if idx < 0:
            raise ValueError(f"cannot parse quaternion element {text!r}")
        inner = rest[idx + 1:rest.rfind(")")]
        comps[name] = parse_poly(F, inner)
        rest = rest[:idx].rstrip()
        if not rest.endswith("+"):
            raise ValueError(f"cannot parse quaternion element {text!r}")
        rest = rest[:-1].strip()
    try:
        scalar = parse_poly(F, rest)
    except ValueError:
        raise ValueError(f"cannot parse quaternion element {text!r}") \
            from None
    return QuatElem((scalar, comps["i"], comps["j"], comps["k"]))


class AlgebraData:
    """The algebra (alpha, r / K) with its maximal order and embedding.

    Immutable after construction.  precision_cap bounds the precision
    retries of every computation on the algebra.  The sqrt(alpha) value
    is memoized at the highest precision requested so far, the embedded
    order basis (with 1/sqrt(alpha) inside it) once per precision, and
    their packed forms on first use.  The memos are plain dicts: the
    package runs single-threaded.
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
        self._tensor = self._derive_structure_constants()
        self._tensor_len = max(len(w) for row in self._tensor
                               for ws in row for w in ws)
        self._sqrt_cache = None
        self._basis, self._stacks = {}, {}
        self._packed_tensor, self._packed_basis = {}, {}
        self._verify_ramification()
        self._verify_reduced_discriminant()

    # -- construction-time derivations ---------------------------------

    def _derive_structure_constants(self):
        """Products of basis elements, derived through the (1,i,j,ij) basis.

        Each Lambda-basis element is alpha^(-e) * (vector over (1,i,j,ij))
        with e in {0, 1}; products are expanded with i^2 = alpha,
        j^2 = r, ij = -ji and converted back, asserting exact division.
        """
        F = self.F
        al, r, eps = self.alpha, self.r, self.epsilon

        # basis in (1, i, j, ij) coordinates with denominator alpha^e
        basis = [
            ((ONE_POLY, ZERO_POLY, ZERO_POLY, ZERO_POLY), 0),   # 1
            ((ZERO_POLY, ONE_POLY, ZERO_POLY, ZERO_POLY), 0),   # i
            ((ZERO_POLY, ZERO_POLY, ONE_POLY, ZERO_POLY), 0),   # j
            ((ZERO_POLY, eps, ZERO_POLY, ONE_POLY), 1),         # khat
        ]

        # multiplication table of the (1, i, j, ij) basis itself:
        # row s, column t -> coordinates of b_s * b_t
        Z, O = ZERO_POLY, ONE_POLY
        nal, nr = poly_neg(F, al), poly_neg(F, r)
        ij_table = {
            (0, 0): (O, Z, Z, Z), (0, 1): (Z, O, Z, Z),
            (0, 2): (Z, Z, O, Z), (0, 3): (Z, Z, Z, O),
            (1, 0): (Z, O, Z, Z), (1, 1): (al, Z, Z, Z),
            (1, 2): (Z, Z, Z, O), (1, 3): (Z, Z, al, Z),
            (2, 0): (Z, Z, O, Z), (2, 1): (Z, Z, Z, poly_neg(F, O)),
            (2, 2): (r, Z, Z, Z), (2, 3): (Z, nr, Z, Z),
            (3, 0): (Z, Z, Z, O), (3, 1): (Z, Z, nal, Z),
            (3, 2): (Z, r, Z, Z), (3, 3): (poly_mul(F, nal, r), Z, Z, Z),
        }

        def mul_ij(x, y):
            out = [Z, Z, Z, Z]
            for s in range(4):
                for t in range(4):
                    if x[s] and y[t]:
                        c = poly_mul(F, x[s], y[t])
                        for k, w in enumerate(ij_table[(s, t)]):
                            if w:
                                out[k] = poly_add(F, out[k], poly_mul(F, c, w))
            return tuple(out)

        def to_lambda(x, denom_exp):
            # (x1, x2, x3, x4) over (1,i,j,ij): ij = alpha*khat - eps*i
            lam = [x[0], poly_sub(F, x[1], poly_mul(F, eps, x[3])), x[2],
                   poly_mul(F, al, x[3])]
            for _ in range(denom_exp):
                for k in range(4):
                    q, rem = poly_divmod(F, lam[k], al)
                    if rem:
                        raise AssertionError(
                            "structure constants not integral over the "
                            "maximal-order basis")
                    lam[k] = q
            return tuple(lam)

        return [[to_lambda(mul_ij(xs, yt), es + et) for yt, et in basis]
                for xs, es in basis]

    def _verify_ramification(self):
        """hilbert_symbol(alpha, r, p) = -1 exactly for p in R."""
        F = self.F
        for p in self.ram.primes:
            if hilbert_symbol(F, self.alpha, self.r, p) != -1:
                raise AssertionError(f"algebra not ramified at {p}")
        if hilbert_symbol(F, self.alpha, self.r, self.alpha) != 1:
            raise AssertionError("algebra unexpectedly ramified at alpha")

    def _verify_reduced_discriminant(self):
        """det(trd(b_s b_t)) must generate the ideal (r^2)."""
        F = self.F
        gram = [[poly_scale(F, F.from_int(2), self._tensor[s][t][0])
                 for t in range(4)] for s in range(4)]
        det = _poly_det(F, gram)
        r2 = poly_mul(F, self.r, self.r)
        q, rem = poly_divmod(F, det, r2)
        if rem or poly_deg(q) != 0:
            raise AssertionError(
                "reduced discriminant of the order basis is not (r)")

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
        return QuatElem(tuple(map(poly_trim, F.unpack(out, n, w))))

    def scale(self, c: int, x: QuatElem) -> QuatElem:
        return QuatElem(tuple(poly_scale(self.F, c, a) for a in x.lam))

    def conj(self, x: QuatElem) -> QuatElem:
        F = self.F
        l1, l2, l3, l4 = x.lam
        return QuatElem((l1, poly_neg(F, l2), poly_neg(F, l3),
                         poly_neg(F, l4)))

    def nrd(self, x: QuatElem):
        """Reduced norm x * conj(x), asserted scalar."""
        prod = self.mul(x, self.conj(x))
        if any(prod.lam[k] for k in (1, 2, 3)):
            raise AssertionError("x * conj(x) is not scalar")
        return prod.lam[0]

    def is_unit(self, x: QuatElem) -> bool:
        """Membership in Gamma: reduced norm in F_q^*."""
        n = self.nrd(x)
        return poly_deg(n) == 0

    def inverse_unit(self, x: QuatElem) -> QuatElem:
        """Inverse of a unit: conj(x) / nrd(x)."""
        n = self.nrd(x)
        if poly_deg(n) != 0:
            raise ValueError("not a unit of the order")
        return self.scale(self.F.inv(n[0]), self.conj(x))

    def power(self, x: QuatElem, k: int) -> QuatElem:
        if k < 0:
            return self.power(self.inverse_unit(x), -k)
        acc, base = QUAT_ONE, x
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    # -- embedding into M_2(K_infinity) ----------------------------------

    def sqrt_alpha(self, prec: int) -> Laurent:
        """sqrt(alpha) on the 1-unit branch, memoized by precision."""
        if self._sqrt_cache is None or self._sqrt_cache.prec < prec:
            self._sqrt_cache = newton_sqrt(self.F, self.alpha, prec)
        return self._sqrt_cache.truncate(prec)

    def basis_embedding(self, prec: int) -> tuple:
        """(iota(1), iota(i), iota(j), iota(khat)), every entry at
        precision >= prec; memoized per precision.

        sqrt(alpha) and its inverse are taken at the working precision
        prec + 2m + deg(r) + 4, and the polynomial constants are lifted
        at it, so every nonzero entry has finite precision.
        """
        B = self._basis.get(prec)
        if B is None:
            F = self.F
            work = prec + 2 * self.m + poly_deg(self.r) + 4
            s = self.sqrt_alpha(work)
            si = s.inv()
            one = Laurent.from_poly(F, ONE_POLY, work)
            r = Laurent.from_poly(F, self.r, work)
            zero = Laurent.zero(F)
            es = Laurent.from_poly(F, self.epsilon, work) * si
            rs = r * si
            B = (Mat2(one, zero, zero, one), Mat2(s, zero, zero, -s),
                 Mat2(zero, one, r, zero), Mat2(es, si, -rs, -es))
            self._basis[prec] = B
        return B

    def basis_stack(self, prec: int) -> SeriesStack:
        """basis_embedding(prec) as one SeriesStack: row x is the matrix
        entry (a, b, c, d), column k the basis element."""
        S = self._stacks.get(prec)
        if S is None:
            B = self.basis_embedding(prec)
            S = SeriesStack(self.F, [[M.entries()[x] for M in B]
                                     for x in range(4)])
            self._stacks[prec] = S
        return S

    def embed(self, x: QuatElem, prec: int) -> Mat2:
        """iota(x) in M_2(K_infinity), entries at precision >= prec.

        iota(x) = sum_k lam_k * iota(b_k) over the memoized basis images;
        a coordinate of degree D costs D digits, so the basis is taken at
        precision P = prec + max deg(lam_k), rounded up to a multiple of
        16 so that a long session memoizes only a few of them.  Those are
        packed once per P, each row shifted to its lowest valuation, so
        an entry of iota(x) is at most four big-int products, with the
        valuation and precision of the Laurent sum.  A slot sums at most
        4 e N products of two digits, each below p^2 (N: longest entry).
        """
        F = self.F
        D = max(map(len, x.lam)) - 1
        P = -(-(prec + max(0, D)) // 16) * 16
        if P not in self._packed_basis:
            B = self.basis_embedding(P)
            n = max(len(e.coeffs) for M in B for e in M.entries())
            w = slot_bytes(4 * F.e * (F.p - 1) ** 2 * n)
            rows = []
            for entries in zip(*(M.entries() for M in B)):
                vb = min((e.val for e in entries if e.coeffs), default=0)
                packed = F.pack([(0,) * (e.val - vb) + e.coeffs
                                 if e.coeffs else () for e in entries], w)
                rows.append((vb, list(zip((e.prec for e in entries),
                                          packed))))
            self._packed_basis[P] = w, rows
        w, rows = self._packed_basis[P]
        bits = 8 * w * F.fold.shape[1]
        # pi^D lam_k as a series in pi, all four starting at pi^0
        lam = F.pack([(0,) * (D + 1 - len(f)) + f[::-1]
                      for f in x.lam], w)
        precs, sums = [], []
        for vb, row in rows:
            # an exact zero (all terms 0 at precision INF) stays exact
            terms = [(pr - len(f) + 1, c * b)
                     for f, c, (pr, b) in zip(x.lam, lam, row) if c]
            precs.append(min(terms, default=(INF,))[0])
            if precs[-1] < prec:
                raise AssertionError(
                    "embedding lost more precision than budgeted")
            sums.append(sum(t[1] for t in terms))
        n = max(-(-a.bit_length() // bits) for a in sums)
        return Mat2(*(Laurent(F, vb - D, codes, pr) for (vb, _), codes, pr
                      in zip(rows, F.unpack(sums, n, w), precs)))


def build_algebra(F: GF, primes,
                  precision_cap: int = DEFAULT_PRECISION_CAP) -> AlgebraData:
    """Construct the algebra ramified exactly at the given primes.
    precision_cap bounds every precision retry on it."""
    return AlgebraData(F, primes, precision_cap=precision_cap)


def height(x: QuatElem) -> int:
    """max_i deg(lam_i); raises on the zero element."""
    if x.is_zero():
        raise ValueError("height of the zero element")
    return max(poly_deg(c) for c in x.lam if c)


def _poly_det(F: GF, m):
    """Determinant of a square polynomial matrix, by Laplace expansion
    along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = ZERO_POLY
    for col, a in enumerate(m[0]):
        term = poly_mul(F, a, _poly_det(F, [row[:col] + row[col + 1:]
                                            for row in m[1:]]))
        total = poly_add(F, total, poly_neg(F, term) if col % 2 else term)
    return total
