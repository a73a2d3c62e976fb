"""Arithmetic in F_q, in A = F_q[T], and in residue fields A/(f).

Element representation.  An element of F_q with coordinate vector
(c_0, ..., c_{e-1}) over F_p (meaning c_0 + c_1*x + ... + c_{e-1}*x^{e-1}
modulo the defining polynomial of the field) is coded as the integer
c_0 + c_1*p + ... + c_{e-1}*p^{e-1}.  For prime q the code is just the
residue itself.  All arithmetic on codes goes through a GF instance,
which knows p, e and the defining modulus.  Every F_q operation is a
lookup in the (add, mul, neg, inv) tables that the instance builds once,
from its coordinate kernels, when it is created.

Polynomials over F_q are tuples of element codes, constant coefficient
first, with no trailing zeros; the zero polynomial is the empty tuple.
Tuples are immutable and hashable, so polynomials can serve as dict keys
everywhere else in the package.

Code sequences are multiplied by one packed-integer kernel of GF
(Kronecker substitution: pack, unpack, slot_bytes), under GF.conv and
under the quaternion product and embedding; the hom systems multiply
by F_q products of code arrays (homspace), and poly_mul keeps its
scalar loop for the short polynomials of the residue-field arithmetic.

Every group the package multiplies in (F_q^*, A/(f), the units of the
order, the stabilizers F_{q^2}) takes its powers, products and order
test from power, product and has_order, given its product and one.

Canonical orders.  Elements of F_q are ordered lexicographically by
coordinate vector (c_0, ..., c_{e-1}); for prime q this is 0 < 1 < ... <
p-1.  Polynomials of bounded degree are ordered lexicographically by
coefficient vector read from the constant term up, entries compared in
the element order.  Every deterministic tie-break in this package (the
search for the auxiliary irreducible alpha, square-root branch picks,
label picks in the quotient graph) refers back to these two orders.

Text form.  parse_poly reads a sum of terms in any order, each after
the first led by a run of signs (an odd number of `-` negates it).  A
term is a coefficient, T^k, or a coefficient, an optional `*` and T^k,
with ^1 omissible; a coefficient is decimal digits, read mod p, or a
coordinate vector of 1 to e of them, `[1,2]*T^3`.  Whitespace may stand
between tokens, not inside a number.  Anything else, an empty term
too, is a ValueError.  split_polys splits a list of them at the commas
outside [...].  Both scan by one regex whose quantified parts never
match the same characters, so they are linear in the text.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache, reduce

import numpy as np

#: Largest field size GF accepts.  A field holds O(q^2) table entries
#: (its unpacking table p^(3e-2) < q^3) and the hom solver's elimination
#: table q^3 (16 MB at q = 127); a
#: quotient computation at q = 127 peaks near 51 MB of RSS.
MAX_Q = 127

#: Largest exponent of T that parse_poly accepts, checked before the
#: coefficient list is built.  A prime of that degree is far past any
#: quotient that can be computed, and a unit of that height has an input
#: budget (cli._check_start) near the default precision cap, so no
#: argument the program can serve is refused.
MAX_DEGREE = 4096

def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = None
    for cand in range(2, q + 1):
        if q % cand == 0:
            p = cand
            break
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"not a prime power: {q}")
    return p, e


class GF:
    """The finite field F_q, q = p^e with p an odd prime.

    Elements are ints in range(q), coded as described in the module
    docstring.  The instance carries the arithmetic; elements carry no
    reference back to their field.  The constructor builds the
    coordinate kernels (digits, place, fold) and from them the (add,
    mul, neg, inv) tables; every operation is a lookup in those tables.
    For e > 1 the defining polynomial is the first monic irreducible of
    degree e over F_p in canonical order, unless modulus names another.
    """

    def __init__(self, q: int, modulus: tuple[int, ...] | None = None):
        if q > MAX_Q:
            raise ValueError(f"q={q} is above the supported maximum "
                             f"{MAX_Q}")
        p, e = _factor_prime_power(q)
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            self.modulus = None
        else:
            if modulus is None:
                modulus = next(enumerate_monic_irreducibles(GF(p), e))
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e over F_p")
            self.modulus = modulus
            if not self._modulus_irreducible():
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        # coordinate-array kernels: digits[a] is the coordinate row of
        # the code a, place the weights that turn coordinates back into
        # a code, and column k of the (e, 3e-2) matrix fold (enough for
        # three factors) holds the coordinates of x^k modulo the defining
        # polynomial (x^(k-1) shifted up by one place, overflow reduced)
        self.place = p ** np.arange(e, dtype=np.int64)
        self.digits = np.arange(q, dtype=np.int64)[:, None] // self.place % p
        col = [1] + [0] * (e - 1)
        cols = [col]
        for _ in range(3 * e - 3):
            col = [(c - col[-1] * m) % p
                   for c, m in zip([0] + col[:-1], self.modulus)]
            cols.append(col)
        self.fold = np.array(cols, dtype=np.int64).T
        # (add, mul, neg, inv) tables: mul folds the outer product of the
        # coordinate rows (fold_products[:, i, j], the coordinates of
        # x^i * x^j, is column i + j of fold), and inv[0] = 0 is a
        # placeholder
        self.fold_products = self.fold[:, np.add.outer(range(e), range(e))]
        d = self.digits
        add = (d[:, None] + d[None]) % p @ self.place
        mul = np.einsum("ai,bj,kij->abk", d, d,
                        self.fold_products) % p @ self.place
        neg = (-d % p) @ self.place
        inv = np.argmax(mul == 1, axis=1)
        self._tables = (add, mul, neg, inv)
        self._add, self._mul, self._neg, self._inv = (
            t.tolist() for t in self._tables)
        self._coords = [tuple(row) for row in d.tolist()]
        # packing: byte translations code -> coordinate u; unpacking:
        # the residues r_t < p of the 3e-2 slots of one coefficient read
        # as the index sum r_t p^t into unfold, the code of sum r_t x^t
        self._planes = [bytes(d[:, u].tolist() + [0] * (256 - q))
                        for u in range(e)]
        E = self.fold.shape[1]
        self._slot_weights = p ** np.arange(E, dtype=np.int64)
        self._unfold = (np.arange(p ** E)[:, None] // self._slot_weights
                        % p @ self.fold.T % p @ self.place)

    # -- element coding ------------------------------------------------

    def coords(self, a: int) -> tuple[int, ...]:
        """Coordinate vector (c_0, ..., c_{e-1}) over F_p of the code a."""
        return self._coords[a]

    def from_coords(self, cs) -> int:
        code = 0
        for c in reversed(list(cs)):
            code = code * self.p + (c % self.p)
        return code

    def from_int(self, n: int) -> int:
        """The image of the integer n in F_q (via the prime subfield)."""
        return n % self.p

    def elements(self) -> list[int]:
        """All element codes in canonical order, that of their coords."""
        return sorted(range(self.q), key=self.coords)

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def pow(self, a: int, n: int) -> int:
        """a^n by power(); a negative n raises the inverse of a."""
        if n < 0:
            a, n = self.inv(a), -n
        return power(self.mul, a, n, 1)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        return self._inv[a]

    def primitive_root(self) -> int:
        """First generator of F_q^* in canonical element order."""
        return next(a for a in self.elements()
                    if a and has_order(self.mul, a, self.q - 1, 1))

    def conv(self, a, b) -> list[int]:
        """Product of two polynomials over F_q given as nonempty code
        sequences, lowest degree first: len(a) + len(b) - 1 codes,
        untrimmed.  One packed big-int product; a slot sums at most
        e * min(len a, len b) products of two digits, each below p^2."""
        w = slot_bytes(self.e * (self.p - 1) ** 2 * min(len(a), len(b)))
        x, y = self.pack((a, b), w)
        return self.unpack((x * y,), len(a) + len(b) - 1, w)[0].tolist()

    # -- the packed-integer kernel (Kronecker substitution) -------------

    def pack(self, polys, w: int) -> list[int]:
        """Each code sequence f (a tuple, list or int64 array) as one int:
        digit u of f[i] in slot i*E + u, w bytes per slot, E = 3e-2 slots
        per coefficient (room for the digit sums of three factors).
        Codes fit a byte, since q <= MAX_Q; the sequences are read element
        by element, never as raw memory."""
        E = self.fold.shape[1]
        raw = bytes(itertools.chain.from_iterable(polys))
        buf = bytearray(len(raw) * E * w)
        for u, plane in enumerate(self._planes):
            buf[u * w::E * w] = raw.translate(plane)
        view, out, i = memoryview(buf), [], 0
        for f in polys:
            out.append(int.from_bytes(view[i:i + len(f) * E * w], "little"))
            i += len(f) * E * w
        return out

    def unpack(self, packed, n: int, w: int) -> np.ndarray:
        """The first n coefficients of each packed sum as codes, one
        int64 row per sum: slots reduced mod p, each coefficient's slots
        folded by the modulus (one lookup in unfold)."""
        E = self.fold.shape[1]
        raw = b"".join(v.to_bytes(n * E * w, "little") for v in packed)
        slots = np.frombuffer(raw, dtype=f"<u{w}").reshape(-1, E) % self.p
        return self._unfold[slots.astype(np.int64) @ self._slot_weights
                            ].reshape(len(packed), n)

    def tables(self):
        """The (add, mul, neg, inv) tables as numpy arrays, with inv[0]
        set to 0.  They back the linear algebra of the hom solver for
        every q."""
        return self._tables

    def _modulus_irreducible(self) -> bool:
        base = GF(self.p)
        return is_irreducible(base, self.modulus)

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return (isinstance(other, GF) and self.q == other.q
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.q, self.modulus))


def slot_bytes(bound: int) -> int:
    """Bytes per packed slot: the least of 1, 2, 4, 8 that holds bound, a
    bound on every slot sum; beyond 8 it raises rather than wrap."""
    for w in (1, 2, 4, 8):
        if bound >> (8 * w) == 0:
            return w
    raise AssertionError(f"packed slot bound {bound} exceeds 64 bits")


# ---------------------------------------------------------------------
# polynomials over F_q: tuples of codes, constant first, trimmed
# ---------------------------------------------------------------------

ZERO_POLY: tuple[int, ...] = ()
ONE_POLY: tuple[int, ...] = (1,)
T_POLY: tuple[int, ...] = (0, 1)


def poly_trim(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_deg(f) -> int:
    """Degree; the zero polynomial gets -1."""
    return len(f) - 1


def poly_add(F: GF, f, g):
    n = max(len(f), len(g))
    return poly_trim(
        F.add(f[i] if i < len(f) else 0, g[i] if i < len(g) else 0)
        for i in range(n))


def poly_neg(F: GF, f):
    return tuple(F.neg(c) for c in f)


def poly_sub(F: GF, f, g):
    return poly_add(F, f, poly_neg(F, g))


def poly_scale(F: GF, c: int, f):
    if c == 0:
        return ZERO_POLY
    return tuple(F.mul(c, x) for x in f)


def poly_mul(F: GF, f, g):
    if not f or not g:
        return ZERO_POLY
    prod = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                prod[i + j] = F.add(prod[i + j], F.mul(x, y))
    return poly_trim(prod)


def poly_divmod(F: GF, f, g):
    """Quotient and remainder of f by g; f = q*g + r with deg r < deg g."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(f)
    dg = len(g) - 1
    lead_inv = F.inv(g[-1])
    quot = [0] * max(0, len(r) - dg)
    add, mul = F._add, F._mul
    for k in range(len(r) - 1 - dg, -1, -1):
        c = mul[r[k + dg]][lead_inv]
        if c:
            quot[k] = c
            times = mul[F.neg(c)]  # r -= c g, one table row
            for j in range(dg + 1):
                r[k + j] = add[r[k + j]][times[g[j]]]
    return poly_trim(quot), poly_trim(r)


def poly_mod(F: GF, f, g):
    return poly_divmod(F, f, g)[1]


def poly_monic(F: GF, f):
    if not f:
        return f
    return poly_scale(F, F.inv(f[-1]), f)


def poly_gcd(F: GF, f, g):
    """Monic gcd."""
    while g:
        f, g = g, poly_mod(F, f, g)
    return poly_monic(F, f)


def poly_pow_mod(F: GF, f, n: int, m):
    """f^n modulo m, n >= 0, by power() in A/(m)."""
    return power(lambda a, b: poly_mod(F, poly_mul(F, a, b), m),
                 poly_mod(F, f, m), n, poly_mod(F, ONE_POLY, m))


def poly_sort_key(F: GF, f, length: int | None = None):
    """Key for the canonical polynomial order, padded to the given length."""
    if length is None:
        length = len(f)
    padded = tuple(f) + (0,) * (length - len(f))
    return tuple(F.coords(c) for c in padded)


def power(mul, x, k: int, one):
    """x^k for k >= 0, with mul the product and one the identity, by
    the left-to-right binary method (Knuth, TAOCP vol. 2, 4.6.3): for
    k > 0, bit_length(k) - 1 squarings and popcount(k) - 1 products by
    x, and none by one, which is returned only for k = 0."""
    if k == 0:
        return one
    acc = x
    for bit in bin(k)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def product(mul, xs, one):
    """The product of the elements of xs, left to right; one only for
    an empty xs, never as a factor."""
    xs = iter(xs)
    return reduce(mul, xs, next(xs, one))


def has_order(mul, x, n: int, one) -> bool:
    """Whether x, given x^n = one, has order exactly n: no x^(n/d) is
    one, for d a prime divisor of n."""
    return all(power(mul, x, n // d, one) != one
               for d in _prime_divisors(n))


def _prime_divisors(n: int) -> list[int]:
    divs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            divs.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        divs.append(n)
    return divs


@lru_cache(maxsize=1024)
def is_irreducible(F: GF, f) -> bool:
    """Deterministic irreducibility test (Rabin) over F_q, run once per
    polynomial (f a tuple): RamificationSet.make tests each ramified
    prime, and legendre, which find_alpha calls for every candidate
    alpha at every prime, finds the answer kept.

    Constants and the zero polynomial are not irreducible; the zero
    polynomial raises.
    """
    if not f:
        raise ValueError("zero polynomial")
    d = poly_deg(f)
    if d == 0:
        return False
    if d == 1:
        return True
    # x^(q^d) == x mod f, and x^(q^(d/l)) - x coprime to f for prime l | d;
    # frob[k] = T^(q^k) mod f, each the q-th power of the one before
    frob = [poly_mod(F, T_POLY, f)]
    for _ in range(d):
        frob.append(poly_pow_mod(F, frob[-1], F.q, f))
    if frob[d] != frob[0]:
        return False
    for ell in _prime_divisors(d):
        h = poly_sub(F, frob[d // ell], frob[0])
        if poly_deg(poly_gcd(F, h, f)) != 0:
            return False
    return True


def enumerate_monic_polys(F: GF, degree: int):
    """All monic polynomials of exactly the given degree, canonical order."""
    for coeffs in itertools.product(F.elements(), repeat=degree):
        yield coeffs + (1,)


def enumerate_monic_irreducibles(F: GF, degree: int):
    """Monic irreducibles of exactly the given degree, canonical order."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    for f in enumerate_monic_polys(F, degree):
        if is_irreducible(F, f):
            yield f


def legendre(F: GF, a, varpi) -> int:
    """Legendre symbol of a at the monic irreducible varpi: 0 or +-1.

    0 iff varpi divides a; +1 iff a is a nonzero square in A/(varpi);
    -1 otherwise.  Computed as the Jacobi symbol (a/b), b = varpi, by
    Euclid's steps and quadratic reciprocity in F_q[T] (Rosen, Number
    Theory in Function Fields, GTM 210, ch. 3): reduce a mod b; strip
    the leading coefficient c of a, with the factor chi(c)^deg b, chi
    the quadratic character of F_q; then for monic a, b coprime, (a/b) =
    (-1)^((q-1)/2 deg a deg b) (b/a), so swap them and repeat until a is
    1, or 0 when b divides the first a.  No power in A/(varpi) is taken.
    """
    if not is_irreducible(F, varpi) or varpi[-1] != 1:
        raise ValueError("varpi must be monic irreducible")
    a, b = poly_mod(F, a, varpi), varpi
    if not a:
        return 0
    half, sign = (F.q - 1) // 2, 1
    while True:
        c = a[-1]
        if len(b) % 2 == 0 and F.pow(c, half) != 1:  # chi(c)^deg b = -1
            sign = -sign
        if len(a) == 1:
            return sign
        a = poly_scale(F, F.inv(c), a)
        if half * (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        a, b = poly_mod(F, b, a), a


def hilbert_symbol(F: GF, a, b, varpi) -> int:
    """Hilbert symbol (a, b) at the finite place given by varpi.

    With a = varpi^va * u and b = varpi^vb * v, the symbol equals
    (-1)^(va*vb*eps) * legendre(u, varpi)^vb * legendre(v, varpi)^va
    where eps = (q-1)/2 * deg(varpi) mod 2.
    """
    if not a or not b:
        raise ValueError("hilbert_symbol of zero")

    def split(f):
        v = 0
        while True:
            q, r = poly_divmod(F, f, varpi)
            if r:
                return v, f
            f = q
            v += 1

    va, u = split(a)
    vb, v = split(b)
    eps = ((F.q - 1) // 2) * poly_deg(varpi) % 2
    sign = -1 if (va * vb * eps) % 2 else 1
    lu = legendre(F, u, varpi)
    lv = legendre(F, v, varpi)
    result = sign * (lu ** (vb % 2)) * (lv ** (va % 2))
    if result not in (-1, 1):
        raise AssertionError("a Hilbert symbol must be 1 or -1")
    return result


def sqrt_mod_irreducible(F: GF, a, f):
    """A square root of a modulo the monic irreducible f (Tonelli-Shanks).

    Requires legendre(a, f) = +1.  Of the two roots +-x the one with
    smaller canonical polynomial order (coefficient vectors padded to
    deg f, compared from the constant term up) is returned, reduced
    modulo f.
    """
    if legendre(F, a, f) != 1:
        raise ValueError("a is not a nonzero square modulo f")
    d = poly_deg(f)
    Q = F.q ** d
    am = poly_mod(F, a, f)

    def rmul(x, y):
        return poly_mod(F, poly_mul(F, x, y), f)

    def rpow(x, n):
        return poly_pow_mod(F, x, n, f)

    # write Q - 1 = 2^s * t with t odd
    t, s = Q - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    # first quadratic non-residue of the residue field, canonical order
    residues = map(poly_trim, itertools.product(F.elements(), repeat=d))
    z = next(r for r in residues if r and rpow(r, (Q - 1) // 2) != ONE_POLY)
    m = s
    c = rpow(z, t)
    x = rpow(am, (t + 1) // 2)
    w = rpow(am, t)
    while w != ONE_POLY:
        # order of w is 2^i
        i = next(i for i in itertools.count(1) if rpow(w, 1 << i) == ONE_POLY)
        b = rpow(c, 1 << (m - i - 1))
        m = i
        c = rmul(b, b)
        x = rmul(x, b)
        w = rmul(w, c)
    if rmul(x, x) != am:
        raise AssertionError("Tonelli-Shanks root does not square to a")
    other = poly_neg(F, x)
    if poly_sort_key(F, other, d) < poly_sort_key(F, x, d):
        x = other
    return x


# ---------------------------------------------------------------------
# text form: sums of c*T^k terms
# ---------------------------------------------------------------------

_TERM_RE = re.compile(
    r"((?:[-+]\s*)*)"
    r"(?:(?:(\d+)|\[(\s*\d+(?:\s*,\s*\d+)*)\s*\])\s*(?:\*\s*(?=T))?)?"
    r"(?:(T)(?:\s*\^\s*(\d+))?)?\s*")
_ITEM_RE = re.compile(r"(?:\[[^\]]*\]?|[^,\[])+")


def parse_poly(F: GF, text: str):
    """Read the `c*T^k` sum syntax (see the module docstring)."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial string")
    acc: dict[int, int] = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        signs, digits, coords, tvar, exp_s = m.groups()
        if not (digits or coords or tvar) or (pos and not signs):
            raise ValueError(f"cannot parse {s[pos:pos + 20]!r} in "
                             f"polynomial {text!r}")
        pos = m.end()
        if coords is None:
            coeff = F.from_int(int(digits or 1))
        elif coords.count(",") >= F.e:
            raise ValueError(f"coordinate vector too long in {text!r}")
        else:
            coeff = F.from_coords([int(c) for c in coords.split(",")])
        k = 0 if tvar is None else int(exp_s or 1)
        if k > MAX_DEGREE:
            raise ValueError(f"exponent {k} in {text!r} is above the "
                             f"supported maximum {MAX_DEGREE}")
        if signs.count("-") % 2:
            coeff = F.neg(coeff)
        acc[k] = F.add(acc.get(k, 0), coeff)
    return poly_trim([acc.get(k, 0) for k in range(max(acc) + 1)])


def split_polys(text: str) -> list[str]:
    """The items, stripped, of a comma-separated list of polynomials,
    with empty ones dropped; commas inside [...] do not split."""
    return [t.strip() for t in _ITEM_RE.findall(text) if t.strip()]


def format_poly(F: GF, f) -> str:
    """Canonical descending-degree text form of a polynomial."""
    if not f:
        return "0"

    def coeff_str(c: int) -> str:
        cs = F.coords(c)
        if any(cs[1:]):
            return "[" + ",".join(str(x) for x in cs) + "]"
        return str(cs[0])

    parts = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(coeff_str(c))
        else:
            tpow = "T" if k == 1 else f"T^{k}"
            if c == 1:
                parts.append(tpow)
            else:
                parts.append(f"{coeff_str(c)}*{tpow}")
    return "+".join(parts)


@lru_cache(maxsize=None)
def field(q: int) -> GF:
    """Shared GF(q) instance with the default modulus."""
    return GF(q)
