"""Brute-force enumeration of order units, independent of the hom solver.

The acceptance suite checks the linear-algebra hom solver against an
exhaustive search: enumerate every element of the order whose four
polynomial coordinates have degree <= hbound, keep the ones whose
reduced norm is a nonzero constant, and sort the survivors by their
action on the tree.  Nothing here goes through the solver's kernel
machinery; the only shared code is the embedding and the normal form.
The action is the general one, vnf of the full matrix product and its
determinant, not the unit action the package uses.

laurent_check is the solution check of homspace as it was when it read
iota(gamma) as four Laurent entries and asserted the reduced norm
first: the reference for the packed check's images and refusals.

The reduced norm of a + b*i + c*j + d*k (k the integral generator
(eps*i + ij)/alpha) is

    nrd = a^2 - alpha*b^2 - r*c^2 - nu*d^2 - 2*eps*b*d,

so for fixed (b, c, d) the unit condition says a^2 agrees with
alpha*b^2 + r*c^2 + nu*d^2 + 2*eps*b*d in every coefficient of degree
>= 1.  The sweep tabulates the right-hand side over all (b, d) x (c)
and matches it against the table of squares a^2 by a sorted-key lookup.
Keys pack the coefficients (constant dropped) in base 8, which makes
them additive digit-wise: a digit of the sum lies in {0..4} and is
reduced mod 3 by one vectorized correction, with no carries.
"""

from collections import defaultdict

import numpy as np

from btquot.algebra import slot_bytes
from btquot.laurent import InsufficientPrecisionError, Laurent, newton_sqrt
from btquot.quaternion import QuatElem, height
from btquot.tree import (BASE_VERTEX, down_neighbor, neighbors,
                         retry_with_precision, up_neighbor)
from laurent_helpers import constant, general_act, vertex_matrix


def coefficient_rows(q: int, width: int) -> np.ndarray:
    """All q**width polynomials of degree < width, one row of base-q
    digits each, row index i encoding the polynomial with digits of i."""
    idx = np.arange(q ** width)
    return ((idx[:, None] // q ** np.arange(width)) % q).astype(np.int8)


def rows_times_poly(rows: np.ndarray, f, q: int, out_len: int) -> np.ndarray:
    """Multiply each row (a polynomial) by the fixed polynomial f."""
    out = np.zeros((rows.shape[0], out_len), dtype=np.int64)
    for k, c in enumerate(f):
        if c:
            out[:, k:k + rows.shape[1]] += c * rows
    return (out % q).astype(np.int8)


def row_to_poly(row) -> tuple:
    p = [int(x) for x in row]
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def enumerate_units(alg, hbound: int):
    """All units of the order with coordinate degrees <= hbound, as an
    (N, 4) array of row indices into coefficient_rows(q, hbound + 1).

    Only implemented for q = 3 (base-8 key packing wants digit sums
    below 8, i.e. 2*(q-1) + 1 <= 8).
    """
    q = alg.F.q
    assert q == 3, "unit sweep is tuned for q = 3"
    width = hbound + 1
    sq_len = 2 * width - 1
    work_len = sq_len + max(len(alg.ram.r), len(alg.alpha)) - 1
    rows = coefficient_rows(q, width)
    n = rows.shape[0]

    squares = np.zeros((n, work_len), dtype=np.int8)
    for i in range(n):
        squares[i, :sq_len] = np.convolve(rows[i], rows[i]) % q

    pow8 = 8 ** np.arange(work_len - 1, dtype=np.int64)
    ones = int(pow8.sum())

    def pack(mat):
        return mat[:, 1:].astype(np.int64) @ pow8

    def reduce_digits(key):
        # base-8 digits in {0..4}; subtract 3 wherever the digit is >= 3
        mask = ((key + ones) >> 2) & ones
        return key - 3 * mask

    key_sq = pack(squares)
    order = np.argsort(key_sq, kind="stable")
    key_sorted = key_sq[order]

    two_eps = tuple(2 * c % q for c in alg.epsilon)
    rc2 = rows_times_poly(squares[:, :sq_len], alg.ram.r, q, work_len)
    nud2 = rows_times_poly(squares[:, :sq_len], alg.nu, q, work_len)
    ab2 = rows_times_poly(squares[:, :sq_len], alg.alpha, q, work_len)
    key_rc2 = pack(rc2)

    units = []
    for b in range(n):
        toeplitz = np.zeros((sq_len, width), dtype=np.int8)
        for u in range(width):
            toeplitz[u:u + width, u] = rows[b]
        bd = (rows.astype(np.int64) @ toeplitz.T) % q
        cross = rows_times_poly(bd, two_eps, q, work_len)
        lhs = (ab2[b][None, :] + nud2 + cross) % q        # indexed by d
        key_lhs = pack(lhs)
        key = reduce_digits(key_lhs[:, None] + key_rc2[None, :])
        flat = key.ravel()
        lo = np.searchsorted(key_sorted, flat, side="left")
        hit = lo < n
        hit[hit] = key_sorted[lo[hit]] == flat[hit]
        for pos in np.nonzero(hit)[0]:
            d, c = divmod(int(pos), n)
            const = int((lhs[d, 0] + rc2[c, 0]) % q)
            s = int(lo[pos])
            while s < n and key_sorted[s] == flat[pos]:
                a = int(order[s])
                if (int(squares[a, 0]) - const) % q:
                    units.append((a, b, c, d))
                s += 1
    return rows, np.array(units, dtype=np.int64)


def _embedded_basis(alg, prec: int):
    """iota(1), iota(i), iota(j), iota(k) as 2x2 Laurent tuples."""
    F = alg.F
    s = newton_sqrt(F, alg.alpha, prec)
    sinv = s.inv()
    eps = Laurent.from_poly(F, alg.epsilon, prec)
    r = Laurent.from_poly(F, alg.ram.r, prec)
    one = constant(F, 1, prec)
    zero = Laurent.zero(F)
    return (
        (one, zero, zero, one),
        (s, zero, zero, zero - s),
        (zero, one, r, zero),
        (eps * sinv, sinv, zero - r * sinv, zero - eps * sinv),
    )


def image_in_ball_filter(alg, rows, units, v, radius: int) -> np.ndarray:
    """Boolean mask: which units map the vertex v into ball(radius)?

    With N = iota(gamma) * M_v one has det N = nrd(gamma) * pi^(v.n), so
    d(base, gamma.v) = v.n - 2 * min val(entries of N) and the distance
    is <= radius iff every entry coefficient below pi^ceil((v.n -
    radius)/2) vanishes.  Each such coefficient is an F_q-linear
    function of the 4*(hbound+1) polynomial coordinates, so the whole
    test is one matrix product.  Exact, not a heuristic.
    """
    q = alg.F.q
    width = rows.shape[1]
    threshold = -((radius - v.n) // 2)            # ceil((v.n - radius)/2)
    vmin_iota = -(width - 1) - max(alg.m, len(alg.ram.r) - 1)
    gval = v.gval if v.gcoeffs else 0
    vmin = vmin_iota + min(v.n, gval, 0)
    exps = range(vmin, threshold)
    if not len(exps):
        return np.ones(len(units), dtype=bool)

    prec = 2 * (width + len(alg.ram.r) + abs(v.n)) + 16
    mv = vertex_matrix(alg.F, v, prec)
    basis = _embedded_basis(alg, prec)
    # per coordinate, the 2x2 product iota(basis_c) * M_v
    prods = []
    for bm in basis:
        b11, b12, b21, b22 = bm
        m11, m12, m21, m22 = mv.entries()
        prods.append((b11 * m11 + b12 * m21, b11 * m12 + b12 * m22,
                      b21 * m11 + b22 * m21, b21 * m12 + b22 * m22))

    cols = 4 * len(exps)
    design = np.zeros((4 * width, cols), dtype=np.float64)
    for coord in range(4):
        for deg in range(width):
            col = 0
            for entry in range(4):
                series = prods[coord][entry]
                for e in exps:
                    # T^deg = pi^(-deg) shifts the needed coefficient
                    design[coord * width + deg, col] = series.coeff(e + deg)
                    col += 1
    coords = np.concatenate([rows[units[:, k]] for k in range(4)],
                            axis=1).astype(np.float64)
    neg = np.rint(coords @ design).astype(np.int64) % q
    return ~neg.any(axis=1)


def unit_elem(rows, unit_row) -> QuatElem:
    a, b, c, d = unit_row
    return QuatElem((row_to_poly(rows[a]), row_to_poly(rows[b]),
                     row_to_poly(rows[c]), row_to_poly(rows[d])))


def negate_elem(x: QuatElem, q: int) -> QuatElem:
    return QuatElem(tuple(tuple((q - c) % q for c in comp) for comp in x))


def pair_incidences(alg, rows, units, vertices, radius: int):
    """{(v, w): set of units gamma with gamma.v = w} over the ball.

    Exhaustive over the given units.  gamma and -gamma act identically,
    so only one representative of each pair is pushed through the tree
    action; the embedding of that representative is computed once and
    reused for all of its source vertices.
    """
    q = alg.F.q
    in_ball = set(vertices)

    # one representative per scalar pair {gamma, -gamma}
    width = rows.shape[1]
    neg_digit = (q - rows) % q
    neg_row = (neg_digit.astype(np.int64)
               @ (q ** np.arange(width, dtype=np.int64)))
    keys = units @ (len(rows) ** np.arange(4, dtype=np.int64))
    neg_keys = neg_row[units] @ (len(rows) ** np.arange(4, dtype=np.int64))
    reps = units[keys < neg_keys]

    sources = defaultdict(list)
    for v in vertices:
        mask = image_in_ball_filter(alg, rows, reps, v, radius)
        for k in np.nonzero(mask)[0]:
            sources[int(k)].append(v)

    oracle = defaultdict(set)
    for k, vs in sources.items():
        gamma = unit_elem(rows, reps[k])
        nmax = max(abs(v.n) for v in vs)
        start = 4 * (height(gamma) + alg.m + nmax + 4)

        def run(prec, gamma=gamma, vs=vs):
            M = alg.embed(gamma, prec)
            return [general_act(M, v) for v in vs]

        images = retry_with_precision(run, start)
        minus = negate_elem(gamma, q)
        for v, w in zip(vs, images):
            assert w in in_ball, (gamma, v, w)
            oracle[(v, w)].add(gamma)
            oracle[(v, w)].add(minus)
    return dict(oracle)


def ball(F, radius: int):
    """All tree vertices within the given distance of the base."""
    out = [BASE_VERTEX]
    seen = {BASE_VERTEX}
    frontier = [BASE_VERTEX]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for u in neighbors(F, v):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        out.extend(nxt)
        frontier = nxt
    return out


def laurent_check(alg, gamma, v, w, *more):
    """homspace._assert_solution as it was before it read iota(gamma) off
    embed_packed's sums, kept as its reference: the same refusals in the
    same order, and the same images of the vertices more.

    It asserts is_unit first, by the reduced norm, then the height
    bound, then reads iota(gamma) as four Laurent entries
    (AlgebraData.embed) cut to the precision P the check needs, packs
    them again beside g_v and -g_w, and forms every entry of Y = pi^s
    Mw^(-1) iota(gamma) Mv with products of up to four factors, H C G
    among them, at a slot width bounded by the product of the lengths."""
    if not alg.is_unit(gamma):
        raise AssertionError("hom solution is not a unit of the order")
    D, m = (v.dist_to_base() + w.dist_to_base()) // 2, alg.m
    bound = (D + 1, D + max(m - 1, 0) + 1, D + 1, D + m + 1)
    if any(len(lam) > c for lam, c in zip(gamma.lam, bound)):
        raise AssertionError("hom solution violates the height bound")
    if (v.n - w.n) % 2 or not any(gamma.lam[1:]):
        if (v.n - w.n) % 2 or v != w:
            raise AssertionError("hom solution does not map source to target")
        return list(more)
    F, s = alg.F, (w.n - v.n) // 2
    prec = 1 - s - min(v.n, v.gval, 0) - min(0, w.gval - w.n, -w.n)
    if prec > alg.precision_cap:
        raise InsufficientPrecisionError(f"check needs precision {prec}, "
                                         f"above the cap {alg.precision_cap}")
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
    Y = [(s - w.n + v.n, [(A, 0), (H * C, gw)]), (s + v.n, [(C, 0)]),
         (s - w.n, [(A * G, gv), (B, 0), (H * C * G, gv + gw), (H * D, gw)]),
         (s, [(C * G, gv), (D, 0)])]
    es = [min(0, lo + k + min(f for _, f in ts)) for k, ts in Y]
    if min(prec - lo + e for e in es) < 1:
        raise AssertionError("solution check short of precision")
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
        x, y = (1, 0) if u == up else \
            (dict(enumerate(u.gcoeffs, u.gval)).get(v.n, 0), 1)
        if y and u != down_neighbor(v, x):
            raise AssertionError("vertex and source are not tree neighbours")
        top, bottom = (F.add(F.mul(r, x), F.mul(t, y)) for r, t in Ybar)
        images.append(down_neighbor(w, F.mul(top, F.inv(bottom)))
                      if bottom else up_neighbor(w))
    return images
