"""The hom solver: hom systems built and eliminated as numpy arrays.

This is the one module of the package that imports numpy when it is
loaded; homspace.hom and quotient.compute_quotient import it when they
are called.  The math of the systems, their columns (homspace._widths)
and heights, is in the homspace docstring.

hom_stack solves stacks of one search level, which share its parity of
n: each stack a source v and its targets, for a candidate End(v) and
Hom(v, w') for the earlier candidates w' of its level still live when
its sibling group (the candidates of one frontier vertex) is solved, the
first nonzero one in candidate order its pairing.  A stack is solved at
its level's height D = n (the columns a pair does not need are zero on
every solution, see homspace); homspace.hom solves a single pair, empty
across parities.  Both work from arrays:

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

field_arrays holds GF's tables and coordinate kernels as int64 arrays,
built once per field from its lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import GF, poly_trim
from .homspace import HomSet, _widths, _within_cap
from .quaternion import AlgebraData, QuatElem
from .tree import Vertex


class FieldArrays(NamedTuple):
    """GF's (add, mul, neg, inv) tables, inv[0] = 0, with digits[a] the
    coordinate row of the code a, place the weights p^i that turn
    coordinates back into a code, and fold_products[:, i, j] the
    coordinates of x^i * x^j (GF.xpow[i + j])."""

    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    inv: np.ndarray
    digits: np.ndarray
    place: np.ndarray
    fold_products: np.ndarray


@lru_cache(maxsize=None)
def field_arrays(F: GF) -> FieldArrays:
    """F's FieldArrays, as int64 arrays, once per field."""
    xpow = np.array(F.xpow, dtype=np.int64)
    return FieldArrays(
        *(np.array(t, dtype=np.int64)
          for t in (F._add, F._mul, F._neg, F._inv, F._coords)),
        F.p ** np.arange(F.e, dtype=np.int64),
        xpow.T[:, np.add.outer(range(F.e), range(F.e))])


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
    prec (basis_entries rounds it up) and asserted known to it, go
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
    entries = [e for row in alg.basis_entries(prec)[0] for e in row]
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
    right = field_arrays(F).add[Z[1::2],
                               _fq_matmul(F, Z[None, ::2], G[:, None])]
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
    _, mul, neg, inv, *_ = field_arrays(F)
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
    _, mul, _, inv, *_ = field_arrays(F)
    rows = X.reshape(-1, X.shape[-1])
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return mul[inv[lead][:, None], rows].reshape(X.shape)


@lru_cache(maxsize=None)
def _step_table(F: GF):
    """step[(a*q + f)*q + b] = a - f*b, flattened."""
    add, mul, neg, *_ = field_arrays(F)
    return add[np.arange(F.q)[:, None, None], neg[mul][None]].ravel()


def _fq_matmul(F: GF, X, Y):
    """X @ Y over F_q for code arrays, stacked as np.matmul stacks them:
    the integer products of the coordinate planes of X and Y, plane i
    times plane j landing on x^(i+j), which fold_products takes back to
    coordinates; for prime q, the integer product mod p."""
    A = field_arrays(F)
    planes = (np.take(A.digits.T, X, axis=1)[:, None]
              @ np.take(A.digits.T, Y, axis=1)[None])
    coords = (A.fold_products.reshape(F.e, -1)
              @ planes.reshape(F.e * F.e, -1) % F.p)
    return (A.place @ coords).reshape(planes.shape[2:])


def _vector_to_quat(vec, widths) -> QuatElem:
    """The quaternion of a solution vector, lam_k on the widths[k]
    columns of coordinate k (_widths)."""
    ends = itertools.accumulate(widths)
    return QuatElem(tuple(poly_trim(tuple(vec[e - c:e]))
                          for c, e in zip(widths, ends)))


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
    G = field_arrays(alg.F).neg[_toeplitz(list(index),
                                          [n - w.degn() for w in index],
                                          n)]
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
    add = field_arrays(F).add
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


