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
F_q in the 4(nm + 1) polynomial coefficients, built from arrays:

* columns: the images Y_k of the four basis elements.  Each entry of
  Y_k is a short exact series in g_v, g_w and powers of pi times an
  entry of iota(b_k) (see _system_factors), so all sixteen are one
  matrix product against the memoized basis embedding
  (AlgebraData.basis_stack), with the Laurent precision rule carried
  alongside.  A column known below pi^nm only raises
  InsufficientPrecisionError, and the solve is retried at doubled
  precision;
* equations: row (entry, t), column (k, j) holds the pi^(j - t)
  coefficient of Y_k, for every t >= 1 (the T^j coefficient of lam_k
  must not push that entry below O_infinity), read off in one Toeplitz
  gather;
* kernel: one Gauss-Jordan elimination by F_q table lookups, the same
  for prime and non-prime q.  Its reduced echelon basis is unique, so
  the answer does not depend on how the rows were assembled.

Solutions automatically have reduced norm in F_q^* and map v to w (the
determinant argument fixes the norm's valuation, and a unit of the order
with the right action is forced); both facts are asserted, never used
as filters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import GF, ZERO_POLY, poly_add, poly_scale, poly_trim
from .laurent import INF, InsufficientPrecisionError
from .quaternion import AlgebraData, QuatElem, height
from .tree import Vertex, act, retry_with_precision


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

    def elements(self):
        """All nonzero F_q-combinations of the basis."""
        F = self.field
        for coeffs in itertools.product(F.elements(), repeat=self.dim):
            if all(c == 0 for c in coeffs):
                continue
            lam = [ZERO_POLY] * 4
            for c, b in zip(coeffs, self.basis):
                if c == 0:
                    continue
                for k in range(4):
                    lam[k] = poly_add(F, lam[k],
                                      poly_scale(F, c, b.lam[k]))
            yield QuatElem(tuple(lam))


def _system_factors(F: GF, v: Vertex, w: Vertex):
    """The exact series G[rho][x] with pi^shift * Mw^(-1) X Mv = G * X,
    entries flattened as (a, b, c, d) on both sides:

        Y11 = pi^(nv - nw + s) (a - g_w c)
        Y12 = pi^(s - nw) (g_v a + b - g_w g_v c - g_w d)
        Y21 = pi^(nv + s) c
        Y22 = pi^s (g_v c + d),           s = (nw - nv) / 2.

    Returns (codes, base, vals) in the form SeriesStack.left_mul takes.
    """
    neg = F.tables()[2]
    s = (w.n - v.n) // 2
    one = (0, np.ones(1, dtype=np.int64))
    gv = (v.gval, np.array(v.gcoeffs, dtype=np.int64)) if v.gcoeffs \
        else None
    ngw = (w.gval, neg[np.array(w.gcoeffs, dtype=np.int64)]) if w.gcoeffs \
        else None
    ngwgv = (ngw[0] + gv[0], F.conv(ngw[1], gv[1])) if gv and ngw else None
    terms = {(0, 0): one, (0, 2): ngw,
             (1, 0): gv, (1, 1): one, (1, 2): ngwgv, (1, 3): ngw,
             (2, 2): one,
             (3, 2): gv, (3, 3): one}
    shifts = (v.n - w.n + s, s - w.n, v.n + s, s)
    placed = {(rho, x): (t[0] + shifts[rho], t[1])
              for (rho, x), t in terms.items() if t is not None}
    base = min(start for start, _ in placed.values())
    width = max(start + len(c) for start, c in placed.values()) - base
    codes = np.zeros((4, 4, width), dtype=np.int64)
    vals = np.full((4, 4), INF)
    for (rho, x), (start, c) in placed.items():
        codes[rho, x, start - base:start - base + len(c)] = c
        vals[rho, x] = start
    return codes, base, vals


def _system_matrix(alg: AlgebraData, v: Vertex, w: Vertex, nm: int,
                   prec: int):
    """The F_q-linear equations forcing every pi^(-t), t >= 1,
    coefficient of pi^shift * Mw^(-1) iota(lambda) Mv to vanish, where
    lambda_k = sum_j lam[k][j] T^j, deg <= nm, over the order basis.

    Row (rho, t), column (k, j) holds the pi^(j - t) coefficient of
    Y[rho][k] = (pi^shift * Mw^(-1) iota(b_k) Mv)[rho]: one Toeplitz
    gather from the closed-form columns.  Raises
    InsufficientPrecisionError when a column is known below pi^nm only.
    """
    Y, yval, yprec = alg.basis_stack(prec).left_mul(
        *_system_factors(alg.F, v, w))
    if (yprec < nm).any():
        raise InsufficientPrecisionError(
            "system matrix below required precision")
    nonzero = Y.any(axis=(0, 1)).nonzero()[0]
    vmin = min(0, yval + int(nonzero[0])) if len(nonzero) else 0
    tmax = nm - vmin
    # exponents j - t run over [-tmax, nm); pad Y onto that window
    window = np.zeros((4, 4, nm + tmax), dtype=np.int64)
    lo, hi = max(-tmax, yval), min(nm, yval + Y.shape[2])
    if lo < hi:
        window[:, :, lo + tmax:hi + tmax] = Y[:, :, lo - yval:hi - yval]
    t = np.arange(1, tmax + 1)[:, None]
    j = np.arange(nm + 1)[None, :]
    A = window[:, :, j - t + tmax].transpose(0, 2, 1, 3)
    A = A.reshape(4 * tmax, 4 * (nm + 1))
    return A[A.any(axis=1)]


def _kernel_basis(F: GF, A, ncols: int):
    """Basis of the kernel of the code matrix A over F_q: one vector per
    free column of the reduced echelon form, in column order, each
    scaled so its first nonzero entry is 1.  The reduced echelon form is
    unique, so neither the row order nor redundant rows can change the
    result.  One elimination for every q, by table lookups: a step
    replaces each row by row - A[i, c] * pivot row in a single gather
    from the table of a - f*b."""
    _, mul, neg, inv = F.tables()
    q = F.q
    step = _step_table(F)
    A = A.copy()
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(A):
            break
        nz = A[r:, c].nonzero()[0]
        if not len(nz):
            continue
        i = r + nz[0]
        if i != r:
            A[[r, i]] = A[[i, r]]
        row = mul[inv[A[r, c]]][A[r]]
        A = step[A * (q * q) + (A[:, c] * q)[:, None] + row]
        A[r] = row
        pivots.append(c)
        r += 1
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = np.zeros(ncols, dtype=np.int64)
        vec[f] = 1
        vec[pivots] = neg[A[:len(pivots), f]]
        lead = vec[vec.nonzero()[0][0]]
        out.append(tuple(mul[inv[lead]][vec].tolist()))
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
                     w: Vertex, nm: int) -> None:
    if not alg.is_unit(gamma):
        raise AssertionError("hom solution is not a unit of the order")
    if height(gamma) > nm:
        raise AssertionError("hom solution violates the height bound")

    def run(prec):
        return act(alg.embed(gamma, prec), v)

    if retry_with_precision(run, 4 * (nm + alg.m + 1) + 8) != w:
        raise AssertionError("hom solution does not map source to target")


def hom(alg: AlgebraData, v: Vertex, w: Vertex) -> HomSet:
    """The set {gamma in Gamma : gamma.v = w} as a HomSet."""
    F = alg.F
    if (v.n - w.n) % 2 != 0:
        return HomSet(F, v, w, ())
    n = max(v.dist_to_base(), w.dist_to_base())
    d = max(alg.ram.d, alg.m)
    nm = n + alg.m
    base_prec = 2 * n + d + alg.m + 1
    A = retry_with_precision(
        lambda prec: _system_matrix(alg, v, w, nm, prec), base_prec)
    vecs = _kernel_basis(F, A, 4 * (nm + 1))
    basis = tuple(_vector_to_quat(vec, nm) for vec in vecs)
    if len(basis) > 2:
        raise AssertionError(
            f"hom space has impossible dimension {len(basis)}")
    for gamma in basis:
        _assert_solution(alg, gamma, v, w, nm)
    return HomSet(F, v, w, basis)


def end_and_classify(alg: AlgebraData, v: Vertex):
    """(End(v), stability): stable iff the endomorphisms are just the
    scalars (dim 1), unstable iff they form a quadratic field (dim 2)."""
    ends = hom(alg, v, v)
    if ends.dim == 1:
        return ends, "stable"
    if ends.dim == 2:
        return ends, "unstable"
    raise AssertionError(
        f"endomorphism algebra of {v!r} has impossible dimension "
        f"{ends.dim}")
