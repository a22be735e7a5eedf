"""Exact linear algebra: over prime fields, built on the mod-p kernels, and
one Gauss–Jordan elimination over exact fields such as Q and Q(v).

A mod-p change of basis is one elimination: :func:`complement_basis` reads
both the complement of a column space and the inverse of the frame it
completes off a single rref of [a | I], or off one stacked rref for a whole
stack of matrices."""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from ._kernels import rank_mod, rref_mod, rref_mod_stack
from .checks import check


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel of ``a`` mod p, as columns of an (n, k) array."""
    a = np.asarray(a, dtype=np.int64)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    r, rank, piv = rref_mod(a, p)
    free = [c for c in range(cols) if c not in set(piv.tolist())]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(piv):
            basis[pc, k] = (-r[i, fc]) % p
    return basis


def solve_mod(a: np.ndarray, b: np.ndarray, p: int):
    """One solution of a x = b mod p, or None when inconsistent."""
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    rows, cols = a.shape
    aug = np.concatenate([a, b.reshape(rows, -1)], axis=1)
    r, rank, piv = rref_mod(aug, p)
    piv = piv.tolist()
    if any(c >= cols for c in piv):
        return None
    nrhs = aug.shape[1] - cols
    x = np.zeros((cols, nrhs), dtype=np.int64)
    for i, pc in enumerate(piv):
        x[pc] = r[i, cols:]
    if b.ndim == 1:
        return x[:, 0]
    return x


def column_space_contains(basis: np.ndarray, vecs: np.ndarray, p: int) -> bool:
    """True when every column of ``vecs`` lies in the column space of ``basis``."""
    if vecs.size == 0:
        return True
    base_rank = rank_mod(basis, p)
    joint = np.concatenate([basis, vecs], axis=1)
    return rank_mod(joint, p) == base_rank


def subspaces(n: int, k: int, p: int):
    """All k-dimensional subspaces of F_p^n, one canonical column basis each.

    Subspaces are enumerated through reduced row echelon patterns, so each
    appears exactly once; returned as (n, k) column-basis arrays.
    """
    if k < 0 or k > n:
        return
    if k == 0:
        yield np.zeros((n, 0), dtype=np.int64)
        return
    for piv in combinations(range(n), k):
        free_positions = []
        for row, pc in enumerate(piv):
            for col in range(pc + 1, n):
                if col not in piv:
                    free_positions.append((row, col))
        base = np.zeros((k, n), dtype=np.int64)
        for row, pc in enumerate(piv):
            base[row, pc] = 1
        if not free_positions:
            yield base.T.copy()
            continue
        for values in product(range(p), repeat=len(free_positions)):
            mat = base.copy()
            for (row, col), val in zip(free_positions, values):
                mat[row, col] = val
            yield mat.T.copy()


def gaussian_binomial_int(n: int, k: int, q: int) -> int:
    """The number of k-subspaces of F_q^n, as a plain integer."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    check(num % den == 0, "Gaussian binomial quotient must be integral")
    return num // den


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)|."""
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def complement_basis(a: np.ndarray, p: int):
    """Columns extending the column space of ``a`` to the ambient space, and
    the inverse of the frame they complete, from one rref of [a | I].

    The complement ``comp`` is the unit vectors e_i that are pivot columns of
    rref([a | I]): each e_i not in the span of ``a`` and the earlier e_j, i.e.
    the greedy choice in index order.  The right block of that rref is the
    row operations E, and E [a[:, pivots] | comp] = I, so the last
    ``len(comp)`` rows of E project onto the quotient by the span of ``a`` in
    the basis ``comp``.  Returns ``(comp, E)``.

    ``a`` may also be an (N, n, k) stack of matrices of one rank (else
    ValueError); then ``comp`` is (N, n, n - rank) and E is (N, n, n), both
    read off one :func:`~hallcrys._kernels.rref_mod_stack` of the stacked
    [a | I], and a stack of one goes through :func:`rref_mod`.
    """
    a = np.asarray(a, dtype=np.int64)
    stack = a if a.ndim == 3 else a[None]
    count, n, k = stack.shape
    eye = np.eye(n, dtype=np.int64)
    joint = np.zeros((count, n, k + n), dtype=np.int64)
    joint[:, :, :k] = stack
    joint[:, :, k:] = eye
    r, _, pivots = rref_mod_stack(joint, p)
    units = pivots[:, k:]
    if a.ndim == 2:
        return eye[:, units[0]], r[0, :, k:].copy()
    width = units.sum(axis=1)
    if (width != width[:1]).any():
        raise ValueError("complement_basis needs a stack of matrices of one rank")
    idx = np.nonzero(units)[1].reshape(count, int(width[0]) if count else max(n - k, 0))
    return eye[:, idx].transpose(1, 0, 2), r[:, :, k:].copy()


def invertible_mod(a: np.ndarray, p: int) -> bool:
    n, m = a.shape
    return n == m and rank_mod(a, p) == n


# ----------------------------------------------------------------------
# exact fields (Fraction, RatFunc)


def gauss_jordan(rows, ncols=None):
    """Reduce ``rows`` in place to reduced row echelon form over an exact field.

    Entries support ``+ - * /`` and truthiness (``Fraction``, ``RatFunc``).
    Pivots are taken column by column, from the first nonzero row at or below
    the current one, among the first ``ncols`` columns (default all); later
    columns, such as a right-hand side, are reduced along.  Returns
    ``(pivot_cols, leads, sign)``: ``leads`` are the pivot entries before
    normalization and ``sign`` is the sign of the row swaps, so for a square
    matrix of full rank ``sign * prod(leads)`` is its determinant.
    """
    nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    leads = []
    sign = 1
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        lead = rows[rank][col]
        leads.append(lead)
        prow = rows[rank] = [x / lead if x else x for x in rows[rank]]
        for r in range(nrows):
            f = rows[r][col]
            if f and r != rank:
                rows[r] = [x - f * y if y else x for x, y in zip(rows[r], prow)]
        pivots.append(col)
        rank += 1
    return pivots, leads, sign


def solve(cols, rhs, field):
    """One solution of sum_j x_j cols[j] = rhs over ``field`` (a type such as
    ``Fraction`` or ``RatFunc``), free variables 0; None when inconsistent."""
    ncols = len(cols)
    aug = [[col[i] for col in cols] + [b] for i, b in enumerate(rhs)]
    pivots = gauss_jordan(aug, ncols)[0]
    if any(row[ncols] for row in aug[len(pivots):]):
        return None
    x = [field(0)] * ncols
    for row, c in zip(aug, pivots):
        x[c] = row[ncols]
    return x


def nullspace(cols, nrows, field):
    """Basis of the right kernel of the ``nrows``-row matrix with the given
    columns, over ``field``: one vector per non-pivot column of its RREF."""
    ncols = len(cols)
    rows = [[col[i] for col in cols] for i in range(nrows)]
    pivots = gauss_jordan(rows)[0]
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [field(0)] * ncols
        vec[fc] = field(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis
