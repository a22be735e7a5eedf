"""Exact linear algebra: over prime fields, built on the mod-p kernels, and
one Gauss–Jordan elimination over exact fields such as Q and Q(v)."""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from ._kernels import rank_mod, rref_mod


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


def column_reduce(basis: np.ndarray, p: int) -> np.ndarray:
    """Canonical column basis (transposed rref) of the column space."""
    r, rank, _ = rref_mod(basis.T, p)
    return r[:rank].T.copy()


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
    assert num % den == 0
    return num // den


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)|."""
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def complement_basis(basis: np.ndarray, p: int) -> np.ndarray:
    """Columns extending ``basis`` to a basis of the ambient space.

    The chosen columns are the unit vectors e_i that are pivot columns of
    rref([basis | I]): each e_i not in the span of ``basis`` and the earlier
    e_j, i.e. the greedy choice in index order.
    """
    n, k = basis.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    joint = np.concatenate([basis, np.eye(n, dtype=np.int64)], axis=1)
    _, _, piv = rref_mod(joint, p)
    units = [int(c) - k for c in piv if c >= k]
    return np.eye(n, dtype=np.int64)[:, units]


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
    ``(pivot_cols, det)``, where ``det`` is the product of the pivots with the
    sign of the row swaps: the determinant of a square matrix of full rank.
    """
    nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    det = 1
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        lead = rows[rank][col]
        det = det * lead
        prow = rows[rank] = [x / lead if x else x for x in rows[rank]]
        for r in range(nrows):
            f = rows[r][col]
            if f and r != rank:
                rows[r] = [x - f * y if y else x for x, y in zip(rows[r], prow)]
        pivots.append(col)
        rank += 1
    return pivots, det


def solve(cols, rhs, field):
    """One solution of sum_j x_j cols[j] = rhs over ``field`` (a type such as
    ``Fraction`` or ``RatFunc``), free variables 0; None when inconsistent."""
    ncols = len(cols)
    aug = [[col[i] for col in cols] + [b] for i, b in enumerate(rhs)]
    pivots, _ = gauss_jordan(aug, ncols)
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
    pivots, _ = gauss_jordan(rows)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [field(0)] * ncols
        vec[fc] = field(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis
