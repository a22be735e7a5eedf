"""Mod-p kernels: row reduction, the point encoding of E_d, orbit closure.

``rref_mod`` is one Gauss–Jordan elimination over rows of Python ints; for a
single small matrix that beats numpy row operations.  ``rank_mod_stack``
ranks a whole stack of equal-shape matrices in one numpy column sweep; it
serves ``modules.hom_counts``, the one stacked Hom count, which the Hom
matrix, Krull–Schmidt labelling and Ext's Hom(P1, N) go through, and the
images g o phi of ``modules.ext_dims``.  ``rref_mod_stack`` reduces a stack
the same way to full RREFs; it serves ``linalg.complement_basis``, which
completes the frames of a Grassmannian.  Every caller passes one cut of its
batch at a time, as ``modules.stack_cuts`` bounds it, so no stack outgrows
``modules._HOM_STACK`` entries.
``decode_points``/``encode_points`` map points of E_d (tuples of arrow
matrices) to integer codes and back, and ``orbit_fill`` is the
breadth-first flood fill behind the orbit oracle of
:class:`~hallcrys.classtable.ClassTable`, with each generator applied to a
whole frontier by batched matrix products and each frontier made distinct
by ``sorted_distinct``.
"""

from __future__ import annotations

import numpy as np

# Read only by perfbench, which records them with each run's environment.
_HAVE_NUMBA = False
BACKEND = "python"


def rref_mod(a: np.ndarray, p: int):
    """RREF of ``a`` mod p (not in place); returns (rref, rank, pivot_cols)."""
    a = np.asarray(a, dtype=np.int64)
    nrows, ncols = a.shape
    rows = (a % p).tolist()
    pivots = []
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank]
        inv = pow(lead[col], -1, p)
        if inv != 1:
            lead = rows[rank] = [x * inv % p for x in lead]
        for r in range(nrows):
            f = rows[r][col]
            if f and r != rank:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], lead)]
        pivots.append(col)
        rank += 1
    out = np.array(rows, dtype=np.int64).reshape(nrows, ncols)
    return out, rank, np.array(pivots, dtype=np.int64)


def rank_mod(a: np.ndarray, p: int) -> int:
    return rref_mod(a, p)[1]


def rank_mod_stack(a: np.ndarray, p: int) -> np.ndarray:
    """The ranks mod p of a ``(B, r, c)`` stack, as an int64 array of length B.

    One column sweep for the whole stack: at each column every matrix picks
    its first unused row with a nonzero entry there, scales it to a unit
    pivot through a table of inverses mod p, and clears the column from its
    other unused rows, all in one broadcast.

    Only what a step reads is reduced mod p: the current column and the
    pivot row.  The trailing block is updated by ``a -= factor * lead`` and
    never reduced, so its entries stay congruent mod p and, from [0, p)
    after the first reduction, lose at most (p - 1)**2 per step: every entry
    stays within p + ncols * (p - 1)**2 of zero, ncols being the number of
    columns swept (the smaller of r and c).  Numpy integer arithmetic wraps
    without a warning, so a stack for which that bound reaches 2**63 raises
    ValueError, read from p and the shape alone, before any arithmetic.

    A stack of one matrix goes through :func:`rref_mod` instead: for one
    small matrix the sweep's numpy calls cost several times the Python-int
    elimination."""
    swept = min(np.shape(a)[1:])
    if p + swept * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"a sweep of {swept} columns mod {p} can overflow int64")
    a = np.asarray(a, dtype=np.int64) % p
    if a.shape[0] == 1:
        return np.array([rref_mod(a[0], p)[1]], dtype=np.int64)
    if a.shape[2] > a.shape[1]:
        a = a.transpose(0, 2, 1).copy()      # same rank, fewer columns to sweep
    batch, nrows, ncols = a.shape
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    rank = np.zeros(batch, dtype=np.int64)
    free = np.ones((batch, nrows), dtype=bool)
    every = np.arange(batch)
    for col in range(ncols):
        column = a[:, :, col] % p
        cand = free & (column != 0)
        piv = cand.argmax(axis=1)
        found = cand[every, piv]
        if not found.any():
            continue
        rank += found
        free[every[found], piv[found]] = False
        if col + 1 == ncols or not free.any():
            break
        # no pivot in this matrix: its scale is inverse[0] = 0, so nothing moves
        lead = a[every, piv, col + 1:] % p * inverse[column[every, piv]][:, None] % p
        factor = np.where(free, column, 0)
        a[:, :, col + 1:] -= factor[:, :, None] * lead[:, None, :]
    return rank


def rref_mod_stack(a: np.ndarray, p: int):
    """The RREFs mod p of a ``(B, r, c)`` stack: returns (rref, rank,
    pivots), the ``(B, r, c)`` stack of RREFs, the int64 ranks and a
    ``(B, c)`` bool mask of each matrix's pivot columns.

    One Gauss-Jordan column sweep for the whole stack: at each column every
    matrix picks its first row at or below its rank with a nonzero entry
    there, moves it up to the rank's row, scales it to a unit pivot and
    clears the column from every other row, all in one broadcast.  Rows at
    or below the rank are zero left of the column, so only the columns from
    it onwards are updated, and every entry is reduced mod p at each step.

    A stack of one matrix goes through :func:`rref_mod` instead, as in
    :func:`rank_mod_stack`."""
    if p + (p - 1) ** 2 >= 2**63:
        raise ValueError(f"an elimination step mod {p} can overflow int64")
    a = np.asarray(a, dtype=np.int64) % p
    batch, nrows, ncols = a.shape
    pivots = np.zeros((batch, ncols), dtype=bool)
    if batch == 1:
        out, rank, piv = rref_mod(a[0], p)
        pivots[0, piv] = True
        return out[None], np.array([rank], dtype=np.int64), pivots
    rank = np.zeros(batch, dtype=np.int64)
    if not (nrows and ncols):
        return a, rank, pivots
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    rows = np.arange(nrows)
    for col in range(ncols):
        cand = (a[:, :, col] != 0) & (rows >= rank[:, None])
        piv = cand.argmax(axis=1)
        found = np.flatnonzero(cand[np.arange(batch), piv])
        if not found.size:
            continue
        src, dst = piv[found], rank[found]
        lead = a[found, src, col:]
        a[found, src, col:] = a[found, dst, col:]
        lead = lead * inverse[lead[:, 0]][:, None] % p
        sub = a[found, :, col:]
        sub -= sub[:, :, :1] * lead[:, None, :]
        sub %= p
        sub[np.arange(found.size), dst] = lead
        a[found, :, col:] = sub
        pivots[found, col] = True
        rank[found] += 1
    return a, rank, pivots


def decode_points(codes, cells, p) -> list:
    """The arrow matrices of a batch of points of E_d, one ``(batch, r, c)``
    array per arrow cell ``(r, c)``.

    Point encoding: the arrow matrices (row-major, in arrow order) read as
    base-p digits, least significant first.
    """
    codes = np.asarray(codes, dtype=np.int64)
    pow_p = p ** np.arange(sum(r * c for r, c in cells), dtype=np.int64)
    digits = (codes[:, None] // pow_p[None, :]) % p
    mats = []
    off = 0
    for r, c in cells:
        # explicit leading axis: numpy cannot infer -1 for an empty block
        mats.append(digits[:, off:off + r * c].reshape(codes.shape[0], r, c))
        off += r * c
    return mats


def encode_points(mats, p, batch=None) -> np.ndarray:
    """The codes of a batch of points given as in :func:`decode_points`.

    ``batch`` is the number of points; it defaults to the first block's and
    must be given for a quiver without arrows, where each point is code 0.
    """
    if batch is None:
        batch = mats[0].shape[0]
    digits = np.concatenate([np.zeros((batch, 0), dtype=np.int64)]
                            + [m.reshape(batch, m.shape[1] * m.shape[2]) for m in mats],
                            axis=1)
    return (digits * p ** np.arange(digits.shape[1], dtype=np.int64)).sum(axis=1)


def sorted_distinct(codes) -> np.ndarray:
    """The distinct values of a 1-d batch of codes, ascending, as int64: what
    ``np.unique`` returns, without its import of ``numpy.ma`` on first use."""
    codes = np.sort(np.asarray(codes, dtype=np.int64))
    keep = np.ones(codes.size, dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def orbit_fill(start_codes, visited, arrows, dims, gens, p) -> int:
    """Mark the orbit(s) of the start codes under the group the generators
    span; returns the number of newly visited points.

    ``arrows`` are (source, target) pairs and ``gens`` are (v, g, g^-1)
    triples: g sends each arrow matrix M into v to g M and each one out of
    v to M g^-1.
    """
    cells = [(dims[t], dims[s]) for s, t in arrows]
    frontier = sorted_distinct(start_codes)
    frontier = frontier[~visited[frontier]]
    visited[frontier] = True
    count = int(frontier.size)
    while frontier.size and gens:
        mats = decode_points(frontier, cells, p)
        images = []
        for v, g, g_inv in gens:
            out = [g @ m % p if t == v else m for m, (_, t) in zip(mats, arrows)]
            out = [m @ g_inv % p if s == v else m for m, (s, _) in zip(out, arrows)]
            images.append(encode_points(out, p, frontier.size))
        codes = sorted_distinct(np.concatenate(images))
        codes = codes[~visited[codes]]
        visited[codes] = True
        count += int(codes.size)
        frontier = codes
    return count
