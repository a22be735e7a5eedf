"""Hot mod-p kernels: row reduction and orbit closure.

``rref_mod`` is one Gauss–Jordan elimination over rows of Python ints; at
the small shapes Hall-number scans use, that beats numpy row operations.
``orbit_fill`` is a breadth-first flood fill with the generator action
batched through numpy.
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


def orbit_fill(start_codes, visited, gen_left, gen_right, arrow_src,
               arrow_tgt, dims, p) -> int:
    """Mark the orbit(s) of the start codes under the generator maps;
    returns the number of newly visited points.

    Point encoding: concatenation of the arrow matrices (row-major, arrow
    order fixed) read as base-p digits, least significant first.
    """
    na = arrow_src.shape[0]
    cells = [(int(dims[arrow_tgt[k]]), int(dims[arrow_src[k]])) for k in range(na)]
    ncell = sum(r * c for r, c in cells)
    pow_p = p ** np.arange(ncell, dtype=np.int64)

    def decode(codes):
        digits = (codes[:, None] // pow_p[None, :]) % p
        mats = []
        off = 0
        for r, c in cells:
            # explicit leading axis: numpy cannot infer -1 for an empty block
            mats.append(digits[:, off:off + r * c].reshape(codes.shape[0], r, c))
            off += r * c
        return mats

    def encode(mats):
        flat = [m.reshape(m.shape[0], m.shape[1] * m.shape[2]) for m in mats]
        digits = np.concatenate(flat, axis=1)
        return (digits * pow_p[None, :ncell]).sum(axis=1)

    frontier = np.unique(np.asarray(start_codes, dtype=np.int64))
    frontier = frontier[~visited[frontier]]
    visited[frontier] = True
    count = int(frontier.size)
    ngen = gen_left.shape[0]
    while frontier.size:
        mats = decode(frontier)
        new_codes = []
        for g in range(ngen):
            out = []
            for k, (r, c) in enumerate(cells):
                sv, tv = int(arrow_src[k]), int(arrow_tgt[k])
                lg = gen_left[g, tv, :r, :r]
                rg = gen_right[g, sv, :c, :c]
                out.append(np.einsum("ij,bjk,kl->bil", lg, mats[k], rg) % p)
            new_codes.append(encode(out))
        codes = np.unique(np.concatenate(new_codes))
        codes = codes[~visited[codes]]
        visited[codes] = True
        count += int(codes.size)
        frontier = codes
    return count
