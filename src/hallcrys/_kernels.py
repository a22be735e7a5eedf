"""Hot mod-p kernels: row reduction and orbit closure.

Two interchangeable backends compute identical results:

* ``numba`` -- @njit kernels (default when numba imports cleanly),
* ``numpy`` -- a pure-numpy fallback.

Selection: environment variable ``HALLCRYS_BACKEND`` set to ``numba`` or
``numpy``; unset means numba when available.
"""

from __future__ import annotations

import os

import numpy as np

_ENV = os.environ.get("HALLCRYS_BACKEND", "").strip().lower()

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:
    if _ENV == "numba":
        raise
    _HAVE_NUMBA = False

# the environment flag picks the default; per-call overrides (benchmarks,
# parity tests) may still request either backend explicitly
BACKEND = "numpy" if _ENV == "numpy" or not _HAVE_NUMBA else "numba"


# ----------------------------------------------------------------------
# pure-numpy reference implementations


def _rref_mod_numpy(a: np.ndarray, p: int):
    """Reduced row echelon form mod p, in place; returns (rank, pivot_cols)."""
    rows, cols = a.shape
    pivots = np.empty(min(rows, cols), dtype=np.int64)
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        sub = a[rank:, col]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        other = np.nonzero(a[:, col])[0]
        for r in other:
            if r != rank:
                a[r] = (a[r] - a[r, col] * a[rank]) % p
        pivots[rank] = col
        rank += 1
    return rank, pivots[:rank].copy()


def _orbit_fill_numpy(start_codes, visited, gen_left, gen_right, arrow_src,
                      arrow_tgt, dims, p):
    """Mark the orbit(s) of the start codes under the generator maps.

    Point encoding: concatenation of the arrow matrices (row-major, arrow
    order fixed) read as base-p digits, least significant first.
    """
    na = arrow_src.shape[0]
    maxd = gen_left.shape[2]
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


# ----------------------------------------------------------------------
# numba kernels

if _HAVE_NUMBA:

    @numba.njit(cache=False)
    def _modinv_nb(x, p):
        # extended Euclid; x nonzero mod p
        a, b = x % p, p
        u, v = 1, 0
        while b:
            qq = a // b
            a, b = b, a - qq * b
            u, v = v, u - qq * v
        return u % p

    @numba.njit(cache=False)
    def _rref_mod_nb(a, p):
        rows, cols = a.shape
        pivots = np.empty(min(rows, cols), dtype=np.int64)
        rank = 0
        for col in range(cols):
            if rank == rows:
                break
            piv = -1
            for r in range(rank, rows):
                if a[r, col] != 0:
                    piv = r
                    break
            if piv == -1:
                continue
            if piv != rank:
                for c in range(cols):
                    tmp = a[rank, c]
                    a[rank, c] = a[piv, c]
                    a[piv, c] = tmp
            inv = _modinv_nb(a[rank, col], p)
            for c in range(cols):
                a[rank, c] = (a[rank, c] * inv) % p
            for r in range(rows):
                if r != rank and a[r, col] != 0:
                    f = a[r, col]
                    for c in range(cols):
                        a[r, c] = (a[r, c] - f * a[rank, c]) % p
            pivots[rank] = col
            rank += 1
        return rank, pivots[:rank].copy()

    @numba.njit(cache=False)
    def _orbit_fill_nb(start_codes, visited, gen_left, gen_right, arrow_src,
                       arrow_tgt, dims, p):
        na = arrow_src.shape[0]
        maxd = gen_left.shape[2]
        ncell = 0
        for k in range(na):
            ncell += dims[arrow_tgt[k]] * dims[arrow_src[k]]
        stack = np.empty(visited.shape[0], dtype=np.int64)
        top = 0
        count = 0
        for s in range(start_codes.shape[0]):
            code = start_codes[s]
            if not visited[code]:
                visited[code] = True
                stack[top] = code
                top += 1
                count += 1
        mat = np.zeros((na, maxd, maxd), dtype=np.int64)
        tmp = np.zeros((maxd, maxd), dtype=np.int64)
        out = np.zeros((maxd, maxd), dtype=np.int64)
        ngen = gen_left.shape[0]
        while top > 0:
            top -= 1
            code = stack[top]
            rem = code
            for k in range(na):
                r = dims[arrow_tgt[k]]
                c = dims[arrow_src[k]]
                for i in range(r):
                    for j in range(c):
                        mat[k, i, j] = rem % p
                        rem //= p
            for g in range(ngen):
                new_code = 0
                shift = 1
                for k in range(na):
                    sv = arrow_src[k]
                    tv = arrow_tgt[k]
                    r = dims[tv]
                    c = dims[sv]
                    # tmp = M @ gen_right[g, sv]
                    for i in range(r):
                        for j in range(c):
                            acc = 0
                            for l in range(c):
                                acc += mat[k, i, l] * gen_right[g, sv, l, j]
                            tmp[i, j] = acc % p
                    # out = gen_left[g, tv] @ tmp
                    for i in range(r):
                        for j in range(c):
                            acc = 0
                            for l in range(r):
                                acc += gen_left[g, tv, i, l] * tmp[l, j]
                            out[i, j] = acc % p
                    for i in range(r):
                        for j in range(c):
                            new_code += out[i, j] * shift
                            shift *= p
                if not visited[new_code]:
                    visited[new_code] = True
                    stack[top] = new_code
                    top += 1
                    count += 1
        return count


# ----------------------------------------------------------------------
# public API


def rref_mod(a: np.ndarray, p: int, backend: str | None = None):
    """RREF of ``a`` mod p (not in place); returns (rref, rank, pivot_cols)."""
    work = np.ascontiguousarray(a, dtype=np.int64) % p
    work = work.copy()
    be = _pick(backend)
    if work.size == 0:
        return work, 0, np.empty(0, dtype=np.int64)
    if be == "numba":
        rank, piv = _rref_mod_nb(work, p)
    else:
        rank, piv = _rref_mod_numpy(work, p)
    return work, int(rank), piv


def rank_mod(a: np.ndarray, p: int, backend: str | None = None) -> int:
    return rref_mod(a, p, backend)[1]


def orbit_fill(start_codes, visited, gen_left, gen_right, arrow_src, arrow_tgt,
               dims, p, backend: str | None = None) -> int:
    """Flood-fill the orbit of the start codes; returns number of new points."""
    be = _pick(backend)
    start = np.asarray(start_codes, dtype=np.int64)
    if be == "numba":
        return int(_orbit_fill_nb(start, visited, gen_left, gen_right,
                                  arrow_src, arrow_tgt, dims, p))
    return int(_orbit_fill_numpy(start, visited, gen_left, gen_right,
                                 arrow_src, arrow_tgt, dims, p))


def _pick(backend) -> str:
    be = backend or BACKEND
    if be == "numba" and not _HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    return be
