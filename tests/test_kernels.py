import numpy as np
import pytest

from hallcrys import linalg
from hallcrys._kernels import (decode_points, encode_points, orbit_fill, rank_mod,
                               rref_mod)
from hallcrys.modules import Representation
from hallcrys.quivers import quiver_a2, quiver_a3, quiver_kronecker


def brute_rank(a, p):
    """Rank by brute enumeration of row-space size (tiny matrices only)."""
    rows = [tuple(r % p) for r in a]
    span = {(0,) * a.shape[1]}
    for r in rows:
        new = set()
        for s in span:
            for c in range(1, p):
                new.add(tuple((x + c * y) % p for x, y in zip(s, r)))
        span |= new
        # close under addition
        changed = True
        while changed:
            changed = False
            for s1 in list(span):
                for s2 in list(span):
                    t = tuple((x + y) % p for x, y in zip(s1, s2))
                    if t not in span:
                        span.add(t)
                        changed = True
    import math
    return round(math.log(len(span), p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_against_bruteforce(p):
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = rng.integers(0, p, (3, 3))
        assert rank_mod(a, p) == brute_rank(a, p)


def is_rref(r, rank, piv, p):
    """Reduced echelon shape: zero rows last, unit pivots strictly to the
    right of the row above, and each pivot the only nonzero in its column."""
    nrows, ncols = r.shape
    assert not r[rank:].any()
    assert len(piv) == rank and list(piv) == sorted(set(piv.tolist()))
    for i, c in enumerate(piv):
        assert r[i, c] == 1 and not r[i, :c].any()
        assert not np.delete(r[:, c], i).any()
    assert ((0 <= r) & (r < p)).all()
    return True


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_definition(p):
    """rref_mod against the definition: echelon shape with unit pivots, the
    same row space as the input, and the reported pivots as its pivot columns."""
    rng = np.random.default_rng(100 + p)
    shapes = [(0, 0), (0, 3), (3, 0)] + [tuple(rng.integers(1, 8, 2)) for _ in range(60)]
    for k, (n, m) in enumerate(shapes):
        a = rng.integers(-p, 2 * p, (n, m))
        if n > 1 and k % 3 == 0:
            a[-1] = 2 * a[0] - a[1]                     # rank-deficient input
        if n and k % 4 == 0:
            a[rng.integers(0, n)] = 0                   # a zero row
        r, rank, piv = rref_mod(a, p)
        assert r.shape == (n, m) and r.dtype == np.int64 and piv.dtype == np.int64
        assert is_rref(r, rank, piv, p)
        # row space: each spans the other iff stacking raises neither rank
        assert rank == rank_mod(a, p) == rank_mod(np.concatenate([a, r]), p)
        if p ** m <= 125:                               # brute force stays small
            assert rank == (brute_rank(a, p) if n else 0)
        # untouched input
        assert rref_mod(a, p)[0].tolist() == r.tolist()


def test_nullspace_and_solve():
    rng = np.random.default_rng(3)
    for p in (2, 3, 5):
        for _ in range(30):
            n, m = rng.integers(1, 6, 2)
            a = rng.integers(0, p, (n, m))
            ns = linalg.nullspace_mod(a, p)
            if ns.size:
                assert not ((a @ ns) % p).any()
            assert ns.shape[1] == m - rank_mod(a, p)
            x = rng.integers(0, p, m)
            b = (a @ x) % p
            sol = linalg.solve_mod(a, b, p)
            assert sol is not None and np.array_equal((a @ sol) % p, b)


def test_subspace_enumeration_counts():
    for p in (2, 3):
        for n in range(5):
            for k in range(n + 1):
                count = sum(1 for _ in linalg.subspaces(n, k, p))
                assert count == linalg.gaussian_binomial_int(n, k, p)


def test_subspaces_distinct():
    seen = set()
    for basis in linalg.subspaces(4, 2, 2):
        key = linalg.column_reduce(basis, 2).tobytes()
        assert key not in seen
        seen.add(key)


def test_orbit_fill_gl1_orbits():
    # GL1 x GL1 acting on one arrow map over F_5: orbits {0} and the rest
    p = 5
    visited = np.zeros(p, dtype=bool)
    two, half = np.array([[2]]), np.array([[3]])      # 2^{-1} = 3 mod 5
    args = ([(0, 1)], (1, 1), [(0, two, half), (1, two, half)], p)
    assert orbit_fill([1], visited, *args) == 4
    assert visited.tolist() == [False, True, True, True, True]
    assert orbit_fill([3], visited, *args) == 0        # already visited
    assert orbit_fill([0], visited, *args) == 1        # the zero map is fixed
    assert visited.all()


def test_orbit_fill_conjugation_on_a_loop():
    # GL2(F_2), generated by its two elementary matrices, conjugating the
    # matrix of a loop: the similarity classes of M_2(F_2)
    p = 2
    e12, e21 = np.array([[1, 1], [0, 1]]), np.array([[1, 0], [1, 1]])
    args = ([(0, 0)], (2,), [(0, e12, e12), (0, e21, e21)], p)
    visited = np.zeros(p ** 4, dtype=bool)
    sizes = []
    while not visited.all():
        sizes.append(orbit_fill([int(np.argmin(visited))], visited, *args))
    assert sorted(sizes) == [1, 1, 2, 3, 3, 6]
    # with no generators the orbit is the start point
    visited[:] = False
    assert orbit_fill([5, 5], visited, [(0, 0)], (2,), [], p) == 1
    assert visited.nonzero()[0].tolist() == [5]


def encode_reference(rep):
    """Per-entry point encoding: arrow matrices row-major, in arrow order, as
    base-q digits, least significant first."""
    code, shift = 0, 1
    for m in rep.maps:
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                code += int(m[i, j]) * shift
                shift *= rep.q
    return code


def decode_reference(quiver, q, code, dim):
    maps = []
    for s, t in quiver.arrows:
        m = np.zeros((dim[t], dim[s]), dtype=np.int64)
        for i in range(dim[t]):
            for j in range(dim[s]):
                m[i, j] = code % q
                code //= q
        maps.append(m)
    return Representation(quiver, q, dim, maps)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_point_encoding_matches_reference(q):
    rng = np.random.default_rng(40 + q)
    empty_blocks = 0
    for quiver in (quiver_a2(), quiver_a3(), quiver_kronecker()):
        for _ in range(25):
            dim = tuple(int(d) for d in rng.integers(0, 4, quiver.n))
            cells = [(dim[t], dim[s]) for s, t in quiver.arrows]
            npoints = q ** sum(r * c for r, c in cells)
            empty_blocks += sum(r * c == 0 for r, c in cells)
            reps = [Representation(quiver, q, dim,
                                   [rng.integers(0, q, cell) for cell in cells])
                    for _ in range(6)]
            mats = [np.stack([rep.maps[k] for rep in reps]) for k in range(len(cells))]
            codes = encode_points(mats, q)
            assert codes.tolist() == [encode_reference(rep) for rep in reps]
            assert ((0 <= codes) & (codes < npoints)).all()
            decoded = decode_points(codes, cells, q)
            assert [m.shape for m in decoded] == [(len(reps),) + c for c in cells]
            for k, m in enumerate(decoded):
                assert np.array_equal(m, mats[k])
            for code, rep in zip(codes.tolist(), reps):
                ref = decode_reference(quiver, q, code, dim)
                assert all(np.array_equal(a, b) for a, b in zip(ref.maps, rep.maps))
            # the other way round: codes -> points -> codes
            codes = rng.integers(0, npoints, 6)
            assert np.array_equal(encode_points(decode_points(codes, cells, q), q), codes)
    assert empty_blocks


def test_complement_basis():
    for p in (2, 3):
        basis = np.array([[1], [1], [0]], dtype=np.int64)
        comp = linalg.complement_basis(basis, p)
        full = np.concatenate([basis, comp], axis=1)
        assert rank_mod(full, p) == 3


def greedy_complement(basis, p):
    """The definition: add e_0, e_1, ... in order whenever the rank grows."""
    n = basis.shape[0]
    current, chosen = basis, []
    for i in range(n):
        e = np.eye(n, dtype=np.int64)[:, i:i + 1]
        trial = np.concatenate([current, e], axis=1)
        if rank_mod(trial, p) > rank_mod(current, p):
            chosen.append(i)
            current = trial
    return np.eye(n, dtype=np.int64)[:, chosen]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_complement_basis_matches_greedy(p):
    rng = np.random.default_rng(p)
    for _ in range(60):
        n = int(rng.integers(0, 6))
        k = int(rng.integers(0, n + 2))
        basis = rng.integers(0, p, (n, k)).astype(np.int64)
        if k and rng.random() < 0.3:
            basis[:, -1] = (2 * basis[:, 0]) % p       # rank-deficient input
        comp = linalg.complement_basis(basis, p)
        expected = greedy_complement(basis, p)
        assert comp.shape == expected.shape and comp.dtype == np.int64
        assert np.array_equal(comp, expected)
