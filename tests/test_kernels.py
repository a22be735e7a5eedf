import numpy as np
import pytest

from hallcrys import linalg
from hallcrys._kernels import BACKEND, orbit_fill, rank_mod, rref_mod


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


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_backend_parity(p):
    pytest.importorskip("numba")
    rng = np.random.default_rng(7)
    for _ in range(40):
        n, m = rng.integers(1, 7, 2)
        a = rng.integers(0, p, (n, m))
        r1, k1, p1 = rref_mod(a, p, backend="numba")
        r2, k2, p2 = rref_mod(a, p, backend="numpy")
        assert np.array_equal(r1, r2) and k1 == k2 and np.array_equal(p1, p2)


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


def test_orbit_fill_backend_parity():
    pytest.importorskip("numba")
    # GL1 x GL1 acting on one arrow map over F_5: orbits {0} and the rest
    p = 5
    visited_nb = np.zeros(p, dtype=bool)
    visited_np = np.zeros(p, dtype=bool)
    gen_left = np.zeros((2, 2, 1, 1), dtype=np.int64)
    gen_right = np.zeros((2, 2, 1, 1), dtype=np.int64)
    for g in range(2):
        for v in range(2):
            gen_left[g, v, 0, 0] = 1
            gen_right[g, v, 0, 0] = 1
    gen_left[0, 0, 0, 0] = 2
    gen_right[0, 0, 0, 0] = 3          # 2^{-1} mod 5
    gen_left[1, 1, 0, 0] = 2
    gen_right[1, 1, 0, 0] = 3
    arrow_src = np.array([0], dtype=np.int64)
    arrow_tgt = np.array([1], dtype=np.int64)
    dims = np.array([1, 1], dtype=np.int64)
    n1 = orbit_fill([1], visited_nb, gen_left, gen_right, arrow_src, arrow_tgt,
                    dims, p, backend="numba")
    n2 = orbit_fill([1], visited_np, gen_left, gen_right, arrow_src, arrow_tgt,
                    dims, p, backend="numpy")
    assert n1 == n2 == 4
    assert np.array_equal(visited_nb, visited_np)


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


def test_backend_flag_reported():
    assert BACKEND in ("numba", "numpy")
