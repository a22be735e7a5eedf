import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hallcrys import linalg
from hallcrys._kernels import (decode_points, encode_points, orbit_fill, rank_mod,
                               rank_mod_stack, rref_mod, rref_mod_stack, sorted_distinct)
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


@pytest.mark.parametrize("p", [2, 3, 5, 17])
def test_rank_mod_stack_matches_rank_mod(p):
    """rank_mod_stack against rank_mod matrix by matrix, with empty shapes,
    empty stacks and rank-deficient rows."""
    rng = np.random.default_rng(200 + p)
    shapes = [(0, 2, 3), (3, 0, 4), (3, 4, 0), (2, 0, 0), (1, 2, 4), (1, 6, 3)]
    shapes += [tuple(int(x) for x in rng.integers(1, 9, 3)) for _ in range(60)]
    deficient = 0
    for k, (b, n, m) in enumerate(shapes):
        a = rng.integers(-p, 2 * p, (b, n, m))
        if n > 2 and k % 2:
            a[:, -1] = 3 * a[:, 0] - a[:, 1]            # a dependent row
            a[:, 1] = 0                                 # and a zero row
            deficient += 1
        ranks = rank_mod_stack(a, p)
        assert ranks.dtype == np.int64 and ranks.shape == (b,)
        assert ranks.tolist() == [rank_mod(x, p) for x in a]
        deficient += any(r < min(n, m) for r in ranks.tolist())
    assert deficient
    # untouched input
    a = rng.integers(0, p, (4, 3, 5))
    copy = a.copy()
    rank_mod_stack(a, p)
    assert np.array_equal(a, copy)


@st.composite
def rank_stacks(draw):
    """(stack, p): a (B, r, c) stack whose matrices are products of an r x k
    and a k x c factor over F_p, so of rank at most k (rank-deficient when
    k < min(r, c)), with multiples of p added to every entry."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    b, r, c = draw(st.integers(0, 5)), draw(st.integers(0, 9)), draw(st.integers(0, 9))
    k = draw(st.integers(0, max(r, c)))
    left = draw(arrays(np.int64, (b, r, k), elements=st.integers(0, p - 1)))
    right = draw(arrays(np.int64, (b, k, c), elements=st.integers(0, p - 1)))
    shift = draw(arrays(np.int64, (b, r, c), elements=st.integers(-2, 2)))
    return left @ right + p * shift, p


def worst_growth(p):
    """Stacks with 40 columns whose entries are p - 1 off the diagonal: every
    column step subtracts up to (p - 1)**2 from the trailing entries."""
    full = np.full((3, 41, 40), p - 1, dtype=np.int64)
    full[0] -= np.eye(41, 40, dtype=np.int64)
    i, j = np.indices((41, 40))
    full[1] *= (i * i + 3 * j + i * j) % 7 != 0
    full[2] = np.triu(full[2])
    return full, p


@given(rank_stacks())
@settings(deadline=None, max_examples=150)
@example((np.zeros((3, 0, 5), dtype=np.int64), 5))             # no rows
@example((np.ones((3, 4, 0), dtype=np.int64), 7))              # no columns
@example((np.zeros((0, 3, 3), dtype=np.int64), 2))             # empty stack
@example((np.arange(12, dtype=np.int64).reshape(1, 3, 4), 3))  # a stack of one
@example((np.arange(54, dtype=np.int64).reshape(2, 3, 9), 5))  # wide
@example((np.arange(54, dtype=np.int64).reshape(2, 9, 3), 5))  # tall
@example(worst_growth(2))
@example(worst_growth(101))
def test_rank_mod_stack_matches_rref_mod(case):
    """rank_mod_stack equals rref_mod's rank matrix by matrix, and leaves its
    input untouched."""
    a, p = case
    copy = a.copy()
    ranks = rank_mod_stack(a, p)
    assert ranks.dtype == np.int64 and ranks.shape == (a.shape[0],)
    assert ranks.tolist() == [rref_mod(x, p)[1] for x in a]
    assert np.array_equal(a, copy)


def test_rank_mod_stack_refuses_an_overflowing_sweep():
    """A stack whose sweep could pass 2**63 is refused from p and its shape
    alone, before any arithmetic: the stack is a zero-stride view, built
    without elimination or storage (reducing it would need 4 PiB)."""
    p = 1_048_573                     # prime; 2**24 * (p - 1)**2 > 2**63
    for shape in ((2, 2**24, 2**24), (1, 2**24, 2**25), (2, 2**25, 2**24)):
        stack = np.broadcast_to(np.zeros((1, 1, 1), dtype=np.int64), shape)
        with pytest.raises(ValueError, match="sweep of 16777216 columns .* overflow int64"):
            rank_mod_stack(stack, p)


@given(rank_stacks())
@settings(deadline=None, max_examples=150)
@example((np.zeros((3, 0, 5), dtype=np.int64), 5))             # no rows
@example((np.ones((3, 4, 0), dtype=np.int64), 7))              # no columns
@example((np.zeros((0, 3, 3), dtype=np.int64), 2))             # empty stack
@example((np.arange(12, dtype=np.int64).reshape(1, 3, 4), 3))  # a stack of one
@example((np.arange(54, dtype=np.int64).reshape(2, 3, 9), 5))  # wide
@example((np.arange(54, dtype=np.int64).reshape(2, 9, 3), 5))  # tall
@example(worst_growth(2))
@example(worst_growth(101))
def test_rref_mod_stack_matches_rref_mod(case):
    """rref_mod_stack equals rref_mod matrix by matrix: the same RREF, rank
    and pivot columns (as a mask), and leaves its input untouched."""
    a, p = case
    copy = a.copy()
    out, ranks, pivots = rref_mod_stack(a, p)
    b, r, c = a.shape
    assert out.dtype == ranks.dtype == np.int64 and pivots.dtype == bool
    assert out.shape == (b, r, c) and ranks.shape == (b,) and pivots.shape == (b, c)
    for x, got, rank, mask in zip(a, out, ranks.tolist(), pivots):
        want, want_rank, want_piv = rref_mod(x, p)
        assert np.array_equal(got, want) and rank == want_rank
        assert np.flatnonzero(mask).tolist() == want_piv.tolist()
    assert np.array_equal(a, copy)


def test_rref_mod_stack_refuses_an_overflowing_step():
    """A prime whose (p - 1)**2 passes 2**63 is refused before any arithmetic."""
    with pytest.raises(ValueError, match="overflow int64"):
        rref_mod_stack(np.zeros((2, 1, 1), dtype=np.int64), 2**32 + 15)


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
        r, rank, _ = rref_mod(basis.T, 2)
        key = r[:rank].tobytes()
        assert key not in seen
        seen.add(key)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**40, 2**40) | st.integers(0, 5), max_size=40))
@example([])
@example([7, 7, 7])
def test_sorted_distinct_matches_unique(codes):
    got = sorted_distinct(codes)
    want = np.unique(np.array(codes, dtype=np.int64))
    assert got.dtype == np.int64 and np.array_equal(got, want)


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
        comp, inv = linalg.complement_basis(basis, p)
        full = np.concatenate([basis, comp], axis=1)
        assert rank_mod(full, p) == 3
        assert np.array_equal(inv @ full % p, np.eye(3, dtype=np.int64))


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
    """The complement is the greedy one, and the inverse inverts the frame of
    the pivot columns of ``a`` and the complement, on random inputs, some
    rank-deficient, and on the empty shapes."""
    rng = np.random.default_rng(p)
    inputs = [np.zeros(shape, dtype=np.int64) for shape in ((0, 0), (4, 0), (0, 3))]
    for _ in range(60):
        n = int(rng.integers(0, 6))
        k = int(rng.integers(0, n + 2))
        basis = rng.integers(0, p, (n, k)).astype(np.int64)
        if k and rng.random() < 0.3:
            basis[:, -1] = (2 * basis[:, 0]) % p       # rank-deficient input
        inputs.append(basis)
    for basis in inputs:
        n = basis.shape[0]
        comp, inv = linalg.complement_basis(basis, p)
        expected = greedy_complement(basis, p)
        assert comp.shape == expected.shape and comp.dtype == np.int64
        assert np.array_equal(comp, expected)
        frame = np.concatenate([basis[:, rref_mod(basis, p)[2]], comp], axis=1)
        assert inv.shape == (n, n) and inv.dtype == np.int64 and inv.base is None
        assert np.array_equal(inv @ frame % p, np.eye(n, dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_complement_basis_stack_matches_per_matrix(p):
    """A stack of matrices of one rank gives, matrix by matrix, the
    complement and inverse of the per-matrix call, and the inverse inverts
    the frame [a[:, pivots] | comp]; stacks of mixed rank are refused."""
    rng = np.random.default_rng(300 + p)
    stacks = [np.zeros(shape, dtype=np.int64) for shape in ((3, 0, 0), (2, 4, 0), (2, 0, 3),
                                                             (0, 3, 2))]
    stacks.append(np.stack(list(linalg.subspaces(4, 2, min(p, 3)))))
    for _ in range(30):
        n, k, rank = int(rng.integers(0, 6)), int(rng.integers(0, 6)), int(rng.integers(0, 6))
        rank = min(rank, n, k)
        mats, size = [], int(rng.integers(1, 6))
        while len(mats) < size:
            a = rng.integers(0, p, (n, rank)) @ rng.integers(0, p, (rank, k))
            if rank_mod(a, p) == rank:
                mats.append(a + p * rng.integers(-2, 3, (n, k)))
        stacks.append(np.stack(mats))
    for stack in stacks:
        count, n, k = stack.shape
        comp, inv = linalg.complement_basis(stack, p)
        assert comp.dtype == inv.dtype == np.int64
        assert comp.shape[:2] == (count, n) and inv.shape == (count, n, n)
        for a, c, e in zip(stack, comp, inv):
            want_comp, want_inv = linalg.complement_basis(a, p)
            assert np.array_equal(c, want_comp) and np.array_equal(e, want_inv)
            frame = np.concatenate([a[:, rref_mod(a, p)[2]], c], axis=1)
            assert np.array_equal(e @ frame % p, np.eye(n, dtype=np.int64))
    mixed = np.stack([np.eye(3, 2, dtype=np.int64), np.zeros((3, 2), dtype=np.int64)])
    with pytest.raises(ValueError, match="one rank"):
        linalg.complement_basis(mixed, p)
