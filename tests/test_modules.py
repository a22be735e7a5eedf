from itertools import product
from math import prod

import numpy as np
import pytest

from hallcrys import linalg
from hallcrys._kernels import rref_mod
from hallcrys.modules import (CatalogUnavailable, Representation, _path_basis,
                              direct_sum, dual, ext_dim, ext_dims, hom_basis,
                              hom_counts, hom_dim, hom_system, hom_system_stack,
                              indecomposable_catalog,
                              is_morphism, projective, projective_presentation,
                              reflect_minus, reflect_plus, NotASink, NotASource)
from hallcrys.quivers import Quiver, euler_bilinear


def P_a2(q):
    quiver = Quiver(["1", "2"], [["1", "2"]])
    return Representation(quiver, q, (1, 1), [np.array([[1]])])


class TestHomExt:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_a2_examples(self, a2, q):
        S1 = Representation.simple(a2, q, 0)
        S2 = Representation.simple(a2, q, 1)
        P = P_a2(q)
        assert hom_dim(S2, P) == 1 and ext_dim(S2, P) == 0
        assert hom_dim(S1, S2) == 0 and ext_dim(S1, S2) == 1
        assert hom_dim(P, P) == 1
        for M in (S1, S2, P):
            assert hom_dim(M, M) >= 1

    @pytest.mark.parametrize("q", [2, 3])
    def test_euler_identity_random(self, kron, q):
        rng = np.random.default_rng(5)
        for _ in range(25):
            dims_m = tuple(rng.integers(0, 3, 2))
            dims_n = tuple(rng.integers(0, 3, 2))
            M = Representation(kron, q, dims_m,
                               [rng.integers(0, q, (dims_m[1], dims_m[0]))
                                for _ in range(2)])
            N = Representation(kron, q, dims_n,
                               [rng.integers(0, q, (dims_n[1], dims_n[0]))
                                for _ in range(2)])
            assert hom_dim(M, N) - ext_dim(M, N) == euler_bilinear(kron, dims_m, dims_n)

    def test_mismatched_field(self, a2):
        M = Representation.simple(a2, 2, 0)
        N = Representation.simple(a2, 3, 0)
        with pytest.raises(ValueError):
            hom_dim(M, N)

    def test_ext_mismatched_field(self, a2):
        M = Representation.simple(a2, 2, 0)
        N = Representation.simple(a2, 3, 0)
        for call in (lambda: ext_dim(M, N), lambda: ext_dims([M], [M, N]),
                     lambda: ext_dims([Representation.zero(a2, 2)], [N])):
            with pytest.raises(ValueError, match="mismatched base field"):
                call()


def hom_dim_reference(M, N):
    """dim Hom(M, N) one pair at a time: the pair's intertwiner system and
    one single-matrix rank.  The oracle for :func:`hom_dim` and
    :meth:`ClassTable.hom_matrix`."""
    D = hom_system(M, N)
    return D.shape[1] - (linalg.rank_mod(D, M.q) if D.size else 0)


D4 = Quiver(["1", "2", "3", "4"], [["1", "4"], ["2", "4"], ["3", "4"]])


class TestHomDims:
    """The batched Hom matrix and the single Hom count equal the per-pair
    oracle entry by entry."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_every_catalog_pair(self, a3, kron, q):
        """Every pair of catalog modules of A3 (2,2,2), D4 (2,2,2,2) and the
        Kronecker quiver (3,3) by ClassTable.hom_matrix, rows shuffled, and
        every pair with the zero module by hom_dim."""
        from hallcrys.classtable import ClassTable
        rng = np.random.default_rng(q)
        for quiver, bound in ((a3, (2, 2, 2)), (D4, (2, 2, 2, 2)), (kron, (3, 3))):
            t = ClassTable(quiver, q, bound)
            cols = [it.label for it in t.catalog]
            rows = list(cols)
            rng.shuffle(rows)
            Ns = [it.rep for it in t.catalog]
            shapes = {hom_system(M, N).shape for M in Ns for N in Ns}
            assert any(nvars == 0 for _, nvars in shapes)                 # no unknowns
            assert any(nconds == 0 < nvars for nconds, nvars in shapes)   # no conditions
            reps = t.by_label
            assert t.hom_matrix(rows, cols) == [
                [hom_dim_reference(reps[a].rep, reps[b].rep) for b in cols] for a in rows]
            zero = Representation.zero(quiver, q)
            for N in Ns + [zero]:
                assert hom_dim(zero, N) == hom_dim(N, zero) == 0 == hom_dim_reference(zero, N)

    def test_chunks_of_one_row(self, kron, monkeypatch):
        """With room for one system per chunk, every stacked system of
        ClassTable.hom_matrix holds the Hom system of a single pair, and the
        matrix is the same."""
        from hallcrys import modules
        from hallcrys.classtable import ClassTable
        fresh = ClassTable(kron, 3, (3, 3))
        labels = [it.label for it in fresh.catalog]
        default = fresh.hom_matrix(labels, labels)
        rows = []
        stack = modules.hom_system_stack

        def spy(quiver, q, m_dims, m_maps, n_dims, n_maps):
            rows.append(m_maps[0].shape[0])
            return stack(quiver, q, m_dims, m_maps, n_dims, n_maps)

        monkeypatch.setattr(modules, "hom_system_stack", spy)
        monkeypatch.setattr(modules, "_HOM_STACK", 1)
        t = ClassTable(kron, 3, (3, 3))
        rows.clear()
        assert t.hom_matrix(labels, labels) == default
        assert set(rows) == {1} and max(map(max, default)) > 1

    def test_no_arrows_and_empty_lists(self):
        from hallcrys.classtable import ClassTable
        quiver = Quiver(["1", "2"], [])
        Ms = [Representation(quiver, 3, d) for d in ((2, 1), (0, 3), (1, 0))]
        assert [[hom_dim(M, N) for N in Ms] for M in Ms] == [[5, 3, 2], [3, 9, 0], [2, 0, 1]]
        t = ClassTable(quiver, 3, (2, 2))
        labels = [it.label for it in t.catalog]
        assert t.hom_matrix(labels, labels) == [[1, 0], [0, 1]]
        assert t.hom_matrix([], labels) == []
        assert t.hom_matrix(labels, []) == [[], []]

    def test_mismatched_field(self, a2):
        M = Representation.simple(a2, 2, 0)
        N = Representation.simple(a2, 3, 0)
        with pytest.raises(ValueError, match="mismatched base field"):
            hom_dim(M, N)


def _stacks(reps, narrows):
    return [np.stack([R.maps[k] for R in reps]) for k in range(narrows)]


class TestHomCounts:
    """The stacked Hom count over broadcast batch axes equals the per-pair
    oracle entry by entry."""

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_batch_shapes(self, a3, kron, q):
        """(A, 1) x (B) gives (A, B), (A) x (A) the diagonal, an unbatched M
        against (B) gives (B), and a zero-size batch gives an empty array."""
        rng = np.random.default_rng(70 + q)
        for quiver in (a3, kron):
            narrows = len(quiver.arrows)
            for _ in range(8):
                m_dims, n_dims = (tuple(int(d) for d in rng.integers(0, 3, quiver.n))
                                  for _ in range(2))
                Ms = [random_rep(rng, quiver, q, m_dims) for _ in range(3)]
                Ns = [random_rep(rng, quiver, q, n_dims) for _ in range(4)]
                m_st, n_st = _stacks(Ms, narrows), _stacks(Ns, narrows)
                h = hom_counts(quiver, q, m_dims, [m[:, None] for m in m_st], n_dims, n_st)
                assert h.dtype == np.int64 and h.shape == (3, 4)
                assert h.tolist() == [[hom_dim_reference(M, N) for N in Ns] for M in Ms]
                h = hom_counts(quiver, q, m_dims, m_st, m_dims, m_st)
                assert h.tolist() == [hom_dim_reference(M, M) for M in Ms]
                h = hom_counts(quiver, q, m_dims, Ms[0].maps, n_dims, n_st)
                assert h.tolist() == [hom_dim_reference(Ms[0], N) for N in Ns]
                h = hom_counts(quiver, q, m_dims, [m[:0, None] for m in m_st], n_dims, n_st)
                assert h.shape == (0, 4)

    def test_no_arrows(self):
        quiver = Quiver(["1", "2"], [])
        h = hom_counts(quiver, 3, (2, 1), [], (1, 3), [])
        assert h.shape == () and h == 5

    def test_empty_systems_are_not_ranked(self, kron, monkeypatch):
        """No unknowns (S1 -> S2) or no conditions (S2 + S2 -> S2): the count is
        the number of unknowns, with no rank taken."""
        from hallcrys import modules

        def no_rank(*args):
            raise AssertionError("rank_mod_stack called")

        monkeypatch.setattr(modules, "rank_mod_stack", no_rank)
        s1 = [np.zeros((5, 0, 1), dtype=np.int64)] * 2
        s2 = [np.zeros((5, 1, 0), dtype=np.int64)] * 2
        assert hom_counts(kron, 3, (1, 0), s1, (0, 1), s2).tolist() == [0] * 5
        twice = [np.zeros((5, 2, 0), dtype=np.int64)] * 2
        assert hom_counts(kron, 3, (0, 2), twice, (0, 1), s2).tolist() == [2] * 5

    def test_stack_of_one(self, kron, monkeypatch):
        """With room for one system per stacked Hom count, every system has a
        leading batch axis of one, and the counts are the same."""
        from hallcrys import modules
        reps = [it.rep for it in indecomposable_catalog(kron, 3, (3, 3)) if it.dim == (2, 2)]
        st = _stacks(reps, 2)
        default = hom_counts(kron, 3, (2, 2), [m[:, None] for m in st], (2, 2), st)
        assert default.tolist() == [[hom_dim_reference(M, N) for N in reps] for M in reps]
        leading = []
        stack = modules.hom_system_stack

        def spy(quiver, q, m_dims, m_maps, n_dims, n_maps):
            D = stack(quiver, q, m_dims, m_maps, n_dims, n_maps)
            leading.append(D.shape[0])
            return D

        monkeypatch.setattr(modules, "hom_system_stack", spy)
        monkeypatch.setattr(modules, "_HOM_STACK", 1)
        h = hom_counts(kron, 3, (2, 2), [m[:, None] for m in st], (2, 2), st)
        assert np.array_equal(h, default)
        assert leading == [1] * len(reps) and len(reps) > 1


@pytest.mark.parametrize("bound", [1, 7, 2**15])
def test_stack_cuts_cover_the_axis_within_the_bound(monkeypatch, bound):
    """The cuts are consecutive, cover the axis, hold at most _HOM_STACK
    entries unless they hold one item, and are as long as that allows."""
    from hallcrys import modules
    monkeypatch.setattr(modules, "_HOM_STACK", bound)
    for count in (0, 1, 5, 100):
        for per_item in (0, 1, 3, 8, 2**16):
            cuts = modules.stack_cuts(count, per_item)
            assert [i for cut in cuts for i in range(count)[cut]] == list(range(count))
            sizes = [cut.stop - cut.start for cut in cuts]
            assert all(n == 1 or n * per_item <= bound for n in sizes)
            assert all((n + 1) * max(1, per_item) > bound for n in sizes[:-1])


def ext_dim_reference(M, N):
    """dim Ext^1(M, N) one pair at a time: a fresh presentation of M, and
    the images of the Hom(P0, N) basis maps composed with phi one by one.
    The reference for :func:`ext_dims`."""
    if M.q != N.q:
        raise ValueError("mismatched base field")
    quiver, q = M.quiver, M.q
    if M.is_zero() or N.is_zero():
        return 0
    P1, P0, phi = projective_presentation(M)
    if P1.is_zero():
        return 0
    h1 = hom_dim(P1, N)
    H0 = hom_basis(P0, N)
    if not H0:
        return h1
    images = []
    for g in H0:
        comp = [(g[w] @ phi[w]) % q for w in range(quiver.n)]
        images.append(np.concatenate([m.ravel() for m in comp]))
    im = np.stack(images, axis=0)
    rank = linalg.rank_mod(im, q) if im.size else 0
    return h1 - rank


class TestExtDims:
    """The batched Ext matrix equals the per-pair reference entry by entry."""

    @staticmethod
    def check(Ms, Ns):
        got = ext_dims(Ms, Ns)
        assert got == [[ext_dim_reference(M, N) for N in Ns] for M in Ms]

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("name", ["a2", "a3", "kron"])
    def test_all_small_classes(self, reg, request, name, q):
        quiver = request.getfixturevalue(name)
        table = reg.table(quiver, q, (3,) * quiver.n)
        reps = [table.representative(c)
                for d in product(range(4), repeat=quiver.n) if 0 < sum(d) <= 3
                for c in table.classes_of_dim(d)]
        zero = Representation.zero(quiver, q)
        # Ns in dimension order, then the zero module; Ms shuffled
        Ns = reps + [zero]
        Ms = reps + [zero]
        np.random.default_rng(q).shuffle(Ms)
        assert [M.dims for M in Ms] != sorted(M.dims for M in Ms)
        self.check(Ms, Ns)

    @pytest.mark.parametrize("q", [2, 3])
    def test_empty_arrow_blocks(self, kron, a3, q):
        # modules whose arrow matrices have a zero-size side
        for quiver, dims in ((kron, [(2, 0), (0, 2), (1, 0), (3, 0)]),
                             (a3, [(2, 0, 1), (0, 2, 0), (1, 0, 2), (0, 0, 3)])):
            Ms = [Representation(quiver, q, d) for d in dims]
            assert any(m.size == 0 for M in Ms for m in M.maps)
            self.check(Ms, Ms + [Representation.zero(quiver, q)])

    def test_empty_lists(self, kron):
        S1 = Representation.simple(kron, 2, 0)
        assert ext_dims([], [S1]) == []
        assert ext_dims([S1], []) == [[]]


def selftest_battery(table):
    """The Euler battery's modules: one representative per class of total
    dimension 1 to 4 within the table's bound, then the zero module."""
    quiver = table.quiver
    dims = [d for d in product(*(range(b + 1) for b in table.dim_bound)) if 0 < sum(d) <= 4]
    return ([table.representative(c) for d in dims for c in table.classes_of_dim(d)]
            + [Representation.zero(quiver, table.q)])


class TestExtDimsBattery:
    """ext_dims on the selftest battery input: Kronecker, bound (2, 2), q = 5."""

    @pytest.fixture(scope="class")
    def battery(self, reg, kron):
        return selftest_battery(reg.table(kron, 5, (2, 2)))

    @pytest.fixture(scope="class")
    def reference(self, battery):
        return [[ext_dim_reference(M, N) for N in battery] for M in battery]

    def test_matches_reference(self, battery, reference):
        assert len(battery) == 74 and battery[-1].is_zero()
        assert ext_dims(battery, battery) == reference

    def test_every_stacked_rank_within_the_bound(self, battery, reference, monkeypatch):
        """Each stacked rank ext_dims makes, of its images g o phi or of
        Hom(P1, N)'s systems, holds at most _HOM_STACK entries or one matrix,
        at the default bound and with _HOM_STACK = 1; the Ext matrix is the
        reference at both."""
        from hallcrys import modules
        shapes = []
        stack = modules.rank_mod_stack
        monkeypatch.setattr(modules, "rank_mod_stack",
                            lambda a, p: shapes.append(a.shape) or stack(a, p))
        for bound in (modules._HOM_STACK, 1):
            monkeypatch.setattr(modules, "_HOM_STACK", bound)
            shapes.clear()
            assert ext_dims(battery, battery) == reference
            assert shapes and all(shape[0] == 1 or prod(shape) <= bound for shape in shapes)
            assert max(shape[0] for shape in shapes) > 1 or bound == 1

    def test_cut_images_halve_the_traced_peak(self, battery, monkeypatch):
        """The traced peak of ext_dims on the battery at the default bound is
        under half of the peak with stacks that are never cut."""
        import tracemalloc
        from hallcrys import modules
        ext_dims(battery[:3], battery[:3])
        peaks = []
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            for bound in (modules._HOM_STACK, 2**40):
                monkeypatch.setattr(modules, "_HOM_STACK", bound)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                ext_dims(battery, battery)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            if started:
                tracemalloc.stop()
        assert peaks[0] < peaks[1] / 2

    def test_one_stacked_sweep_per_block(self, battery, monkeypatch):
        """No single-matrix rank_mod, and at most two rank_mod_stack calls per
        (dim M, dim N) block."""
        from hallcrys import _kernels, modules

        def no_rank_mod(*args):
            raise AssertionError("rank_mod called")

        calls = []
        stack = modules.rank_mod_stack
        monkeypatch.setattr(_kernels, "rank_mod", no_rank_mod)
        monkeypatch.setattr(linalg, "rank_mod", no_rank_mod)
        monkeypatch.setattr(modules, "rank_mod_stack",
                            lambda a, p: calls.append(a.shape) or stack(a, p))
        ext_dims(battery, battery)
        blocks = len({M.dims for M in battery if not M.is_zero()}) ** 2
        assert 0 < len(calls) <= 2 * blocks
        assert max(shape[0] for shape in calls) > 1

    def test_never_reads_hom_system_of_m(self, battery, monkeypatch):
        """Every Hom system ext_dims builds has a projective as its source:
        none has the arrow matrices of an M in Ms, unless that M is itself
        one of the projectives P_v or P1."""
        from hallcrys import modules
        sources = []
        build = modules.hom_system_stack

        def spy(quiver, q, m_dims, m_maps, n_dims, n_maps):
            sources.append((tuple(m_dims), [np.array(m) for m in m_maps]))
            return build(quiver, q, m_dims, m_maps, n_dims, n_maps)

        monkeypatch.setattr(modules, "hom_system_stack", spy)
        ext_dims(battery, battery)
        quiver, q = battery[0].quiver, battery[0].q
        projectives = [projective(quiver, q, v) for v in range(quiver.n)]
        projectives += [projective_presentation(M)[0] for M in battery]

        def same(dims, maps, rep):
            return dims == rep.dims and all(np.array_equal(a, b) for a, b in zip(maps, rep.maps))

        assert sources
        for dims, maps in sources:
            batch = np.broadcast_shapes(*(m.shape[:-2] for m in maps))
            for idx in np.ndindex(batch):
                one = [np.broadcast_to(m, batch + m.shape[-2:])[idx] for m in maps]
                assert not any(same(dims, one, M) for M in battery) or \
                    any(same(dims, one, P) for P in projectives), dims


class TestMismatchedQuiver:
    """Modules over different quivers, or over one quiver with its arrows in
    another order (which ``Quiver.__eq__`` ignores), are refused."""

    def test_hom_and_ext_entry_points(self, a3):
        P1 = projective(a3, 2, 0)
        reordered = Quiver(["1", "2", "3"], [["2", "3"], ["1", "2"]])
        assert reordered == a3
        for other in (projective(a3.reflect(0), 2, 2), projective(reordered, 2, 2)):
            for call in (hom_dim, hom_basis, hom_system, ext_dim,
                         lambda M, N: ext_dims([M], [M, N])):
                for M, N in ((P1, other), (other, P1)):
                    with pytest.raises(ValueError, match="mismatched quiver"):
                        call(M, N)

    def test_equal_quivers_are_accepted(self, a3):
        P1 = projective(a3, 3, 0)
        twin = projective(Quiver(["1", "2", "3"], [["1", "2"], ["2", "3"]]), 3, 2)
        assert hom_dim(P1, twin) == 0 and ext_dim(P1, twin) == 0
        assert hom_dim(twin, P1) == 1 and ext_dims([twin], [P1]) == [[0]]


def kron_hom_system(M, N):
    """The intertwiner system written with np.kron: the reference for
    :func:`hom_system`."""
    quiver = M.quiver
    nvar = [N.dims[v] * M.dims[v] for v in range(quiver.n)]
    offs = np.cumsum([0] + nvar)
    rows = sum(N.dims[t] * M.dims[s] for s, t in quiver.arrows)
    D = np.zeros((rows, offs[-1]), dtype=np.int64)
    r0 = 0
    for k, (s, t) in enumerate(quiver.arrows):
        blk = N.dims[t] * M.dims[s]
        if blk:
            if nvar[s]:
                D[r0:r0 + blk, offs[s]:offs[s + 1]] = np.kron(
                    N.maps[k], np.eye(M.dims[s], dtype=np.int64))
            if nvar[t]:
                D[r0:r0 + blk, offs[t]:offs[t + 1]] -= np.kron(
                    np.eye(N.dims[t], dtype=np.int64), M.maps[k].T)
        r0 += blk
    return D % M.q


def random_rep(rng, quiver, q, dims=None):
    if dims is None:
        dims = tuple(int(d) for d in rng.integers(0, 4, quiver.n))
    return Representation(quiver, q, dims, [rng.integers(0, q, (dims[t], dims[s]))
                                            for s, t in quiver.arrows])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_hom_system_matches_kron_reference(a2, a3, kron, q):
    rng = np.random.default_rng(10 + q)
    empty_blocks = brute = 0
    for quiver in (a2, a3, kron):
        for _ in range(60):
            M, N = random_rep(rng, quiver, q), random_rep(rng, quiver, q)
            D = hom_system(M, N)
            assert D.dtype == np.int64
            assert np.array_equal(D, kron_hom_system(M, N))
            nvar = [n * m for n, m in zip(N.dims, M.dims)]
            empty_blocks += any(N.dims[t] * M.dims[s] == 0 for s, t in quiver.arrows)
            if sum(nvar) > 4:
                continue
            # brute force over all q^(sum nvar) <= q^4 candidate maps
            count = 0
            for flat in product(range(q), repeat=sum(nvar)):
                f, off = [], 0
                for v, n in enumerate(nvar):
                    f.append(np.array(flat[off:off + n], dtype=np.int64)
                             .reshape(N.dims[v], M.dims[v]))
                    off += n
                count += is_morphism(M, N, f)
            assert count == q ** hom_dim(M, N)
            brute += 1
    assert empty_blocks and brute


@pytest.mark.parametrize("q", [2, 3, 5])
def test_hom_system_stack_matches_pairs(a2, a3, kron, q):
    """The stacked systems are the np.kron reference systems pair by pair,
    for a stack against a stack, one module against a stack, and a probe
    stack crossed with a module stack through broadcasting."""
    rng = np.random.default_rng(40 + q)
    for quiver in (a2, a3, kron):
        for _ in range(15):
            m_dims, n_dims = (tuple(int(d) for d in rng.integers(0, 4, quiver.n))
                              for _ in range(2))
            Ms = [random_rep(rng, quiver, q, m_dims) for _ in range(3)]
            Ns = [random_rep(rng, quiver, q, n_dims) for _ in range(4)]
            m_st = [np.stack([M.maps[k] for M in Ms]) for k in range(len(quiver.arrows))]
            n_st = [np.stack([N.maps[k] for N in Ns]) for k in range(len(quiver.arrows))]
            D = hom_system_stack(quiver, q, m_dims, [m[:3] for m in m_st],
                                 n_dims, [n[:3] for n in n_st])
            assert D.dtype == np.int64
            for i in range(3):
                assert np.array_equal(D[i], kron_hom_system(Ms[i], Ns[i]))
            D = hom_system_stack(quiver, q, m_dims, [m[:1] for m in m_st], n_dims, n_st)
            for j in range(4):
                assert np.array_equal(D[j], kron_hom_system(Ms[0], Ns[j]))
            D = hom_system_stack(quiver, q, m_dims, [m[:, None] for m in m_st],
                                 n_dims, [n[None] for n in n_st])
            for i, j in product(range(3), range(4)):
                assert np.array_equal(D[i, j], kron_hom_system(Ms[i], Ns[j]))


def presentation_reference(M):
    """phi of the standard presentation summand pair by summand pair: the
    (k, c) copy of P_{t(k)} maps into the (s(k), c) copy of P_{s(k)} by
    precomposition with k, and into each (t(k), c') copy of P_{t(k)} by
    -M_k[c', c] times the identity.  The reference for
    :func:`projective_presentation`."""
    quiver, q = M.quiver, M.q
    proj = [projective(quiver, q, v) for v in range(quiver.n)]
    bases = [_path_basis(quiver, v) for v in range(quiver.n)]
    p0 = [(v, c) for v in range(quiver.n) for c in range(M.dims[v])]
    p1 = [(k, c) for k, (s, _) in enumerate(quiver.arrows) for c in range(M.dims[s])]

    def offsets(parts, of):
        offs, acc = [], [0] * quiver.n
        for part in parts:
            offs.append(tuple(acc))
            acc = [a + d for a, d in zip(acc, of(part).dims)]
        return offs, acc

    off0, dims0 = offsets(p0, lambda part: proj[part[0]])
    off1, dims1 = offsets(p1, lambda part: proj[quiver.arrows[part[0]][1]])
    phi = [np.zeros((dims0[w], dims1[w]), dtype=np.int64) for w in range(quiver.n)]
    for j, (k, c) in enumerate(p1):
        s, t = quiver.arrows[k]
        for w in range(quiver.n):
            # precomposition with k sends the path y (from t) to k y (from s)
            for col, word in enumerate(bases[t][w]):
                for i, (v, cc) in enumerate(p0):
                    if v == s and cc == c:
                        phi[w][off0[i][w] + bases[s][w].index((k,) + word), off1[j][w] + col] += 1
                    if v == t:
                        phi[w][off0[i][w] + col, off1[j][w] + col] -= M.maps[k][cc, c]
    return dims1, dims0, [m % q for m in phi]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_presentation_matches_reference(a2, a3, kron, q):
    rng = np.random.default_rng(70 + q)
    star = Quiver(["1", "2", "3", "4"], [["2", "1"], ["2", "3"], ["4", "2"]])
    for quiver in (a2, a3, kron, star):
        for _ in range(20):
            M = random_rep(rng, quiver, q)
            P1, P0, phi = projective_presentation(M)
            dims1, dims0, ref = presentation_reference(M)
            assert (P1.dims, P0.dims) == (tuple(dims1), tuple(dims0))
            assert all(np.array_equal(a, b) for a, b in zip(phi, ref))
            assert is_morphism(P1, P0, phi)


class TestProjectives:
    def test_projective_dims(self, a2, a3, kron):
        assert projective(a2, 2, 0).dims == (1, 1)
        assert projective(a2, 2, 1).dims == (0, 1)
        assert projective(a3, 2, 0).dims == (1, 1, 1)
        assert projective(kron, 2, 0).dims == (1, 2)

    def test_presentation_is_exact_morphism(self, a2, a3, kron):
        for quiver in (a2, a3, kron):
            for q in (2, 3):
                rng = np.random.default_rng(1)
                dims = tuple(rng.integers(1, 3, quiver.n))
                M = Representation(quiver, q, dims,
                                   [rng.integers(0, q, (dims[t], dims[s]))
                                    for s, t in quiver.arrows])
                P1, P0, phi = projective_presentation(M)
                assert is_morphism(P1, P0, phi)
                assert P0.total_dim() == P1.total_dim() + M.total_dim()
                assert hom_dim(P0, M) >= 1   # the epimorphism exists


class TestReflectionFunctors:
    @pytest.mark.parametrize("q", [2, 3])
    def test_a2_sink_reflection(self, a2, q):
        S1 = Representation.simple(a2, q, 0)
        r = reflect_plus(S1, 1)
        assert r.dims == (1, 1)
        assert r.quiver.arrows == ((1, 0),)
        P = P_a2(q)
        assert reflect_plus(P, 1).dims == (1, 0)

    def test_simple_away_from_vertex_fixed(self, a3):
        S1 = Representation.simple(a3, 2, 0)
        r = reflect_plus(S1, 2)
        assert r.dims == (1, 0, 0)

    def test_preconditions(self, a2):
        S1 = Representation.simple(a2, 2, 0)
        with pytest.raises(NotASink):
            reflect_plus(S1, 0)
        with pytest.raises(NotASource):
            reflect_minus(S1, 1)

    @pytest.mark.parametrize("q", [2, 3])
    def test_reflection_preserves_hom_ext(self, a2, q):
        # on modules without a simple summand at the sink
        S1 = Representation.simple(a2, q, 0)
        P = P_a2(q)
        for M in (S1, P):
            for N in (S1, P):
                rM, rN = reflect_plus(M, 1), reflect_plus(N, 1)
                assert hom_dim(rM, rN) == hom_dim(M, N)
                assert ext_dim(rM, rN) == ext_dim(M, N)

    @pytest.mark.parametrize("q", [2, 3])
    def test_sigma_minus_inverts_sigma_plus(self, a2, q):
        P = P_a2(q)
        r = reflect_plus(P, 1)
        back = reflect_minus(r, 1)
        assert back.dims == P.dims
        assert hom_dim(back, P) == 1 and ext_dim(back, P) == 0

    @pytest.mark.parametrize("q", [2, 3])
    def test_sigma_minus_matches_three_eliminations(self, a3, kron, q):
        """reflect_minus equals the three-elimination route at every source,
        on every catalog module of A3, D4 and the Kronecker quiver, and on
        random modules with empty blocks."""
        d4 = Quiver(["1", "2", "3", "4"], [["1", "4"], ["2", "4"], ["3", "4"]])
        rng = np.random.default_rng(50 + q)
        for quiver, bound in ((a3, (2, 2, 2)), (d4, (2, 2, 2, 2)), (kron, (3, 3))):
            modules = [it.rep for it in indecomposable_catalog(quiver, q, bound)]
            modules += [random_rep(rng, quiver, q) for _ in range(10)]
            for M in modules:
                for i in quiver.sources():
                    assert_same_rep(reflect_minus(M, i), reflect_minus_three_eliminations(M, i))


def reflect_minus_three_eliminations(M, i):
    """Oracle for reflect_minus: the cokernel projection of h = the stacked
    maps out of i, as the last rows of the inverse of the frame [B | C],
    with B the transposed rref basis of im h, C its greedy complement and the
    inverse from solve_mod."""
    quiver, q = M.quiver, M.q
    outgoing = quiver.arrows_out_of(i)
    h = np.concatenate([M.maps[k] for k in outgoing], axis=0)
    total = h.shape[0]
    r, rank, _ = rref_mod(h.T, q)
    image = r[:rank].T
    comp = linalg.complement_basis(image, q)[0]
    frame = np.concatenate([image, comp], axis=1)
    pi = linalg.solve_mod(frame, np.eye(total, dtype=np.int64), q)[rank:] if total \
        else np.zeros((0, 0), dtype=np.int64)
    dims = list(M.dims)
    dims[i] = comp.shape[1]
    maps = list(M.maps)
    off = 0
    for k in outgoing:
        t = quiver.arrows[k][1]
        maps[k] = pi[:, off:off + M.dims[t]]
        off += M.dims[t]
    return Representation(quiver.reflect(i), q, dims, maps)


def injective_reference(quiver, q, v):
    """The indecomposable injective I_v, built from the paths into v."""
    # paths into v = paths from v in the opposite quiver; build directly
    opp = Quiver(quiver.vertices, [(t, s) for s, t in quiver.arrows])
    by_vertex = _path_basis(opp, v)
    index = {word: pos for words in by_vertex for pos, word in enumerate(words)}
    dims = tuple(len(words) for words in by_vertex)
    maps = []
    for k, (s, t) in enumerate(quiver.arrows):
        # (I_v)_w = functions on paths w -> v; arrow k: s -> t acts by
        # precomposition, so the basis path p: t -> v pulls back from p o k.
        # Opp-paths keep arrow positions, so p o k is word_t + (k,).
        m = np.zeros((dims[t], dims[s]), dtype=np.int64)
        for word_t in by_vertex[t]:
            m_index_s = index.get(word_t + (k,))
            if m_index_s is not None:
                m[index[word_t], m_index_s] = 1
        maps.append(m)
    return Representation(quiver, q, dims, maps)


def assert_same_rep(M, N):
    assert M.quiver.vertices == N.quiver.vertices
    assert M.quiver.arrows == N.quiver.arrows
    assert (M.q, M.dims) == (N.q, N.dims)
    assert all(np.array_equal(a, b) for a, b in zip(M.maps, N.maps, strict=True))


def rank(A, q):
    return linalg.rank_mod(A, q) if A.size else 0


class TestDuality:
    """D = Hom_k(-, k) to the opposite quiver, and sigma^+ = D sigma^- D."""

    @pytest.fixture
    def quivers(self, a2, a3, kron):
        # D4 with three arrows into one sink, and A3 with a sink in the middle
        d4 = Quiver(["1", "2", "3", "4"], [["1", "4"], ["2", "4"], ["3", "4"]])
        a3_mid = Quiver(["1", "2", "3"], [["1", "2"], ["3", "2"]])
        return (a2, a3, kron, d4, a3_mid)

    @pytest.mark.parametrize("q", [2, 3])
    def test_double_dual_is_identity(self, quivers, q):
        rng = np.random.default_rng(20 + q)
        empty_blocks = 0
        for quiver in quivers:
            for _ in range(20):
                M = random_rep(rng, quiver, q)
                D = dual(M)
                assert D.quiver.arrows == tuple((t, s) for s, t in quiver.arrows)
                assert D.dims == M.dims
                assert all(np.array_equal(a, b.T) for a, b in zip(D.maps, M.maps))
                assert_same_rep(dual(D), M)
                empty_blocks += any(m.size == 0 for m in M.maps)
        assert empty_blocks

    @pytest.mark.parametrize("q", [2, 3])
    def test_dual_reverses_hom_and_ext(self, quivers, q):
        rng = np.random.default_rng(30 + q)
        for quiver in quivers:
            for _ in range(8):
                M, N = random_rep(rng, quiver, q), random_rep(rng, quiver, q)
                assert hom_dim(dual(M), dual(N)) == hom_dim(N, M)
                assert ext_dim(dual(M), dual(N)) == ext_dim(N, M)

    @pytest.mark.parametrize("q", [2, 3])
    def test_sigma_plus_is_the_kernel(self, quivers, q):
        """The new maps out of the sink, stacked, embed ker of the incoming
        sum map; every other arrow and dimension is untouched."""
        rng = np.random.default_rng(40 + q)
        for quiver in quivers:
            for i in quiver.sinks():
                incoming = quiver.arrows_into(i)
                for _ in range(10):
                    M = random_rep(rng, quiver, q)
                    R = reflect_plus(M, i)
                    assert R.quiver.arrows == quiver.reflect(i).arrows
                    h = np.concatenate([M.maps[k] for k in incoming], axis=1)
                    K = np.concatenate([R.maps[k] for k in incoming], axis=0)
                    assert K.shape == (h.shape[1], R.dims[i])
                    assert rank(K, q) == R.dims[i]
                    assert R.dims[i] == h.shape[1] - rank(h, q)
                    assert not ((h @ K) % q).any()
                    for v in range(quiver.n):
                        assert v == i or R.dims[v] == M.dims[v]
                    for k in range(len(quiver.arrows)):
                        assert k in incoming or np.array_equal(R.maps[k], M.maps[k])

    @pytest.mark.parametrize("q", [2, 3])
    def test_injective_is_dual_of_opposite_projective(self, quivers, q):
        for quiver in quivers:
            for v in range(quiver.n):
                assert_same_rep(dual(projective(quiver.opposite(), q, v)),
                                injective_reference(quiver, q, v))


class TestCatalogs:
    def test_a2_catalog_is_positive_roots(self, a2):
        for q in (2, 3, 5):
            cat = indecomposable_catalog(a2, q, (3, 3))
            assert sorted(it.dim for it in cat) == [(0, 1), (1, 0), (1, 1)]

    def test_a3_catalog_is_positive_roots(self, a3):
        cat = indecomposable_catalog(a3, 2, (2, 2, 2))
        assert sorted(it.dim for it in cat) == [
            (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1)]

    def test_labels_field_independent(self, a3):
        labels2 = {it.label for it in indecomposable_catalog(a3, 2, (2, 2, 2))}
        labels3 = {it.label for it in indecomposable_catalog(a3, 3, (2, 2, 2))}
        assert labels2 == labels3

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_kronecker_regular_counts(self, kron, q):
        cat = indecomposable_catalog(kron, q, (3, 3))
        regs1 = [it for it in cat if it.dim == (1, 1)]
        assert len(regs1) == q + 1
        regs2 = [it for it in cat if it.dim == (2, 2)]
        assert len(regs2) == (q + 1) + (q * q - q) // 2
        assert all(it.field_dependent for it in regs1)
        rigid = sorted(it.dim for it in cat if not it.field_dependent)
        assert rigid == [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_irreducible_counts(self, q):
        """Gauss's count (1/d) sum_{e | d} mu(e) q^(d/e) of monic irreducibles
        of degree d, for d <= 4: at d = 4 rootless is not irreducible."""
        from hallcrys.modules import _monic_irreducibles
        mobius = {1: 1, 2: -1, 3: -1, 4: 0}
        for d in (1, 2, 3, 4):
            gauss = sum(mobius[e] * q ** (d // e) for e in mobius if d % e == 0) // d
            assert len(_monic_irreducibles(q, d)) == gauss

    def test_kronecker_rigid_are_bricks(self, kron):
        for q in (2, 3):
            cat = indecomposable_catalog(kron, q, (3, 3))
            for it in cat:
                if not it.field_dependent:
                    assert hom_dim(it.rep, it.rep) == 1
                    assert ext_dim(it.rep, it.rep) == 0
                else:
                    assert hom_dim(it.rep, it.rep) == it.end_dim

    def test_unavailable_catalog(self):
        wild = Quiver(["1", "2"], [["1", "2"]] * 3)
        with pytest.raises(CatalogUnavailable):
            indecomposable_catalog(wild, 2, (2, 2))


def test_direct_sum_dims(a2):
    S1 = Representation.simple(a2, 2, 0)
    P = P_a2(2)
    D = direct_sum([S1, P, P])
    assert D.dims == (3, 2)
