from fractions import Fraction
from itertools import product

import pytest

from hallcrys import linalg
from hallcrys.checks import CheckFailed
from hallcrys.exseq import CertificateEngine
from hallcrys.generic import GenericContext
from hallcrys.classtable import (ClassTable, IsoClass, TableSet, ZERO_CLASS,
                                  _check_same_rigid, parse_class_label)
from hallcrys.modules import BudgetExceeded, ext_dims, hom_dim, hom_system
from hallcrys.quivers import Quiver, euler_bilinear, quiver_a1


P = IsoClass.of("r1.1")


class TestClasses:
    def test_classes_of_dim_a2(self, reg, a2):
        t = reg.table(a2, 2)
        assert [c.label for c in t.classes_of_dim((1, 1))] == ["S1+S2", "r1.1"]
        assert [c.label for c in t.classes_of_dim((1, 0))] == ["S1"]

    def test_kronecker_1_1(self, reg, kron):
        t = reg.table(kron, 2, (3, 3))
        labels = [c.label for c in t.classes_of_dim((1, 1))]
        assert len(labels) == 4 and "S1+S2" in labels

    def test_label_roundtrip(self):
        cls = parse_class_label("S1+S1+r1.1")
        assert cls.label == "S1+S1+r1.1"
        assert cls.multiplicities() == {"S1": 2, "r1.1": 1}
        assert parse_class_label("0") == ZERO_CLASS

    def test_isoclass_hash_equality_and_order(self):
        """The stored hash is the dataclass hash, hash((parts,)), so set and
        dict orders are unchanged; equality, order and repr see parts only."""
        import pickle
        classes = [IsoClass(("S1", "r1.1")), IsoClass.of("r1.1", "S1"), IsoClass(("S2",)),
                   ZERO_CLASS, parse_class_label("S1+S1+r1.1")]
        for c in classes:
            assert hash(c) == hash((c.parts,))
            back = pickle.loads(pickle.dumps(c))
            assert back == c and hash(back) == hash(c)
        assert classes[0] == classes[1] and len(set(classes)) == 4
        assert sorted(classes) == sorted(classes, key=lambda c: c.parts)
        assert repr(classes[2]) == "IsoClass(parts=('S2',))"
        # a pickle carries the parts only: a process with another string hash
        # seed recomputes the hash
        assert all(b"_hash" not in pickle.dumps(c) for c in classes)

    def test_exceptionality(self, reg, a2):
        t = reg.table(a2, 2)
        S1, S2 = t.simple_class(0), t.simple_class(1)
        assert (t.hom(S1, S2), t.ext(S1, S2)) == (0, 1)
        assert (t.hom(S2, P), t.ext(S2, P)) == (1, 0)
        assert t.is_exceptional(P)
        assert t.is_exceptional(IsoClass.of("S1"))
        assert not t.is_exceptional(IsoClass.of("S1", "S2"))  # Ext(S1,S2) = 1
        assert t.is_exceptional(IsoClass.of("S2", "r1.1"))
        assert t.ext(ZERO_CLASS, ZERO_CLASS) == 0
        assert not t.is_exceptional(ZERO_CLASS)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_ext_matches_projective_presentation(self, reg, a3, kron, q):
        """On A3 (2,2,2), D4 (2,2,2,2) and the Kronecker quiver (3,3),
        ClassTable.ext, Hom minus the Euler form, equals the oracle
        modules.ext_dims of the representatives on every pair of catalog
        entries and on every pair of classes of total dimension at most 3."""
        for quiver, bound in ((a3, (2, 2, 2)), (D4, (2, 2, 2, 2)), (kron, (3, 3))):
            t = reg.table(quiver, q, bound)
            small = [dim for dim in product(*(range(b + 1) for b in bound)) if sum(dim) <= 3]
            for classes in ([IsoClass((it.label,)) for it in t.catalog],
                            [cls for dim in small for cls in t.classes_of_dim(dim)]):
                reps = [t.representative(cls) for cls in classes]
                assert [[t.ext(a, b) for b in classes] for a in classes] == \
                    ext_dims(reps, reps)

    def test_exceptional_pairs(self, reg, a2):
        t = reg.table(a2, 2)
        S1, S2 = t.simple_class(0), t.simple_class(1)
        assert t.exceptional_pair_check(S1, S2)
        assert not t.exceptional_pair_check(S2, S1)
        assert t.exceptional_pair_check(S2, P)
        assert t.exceptional_pair_check(P, S1)


class TestAutOrders:
    def test_spec_examples(self, reg, a2):
        t2, t3 = reg.table(a2, 2), reg.table(a2, 3)
        assert t2.aut_order(IsoClass.of("S1")) == 1
        assert t3.aut_order(P) == 2
        assert t2.aut_order(IsoClass.of("S1", "S2")) == 1

    @pytest.mark.parametrize("q", [2, 3])
    def test_three_routes_agree_a2(self, reg, a2, q):
        t = reg.table(a2, q)
        # (1, 0) and (0, 2) have an empty arrow block
        for dim in [(1, 1), (2, 1), (2, 2), (1, 0), (0, 2)]:
            for cls in t.classes_of_dim(dim):
                closed = t.aut_order(cls)
                assert closed == t.aut_order_orbit(cls)
                assert closed == t.aut_order_units(cls)

    def test_routes_agree_kronecker(self, reg, kron):
        t = reg.table(kron, 2, (3, 3))
        for dim in [(1, 1), (2, 1), (2, 2), (0, 1), (2, 0)]:
            for cls in t.classes_of_dim(dim):
                assert t.aut_order(cls) == t.aut_order_orbit(cls)

    def test_regular_aut_orders(self, reg, kron):
        # R_x(1): End = F_q -> q - 1; R_x(2): End = F_q[u]/(u^2) -> q(q-1)
        t = reg.table(kron, 3, (3, 3))
        assert t.aut_order(IsoClass.of("R[0]m1")) == 2
        assert t.aut_order(IsoClass.of("R[0]m2")) == 6
        # degree-2 point: End = F_{q^2} -> q^2 - 1
        deg2 = next(c for c in t.classes_of_dim((2, 2))
                    if c.is_indecomposable() and "m1" in c.label and "." in c.label)
        assert t.aut_order(deg2) == 8


class TestMassAndEnumeration:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_mass_formula(self, reg, a2, a3, kron, q):
        for quiver, dims in [(a2, [(1, 1), (2, 2), (3, 1)]),
                             (a3, [(1, 1, 1), (2, 1, 1)]),
                             (kron, [(1, 1), (2, 2), (3, 2)])]:
            bound = (4,) * quiver.n if quiver.n == 2 else (4, 4, 4)
            t = reg.table(quiver, q, bound if quiver is not kron else (3, 3))
            for dim in dims:
                assert t.mass_check(dim), (quiver, q, dim)

    @pytest.mark.parametrize("q", [2, 3])
    def test_kronecker_mass_at_bound_four(self, kron, q):
        """The degree-4 points of P^1 are the irreducible quartics: the
        catalog passes the mass formula at (4, 4)."""
        assert ClassTable(kron, q, (4, 4)).mass_check((4, 4))

    @pytest.mark.parametrize("q", [2, 3])
    def test_enumerate_matches_catalog(self, reg, a2, a3, kron, q):
        for quiver, dim in [(a2, (1, 1)), (a2, (2, 2)), (kron, (1, 1)), (kron, (2, 1)),
                            (a2, (1, 0)), (a2, (0, 2)), (kron, (0, 1)), (kron, (2, 0)),
                            (a3, (1, 1, 1)), (a3, (1, 0, 1)), (a3, (2, 1, 1)),
                            (a3, (0, 2, 1))]:
            t = reg.table(quiver, q, (3,) * quiver.n)
            enum = t.enumerate_classes(dim)
            assert [c.label for c, _ in enum] == [c.label for c in t.classes_of_dim(dim)]
            # the oracle for label_module, which does not compare End dimensions
            for cls, rep in enum:
                assert t.end_dim(cls) == hom_dim(rep, rep), cls.label

    @pytest.mark.parametrize("q, orders", [(2, (6, 168)), (3, (48, 11232))])
    def test_quiver_without_arrows(self, q, orders):
        # E_d is a single point, code 0: one orbit, |Aut| = |G_d| = |GL_n|
        t = ClassTable(quiver_a1(), q, (3,))
        for n, order in zip((2, 3), orders):
            cls = IsoClass.of(*["S1"] * n)
            assert t.aut_order(cls) == t.aut_order_orbit(cls) == order
            assert [c for c, _ in t.enumerate_classes((n,))] == [cls]
            assert t.mass_check((n,))

    def test_enumerate_budget(self, reg, kron):
        t = ClassTable(kron, 5, (3, 3), point_budget=100)
        with pytest.raises(BudgetExceeded):
            t.enumerate_classes((2, 2))

    def test_label_stability_across_primes(self, reg, a2, a3):
        for quiver in (a2, a3):
            bound = (3,) * quiver.n
            t2, t3 = reg.table(quiver, 2, bound), reg.table(quiver, 3, bound)
            for dim in [(1,) * quiver.n, (2,) + (1,) * (quiver.n - 1)]:
                assert ([c.label for c in t2.classes_of_dim(dim)]
                        == [c.label for c in t3.classes_of_dim(dim)])


class TestLabeling:
    @pytest.mark.parametrize("q", [2, 3])
    def test_label_module_roundtrip(self, reg, kron, q):
        t = reg.table(kron, q, (3, 3))
        for dim in [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3)]:
            for cls in t.classes_of_dim(dim):
                assert t.label_module(t.representative(cls)) == cls
        # the Kronecker Hom matrix is not unitriangular: regular summands with
        # End dimension 2 and 3 give the cached inverses denominators above 1
        dens = set()
        for labels, (inv, den) in t._solver_cache.items():
            H = [[t.hom_indec(a, b) for b in labels] for a in labels]
            n = len(labels)
            assert [[sum(inv[i][k] * H[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)] == [[den * (i == j) for j in range(n)]
                                           for i in range(n)]
            dens.add(den)
        assert max(dens) > 1

    def test_label_distinguishes_regulars(self, reg, kron):
        t = reg.table(kron, 2, (3, 3))
        import numpy as np
        from hallcrys.modules import Representation
        m0 = Representation(kron, 2, (1, 1), [np.array([[1]]), np.array([[0]])])
        m1 = Representation(kron, 2, (1, 1), [np.array([[1]]), np.array([[1]])])
        assert t.label_module(m0) != t.label_module(m1)

    def test_label_rejects_other_field(self, kron):
        import numpy as np
        from hallcrys.modules import Representation
        t = ClassTable(kron, 5, (3, 3))
        eye = np.eye(1, dtype=np.int64)
        # companion of x + 3 over F_5: the same bytes as an F_3 module
        assert t.label_module(Representation(kron, 5, (1, 1), [eye, [[2]]])) == IsoClass.of("R[3]m1")
        for c in (2, 1):        # a cached key, then a miss
            with pytest.raises(ValueError, match="mismatched base field"):
                t.label_module(Representation(kron, 3, (1, 1), [eye, [[c]]]))

    @pytest.mark.parametrize("name, q, bound, dims", [
        ("kron", 2, (3, 3), [(1, 1), (2, 2), (3, 2), (3, 3)]),
        ("kron", 3, (3, 3), [(2, 1), (2, 2), (3, 3)]),
        ("a3", 2, (2, 2, 2), [(1, 1, 1), (2, 1, 1), (2, 2, 2)]),
        ("a3", 3, (2, 2, 2), [(1, 2, 1), (2, 2, 2)]),
    ])
    def test_batch_labels_match_single(self, request, name, q, bound, dims):
        """Labels of a random stack from one batch equal one-at-a-time labels
        on a fresh table."""
        import numpy as np
        from hallcrys.modules import Representation
        quiver = request.getfixturevalue(name)
        rng = np.random.default_rng(q)
        batch, single = ClassTable(quiver, q, bound), ClassTable(quiver, q, bound)
        seen = set()
        for d in dims:
            modules = [Representation(quiver, q, d, [rng.integers(0, q, (d[t], d[s]))
                                                     for s, t in quiver.arrows])
                       for _ in range(40)]
            stacks = [np.stack([M.maps[k] for M in modules]) for k in range(len(quiver.arrows))]
            labels = batch.label_modules(d, len(modules), stacks)
            assert labels == [single.label_module(M) for M in modules]
            seen.update(labels)
        assert len(seen) > 2 * len(dims)

    def test_label_rejects_other_arrow_order(self, a3):
        """A module over A3 with its arrows listed in the other order (equal
        under Quiver.__eq__) is refused, not labelled by arrow index: here it
        is S1 + r0.1.1, which A3's arrow order would read as S3 + r1.1.0."""
        import numpy as np
        from hallcrys.modules import Representation
        from hallcrys.quivers import Quiver
        t = ClassTable(a3, 3, (2, 2, 2))
        swapped = Quiver(["1", "2", "3"], [["2", "3"], ["1", "2"]])
        assert swapped == a3
        M = Representation(swapped, 3, (1, 1, 1), [np.array([[1]]), np.array([[0]])])
        with pytest.raises(ValueError, match="mismatched quiver"):
            t.label_module(M)
        same = Representation(a3, 3, (1, 1, 1), [np.array([[0]]), np.array([[1]])])
        assert t.label_module(same) == IsoClass.of("S1", "r0.1.1")

    def test_one_label_batch_per_side(self, kron, monkeypatch):
        """A scan of one chunk labels each side in one batch, and the
        extension counts label their middle terms in one batch.  With room
        for one subspace tuple per chunk, a scan labels chunk by chunk: no
        batch holds more rows than one chunk's closed (tuple, class) pairs,
        and the batches of a side together hold every closed pair."""
        from hallcrys import modules
        t = ClassTable(kron, 3, (3, 3))
        calls = []
        label_modules = ClassTable.label_modules

        def spy(self, dims, n, stacks):
            calls.append((dims, n))
            return label_modules(self, dims, n, stacks)

        monkeypatch.setattr(ClassTable, "label_modules", spy)
        lam = IsoClass.of("S1", "S1", "S2", "S2")
        alpha, beta = IsoClass.of("S1", "S2", "S2"), IsoClass.of("S1")
        assert t.hall_number(lam, alpha, beta) == 3 + 1     # lines in F_3^2
        assert [dims for dims, _ in calls] == [(1, 2), (1, 0)] and len(t._label_cache) > 1
        calls.clear()
        size = len(t._label_cache)
        counts = t.extension_middle_counts(IsoClass.of("S1", "S1"), IsoClass.of("S2"))
        assert [dims for dims, _ in calls] == [(2, 1)] and len(t._label_cache) > size
        assert sum(counts.values()) == 3 ** 4
        monkeypatch.setattr(modules, "_HOM_STACK", 1)
        lams = t.classes_of_dim((2, 2))
        calls.clear()
        closed = sum(sum(tally.values()) for tally in t._scan_submodules(lams, (1, 1)).values())
        assert len(calls) > 2 and all(n <= len(lams) for _, n in calls)
        assert sum(n for _, n in calls[0::2]) == sum(n for _, n in calls[1::2]) == closed

    def test_zero_module_needs_no_decomposition(self, kron, monkeypatch):
        """The zero module's label is in the cache from the start: labelling
        it alone, as one side of a scan or as a middle term runs no Hom-count
        decomposition (which would raise: no catalog entry fits under 0)."""
        import numpy as np
        import hallcrys.classtable as ct
        from hallcrys.modules import Representation
        t = ClassTable(kron, 2, (3, 3))
        probed = []
        counts = ct.hom_counts

        def spy(quiver, q, m_dims, m_maps, n_dims, n_maps):
            probed.append(n_dims)
            return counts(quiver, q, m_dims, m_maps, n_dims, n_maps)

        monkeypatch.setattr(ct, "hom_counts", spy)
        assert t.label_module(Representation.zero(kron, 2)) == ZERO_CLASS
        empty = np.zeros((0, 0), dtype=np.int64)
        assert t.label_modules((0, 0), 2, [np.stack([empty] * 2)] * 2) == [ZERO_CLASS] * 2
        assert t.extension_middle_counts(ZERO_CLASS, ZERO_CLASS) == {ZERO_CLASS: 1}
        assert probed == []
        lam = IsoClass.of("R[0]m1")
        assert t.hall_number(lam, lam, ZERO_CLASS) == 1
        assert t.hall_number(lam, ZERO_CLASS, lam) == 1
        assert probed and (0, 0) not in probed

    def test_doctored_inverse_fails_in_batch(self, kron):
        t = ClassTable(kron, 2, (3, 3))
        S1, S2 = IsoClass.of("S1"), IsoClass.of("S2")
        for labels in (("S1",), ("S2",)):
            inv, den = t._hom_matrix_inverse(labels)
            t._solver_cache[labels] = (inv, 7 * den)
        with pytest.raises(CheckFailed, match="non-integral multiplicity 1/7 of S"):
            t.hall_number(IsoClass.of("S1", "S2"), S1, S2)
        labels = tuple(it.label for it in t.catalog if it.dim in ((0, 1), (1, 0), (1, 1)))
        inv, den = t._hom_matrix_inverse(labels)
        t._solver_cache[labels] = (inv, 7 * den)
        with pytest.raises(CheckFailed, match="non-integral multiplicity"):
            t.extension_middle_counts(S1, S2)


class TestStackCuts:
    """The Grassmannian build and the extension counts stack at most
    modules._HOM_STACK entries per call, unless a call holds one item, and
    give the same result as at the default bound."""

    def test_grassmannian_cuts(self, reg, a2, monkeypatch):
        import numpy as np
        from hallcrys import linalg, modules
        shapes = ((4, 2), (4, 1), (3, 3), (0, 0))
        default = {dk: reg.table(a2, 5)._grassmannian(*dk) for dk in shapes}
        monkeypatch.setattr(modules, "_HOM_STACK", 200)
        calls = []
        complement_basis = linalg.complement_basis
        monkeypatch.setattr(linalg, "complement_basis",
                            lambda a, p: calls.append(a.shape) or complement_basis(a, p))
        t = ClassTable(a2, 5, (1, 1))
        for d, k in shapes:
            calls.clear()
            frames, inverses = t._grassmannian(d, k)
            want = default[d, k]
            assert np.array_equal(frames, want[0]) and np.array_equal(inverses, want[1])
            assert sum(n for n, _, _ in calls) == len(frames)
            assert all(n == 1 or n * d * (k + d) <= 200 for n, _, _ in calls)
        assert len(t._grassmannian(4, 2)[0]) * 4 * 6 > 200

    def test_extension_middle_count_cuts(self, reg, kron, monkeypatch):
        from hallcrys import modules
        alpha, beta = IsoClass.of("S1", "S1"), IsoClass.of("S2", "R[0]m1")
        default = reg.table(kron, 3, (3, 3)).extension_middle_counts(alpha, beta)
        monkeypatch.setattr(modules, "_HOM_STACK", 64)
        calls = []
        label_modules = ClassTable.label_modules

        def spy(self, dims, n, stacks):
            calls.append((n, sum(m[0].size for m in stacks)))
            return label_modules(self, dims, n, stacks)

        monkeypatch.setattr(ClassTable, "label_modules", spy)
        t = ClassTable(kron, 3, (3, 3))
        calls.clear()
        assert t.extension_middle_counts(alpha, beta) == default
        assert len(calls) > 1 and sum(n for n, _ in calls) == sum(default.values())
        assert all(n == 1 or n * entries <= 64 for n, entries in calls)


class TestHallNumbers:
    def test_spec_examples(self, reg, a2):
        t = reg.table(a2, 2)
        S1, S2 = t.simple_class(0), t.simple_class(1)
        assert t.hall_number(P, S1, S2) == 1
        assert t.hall_number(IsoClass.of("S1", "S2"), S2, S1) == 1
        assert t.hall_number(P, S2, S1) == 0
        assert t.hall_number(P, P, ZERO_CLASS) == 1
        assert t.hall_number(P, ZERO_CLASS, P) == 1

    def test_dimension_mismatch(self, reg, a2):
        t = reg.table(a2, 2)
        with pytest.raises(ValueError):
            t.hall_number(P, P, P)
        # parts out of order: no class of the group's list, so not a silent 0
        with pytest.raises(ValueError, match="not a class of dimension"):
            t.hall_number(IsoClass(("S2", "S1")), t.simple_class(0), t.simple_class(1))

    @pytest.mark.parametrize("q", [2, 3])
    def test_riedtmann_peng_agreement(self, reg, a2, kron, q):
        for quiver, bound, dims in [(a2, (3, 3), [(1, 1), (2, 1), (2, 2)]),
                                    (kron, (3, 3), [(1, 1), (2, 1)])]:
            t = reg.table(quiver, q, bound)
            for dim in dims:
                lams = t.classes_of_dim(dim)
                for lam in lams:
                    for da in range(dim[0] + 1):
                        for db in range(dim[1] + 1):
                            alphas = t.classes_of_dim((da, db))
                            betas = t.classes_of_dim((dim[0] - da, dim[1] - db))
                            for al in alphas:
                                for be in betas:
                                    assert (t.hall_number(lam, al, be)
                                            == t.hall_number_rp(lam, al, be))

    @pytest.mark.parametrize("name, q, bound, npairs", [
        ("a3", 2, (2, 2, 2), 584), ("kron", 2, (2, 2), 130), ("kron", 3, (2, 2), 169)])
    def test_riedtmann_sum(self, reg, a3, kron, name, q, bound, npairs):
        # sum_lam g^lam_{alpha beta} a_alpha a_beta / a_lam
        #   = |Ext(alpha, beta)| / |Hom(alpha, beta)| = q^-<dim alpha, dim beta>,
        # from the Euler form and the closed-form aut orders alone
        quiver = a3 if name == "a3" else kron
        t = reg.table(quiver, q) if name == "a3" else reg.table(quiver, q, (3, 3))
        dims = list(product(*[range(b + 1) for b in bound]))
        pairs = 0
        for ad in dims:
            for bd in dims:
                ld = tuple(x + y for x, y in zip(ad, bd))
                if not any(ld) or any(x > b for x, b in zip(ld, bound)):
                    continue
                lams = t.classes_of_dim(ld)
                for alpha in t.classes_of_dim(ad):
                    for beta in t.classes_of_dim(bd):
                        pairs += 1
                        total = sum(Fraction(t.hall_number(lam, alpha, beta),
                                             t.aut_order(lam)) for lam in lams)
                        expected = (Fraction(q) ** -euler_bilinear(quiver, ad, bd)
                                    / (t.aut_order(alpha) * t.aut_order(beta)))
                        assert total == expected, (alpha.label, beta.label)
        assert pairs == npairs

    def test_aggregate_count(self, reg, kron):
        # sum over lambda of g^lam_{S1, S2-stuff}: extensions of S1 by S2 at q=2
        t = reg.table(kron, 2, (3, 3))
        S1, S2 = t.simple_class(0), t.simple_class(1)
        counts = t.extension_middle_counts(S1, S2)
        assert sum(counts.values()) == 2 ** 2    # |Ext(S1,S2)| = q^2


def test_cache_roundtrip(reg, a2):
    t = reg.table(a2, 2)
    S1, S2 = t.simple_class(0), t.simple_class(1)
    t.hall_number(P, S1, S2)
    blob = t.dump_cache()
    t2 = ClassTable(a2, 2, t.dim_bound)
    t2.load_cache(blob)
    assert t2._hall_cache[(P, S1, S2)] == 1


def test_cache_for_another_quiver_rejected(a3):
    """Hall numbers of 1 -> 2 -> 3 do not load into a table of 1 <- 2 -> 3,
    whose labels are the same but whose Hall numbers differ."""
    from hallcrys.quivers import Quiver
    r, S1, S2 = IsoClass.of("r1.1.0"), IsoClass.of("S1"), IsoClass.of("S2")
    t = ClassTable(a3, 2, (1, 1, 1))
    assert t.hall_number(r, S1, S2) == 1
    other = ClassTable(Quiver(["1", "2", "3"], [["2", "1"], ["2", "3"]]), 2, (1, 1, 1))
    with pytest.raises(ValueError, match="table cache for another quiver"):
        other.load_cache(t.dump_cache())
    assert other._hall_cache == {}
    assert other.hall_number(r, S1, S2) == 0


def test_cache_for_another_prime_rejected(reg, a2):
    t = reg.table(a2, 2)
    t.hall_number(P, IsoClass.of("S1"), IsoClass.of("S2"))
    blob = t.dump_cache()
    with pytest.raises(ValueError, match="table cache for another q$"):
        ClassTable(a2, 3, t.dim_bound).load_cache(blob)
    with pytest.raises(ValueError, match="table cache for another dim_bound"):
        ClassTable(a2, 2, (2, 2)).load_cache(blob)
    with pytest.raises(ValueError, match="another schema"):
        ClassTable(a2, 2, t.dim_bound).load_cache({**blob, "schema": 2})


def test_classes_beyond_bound(reg, a2, kron):
    # Dynkin catalogs contain every indecomposable, so multisets stay
    # complete past the bound; Kronecker tables must refuse instead
    t = reg.table(a2, 2, (3, 3))
    assert [c.label for c in t.classes_of_dim((4, 0))] == ["S1+S1+S1+S1"]
    tk = reg.table(kron, 2, (3, 3))
    with pytest.raises(BudgetExceeded):
        tk.classes_of_dim((4, 4))


def test_dynkin_test_runs_once_per_quiver(monkeypatch):
    """classes_of_dim asks is_dynkin for every dimension outside the bound;
    the Tits-form minors are evaluated once per quiver."""
    from hallcrys.quivers import Quiver
    calls = []
    positive = Quiver.tits_form_positive_definite
    monkeypatch.setattr(Quiver, "tits_form_positive_definite",
                        lambda self: calls.append(self) or positive(self))
    a3 = Quiver(["1", "2", "3"], [["1", "2"], ["2", "3"]])
    t = ClassTable(a3, 2, (1, 1, 1))
    dims = [d for d in product(range(4), repeat=3) if max(d) > 1]
    assert all(t.classes_of_dim(d) for d in dims) and len(dims) > 50
    assert calls == [a3]


def test_rp_extension_budget(kron):
    t = ClassTable(kron, 3, (3, 3), ext_budget=2)
    with pytest.raises(BudgetExceeded):
        t.extension_middle_counts(IsoClass.of("S1"), IsoClass.of("S2"))


def test_table_set_checks_rigid_labels(a2):
    # the table at q = 3 is built to a smaller bound, so r1.1 and S2 are
    # missing from its rigid labels; the first table is never checked
    tables = TableSet(a2, (1, 1), lambda q: ClassTable(a2, q, (1, 1) if q == 2 else (1, 0)))
    assert tables[2].q == 2
    with pytest.raises(CheckFailed, match="rigid labels differ at q = 2 and q = 3"):
        tables[3]
    assert list(tables) == [2]


def test_table_set_keeps_failed_check(a2):
    # a prime whose table failed the check is neither built nor stored again
    built = []

    def build(q):
        built.append(q)
        return ClassTable(a2, q, (1, 1) if q == 2 else (1, 0))

    tables = TableSet(a2, (1, 1), build)
    tables[2]
    for _ in range(3):
        with pytest.raises(CheckFailed, match="rigid labels differ at q = 2 and q = 3"):
            tables[3]
    assert built == [2, 3]
    assert list(tables) == [2]


@pytest.mark.parametrize("bound", [(1, 1, 1), (1, 1, 1, 1, 1), (1, 1, -1, 1)],
                         ids=["short", "long", "negative"])
def test_bound_needs_one_entry_per_vertex(bound):
    """A short bound would leave the last vertex unbounded: (1, 1, 1) on D4
    used to build 12 catalog entries, (1, 1, 2, 1) among them."""
    d4 = Quiver(["1", "2", "3", "4"], [["1", "4"], ["2", "4"], ["3", "4"]])
    for make in (lambda: ClassTable(d4, 2, bound), lambda: TableSet(d4, bound),
                 lambda: GenericContext(d4, bound), lambda: CertificateEngine(d4, bound)):
        with pytest.raises(ValueError, match="one nonnegative entry"):
            make()
    assert len(ClassTable(d4, 2, (1, 1, 1, 1)).catalog) == 11


def hom_dim_reference(M, N):
    """dim Hom(M, N) one pair at a time: the pair's intertwiner system and
    one single-matrix rank.  The oracle for :meth:`ClassTable.hom_matrix`."""
    D = hom_system(M, N)
    return D.shape[1] - (linalg.rank_mod(D, M.q) if D.size else 0)


class TestHomMatrix:
    D4 = Quiver(["1", "2", "3", "4"], [["1", "4"], ["2", "4"], ["3", "4"]])

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_matches_oracle_and_pairwise_fill(self, a3, kron, q):
        """On every catalog pair of A3 (2,2,2), D4 (2,2,2,2) and the Kronecker
        quiver (3,3), hom_matrix equals the oracle, and the table's dump
        equals that of a table filled pair by pair through hom_indec; a
        rectangle of rows x cols adds exactly its own Hom keys."""
        for quiver, bound in ((a3, (2, 2, 2)), (self.D4, (2, 2, 2, 2)), (kron, (3, 3))):
            t = ClassTable(quiver, q, bound)
            labels = [it.label for it in t.catalog]
            rows, cols = labels[::2], labels[-1::-3]
            before = set(t.dump_cache()["hom"])
            assert t.hom_matrix(rows, cols) == [
                [hom_dim_reference(t.by_label[a].rep, t.by_label[b].rep) for b in cols]
                for a in rows]
            added = set(t.dump_cache()["hom"]) - before
            assert added == {f"{a}|{b}" for a in rows for b in cols} - before
            pairwise = ClassTable(quiver, q, bound)
            for a in rows:
                for b in cols:
                    pairwise.hom_indec(a, b)
            assert t.dump_cache() == pairwise.dump_cache()
            assert t.hom_matrix(labels, labels) == [
                [hom_dim_reference(t.by_label[a].rep, t.by_label[b].rep) for b in labels]
                for a in labels]

    @pytest.mark.parametrize("q", [2, 3])
    def test_end_checks_store_the_diagonal(self, kron, q, monkeypatch):
        """A fresh table's Hom cache holds exactly the catalog's diagonal,
        filled by at most one stacked Hom count per dimension vector."""
        import hallcrys.classtable as ct
        calls = []
        counts = ct.hom_counts
        monkeypatch.setattr(ct, "hom_counts", lambda *args: calls.append(args[2]) or counts(*args))
        for quiver, bound in ((kron, (4, 4)), (self.D4, (2, 2, 2, 2))):
            calls.clear()
            t = ClassTable(quiver, q, bound)
            assert set(t.dump_cache()["hom"]) == {f"{it.label}|{it.label}" for it in t.catalog}
            assert sorted(calls) == sorted({it.dim for it in t.catalog})
            assert all(t.hom_indec(it.label, it.label) == hom_dim_reference(it.rep, it.rep)
                       for it in t.catalog)

    def test_counts_only_missing_pairs(self, kron, monkeypatch):
        """On a fresh table, hom_matrix over the whole catalog counts the
        pairs off the diagonal and none of the cached End diagonals again:
        74 labels at q = 5 under (3,3), so 74 * 74 - 74 = 5,402 pairs."""
        import hallcrys.classtable as ct
        t = ClassTable(kron, 5, (3, 3))
        labels = [it.label for it in t.catalog]
        sizes = []
        counts = ct.hom_counts

        def spy(quiver, q, m_dims, m_maps, n_dims, n_maps):
            sizes.append(m_maps[0].shape[0])
            assert n_maps[0].shape[0] == sizes[-1]
            return counts(quiver, q, m_dims, m_maps, n_dims, n_maps)

        monkeypatch.setattr(ct, "hom_counts", spy)
        got = t.hom_matrix(labels, labels)
        assert len(labels) == 74 and sum(sizes) == 5402
        assert len(sizes) == len({(t.by_label[a].dim, t.by_label[b].dim)
                                  for a in labels for b in labels if a != b})
        assert got == ClassTable(kron, 5, (3, 3)).hom_matrix(labels[::-1], labels)[::-1]

    def test_keeps_a_loaded_entry(self, kron):
        """A doctored entry loaded from a cache survives a hom_matrix fill."""
        fresh = ClassTable(kron, 3, (2, 2))
        labels = [it.label for it in fresh.catalog]
        a, b = labels[1], labels[-1]
        blob = fresh.dump_cache()
        blob["hom"][f"{a}|{b}"] = 7
        t = ClassTable(kron, 3, (2, 2))
        assert t.load_cache(blob) == 0
        got = t.hom_matrix(labels, labels)
        want = fresh.hom_matrix(labels, labels)
        i, j = labels.index(a), labels.index(b)
        assert got[i][j] == 7 != want[i][j] and t.hom_indec(a, b) == 7
        want[i][j] = 7
        assert got == want

    def test_cross_prime_check_names_first_pair(self, a2):
        """With two doctored pairs, the check names the first in row-major
        order of the sorted rigid labels."""
        first, other = ClassTable(a2, 2, (1, 1)), ClassTable(a2, 3, (1, 1))
        labels = sorted(it.label for it in first.catalog)
        assert labels == ["S1", "S2", "r1.1"]
        for pair in (("S2", "S1"), ("S1", "r1.1")):
            other._hom_cache[pair] = other.hom_indec(*pair) + 1
        with pytest.raises(CheckFailed, match=r"^Hom\(S1,r1\.1\) differs at q = 2 and q = 3$"):
            _check_same_rigid(first, other)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_grassmannian_matches_two_eliminations(reg, a2, q, monkeypatch):
    """Oracle for ClassTable._grassmannian: frame i of the stacked cache is
    [W | C] for the i-th subspace W of linalg.subspaces, with C the greedy
    complement, and its inverse is a second elimination (solve_mod), for
    every (d, k) with d <= 4; at the default bound, then with _HOM_STACK = 1
    on a fresh table, which completes one subspace per complement_basis
    call."""
    import numpy as np
    from hallcrys import linalg, modules
    complement_basis = linalg.complement_basis
    completed = []
    for cuts_of_one in (False, True):
        t = reg.table(a2, q)
        if cuts_of_one:
            monkeypatch.setattr(modules, "_HOM_STACK", 1)
            monkeypatch.setattr(linalg, "complement_basis",
                                lambda a, p: completed.append(len(a)) or complement_basis(a, p))
            t = ClassTable(a2, q, (1, 1))
        for d in range(5):
            eye = np.eye(d, dtype=np.int64)
            for k in range(d + 1):
                bases = list(linalg.subspaces(d, k, q))
                completed.clear()
                frames, inverses = t._grassmannian(d, k)
                assert completed == ([1] * len(bases) if cuts_of_one else [])
                assert frames.shape == inverses.shape == (len(bases), d, d)
                assert frames.dtype == inverses.dtype == np.int64
                for i, basis in enumerate(bases):
                    frame = np.concatenate([basis, complement_basis(basis, q)[0]], axis=1)
                    inv = linalg.solve_mod(frame, eye, q) if d else eye
                    assert np.array_equal(frames[i], frame)
                    assert np.array_equal(inverses[i], inv)


def _scan_per_lambda(t, lam, bd) -> dict:
    """Oracle for ClassTable._scan_submodules: the sweep of one class lambda
    at a time, one subspace tuple at a time, counting the submodules of
    V_lambda of dimension bd by (class of the quotient, class of the
    submodule), with each tuple's blocks taken arrow by arrow from the 2-D
    representative and the frames indexed in the stacked Grassmannians."""
    import numpy as np
    from hallcrys.classtable import _label_keys
    q = t.q
    rep = t.representative(lam)
    arrows = t.quiver.arrows
    side_dims = (tuple(d - b for d, b in zip(rep.dims, bd)), tuple(bd))
    blocks = ({}, {})
    counts = {}
    grass = [t._grassmannian(rep.dims[v], bd[v]) for v in range(t.quiver.n)]
    for combo in product(*(range(len(frames)) for frames, _ in grass)):
        sub_maps, quot_maps = [], []
        for k, (src, tgt) in enumerate(arrows):
            frame, frame_inv = grass[src][0][combo[src]], grass[tgt][1][combo[tgt]]
            block = (frame_inv @ ((rep.maps[k] @ frame) % q)) % q
            if block[bd[tgt]:, :bd[src]].any():
                break
            sub_maps.append(np.array(block[:bd[tgt], :bd[src]]))
            quot_maps.append(np.array(block[bd[tgt]:, bd[src]:]))
        else:
            keys = tuple(_label_keys(d, 1, [m[None] for m in maps])[0]
                         for d, maps in zip(side_dims, (quot_maps, sub_maps)))
            counts[keys] = counts.get(keys, 0) + 1
            blocks[0].setdefault(keys[0], quot_maps)
            blocks[1].setdefault(keys[1], sub_maps)
    labels = [dict(zip(side, t.label_modules(
                  dims, len(side), [np.stack([maps[k] for maps in side.values()])
                                    for k in range(len(arrows))]))) if side else {}
              for dims, side in zip(side_dims, blocks)]
    tally = {}
    for (quot, sub), count in counts.items():
        pair = (labels[0][quot], labels[1][sub])
        tally[pair] = tally.get(pair, 0) + count
    return tally


def _hall_number_per_lambda(t, lam, alpha, beta) -> int:
    """Oracle for ClassTable.hall_number: one per-lambda scan per (lambda,
    dim beta), which writes every pair of classes of (dim alpha, dim beta)."""
    key = (lam, alpha, beta)
    if key not in t._hall_cache:
        ad, bd = t.class_dim(alpha), t.class_dim(beta)
        for a in t.classes_of_dim(ad):
            for b in t.classes_of_dim(bd):
                t._hall_cache[(lam, a, b)] = 0
        for (a, b), count in _scan_per_lambda(t, lam, bd).items():
            t._hall_cache[(lam, a, b)] = count
    return t._hall_cache.setdefault(key, 0)


def _dims_under(bound):
    return [d for d in product(*(range(b + 1) for b in bound)) if any(d)]


class TestGroupedScan:
    @pytest.mark.parametrize("name, q, bound", [
        ("kron", 2, (3, 3)), ("kron", 3, (3, 3)),
        ("a3", 2, (2, 2, 2)), ("a3", 3, (2, 2, 2)), ("a3", 5, (2, 2, 2))])
    def test_matches_per_lambda_oracle(self, request, name, q, bound):
        """The grouped scan of every (dim lambda, dim beta) under the bound
        gives each lambda the per-lambda oracle's counts."""
        quiver = request.getfixturevalue(name)
        grouped, single = ClassTable(quiver, q, bound), ClassTable(quiver, q, bound)
        for ld in _dims_under(bound):
            lams = grouped.classes_of_dim(ld)
            for bd in product(*(range(d + 1) for d in ld)):
                scans = grouped._scan_submodules(lams, bd)
                assert list(scans) == lams
                for lam in lams:
                    assert scans[lam] == _scan_per_lambda(single, lam, bd), (lam, bd)

    @pytest.mark.parametrize("name, q, bound", [("kron", 2, (3, 3)), ("a3", 3, (2, 2, 2))])
    def test_dump_matches_per_lambda_oracle(self, request, name, q, bound):
        """Once every Hall number under the bound is computed, the grouped
        table's dump equals the one filled scan by scan per lambda."""
        quiver = request.getfixturevalue(name)
        grouped, single = ClassTable(quiver, q, bound), ClassTable(quiver, q, bound)
        for ld in _dims_under(bound):
            for bd in product(*(range(d + 1) for d in ld)):
                ad = tuple(x - y for x, y in zip(ld, bd))
                for lam, alpha, beta in product(grouped.classes_of_dim(ld),
                                                grouped.classes_of_dim(ad),
                                                grouped.classes_of_dim(bd)):
                    assert (grouped.hall_number(lam, alpha, beta)
                            == _hall_number_per_lambda(single, lam, alpha, beta))
        assert grouped.dump_cache() == single.dump_cache()

    def test_one_scan_per_dimension_pair(self, kron, monkeypatch):
        t = ClassTable(kron, 3, (3, 3))
        scans = []
        scan = ClassTable._scan_submodules

        def spy(self, lams, bd):
            scans.append((len(lams), bd))
            return scan(self, lams, bd)

        monkeypatch.setattr(ClassTable, "_scan_submodules", spy)
        lams = t.classes_of_dim((2, 2))
        pairs = t.classes_of_dim((1, 1))
        total = sum(t.hall_number(lam, alpha, beta)
                    for lam in lams for alpha in pairs for beta in pairs)
        assert scans == [(len(lams), (1, 1))] and total > 0

    def test_scan_keeps_present_entries(self, kron):
        """A scan writes only absent keys: doctored entries loaded from a
        cache, for another lambda of the group and for the requested lambda,
        stay for the downstream checks to catch."""
        cache = ClassTable(kron, 2, (2, 2)).dump_cache()
        lam, other = IsoClass.of("S1", "S1", "S2", "S2"), IsoClass.of("R[0]m2")
        r0, r1, mixed = IsoClass.of("R[0]m1"), IsoClass.of("R[1]m1"), IsoClass.of("S1", "S2")
        cache["hall"] = {f"{other}|{r0}|{r0}": 5, f"{lam}|{r0}|{r1}": 9}
        t = ClassTable(kron, 2, (2, 2))
        assert t.load_cache(cache) == 0
        assert t.hall_number(lam, mixed, mixed) > 0
        assert t._hall_cache[(other, r0, r0)] == 5
        assert t._hall_cache[(lam, r0, r1)] == 9
        fresh = ClassTable(kron, 2, (2, 2))
        assert fresh.hall_number(other, r0, r0) != 5 and fresh.hall_number(lam, r0, r1) != 9


    @pytest.mark.parametrize("name, q, bound", [("a3", 3, (2, 2, 2)), ("kron", 2, (3, 3))])
    def test_chunk_of_one_matches_default(self, request, monkeypatch, name, q, bound):
        """With room for one block entry per chunk, so that every chunk of
        every scan holds one subspace tuple, each scan's tallies and the dump
        of the table filled with every Hall number under the bound equal the
        default ones."""
        from hallcrys import modules
        quiver = request.getfixturevalue(name)
        results = []
        for stack in (modules._HOM_STACK, 1):
            monkeypatch.setattr(modules, "_HOM_STACK", stack)
            t = ClassTable(quiver, q, bound)
            scans = {}
            for ld in _dims_under(bound):
                for bd in product(*(range(d + 1) for d in ld)):
                    ad = tuple(x - y for x, y in zip(ld, bd))
                    scans[ld, bd] = t._scan_submodules(t.classes_of_dim(ld), bd)
                    for lam, alpha, beta in product(t.classes_of_dim(ld), t.classes_of_dim(ad),
                                                    t.classes_of_dim(bd)):
                        t.hall_number(lam, alpha, beta)
            results.append((scans, t.dump_cache()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("name, q, ld", [("kron", 3, (2, 2)), ("a3", 2, (1, 2, 1))])
    def test_scan_sides_without_entries(self, request, name, q, ld):
        """bd = 0 and bd = dim lambda leave one side with no block entries at
        all: each lambda has exactly the submodules 0 and V_lambda."""
        t = ClassTable(request.getfixturevalue(name), q, (3,) * len(ld))
        lams = t.classes_of_dim(ld)
        zero = tuple(0 for _ in ld)
        assert t._scan_submodules(lams, zero) == {lam: {(lam, ZERO_CLASS): 1} for lam in lams}
        assert t._scan_submodules(lams, ld) == {lam: {(ZERO_CLASS, lam): 1} for lam in lams}


D4 = Quiver(["1", "2", "3", "4"], [["1", "4"], ["2", "4"], ["3", "4"]])


class TestLabelKeys:
    @pytest.mark.parametrize("name, dims", [
        ("a2", (1, 0)), ("kron", (0, 1)), ("kron", (2, 0)), ("d4", (1, 0, 0, 0)),
        ("kron", (0, 0)), ("d4", (0, 0, 0, 0)), ("kron", (2, 3)), ("a3", (2, 1, 2))])
    def test_key_stacks_recover_the_matrices(self, request, name, dims):
        """_label_keys gives each module its dimension vector and the bytes
        of its arrow matrices, in arrow order and each row-major, so the
        bytes read back into each arrow's stack, zero module and zero-size
        blocks included; equal modules give equal keys and different
        modules different keys."""
        import numpy as np
        from hallcrys.classtable import _label_keys
        quiver = D4 if name == "d4" else request.getfixturevalue(name)
        rng = np.random.default_rng(sum(dims))
        reps = [[rng.integers(0, 2, (dims[t], dims[s])) for s, t in quiver.arrows]
                for _ in range(12)]
        stacks = [np.stack([maps[k] for maps in reps]) for k in range(len(quiver.arrows))]
        keys = _label_keys(dims, len(reps), stacks)
        assert keys == [(dims, b"".join(m.tobytes() for m in maps)) for maps in reps]
        flat = np.frombuffer(b"".join(key for _, key in keys), dtype=np.int64)
        flat = flat.reshape(len(reps), -1)
        off = 0
        for k, (s, t) in enumerate(quiver.arrows):
            cells = dims[t] * dims[s]
            assert np.array_equal(flat[:, off:off + cells].reshape(len(reps), dims[t], dims[s]),
                                  stacks[k])
            off += cells
        for a, ka in zip(reps, keys):
            for b, kb in zip(reps, keys):
                assert (ka == kb) == all(np.array_equal(x, y) for x, y in zip(a, b))
        assert _label_keys(dims, 0, [m[:0] for m in stacks]) == []

    def test_zero_size_keys_keep_their_dimension_vector(self, a2, kron):
        """Modules whose arrow blocks have no entries share the empty bytes
        string, so their keys differ by the dimension vector alone, and the
        zero module's key is the one the label cache is seeded with."""
        import numpy as np
        from hallcrys.classtable import _label_keys
        from hallcrys.modules import Representation
        t = ClassTable(kron, 2, (2, 2))
        zero = Representation.zero(kron, 2)
        [key] = _label_keys(zero.dims, 1, [m[None] for m in zero.maps])
        assert key == ((0, 0), b"") and t._label_cache[key] == ZERO_CLASS
        keys = {key for d in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2))
                for key in _label_keys(d, 2, [np.zeros((2, d[1], d[0]), dtype=np.int64)] * 2)}
        assert len(keys) == 5 and {k[1] for k in keys} == {b""}
        assert t.label_modules((2, 0), 1, [np.zeros((1, 0, 2), dtype=np.int64)] * 2) \
            == [IsoClass.of("S1", "S1")]


class TestLabelChunks:
    def test_chunk_of_one_gives_same_labels(self, kron, monkeypatch):
        """Labelling 300 random modules with room for one system per stacked
        Hom count gives the default labels, and every stacked Hom system then
        has a leading batch axis of one."""
        import numpy as np
        from hallcrys import modules
        rng = np.random.default_rng(5)
        d = (3, 2)
        mods = [[rng.integers(0, 5, (d[t], d[s])) for s, t in kron.arrows]
                for _ in range(300)]
        batch = [np.stack([maps[k] for maps in mods]) for k in range(len(kron.arrows))]
        default = ClassTable(kron, 5, (3, 3)).label_modules(d, 300, batch)
        t = ClassTable(kron, 5, (3, 3))
        leading = []
        stack = modules.hom_system_stack

        def spy(quiver, q, m_dims, m_maps, n_dims, n_maps):
            D = stack(quiver, q, m_dims, m_maps, n_dims, n_maps)
            leading.append(D.shape[0])
            return D

        monkeypatch.setattr(modules, "hom_system_stack", spy)
        monkeypatch.setattr(modules, "_HOM_STACK", 1)
        assert t.label_modules(d, 300, batch) == default
        assert set(leading) == {1} and len(leading) > 300 and len(set(default)) > 10
