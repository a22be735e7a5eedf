from collections import Counter

import pytest

from hallcrys.classtable import IsoClass
from hallcrys.exseq import (BraidError, CertificateEngine, CertificateError,
                            Rank2Context, braid_case_used, braid_move_hall,
                            braid_move_module, braid_orbit,
                            complete_exceptional_sequences,
                            is_exceptional_sequence, m_value)
from hallcrys.generic import PRIME_POOL, expr_evaluate_fixed
from hallcrys.hallalg import derivation, rescale
from hallcrys.modules import BudgetExceeded

P = IsoClass.of("r1.1")
S1 = IsoClass.of("S1")
S2 = IsoClass.of("S2")


class TestBraidModuleLevel:
    def test_a2_moves(self, reg, a2):
        t = reg.table(a2, 3)
        assert braid_move_module(t, (S1, S2), 0, +1) == (S2, P)
        assert braid_move_module(t, (S2, P), 0, +1) == (P, S1)
        assert braid_move_module(t, (S2, P), 0, -1) == (S1, S2)

    def test_inverse_moves(self, reg, a2, a3):
        for quiver in (a2, a3):
            t = reg.table(quiver, 2, (3,) * quiver.n)
            for seq in complete_exceptional_sequences(t):
                for i in range(quiver.n - 1):
                    assert braid_move_module(
                        t, braid_move_module(t, seq, i, +1), i, -1) == seq
                    assert braid_move_module(
                        t, braid_move_module(t, seq, i, -1), i, +1) == seq

    def test_locality(self, reg, a3):
        t = reg.table(a3, 2, (3, 3, 3))
        seq = (IsoClass.of("S1"), IsoClass.of("S2"), IsoClass.of("S3"))
        new = braid_move_module(t, seq, 1, +1)
        assert new[0] == seq[0]

    def test_rejects_bad_sequence(self, reg, a2):
        t = reg.table(a2, 2)
        with pytest.raises(BraidError):
            braid_move_module(t, (S2, S1), 0, +1)


class TestBraidHallLevel:
    @pytest.mark.parametrize("q", [2, 3])
    def test_all_pairs_match_module_level_a2(self, reg, a2, q):
        t = reg.table(a2, q)
        cases = set()
        for seq in complete_exceptional_sequences(t):
            a, b = seq
            for d in (1, -1):
                moved = braid_move_module(t, seq, 0, d)
                new_obj = moved[1] if d > 0 else moved[0]
                assert braid_move_hall(t, a, b, d) == rescale(t, new_obj), \
                    (a.label, b.label, d)
                cases.add(braid_case_used(t, a, b, d))
        # the left cases are the right ones in the opposite algebra; both
        # readings of every formula are exercised
        assert cases == {"1", "2", "3", "1'", "2'", "3'"}

    def test_all_pairs_match_module_level_kronecker(self, reg, kron):
        t = reg.table(kron, 2, (3, 3))
        indecs = [IsoClass((it.label,)) for it in t.catalog if not it.field_dependent]
        indecs = [c for c in indecs if t.is_exceptional(c)]
        cases, compared, skipped = set(), 0, 0
        for a in indecs:
            for b in indecs:
                if not t.exceptional_pair_check(a, b):
                    continue
                for d in (1, -1):
                    try:
                        moved = braid_move_module(t, (a, b), 0, d)
                        hall_side = braid_move_hall(t, a, b, d)
                    except (BraidError, BudgetExceeded):
                        skipped += 1     # the move leaves the table bound
                        continue
                    new_obj = moved[1] if d > 0 else moved[0]
                    assert hall_side == rescale(t, new_obj), (a.label, b.label, d)
                    cases.add(braid_case_used(t, a, b, d))
                    compared += 1
        assert (compared, skipped) == (8, 2)
        assert cases == {"1", "2", "3", "1'", "2'", "3'"}

    @pytest.mark.parametrize("q", [2, 3])
    def test_all_adjacent_pairs_match_a3(self, reg, a3, q):
        t = reg.table(a3, q, (3, 3, 3))
        cases = set()
        for seq in complete_exceptional_sequences(t):
            for i in range(2):
                a, b = seq[i], seq[i + 1]
                for d in (1, -1):
                    moved = braid_move_module(t, seq, i, d)
                    new_obj = moved[i + 1] if d > 0 else moved[i]
                    assert braid_move_hall(t, a, b, d) == rescale(t, new_obj)
                    cases.add(braid_case_used(t, a, b, d))
        assert "3" in cases and ("1" in cases or "2" in cases)

    def test_case_coverage_a2(self, reg, a2):
        t = reg.table(a2, 2)
        cases = set()
        for seq in complete_exceptional_sequences(t):
            for d in (1, -1):
                cases.add(braid_case_used(t, seq[0], seq[1], d))
        assert "3" in cases
        assert "1" in cases or "2" in cases

    def test_orthogonal_pair_degenerate_case(self, reg, a3):
        # (S1, S3) on A3 has m = 0: case (3) with the single r = 0 term
        t = reg.table(a3, 2, (3, 3, 3))
        s1, s3 = IsoClass.of("S1"), IsoClass.of("S3")
        assert m_value(t, s1, s3) == 0
        assert braid_move_hall(t, s1, s3, +1) == rescale(t, s1)


class TestBraidGroupLaws:
    @pytest.mark.parametrize("q", [2, 3])
    def test_braid_relation(self, reg, a3, q):
        t = reg.table(a3, q, (3, 3, 3))

        def mv(seq, i, d=1):
            return braid_move_module(t, seq, i, d)

        for seq in complete_exceptional_sequences(t):
            assert mv(mv(mv(seq, 0), 1), 0) == mv(mv(mv(seq, 1), 0), 1)

    @pytest.mark.parametrize("quiver_name", ["a2", "a3"])
    def test_transitivity(self, reg, a2, a3, quiver_name):
        quiver = a2 if quiver_name == "a2" else a3
        t = reg.table(quiver, 2, (3,) * quiver.n)
        sequences = complete_exceptional_sequences(t)
        simples = tuple(t.simple_class(v) for v in range(quiver.n))
        assert is_exceptional_sequence(t, simples)
        orbit, edges = braid_orbit(t, simples)
        assert sorted(orbit) == sorted(sequences)
        assert len(sequences) == (3 if quiver.n == 2 else 16)


class TestRank2Contexts:
    def test_already_minimal(self, reg, a2):
        t = reg.table(a2, 2)
        ctx = Rank2Context(t, (S1, S2))
        assert ctx.simples == (S1, S2)

    def test_reduction(self, reg, a2):
        t = reg.table(a2, 2)
        ctx = Rank2Context(t, (S2, P))
        assert set(ctx.simples) == {S1, S2}
        assert ctx.relative_dim(P) == (1, 1)
        assert ctx.relative_dim(S1) == (1, 0)

    def test_a3_context(self, reg, a3):
        t = reg.table(a3, 2, (3, 3, 3))
        pair = (IsoClass.of("S1"), IsoClass.of("r0.1.1"))
        ctx = Rank2Context(t, pair)
        assert ctx.simples == pair           # already orthogonal minimal
        assert ctx.relative_dim(IsoClass.of("r1.1.1")) == (1, 1)

    def test_relative_dim_none(self, reg, a3):
        t = reg.table(a3, 2, (3, 3, 3))
        pair = (IsoClass.of("S2"), IsoClass.of("r1.1.1"))
        ctx = Rank2Context(t, pair)
        assert ctx.simples == pair
        assert ctx.relative_dim(IsoClass.of("S2", "r1.1.1")) == (1, 1)
        # dim S1 + S3 = (1,0,1) = -dim S2 + dim r1.1.1
        assert ctx.relative_dim(IsoClass.of("S1", "S3")) is None
        # dim S1 = (1,0,0) is outside the span of (0,1,0) and (1,1,1)
        assert ctx.relative_dim(IsoClass.of("S1")) is None

    def test_restricted_delta_consistency(self, reg, a2):
        # restriction check: delta of a context object, computed in the
        # ambient algebra, is supported on context objects and its v-powers
        # match the relative Euler data
        t = reg.table(a2, 3)
        ctx = Rank2Context(t, (S2, P))
        from hallcrys.quivers import euler_bilinear
        for gamma in (S1, S2, P):
            x = derivation("delta_right", gamma, rescale(t, P))
            for cls in x.coeffs:
                assert ctx.relative_dim(cls) is not None
            # relative Euler form reproduces the ambient one on context dims
            for a in (S1, S2, P):
                ra, rg = ctx.relative_dim(a), ctx.relative_dim(gamma)
                amb = euler_bilinear(t.quiver, t.class_dim(gamma), t.class_dim(a))
                rel = sum(rg[i] * ra[j] * euler_bilinear(
                    t.quiver, ctx.dims[i], ctx.dims[j])
                    for i in range(2) for j in range(2))
                assert amb == rel


class TestCertificates:
    def test_simple_tree(self, reg, a2):
        eng = reg.engine(a2)
        tree = eng.integral_certificate(S1)
        assert tree.terms == {((0, 1),): __import__(
            "hallcrys.scalars", fromlist=["LaurentPoly"]).LaurentPoly.one()}

    def test_p_tree_frozen(self, reg, a2):
        from hallcrys.scalars import LaurentPoly
        eng = reg.engine(a2)
        tree = eng.dp_tree(P, 1)
        assert tree.terms == {((0, 1), (1, 1)): LaurentPoly.one(),
                              ((1, 1), (0, 1)): LaurentPoly({-1: -1})}

    def test_a2_all_exceptional(self, reg, a2):
        eng = reg.engine(a2)
        t = eng.table(2)
        for label in ["S1", "S2", "S1+S1", "S2+S2", "r1.1", "r1.1+r1.1",
                      "S1+r1.1", "S2+r1.1"]:
            cls = IsoClass(tuple(sorted(label.split("+"))))
            tree = eng.integral_certificate(cls)
            assert tree.is_laurent_integral()
            assert eng.verify_tree(tree, cls)

    def test_rejects_non_exceptional(self, reg, a2):
        eng = reg.engine(a2)
        with pytest.raises(CertificateError):
            eng.integral_certificate(IsoClass.of("S1", "S2"))

    def test_a3_interval_trees(self, reg, a3):
        eng = reg.engine(a3, (2, 2, 2))
        w111 = IsoClass.of("r1.1.1")
        tree = eng.dp_tree(w111, 1)
        assert len(tree.terms) == 4 and tree.is_laurent_integral()
        assert eng.verify_tree(tree, w111)
        dp = eng.dp_tree(w111, 2)
        assert eng.verify_tree(dp, IsoClass.of("r1.1.1", "r1.1.1"))

    def test_kronecker_depth_one(self, reg, kron):
        eng = reg.engine(kron, (3, 3))
        for label in ["r2.1", "r1.2"]:
            tree = eng.dp_tree(IsoClass.of(label), 1)
            assert len(tree.terms) == 3
            assert eng.verify_tree(tree, IsoClass.of(label))

    def test_kronecker_deep_trees(self, reg, kron):
        eng = reg.engine(kron, (3, 3))
        for label in ["r3.2", "r2.3"]:
            cls = IsoClass.of(label)
            tree = eng.dp_tree(cls, 1)
            assert tree.is_laurent_integral()
            assert eng.verify_tree(tree, cls, primes=(2, 3, 5, 7))

    def test_ladder_without_holdout_prime(self, kron):
        # every pool prime configured: the ladder refuses before any replay
        eng = CertificateEngine(kron, (3, 3), primes=PRIME_POOL)
        with pytest.raises(CertificateError, match="no PRIME_POOL prime is left"):
            eng.dp_tree(IsoClass.of("r2.3"), 1)
        assert list(eng._tables) == [2]

    def test_each_tree_replayed_once_per_prime(self, reg, a2, kron, monkeypatch):
        from itertools import product

        from hallcrys import exseq
        calls = Counter()
        replay = exseq.expr_evaluate_fixed

        def counted(tree, table):
            calls[str(tree), table.q] += 1
            return replay(tree, table)

        monkeypatch.setattr(exseq, "expr_evaluate_fixed", counted)
        t = reg.table(a2, 2)
        a2_classes = [cls for dim in product(range(4), repeat=2)
                      for cls in t.classes_of_dim(dim) if t.is_exceptional(cls)]
        for quiver, classes in ((a2, a2_classes),
                                (kron, [IsoClass.of("r2.3"), IsoClass.of("r3.2")])):
            # a new engine over shared tables builds every tree here
            eng = CertificateEngine(quiver, (3, 3), (2, 3, 5),
                                    tables=reg.engine(quiver, (3, 3))._tables)
            calls.clear()
            certs = [eng.integral_certificate(cls) for cls in classes]
            built = list(eng._dp_tree.values()) + [
                tree for cls, tree in zip(classes, certs)
                if len(cls.multiplicities()) > 1]
            assert len(built) > len(classes) // 2
            for tree in built:
                for p in eng.primes:
                    assert calls[str(tree), p] == 1, (str(tree), p)
            assert set(calls.values()) == {1}

    def test_composite_certificate_exponent(self, reg, a2):
        # <u_{S2 + P}> = v^{<P,S2> - 2 hom(P,S2)} <u_{S2}><u_P> style composition
        eng = reg.engine(a2)
        cls = IsoClass.of("S2", "r1.1")
        tree = eng.integral_certificate(cls)
        for p in (2, 3, 5):
            t = eng.table(p)
            assert expr_evaluate_fixed(tree, t) == rescale(t, cls)


def test_braid_orbit_report(reg, a2):
    import json
    from hallcrys.exseq import braid_orbit_report
    t = reg.table(a2, 2)
    report = braid_orbit_report(t, (S1, S2))
    blob = json.dumps(report, sort_keys=True)
    back = json.loads(blob)
    assert back["schema"] == 1 and back["q"] == 2
    assert len(back["nodes"]) == 3
    assert all(len(edge) == 3 for edge in back["edges"])
    sigma_labels = {edge[1] for edge in back["edges"]}
    assert sigma_labels == {"sigma_1^+1", "sigma_1^-1"}


def test_braid_position_bounds(reg, a2):
    t = reg.table(a2, 2)
    with pytest.raises(ValueError):
        braid_move_module(t, (S1, S2), 5, +1)
