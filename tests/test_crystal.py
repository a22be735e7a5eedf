from fractions import Fraction
from itertools import product

import pytest

from hallcrys.classtable import IsoClass
from hallcrys.crystal import (Crystal, CrystalFalsification, certify_exceptional,
                              etilde, exceptional_norm, fdoubleprime_tree,
                              fprime, fprime_tree, ftilde, kashiwara_apply,
                              membership_L, norm_exponent, reduced_pair,
                              reduction_at_infinity, string_decompose)
from hallcrys.generic import (ExprTree, generic_multiply, generic_ringel_pair,
                              kashiwara_pair_elements)
from hallcrys.hallalg import (chevalley, divided_power_simple, identity_element,
                              rescale)
from hallcrys.quivers import Quiver, euler_bilinear
from hallcrys.scalars import (RatFunc, a_membership, in_one_plus_vinv_A,
                              parse_laurent)

P = IsoClass.of("r1.1")


class TestFPrime:
    def test_examples(self, reg, a2):
        ctx = reg.ctx(a2)
        S1 = ctx.table(2).simple_class(0)
        val = fprime(ctx, 0, rescale(ctx, P))
        assert val == rescale(ctx, ctx.table(2).simple_class(1)).scale(
            RatFunc(parse_laurent("1 - v^-2")))
        assert fprime(ctx, 0, identity_element(ctx)).is_zero()
        assert fprime(ctx, 0, chevalley(ctx, 0)) == identity_element(ctx)
        assert fprime(ctx, 0, chevalley(ctx, 1)).is_zero()

    def test_two_routes_agree(self, reg, a2, a3):
        for quiver in (a2, a3):
            ctx = reg.ctx(quiver)
            trees = [ExprTree.letter(quiver, 0) * ExprTree.letter(quiver, 1),
                     ExprTree.letter(quiver, 1) * ExprTree.letter(quiver, 0),
                     ExprTree.letter(quiver, 0, 2) * ExprTree.letter(quiver, 1)]
            from hallcrys.generic import expr_evaluate
            for tree in trees:
                for i in range(quiver.n):
                    direct = fprime(ctx, i, expr_evaluate(tree, ctx))
                    recursive = fprime_tree(ctx, i, tree)
                    assert direct == recursive, (i, str(tree))

    def test_fdoubleprime_defining_identities(self, reg, a2):
        ctx = reg.ctx(a2)
        assert fdoubleprime_tree(ctx, 0, ExprTree.letter(a2, 0)) == identity_element(ctx)
        assert fdoubleprime_tree(ctx, 0, ExprTree.letter(a2, 1)).is_zero()
        # f''_i(E_j P) = v_i^{-a_ij} E_j f''_i(P) + delta_ij P on E1E2 vs E1 tail
        tree = ExprTree.letter(a2, 0) * ExprTree.letter(a2, 1)
        val = fdoubleprime_tree(ctx, 0, tree)
        # head is E1: v^{-a_11} E1 f''(E2) + E2-evaluated tail = 1 * 0 + E2
        assert val == chevalley(ctx, 1)


class TestStrings:
    def test_kernel_element_single_component(self, reg, a2):
        ctx = reg.ctx(a2)
        E2 = chevalley(ctx, 1)
        dec = string_decompose(ctx, 0, E2)
        assert len(dec.components) == 1
        n, el = dec.components[0]
        assert n == 0 and el == E2

    def test_ei_component(self, reg, a2):
        ctx = reg.ctx(a2)
        dec = string_decompose(ctx, 0, chevalley(ctx, 0))
        assert [(n, str(el)) for n, el in dec.components] == [(1, "(1)*u[0]")]

    def test_e2e1_decomposition_frozen(self, reg, a2):
        # frozen regression value computed by the exact linear-algebra oracle
        ctx = reg.ctx(a2)
        x = generic_multiply(chevalley(ctx, 1), chevalley(ctx, 0))
        dec = string_decompose(ctx, 0, x)
        comps = {n: el for n, el in dec.components}
        assert set(comps) == {0, 1}
        s12 = IsoClass.of("S1", "S2")
        assert comps[0].coeffs[s12] == RatFunc(parse_laurent("v - v^-1"))
        assert comps[0].coeffs[P] == RatFunc(parse_laurent("-v^-1"))
        assert comps[1] == chevalley(ctx, 1).scale(
            RatFunc(parse_laurent("v^-1")))
        assert dec.reassemble(ctx) == x

    def test_reassembly_property(self, reg, a3, a3_crystal_w5):
        # the oracle for string_decompose, which checks neither property itself:
        # the components reassemble x exactly and each lies in ker f'_i
        ctx = reg.ctx(a3)
        E = [chevalley(ctx, v) for v in range(3)]
        samples = [generic_multiply(E[0], E[1]),
                   generic_multiply(E[1], generic_multiply(E[0], E[2]))]
        assert a3_crystal_w5.ctx is ctx
        samples += [v.rep for v in a3_crystal_w5.all_vertices()]
        for x in samples:
            for i in range(3):
                dec = string_decompose(ctx, i, x)
                assert dec.reassemble(ctx) == x
                for _, xn in dec.components:
                    assert fprime(ctx, i, xn).is_zero()


class TestKashiwaraOperators:
    def test_etilde_of_one(self, reg, a2):
        ctx = reg.ctx(a2)
        assert etilde(ctx, 0, identity_element(ctx)) == chevalley(ctx, 0)

    def test_ftilde_divided_powers(self, reg, a2):
        ctx = reg.ctx(a2)
        assert ftilde(ctx, 0, divided_power_simple(ctx, 0, 2)) \
            == chevalley(ctx, 0)
        assert ftilde(ctx, 0, identity_element(ctx)).is_zero()

    def test_e2e1_via_word(self, reg, a2):
        ctx = reg.ctx(a2)
        z = etilde(ctx, 1, etilde(ctx, 0, identity_element(ctx)))
        assert z == generic_multiply(chevalley(ctx, 1),
                                     chevalley(ctx, 0))

    def test_etilde_ftilde_inverse_on_image(self, reg, a2):
        ctx = reg.ctx(a2)
        xs = [identity_element(ctx), chevalley(ctx, 1),
              generic_multiply(chevalley(ctx, 1), chevalley(ctx, 0))]
        for x in xs:
            for i in range(2):
                up = etilde(ctx, i, x)
                assert ftilde(ctx, i, up) == x
                assert etilde(ctx, i, ftilde(ctx, i, up)) == up

    def test_unknown_kind(self, reg, a2):
        ctx = reg.ctx(a2)
        with pytest.raises(ValueError):
            kashiwara_apply("Gtilde", ctx, 0, identity_element(ctx))


class TestMembership:
    def test_examples(self, reg, a2):
        ctx = reg.ctx(a2)
        assert membership_L(rescale(ctx, P))
        assert membership_L(identity_element(ctx))
        assert not membership_L(chevalley(ctx, 0).scale(RatFunc.v_power(1)))


class TestCrystalGeneration:
    def test_a2_weights(self, reg, a2):
        ctx = reg.ctx(a2)
        cry = Crystal(ctx, 4)
        assert cry.falsifications == []
        assert len(cry.vertices_of_weight((1, 0))) == 1
        assert len(cry.vertices_of_weight((1, 1))) == 2
        assert len(cry.vertices_of_weight((2, 2))) == 3
        assert len(cry.vertices_of_weight((0, 0))) == 1

    def test_weight_bound_zero(self, reg, a2):
        ctx = reg.ctx(a2)
        cry = Crystal(ctx, 0)
        assert cry.all_vertices()[0].word == ()
        assert len(cry.all_vertices()) == 1

    def test_l_stability_and_axioms(self, reg, a2):
        ctx = reg.ctx(a2)
        cry = Crystal(ctx, 3)
        for v in cry.all_vertices():
            assert membership_L(v.rep)
            for i in range(2):
                up = etilde(ctx, i, v.rep)
                assert membership_L(up)
                assert ftilde(ctx, i, up) == v.rep

    def test_gram_orthonormality(self, reg, a2):
        ctx = reg.ctx(a2)
        cry = Crystal(ctx, 4)
        for w, bucket in cry.by_weight.items():
            for i, b1 in enumerate(bucket):
                for j, b2 in enumerate(bucket):
                    m = a_membership(generic_ringel_pair(b1.rep, b2.rep))
                    assert m.in_A
                    assert m.unit_part == (1 if i == j else 0)


@pytest.fixture(scope="module")
def a3_crystal_w5(reg, a3):
    return Crystal(reg.ctx(a3), 5)


def test_box_crystal_matches_full_triangle(reg, a3, a3_crystal_w5):
    """Inside the box (2,2,2) the box crystal has the full triangle's
    buckets: the same words in the same order, with equal elements, and
    nothing outside the box."""
    box = Crystal(reg.ctx(a3), 5, (2, 2, 2))
    assert box.falsifications == a3_crystal_w5.falsifications == []
    assert all(max(w) <= 2 for w in box.by_weight)
    inside = [w for w in product(range(3), repeat=3) if sum(w) <= 5]
    assert sorted(box.by_weight) == sorted(w for w in inside
                                           if a3_crystal_w5.vertices_of_weight(w))
    for w in inside:
        full, boxed = a3_crystal_w5.vertices_of_weight(w), box.vertices_of_weight(w)
        assert [b.word for b in boxed] == [b.word for b in full], w
        assert [b.rep for b in boxed] == [b.rep for b in full], w


D4_BOX = (2, 2, 2, 2)


@pytest.fixture(scope="module")
def d4_box_crystal(reg):
    """B(infinity) on D4 (three arrows into one vertex), grown inside the box
    (2,2,2,2) to the box's total weight, as ``certify --dim-bound 2`` grows it."""
    d4 = Quiver(["1", "2", "3", "4"], [["1", "4"], ["2", "4"], ["3", "4"]])
    return Crystal(reg.ctx(d4, D4_BOX), sum(D4_BOX), D4_BOX)


def kostant(roots, weight) -> int:
    """Kostant's partition function: multisets of ``roots`` summing to ``weight``."""
    if not any(weight):
        return 1
    if not roots:
        return 0
    total = 0
    while all(w >= 0 for w in weight):
        total += kostant(roots[1:], weight)
        weight = tuple(w - r for w, r in zip(weight, roots[0]))
    return total


def test_d4_box_crystal_has_kostant_counts(d4_box_crystal):
    """Every weight of the box has as many crystal vertices as U+ has
    dimension there (Kostant's count over the 12 positive roots), 448 in all."""
    quiver = d4_box_crystal.ctx.quiver
    weights = list(product(*(range(b + 1) for b in D4_BOX)))
    roots = [x for x in weights if any(x) and euler_bilinear(quiver, x, x) == 1]
    assert len(roots) == 12
    assert d4_box_crystal.falsifications == []
    counts = {w: len(d4_box_crystal.vertices_of_weight(w)) for w in weights}
    assert counts == {w: kostant(roots, w) for w in weights}
    assert sum(counts.values()) == len(d4_box_crystal.all_vertices()) == 448


def test_a3_crystal_at_weight_six_has_kostant_counts(reg, a3):
    """The full-triangle A3 crystal to weight 6 over the bound (4,4,4) has
    Kostant's count at every weight, 217 vertices in all; the largest of its
    Hall scans sweep the Grassmannian product in several chunks."""
    crystal = Crystal(reg.ctx(a3, (4, 4, 4)), 6)
    weights = [w for w in product(range(7), repeat=3) if sum(w) <= 6]
    roots = [x for x in weights if any(x) and euler_bilinear(a3, x, x) == 1]
    assert len(roots) == 6
    assert crystal.falsifications == []
    counts = {w: len(crystal.vertices_of_weight(w)) for w in weights}
    assert counts == {w: kostant(roots, w) for w in weights}
    assert sum(counts.values()) == len(crystal.all_vertices()) == 217


def test_riedtmann_fits_hold_at_unscanned_primes(reg, a3, a3_crystal_w5):
    # the Hall polynomials accepted on the Riedtmann numerator F, checked
    # against direct scans at two primes that took no part in their fit
    ctx = reg.ctx(a3)
    fitted = [(key, hp) for key, hp in ctx._hall_polys.items() if hp.fit == "F"]
    assert fitted
    for p in (7, 11):
        for key, hp in fitted:
            assert p not in hp.primes_used and p != hp.validation_prime
            assert hp.eval_int(p) == ctx.table(p).hall_number(*key), (hp.triple, p)


class TestReductionAtInfinity:
    """Deduplication by reductions at v = infinity, against the Ringel pairing."""

    def test_reduced_unit_matches_ringel_pairing(self, reg, a2, a3, a3_crystal_w5):
        for cry in (Crystal(reg.ctx(a2), 4), a3_crystal_w5):
            vertices = [v for v in cry.all_vertices() if sum(v.weight) <= 4]
            for b1 in vertices:
                assert b1.reduction == reduction_at_infinity(b1.rep)
                for b2 in vertices:
                    oracle = a_membership(generic_ringel_pair(b1.rep, b2.rep))
                    assert oracle.in_A
                    assert reduced_pair(b1.reduction, b2.reduction) \
                        == oracle.unit_part, (b1.word, b2.word)

    def test_norm_exponent_on_a3_box(self, reg, a3):
        ctx = reg.ctx(a3, (2, 2, 2))
        t0 = ctx.table(ctx.primes[0])
        count = 0
        for dim in product(range(3), repeat=3):
            for cls in t0.classes_of_dim(dim):
                e = norm_exponent(ctx, cls)
                x = rescale(ctx, cls)
                norm = generic_ringel_pair(x, x)
                assert in_one_plus_vinv_A(norm * RatFunc.v_power(2 * e)), cls.label
                count += 1
        assert count > 27

    def test_norm_exponent_of_s1_plus_s2(self, reg, a2):
        ctx = reg.ctx(a2)
        cls = IsoClass.of("S1", "S2")
        x = rescale(ctx, cls)
        assert generic_ringel_pair(x, x) == RatFunc(parse_laurent("v^2"),
                                                    parse_laurent("v^4 - 2v^2 + 1"))
        assert norm_exponent(ctx, cls) == 1

    def test_reductions_divide_exactly(self, reg, a2):
        """Reductions are ints or Fractions, never floats such as 1.0 or 0.5
        from dividing two ints."""
        v = Crystal(reg.ctx(a2), 2).vertices_of_weight((1, 1))[0]
        for scale, unit in [(1, 1), (3, 3), (Fraction(1, 2), Fraction(1, 2))]:
            red = reduction_at_infinity(v.rep.scale(RatFunc(scale)))
            assert list(red.values()) == [unit]
            assert all(type(u) is type(unit) for u in red.values()), red
        assert type(reduced_pair(v.reduction, v.reduction)) is int

    def test_scaled_vertex_leaves_the_lattice(self, reg, a2):
        ctx = reg.ctx(a2)
        cry = Crystal(ctx, 2)
        v = cry.vertices_of_weight((1, 1))[0]
        scaled = v.rep.scale(RatFunc.v_power(1))
        assert reduction_at_infinity(scaled) is None
        assert not membership_L(scaled)
        with pytest.raises(CrystalFalsification, match="left the lattice"):
            cry._accept(scaled, (0,) + v.word, v.weight)
        assert len(cry.vertices_of_weight((1, 1))) == 2

    def test_lusztig_ade_bijection(self, reg, a3, a3_crystal_w5):
        # <u_lambda> mod v^-1 L is B(infinity): each vertex reduces to one class
        t0 = reg.ctx(a3).table(2)
        non_unit = 0
        for weight, bucket in a3_crystal_w5.by_weight.items():
            if not any(weight):
                continue
            classes = []
            for v in bucket:
                assert list(v.reduction.values()) == [1], v.word
                classes.extend(v.reduction)
            assert sorted(classes) == sorted(t0.classes_of_dim(weight)), weight
            non_unit += len(bucket)
        assert non_unit == 119


class TestCertificates:
    def test_norm_closed_forms(self, reg, a2):
        ctx = reg.ctx(a2)
        one_minus = RatFunc.one() - RatFunc.v_power(-2)
        assert exceptional_norm(ctx, P) == RatFunc.one() / one_minus
        two = IsoClass.of("S1", "S1")
        expect = (RatFunc.one() / (RatFunc.one() - RatFunc.v_power(-4))) \
            * (RatFunc.one() / one_minus)
        assert exceptional_norm(ctx, two) == expect

    def test_norm_rejects_non_exceptional(self, reg, a2):
        ctx = reg.ctx(a2)
        with pytest.raises(ValueError):
            exceptional_norm(ctx, IsoClass.of("S1", "S2"))

    def test_certify_P(self, reg, a2):
        ctx = reg.ctx(a2)
        cry = Crystal(ctx, 2)
        cert = certify_exceptional(ctx, P, cry)
        assert cert.passed and cert.sign == 1
        assert cert.matched_word in ("1.2", "2.1")
        others = [u for w, u in cert.pairing_units.items() if w != cert.matched_word]
        assert all(u == 0 for u in others)

    def test_certify_simple(self, reg, a2):
        ctx = reg.ctx(a2)
        cry = Crystal(ctx, 1)
        cert = certify_exceptional(ctx, IsoClass.of("S1"), cry)
        assert cert.passed and cert.matched_word == "1"

    def test_certify_norm_only_on_kronecker(self, reg, kron):
        ctx = reg.ctx(kron, (3, 3))
        cert = certify_exceptional(ctx, IsoClass.of("r2.1"), None)
        assert cert.norm_in_one_plus_vinv_A
        assert cert.matched_word is None
        assert cert.passed

    def test_kr_pairing_agreement_on_vertices(self, reg, a2):
        # (b1, b2)_{K,0} = (b1, b2)_{R,0} on same-weight vertex pairs
        ctx = reg.ctx(a2)
        cry = Crystal(ctx, 3)
        for w, bucket in cry.by_weight.items():
            for b1 in bucket:
                for b2 in bucket:
                    mk = a_membership(kashiwara_pair_elements(b1.rep, b2.rep))
                    mr = a_membership(generic_ringel_pair(b1.rep, b2.rep))
                    assert mk.in_A and mr.in_A
                    assert mk.unit_part == mr.unit_part


class TestFalsificationReporting:
    def test_sign_minus_one_is_reported_not_normalized(self, reg, a2):
        # doctor a crystal vertex by -1: the certificate must flag the sign
        # rather than silently matching up to sign
        from dataclasses import replace
        ctx = reg.ctx(a2)
        cry = Crystal(ctx, 2)
        t0 = ctx.table(2)
        weight = t0.class_dim(P)
        bucket = cry.by_weight[weight]
        doctored = [replace(v, rep=v.rep.scale(RatFunc(-1))) for v in bucket]
        cry.by_weight[weight] = doctored
        try:
            cert = certify_exceptional(ctx, P, cry)
        finally:
            cry.by_weight[weight] = bucket
        assert not cert.passed
        assert cert.sign is None
        assert any("sign -1" in f for f in cert.falsifications)


def test_certify_rejects_non_exceptional(reg, a2):
    ctx = reg.ctx(a2)
    with pytest.raises(ValueError):
        certify_exceptional(ctx, IsoClass.of("S1", "S2"), None)
