import random
from fractions import Fraction
from itertools import product

import pytest

from hallcrys import linalg
from hallcrys.checks import CheckFailed
from hallcrys.classtable import ClassTable, IsoClass, TableSet
from hallcrys.exseq import CertificateEngine
from hallcrys.generic import (PRIME_POOL, ExprTree, GenericContext, _evaluate,
                              _lagrange_fit, expr_evaluate,
                              expr_evaluate_fixed, generic_multiply,
                              generic_ringel_pair, generic_rprime, kashiwara_pair,
                              lusztig_symmetry_tree, lusztig_symmetry_generator,
                              monomial_expansion, monomial_words)
from hallcrys.hallalg import (chevalley, derivation, divided_power_simple,
                              identity_element, multiply, rescale, transport_Ti)
from hallcrys.quivers import quiver_a1
from hallcrys.scalars import LaurentPoly, RatFunc, parse_laurent

P = IsoClass.of("r1.1")


class TestHallPolynomials:
    def test_constant_polynomial(self, reg, a2):
        ctx = reg.ctx(a2)
        hp = ctx.hall_polynomial(P, IsoClass.of("S1"), IsoClass.of("S2"))
        assert hp.coeffs == (Fraction(1),)
        assert hp.validation_prime not in hp.primes_used

    def test_a1_line_count(self):
        ctx = GenericContext(quiver_a1(), (3,), primes=(2, 3, 5))
        hp = ctx.hall_polynomial(IsoClass.of("S1", "S1"), IsoClass.of("S1"),
                                 IsoClass.of("S1"))
        assert hp.coeffs == (Fraction(1), Fraction(1))     # q + 1

    def test_trivial_full_submodule(self, reg, a2):
        ctx = reg.ctx(a2)
        hp = ctx.hall_polynomial(P, P, IsoClass(()))
        assert hp.coeffs == (Fraction(1),)

    def test_values_integral_at_primes(self, reg, a3):
        ctx = reg.ctx(a3)
        lam = IsoClass.of("r1.1.0", "S3")
        hp = ctx.hall_polynomial(lam, IsoClass.of("r1.1.0"), IsoClass.of("S3"))
        for p in (2, 3, 5, 7):
            assert isinstance(hp.eval_int(p), int)

    def test_generic_requires_dynkin(self, kron):
        ctx = GenericContext(kron, (2, 2), primes=(2, 3))
        with pytest.raises(ValueError):
            ctx.hall_polynomial(IsoClass.of("r2.1"), IsoClass.of("S1"),
                                IsoClass.of("S1", "S2"))

    def test_gaussian_binomials_fit_riedtmann_numerator(self):
        # on A1 the Riedtmann numerator of g^{nS1}_{aS1,bS1} is |Ext^1| = 1,
        # so the binomials [n; a]_q validate at q = 5 after two scans; g is
        # tried first, and wins where both fits are confirmed
        ctx = GenericContext(quiver_a1(), (4,), primes=(2, 3, 5))

        def S(n):
            return IsoClass.of(*["S1"] * n)

        for (n, a), coeffs, fit in [((3, 1), (1, 1, 1), "F"),
                                    ((4, 2), (1, 1, 2, 1, 1), "F"),
                                    ((4, 1), (1, 1, 1, 1), "F"),
                                    ((2, 1), (1, 1), "g")]:
            hp = ctx.hall_polynomial(S(n), S(a), S(n - a))
            assert hp.coeffs == tuple(Fraction(c) for c in coeffs)
            assert (hp.fit, hp.primes_used, hp.validation_prime) == (fit, (2, 3), 5)
        assert sorted(ctx._tables) == [2, 3, 5]

    @pytest.mark.parametrize("scaled, factor, message", [
        (1, LaurentPoly({0: 1, 2: 1}), "does not divide"),
        (1, LaurentPoly({1: 1}), "not a polynomial in q"),
        (0, LaurentPoly({2: 1}), "misses a scanned Hall number"),
    ])
    def test_riedtmann_fit_checked(self, monkeypatch, scaled, factor, message):
        # g^{3S1}_{S1,2S1} = 1 + q + q^2 is accepted on F; a wrong a_lam or
        # a_alpha in the conversion back to g must raise, whether it leaves a
        # remainder, odd powers of v or a polynomial off the scanned values
        ctx = GenericContext(quiver_a1(), (3,), primes=(2, 3, 5))
        key = tuple(IsoClass.of(*["S1"] * n) for n in (3, 1, 2))
        aut_poly = ctx.aut_poly
        monkeypatch.setattr(ctx, "aut_poly", lambda cls: aut_poly(cls) * (
            factor if cls == key[scaled] else LaurentPoly.one()))
        with pytest.raises(ValueError, match=message):
            ctx.hall_polynomial(*key)

    def test_riedtmann_numerator_must_be_integral(self, monkeypatch):
        ctx = GenericContext(quiver_a1(), (3,), primes=(2, 3, 5))
        key = tuple(IsoClass.of(*["S1"] * n) for n in (3, 1, 2))
        table = ctx.table(3)
        aut_order = table.aut_order
        monkeypatch.setattr(table, "aut_order", lambda cls: aut_order(cls) * (
            7 if cls == key[0] else 1))
        with pytest.raises(ValueError, match="not an integer"):
            ctx.hall_polynomial(*key)


def vandermonde_fit(points):
    """The interpolant's former route, kept as the oracle of _lagrange_fit:
    the Vandermonde system solved in Fractions by Gauss-Jordan."""
    cols = [[Fraction(x) ** k for x, _ in points] for k in range(len(points))]
    coeffs = linalg.solve(cols, [Fraction(y) for _, y in points], Fraction)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@pytest.mark.parametrize("seed", range(6))
def test_newton_fit_matches_vandermonde_solve(seed):
    """Random integer values at distinct integer points, and the values of a
    random integer polynomial at the primes, give the oracle's coefficients,
    each an int unless it is not integral."""
    rng = random.Random(seed)
    for n in range(1, 7):
        xs = rng.sample(range(-8, 20), n)
        poly = [rng.randint(-9, 9) for _ in range(rng.randint(0, n - 1))] + [rng.randint(1, 9)]
        at_primes = [(p, _evaluate(poly, p)) for p in PRIME_POOL[:n]]
        for points in ([(x, rng.randint(-40, 40)) for x in xs], at_primes):
            fit = _lagrange_fit(points)
            assert fit == vandermonde_fit(points), points
            assert all(type(c) is int or c.denominator > 1 for c in fit), fit
            assert all(_evaluate(fit, x) == y for x, y in points)
        assert _lagrange_fit(at_primes) == tuple(poly)


class TestGenericProducts:
    def test_a2_product(self, reg, a2):
        ctx = reg.ctx(a2)
        E1, E2 = chevalley(ctx, 0), chevalley(ctx, 1)
        prod = generic_multiply(E1, E2)
        assert prod == rescale(ctx, IsoClass.of("S1", "S2")) + rescale(ctx, P)
        assert generic_multiply(prod, identity_element(ctx)) == prod

    def test_generic_serre(self, reg, a2):
        ctx = reg.ctx(a2)
        E1, E2 = chevalley(ctx, 0), chevalley(ctx, 1)
        e112 = generic_multiply(divided_power_simple(ctx, 0, 2), E2)
        e121 = generic_multiply(E1, generic_multiply(E2, E1))
        e211 = generic_multiply(E2, divided_power_simple(ctx, 0, 2))
        assert (e112 - e121 + e211).is_zero()

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_specialization_soundness(self, reg, a2, q):
        ctx = reg.ctx(a2)
        E1, E2 = chevalley(ctx, 0), chevalley(ctx, 1)
        x = generic_multiply(generic_multiply(E1, E2), E1)
        t = reg.table(a2, q, ctx.dim_bound)
        fixed = multiply(multiply(rescale(t, t.simple_class(0)),
                                  rescale(t, t.simple_class(1))),
                         rescale(t, t.simple_class(0)))
        assert x.specialize(q) == fixed


class TestLusztigSymmetry:
    def test_tree_shape(self, a2):
        tree = lusztig_symmetry_tree(a2, 1, 0)
        assert len(tree.terms) == 2
        assert tree.is_laurent_integral()

    def test_orthogonal_case_is_identity_letter(self, a3):
        tree = lusztig_symmetry_tree(a3, 2, 0)     # a_13 = 0 on A3
        assert tree.terms == {((0, 1),): LaurentPoly.one()}

    def test_ei_rejected(self, a2):
        with pytest.raises(ValueError):
            lusztig_symmetry_tree(a2, 0, 0)

    def test_symmetry_matches_transport_generic(self, reg, a2, a3):
        for quiver in (a2, a3):
            bound = (3,) * quiver.n
            for i in quiver.sinks():
                reflected = quiver.reflect(i)
                rctx = reg.ctx(reflected, bound)
                for j in range(quiver.n):
                    if j == i:
                        continue
                    val = lusztig_symmetry_generator(rctx, i, j)
                    t = reg.table(quiver, 2, bound)
                    rt = rctx.table(2)
                    img = transport_Ti(rescale(t, t.simple_class(j)), i, rt)
                    (target,) = img.coeffs
                    assert val == rescale(rctx, target), (quiver, i, j)

    @pytest.mark.parametrize("q", [2, 3])
    def test_symmetry_matches_transport_kronecker(self, reg, kron, q):
        i = kron.sinks()[0]
        reflected = kron.reflect(i)
        t = reg.table(kron, q, (3, 3))
        rt = reg.table(reflected, q, (3, 3))
        tree = lusztig_symmetry_tree(reflected, i, 0)
        val = expr_evaluate_fixed(tree, rt)
        img = transport_Ti(rescale(t, t.simple_class(0)), i, rt)
        assert val == img


class TestExprTrees:
    def test_merge_adjacent_letters(self, a2):
        t1 = ExprTree.letter(a2, 0, 1) * ExprTree.letter(a2, 0, 1)
        # E1 E1 = [2] E1^(2)
        assert t1.terms == {((0, 2),): parse_laurent("v + v^-1")}

    def test_tree_evaluation(self, reg, a2):
        ctx = reg.ctx(a2)
        tree = (ExprTree.letter(a2, 0) * ExprTree.letter(a2, 1)
                + (ExprTree.letter(a2, 1) * ExprTree.letter(a2, 0)).scale(
                    LaurentPoly({-1: -1})))
        assert expr_evaluate(tree, ctx) == rescale(ctx, P)
        t3 = reg.table(a2, 3, ctx.dim_bound)
        assert expr_evaluate_fixed(tree, t3) == rescale(t3, P)
        assert expr_evaluate_fixed(ExprTree.zero(a2), t3).is_zero()

    def test_json_roundtrip(self, a2):
        tree = lusztig_symmetry_tree(a2, 1, 0)
        data = tree.to_json()
        back = ExprTree.from_json(a2, data)
        assert back.terms == tree.terms

    def test_divided_power_tree_on_a1(self):
        q1 = quiver_a1()
        ctx = GenericContext(q1, (3,), primes=(2, 3))
        tree = ExprTree.letter(q1, 0, 2)
        val = expr_evaluate(tree, ctx)
        assert val == rescale(ctx, IsoClass.of("S1", "S1"))


class TestKashiwaraPairing:
    def test_base_cases(self, reg, a2):
        ctx = reg.ctx(a2)
        assert kashiwara_pair(ExprTree.one(a2), identity_element(ctx)) == RatFunc.one()
        for i in range(2):
            for j in range(2):
                val = kashiwara_pair(ExprTree.letter(a2, i),
                                     chevalley(ctx, j))
                assert val == (RatFunc.one() if i == j else RatFunc.zero())

    def test_spec_example(self, reg, a2):
        ctx = reg.ctx(a2)
        tree = ExprTree.letter(a2, 0) * ExprTree.letter(a2, 1)
        val = kashiwara_pair(tree, rescale(ctx, P))
        assert val == RatFunc(parse_laurent("1 - v^-2"))

    def test_symmetry_on_samples(self, reg, a2):
        # (x, y)_K is symmetric; check via monomial expansions both ways
        ctx = reg.ctx(a2)
        x = rescale(ctx, P)
        y = generic_multiply(chevalley(ctx, 0), chevalley(ctx, 1))
        from hallcrys.generic import kashiwara_pair_elements
        assert kashiwara_pair_elements(x, y) == kashiwara_pair_elements(y, x)


class TestMonomialExpansion:
    def test_roundtrip(self, reg, a2):
        ctx = reg.ctx(a2)
        x = rescale(ctx, P)
        pairs = monomial_expansion(x)
        total = None
        for word, c in pairs:
            tree = ExprTree(a2, {word: LaurentPoly.one()})
            val = expr_evaluate(tree, ctx).scale(c)
            total = val if total is None else total + val
        assert total == x

    def test_words_cover_weight(self, a3):
        words = monomial_words(a3, (1, 1, 0))
        assert ((0, 1), (1, 1)) in words and ((1, 1), (0, 1)) in words


class TestPairingComparisons:
    def test_adjunction_discrepancy_factor_generic(self, reg, a2):
        # (E_i x, y)_R * (1 - v_i^-2) = (x, f'_i y)_R with RatFunc coefficients
        ctx = reg.ctx(a2)
        t0 = ctx.table(2)
        factor = RatFunc.one() - RatFunc.v_power(-2)
        samples = [rescale(ctx, c) for d in [(1, 0), (0, 1), (1, 1)]
                   for c in t0.classes_of_dim(d)]
        for i in range(2):
            Ei = chevalley(ctx, i)
            si = t0.simple_class(i)
            for x in samples:
                for y in samples + [generic_multiply(Ei, s) for s in samples[:2]]:
                    lhs = generic_ringel_pair(generic_multiply(Ei, x), y) * factor
                    rhs = generic_ringel_pair(x, generic_rprime(ctx, si, y))
                    assert lhs == rhs

    def test_pairing_A_membership_equivalence(self, reg, a2):
        # (x,y)_K in A iff (x,y)_R in A; values at infinity agree when in A
        from hallcrys.generic import kashiwara_pair_elements
        from hallcrys.scalars import a_membership
        ctx = reg.ctx(a2)
        t0 = ctx.table(2)
        base = [rescale(ctx, c) for d in [(1, 1), (2, 1)]
                for c in t0.classes_of_dim(d)]
        scaled = [x.scale(RatFunc.v_power(1)) for x in base]   # leave the lattice
        hits = {"in": 0, "out": 0}
        for x in base + scaled:
            for y in base + scaled:
                if x.pure_weight() != y.pure_weight():
                    continue
                mk = a_membership(kashiwara_pair_elements(x, y))
                mr = a_membership(generic_ringel_pair(x, y))
                assert mk.in_A == mr.in_A
                if mk.in_A:
                    assert mk.unit_part == mr.unit_part
                    hits["in"] += 1
                else:
                    hits["out"] += 1
        assert hits["in"] and hits["out"]    # both sides of the iff exercised


def test_interpolation_pool_exhaustion(a2, monkeypatch):
    monkeypatch.setattr("hallcrys.generic.PRIME_POOL", (2, 3))
    ctx = GenericContext(a2, (2, 2), primes=(2, 3))
    from hallcrys.generic import InterpolationUnstable
    with pytest.raises(InterpolationUnstable):
        ctx.hall_polynomial(P, IsoClass.of("S1"), IsoClass.of("S2"))


def _tables_with_doctored_hom(quiver, bound, bad_q):
    """A TableSet whose table at bad_q has dim Hom(S1, S2) raised by one."""
    def build(q):
        table = ClassTable(quiver, q, bound)
        if q == bad_q:
            table._hom_cache["S1", "S2"] = table.hom_indec("S1", "S2") + 1
        return table
    return TableSet(quiver, bound, build)


class TestHeldOutPrimeTables:
    """Tables first built at the held-out prime are checked against the first
    prime's rigid labels and Hom dimensions like every other table."""

    def test_hall_polynomial_validation_prime(self, a2):
        tables = _tables_with_doctored_hom(a2, (2, 2), 5)
        ctx = GenericContext(a2, (2, 2), (2, 3), tables=tables)
        with pytest.raises(CheckFailed, match=r"Hom\(S1,S2\) differs at q = 2 and q = 5"):
            ctx.hall_polynomial(P, IsoClass.of("S1"), IsoClass.of("S2"))
        assert sorted(tables) == [2, 3]

    def test_ladder_holdout_prime(self, kron):
        tables = _tables_with_doctored_hom(kron, (3, 3), 5)
        engine = CertificateEngine(kron, (3, 3), (2, 3), tables=tables)
        with pytest.raises(CheckFailed, match=r"Hom\(S1,S2\) differs at q = 2 and q = 5"):
            engine.dp_tree(IsoClass.of("r2.3"), 1)


@pytest.mark.parametrize("primes", [(2, 2), (3, 2, 3)])
def test_repeated_primes_rejected(a2, primes):
    for build in (GenericContext, CertificateEngine):
        with pytest.raises(ValueError, match="repeated primes"):
            build(a2, (2, 2), primes=primes)


def test_single_prime_rejected(a2):
    for build in (GenericContext, CertificateEngine):
        with pytest.raises(ValueError, match="at least two primes"):
            build(a2, (2, 2), primes=(2,))


def test_crystal_requires_dynkin(kron):
    from hallcrys.crystal import Crystal
    ctx = GenericContext(kron, (2, 2), primes=(2, 3))
    with pytest.raises(ValueError):
        Crystal(ctx, 2)


class TestCrossLayerDerivations:
    """Every derivation commutes with the specialization v -> sqrt(p)."""

    @pytest.mark.parametrize("name", ["a2", "a3"])
    def test_derivations_specialize(self, reg, request, name):
        quiver = request.getfixturevalue(name)
        ctx = reg.ctx(quiver)
        classes = [cls for dim in product(range(4), repeat=quiver.n)
                   if 0 < sum(dim) <= 3 for cls in ctx.classes_of_dim(dim)]
        for kind in ("r", "rprime", "delta_right", "delta_left"):
            for alpha in classes:
                for lam in classes:
                    x = rescale(ctx, lam)
                    generic = derivation(kind, alpha, x)
                    for p in (2, 3):
                        assert generic.specialize(p) == \
                            derivation(kind, alpha, x.specialize(p)), \
                            (kind, alpha.label, lam.label, p)
