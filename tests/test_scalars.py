from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallcrys.scalars import (AMembership, LaurentPoly, QSqrtScalar, RatFunc, _div,
                              a_membership, eval_at_sqrt_q, in_one_plus_vinv_A,
                              parse_laurent, parse_ratfunc, quantum_binomial,
                              quantum_factorial, quantum_integer, render_laurent)


def L(s):
    return parse_laurent(s)


class TestQuantumCombinatorics:
    def test_quantum_integer_basic(self):
        assert quantum_integer(2, 1) == L("v + v^-1")
        assert quantum_integer(1, 3) == L("1")
        assert quantum_integer(3, 2) == L("v^4 + 1 + v^-4")
        assert quantum_integer(0, 1).is_zero()

    def test_quantum_binomial(self):
        assert quantum_binomial(2, 1, 1) == L("v + v^-1")
        for n in range(6):
            assert quantum_binomial(n, 0, 2) == L("1")
        assert quantum_binomial(4, 2, 1) == L("v^4 + v^2 + 2 + v^-2 + v^-4")

    def test_binomial_bounds(self):
        with pytest.raises(ValueError):
            quantum_binomial(3, 4, 1)
        with pytest.raises(ValueError):
            quantum_binomial(3, -1, 1)

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 3))
    @settings(deadline=None, max_examples=60)
    def test_binomial_symmetry(self, n, r, a):
        if r > n:
            return
        assert quantum_binomial(n, r, a) == quantum_binomial(n, n - r, a)

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 3))
    @settings(deadline=None, max_examples=40)
    def test_substitution_is_ring_hom(self, m, n, a):
        lhs = quantum_integer(m, a) * quantum_integer(n, a)
        rhs = (quantum_integer(m, 1) * quantum_integer(n, 1)).substitute_power(a)
        assert lhs == rhs


coeffs = st.integers(-4, 4)
polys = st.dictionaries(st.integers(-4, 4), coeffs, max_size=4).map(LaurentPoly)


class TestLaurentRing:
    @given(polys, polys, polys)
    @settings(deadline=None, max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)

    @given(polys, polys)
    @settings(deadline=None, max_examples=40)
    def test_exact_division_roundtrip(self, a, b):
        if b.is_zero():
            return
        assert (a * b).divide_exact(b) == a

    def test_render_parse_roundtrip(self):
        for text in ["v^2 - 2 + v^-2", "1", "-v + 3", "1/2*v^3 + 1", "0"]:
            assert render_laurent(parse_laurent(text)) == text


class TestRatFuncAndA:
    def test_canonical_equality(self):
        a = RatFunc(L("v^2 - 1"), L("v - 1"))
        assert a == RatFunc(L("v + 1"))
        assert RatFunc(L("2*v^2"), L("2")) == RatFunc(L("v^2"))

    def test_a_membership_examples(self):
        f = RatFunc(L("1"), L("1 - v^-2"))
        assert a_membership(f) == AMembership(True, Fraction(1))
        assert a_membership(RatFunc.v_power(1)) == AMembership(False, None)
        g = parse_ratfunc("(v^2+1)/(2v^2)")
        assert a_membership(g) == AMembership(True, Fraction(1, 2))

    def test_one_plus_vinv(self):
        assert in_one_plus_vinv_A(RatFunc(L("1"), L("1 - v^-2")))
        assert not in_one_plus_vinv_A(parse_ratfunc("(v^2+1)/(2v^2)"))

    @given(polys, polys, polys, polys)
    @settings(deadline=None, max_examples=40)
    def test_A_closed_under_ring_ops(self, n1, d1, n2, d2):
        # build two elements of A by dividing by something of >= degree
        if n1.is_zero() or n2.is_zero() or d1.is_zero() or d2.is_zero():
            return
        f = RatFunc(n1, d1)
        g = RatFunc(n2, d2)
        if not (a_membership(f).in_A and a_membership(g).in_A):
            return
        assert a_membership(f + g).in_A
        assert a_membership(f * g).in_A

    def test_parse_ratfunc_roundtrip(self):
        for text in ["v^2/(v^2 - 1)", "1/(1 - v^-2)", "v - 1"]:
            r = parse_ratfunc(text)
            assert parse_ratfunc(str(r)) == r


class TestSqrtQ:
    def test_eval_examples(self):
        x = eval_at_sqrt_q(L("v + v^-1"), 4)
        assert (x.rational_part, x.root_part) == (0, Fraction(5, 4))
        assert eval_at_sqrt_q(L("v^2"), 3) == QSqrtScalar(3, 0, 3)
        f = RatFunc(L("1"), L("1 - v^-2"))
        assert eval_at_sqrt_q(f, 2) == QSqrtScalar(2, 0, 2)

    def test_denominator_vanishes(self):
        f = RatFunc(L("1"), L("v^2 - 2"))
        with pytest.raises(ZeroDivisionError):
            eval_at_sqrt_q(f, 2)

    def test_field_ops(self):
        x = QSqrtScalar(1, 2, 5)
        assert x * x.inverse() == QSqrtScalar.one(5)
        assert (x + (-x)).is_zero()
        with pytest.raises(ValueError):
            x + QSqrtScalar(1, 0, 3)

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
           st.integers(-3, 3), st.sampled_from([2, 3, 5]))
    @settings(deadline=None, max_examples=40)
    def test_eval_is_ring_hom(self, a1, e1, a2, e2, q):
        p1 = LaurentPoly({e1: a1})
        p2 = LaurentPoly({e2: a2})
        assert eval_at_sqrt_q(p1 * p2, q) == eval_at_sqrt_q(p1, q) * eval_at_sqrt_q(p2, q)
        assert eval_at_sqrt_q(p1 + p2, q) == eval_at_sqrt_q(p1, q) + eval_at_sqrt_q(p2, q)

    def test_factorial(self):
        assert quantum_factorial(3, 1) == quantum_integer(2, 1) * quantum_integer(3, 1)


# -- integer-first coefficients against a Fraction-only reference -------------

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
qpolys = st.dictionaries(st.integers(-3, 3), rationals, max_size=4).map(LaurentPoly)
POINTS = (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3))


def stored(x) -> list:
    """Every coefficient a LaurentPoly, RatFunc or QSqrtScalar stores."""
    if isinstance(x, LaurentPoly):
        return list(x.coeffs.values())
    if isinstance(x, RatFunc):
        return stored(x.num) + stored(x.den)
    return [x.rational_part, x.root_part]


def assert_integer_first(*xs):
    for x in xs:
        for c in stored(x):
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def at(f, v: Fraction) -> Fraction:
    """f at the rational point v, in Fractions only."""
    if isinstance(f, RatFunc):
        return at(f.num, v) / at(f.den, v)
    return sum((Fraction(c) * v**e for e, c in f.coeffs.items()), Fraction(0))


def sqrt_pair(x, y, q):
    """(x1 + y1 sqrt q)(x2 + y2 sqrt q) on Fraction pairs."""
    return x[0] * y[0] + x[1] * y[1] * q, x[0] * y[1] + x[1] * y[0]


def sqrt_at(p: LaurentPoly, q: int):
    """p at v = sqrt(q) as a Fraction pair (rational part, root part)."""
    out = [Fraction(0), Fraction(0)]
    for e, c in p.coeffs.items():
        out[e % 2] += Fraction(c) * Fraction(q) ** (e // 2)
    return tuple(out)


class TestIntegerFirst:
    """Coefficients are ints unless non-integral, never floats, and every
    operation agrees with the same computation in Fractions."""

    @given(qpolys, qpolys, rationals)
    @settings(deadline=None, max_examples=80)
    def test_laurent_ring(self, a, b, c):
        results = {"+": (a + b, lambda x, y: x + y), "-": (a - b, lambda x, y: x - y),
                   "*": (a * b, lambda x, y: x * y)}
        for op, (r, ref) in results.items():
            assert_integer_first(r)
            for v in POINTS:
                assert at(r, v) == ref(at(a, v), at(b, v)), op
        scaled = a * c
        assert_integer_first(-a, scaled, a.shifted(2), a.substitute_power(-2))
        assert all(at(scaled, v) == at(a, v) * c for v in POINTS)
        if not b.is_zero():
            q = (a * b).divide_exact(b)
            assert_integer_first(q)
            assert q == a

    @given(qpolys, qpolys, qpolys, qpolys)
    @settings(deadline=None, max_examples=60)
    def test_ratfunc_field(self, n1, d1, n2, d2):
        if d1.is_zero() or d2.is_zero():
            return
        f, g = RatFunc(n1, d1), RatFunc(n2, d2)
        results = [(f + g, lambda x, y: x + y), (f - g, lambda x, y: x - y),
                   (f * g, lambda x, y: x * y)]
        if not g.is_zero():
            results.append((f / g, lambda x, y: x / y))
        for r, ref in results:
            assert_integer_first(f, g, r)
            for v in POINTS:
                if at(d1, v) and at(d2, v) and at(r.den, v) and at(n2, v):
                    assert at(r, v) == ref(at(n1, v) / at(d1, v), at(n2, v) / at(d2, v))
            unit = a_membership(r).unit_part
            assert unit is None or type(unit) is int or unit.denominator > 1

    @given(rationals, rationals, rationals, rationals, st.sampled_from([2, 3, 5]),
           st.integers(-4, 4))
    @settings(deadline=None, max_examples=80)
    def test_sqrt_q_field(self, a, b, c, d, q, e):
        x, y = QSqrtScalar(a, b, q), QSqrtScalar(c, d, q)
        fx, fy = (Fraction(a), Fraction(b)), (Fraction(c), Fraction(d))
        checks = [(x + y, (fx[0] + fy[0], fx[1] + fy[1])),
                  (x - y, (fx[0] - fy[0], fx[1] - fy[1])),
                  (x * y, sqrt_pair(fx, fy, q)),
                  (x * c, (fx[0] * c, fx[1] * c)),
                  (QSqrtScalar.v_power(e, q), sqrt_at(LaurentPoly({e: 1}), q))]
        if not y.is_zero():
            norm = fy[0] ** 2 - fy[1] ** 2 * q
            inv = (fy[0] / norm, -fy[1] / norm)
            checks += [(y.inverse(), inv), (x / y, sqrt_pair(fx, inv, q))]
        if c:
            checks.append((x / c, (fx[0] / c, fx[1] / c)))
        for r, (rat, root) in checks:
            assert_integer_first(r)
            assert (r.rational_part, r.root_part) == (rat, root)

    @given(qpolys, st.sampled_from([2, 3, 5]))
    @settings(deadline=None, max_examples=60)
    def test_eval_at_sqrt_q(self, p, q):
        r = eval_at_sqrt_q(p, q)
        assert_integer_first(r)
        assert (r.rational_part, r.root_part) == sqrt_at(p, q)

    def test_integral_values_are_ints(self):
        halves = L("1/2*v + 1/2*v^-1")
        assert type((halves + halves).coeffs[1]) is int
        assert type((halves * 2).coeffs[-1]) is int
        assert type(parse_laurent("2/2*v").coeffs[1]) is int
        assert type(quantum_binomial(5, 2).coeffs[0]) is int
        assert type(QSqrtScalar(Fraction(4, 2), 0, 3).rational_part) is int
        assert type(QSqrtScalar.v_power(-2, 3).rational_part) is Fraction
        half = Fraction(1, 2)
        for a, b, quo in [(6, 3, 2), (-6, 4, Fraction(-3, 2)), (1, Fraction(1, 3), 3),
                          (3 * half, half, 3), (half, 3, Fraction(1, 6))]:
            assert _div(a, b) == quo and type(_div(a, b)) is type(quo), (a, b)
        with pytest.raises(ZeroDivisionError):
            _div(1, 0)

    def test_a_membership_divides_exactly(self):
        """The unit part is an int or a Fraction, never a float such as 1.0
        or 0.5 from dividing two ints."""
        cases = [(RatFunc(L("1"), L("1 - v^-2")), 1),
                 (RatFunc(L("3*v^2 + 1"), L("v^2 - 1")), 3),
                 (parse_ratfunc("(v^2+1)/(2v^2)"), Fraction(1, 2)),
                 (RatFunc(L("v"), L("2*v^3 + 1")), 0),
                 (RatFunc(L("v^2 + 1"), L("2*v^2 - v")), Fraction(1, 2)),
                 (RatFunc.zero(), 0)]
        for f, unit in cases:
            m = a_membership(f)
            assert m == AMembership(True, unit)
            assert type(m.unit_part) is type(unit), (str(f), m.unit_part)
