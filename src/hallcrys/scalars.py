"""Exact scalar arithmetic in the quantum parameter v.

Three scalar domains, all exact (no floating point anywhere):

* :class:`LaurentPoly` -- Laurent polynomials in v with rational coefficients,
  as a finitely supported map exponent -> coefficient.
* :class:`RatFunc` -- quotients of Laurent polynomials kept in a canonical
  reduced form so that equality is plain structural comparison.  The subring
  of rational functions regular at v = infinity ("power series in 1/v") is
  detected by :func:`a_membership`.
* :class:`QSqrtScalar` -- elements a + b*sqrt(q) of the quadratic field
  Q(sqrt(q)) for a fixed prime q, the target of specializing v at sqrt(q).

Every stored coefficient is a plain ``int`` when it is integral and a
``Fraction`` (denominator > 1) only when it is not: the paper's objects are
almost all integral, and int arithmetic needs no gcd.  The two compare and
hash alike and both carry ``numerator``/``denominator``, so canonical forms,
equality and rendering do not depend on the split.  Division goes through
:func:`_div`, never ``/`` on two ints (which would give a float).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


def _frac(x):
    """x as an exact scalar: an int when integral, otherwise a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _div(a, b):
    """The exact quotient a / b: an int when b divides a, else a Fraction."""
    if isinstance(a, int) and isinstance(b, int):
        quo, rem = divmod(a, b)
        return Fraction(a, b) if rem else quo
    return _frac(a / b)


class LaurentPoly:
    """A Laurent polynomial in v over Q; zero coefficients are never stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _frac(c)
                if c != 0:
                    d[int(e)] = c
        self.coeffs = d

    # -- constructors ------------------------------------------------

    @staticmethod
    def _of(coeffs: dict) -> "LaurentPoly":
        """Wrap a map that is already normalised (int exponents, nonzero
        exact scalars), without the checks of ``__init__``."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = coeffs
        return out

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly._of({})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly._of({0: 1})

    @staticmethod
    def v_power(exp: int) -> "LaurentPoly":
        return LaurentPoly._of({int(exp): 1})

    # -- structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self) -> int:
        """Largest exponent; raises on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def valuation(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no valuation")
        return min(self.coeffs)

    def leading_coeff(self):
        return self.coeffs[self.degree()]

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = d.get(e, 0) + c
            if s:
                d[e] = s if type(s) is int else _frac(s)
            else:
                d.pop(e, None)
        return LaurentPoly._of(d)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return LaurentPoly.zero()
            return LaurentPoly._of({e: _frac(a * c) for e, a in self.coeffs.items()})
        d = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = d.get(e, 0) + c1 * c2
                if s:
                    d[e] = s if type(s) is int else _frac(s)
                else:
                    d.pop(e, None)
        return LaurentPoly._of(d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a LaurentPoly; use RatFunc")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def substitute_power(self, a: int) -> "LaurentPoly":
        """The substitution v -> v^a."""
        if a == 0:
            raise ValueError("substitution exponent must be nonzero")
        return LaurentPoly._of({e * a: c for e, c in self.coeffs.items()})

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        return LaurentPoly._of({e + k: c for e, c in self.coeffs.items()})

    def is_laurent_integral(self) -> bool:
        """True when every coefficient is an integer (a Z[v, v^-1] element)."""
        return all(c.denominator == 1 for c in self.coeffs.values())

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ValueError when the remainder is nonzero."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        a, b = self.valuation(), other.valuation()
        quo, rem = _poly_divmod(self.shifted(-a), other.shifted(-b))
        if not rem.is_zero():
            raise ValueError("inexact Laurent division")
        return quo.shifted(a - b)

    # -- rendering --------------------------------------------------------

    def __str__(self):
        return render_laurent(self)

    def __repr__(self):
        return f"LaurentPoly({self})"


class RatFunc:
    """A rational function in v, stored in canonical reduced form.

    Internally ``num`` is a Laurent polynomial and ``den`` a genuine
    polynomial in v (valuation 0) that is monic in its top degree, with
    gcd(num * v^-val, den) = 1.  Equality is structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly({0: num})
        if den is None:
            den = LaurentPoly.one()
        elif isinstance(den, (int, Fraction)):
            den = LaurentPoly({0: den})
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = _ratfunc_canonical(num, den)

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(LaurentPoly.zero())

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(LaurentPoly.one())

    @staticmethod
    def v_power(e: int) -> "RatFunc":
        return RatFunc(LaurentPoly.v_power(e))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_laurent(self) -> bool:
        return self.den == LaurentPoly.one()

    def __eq__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __str__(self):
        if self.is_laurent():
            return render_laurent(self.num)
        num = render_laurent(self.num)
        den = render_laurent(self.den)
        if len(self.num.coeffs) > 1:
            num = f"({num})"
        if len(self.den.coeffs) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RatFunc({self})"


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd in Q[v] of two honest polynomials (valuation >= 0)."""
    while not b.is_zero():
        a, b = b, _poly_mod(a, b)
    if a.is_zero():
        return a
    return a * _div(1, a.leading_coeff())


def _poly_divmod(a: LaurentPoly, b: LaurentPoly):
    """Division with remainder in Q[v] (both arguments honest polynomials)."""
    rem = dict(a.coeffs)
    quo = {}
    dlead = b.degree()
    dcoeff = b.coeffs[dlead]
    while rem and max(rem) >= dlead:
        nlead = max(rem)
        c = _div(rem[nlead], dcoeff)
        e = nlead - dlead
        quo[e] = c
        for oe, oc in b.coeffs.items():
            k = oe + e
            s = rem.get(k, 0) - oc * c
            if s:
                rem[k] = s if type(s) is int else _frac(s)
            else:
                rem.pop(k, None)
    return LaurentPoly._of(quo), LaurentPoly._of(rem)


def _poly_mod(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    return _poly_divmod(a, b)[1]


def _ratfunc_canonical(num: LaurentPoly, den: LaurentPoly):
    if num.is_zero():
        return LaurentPoly.zero(), LaurentPoly.one()
    if len(den.coeffs) == 1:
        (e, c), = den.coeffs.items()
        if e == 0 and c == 1:
            return num, den
        return num.shifted(-e) * _div(1, c), LaurentPoly.one()
    nv, dv = num.valuation(), den.valuation()
    nhat = num.shifted(-nv)
    dhat = den.shifted(-dv)
    g = _poly_gcd(nhat, dhat)
    if g.degree() > 0 or g.leading_coeff() != 1:
        nhat = nhat.divide_exact(g)
        dhat = dhat.divide_exact(g)
    lead = dhat.leading_coeff()
    if lead != 1:
        inv = _div(1, lead)
        nhat = nhat * inv
        dhat = dhat * inv
    return nhat.shifted(nv - dv), dhat


def _q_power(q: int, k: int):
    """q**k exactly: an int for k >= 0, a Fraction for k < 0."""
    return q**k if k >= 0 else Fraction(1, q**-k)


def _coerce_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc(LaurentPoly({0: x}))
    if isinstance(x, LaurentPoly):
        return RatFunc(x)
    return NotImplemented


class QSqrtScalar:
    """An exact element rational_part + root_part * sqrt(q), q a fixed prime."""

    __slots__ = ("rational_part", "root_part", "q")

    def __init__(self, rational_part, root_part, q: int):
        self.rational_part = _frac(rational_part)
        self.root_part = _frac(root_part)
        self.q = int(q)

    @staticmethod
    def zero(q: int) -> "QSqrtScalar":
        return QSqrtScalar(0, 0, q)

    @staticmethod
    def one(q: int) -> "QSqrtScalar":
        return QSqrtScalar(1, 0, q)

    @staticmethod
    def v_power(e: int, q: int) -> "QSqrtScalar":
        """The value of v^e at v = sqrt(q)."""
        half, odd = divmod(e, 2)
        if odd == 0:
            return QSqrtScalar(_q_power(q, half), 0, q)
        return QSqrtScalar(0, _q_power(q, half), q)

    def is_zero(self) -> bool:
        return self.rational_part == 0 and self.root_part == 0

    def __bool__(self):
        return not self.is_zero()

    def _check(self, other):
        if self.q != other.q:
            raise ValueError(f"mixed base fields: sqrt({self.q}) vs sqrt({other.q})")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.root_part == 0 and self.rational_part == other
        if not isinstance(other, QSqrtScalar):
            return NotImplemented
        return (self.q == other.q and self.rational_part == other.rational_part
                and self.root_part == other.root_part)

    def __hash__(self):
        return hash((self.rational_part, self.root_part, self.q))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSqrtScalar(other, 0, self.q)
        self._check(other)
        return QSqrtScalar(self.rational_part + other.rational_part,
                           self.root_part + other.root_part, self.q)

    __radd__ = __add__

    def __neg__(self):
        return QSqrtScalar(-self.rational_part, -self.root_part, self.q)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSqrtScalar(other, 0, self.q)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSqrtScalar(self.rational_part * other, self.root_part * other, self.q)
        self._check(other)
        a, b, c, d = self.rational_part, self.root_part, other.rational_part, other.root_part
        return QSqrtScalar(a * c + b * d * self.q, a * d + b * c, self.q)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrtScalar":
        a, b = self.rational_part, self.root_part
        norm = a * a - b * b * self.q
        if norm == 0:
            raise ZeroDivisionError("zero element of Q(sqrt q)")
        return QSqrtScalar(_div(a, norm), _div(-b, norm), self.q)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * _div(1, other)
        self._check(other)
        return self * other.inverse()

    def __str__(self):
        return f"{self.rational_part} + {self.root_part}*sqrt({self.q})"

    def __repr__(self):
        return f"QSqrtScalar({self.rational_part}, {self.root_part}, q={self.q})"


# ----------------------------------------------------------------------
# quantum combinatorics


def quantum_integer(n: int, a: int = 1) -> LaurentPoly:
    """[n] with v replaced by v^a: v^{a(n-1)} + v^{a(n-3)} + ... + v^{-a(n-1)}."""
    if n < 0:
        raise ValueError("quantum integer of a negative integer")
    return LaurentPoly({a * (n - 1 - 2 * k): 1 for k in range(n)})


def quantum_factorial(n: int, a: int = 1) -> LaurentPoly:
    if n < 0:
        raise ValueError("quantum factorial of a negative integer")
    out = LaurentPoly.one()
    for r in range(1, n + 1):
        out = out * quantum_integer(r, a)
    return out


def quantum_binomial(n: int, r: int, a: int = 1) -> LaurentPoly:
    """Gaussian binomial [n; r] with v -> v^a; the division is exact."""
    if r < 0 or r > n:
        raise ValueError(f"binomial index r={r} outside [0, {n}]")
    num = LaurentPoly.one()
    for k in range(r):
        num = num * quantum_integer(n - k, a)
    return num.divide_exact(quantum_factorial(r, a))


# ----------------------------------------------------------------------
# the ring A of rational functions regular at v = infinity


class AMembership(NamedTuple):
    in_A: bool
    unit_part: int | Fraction | None


def a_membership(f) -> AMembership:
    """Classify f against A = Q[[v^-1]] cap Q(v).

    Membership holds exactly when f is regular at v = infinity; the unit part
    is then the value there (the constant term of the v^-1-adic expansion),
    so ``f in 1 + v^-1 A`` is ``AMembership(True, 1)``.
    """
    f = _coerce_ratfunc(f)
    if f.is_zero():
        return AMembership(True, 0)
    ndeg = f.num.degree()
    ddeg = f.den.degree()
    if ndeg > ddeg:
        return AMembership(False, None)
    if ndeg < ddeg:
        return AMembership(True, 0)
    return AMembership(True, _div(f.num.leading_coeff(), f.den.leading_coeff()))


def in_one_plus_vinv_A(f) -> bool:
    m = a_membership(f)
    return m.in_A and m.unit_part == 1


# ----------------------------------------------------------------------
# specialization at v = sqrt(q)


def eval_at_sqrt_q(f, q: int) -> QSqrtScalar:
    """Exact evaluation at v = sqrt(q) using v^2 = q.

    Raises ZeroDivisionError when a RatFunc denominator vanishes there (a
    non-generic specialization point).
    """
    if isinstance(f, LaurentPoly):
        rat = root = 0
        for e, c in f.coeffs.items():
            half, odd = divmod(e, 2)
            if odd == 0:
                rat += c * _q_power(q, half)
            else:
                root += c * _q_power(q, half)
        return QSqrtScalar(rat, root, q)
    if isinstance(f, RatFunc):
        den = eval_at_sqrt_q(f.den, q)
        if den.is_zero():
            raise ZeroDivisionError(f"denominator of {f} vanishes at v = sqrt({q})")
        return eval_at_sqrt_q(f.num, q) / den
    if isinstance(f, (int, Fraction)):
        return QSqrtScalar(f, 0, q)
    raise TypeError(f"cannot specialize {type(f).__name__}")


# ----------------------------------------------------------------------
# text rendering and parsing ("v^2 - 2 + v^-2")


def _render_coeff(c) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def render_laurent(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.coeffs, reverse=True):
        c = p.coeffs[e]
        neg = c < 0
        c = abs(c)
        if e == 0:
            body = _render_coeff(c)
        else:
            ve = "v" if e == 1 else f"v^{e}"
            body = ve if c == 1 else f"{_render_coeff(c)}*{ve}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the grammar produced by :func:`render_laurent`."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty Laurent polynomial")
    terms = {}
    i = 0
    n = len(s)
    while i < n:
        sign = 1
        while i < n and s[i] in "+-":
            if s[i] == "-":
                sign = -sign
            i += 1
        j = i
        while j < n and (s[j].isdigit() or s[j] == "/"):
            j += 1
        coeff_txt = s[i:j]
        i = j
        if i < n and s[i] == "*":
            i += 1
        exp = 0
        has_v = False
        if i < n and s[i] == "v":
            has_v = True
            i += 1
            if i < n and s[i] == "^":
                i += 1
                j = i
                if j < n and s[j] == "-":
                    j += 1
                while j < n and s[j].isdigit():
                    j += 1
                exp = int(s[i:j])
                i = j
            else:
                exp = 1
        if coeff_txt:
            coeff = Fraction(coeff_txt)
        elif has_v:
            coeff = 1
        else:
            raise ValueError(f"malformed term in {text!r}")
        terms[exp] = terms.get(exp, 0) + sign * coeff
    return LaurentPoly(terms)


def parse_ratfunc(text: str) -> RatFunc:
    """Parse "P", "P/Q", "(P)/(Q)" where P, Q follow the Laurent grammar."""
    s = text.strip()
    depth = 0
    split = None
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0 and i + 1 < len(s) and s[i + 1] == "(":
            split = i
            break
    if split is None:
        # "/" only occurs inside fraction coefficients like 1/2
        return RatFunc(parse_laurent(_strip_parens(s)))
    num = parse_laurent(_strip_parens(s[:split]))
    den = parse_laurent(_strip_parens(s[split + 1:]))
    return RatFunc(num, den)


def _strip_parens(s: str) -> str:
    s = s.strip()
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        ok = True
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    ok = False
                    break
        if not ok:
            break
        s = s[1:-1].strip()
    return s
