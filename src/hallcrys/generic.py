"""The generic composition-algebra layer.

:class:`GenericContext` is the scalar layer of :class:`hallalg.HallElement`
with coefficients rational functions in v (q = v^2): its structure constants
are Hall polynomials, fitted by multi-prime Newton interpolation with exact
division (Dynkin quivers carry field-independent class labels).  Each
polynomial g is fitted twice through the same scanned primes, once directly
and once through its Riedtmann numerator g a_alpha a_beta q^hom / a_lambda;
the first fit confirmed at a held-out prime wins, and a numerator fit is
divided back exactly.  Products, derivations and the Ringel pairing are the
ones of :mod:`hallalg`; :func:`generic_multiply` adds the fixed-q spot check
that compares the two layers.  Also here: divided-power expression trees
evaluated over either layer, the Lusztig symmetry formulas, and the
Kashiwara pairing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import linalg
from .checks import CheckFailed, check
from .classtable import ClassTable, IsoClass, TableSet, ZERO_CLASS
from .hallalg import (HallElement, add_term, derivation, divided_power_simple,
                      identity_element, multiply, ringel_pair, zero_element)
from .quivers import Quiver, cartan_datum
from .scalars import (LaurentPoly, RatFunc, _div, _frac, parse_laurent,
                      quantum_binomial, quantum_factorial, render_laurent)

PRIME_POOL = (2, 3, 5, 7, 11, 13, 17)


def check_primes(primes) -> tuple:
    """The configured primes as a tuple: at least two (one for validation),
    none repeated."""
    primes = tuple(primes)
    if len(primes) < 2:
        raise ValueError("need at least two primes (one for validation)")
    if len(set(primes)) != len(primes):
        raise ValueError(f"repeated primes in {primes}")
    return primes


def holdout_prime(used):
    """The first PRIME_POOL prime not in ``used``, or None when none is left."""
    return next((p for p in PRIME_POOL if p not in used), None)


class InterpolationUnstable(RuntimeError):
    pass


@dataclass(frozen=True)
class HallPolynomial:
    triple: tuple              # (lambda, alpha, beta) labels
    coeffs: tuple              # ascending in q: ints, Fractions where non-integral
    primes_used: tuple
    validation_prime: int
    fit: str                   # "g", or "F" for the Riedtmann numerator

    def eval_int(self, q: int) -> int:
        val = _evaluate(self.coeffs, q)
        check(val.denominator == 1, f"Hall polynomial {self.triple} is not integral at q = {q}")
        return int(val)

    def as_laurent(self) -> LaurentPoly:
        """The polynomial with q replaced by v^2."""
        return LaurentPoly({2 * k: c for k, c in enumerate(self.coeffs)})


def _evaluate(coeffs, q: int):
    return sum(c * q**k for k, c in enumerate(coeffs))


def _lagrange_fit(points):
    """Interpolating polynomial through (x, y) points with distinct integer
    x, ascending coefficients: Newton's divided differences, expanded into
    powers of x by Horner's rule.  Divisions are exact (:func:`_div`), so
    integral coefficients stay ints."""
    xs = [x for x, _ in points]
    dd = [y for _, y in points]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            dd[i] = _div(dd[i] - dd[i - 1], xs[i] - xs[i - j])
    coeffs = [dd[-1]]
    for x, d in zip(xs[-2::-1], dd[-2::-1]):
        # coeffs * (q - x) + d
        coeffs = ([d - x * coeffs[0]]
                  + [a - x * b for a, b in zip(coeffs[:-1], coeffs[1:])]
                  + [coeffs[-1]])
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(_frac(c) for c in coeffs)


class GenericContext:
    """Fixed-q tables over several primes plus interpolation caches.

    The scalar layer of :class:`hallalg.HallElement` over Q(v); class
    bookkeeping (labels, dimensions, classes per dimension) is the first
    prime's table.  Tables come from a :class:`TableSet`, built on first use
    and each checked there against the first for the same rigid labels and
    Hom dimensions, held-out primes included.
    """

    q = None                     # q = v^2 stays an indeterminate

    def __init__(self, quiver: Quiver, dim_bound, primes=(2, 3, 5), tables=None):
        self.quiver = quiver
        self.dim_bound = quiver.vertex_bound(dim_bound)
        self.primes = check_primes(primes)
        # shared with other users of the same quiver and bound when given
        self._tables = tables if tables is not None else TableSet(quiver, self.dim_bound)
        self._hall_polys = {}
        self._aut_polys = {}
        self.datum = cartan_datum(quiver)
        self.generic_ok = quiver.is_dynkin()
        # the layer's class bookkeeping is the first prime's table
        self._base = self.table(self.primes[0])
        self.by_label = self._base.by_label

    def table(self, q: int) -> ClassTable:
        return self._tables[q]

    def require_generic(self):
        if not self.generic_ok:
            raise ValueError("generic coefficients are only supported over Dynkin quivers")

    # -- the scalar layer of hallalg.HallElement: Q(v) ----------------------

    def scalar(self, c) -> RatFunc:
        return c if isinstance(c, RatFunc) else RatFunc(c)

    def zero(self) -> RatFunc:
        return RatFunc.zero()

    def v_power(self, e: int) -> RatFunc:
        return RatFunc.v_power(e)

    def hall_number(self, lam: IsoClass, alpha: IsoClass, beta: IsoClass):
        """g^lam_{alpha beta} as a RatFunc in v^2, or 0 when it vanishes."""
        hp = self.hall_polynomial(lam, alpha, beta)
        return RatFunc(hp.as_laurent()) if any(hp.coeffs) else 0

    def aut(self, cls: IsoClass) -> RatFunc:
        return RatFunc(self.aut_poly(cls))

    def epsilon(self, cls: IsoClass) -> int:
        return self._base.epsilon(cls)

    def class_dim(self, cls: IsoClass):
        return self._base.class_dim(cls)

    def classes_of_dim(self, dim) -> list:
        return self._base.classes_of_dim(dim)

    def simple_class(self, v: int) -> IsoClass:
        return self._base.simple_class(v)

    def field_dependent(self, cls: IsoClass) -> bool:
        return self._base.field_dependent(cls)

    # -- Hall polynomials -------------------------------------------------

    def hall_polynomial(self, lam: IsoClass, alpha: IsoClass, beta: IsoClass) -> HallPolynomial:
        """g^lam_{alpha beta}(q), fitted through Grassmannian scans at primes.

        Two interpolations run through the same scanned primes: one of g and
        one of its Riedtmann numerator F = g a_alpha a_beta q^hom(alpha,beta)
        / a_lam = |Ext^1(alpha, beta)_lam|, an integer at each prime.  Both
        start from the first two configured primes; each further prime of
        ``PRIME_POOL`` is held out, and the first fit whose prediction
        matches the scan there is accepted, g before F.  Otherwise the point
        joins both fits.  The degree of F is often 0 where g's is high, and
        the other way round, so taking whichever validates first saves the
        scans at large primes.  An accepted F is turned back into g by exact
        division by the closed-form ``aut_poly``; the quotient must be a
        polynomial in q that reproduces every scanned value, or this raises.
        """
        self.require_generic()
        key = (lam, alpha, beta)
        if key in self._hall_polys:
            return self._hall_polys[key]
        g_points, f_points = [], []

        def scan(p):
            t = self.table(p)
            g = t.hall_number(lam, alpha, beta)
            num = g * t.aut_order(alpha) * t.aut_order(beta) * p ** t.hom(alpha, beta)
            f, rem = divmod(num, t.aut_order(lam))
            if rem:
                raise CheckFailed(f"Riedtmann numerator of {key} "
                                 f"at q = {p} is not an integer")
            g_points.append((p, g))
            f_points.append((p, f))

        used = list(self.primes[:2])
        for p in used:
            scan(p)
        while True:
            g_fit, f_fit = _lagrange_fit(g_points), _lagrange_fit(f_points)
            nxt = holdout_prime(used)
            if nxt is None:
                raise InterpolationUnstable(
                    f"hall polynomial for {key} unstable after primes {used}")
            scan(nxt)
            if _evaluate(g_fit, nxt) == g_points[-1][1]:
                coeffs, fit = g_fit, "g"
            elif _evaluate(f_fit, nxt) == f_points[-1][1]:
                coeffs, fit = self._g_from_riedtmann(f_fit, key), "F"
                if any(_evaluate(coeffs, p) != g for p, g in g_points):
                    raise CheckFailed(f"Riedtmann fit of {key} "
                                      "misses a scanned Hall number")
            else:
                used.append(nxt)
                continue
            poly = HallPolynomial((lam.label, alpha.label, beta.label),
                                  coeffs, tuple(used), nxt, fit)
            self._hall_polys[key] = poly
            return poly

    def _g_from_riedtmann(self, f_coeffs, key) -> tuple:
        """g = F a_lam / (a_alpha a_beta q^hom(alpha,beta)) as ascending
        coefficients in q; raises unless the division is exact and leaves a
        polynomial in q = v^2."""
        lam, alpha, beta = key
        num = LaurentPoly({2 * k: c for k, c in enumerate(f_coeffs)}) * self.aut_poly(lam)
        den = (self.aut_poly(alpha) * self.aut_poly(beta)
               * LaurentPoly.v_power(2 * self._base.hom(alpha, beta)))
        try:
            g = num.divide_exact(den)
        except ValueError:
            raise CheckFailed(f"Riedtmann fit of {key} does not "
                              "divide by the automorphism orders") from None
        if any(e < 0 or e % 2 for e in g.coeffs):
            raise CheckFailed(f"Riedtmann fit of {key} is not "
                              f"a polynomial in q: {g}")
        top = max(g.coeffs, default=0) // 2
        return tuple(g.coeffs.get(2 * k, 0) for k in range(top + 1))

    # -- generic automorphism orders ---------------------------------------

    def aut_poly(self, cls: IsoClass) -> LaurentPoly:
        """|Aut| as a polynomial in q = v^2: the table's closed form at
        q = v^2 (Dynkin classes are rigid)."""
        self.require_generic()
        if cls not in self._aut_polys:
            self._aut_polys[cls] = self._base.aut_order(cls, LaurentPoly.v_power(2))
        return self._aut_polys[cls]


def generic_multiply(x: HallElement, y: HallElement) -> HallElement:
    """The product over a GenericContext, its specialization at the first
    configured prime verified against the fixed-q product."""
    x.layer.require_generic()
    res = multiply(x, y)
    p = x.layer.primes[0]
    lhs = res.specialize(p)
    rhs = multiply(x.specialize(p), y.specialize(p))
    check(lhs == rhs, "generic product failed its fixed-q spot check")
    return res


def generic_rprime(ctx: GenericContext, alpha: IsoClass, x: HallElement) -> HallElement:
    return derivation("rprime", alpha, x)


def generic_ringel_pair(x: HallElement, y: HallElement) -> RatFunc:
    return ringel_pair(x, y)


# ----------------------------------------------------------------------
# divided-power expression trees


class ExprTree:
    """A formal sum of words in divided powers E_i^{(n)} with Laurent coeffs.

    Words are tuples of (vertex_index, n) with no two adjacent letters at the
    same vertex; merging E_i^{(a)} E_i^{(b)} contributes the Gaussian binomial
    [a+b; a] at the vertex symmetrizer.
    """

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver: Quiver, terms=None):
        self.quiver = quiver
        d = {}
        if terms:
            for word, c in terms.items():
                if not isinstance(c, LaurentPoly):
                    c = LaurentPoly({0: c})
                if not c.is_zero():
                    d[tuple(word)] = c
        self.terms = d

    @staticmethod
    def zero(quiver) -> "ExprTree":
        return ExprTree(quiver)

    @staticmethod
    def one(quiver) -> "ExprTree":
        return ExprTree(quiver, {(): LaurentPoly.one()})

    @staticmethod
    def letter(quiver, v: int, n: int = 1) -> "ExprTree":
        if n == 0:
            return ExprTree.one(quiver)
        return ExprTree(quiver, {((v, n),): LaurentPoly.one()})

    def __add__(self, other):
        d = dict(self.terms)
        for w, c in other.terms.items():
            add_term(d, w, c)
        return ExprTree(self.quiver, d)

    def __sub__(self, other):
        return self + other.scale(LaurentPoly({0: -1}))

    def scale(self, c) -> "ExprTree":
        if not isinstance(c, LaurentPoly):
            c = LaurentPoly({0: c})
        return ExprTree(self.quiver, {w: p * c for w, p in self.terms.items()})

    def __mul__(self, other) -> "ExprTree":
        eps = cartan_datum(self.quiver).symmetrizers
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word, extra = _merge_words(w1, w2, eps)
                add_term(out, word, c1 * c2 * extra)
        return ExprTree(self.quiver, out)

    def is_laurent_integral(self) -> bool:
        return all(c.is_laurent_integral() for c in self.terms.values())

    def to_json(self):
        out = []
        for word in sorted(self.terms):
            out.append({
                "coeff": render_laurent(self.terms[word]),
                "word": [[self.quiver.vertices[v], n] for v, n in word],
            })
        return out

    @staticmethod
    def from_json(quiver: Quiver, data) -> "ExprTree":
        terms = {}
        for item in data:
            word = tuple((quiver.index[str(v)], int(n)) for v, n in item["word"])
            terms[word] = parse_laurent(item["coeff"])
        return ExprTree(quiver, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for word in sorted(self.terms):
            mono = "*".join(
                f"E{self.quiver.vertices[v]}" + (f"^({n})" if n > 1 else "")
                for v, n in word) or "1"
            bits.append(f"({self.terms[word]})*{mono}")
        return " + ".join(bits)

    __repr__ = __str__


def _merge_words(w1, w2, eps):
    """Concatenate words, merging a shared boundary vertex with its binomial."""
    if not w1:
        return w2, LaurentPoly.one()
    if not w2:
        return w1, LaurentPoly.one()
    v1, n1 = w1[-1]
    v2, n2 = w2[0]
    if v1 != v2:
        return w1 + w2, LaurentPoly.one()
    merged = ((v1, n1 + n2),)
    extra = quantum_binomial(n1 + n2, n1, eps[v1])
    word, more = _merge_words(w1[:-1], merged + w2[1:], eps)
    return word, extra * more


def expr_evaluate(tree: ExprTree, layer) -> HallElement:
    """Multiply the tree out over a ClassTable or a GenericContext, left to right."""
    total = zero_element(layer)
    for word, coeff in tree.terms.items():
        cur = identity_element(layer)
        for v, n in word:
            cur = multiply(cur, divided_power_simple(layer, v, n))
        total = total + cur.scale(coeff)
    return total


def expr_evaluate_fixed(tree: ExprTree, table: ClassTable) -> HallElement:
    return expr_evaluate(tree, table)


def symmetry_sum(x, dp, k: int, eps: int, mul):
    """sum_{r=0}^{k} (-1)^r v^{-r eps} dp(r) x dp(k-r), products taken by mul.

    The case-(3) braid move over Hall elements, its certificate trees and
    T''_{i,1}(E_j) are this one sum; their mirrored forms pass mul with its
    arguments swapped, i.e. the product of the opposite algebra.
    """
    total = None
    for r in range(k + 1):
        term = mul(mul(dp(r), x), dp(k - r)).scale(LaurentPoly({-r * eps: (-1) ** r}))
        total = term if total is None else total + term
    return total


def opposite(mul):
    """The product of the opposite algebra: mul with its arguments swapped."""
    return lambda x, y: mul(y, x)


def lusztig_symmetry_tree(quiver: Quiver, i: int, j: int) -> ExprTree:
    """T''_{i,1}(E_j) = sum_{r+s=-a_ij} (-1)^r v^{-r eps_i} E_i^{(s)} E_j E_i^{(r)}."""
    if i == j:
        raise ValueError("T''_{i,1}(E_i) leaves the positive part")
    datum = cartan_datum(quiver)
    return symmetry_sum(ExprTree.letter(quiver, j), lambda r: ExprTree.letter(quiver, i, r),
                        -datum.a_ij(i, j), datum.symmetrizers[i], opposite(operator.mul))


def lusztig_symmetry_generator(ctx: GenericContext, i: int, j: int) -> HallElement:
    """The displayed sum evaluated in ctx's generic composition algebra."""
    return expr_evaluate(lusztig_symmetry_tree(ctx.quiver, i, j), ctx)


# ----------------------------------------------------------------------
# Kashiwara pairing by the defining recursion


def expand_divided(terms, quiver: Quiver):
    """Monomial form of (coeff, word) terms: plain letters, factorials divided out."""
    datum = cartan_datum(quiver)
    out = []
    for word, coeff in terms:
        c = coeff if isinstance(coeff, RatFunc) else RatFunc(coeff)
        letters = []
        for v, n in word:
            c = c / RatFunc(quantum_factorial(n, datum.symmetrizers[v]))
            letters.extend([v] * n)
        out.append((c, tuple(letters)))
    return out


def kashiwara_pair(tree: ExprTree, y: HallElement) -> RatFunc:
    """(x, y)_K via (1,1)_K = 1 and (E_i x', y)_K = (x', f'_i(y))_K."""
    return kashiwara_pair_expanded(
        expand_divided(tree.terms.items(), tree.quiver), y)


def kashiwara_pair_elements(x: HallElement, y: HallElement) -> RatFunc:
    """(x, y)_K with x re-expressed in divided-power monomials first."""
    return kashiwara_pair_expanded(
        expand_divided(monomial_expansion(x), x.layer.quiver), y)


def kashiwara_pair_expanded(pairs, y: HallElement) -> RatFunc:
    ctx = y.layer
    total = RatFunc.zero()
    for coeff, letters in pairs:
        cur = y
        dead = False
        for v in letters:
            cur = generic_rprime(ctx, ctx.simple_class(v), cur)
            if cur.is_zero():
                dead = True
                break
        if dead:
            continue
        const = cur.coeffs.get(ZERO_CLASS)
        if const is not None:
            total = total + coeff * const
    return total


# ----------------------------------------------------------------------
# expansion of a generic element in divided-power monomials


def monomial_words(quiver: Quiver, weight):
    """All divided-power words of the given weight, lexicographically."""
    out = []

    def rec(remaining, word):
        if all(r == 0 for r in remaining):
            out.append(tuple(word))
            return
        last = word[-1][0] if word else None
        for v in range(quiver.n):
            if v == last or remaining[v] == 0:
                continue
            for n in range(1, remaining[v] + 1):
                nxt = list(remaining)
                nxt[v] -= n
                rec(tuple(nxt), word + [(v, n)])

    rec(tuple(weight), [])
    out.sort()
    return out


def monomial_expansion(x: HallElement):
    """Some expression of x in divided-power words, as (word, RatFunc) pairs.

    Coefficient solve over Q(v); no integrality is claimed (used for pairing
    computations, where any representative works).
    """
    ctx = x.layer
    if x.is_zero():
        return []
    weight = x.pure_weight()
    words = monomial_words(ctx.quiver, weight)
    classes = ctx.classes_of_dim(weight)
    cols = []
    for w in words:
        tree = ExprTree(ctx.quiver, {w: LaurentPoly.one()})
        val = expr_evaluate(tree, ctx)
        cols.append([val.coeffs.get(cls, RatFunc.zero()) for cls in classes])
    target = [x.coeffs.get(cls, RatFunc.zero()) for cls in classes]
    sol = linalg.solve(cols, target, RatFunc)
    if sol is None:
        raise ValueError("monomials fail to span the weight space")
    return [(w, c) for w, c in zip(words, sol) if not c.is_zero()]


