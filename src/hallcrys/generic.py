"""The generic composition-algebra layer.

Hall polynomials by multi-prime interpolation (Dynkin quivers carry
field-independent class labels), elements with rational-function coefficients
in v (with q = v^2), the Lusztig symmetry formulas, divided-power expression
trees, and the Kashiwara pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .classtable import ClassTable, IsoClass, TableSet, ZERO_CLASS
from .quivers import Quiver, cartan_datum, dim_add, dim_sub, euler_bilinear, euler_symmetric
from .scalars import (LaurentPoly, RatFunc, eval_at_sqrt_q, parse_laurent,
                      quantum_binomial, quantum_factorial, render_laurent)

PRIME_POOL = (2, 3, 5, 7, 11, 13, 17)


class InterpolationUnstable(RuntimeError):
    pass


@dataclass(frozen=True)
class HallPolynomial:
    triple: tuple              # (lambda, alpha, beta) labels
    coeffs: tuple              # ascending coefficients in q, Fractions
    primes_used: tuple
    validation_prime: int

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else 0

    def eval_int(self, q: int) -> int:
        val = sum(c * q**k for k, c in enumerate(self.coeffs))
        assert val.denominator == 1
        return int(val)

    def as_laurent(self) -> LaurentPoly:
        """The polynomial with q replaced by v^2."""
        return LaurentPoly({2 * k: c for k, c in enumerate(self.coeffs)})


def _lagrange_fit(points):
    """Interpolating polynomial through (x, y) points, ascending coefficients."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] -= c * xj
                new[k + 1] += c
            basis = new
            denom *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += Fraction(yi) * c / denom
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class GenericContext:
    """Shared fixed-q tables over several primes plus interpolation caches."""

    def __init__(self, quiver: Quiver, dim_bound, primes=(2, 3, 5), pool=PRIME_POOL,
                 point_budget=500_000, ext_budget=200_000, tables=None):
        if len(primes) < 2:
            raise ValueError("need at least two primes (one for validation)")
        self.quiver = quiver
        self.dim_bound = tuple(dim_bound)
        self.primes = tuple(primes)
        self.pool = tuple(p for p in pool)
        self.point_budget = point_budget
        self.ext_budget = ext_budget
        # shared with other users of the same quiver and bound when given
        self._tables = tables if tables is not None else TableSet(
            lambda q: ClassTable(self.quiver, q, self.dim_bound, self.point_budget,
                                 self.ext_budget))
        self._hall_polys = {}
        self._aut_polys = {}
        self.datum = cartan_datum(quiver)
        self.generic_ok = quiver.is_dynkin()
        # label stability across the configured primes
        base = {it.label for it in self.table(self.primes[0]).catalog
                if not it.field_dependent}
        for p in self.primes[1:]:
            other = {it.label for it in self.table(p).catalog if not it.field_dependent}
            assert base == other, "rigid labels must not depend on the prime"

    def table(self, q: int) -> ClassTable:
        return self._tables[q]

    def require_generic(self):
        if not self.generic_ok:
            raise ValueError("generic coefficients are only supported over Dynkin quivers")

    # -- Hall polynomials -------------------------------------------------

    def hall_polynomial(self, lam: IsoClass, alpha: IsoClass, beta: IsoClass) -> HallPolynomial:
        self.require_generic()
        key = (lam, alpha, beta)
        if key in self._hall_polys:
            return self._hall_polys[key]
        points = []
        for p in self.primes[:2]:
            points.append((p, self.table(p).hall_number(lam, alpha, beta)))
        idx = 2
        used = list(self.primes[:2])
        while True:
            fit = _lagrange_fit(points)
            nxt = self._next_prime(used)
            if nxt is None:
                raise InterpolationUnstable(
                    f"hall polynomial for {key} unstable after primes {used}")
            val = self.table(nxt).hall_number(lam, alpha, beta)
            predicted = sum(c * nxt**k for k, c in enumerate(fit))
            if predicted == val:
                poly = HallPolynomial((lam.label, alpha.label, beta.label),
                                      fit, tuple(used), nxt)
                self._hall_polys[key] = poly
                return poly
            points.append((nxt, val))
            used.append(nxt)
            idx += 1

    def _next_prime(self, used):
        for p in self.pool:
            if p not in used:
                return p
        return None

    # -- generic automorphism orders ---------------------------------------

    def aut_poly(self, cls: IsoClass) -> LaurentPoly:
        """|Aut| as a polynomial in q = v^2 (Dynkin classes are rigid)."""
        self.require_generic()
        if cls in self._aut_polys:
            return self._aut_polys[cls]
        t0 = self.table(self.primes[0])
        mult = cls.multiplicities()
        labels = sorted(mult)
        cross = 0
        for la in labels:
            for lb in labels:
                if la != lb:
                    cross += mult[la] * mult[lb] * t0.hom_indec(la, lb)
        # cross-prime stability of the Hom dimensions entering the closed form
        t1 = self.table(self.primes[1])
        for la in labels:
            for lb in labels:
                assert t0.hom_indec(la, lb) == t1.hom_indec(la, lb), \
                    f"Hom({la},{lb}) must not depend on the prime"
        out = LaurentPoly({2 * cross: 1})
        for la in labels:
            s = mult[la]
            for t in range(s):
                out = out * (LaurentPoly({2 * s: 1}) - LaurentPoly({2 * t: 1}))
        self._aut_polys[cls] = out
        return out


class GenericElement:
    """Finitely supported map from field-independent labels to RatFunc in v."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: GenericContext, coeffs=None):
        self.ctx = ctx
        d = {}
        if coeffs:
            for cls, c in coeffs.items():
                if not isinstance(c, RatFunc):
                    c = RatFunc(c) if not isinstance(c, LaurentPoly) else RatFunc(c)
                if not c.is_zero():
                    d[cls] = c
        self.coeffs = d

    def is_zero(self):
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, GenericElement):
            return NotImplemented
        return self.ctx.quiver == other.ctx.quiver and self.coeffs == other.coeffs

    def __add__(self, other):
        d = dict(self.coeffs)
        for cls, c in other.coeffs.items():
            s = d.get(cls, RatFunc.zero()) + c
            if s.is_zero():
                d.pop(cls, None)
            else:
                d[cls] = s
        return GenericElement(self.ctx, d)

    def __sub__(self, other):
        return self + other.scale(RatFunc(-1))

    def scale(self, c) -> "GenericElement":
        if not isinstance(c, RatFunc):
            c = RatFunc(c)
        return GenericElement(self.ctx, {cls: v * c for cls, v in self.coeffs.items()})

    def weights(self):
        t = self.ctx.table(self.ctx.primes[0])
        return {t.class_dim(cls) for cls in self.coeffs}

    def pure_weight(self):
        ws = self.weights()
        if len(ws) != 1:
            raise ValueError(f"element of mixed weight: {sorted(ws)}")
        return next(iter(ws))

    def specialize(self, q: int):
        from .hallalg import HallElement
        table = self.ctx.table(q)
        return HallElement(table, {cls: eval_at_sqrt_q(c, q)
                                   for cls, c in self.coeffs.items()})

    def __str__(self):
        if self.is_zero():
            return "0"
        return " + ".join(f"({self.coeffs[cls]})*u[{cls.label}]"
                          for cls in self.support())

    __repr__ = __str__

    def to_json(self):
        return [[cls.label, str(self.coeffs[cls])] for cls in self.support()]


def generic_zero(ctx) -> GenericElement:
    return GenericElement(ctx)


def generic_identity(ctx) -> GenericElement:
    return GenericElement(ctx, {ZERO_CLASS: RatFunc.one()})


def generic_basis(ctx, cls: IsoClass) -> GenericElement:
    return GenericElement(ctx, {cls: RatFunc.one()})


def generic_chevalley(ctx, v: int) -> GenericElement:
    return generic_basis(ctx, ctx.table(ctx.primes[0]).simple_class(v))


def generic_multiply(x: GenericElement, y: GenericElement,
                     check_prime: bool = True) -> GenericElement:
    """Generic product via Hall polynomials; specialization at the first
    configured prime is verified against the fixed-q product."""
    ctx = x.ctx
    ctx.require_generic()
    t0 = ctx.table(ctx.primes[0])
    out = {}
    for a, ca in x.coeffs.items():
        da = t0.class_dim(a)
        for b, cb in y.coeffs.items():
            db = t0.class_dim(b)
            twist = RatFunc.v_power(-euler_bilinear(ctx.quiver, db, da))
            coeff = ca * cb * twist
            for lam in t0.classes_of_dim(dim_add(da, db)):
                hp = ctx.hall_polynomial(lam, a, b)
                if not hp.coeffs or all(c == 0 for c in hp.coeffs):
                    continue
                term = coeff * RatFunc(hp.as_laurent())
                s = out.get(lam, RatFunc.zero()) + term
                if s.is_zero():
                    out.pop(lam, None)
                else:
                    out[lam] = s
    res = GenericElement(ctx, out)
    if check_prime:
        from .hallalg import multiply as fq_multiply
        p = ctx.primes[0]
        lhs = res.specialize(p)
        rhs = fq_multiply(x.specialize(p), y.specialize(p))
        assert lhs == rhs, "generic product failed its fixed-q spot check"
    return res


def generic_power(x: GenericElement, n: int) -> GenericElement:
    out = generic_identity(x.ctx)
    for _ in range(n):
        out = generic_multiply(out, x, check_prime=False)
    return out


def generic_divided_power_simple(ctx, v: int, n: int) -> GenericElement:
    """E_v^{(n)} = <u_{n S_v}> as a generic basis vector."""
    if n == 0:
        return generic_identity(ctx)
    t0 = ctx.table(ctx.primes[0])
    cls = IsoClass(tuple(sorted((f"S{ctx.quiver.vertices[v]}",) * n)))
    return generic_basis(ctx, cls)


def generic_rprime(ctx, alpha: IsoClass, x: GenericElement) -> GenericElement:
    """r'_alpha with rational-function coefficients (f'_i when alpha = S_i)."""
    ctx.require_generic()
    t0 = ctx.table(ctx.primes[0])
    da = t0.class_dim(alpha)
    a_a = RatFunc(ctx.aut_poly(alpha))
    out = {}
    for lam, cl in x.coeffs.items():
        dl = t0.class_dim(lam)
        db = dim_sub(dl, da)
        if any(d < 0 for d in db):
            continue
        a_l = RatFunc(ctx.aut_poly(lam))
        for beta in t0.classes_of_dim(db):
            hp = ctx.hall_polynomial(lam, alpha, beta)
            if not any(hp.coeffs):
                continue
            exp = euler_bilinear(ctx.quiver, da, t0.class_dim(beta)) \
                + euler_symmetric(ctx.quiver, da, t0.class_dim(beta))
            a_b = RatFunc(ctx.aut_poly(beta))
            coeff = RatFunc.v_power(exp) * RatFunc(hp.as_laurent()) * a_b * a_a / a_l
            s = out.get(beta, RatFunc.zero()) + cl * coeff
            if s.is_zero():
                out.pop(beta, None)
            else:
                out[beta] = s
    return GenericElement(ctx, out)


def generic_ringel_pair(x: GenericElement, y: GenericElement) -> RatFunc:
    ctx = x.ctx
    t0 = ctx.table(ctx.primes[0])
    total = RatFunc.zero()
    for cls, cx in x.coeffs.items():
        cy = y.coeffs.get(cls)
        if cy is None:
            continue
        d = t0.class_dim(cls)
        norm = RatFunc.v_power(euler_symmetric(ctx.quiver, d, d)) / RatFunc(ctx.aut_poly(cls))
        total = total + cx * cy * norm
    return total


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

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        d = dict(self.terms)
        for w, c in other.terms.items():
            s = d.get(w, LaurentPoly.zero()) + c
            if s.is_zero():
                d.pop(w, None)
            else:
                d[w] = s
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
                c = c1 * c2 * extra
                s = out.get(word, LaurentPoly.zero()) + c
                if s.is_zero():
                    out.pop(word, None)
                else:
                    out[word] = s
        return ExprTree(self.quiver, out)

    def is_laurent_integral(self) -> bool:
        return all(c.is_laurent_integral() for c in self.terms.values())

    def weight(self):
        ws = set()
        for word in self.terms:
            w = [0] * self.quiver.n
            for v, n in word:
                w[v] += n
            ws.add(tuple(w))
        if len(ws) > 1:
            raise ValueError(f"tree of mixed weight {sorted(ws)}")
        return next(iter(ws)) if ws else (0,) * self.quiver.n

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


def expr_evaluate_fixed(tree: ExprTree, table: ClassTable):
    """Multiply the tree out in the fixed-q Hall algebra, left to right."""
    from .hallalg import HallElement, identity_element, multiply, rescale
    total = HallElement(table)
    for word, coeff in tree.terms.items():
        cur = identity_element(table)
        for v, n in word:
            cls = IsoClass(tuple(sorted((f"S{table.quiver.vertices[v]}",) * n)))
            cur = multiply(cur, rescale(table, cls))
        total = total + cur.scale(eval_at_sqrt_q(coeff, table.q))
    return total


def expr_evaluate_generic(tree: ExprTree, ctx: GenericContext) -> GenericElement:
    total = generic_zero(ctx)
    for word, coeff in tree.terms.items():
        cur = generic_identity(ctx)
        for v, n in word:
            cur = generic_multiply(cur, generic_divided_power_simple(ctx, v, n),
                                   check_prime=False)
        total = total + cur.scale(RatFunc(coeff))
    return total


def lusztig_symmetry_tree(quiver: Quiver, i: int, j: int) -> ExprTree:
    """T''_{i,1}(E_j) = sum_{r+s=-a_ij} (-1)^r v^{-r eps_i} E_i^{(s)} E_j E_i^{(r)}."""
    if i == j:
        raise ValueError("T''_{i,1}(E_i) leaves the positive part")
    datum = cartan_datum(quiver)
    aij = datum.a_ij(i, j)
    eps_i = datum.symmetrizers[i]
    total = ExprTree.zero(quiver)
    for r in range(-aij + 1):
        s = -aij - r
        sign = -1 if r % 2 else 1
        coeff = LaurentPoly({-r * eps_i: sign})
        term = (ExprTree.letter(quiver, i, s) * ExprTree.letter(quiver, j, 1)
                * ExprTree.letter(quiver, i, r)).scale(coeff)
        total = total + term
    return total


def lusztig_symmetry_generator(ctx: GenericContext, i: int, j: int) -> GenericElement:
    """The displayed sum evaluated in ctx's generic composition algebra."""
    return expr_evaluate_generic(lusztig_symmetry_tree(ctx.quiver, i, j), ctx)


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


def kashiwara_pair(tree: ExprTree, y: GenericElement) -> RatFunc:
    """(x, y)_K via (1,1)_K = 1 and (E_i x', y)_K = (x', f'_i(y))_K."""
    return kashiwara_pair_expanded(
        expand_divided(tree.terms.items(), tree.quiver), y)


def kashiwara_pair_elements(x: GenericElement, y: GenericElement) -> RatFunc:
    """(x, y)_K with x re-expressed in divided-power monomials first."""
    return kashiwara_pair_expanded(
        expand_divided(monomial_expansion(x), x.ctx.quiver), y)


def kashiwara_pair_expanded(pairs, y: GenericElement) -> RatFunc:
    ctx = y.ctx
    t0 = ctx.table(ctx.primes[0])
    total = RatFunc.zero()
    for coeff, letters in pairs:
        cur = y
        dead = False
        for v in letters:
            cur = generic_rprime(ctx, t0.simple_class(v), cur)
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


def monomial_words(quiver: Quiver, weight, max_letters=None):
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


def monomial_expansion(x: GenericElement):
    """Some expression of x in divided-power words, as (word, RatFunc) pairs.

    Coefficient solve over Q(v); no integrality is claimed (used for pairing
    computations, where any representative works).
    """
    ctx = x.ctx
    if x.is_zero():
        return []
    weight = x.pure_weight()
    words = monomial_words(ctx.quiver, weight)
    t0 = ctx.table(ctx.primes[0])
    classes = t0.classes_of_dim(weight)
    cols = []
    for w in words:
        tree = ExprTree(ctx.quiver, {w: LaurentPoly.one()})
        val = expr_evaluate_generic(tree, ctx)
        cols.append([val.coeffs.get(cls, RatFunc.zero()) for cls in classes])
    target = [x.coeffs.get(cls, RatFunc.zero()) for cls in classes]
    sol = linalg.solve(cols, target, RatFunc)
    if sol is None:
        raise ValueError("monomials fail to span the weight space")
    return [(w, c) for w, c in zip(words, sol) if not c.is_zero()]


