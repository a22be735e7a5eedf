"""Kashiwara's machinery in the Hall basis.

String decompositions along ker f'_i, the operators Etilde/Ftilde, breadth
first generation of the crystal B(infinity) up to a weight bound, lattice
membership, and the crystal certificates for exceptional classes.

The <u_lambda> basis is orthogonal for the Ringel pairing, and each norm
n_lambda lies in v^{-2 e_lambda}(1 + v^-1 A).  So an element y lies in
L(infinity) exactly when every v^{-e_lambda} y_lambda is regular at v =
infinity, and mod v^-1 A the pairing of two such elements is the dot product
of their reductions (the values there).  Crystal generation deduplicates with
these reductions, read off from degrees and leading coefficients;
:func:`membership_L` and the Ringel pairing itself stay as the oracle used by
the tests and by the certificates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .checks import CheckFailed, check
from .classtable import IsoClass
from .generic import (ExprTree, GenericContext, expand_divided, generic_ringel_pair,
                      generic_rprime)
from .hallalg import (HallElement, divided_power_simple, identity_element, multiply,
                      rescale, ringel_pair, zero_element)
from .quivers import euler_symmetric
from .scalars import (LaurentPoly, RatFunc, _div, a_membership, eval_at_sqrt_q,
                      in_one_plus_vinv_A)


class CrystalFalsification(CheckFailed):
    """Raised when a computation contradicts a theorem under test."""


# ----------------------------------------------------------------------
# f' and f'' on monomial trees (the defining letter recursions)


def fprime(ctx: GenericContext, i: int, x: HallElement) -> HallElement:
    """f'_i = r'_{S_i} on the generic layer."""
    return generic_rprime(ctx, ctx.simple_class(i), x)


def fprime_tree(ctx: GenericContext, i: int, tree: ExprTree) -> HallElement:
    """f'_i by the defining recursion f'_i(E_j P) = v_i^{a_ij} E_j f'_i(P) + d_ij P.

    An independent route from :func:`fprime`; both must agree.
    """
    return _letter_recursion(ctx, i, tree, sign=+1)


def fdoubleprime_tree(ctx: GenericContext, i: int, tree: ExprTree) -> HallElement:
    """f''_i: the mirrored recursion with v_i^{-a_ij}."""
    return _letter_recursion(ctx, i, tree, sign=-1)


def _letter_recursion(ctx, i, tree, sign):
    datum = ctx.datum
    total = zero_element(ctx)
    for coeff, letters in expand_divided(tree.terms.items(), tree.quiver):
        total = total + _word_recursion(ctx, i, letters, datum, sign).scale(coeff)
    return total


def _word_recursion(ctx, i, letters, datum, sign):
    if not letters:
        return zero_element(ctx)
    j, rest = letters[0], letters[1:]
    ej = divided_power_simple(ctx, j, 1)
    sub = _word_recursion(ctx, i, rest, datum, sign)
    out = zero_element(ctx)
    if not sub.is_zero():
        twist = RatFunc.v_power(sign * datum.symmetrizers[i] * datum.a_ij(i, j))
        out = out + multiply(ej, sub).scale(twist)
    if i == j:
        out = out + _evaluate_letters(ctx, rest)
    return out


def _evaluate_letters(ctx, letters):
    cur = identity_element(ctx)
    for v in letters:
        cur = multiply(cur, divided_power_simple(ctx, v, 1))
    return cur


# ----------------------------------------------------------------------
# string decomposition U+ = sum_n E_i^(n) ker f'_i


@dataclass
class StringDecomposition:
    vertex: int
    components: list            # (n, HallElement in ker f'_i), n ascending

    def reassemble(self, ctx: GenericContext) -> HallElement:
        total = zero_element(ctx)
        for n, xn in self.components:
            total = total + multiply(divided_power_simple(ctx, self.vertex, n), xn)
        return total


class SingularStringSystem(CheckFailed):
    """A string component peeled off by :func:`string_decompose` lies outside
    ker f'_i, so E_i^(n) and f'_i break f'_i(E_i^(n) y) = v_i^(n-1) E_i^(n-1) y."""


def kernel_basis(ctx: GenericContext, i: int, weight):
    """Basis of ker f'_i inside the weight space, as HallElements, by a
    nullspace over Q(v).

    The oracle for :func:`string_decompose`, which uses no elimination: the
    tests solve for x over the lifts E_i^(n) y of these elements.
    """
    classes = ctx.classes_of_dim(weight)
    below = tuple(w - (1 if v == i else 0) for v, w in enumerate(weight))
    if not classes or any(w < 0 for w in below):
        return [rescale(ctx, cls) for cls in classes]
    target = ctx.classes_of_dim(below)
    cols = []
    for cls in classes:
        img = generic_rprime(ctx, ctx.simple_class(i), rescale(ctx, cls))
        cols.append([img.coeffs.get(tc, RatFunc.zero()) for tc in target])
    return [HallElement(ctx, {cls: c for cls, c in zip(classes, vec) if not c.is_zero()})
            for vec in linalg.nullspace(cols, len(target), RatFunc)]


def string_decompose(ctx: GenericContext, i: int, x: HallElement) -> StringDecomposition:
    """Decompose x = sum_n E_i^{(n)} x_n with f'_i(x_n) = 0, by peeling.

    For y in ker f'_i the recursion f'_i(E_i P) = v_i^2 E_i f'_i(P) + P gives
    f'_i(E_i^{(n)} y) = v_i^{n-1} E_i^{(n-1)} y, so f'_i^n kills the
    components below n and sends E_i^{(n)} x_n to v_i^{n(n-1)/2} x_n.  From
    n = weight[i] down to 0, x_n is read off the rest that way and
    E_i^{(n)} x_n is taken off it, so the components sum to x by
    construction.  Each x_n is checked to lie in ker f'_i, and
    :class:`SingularStringSystem` is raised otherwise.  The tests keep the
    exact solve over lifts of :func:`kernel_basis` elements as the oracle.
    """
    if x.is_zero():
        return StringDecomposition(i, [])
    ctx.require_generic()
    weight = x.pure_weight()
    d_i = ctx.datum.symmetrizers[i]
    comps = []
    rest = x
    for n in range(weight[i], -1, -1):
        xn = rest
        for _ in range(n):
            xn = fprime(ctx, i, xn)
        if xn.is_zero():
            continue
        xn = xn.scale(RatFunc.v_power(-d_i * n * (n - 1) // 2))
        if not fprime(ctx, i, xn).is_zero():
            raise SingularStringSystem(
                f"string component {n} at weight {weight}, vertex {i} "
                f"is not in ker f'_i")
        comps.append((n, xn))
        if n:
            rest = rest - multiply(divided_power_simple(ctx, i, n), xn)
    return StringDecomposition(i, comps[::-1])


def kashiwara_apply(kind: str, ctx: GenericContext, i: int,
                    x: HallElement) -> HallElement:
    """Etilde_i / Ftilde_i: shift the E_i-string up or down."""
    dec = string_decompose(ctx, i, x)
    total = zero_element(ctx)
    for n, xn in dec.components:
        if kind == "Etilde":
            m = n + 1
        elif kind == "Ftilde":
            if n == 0:
                continue
            m = n - 1
        else:
            raise ValueError(f"unknown Kashiwara operator {kind!r}")
        total = total + multiply(divided_power_simple(ctx, i, m), xn)
    return total


def etilde(ctx, i, x):
    return kashiwara_apply("Etilde", ctx, i, x)


def ftilde(ctx, i, x):
    return kashiwara_apply("Ftilde", ctx, i, x)


# ----------------------------------------------------------------------
# membership in the crystal lattice


def membership_L(x: HallElement) -> bool:
    """x in L(infinity) iff (x, x)_R is regular at v = infinity."""
    return a_membership(generic_ringel_pair(x, x)).in_A


def norm_exponent(ctx: GenericContext, cls: IsoClass) -> int:
    """e with n_cls = v^{(d,d)} / a_cls in v^{-2e}(1 + v^-1 A), memoised."""
    memo = vars(ctx).setdefault("_norm_exponents", {})
    if cls in memo:
        return memo[cls]
    d = ctx.class_dim(cls)
    dd = euler_symmetric(ctx.quiver, d, d)
    aut = ctx.aut_poly(cls)
    twice = aut.degree() - dd
    if twice < 0 or twice % 2:
        raise CrystalFalsification(
            f"norm of {cls.label} has odd or negative exponent {twice}/2")
    if not in_one_plus_vinv_A(RatFunc(LaurentPoly.v_power(dd + twice), aut)):
        raise CrystalFalsification(
            f"norm of {cls.label} times v^{twice} is not in 1 + v^-1 A")
    memo[cls] = twice // 2
    return twice // 2


def reduction_at_infinity(x: HallElement) -> dict | None:
    """{cls: value of v^{-e_cls} x_cls at v = infinity}, zeros dropped.

    None when some v^{-e_cls} x_cls has a pole there, that is when x is not
    in L(infinity): (x, x) is a sum of squares with positive leading terms, so
    it is regular at infinity exactly when every summand is.
    """
    out = {}
    for cls, c in x.coeffs.items():
        gap = c.num.degree() - norm_exponent(x.layer, cls) - c.den.degree()
        if gap > 0:
            return None
        if gap == 0:
            out[cls] = _div(c.num.leading_coeff(), c.den.leading_coeff())
    return out


def reduced_pair(r1: dict, r2: dict):
    """The Ringel pairing mod v^-1 A of two elements of L(infinity)."""
    return sum(c * r2[cls] for cls, c in r1.items() if cls in r2)


# ----------------------------------------------------------------------
# B(infinity) up to a weight bound


@dataclass(frozen=True)
class CrystalVertex:
    word: tuple                  # operator word, leftmost applied last
    weight: tuple
    rep: HallElement = field(compare=False, repr=False)
    reduction: dict = field(compare=False, repr=False)   # reduction_at_infinity(rep)

    @property
    def word_label(self) -> str:
        return ".".join(str(i + 1) for i in self.word) if self.word else "e"


class Crystal:
    """B(infinity) vertices of total weight <= bound, generated by BFS.

    Vertices are deduplicated modulo v^-1 L by their reductions at v =
    infinity: accepted representatives at one weight have orthonormal
    reductions, and a candidate equal to an accepted one pairs to 1 with it.
    The Ringel pairing itself is not evaluated here; the tests use it as the
    oracle for these reduced pairings.

    An optional ``box`` (one nonnegative bound per vertex, or ValueError)
    keeps only the weights inside it: Etilde_i is not applied where it would
    leave the box.  Etilde_i raises the weight by e_i, so every vertex inside
    the box is reached through weights inside it, and each of those buckets
    receives the same candidates in the same order as in the full triangle.
    """

    def __init__(self, ctx: GenericContext, weight_bound: int, box=None):
        ctx.require_generic()
        self.ctx = ctx
        self.weight_bound = weight_bound
        self.box = (ctx.quiver.vertex_bound(box, "crystal box") if box is not None
                    else (weight_bound,) * ctx.quiver.n)
        self.by_weight = {}
        self.falsifications = []
        self._generate()

    def _generate(self):
        ctx = self.ctx
        one = identity_element(ctx)
        unit = CrystalVertex((), (0,) * ctx.quiver.n, one, reduction_at_infinity(one))
        self.by_weight[unit.weight] = [unit]
        frontier = [unit]
        for level in range(self.weight_bound):
            nxt = []
            for b in sorted(frontier, key=lambda vv: vv.word):
                for i in range(ctx.quiver.n):
                    if b.weight[i] >= self.box[i]:
                        continue
                    y = etilde(ctx, i, b.rep)
                    check(not y.is_zero(), "Etilde never kills a crystal vector")
                    weight = tuple(w + (1 if v == i else 0)
                                   for v, w in enumerate(b.weight))
                    vertex = self._accept(y, (i,) + b.word, weight)
                    if vertex is not None:
                        nxt.append(vertex)
            frontier = nxt

    def _accept(self, y: HallElement, word, weight):
        red = reduction_at_infinity(y)
        if red is None:
            raise CrystalFalsification(
                f"Etilde image at word {word} left the lattice L(infinity)")
        # both sides lie in L(infinity), so every pairing below is in A
        bucket = self.by_weight.setdefault(weight, [])
        for b in bucket:
            unit = reduced_pair(red, b.reduction)
            if unit == 1:
                return None           # same crystal vector mod v^-1 L
            if unit == -1:
                self.falsifications.append(
                    f"pairing -1 between words {word} and {b.word}")
                return None
            if unit != 0:
                raise CrystalFalsification(
                    f"pairing unit {unit} between {word} and {b.word}")
        norm = reduced_pair(red, red)
        if norm != 1:
            raise CrystalFalsification(
                f"candidate at word {word} has norm unit {norm}")
        vertex = CrystalVertex(tuple(word), weight, y, red)
        bucket.append(vertex)
        return vertex

    def vertices_of_weight(self, weight):
        return list(self.by_weight.get(tuple(weight), []))

    def all_vertices(self):
        out = []
        for w in sorted(self.by_weight):
            out.extend(self.by_weight[w])
        return out


# ----------------------------------------------------------------------
# crystal certificates for exceptional classes


@dataclass
class CrystalCertificate:
    label: str
    norm: RatFunc
    norm_in_one_plus_vinv_A: bool
    validation_primes: tuple
    matched_word: str | None = None
    pairing_units: dict | None = None
    sign: int | None = None
    falsifications: list = field(default_factory=list)
    tree: list | None = None

    @property
    def passed(self) -> bool:
        return self.norm_in_one_plus_vinv_A and not self.falsifications

    def to_json(self):
        return {
            "label": self.label,
            "norm": str(self.norm),
            "norm_in_one_plus_vinv_A": self.norm_in_one_plus_vinv_A,
            "validation_primes": list(self.validation_primes),
            "matched_word": self.matched_word,
            "pairing_units": ({k: str(u) for k, u in self.pairing_units.items()}
                              if self.pairing_units is not None else None),
            "sign": self.sign,
            "falsifications": list(self.falsifications),
            "tree": self.tree,
        }


def exceptional_norm(ctx: GenericContext, cls: IsoClass) -> RatFunc:
    """Closed-form norm prod_i prod_{t<s_i} 1/(1 - v^{-2(s_i-t) eps_i}).

    eps_i = dim End of the indecomposable part, read at the first prime; the
    context's TableSet checks it against every other prime's table.
    """
    t0 = ctx.table(ctx.primes[0])
    if not t0.is_exceptional(cls):
        raise ValueError(f"{cls.label} is not exceptional")
    norm = RatFunc.one()
    for part, s in sorted(cls.multiplicities().items()):
        eps = t0.hom_indec(part, part)
        for t in range(s):
            norm = norm * (RatFunc.one() /
                           (RatFunc.one() - RatFunc.v_power(-2 * (s - t) * eps)))
    return norm


def certify_exceptional(ctx: GenericContext, cls: IsoClass,
                        crystal: Crystal | None = None,
                        tree_json=None) -> CrystalCertificate:
    """Crystal membership audit: norm in 1 + v^-1 A, and (on Dynkin layers)
    the unique crystal vertex pairing to +1 with <u_cls> mod v^-1 A."""
    t0 = ctx.table(ctx.primes[0])
    if not t0.is_exceptional(cls):
        raise ValueError(f"{cls.label} is not exceptional")
    norm = exceptional_norm(ctx, cls)
    falsifications = []
    # validate the closed form against the fixed-q pairing at every prime
    for p in ctx.primes:
        t = ctx.table(p)
        fixed = ringel_pair(rescale(t, cls), rescale(t, cls))
        if eval_at_sqrt_q(norm, p) != fixed:
            falsifications.append(f"norm closed form fails at q={p}")
    ok = in_one_plus_vinv_A(norm)
    if not ok:
        falsifications.append("norm is not in 1 + v^-1 A")
    cert = CrystalCertificate(label=cls.label, norm=norm,
                              norm_in_one_plus_vinv_A=ok,
                              validation_primes=ctx.primes,
                              falsifications=falsifications, tree=tree_json)
    if not ctx.generic_ok or crystal is None:
        return cert
    x = rescale(ctx, cls)
    weight = ctx.class_dim(cls)
    units = {}
    matched = []
    for b in crystal.vertices_of_weight(weight):
        pairing = generic_ringel_pair(x, b.rep)
        m = a_membership(pairing)
        if not m.in_A:
            falsifications.append(f"pairing with word {b.word_label} not in A")
            continue
        units[b.word_label] = m.unit_part
        if m.unit_part == 1:
            matched.append(b)
        elif m.unit_part == -1:
            falsifications.append(
                f"sign -1 against crystal word {b.word_label} "
                f"(positive crystal membership falsified)")
        elif m.unit_part != 0:
            falsifications.append(
                f"non-crystal pairing unit {m.unit_part} at word {b.word_label}")
    cert.pairing_units = units
    if len(matched) == 1 and not falsifications:
        cert.matched_word = matched[0].word_label
        cert.sign = 1
    elif not matched:
        falsifications.append("no crystal vertex pairs to +1")
    else:
        falsifications.append("crystal match is not unique")
    cert.falsifications = falsifications
    return cert
