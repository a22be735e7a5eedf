"""Kashiwara's machinery in the Hall basis.

String decompositions along ker f'_i, the operators Etilde/Ftilde, breadth
first generation of the crystal B(infinity) up to a weight bound with
deduplication through the Ringel pairing mod v^-1 A, lattice membership, and
the crystal certificates for exceptional classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .classtable import IsoClass
from .generic import (ExprTree, GenericContext, GenericElement, expand_divided,
                      generic_basis, generic_divided_power_simple,
                      generic_identity, generic_multiply, generic_ringel_pair,
                      generic_rprime, generic_zero)
from .scalars import (RatFunc, a_membership, eval_at_sqrt_q,
                      in_one_plus_vinv_A)


class CrystalFalsification(RuntimeError):
    """Raised when a computation contradicts a theorem under test."""


# ----------------------------------------------------------------------
# f' and f'' on monomial trees (the defining letter recursions)


def fprime(ctx: GenericContext, i: int, x: GenericElement) -> GenericElement:
    """f'_i = r'_{S_i} on the generic layer."""
    t0 = ctx.table(ctx.primes[0])
    return generic_rprime(ctx, t0.simple_class(i), x)


def fprime_tree(ctx: GenericContext, i: int, tree: ExprTree) -> GenericElement:
    """f'_i by the defining recursion f'_i(E_j P) = v_i^{a_ij} E_j f'_i(P) + d_ij P.

    An independent route from :func:`fprime`; both must agree.
    """
    return _letter_recursion(ctx, i, tree, sign=+1)


def fdoubleprime_tree(ctx: GenericContext, i: int, tree: ExprTree) -> GenericElement:
    """f''_i: the mirrored recursion with v_i^{-a_ij}."""
    return _letter_recursion(ctx, i, tree, sign=-1)


def _letter_recursion(ctx, i, tree, sign):
    datum = ctx.datum
    total = generic_zero(ctx)
    for coeff, letters in expand_divided(tree.terms.items(), tree.quiver):
        total = total + _word_recursion(ctx, i, letters, datum, sign).scale(coeff)
    return total


def _word_recursion(ctx, i, letters, datum, sign):
    if not letters:
        return generic_zero(ctx)
    j, rest = letters[0], letters[1:]
    ej = generic_divided_power_simple(ctx, j, 1)
    sub = _word_recursion(ctx, i, rest, datum, sign)
    out = generic_zero(ctx)
    if not sub.is_zero():
        twist = RatFunc.v_power(sign * datum.symmetrizers[i] * datum.a_ij(i, j))
        out = out + generic_multiply(ej, sub, check_prime=False).scale(twist)
    if i == j:
        out = out + _evaluate_letters(ctx, rest)
    return out


def _evaluate_letters(ctx, letters):
    cur = generic_identity(ctx)
    for v in letters:
        cur = generic_multiply(cur, generic_divided_power_simple(ctx, v, 1),
                               check_prime=False)
    return cur


# ----------------------------------------------------------------------
# string decomposition U+ = sum_n E_i^(n) ker f'_i


@dataclass
class StringDecomposition:
    vertex: int
    components: list            # (n, GenericElement in ker f'_i), n ascending

    def reassemble(self, ctx: GenericContext) -> GenericElement:
        total = generic_zero(ctx)
        for n, xn in self.components:
            total = total + generic_multiply(
                generic_divided_power_simple(ctx, self.vertex, n), xn,
                check_prime=False)
        return total


class SingularStringSystem(RuntimeError):
    """The direct-sum decomposition failed to produce a solvable system."""


def _weight_basis(ctx: GenericContext, weight):
    t0 = ctx.table(ctx.primes[0])
    return t0.classes_of_dim(weight)


def kernel_basis(ctx: GenericContext, i: int, weight):
    """Basis of ker f'_i inside the weight space, as GenericElements."""
    memo = _ctx_memo(ctx).setdefault("kernel", {})
    key = (i, tuple(weight))
    if key in memo:
        return memo[key]
    t0 = ctx.table(ctx.primes[0])
    classes = _weight_basis(ctx, weight)
    if not classes:
        memo[key] = []
        return []
    below = tuple(w - (1 if v == i else 0) for v, w in enumerate(weight))
    if any(w < 0 for w in below):
        out = [generic_basis(ctx, cls) for cls in classes]
        memo[key] = out
        return out
    target = _weight_basis(ctx, below)
    cols = []
    for cls in classes:
        img = generic_rprime(ctx, t0.simple_class(i), generic_basis(ctx, cls))
        cols.append([img.coeffs.get(tc, RatFunc.zero()) for tc in target])
    # nullspace of the (target x classes) matrix
    null = linalg.nullspace(cols, len(target), RatFunc)
    out = []
    for vec in null:
        coeffs = {cls: c for cls, c in zip(classes, vec) if not c.is_zero()}
        out.append(GenericElement(ctx, coeffs))
    memo[key] = out
    return out


def _ctx_memo(ctx) -> dict:
    memo = getattr(ctx, "_crystal_memo", None)
    if memo is None:
        memo = {}
        ctx._crystal_memo = memo
    return memo


def _string_lifts(ctx: GenericContext, i: int, weight):
    """Cached (n, kernel element, lifted coordinate column) triples."""
    memo = _ctx_memo(ctx).setdefault("lifts", {})
    key = (i, tuple(weight))
    if key in memo:
        return memo[key]
    classes = _weight_basis(ctx, weight)
    lifts = []
    for n in range(0, weight[i] + 1):
        below = tuple(w - (n if v == i else 0) for v, w in enumerate(weight))
        if any(w < 0 for w in below):
            break
        for ker_el in kernel_basis(ctx, i, below):
            lifted = generic_multiply(generic_divided_power_simple(ctx, i, n),
                                      ker_el, check_prime=False)
            lifts.append((n, ker_el,
                          [lifted.coeffs.get(cls, RatFunc.zero()) for cls in classes]))
    memo[key] = lifts
    return lifts


def string_decompose(ctx: GenericContext, i: int, x: GenericElement) -> StringDecomposition:
    """Decompose x = sum_n E_i^{(n)} x_n with f'_i(x_n) = 0, exactly."""
    if x.is_zero():
        return StringDecomposition(i, [])
    ctx.require_generic()
    weight = x.pure_weight()
    classes = _weight_basis(ctx, weight)
    lifts = _string_lifts(ctx, i, weight)
    cols = [lift[2] for lift in lifts]
    target = [x.coeffs.get(cls, RatFunc.zero()) for cls in classes]
    rank_memo = _ctx_memo(ctx).setdefault("full_rank", set())
    key = (i, tuple(weight))
    if key not in rank_memo:
        if linalg.nullspace(cols, len(classes), RatFunc):
            raise SingularStringSystem("string lifts are linearly dependent")
        rank_memo.add(key)
    sol = linalg.solve(cols, target, RatFunc)
    if sol is None:
        raise SingularStringSystem(
            f"string system at weight {weight}, vertex {i} is singular")
    parts = {}
    for (n, ker_el, _), c in zip(lifts, sol):
        if c.is_zero():
            continue
        parts[n] = parts.get(n, generic_zero(ctx)) + ker_el.scale(c)
    comps = [(n, el) for n, el in sorted(parts.items()) if not el.is_zero()]
    dec = StringDecomposition(i, comps)
    assert dec.reassemble(ctx) == x, "string reassembly must be exact"
    for n, el in comps:
        assert fprime(ctx, i, el).is_zero(), "components must lie in ker f'_i"
    return dec


def kashiwara_apply(kind: str, ctx: GenericContext, i: int,
                    x: GenericElement) -> GenericElement:
    """Etilde_i / Ftilde_i: shift the E_i-string up or down."""
    dec = string_decompose(ctx, i, x)
    total = generic_zero(ctx)
    for n, xn in dec.components:
        if kind == "Etilde":
            m = n + 1
        elif kind == "Ftilde":
            if n == 0:
                continue
            m = n - 1
        else:
            raise ValueError(f"unknown Kashiwara operator {kind!r}")
        total = total + generic_multiply(
            generic_divided_power_simple(ctx, i, m), xn, check_prime=False)
    return total


def etilde(ctx, i, x):
    return kashiwara_apply("Etilde", ctx, i, x)


def ftilde(ctx, i, x):
    return kashiwara_apply("Ftilde", ctx, i, x)


# ----------------------------------------------------------------------
# membership in the crystal lattice


def membership_L(x: GenericElement) -> bool:
    """x in L(infinity) iff (x, x)_R is regular at v = infinity."""
    return a_membership(generic_ringel_pair(x, x)).in_A


# ----------------------------------------------------------------------
# B(infinity) up to a weight bound


@dataclass(frozen=True)
class CrystalVertex:
    word: tuple                  # operator word, leftmost applied last
    weight: tuple
    rep: GenericElement = field(compare=False, repr=False)

    @property
    def word_label(self) -> str:
        return ".".join(str(i + 1) for i in self.word) if self.word else "e"


class Crystal:
    """B(infinity) vertices of total weight <= bound, generated by BFS.

    Vertices are deduplicated modulo v^-1 L via the Ringel pairing: accepted
    representatives at one weight are pairwise orthogonal mod v^-1 A and a
    candidate equal to an accepted one pairs to unit part 1.
    """

    def __init__(self, ctx: GenericContext, weight_bound: int):
        ctx.require_generic()
        self.ctx = ctx
        self.weight_bound = weight_bound
        self.by_weight = {}
        self.falsifications = []
        self._generate()

    def _generate(self):
        ctx = self.ctx
        unit = CrystalVertex((), (0,) * ctx.quiver.n, generic_identity(ctx))
        self.by_weight[unit.weight] = [unit]
        frontier = [unit]
        for level in range(self.weight_bound):
            nxt = []
            for b in sorted(frontier, key=lambda vv: vv.word):
                for i in range(ctx.quiver.n):
                    y = etilde(ctx, i, b.rep)
                    assert not y.is_zero(), "Etilde never kills a crystal vector"
                    weight = tuple(w + (1 if v == i else 0)
                                   for v, w in enumerate(b.weight))
                    vertex = self._accept(y, (i,) + b.word, weight)
                    if vertex is not None:
                        nxt.append(vertex)
            frontier = nxt

    def _accept(self, y: GenericElement, word, weight):
        if not membership_L(y):
            raise CrystalFalsification(
                f"Etilde image at word {word} left the lattice L(infinity)")
        bucket = self.by_weight.setdefault(weight, [])
        for b in bucket:
            pairing = generic_ringel_pair(y, b.rep)
            cls = a_membership(pairing)
            if not cls.in_A:
                raise CrystalFalsification(
                    f"pairing of crystal words {word} and {b.word} is not in A")
            if cls.unit_part == 1:
                return None           # same crystal vector mod v^-1 L
            if cls.unit_part == -1:
                self.falsifications.append(
                    f"pairing -1 between words {word} and {b.word}")
                return None
            if cls.unit_part != 0:
                raise CrystalFalsification(
                    f"pairing unit {cls.unit_part} between {word} and {b.word}")
        norm = a_membership(generic_ringel_pair(y, y))
        if not (norm.in_A and norm.unit_part == 1):
            raise CrystalFalsification(
                f"candidate at word {word} has norm unit {norm.unit_part}")
        vertex = CrystalVertex(tuple(word), weight, y)
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

    eps_i = dim End of the indecomposable part, measured at one prime and
    revalidated at a second (label-instability guard).
    """
    t0 = ctx.table(ctx.primes[0])
    t1 = ctx.table(ctx.primes[1])
    if not t0.is_exceptional(cls):
        raise ValueError(f"{cls.label} is not exceptional")
    norm = RatFunc.one()
    for part, s in sorted(cls.multiplicities().items()):
        eps = t0.hom_indec(part, part)
        if t1.hom_indec(part, part) != eps:
            raise RuntimeError(f"label instability: End dim of {part} varies with q")
        for t in range(s):
            norm = norm * (RatFunc.one() /
                           (RatFunc.one() - RatFunc.v_power(-2 * (s - t) * eps)))
    return norm


def certify_exceptional(ctx: GenericContext, cls: IsoClass,
                        crystal: Crystal | None = None,
                        tree_json=None) -> CrystalCertificate:
    """Crystal membership audit: norm in 1 + v^-1 A, and (on Dynkin layers)
    the unique crystal vertex pairing to +1 with <u_cls> mod v^-1 A."""
    from .hallalg import rescale, ringel_pair
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
    x = generic_basis(ctx, cls)
    weight = t0.class_dim(cls)
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
