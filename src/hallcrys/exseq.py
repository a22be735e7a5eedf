"""Exceptional sequences, the braid action, and integrality certificates.

The braid action is implemented twice: at module level (brute-force search
for the unique L/R partner by dimension and pair checks) and at Hall-algebra
level (three case formulas with divided powers and delta-derivations,
the left move read in the opposite algebra).
Certificates expressing <u_lambda> as Laurent-integral divided-power words
are built recursively through rank-2 contexts; string classes past the first
slice of an affine rank-2 context are reached by the loop-element ladder
with quantum-Serre corrections.  Every divided-power tree is replayed once,
when it is built, at the configured primes; ladder trees also at a held-out
prime.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import product as iproduct

from . import linalg
from .checks import check
from .classtable import ClassTable, IsoClass, TableSet, ZERO_CLASS
from .generic import (ExprTree, check_primes, expr_evaluate_fixed, holdout_prime,
                      monomial_words, opposite, symmetry_sum)
from .hallalg import (HallElement, derivation, divided_power, multiply,
                      rescale, v_power)
from .quivers import (Quiver, cartan_datum, dim_add, dim_scale, dim_sub, dim_total,
                      euler_bilinear)
from .scalars import LaurentPoly, eval_at_sqrt_q, quantum_factorial


class BraidError(RuntimeError):
    pass


class CertificateError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# exceptional sequences


def is_exceptional_sequence(table: ClassTable, seq) -> bool:
    for cls in seq:
        if not (cls.is_indecomposable() and table.is_exceptional(cls)):
            return False
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if table.hom(seq[j], seq[i]) or table.ext(seq[j], seq[i]):
                return False
    return True


def complete_exceptional_sequences(table: ClassTable):
    """Exhaustive enumeration of complete exceptional sequences."""
    indecs = [IsoClass((it.label,)) for it in table.catalog
              if not it.field_dependent]
    indecs = [c for c in indecs if table.is_exceptional(c)]
    n = table.quiver.n
    out = []

    def rec(prefix):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for c in indecs:
            ok = all(table.hom(c, e) == 0 and table.ext(c, e) == 0 for e in prefix)
            if ok:
                rec(prefix + [c])

    rec([])
    return sorted(out)


# ----------------------------------------------------------------------
# case selection for the braid move formulas


def m_value(table: ClassTable, a: IsoClass, b: IsoClass) -> int:
    """m(a, b) = <a,b>/<b,b> = 2(a,b)/(b,b)."""
    da, db = table.class_dim(a), table.class_dim(b)
    num = 2 * (euler_bilinear(table.quiver, da, db) + euler_bilinear(table.quiver, db, da))
    den = 2 * table.epsilon(b)
    check(num % den == 0, f"m({a.label}, {b.label}) is not an integer")
    return num // den


def sigma_case(table: ClassTable, a: IsoClass, b: IsoClass):
    """Case among (1),(2),(3) for the right move, with the target dimension.

    The left move on (a, b) is the right move on (b, a) in the opposite
    algebra, so its case (1'),(2'),(3') is sigma_case(table, b, a)."""
    m = m_value(table, a, b)
    da, db = table.class_dim(a), table.class_dim(b)
    if m <= 0:
        return 3, m, dim_sub(da, dim_scale(m, db))
    lhs, rhs = m * dim_total(db), dim_total(da)
    if lhs > rhs:
        return 1, m, dim_sub(dim_scale(m, db), da)
    if lhs < rhs:
        return 2, m, dim_sub(da, dim_scale(m, db))
    raise BraidError(f"boundary case m*dim = dim for pair ({a.label}, {b.label})")


# ----------------------------------------------------------------------
# module-level braid moves


def _find_partner(table: ClassTable, dim, left: IsoClass | None, right: IsoClass | None):
    """The unique indecomposable exceptional class of the given dimension
    making (left, cand) resp. (cand, right) exceptional."""
    cands = []
    for it in table.catalog:
        if it.dim != tuple(dim) or it.field_dependent:
            continue
        cls = IsoClass((it.label,))
        if not table.is_exceptional(cls):
            continue
        if left is not None and not table.exceptional_pair_check(left, cls):
            continue
        if right is not None and not table.exceptional_pair_check(cls, right):
            continue
        cands.append(cls)
    if not cands:
        raise BraidError(f"no exceptional partner of dimension {tuple(dim)}")
    if len(cands) > 1:
        raise BraidError(
            f"partner of dimension {tuple(dim)} is not unique: "
            + ", ".join(c.label for c in cands))
    return cands[0]


def braid_move_module(table: ClassTable, seq, i: int, direction: int):
    """sigma_i (direction +1) or sigma_i^{-1} (direction -1) on a sequence."""
    seq = list(seq)
    if not 0 <= i < len(seq) - 1:
        raise ValueError(f"position {i} out of range")
    if not is_exceptional_sequence(table, seq):
        raise BraidError("input is not an exceptional sequence")
    a, b = seq[i], seq[i + 1]
    if direction > 0:
        _, _, dim = sigma_case(table, a, b)
        r = _find_partner(table, dim, left=b, right=None)
        seq[i], seq[i + 1] = b, r
    else:
        _, _, dim = sigma_case(table, b, a)
        l = _find_partner(table, dim, left=None, right=a)
        seq[i], seq[i + 1] = l, a
    if not is_exceptional_sequence(table, seq):
        raise BraidError("braid move produced a non-exceptional sequence")
    return tuple(seq)


# ----------------------------------------------------------------------
# Hall-level braid moves: three case formulas, the left move in the opposite
# algebra


def braid_move_hall(table: ClassTable, a: IsoClass, b: IsoClass,
                    direction: int) -> HallElement:
    """<u> of the new object R(a,b) (direction +1) or L(a,b) (direction -1).

    L(a,b) is R(b,a) in the opposite algebra: the formulas below are the
    right move's, with (a, b) swapped, the products reversed and delta_a,
    _b delta exchanged (cases (1'),(2'),(3'))."""
    mul, delta_a, delta_b = multiply, "delta_right", "delta_left"
    if direction < 0:
        a, b = b, a
        mul, delta_a, delta_b = opposite(multiply), "delta_left", "delta_right"
    case, m, _ = sigma_case(table, a, b)
    eps_a, eps_b = table.epsilon(a), table.epsilon(b)
    if case == 3:
        # sum_r (-1)^r v^{-r eps(b)} <u_b>^(r) <u_a> <u_b>^(-m-r)
        return symmetry_sum(rescale(table, a), lambda r: divided_power(table, b, r),
                            -m, eps_b, mul)
    if case == 1:
        # sum_{r<m} (-1)^r v^{2 dim_k a} v^{eps(a)} (v^{-eps(b)})^{m^2-mr+r}
        #          <u_b>^(r) delta_a(<u_b>^(m-r))
        dim_a = dim_total(table.class_dim(a))
        total = HallElement(table)
        for r in range(m):
            inner = derivation(delta_a, a, divided_power(table, b, m - r))
            term = mul(divided_power(table, b, r), inner)
            exp = 2 * dim_a + eps_a - eps_b * (m * m - m * r + r)
            total = total + term.scale(v_power(table, exp) * (-1) ** r)
        return total
    # case (2): v^{2 m dim_k b} / [m]!_{eps(b)} (_b delta)^m (<u_a>)
    x = rescale(table, a)
    for _ in range(m):
        x = derivation(delta_b, b, x)
    fact = eval_at_sqrt_q(quantum_factorial(m, eps_b), table.q)
    return x.scale(v_power(table, 2 * m * dim_total(table.class_dim(b))) / fact)


def braid_case_used(table: ClassTable, a: IsoClass, b: IsoClass, direction: int):
    """Which case formula a Hall-level move would use, for reporting."""
    if direction > 0:
        return str(sigma_case(table, a, b)[0])
    return f"{sigma_case(table, b, a)[0]}'"


# ----------------------------------------------------------------------
# braid orbits


def braid_orbit(table: ClassTable, start):
    """Closure of a complete sequence under all sigma_i^{+-1}; nodes + edges."""
    start = tuple(start)
    seen = {start}
    frontier = [start]
    edges = []
    while frontier:
        nxt = []
        for seq in frontier:
            for i in range(len(seq) - 1):
                for direction in (1, -1):
                    new = braid_move_module(table, seq, i, direction)
                    edges.append((seq, (i, direction), new))
                    if new not in seen:
                        seen.add(new)
                        nxt.append(new)
        frontier = nxt
    return sorted(seen), edges


def braid_orbit_report(table: ClassTable, start) -> dict:
    """JSON-ready orbit graph: sequences as nodes, moves as labeled edges."""
    nodes, edges = braid_orbit(table, start)
    def key(seq):
        return ",".join(c.label for c in seq)
    return {
        "schema": 1,
        "quiver": table.quiver.to_json(),
        "q": table.q,
        "nodes": [key(seq) for seq in nodes],
        "edges": sorted({(key(a), f"sigma_{i + 1}^{d:+d}", key(b))
                         for a, (i, d), b in edges}),
    }


# ----------------------------------------------------------------------
# rank-2 contexts


class Rank2Context:
    """The orthogonal minimal pair (T1, T2) underlying an exceptional pair."""

    def __init__(self, table: ClassTable, pair):
        self.table = table
        self.pair = tuple(pair)
        t1, t2 = self._reduce(pair)
        self.simples = (t1, t2)
        self.m = m_value(table, t1, t2)       # <= 0 at the minimal pair
        self.n = m_value(table, t2, t1)
        d1, d2 = table.class_dim(t1), table.class_dim(t2)
        self.dims = (d1, d2)
        self.eps = (table.epsilon(t1), table.epsilon(t2))
        check(table.hom(t1, t2) == 0 and table.hom(t2, t1) == 0,
              "relative simples must be Hom-orthogonal")
        check(table.ext(t2, t1) == 0, "relative simples must have Ext(T2, T1) = 0")
        check(self.m <= 0, "relative simples must have m <= 0")

    def _reduce(self, pair):
        table = self.table
        a, b = pair
        guard = 0
        while True:
            guard += 1
            if guard > 64:
                raise BraidError("rank-2 reduction failed to terminate")
            total = dim_total(table.class_dim(a)) + dim_total(table.class_dim(b))
            moves = []
            _, _, rdim = sigma_case(table, a, b)
            moves.append((dim_total(table.class_dim(b)) + dim_total(rdim), 1))
            _, _, ldim = sigma_case(table, b, a)
            moves.append((dim_total(ldim) + dim_total(table.class_dim(a)), -1))
            best = min(moves)
            if best[0] >= total:
                return a, b
            seq = braid_move_module(table, (a, b), 0, best[1])
            a, b = seq

    def relative_dim(self, cls: IsoClass):
        """(x, y) with dim cls = x dim T1 + y dim T2, or None."""
        # Fraction entries: gauss_jordan divides, and ints would give floats
        cols = [[Fraction(c) for c in d] for d in self.dims]
        sol = linalg.solve(cols, [Fraction(c) for c in self.table.class_dim(cls)],
                           Fraction)
        if sol is None or any(c.denominator != 1 or c < 0 for c in sol):
            return None
        return tuple(int(c) for c in sol)


# ----------------------------------------------------------------------
# integrality certificates


class CertificateEngine:
    """Builds Laurent-integral divided-power trees replaying to <u_lambda>.

    Indecomposables are resolved through rank-2 contexts: depth-1 objects
    (the R or L of the context's orthogonal minimal pair) get the case-(3)
    trees, L's in the opposite algebra; deeper objects (Kronecker strings
    past the first slice, where the symmetry expansion would leave the
    positive part) are solved exactly as
    Laurent combinations of products of already-certified trees, fitted
    against the fixed-q algebras at the configured primes and verified at a
    held-out prime.
    """

    def __init__(self, quiver: Quiver, dim_bound, primes=(2, 3, 5), tables=None):
        self.quiver = quiver
        self.dim_bound = tuple(dim_bound)
        self.primes = check_primes(primes)
        # shared with other users of the same quiver and bound when given
        self._tables = tables if tables is not None else TableSet(quiver, dim_bound)
        self._dp_tree = {}

    def table(self, q: int) -> ClassTable:
        return self._tables[q]

    # -- verification ----------------------------------------------------

    def verify_tree(self, tree: ExprTree, cls: IsoClass, primes=None) -> bool:
        for p in primes if primes is not None else self.primes:
            t = self.table(p)
            if expr_evaluate_fixed(tree, t) != rescale(t, cls):
                return False
        return True

    # -- public entry points -----------------------------------------------

    def integral_certificate(self, cls: IsoClass) -> ExprTree:
        """Laurent-integral tree replaying to <u_cls> at every configured prime."""
        t0 = self.table(self.primes[0])
        if not t0.is_exceptional(cls):
            raise CertificateError(f"{cls.label} is not exceptional")
        groups = sorted(cls.multiplicities().items(),
                        key=lambda kv: (t0.by_label[kv[0]].total(),
                                        t0.by_label[kv[0]].dim, kv[0]))
        # <u_acc> <u_g> = v^{<g, acc> - 2 hom(g, acc)} <u_{acc + g}>
        tree, acc = ExprTree.one(self.quiver), ZERO_CLASS
        for part, s in groups:
            gcls = IsoClass((part,) * s)
            e = (euler_bilinear(self.quiver, t0.class_dim(gcls), t0.class_dim(acc))
                 - 2 * t0.hom(gcls, acc))
            tree = (tree * self.dp_tree(IsoClass((part,)), s)).scale(LaurentPoly({e: 1}))
            acc = IsoClass(tuple(sorted(acc.parts + gcls.parts)))
        check(tree.is_laurent_integral(),
              f"certificate for {cls.label} is not Laurent-integral")
        # a single group's tree is dp_tree's, replayed when it was built
        if len(groups) > 1:
            check(self.verify_tree(tree, cls), f"certificate for {cls.label} fails replay")
        return tree

    def dp_tree(self, cls: IsoClass, s: int) -> ExprTree:
        """Tree of the divided power <u_cls>^{(s)} = <u_{s cls}>, replayed at
        the configured primes once, when it is built."""
        key = (cls, s)
        if key in self._dp_tree:
            return self._dp_tree[key]
        if s == 0:
            return ExprTree.one(self.quiver)
        label = cls.parts[0]
        if label.startswith("S"):
            tree = ExprTree.letter(self.quiver, self.quiver.index[label[1:]], s)
        else:
            tree = self._build_indec_tree(cls, s)
        target = IsoClass(tuple(sorted(cls.parts * s)))
        check(tree.is_laurent_integral() and self.verify_tree(tree, target),
              f"divided-power tree for {cls.label}^({s}) failed")
        self._dp_tree[key] = tree
        return tree

    # -- construction -------------------------------------------------------

    def _build_indec_tree(self, cls: IsoClass, s: int) -> ExprTree:
        t0 = self.table(self.primes[0])
        label = cls.parts[0]
        target = IsoClass(tuple(sorted(cls.parts * s)))
        deep_context = None
        for it in t0.catalog:
            if it.field_dependent or it.label == label:
                continue
            mu = IsoClass((it.label,))
            if not t0.is_exceptional(mu):
                continue
            for pair in ((cls, mu), (mu, cls)):
                if not t0.exceptional_pair_check(*pair):
                    continue
                ctx = Rank2Context(t0, pair)
                t1, t2 = ctx.simples
                if cls in (t1, t2):
                    continue
                rseq = braid_move_module(t0, (t1, t2), 0, +1)
                if rseq[1] == cls:
                    return self._case3_tree(ctx, s, +1)
                lseq = braid_move_module(t0, (t1, t2), 0, -1)
                if lseq[0] == cls:
                    return self._case3_tree(ctx, s, -1)
                if deep_context is None:
                    deep_context = ctx
        if deep_context is None:
            raise CertificateError(f"no rank-2 partner found for {cls.label}")
        return self._solve_tree(target, deep_context)

    def _case3_tree(self, ctx: Rank2Context, s: int, direction: int) -> ExprTree:
        """Divided power of R(T1,T2) (direction +1) via the m <= 0 symmetry
        expansion sum_r (-1)^r v^{-r eps(T2)} T2^{(r)} T1^{(s)} T2^{(-s m - r)};
        of L(T1,T2) (direction -1) by the same with T1, T2 swapped, n for m
        and the product reversed."""
        (t1, t2), m, eps, mul = ctx.simples, ctx.m, ctx.eps[1], operator.mul
        if direction < 0:
            (t2, t1), m, eps, mul = ctx.simples, ctx.n, ctx.eps[0], opposite(mul)
        return symmetry_sum(self.dp_tree(t1, s), lambda r: self.dp_tree(t2, r),
                            -s * m, eps, mul)

    # -- deep classes: the loop-element ladder --------------------------------

    def _solve_tree(self, target: IsoClass, ctx: Rank2Context) -> ExprTree:
        """Tree for a string class at relative depth >= 2 over a context with
        m = -2 (the affine rank-2 case).

        Writing Z for the loop element T1 T2 - v^{(d1,d2)} T2 T1, consecutive
        string classes satisfy  X_{k+1} = (bracket(X_k, Z) - Y) / [2]  where Y
        is a combination of padded Serre trees chosen so that the division is
        exact wordwise; the bracket orientation and Y are determined by exact
        fits and everything is verified by replay at the configured primes
        plus one held-out prime.
        """
        holdout = holdout_prime(self.primes)
        if holdout is None:
            raise CertificateError(
                f"no PRIME_POOL prime is left to hold out from {self.primes}")
        t0 = self.table(self.primes[0])
        t1c, t2c = ctx.simples
        if ctx.m != -2 or ctx.eps != (1, 1):
            raise CertificateError(
                f"deep resolution implemented only for simply-laced affine "
                f"rank-2 contexts; got m={ctx.m}, eps={ctx.eps}")
        rel = ctx.relative_dim(target)
        if rel is None:
            raise CertificateError(f"{target.label} has no relative dimension")
        x, y = rel
        if x == y + 1 and x >= 2:
            start_seq = braid_move_module(t0, ctx.simples, 0, -1)
            cur = start_seq[0]          # L(T1,T2), relative dimension (2,1)
            steps = x - 2
        elif y == x + 1 and y >= 2:
            start_seq = braid_move_module(t0, ctx.simples, 0, +1)
            cur = start_seq[1]          # R(T1,T2), relative dimension (1,2)
            steps = y - 2
        else:
            raise CertificateError(
                f"{target.label} (relative dim {rel}) is not a string class")
        d1, d2 = ctx.dims
        delta = dim_add(d1, d2)
        sym = (euler_bilinear(self.quiver, d1, d2)
               + euler_bilinear(self.quiver, d2, d1))
        z1, z2 = self.dp_tree(t1c, 1), self.dp_tree(t2c, 1)
        ztree = z1 * z2 - (z2 * z1).scale(LaurentPoly({sym: 1}))
        tree = self.dp_tree(cur, 1)
        for _ in range(steps):
            nxt_dim = dim_add(t0.class_dim(cur), delta)
            nxt = self._rigid_class_of_dim(nxt_dim)
            tree = self._ladder_step(tree, ztree, nxt)
            cur = nxt
        # dp_tree replays the result at the configured primes
        check(self.verify_tree(tree, target, primes=(holdout,)),
              f"ladder tree for {target.label} fails replay")
        return tree

    def _rigid_class_of_dim(self, dim) -> IsoClass:
        try:
            return _find_partner(self.table(self.primes[0]), dim, None, None)
        except BraidError:
            raise CertificateError(f"no unique rigid class of dimension {dim}") from None

    def _ladder_step(self, xtree: ExprTree, ztree: ExprTree, nxt: IsoClass) -> ExprTree:
        two = LaurentPoly({1: 1, -1: 1})
        for cand in (xtree * ztree - ztree * xtree,
                     ztree * xtree - xtree * ztree):
            ok = True
            for p in self.primes[:2]:
                t = self.table(p)
                expect = rescale(t, nxt).scale(eval_at_sqrt_q(two, p))
                if expr_evaluate_fixed(cand, t) != expect:
                    ok = False
                    break
            if ok:
                break
        else:
            raise CertificateError(
                f"loop bracket does not produce [2] <u_{nxt.label}>")
        t0 = self.table(self.primes[0])
        corrected = self._serre_correct(cand, t0.class_dim(nxt))
        terms = {}
        for w, c in corrected.terms.items():
            try:
                terms[w] = c.divide_exact(two)
            except ValueError:
                raise CertificateError(
                    "Serre correction left a coefficient not divisible by [2]")
        return ExprTree(self.quiver, terms)

    def _serre_correct(self, tree: ExprTree, weight) -> ExprTree:
        """Subtract a combination of padded Serre trees making every word
        coefficient divisible by [2]; solved exactly in Z[v]/(v^2 + 1)."""
        rels = self._relation_trees(weight)
        if not rels:
            return tree
        words = sorted(set(tree.terms) | {w for r in rels for w in r.terms})
        # two equations per word (the 1 and v parts mod v^2 + 1), two unknowns
        # (a0, a1) per relation: (e0 + e1 v)(a0 + a1 v) is
        # (e0 a0 - e1 a1) + (e1 a0 + e0 a1) v
        rhs = [x for w in words
               for x in _mod_two_reduce(tree.terms.get(w, LaurentPoly.zero()))]
        cols = []
        for r in rels:
            es = [_mod_two_reduce(r.terms.get(w, LaurentPoly.zero())) for w in words]
            cols.append([x for e0, e1 in es for x in (e0, e1)])
            cols.append([x for e0, e1 in es for x in (-e1, e0)])
        sol = linalg.solve(cols, rhs, Fraction)
        if sol is None:
            raise CertificateError("no Serre correction exists mod [2]")
        out = tree
        for k, r in enumerate(rels):
            a0, a1 = sol[2 * k], sol[2 * k + 1]
            lift = LaurentPoly({0: a0, 1: a1})
            if not lift.is_zero():
                out = out - r.scale(lift)
        return out

    def _relation_trees(self, weight):
        """Padded quantum Serre trees u * S_ij * w of the given weight."""
        datum = cartan_datum(self.quiver)
        out = []
        for i in range(self.quiver.n):
            for j in range(self.quiver.n):
                if i == j:
                    continue
                n = 1 - datum.a_ij(i, j)
                sw = [0] * self.quiver.n
                sw[i] += n
                sw[j] += 1
                rem = dim_sub(weight, tuple(sw))
                if any(r < 0 for r in rem):
                    continue
                # sum_t (-1)^t E_i^(t) E_j E_i^(n-t)
                serre = symmetry_sum(ExprTree.letter(self.quiver, j),
                                     lambda r: ExprTree.letter(self.quiver, i, r),
                                     n, 0, operator.mul)
                for split in _weight_splits(rem, self.quiver.n):
                    left, right = split
                    # monomial words never repeat a vertex in adjacent letters
                    for u in monomial_words(self.quiver, left):
                        for w in monomial_words(self.quiver, right):
                            out.append(ExprTree(self.quiver, {u: 1}) * serre
                                       * ExprTree(self.quiver, {w: 1}))
        return out


def _mod_two_reduce(poly: LaurentPoly):
    """Image of a Laurent polynomial in Z[v, 1/v]/(v + 1/v) = Z[v]/(v^2+1)."""
    c0 = Fraction(0)
    c1 = Fraction(0)
    for e, c in poly.coeffs.items():
        k = e % 4
        if k == 0:
            c0 += c
        elif k == 1:
            c1 += c
        elif k == 2:
            c0 -= c
        else:
            c1 -= c
    return c0, c1


def _weight_splits(rem, n):
    ranges = [range(r + 1) for r in rem]
    for left in iproduct(*ranges):
        yield tuple(left), tuple(a - b for a, b in zip(rem, left))

