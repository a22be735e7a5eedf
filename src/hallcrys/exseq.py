"""Exceptional sequences, the braid action, and integrality certificates.

The braid action is implemented twice: at module level (brute-force search
for the unique L/R partner by dimension and pair checks) and at Hall-algebra
level (the six case formulas with divided powers and delta-derivations).
Certificates expressing <u_lambda> as Laurent-integral divided-power words
are built recursively through rank-2 contexts; string classes past the first
slice of an affine rank-2 context are reached by the loop-element ladder
with quantum-Serre corrections, and every tree is verified by replay at the
configured primes plus a held-out one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from . import linalg
from .classtable import ClassTable, IsoClass, TableSet
from .generic import ExprTree, expr_evaluate_fixed, PRIME_POOL
from .hallalg import (HallElement, derivation, divided_power, multiply,
                      rescale, v_power)
from .quivers import Quiver, dim_add, dim_scale, dim_sub, dim_total, euler_bilinear
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
    assert num % den == 0
    return num // den


def n_value(table: ClassTable, a: IsoClass, b: IsoClass) -> int:
    da, db = table.class_dim(a), table.class_dim(b)
    num = 2 * (euler_bilinear(table.quiver, da, db) + euler_bilinear(table.quiver, db, da))
    den = 2 * table.epsilon(a)
    assert num % den == 0
    return num // den


def sigma_case(table: ClassTable, a: IsoClass, b: IsoClass):
    """Case among (1),(2),(3) for the right move, with the target dimension."""
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


def sigma_inv_case(table: ClassTable, a: IsoClass, b: IsoClass):
    """Case among (1'),(2'),(3') for the left move, with the target dimension."""
    n = n_value(table, a, b)
    da, db = table.class_dim(a), table.class_dim(b)
    if n <= 0:
        return 3, n, dim_sub(db, dim_scale(n, da))
    lhs, rhs = n * dim_total(da), dim_total(db)
    if lhs > rhs:
        return 1, n, dim_sub(dim_scale(n, da), db)
    if lhs < rhs:
        return 2, n, dim_sub(db, dim_scale(n, da))
    raise BraidError(f"boundary case n*dim = dim for pair ({a.label}, {b.label})")


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
        _, _, dim = sigma_inv_case(table, a, b)
        l = _find_partner(table, dim, left=None, right=a)
        seq[i], seq[i + 1] = l, a
    if not is_exceptional_sequence(table, seq):
        raise BraidError("braid move produced a non-exceptional sequence")
    return tuple(seq)


# ----------------------------------------------------------------------
# Hall-level braid moves (the six case formulas)


def braid_move_hall(table: ClassTable, a: IsoClass, b: IsoClass,
                    direction: int) -> HallElement:
    """<u> of the new object R(a,b) (direction +1) or L(a,b) (direction -1)."""
    if direction > 0:
        case, m, _ = sigma_case(table, a, b)
        if case == 3:
            return _case3(table, a, b, m)
        if case == 1:
            return _case1(table, a, b, m)
        return _case2(table, a, b, m)
    case, n, _ = sigma_inv_case(table, a, b)
    if case == 3:
        return _case3_prime(table, a, b, n)
    if case == 1:
        return _case1_prime(table, a, b, n)
    return _case2_prime(table, a, b, n)


def _case3(table, a, b, m):
    # sum_r (-1)^r v^{-r eps(b)} <u_b>^(r) <u_a> <u_b>^(-m-r)
    eps_b = table.epsilon(b)
    total = HallElement(table)
    ua = rescale(table, a)
    for r in range(-m + 1):
        term = multiply(divided_power(table, b, r),
                        multiply(ua, divided_power(table, b, -m - r)))
        coeff = v_power(table, -r * eps_b)
        if r % 2:
            coeff = coeff * (-1)
        total = total + term.scale(coeff)
    return total


def _case3_prime(table, a, b, n):
    # sum_r (-1)^r v^{-r eps(a)} <u_a>^(-n-r) <u_b> <u_a>^(r)
    eps_a = table.epsilon(a)
    total = HallElement(table)
    ub = rescale(table, b)
    for r in range(-n + 1):
        term = multiply(divided_power(table, a, -n - r),
                        multiply(ub, divided_power(table, a, r)))
        coeff = v_power(table, -r * eps_a)
        if r % 2:
            coeff = coeff * (-1)
        total = total + term.scale(coeff)
    return total


def _case1(table, a, b, m):
    # sum_{r<m} (-1)^r v^{2 dim_k a} v^{eps(a)} (v^{-eps(b)})^{m^2-mr+r}
    #          <u_b>^(r) delta_a(<u_b>^(m-r))
    eps_a, eps_b = table.epsilon(a), table.epsilon(b)
    dim_a = dim_total(table.class_dim(a))
    total = HallElement(table)
    for r in range(m):
        inner = derivation("delta_right", a, divided_power(table, b, m - r))
        term = multiply(divided_power(table, b, r), inner)
        exp = 2 * dim_a + eps_a - eps_b * (m * m - m * r + r)
        coeff = v_power(table, exp)
        if r % 2:
            coeff = coeff * (-1)
        total = total + term.scale(coeff)
    return total


def _case2(table, a, b, m):
    # v^{2 m dim_k b} / [m]!_{eps(b)} (_b delta)^m (<u_a>)
    eps_b = table.epsilon(b)
    dim_b = dim_total(table.class_dim(b))
    x = rescale(table, a)
    for _ in range(m):
        x = derivation("delta_left", b, x)
    fact = eval_at_sqrt_q(quantum_factorial(m, eps_b), table.q)
    return x.scale(v_power(table, 2 * m * dim_b) / fact)


def _case1_prime(table, a, b, n):
    # sum_{r<n} (-1)^r v^{2 dim_k b} v^{eps(b)} (v^{-eps(a)})^{n^2-nr+r}
    #          (_b delta(<u_a>^{(n-r)})) <u_a>^{(r)}
    eps_a, eps_b = table.epsilon(a), table.epsilon(b)
    dim_b = dim_total(table.class_dim(b))
    total = HallElement(table)
    for r in range(n):
        inner = derivation("delta_left", b, divided_power(table, a, n - r))
        term = multiply(inner, divided_power(table, a, r))
        exp = 2 * dim_b + eps_b - eps_a * (n * n - n * r + r)
        coeff = v_power(table, exp)
        if r % 2:
            coeff = coeff * (-1)
        total = total + term.scale(coeff)
    return total


def _case2_prime(table, a, b, n):
    # v^{2 n dim_k a} / [n]!_{eps(a)} (delta_a)^n (<u_b>)
    eps_a = table.epsilon(a)
    dim_a = dim_total(table.class_dim(a))
    x = rescale(table, b)
    for _ in range(n):
        x = derivation("delta_right", a, x)
    fact = eval_at_sqrt_q(quantum_factorial(n, eps_a), table.q)
    return x.scale(v_power(table, 2 * n * dim_a) / fact)


def braid_case_used(table: ClassTable, a: IsoClass, b: IsoClass, direction: int):
    """Which case formula a Hall-level move would use, for reporting."""
    if direction > 0:
        case, _, _ = sigma_case(table, a, b)
        return {1: "1", 2: "2", 3: "3"}[case]
    case, _, _ = sigma_inv_case(table, a, b)
    return {1: "1'", 2: "2'", 3: "3'"}[case]


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
        self.n = n_value(table, t1, t2)
        d1, d2 = table.class_dim(t1), table.class_dim(t2)
        self.dims = (d1, d2)
        self.eps = (table.epsilon(t1), table.epsilon(t2))
        assert table.hom(t1, t2) == 0 and table.hom(t2, t1) == 0
        assert table.ext(t2, t1) == 0
        assert self.m <= 0, "relative simples must have m <= 0"

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
            _, _, ldim = sigma_inv_case(table, a, b)
            moves.append((dim_total(ldim) + dim_total(table.class_dim(a)), -1))
            best = min(moves)
            if best[0] >= total:
                return a, b
            seq = braid_move_module(table, (a, b), 0, best[1])
            a, b = seq

    def relative_dim(self, cls: IsoClass):
        """(x, y) with dim cls = x dim T1 + y dim T2, or None."""
        d = self.table.class_dim(cls)
        d1, d2 = self.dims
        # two-unknown exact integer solve over the first independent coordinates
        for i in range(len(d)):
            for j in range(len(d)):
                det = d1[i] * d2[j] - d1[j] * d2[i]
                if det == 0:
                    continue
                x_num = d[i] * d2[j] - d[j] * d2[i]
                y_num = d1[i] * d[j] - d1[j] * d[i]
                if x_num % det or y_num % det:
                    return None
                x, y = x_num // det, y_num // det
                if all(x * d1[k] + y * d2[k] == d[k] for k in range(len(d))):
                    return (x, y) if x >= 0 and y >= 0 else None
                return None
        if all(v == 0 for v in d):
            return (0, 0)
        return None


# ----------------------------------------------------------------------
# integrality certificates


class CertificateEngine:
    """Builds Laurent-integral divided-power trees replaying to <u_lambda>.

    Indecomposables are resolved through rank-2 contexts: depth-1 objects
    (the R or L of the context's orthogonal minimal pair) get the case-(3)
    trees; deeper objects (Kronecker strings past the first slice, where the
    symmetry expansion would leave the positive part) are solved exactly as
    Laurent combinations of products of already-certified trees, fitted
    against the fixed-q algebras at the configured primes and verified at a
    held-out prime.
    """

    def __init__(self, quiver: Quiver, dim_bound, primes=(2, 3, 5), pool=PRIME_POOL,
                 point_budget=500_000, ext_budget=200_000, tables=None):
        self.quiver = quiver
        self.dim_bound = tuple(dim_bound)
        self.primes = tuple(primes)
        self.pool = tuple(pool)
        self.point_budget = point_budget
        self.ext_budget = ext_budget
        # shared with other users of the same quiver and bound when given
        self._tables = tables if tables is not None else TableSet(
            lambda q: ClassTable(self.quiver, q, self.dim_bound, self.point_budget,
                                 self.ext_budget))
        self._indec_tree = {}
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
                        key=lambda kv: (self.table(self.primes[0]).by_label[kv[0]].total(),
                                        self.table(self.primes[0]).by_label[kv[0]].dim,
                                        kv[0]))
        tree = None
        acc_parts = []
        for part, s in groups:
            gtree = self.dp_tree(IsoClass((part,)), s)
            gcls = IsoClass((part,) * s)
            if tree is None:
                tree, acc_parts = gtree, list(gcls.parts)
            else:
                acc_cls = IsoClass(tuple(sorted(acc_parts)))
                e = euler_bilinear(self.quiver, t0.class_dim(gcls),
                                   t0.class_dim(acc_cls)) - 2 * t0.hom(gcls, acc_cls)
                tree = (tree * gtree).scale(LaurentPoly({e: 1}))
                acc_parts.extend(gcls.parts)
        if not tree.is_laurent_integral():
            raise CertificateError(f"certificate for {cls.label} is not Laurent-integral")
        if not self.verify_tree(tree, cls):
            raise CertificateError(f"certificate for {cls.label} fails replay")
        return tree

    def indec_tree(self, cls: IsoClass) -> ExprTree:
        if cls in self._indec_tree:
            return self._indec_tree[cls]
        tree = self._build_indec_tree(cls, 1)
        self._indec_tree[cls] = tree
        return tree

    def dp_tree(self, cls: IsoClass, s: int) -> ExprTree:
        """Tree of the divided power <u_cls>^{(s)} = <u_{s cls}>."""
        key = (cls, s)
        if key in self._dp_tree:
            return self._dp_tree[key]
        if s == 0:
            return ExprTree.one(self.quiver)
        t0 = self.table(self.primes[0])
        label = cls.parts[0]
        if label.startswith("S"):
            v = self.quiver.index[label[1:]]
            tree = ExprTree.letter(self.quiver, v, s)
        elif s == 1:
            tree = self.indec_tree(cls)
        else:
            tree = self._build_indec_tree(cls, s)
        target = IsoClass(tuple(sorted(cls.parts * s)))
        if not tree.is_laurent_integral() or not self.verify_tree(tree, target):
            raise CertificateError(f"divided-power tree for {cls.label}^({s}) failed")
        self._dp_tree[key] = tree
        return tree

    # -- construction -------------------------------------------------------

    def _build_indec_tree(self, cls: IsoClass, s: int) -> ExprTree:
        t0 = self.table(self.primes[0])
        label = cls.parts[0]
        if label.startswith("S"):
            return ExprTree.letter(self.quiver, self.quiver.index[label[1:]], s)
        target = IsoClass(tuple(sorted(cls.parts * s)))
        deep_context = None
        for it in sorted(t0.catalog, key=lambda i: (i.total(), i.dim, i.label)):
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
                    return self._case3_tree(ctx, s)
                lseq = braid_move_module(t0, (t1, t2), 0, -1)
                if lseq[0] == cls:
                    return self._case3_prime_tree(ctx, s)
                if deep_context is None:
                    deep_context = ctx
        if deep_context is None:
            raise CertificateError(f"no rank-2 partner found for {cls.label}")
        return self._solve_tree(target, deep_context)

    def _case3_tree(self, ctx: Rank2Context, s: int) -> ExprTree:
        """Divided power of R(T1,T2) via the m <= 0 symmetry expansion:
        sum_r (-1)^r v^{-r eps(T2)} T2^{(r)} T1^{(s)} T2^{(-s m - r)}."""
        t1, t2 = ctx.simples
        m = ctx.m
        eps2 = ctx.eps[1]
        total = ExprTree.zero(self.quiver)
        for r in range(-s * m + 1):
            term = (self.dp_tree(t2, r) * self.dp_tree(t1, s)
                    * self.dp_tree(t2, -s * m - r))
            sign = -1 if r % 2 else 1
            total = total + term.scale(LaurentPoly({-r * eps2: sign}))
        return total

    def _case3_prime_tree(self, ctx: Rank2Context, s: int) -> ExprTree:
        """Divided power of L(T1,T2): mirror expansion with n <= 0:
        sum_r (-1)^r v^{-r eps(T1)} T1^{(-s n - r)} T2^{(s)} T1^{(r)}."""
        t1, t2 = ctx.simples
        n = ctx.n
        eps1 = ctx.eps[0]
        total = ExprTree.zero(self.quiver)
        for r in range(-s * n + 1):
            term = (self.dp_tree(t1, -s * n - r) * self.dp_tree(t2, s)
                    * self.dp_tree(t1, r))
            sign = -1 if r % 2 else 1
            total = total + term.scale(LaurentPoly({-r * eps1: sign}))
        return total

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
        ztree = (self.indec_tree(t1c) * self.indec_tree(t2c)
                 - (self.indec_tree(t2c) * self.indec_tree(t1c)).scale(
                     LaurentPoly({sym: 1})))
        tree = self.indec_tree(cur)
        for _ in range(steps):
            nxt_dim = dim_add(t0.class_dim(cur), delta)
            nxt = self._rigid_class_of_dim(nxt_dim)
            tree = self._ladder_step(tree, ztree, nxt)
            cur = nxt
        holdout = next(p for p in self.pool if p not in self.primes)
        if not self.verify_tree(tree, target, primes=self.primes + (holdout,)):
            raise CertificateError(f"ladder tree for {target.label} fails replay")
        return tree

    def _rigid_class_of_dim(self, dim) -> IsoClass:
        t0 = self.table(self.primes[0])
        cands = [IsoClass((it.label,)) for it in t0.catalog
                 if it.dim == tuple(dim) and not it.field_dependent]
        cands = [c for c in cands if t0.is_exceptional(c)]
        if len(cands) != 1:
            raise CertificateError(f"no unique rigid class of dimension {dim}")
        return cands[0]

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
        from .generic import monomial_words
        from .quivers import cartan_datum
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
                serre = ExprTree.zero(self.quiver)
                for tt in range(n + 1):
                    term = (ExprTree.letter(self.quiver, i, tt)
                            * ExprTree.letter(self.quiver, j, 1)
                            * ExprTree.letter(self.quiver, i, n - tt))
                    serre = serre + term.scale(LaurentPoly({0: (-1) ** tt}))
                for split in _weight_splits(rem, self.quiver.n):
                    left, right = split
                    for u in monomial_words(self.quiver, left):
                        for w in monomial_words(self.quiver, right):
                            ut = _word_tree(self.quiver, u)
                            wt = _word_tree(self.quiver, w)
                            out.append(ut * serre * wt)
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


def _word_tree(quiver, word):
    tree = ExprTree.one(quiver)
    for v, k in word:
        tree = tree * ExprTree.letter(quiver, v, k)
    return tree
