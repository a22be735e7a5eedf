"""Isomorphism classes, automorphism counts and Hall numbers at a fixed prime.

A :class:`ClassTable` holds, for one quiver, one prime q and a dimension
bound: the indecomposable catalog, the iso-classes per dimension vector
(Krull-Schmidt multisets), automorphism orders, the Hom table (Ext is read
off it by the Euler form) and Hall numbers.  Completeness of the catalog is
certified by the mass formula ``sum_{classes of dim d} |G_d| / |Aut| =
|E_d|``, an exact integer identity checked at every prime; orbit enumeration
under the base-change group gives an independent second route within the
point budget.

Hall numbers come from Grassmannian scans: one scan of the subspace tuples
of dimension dim beta in V_lambda, for every class lambda of one dimension
vector together, labels every closed tuple's submodule and quotient, and so
fills g^lambda_{alpha beta} for all classes lambda, alpha, beta of those
dimensions at once.  Each Grassmannian is enumerated once per table as two
stacks, the frames [W | C] of its subspaces and their inverses, from one
stacked elimination per bounded cut of its subspaces.  A scan sweeps the
product of the Grassmannians in bounded chunks: per arrow one batched
product gives the blocks of every (tuple, class) pair of a chunk, and each
side's closed blocks are labelled as soon as their chunk is swept, with no
module object built.  A batch of modules moves as one format, per-arrow
(n, d_t, d_s) stacks and the batch size n.  Krull-Schmidt labelling has one
route, :meth:`ClassTable.label_modules`, which owns the label cache and
decomposes all the misses of a batch together by Hom counts against the
catalog, whose per-arrow stacks are built once per dimension vector; the
scans, the extension counts and :meth:`ClassTable.label_module` all use it.
:meth:`ClassTable.hall_number_rp` (Riedtmann-Peng, by extension-class
counting) stays as an independent oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from math import lcm, prod

import numpy as np

from . import linalg, modules
from ._kernels import decode_points, encode_points, orbit_fill
from .checks import CheckFailed, check
from .modules import (BudgetExceeded, Representation, direct_sum, ext_dim, hom_counts,
                      hom_system, indecomposable_catalog, require_ring)
from .quivers import Quiver, euler_bilinear
from .scalars import QSqrtScalar, eval_at_sqrt_q


@dataclass(frozen=True, order=True)
class IsoClass:
    """A field-stable iso-class label: multiset of indecomposable labels."""
    parts: tuple
    _hash: int = field(init=False, repr=False, compare=False)    # hash((parts,)), once

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.parts,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):       # string hashes differ between processes
        return IsoClass, (self.parts,)

    @staticmethod
    def of(*labels):
        return IsoClass(tuple(sorted(labels)))

    @property
    def label(self) -> str:
        return "+".join(self.parts) if self.parts else "0"

    def is_zero(self) -> bool:
        return not self.parts

    def is_indecomposable(self) -> bool:
        return len(self.parts) == 1

    def multiplicities(self):
        out = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def __str__(self):
        return self.label


ZERO_CLASS = IsoClass(())


def parse_class_label(text: str) -> IsoClass:
    text = text.strip()
    if text in ("0", ""):
        return ZERO_CLASS
    return IsoClass(tuple(sorted(part.strip() for part in text.split("+"))))


class ClassTable:
    """All iso-classes of a quiver over F_q with dimension vector <= bound."""

    def __init__(self, quiver: Quiver, q: int, dim_bound, point_budget: int = 500_000,
                 ext_budget: int = 200_000):
        if not _is_prime(q):
            raise ValueError(f"q = {q} must be prime")
        self.quiver = quiver
        self.q = q
        self.dim_bound = quiver.vertex_bound(dim_bound)
        self.point_budget = int(point_budget)
        self.ext_budget = int(ext_budget)
        self.catalog = indecomposable_catalog(quiver, q, self.dim_bound)
        self.by_label = {it.label: it for it in self.catalog}
        self._hom_cache = {}
        self._rep_cache = {}
        # the zero module's label key: no arrow block has an entry
        self._label_cache = {((0,) * quiver.n, b""): ZERO_CLASS}
        self._solver_cache = {}
        self._hall_cache = {}
        self._grass_cache = {}
        self._classes_cache = {}
        self._class_stacks_cache = {}
        self._aut_orbit_cache = {}
        # the catalog by dimension vector: its entries in catalog order and,
        # per arrow, the stack of their arrow matrices; the End diagonals,
        # the label probes and hom_matrix read their stacks from here
        by_dim = {}
        for it in self.catalog:
            by_dim.setdefault(it.dim, []).append(it)
        self._catalog_by_dim = {
            dim: (items, [np.stack([it.rep.maps[k] for it in items])
                          for k in range(len(quiver.arrows))])
            for dim, items in by_dim.items()}
        self._catalog_index = {it.label: i for items, _ in self._catalog_by_dim.values()
                               for i, it in enumerate(items)}
        # End dimensions by one stacked diagonal per dimension vector, not by
        # hom_matrix, so that only the (label, label) keys enter the Hom cache
        for dim, (items, stacks) in self._catalog_by_dim.items():
            ends = np.broadcast_to(hom_counts(quiver, q, dim, stacks, dim, stacks), len(items))
            for it, h in zip(items, ends.tolist()):
                self._hom_cache[it.label, it.label] = h
        for it in self.catalog:
            if not it.field_dependent:
                # rigid catalog entries must be bricks without self-extensions
                check(self.hom_indec(it.label, it.label) == 1,
                      f"rigid catalog entry {it.label} is not a brick")
                # by projective presentation, independent of the Hom table
                check(ext_dim(it.rep, it.rep) == 0,
                      f"rigid catalog entry {it.label} has self-extensions")
            else:
                check(self.hom_indec(it.label, it.label) == it.end_dim,
                      f"End dimension of {it.label} is not {it.end_dim}")

    # -- indecomposable-level tables ------------------------------------

    def hom_indec(self, a: str, b: str) -> int:
        key = (a, b)
        if key not in self._hom_cache:
            return self.hom_matrix([a], [b])[0][0]
        return self._hom_cache[key]

    def hom_matrix(self, rows, cols) -> list:
        """[[hom_indec(a, b) for b in cols] for a in rows].  Exactly the pairs
        missing from the Hom cache are counted, one :func:`hom_counts` per
        block of dimension vectors (dim a, dim b) over index-aligned stacks
        of the catalog, and stored with ``setdefault``, so an entry loaded
        from a cache stays."""
        cache = self._hom_cache
        blocks = {}
        for a, b in dict.fromkeys((a, b) for a in rows for b in cols if (a, b) not in cache):
            blocks.setdefault((self.by_label[a].dim, self.by_label[b].dim), []).append((a, b))
        for (da, db), pairs in blocks.items():
            ia, ib = ([self._catalog_index[x] for x in labels] for labels in zip(*pairs))
            counts = hom_counts(self.quiver, self.q,
                                da, [m[ia] for m in self._catalog_by_dim[da][1]],
                                db, [m[ib] for m in self._catalog_by_dim[db][1]])
            for pair, h in zip(pairs, np.broadcast_to(counts, len(pairs)).tolist()):
                cache.setdefault(pair, h)
        return [[cache[a, b] for b in cols] for a in rows]

    # -- classes ---------------------------------------------------------

    def simple_class(self, v: int) -> IsoClass:
        return IsoClass((f"S{self.quiver.vertices[v]}",))

    def class_dim(self, cls: IsoClass):
        dim = [0] * self.quiver.n
        for part in cls.parts:
            d = self.by_label[part].dim
            dim = [a + b for a, b in zip(dim, d)]
        return tuple(dim)

    def classes_of_dim(self, dim) -> list:
        dim = tuple(dim)
        if dim in self._classes_cache:
            return self._classes_cache[dim]
        if any(d > b for d, b in zip(dim, self.dim_bound)) and not self.quiver.is_dynkin():
            # Kronecker indecomposables satisfy |a - b| <= 1, so the multiset
            # list stays complete as long as every indecomposable fitting
            # under dim is inside the catalog bound; otherwise refuse rather
            # than silently drop classes
            if min(dim) + 1 > min(self.dim_bound):
                raise BudgetExceeded(
                    f"dimension {dim} exceeds the table bound {self.dim_bound}")
        items = [it for it in self.catalog if all(d <= b for d, b in zip(it.dim, dim))]
        out = []

        def rec(idx, remaining, chosen):
            if all(r == 0 for r in remaining):
                out.append(IsoClass(tuple(sorted(chosen))))
                return
            if idx == len(items):
                return
            it = items[idx]
            max_copies = min((r // d if d else 10**9) for r, d in zip(remaining, it.dim))
            for copies in range(max_copies, -1, -1):
                rec(idx + 1,
                    tuple(r - copies * d for r, d in zip(remaining, it.dim)),
                    chosen + [it.label] * copies)

        rec(0, dim, [])
        out.sort()
        self._classes_cache[dim] = out
        return out

    def _class_stacks(self, dim) -> list:
        """Per arrow, the stack of the arrow matrices of the representatives
        of :meth:`classes_of_dim`, in its order, built once per dimension
        vector."""
        dim = tuple(dim)
        if dim not in self._class_stacks_cache:
            reps = [self.representative(cls) for cls in self.classes_of_dim(dim)]
            self._class_stacks_cache[dim] = [np.stack([rep.maps[k] for rep in reps])
                                             for k in range(len(self.quiver.arrows))]
        return self._class_stacks_cache[dim]

    def representative(self, cls: IsoClass) -> Representation:
        if cls.is_zero():
            return Representation.zero(self.quiver, self.q)
        if cls not in self._rep_cache:
            reps = [self.by_label[p].rep for p in cls.parts]
            self._rep_cache[cls] = direct_sum(reps)
        return self._rep_cache[cls]

    def hom(self, a: IsoClass, b: IsoClass) -> int:
        return sum(self.hom_indec(pa, pb) for pa in a.parts for pb in b.parts)

    def ext(self, a: IsoClass, b: IsoClass) -> int:
        """dim Ext^1(a, b) = dim Hom(a, b) - <dim a, dim b> (hereditary
        algebra); :func:`modules.ext_dims` is the independent oracle."""
        return self.hom(a, b) - euler_bilinear(self.quiver, self.class_dim(a),
                                               self.class_dim(b))

    def end_dim(self, cls: IsoClass) -> int:
        return self.hom(cls, cls)

    def epsilon(self, cls: IsoClass) -> int:
        d = self.class_dim(cls)
        return euler_bilinear(self.quiver, d, d)

    def is_exceptional(self, cls: IsoClass) -> bool:
        return not cls.is_zero() and self.ext(cls, cls) == 0

    def field_dependent(self, cls: IsoClass) -> bool:
        return any(self.by_label[p].field_dependent for p in cls.parts)

    def exceptional_pair_check(self, a: IsoClass, b: IsoClass) -> bool:
        """(A, B) exceptional: both indecomposable exceptional, Hom(B,A)=Ext(B,A)=0."""
        if not (a.is_indecomposable() and b.is_indecomposable()):
            return False
        if not (self.is_exceptional(a) and self.is_exceptional(b)):
            return False
        return self.hom(b, a) == 0 and self.ext(b, a) == 0

    # -- the scalar layer of hallalg.HallElement: Q(sqrt q) ----------------

    def scalar(self, c) -> QSqrtScalar:
        """c in Q(sqrt q); Laurent polynomials and rational functions in v are
        evaluated at v = sqrt(q)."""
        return c if isinstance(c, QSqrtScalar) else eval_at_sqrt_q(c, self.q)

    def zero(self) -> QSqrtScalar:
        return QSqrtScalar.zero(self.q)

    def v_power(self, e: int) -> QSqrtScalar:
        return QSqrtScalar.v_power(e, self.q)

    # -- automorphism orders ----------------------------------------------

    def aut_order(self, cls: IsoClass, q=None):
        """|Aut| from the closed forms for direct sums of indecomposables,
        evaluated at the table's prime or at ``q`` (an int, or v^2 for the
        generic layer's polynomial in q)."""
        q = self.q if q is None else q
        mult = cls.multiplicities()
        labels = sorted(mult)
        cross = 0
        for i, la in enumerate(labels):
            for lb in labels:
                if la != lb:
                    cross += mult[la] * mult[lb] * self.hom_indec(la, lb)
        total = q**cross
        for la in labels:
            s = mult[la]
            it = self.by_label[la]
            D = q**it.res_deg
            block = q ** (s * s * it.rad_dim)
            for t in range(s):
                block *= D**s - D**t
            total *= block
        return total

    aut = aut_order              # the layer's automorphism count

    def aut_order_units(self, cls: IsoClass) -> int:
        """|Aut| by brute enumeration of the unit group of End (small cases)."""
        from .modules import hom_basis
        rep = self.representative(cls)
        basis = hom_basis(rep, rep)
        e = len(basis)
        if self.q**e > self.ext_budget:
            raise BudgetExceeded(f"|End| = {self.q}^{e} exceeds budget")
        count = 0
        for coeffs in product(range(self.q), repeat=e):
            mats = [np.zeros((d, d), dtype=np.int64) for d in rep.dims]
            for c, bmats in zip(coeffs, basis):
                if c:
                    for v in range(self.quiver.n):
                        mats[v] = (mats[v] + c * bmats[v]) % self.q
            if all(linalg.invertible_mod(m, self.q) for m in mats if m.size):
                count += 1
        return count

    def aut_order_orbit(self, cls: IsoClass) -> int:
        """|Aut| = |G_d| / |orbit| via explicit orbit enumeration."""
        g_order = self._group_order(self.class_dim(cls))
        size = self._orbit_size(cls)
        check(g_order % size == 0, f"orbit size of {cls.label} does not divide |G_d|")
        return g_order // size

    def _group_order(self, dim) -> int:
        """|G_d|, the order of the base-change group prod_v GL(d_v, F_q)."""
        return prod(linalg.gl_order(d, self.q) for d in dim)

    def _point_count(self, dim) -> int:
        cells = sum(dim[s] * dim[t] for s, t in self.quiver.arrows)
        return self.q**cells

    def _unvisited(self, dim) -> np.ndarray:
        """An all-False mask over the points of E_d, within the point budget."""
        npoints = self._point_count(dim)
        if npoints > self.point_budget:
            raise BudgetExceeded(
                f"|E_d| = {npoints} exceeds the point budget {self.point_budget}")
        return np.zeros(npoints, dtype=bool)

    def _generators(self, dim) -> list:
        """(v, g, g^-1) generators of G_d: at each vertex the elementary
        matrices I + E_ij and, for q > 2, diag(primitive root, 1, ...)."""
        q = self.q
        gens = []
        for v, d in enumerate(dim):
            mats = []
            for i in range(d):
                for j in range(d):
                    if i != j:
                        m = np.eye(d, dtype=np.int64)
                        m[i, j] = 1
                        mats.append(m)
            if q > 2 and d:
                m = np.eye(d, dtype=np.int64)
                m[0, 0] = _primitive_root(q)
                mats.append(m)
            for m in mats:
                gens.append((v, m, linalg.solve_mod(m, np.eye(d, dtype=np.int64), q)))
        return gens

    def _orbit_size(self, cls: IsoClass) -> int:
        if cls not in self._aut_orbit_cache:
            dim = self.class_dim(cls)
            visited = self._unvisited(dim)
            maps = [m[None] for m in self.representative(cls).maps]
            self._aut_orbit_cache[cls] = orbit_fill(
                encode_points(maps, self.q, 1), visited, self.quiver.arrows, dim,
                self._generators(dim), self.q)
        return self._aut_orbit_cache[cls]

    def enumerate_classes(self, dim):
        """Orbit partition of E_d: one (IsoClass, representative) per orbit.

        Exact but budgeted: requires |E_d| = q^(sum of arrow cells) within the
        point budget.  Labels come from Krull-Schmidt decomposition of a point
        in each orbit; the per-orbit sizes must tile |E_d| exactly.
        """
        dim = tuple(dim)
        visited = self._unvisited(dim)
        npoints = visited.size
        gens = self._generators(dim)
        g_order = self._group_order(dim)
        cells = [(dim[t], dim[s]) for s, t in self.quiver.arrows]
        out = []
        covered = 0
        code = 0
        while covered < npoints:
            while code < npoints and visited[code]:
                code += 1
            check(code < npoints, "unvisited points run out before the orbits cover E_d")
            maps = [m[0] for m in decode_points([code], cells, self.q)]
            rep = Representation(self.quiver, self.q, dim, maps)
            size = orbit_fill([code], visited, self.quiver.arrows, dim, gens, self.q)
            covered += size
            cls = self.label_module(rep)
            out.append((cls, rep, size))
            check(g_order % self.aut_order(cls) == 0,
                  f"|Aut| of {cls.label} does not divide |G_d|")
            check(size == g_order // self.aut_order(cls),
                  f"orbit size {size} != |G|/|Aut| for {cls.label}")
        check(covered == npoints, f"orbits cover {covered} of {npoints} points")
        return [(cls, rep) for cls, rep, _ in sorted(out, key=lambda x: x[0])]

    def mass_check(self, dim) -> bool:
        """sum over classes of |G_d| / |Aut| equals |E_d| (catalog completeness)."""
        dim = tuple(dim)
        g_order = self._group_order(dim)
        total = 0
        for cls in self.classes_of_dim(dim):
            a = self.aut_order(cls)
            check(g_order % a == 0, f"|Aut| = {a} of {cls.label} does not divide |G_d|")
            total += g_order // a
        return total == self._point_count(dim)

    # -- Krull-Schmidt labeling ------------------------------------------

    def label_module(self, M: Representation) -> IsoClass:
        """Iso-class of a representation over the table's quiver and field: a
        batch of one for :meth:`label_modules`."""
        require_ring(M, self.quiver, self.q)
        return self.label_modules(M.dims, 1, [m[None] for m in M.maps])[0]

    def label_modules(self, dims, n, stacks) -> list:
        """The iso-classes of a batch of n modules of dimension vector
        ``dims`` over the table's quiver and field, in batch order.  The
        modules are given per arrow as one (n, d_t, d_s) int64 stack of
        arrow matrices, entries reduced mod q; n is passed because a quiver
        without arrows has no stacks.

        The only reader and writer of the label cache, keyed by
        :func:`_label_keys` and seeded with the zero module.  The distinct
        misses are picked from the stacks by index and labelled together by
        Hom-count decomposition:
        dim Hom(I, M) = sum_K mult_K * dim Hom(I, K) over the catalog; the
        catalog Hom matrix is invertible (block-triangular w.r.t. the
        preprojective < regular < preinjective order), so multiplicities are
        determined; they must come out as nonnegative integers.  The probes I
        are grouped by dimension vector, and each group's Hom counts against
        every miss come from one :func:`~hallcrys.modules.hom_counts`.  The
        inverse is cached per label set as an integer matrix over one common
        denominator, so the multiplicities are one integer matrix product
        with the Hom counts followed by an exact division.
        """
        cache = self._label_cache
        keys = _label_keys(dims, n, stacks)
        misses = {key: i for i, key in enumerate(keys) if key not in cache}
        if not misses:
            return [cache[key] for key in keys]
        items = [it for it in self.catalog if all(d <= b for d, b in zip(it.dim, dims))]
        if not items:
            raise ValueError(f"no catalog entries under dim {dims}")
        inv, den = self._hom_matrix_inverse(tuple(it.label for it in items))
        groups = {}
        for i, it in enumerate(items):
            groups.setdefault(it.dim, []).append(i)
        # the misses on the leading batch axis, the probes of a group on the next
        rows = list(misses.values())
        stack = [m[rows][:, None] for m in stacks]
        h = np.zeros((len(items), len(misses)), dtype=np.int64)
        for probe_dims, group in groups.items():
            probes = self._catalog_by_dim[probe_dims][1]
            h[group] = hom_counts(self.quiver, self.q, probe_dims, probes, dims, stack).T
        num = inv @ h
        integral = (num % den == 0) & (num >= 0)
        mult = num // den
        fits = (mult.T @ np.array([it.dim for it in items]) == dims).all(axis=1)
        bad = np.flatnonzero(~(integral.all(axis=0) & fits))
        if bad.size:
            b = bad[0]
            if not integral[:, b].all():
                i = int(np.argmin(integral[:, b]))
                raise CheckFailed(f"non-integral multiplicity {Fraction(int(num[i, b]), den)}"
                                  f" of {items[i].label}")
            raise CheckFailed("Hom-count decomposition does not match dimensions")
        for key, col in zip(misses, mult.T.tolist()):
            cache[key] = IsoClass(tuple(sorted(
                label for it, m in zip(items, col) for label in [it.label] * m)))
        return [cache[key] for key in keys]

    def _hom_matrix_inverse(self, labels):
        """(inv, den): the inverse of the catalog Hom matrix on ``labels`` is
        inv / den, with inv an int64 array and den > 0 the least common
        denominator of its entries."""
        if labels in self._solver_cache:
            return self._solver_cache[labels]
        n = len(labels)
        # rows indexed by probe I, columns by summand K: D[I][K] = hom(I, K)
        inv = _fraction_inverse(self.hom_matrix(labels, labels))
        den = lcm(*(x.denominator for row in inv for x in row))
        rows = [[x.numerator * (den // x.denominator) for x in row] for row in inv]
        # a Hom count is below 2**31, so inv @ counts stays exact in int64
        check(max(sum(map(abs, row)) for row in rows) < 2**31,
              f"catalog Hom inverse on {n} labels is too large for int64")
        out = (np.array(rows, dtype=np.int64).reshape(n, n), den)
        self._solver_cache[labels] = out
        return out

    # -- Hall numbers -------------------------------------------------------

    def hall_number(self, lam: IsoClass, alpha: IsoClass, beta: IsoClass) -> int:
        """g^lambda_{alpha beta}: submodules B of V_lambda with B = beta and
        V_lambda / B = alpha, counted by direct Grassmannian scan.

        One scan of the submodules of dimension dim beta in V_lambda', for
        every class lambda' of dimension dim lambda together, fills
        g^lambda'_{alpha' beta'} for every class lambda' and every pair of
        classes of dimensions (dim alpha, dim beta), zeros included, so each
        (dim lambda, dim beta) is scanned at most once.  A scan writes only
        the keys still absent: an entry already there, such as one merged by
        :meth:`load_cache`, is kept for the downstream checks to judge."""
        key = (lam, alpha, beta)
        if key in self._hall_cache:
            return self._hall_cache[key]
        ld = self.class_dim(lam)
        ad = self.class_dim(alpha)
        bd = self.class_dim(beta)
        if tuple(a + b for a, b in zip(ad, bd)) != ld:
            raise ValueError("dim alpha + dim beta != dim lambda")
        lams = self.classes_of_dim(ld)
        if lam not in lams:
            raise ValueError(f"{lam} is not a class of dimension {ld}")
        zeros = dict.fromkeys(product(self.classes_of_dim(ad), self.classes_of_dim(bd)), 0)
        for other, tally in self._scan_submodules(lams, bd).items():
            for (a, b), count in {**zeros, **tally}.items():
                self._hall_cache.setdefault((other, a, b), count)
        return self._hall_cache.setdefault(key, 0)

    def _scan_submodules(self, lams, bd) -> dict:
        """For each class lambda of ``lams`` (the classes of one dimension
        vector, as :meth:`classes_of_dim` lists them), count the submodules
        of V_lambda of dimension bd by the pair (class of the quotient, class
        of the submodule).

        One sweep of the Grassmannian product serves every lambda, in chunks
        of consecutive subspace tuples that hold at most
        ``modules._HOM_STACK`` block entries (:func:`modules.stack_cuts`).
        For each arrow one batched product gives the blocks of every
        (tuple, class) pair of a chunk, and one ``any`` over the lower-left
        blocks gives closure.  The closed pairs' quotient and submodule
        blocks are labelled as soon as their chunk is swept, one
        :meth:`label_modules` batch per side, with no representation built
        and no block kept."""
        q = self.q
        arrows = self.quiver.arrows
        dims = self.class_dim(lams[0])
        stacks = self._class_stacks(dims)
        side_dims = (tuple(d - b for d, b in zip(dims, bd)), tuple(bd))
        counts = Counter()      # (index in lams, quotient class, submodule class) -> count
        grass = [self._grassmannian(dims[v], bd[v]) for v in range(self.quiver.n)]
        total = prod(len(frames) for frames, _ in grass)
        entries = len(lams) * max(1, sum(dims[s] * dims[t] for s, t in arrows))
        for cut in modules.stack_cuts(total, entries):
            # per vertex, the Grassmannian index of each tuple of the chunk,
            # in the order of itertools.product
            point = np.unravel_index(np.arange(cut.start, cut.stop),
                                     [len(frames) for frames, _ in grass])
            closed = np.ones((len(point[0]), len(lams)), dtype=bool)
            blocks = []
            for k, (s, t) in enumerate(arrows):
                # the arrow in the frames [W_s | C_s] -> [W_t | C_t]: the tuple
                # is closed when W_s lands in W_t, i.e. the block C_t <- W_s is
                # zero; then the sub block maps W_s to W_t and the quotient
                # block C_s to C_t
                frame = grass[s][0][point[s]][:, None]
                frame_inv = grass[t][1][point[t]][:, None]
                block = frame_inv @ (stacks[k] @ frame) % q
                closed &= ~block[:, :, bd[t]:, :bd[s]].any(axis=(2, 3))
                blocks.append(block)
                if not closed.any():
                    break
            else:
                rows, cls = np.nonzero(closed)
                quot = [b[rows, cls, bd[t]:, bd[s]:] for b, (s, t) in zip(blocks, arrows)]
                sub = [b[rows, cls, :bd[t], :bd[s]] for b, (s, t) in zip(blocks, arrows)]
                counts.update(zip(cls.tolist(), self.label_modules(side_dims[0], len(rows), quot),
                                  self.label_modules(side_dims[1], len(rows), sub)))
        tallies = {lam: {} for lam in lams}
        for (i, quot, sub), count in counts.items():
            tallies[lams[i]][quot, sub] = count
        return tallies

    def _grassmannian(self, d: int, k: int):
        """The k-subspaces of F_q^d in the order of :func:`linalg.subspaces`,
        as two (N, d, d) stacks: the frames [W | C], with C the greedy
        complement, and their inverses, whose first k rows give coordinates
        in W and whose others project onto the quotient F_q^d / W in the
        basis C.  Both stacks are allocated once, N being the Gaussian
        binomial, and filled by one stacked :func:`linalg.complement_basis`
        per cut of the subspaces (:func:`modules.stack_cuts`), so the bases
        and the [B | I] elimination of one cut at a time are all the build
        holds beside them.  The whole Grassmannian stays cached."""
        key = (d, k)
        if key not in self._grass_cache:
            count = linalg.gaussian_binomial_int(d, k, self.q)
            frames = np.empty((count, d, d), dtype=np.int64)
            inverses = np.empty((count, d, d), dtype=np.int64)
            found = linalg.subspaces(d, k, self.q)
            # one cut's [B | I] holds d * (k + d) entries per subspace
            for cut in modules.stack_cuts(count, d * (k + d)):
                bases = np.stack(list(islice(found, cut.stop - cut.start)))
                comp, inverses[cut] = linalg.complement_basis(bases, self.q)
                frames[cut, :, :k] = bases
                frames[cut, :, k:] = comp
            self._grass_cache[key] = (frames, inverses)
        return self._grass_cache[key]

    # -- cache -------------------------------------------------------------

    def _cache_header(self) -> dict:
        return {"schema": 1, "quiver": self.quiver.to_json(), "q": self.q,
                "dim_bound": list(self.dim_bound)}

    def dump_cache(self) -> dict:
        """Computed Hall numbers and pair tables, JSON-ready."""
        return {
            **self._cache_header(),
            "hom": {f"{a}|{b}": v for (a, b), v in sorted(self._hom_cache.items())},
            "hall": {f"{l.label}|{a.label}|{b.label}": g
                     for (l, a, b), g in sorted(self._hall_cache.items(),
                                                key=lambda kv: (kv[0][0].label,
                                                                kv[0][1].label,
                                                                kv[0][2].label))},
        }

    def load_cache(self, data: dict) -> int:
        """Merge tables written by :meth:`dump_cache`; returns the number of
        malformed entries skipped (bad key shape, unknown label, dimensions
        that do not add up, or a value that is not a nonnegative integer).
        Any other section, such as the Ext table of older files, is not read.

        A payload for another schema, quiver (arrow order included), prime or
        bound is rejected whole with a ValueError."""
        if not isinstance(data, dict):
            raise ValueError("not a table cache")
        wrong = [name for name, value in self._cache_header().items()
                 if data.get(name) != value]
        if wrong:
            raise ValueError(f"table cache for another {', '.join(wrong)}")
        skipped = 0
        for section, store in (("hom", self._hom_cache), ("hall", self._hall_cache)):
            entries = data.get(section, {})
            if not isinstance(entries, dict):
                skipped += 1
                continue
            for key, value in entries.items():
                parsed = self._parse_cache_key(section, key)
                if parsed is None or type(value) is not int or value < 0:
                    skipped += 1
                else:
                    store[parsed] = value
        return skipped

    def _parse_cache_key(self, section: str, key: str):
        parts = key.split("|")
        if section != "hall":
            if len(parts) == 2 and all(p in self.by_label for p in parts):
                return tuple(parts)
            return None
        if len(parts) != 3:
            return None
        lam, alpha, beta = (parse_class_label(p) for p in parts)
        if not all(p in self.by_label for cls in (lam, alpha, beta) for p in cls.parts):
            return None
        ad, bd = self.class_dim(alpha), self.class_dim(beta)
        if tuple(a + b for a, b in zip(ad, bd)) != self.class_dim(lam):
            return None
        return lam, alpha, beta

    def hall_number_rp(self, lam: IsoClass, alpha: IsoClass, beta: IsoClass) -> int:
        """Riedtmann-Peng count: g = a_lam * |Ext(a,b)_lam| / (a_a a_b |Hom(a,b)|),
        with the Ext classes enumerated and their middle terms labeled."""
        ad = self.class_dim(alpha)
        bd = self.class_dim(beta)
        if tuple(a + b for a, b in zip(ad, bd)) != self.class_dim(lam):
            raise ValueError("dim alpha + dim beta != dim lambda")
        counts = self.extension_middle_counts(alpha, beta)
        n_lam = counts.get(lam, 0)
        a_lam = self.aut_order(lam)
        a_a = self.aut_order(alpha)
        a_b = self.aut_order(beta)
        hom_ab = self.q ** self.hom(alpha, beta)
        num = a_lam * n_lam
        den = a_a * a_b * hom_ab
        check(num % den == 0, "Riedtmann-Peng quotient must be integral")
        return num // den

    def extension_middle_counts(self, alpha: IsoClass, beta: IsoClass):
        """Count Ext(V_alpha, V_beta) classes by iso-class of the middle term.
        The middle terms are built and labelled one batch per cut of the
        cocycles (:func:`modules.stack_cuts`, by the entries of one middle
        term), so no batch outgrows ``modules._HOM_STACK`` entries."""
        q = self.q
        A = self.representative(alpha)
        B = self.representative(beta)
        # cocycles: tuples c_k in Hom(A_{s(k)}, B_{t(k)}); coboundaries: the
        # image of the Hom system f -> (B_k f_s - f_t A_k)
        comp = linalg.complement_basis(hom_system(A, B), q)[0]
        e = comp.shape[1]
        if self.q**e > self.ext_budget:
            raise BudgetExceeded(f"|Ext| = {q}^{e} exceeds the extension budget")
        dims = tuple(a + b for a, b in zip(A.dims, B.dims))
        counts = {}
        entries = sum(dims[s] * dims[t] for s, t in self.quiver.arrows)
        for cut in modules.stack_cuts(q**e, entries):
            # the cocycles' coordinates in comp: the base-q digits of their
            # indices, in the order of itertools.product
            coeffs = np.arange(cut.start, cut.stop)[:, None] // q ** np.arange(e - 1, -1, -1) % q
            middles = self._middle_terms(A, B, coeffs @ comp.T % q)
            for cls in self.label_modules(dims, len(coeffs), middles):
                counts[cls] = counts.get(cls, 0) + 1
        return counts

    def _middle_terms(self, A, B, cocycles) -> list:
        """Per arrow, the stack of the matrices [[A_k, 0], [c_k, B_k]] of the
        middle terms of the cocycles (the rows of ``cocycles``, cells in
        arrow order)."""
        n = cocycles.shape[0]
        stacks = []
        off = 0
        for k, (s, t) in enumerate(self.quiver.arrows):
            r, c = B.dims[t], A.dims[s]
            m = np.zeros((n, A.dims[t] + r, A.dims[s] + B.dims[s]), dtype=np.int64)
            m[:, :A.dims[t], :c] = A.maps[k]
            m[:, A.dims[t]:, :c] = cocycles[:, off:off + r * c].reshape(n, r, c)
            m[:, A.dims[t]:, c:] = B.maps[k]
            off += r * c
            stacks.append(m)
        return stacks


class TableSet(dict):
    """The ClassTables of one quiver and bound, keyed by prime and built on
    first use by ``build(q)`` (by default ``ClassTable(quiver, q,
    dim_bound)``); a GenericContext and a CertificateEngine can share one.

    Cross-prime work (Hall-polynomial interpolation, certificate replay by
    label) rests on rigid labels and the Hom dimensions among them not
    depending on q, so every table built after the first is checked against
    the first: the same rigid (label, dim) list and the same Hom matrix on it.
    A prime whose table fails the check keeps its CheckFailed, which every
    later lookup raises again without building the table anew.
    """

    def __init__(self, quiver: Quiver, dim_bound, build=None):
        super().__init__()
        self.quiver = quiver
        self.dim_bound = quiver.vertex_bound(dim_bound)
        self.build = build or (lambda q: ClassTable(quiver, q, self.dim_bound))
        self.failures = {}

    def __missing__(self, q: int) -> ClassTable:
        if q in self.failures:
            raise self.failures[q]
        table = self.build(q)
        if self:
            try:
                _check_same_rigid(next(iter(self.values())), table)
            except CheckFailed as exc:
                self.failures[q] = exc
                raise
        self[q] = table
        return table


def _check_same_rigid(first: ClassTable, other: ClassTable):
    """Raise CheckFailed unless both tables have the same rigid (label, dim)
    list and the same Hom dimensions among those labels."""
    def rigid(t):
        return sorted((it.label, it.dim) for it in t.catalog if not it.field_dependent)

    where = f"at q = {first.q} and q = {other.q}"
    entries = rigid(first)
    check(entries == rigid(other), f"rigid labels differ {where}")
    labels = [a for a, _ in entries]
    for a, row, other_row in zip(labels, first.hom_matrix(labels, labels),
                                 other.hom_matrix(labels, labels)):
        for b, h, other_h in zip(labels, row, other_row):
            check(h == other_h, f"Hom({a},{b}) differs {where}")


def _label_keys(dims, n, stacks) -> list:
    """The label-cache keys of n modules of dimension vector ``dims``, given
    per arrow as (n, d_t, d_s) int64 stacks with entries reduced mod q: the
    dimension vector and one bytes string per module, its arrow matrices in
    arrow order, each row-major, all read off one ``void`` view."""
    flat = np.concatenate([np.zeros((n, 0), dtype=np.int64)]
                          + [m.reshape(n, m.shape[1] * m.shape[2]) for m in stacks], axis=1)
    if not flat.shape[1]:
        return [(dims, b"")] * n
    raw = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel().tolist()
    return [(dims, key) for key in raw]


def _fraction_inverse(rows):
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(k == i)) for k in range(n)]
           for i, row in enumerate(rows)]
    pivots = linalg.gauss_jordan(aug, n)[0]
    if len(pivots) < n:
        raise CheckFailed("catalog Hom matrix is singular")
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ValueError(f"no primitive root mod {p}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
