"""Isomorphism classes, automorphism counts and Hall numbers at a fixed prime.

A :class:`ClassTable` holds, for one quiver, one prime q and a dimension
bound: the indecomposable catalog, the iso-classes per dimension vector
(Krull-Schmidt multisets), automorphism orders, Hom/Ext tables and Hall
numbers.  Completeness of the catalog is certified by the mass formula
``sum_{classes of dim d} |G_d| / |Aut| = |E_d|``, an exact integer identity
checked at every prime; orbit enumeration under the base-change group gives
an independent second route within the point budget.

Hall numbers come from Grassmannian scans: one scan of the subspace tuples
of dimension dim beta in V_lambda labels every closed tuple's submodule and
quotient, and so fills g^lambda_{alpha beta} for all classes alpha, beta of
those dimensions at once.  Each Grassmannian is enumerated once per table,
together with a complement and the coordinate and quotient projections of
every subspace.  :meth:`ClassTable.hall_number_rp` (Riedtmann-Peng, by
extension-class counting) stays as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from . import linalg
from ._kernels import orbit_fill
from .modules import (BudgetExceeded, Representation, direct_sum, ext_dim,
                      hom_dim, hom_system, indecomposable_catalog)
from .quivers import Quiver, euler_bilinear


@dataclass(frozen=True, order=True)
class IsoClass:
    """A field-stable iso-class label: multiset of indecomposable labels."""
    parts: tuple

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


class _Subspace(NamedTuple):
    """A k-subspace W of F_q^d as the frame [W | C], with C the complement
    from :func:`linalg.complement_basis`, and the frame's inverse: the first k
    rows of the inverse give coordinates in W, the others project onto the
    quotient F_q^d / W in the basis C."""
    k: int
    frame: np.ndarray
    frame_inv: np.ndarray


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
        self.dim_bound = tuple(dim_bound)
        self.point_budget = int(point_budget)
        self.ext_budget = int(ext_budget)
        self.catalog = indecomposable_catalog(quiver, q, self.dim_bound)
        self.by_label = {it.label: it for it in self.catalog}
        self._hom_cache = {}
        self._ext_cache = {}
        self._rep_cache = {}
        self._label_cache = {}
        self._solver_cache = {}
        self._hall_cache = {}
        self._grass_cache = {}
        self._classes_cache = {}
        self._aut_orbit_cache = {}
        for it in self.catalog:
            if not it.field_dependent:
                # rigid catalog entries must be bricks without self-extensions
                assert self.hom_indec(it.label, it.label) == 1, it.label
                assert self.ext_indec(it.label, it.label) == 0, it.label
            else:
                assert self.hom_indec(it.label, it.label) == it.end_dim, it.label

    # -- indecomposable-level tables ------------------------------------

    def hom_indec(self, a: str, b: str) -> int:
        key = (a, b)
        if key not in self._hom_cache:
            self._hom_cache[key] = hom_dim(self.by_label[a].rep, self.by_label[b].rep)
        return self._hom_cache[key]

    def ext_indec(self, a: str, b: str) -> int:
        key = (a, b)
        if key not in self._ext_cache:
            self._ext_cache[key] = ext_dim(self.by_label[a].rep, self.by_label[b].rep)
        return self._ext_cache[key]

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
        return sum(self.ext_indec(pa, pb) for pa in a.parts for pb in b.parts)

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

    # -- automorphism orders ----------------------------------------------

    def aut_order(self, cls: IsoClass) -> int:
        """|Aut| from the closed forms for direct sums of indecomposables."""
        q = self.q
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
        dim = self.class_dim(cls)
        size = self._orbit_size(cls)
        g_order = 1
        for d in dim:
            g_order *= linalg.gl_order(d, self.q)
        assert g_order % size == 0
        return g_order // size

    def _point_count(self, dim) -> int:
        cells = sum(dim[s] * dim[t] for s, t in self.quiver.arrows)
        return self.q**cells

    def _orbit_machinery(self, dim):
        q = self.q
        quiver = self.quiver
        maxd = max(max(dim), 1)
        gens = []
        prim = _primitive_root(q)
        for v, d in enumerate(dim):
            if d == 0:
                continue
            mats = []
            for i in range(d):
                for j in range(d):
                    if i != j:
                        m = np.eye(d, dtype=np.int64)
                        m[i, j] = 1
                        mats.append(m)
            if q > 2 or d == 0:
                m = np.eye(d, dtype=np.int64)
                m[0, 0] = prim
                mats.append(m)
            if not mats:
                m = np.eye(d, dtype=np.int64)
                mats.append(m)
            for m in mats:
                gens.append((v, m))
        ngen = max(len(gens), 1)
        gen_left = np.zeros((ngen, quiver.n, maxd, maxd), dtype=np.int64)
        gen_right = np.zeros((ngen, quiver.n, maxd, maxd), dtype=np.int64)
        for g in range(ngen):
            for v in range(quiver.n):
                d = dim[v]
                gen_left[g, v, :d, :d] = np.eye(d, dtype=np.int64)
                gen_right[g, v, :d, :d] = np.eye(d, dtype=np.int64)
        for g, (v, m) in enumerate(gens):
            d = dim[v]
            gen_left[g, v, :d, :d] = m
            inv = linalg.solve_mod(m, np.eye(d, dtype=np.int64), q)
            gen_right[g, v, :d, :d] = inv
        arrow_src = np.array([s for s, _ in quiver.arrows], dtype=np.int64)
        arrow_tgt = np.array([t for _, t in quiver.arrows], dtype=np.int64)
        dims_arr = np.array(dim, dtype=np.int64)
        return gen_left, gen_right, arrow_src, arrow_tgt, dims_arr

    def _encode_rep(self, rep: Representation) -> int:
        code = 0
        shift = 1
        q = self.q
        for k in range(len(self.quiver.arrows)):
            m = rep.maps[k]
            for i in range(m.shape[0]):
                for j in range(m.shape[1]):
                    code += int(m[i, j]) * shift
                    shift *= q
        return code

    def _decode_rep(self, code: int, dim) -> Representation:
        q = self.q
        maps = []
        rem = code
        for s, t in self.quiver.arrows:
            m = np.zeros((dim[t], dim[s]), dtype=np.int64)
            for i in range(dim[t]):
                for j in range(dim[s]):
                    m[i, j] = rem % q
                    rem //= q
            maps.append(m)
        return Representation(self.quiver, q, dim, maps)

    def _orbit_size(self, cls: IsoClass) -> int:
        if cls in self._aut_orbit_cache:
            return self._aut_orbit_cache[cls]
        dim = self.class_dim(cls)
        npoints = self._point_count(dim)
        if npoints > self.point_budget:
            raise BudgetExceeded(
                f"|E_d| = {npoints} exceeds the point budget {self.point_budget}")
        rep = self.representative(cls)
        visited = np.zeros(npoints, dtype=bool)
        machinery = self._orbit_machinery(dim)
        size = orbit_fill([self._encode_rep(rep)], visited, *machinery, self.q)
        self._aut_orbit_cache[cls] = size
        return size

    def enumerate_classes(self, dim):
        """Orbit partition of E_d: one (IsoClass, representative) per orbit.

        Exact but budgeted: requires |E_d| = q^(sum of arrow cells) within the
        point budget.  Labels come from Krull-Schmidt decomposition of a point
        in each orbit; the per-orbit sizes must tile |E_d| exactly.
        """
        dim = tuple(dim)
        npoints = self._point_count(dim)
        if npoints > self.point_budget:
            raise BudgetExceeded(
                f"|E_d| = {npoints} exceeds the point budget {self.point_budget}")
        visited = np.zeros(npoints, dtype=bool)
        machinery = self._orbit_machinery(dim)
        out = []
        covered = 0
        code = 0
        while covered < npoints:
            while code < npoints and visited[code]:
                code += 1
            assert code < npoints
            rep = self._decode_rep(code, dim)
            size = orbit_fill([code], visited, *machinery, self.q)
            covered += size
            cls = self.label_module(rep)
            out.append((cls, rep, size))
            g_order = 1
            for d in dim:
                g_order *= linalg.gl_order(d, self.q)
            assert g_order % self.aut_order(cls) == 0
            assert size == g_order // self.aut_order(cls), \
                f"orbit size {size} != |G|/|Aut| for {cls.label}"
        assert covered == npoints
        return [(cls, rep) for cls, rep, _ in sorted(out, key=lambda x: x[0])]

    def mass_check(self, dim) -> bool:
        """sum over classes of |G_d| / |Aut| equals |E_d| (catalog completeness)."""
        dim = tuple(dim)
        g_order = 1
        for d in dim:
            g_order *= linalg.gl_order(d, self.q)
        total = 0
        for cls in self.classes_of_dim(dim):
            a = self.aut_order(cls)
            assert g_order % a == 0
            total += g_order // a
        return total == self._point_count(dim)

    # -- Krull-Schmidt labeling ------------------------------------------

    def label_module(self, M: Representation) -> IsoClass:
        """Iso-class of an arbitrary representation by Hom-count decomposition.

        dim Hom(I, M) = sum_K mult_K * dim Hom(I, K) over the catalog; the
        catalog Hom matrix is invertible (block-triangular w.r.t. the
        preprojective < regular < preinjective order), so multiplicities are
        determined; they must come out as nonnegative integers.
        """
        if M.is_zero():
            return ZERO_CLASS
        key = (M.dims, tuple(m.tobytes() for m in M.maps))
        if key in self._label_cache:
            return self._label_cache[key]
        items = [it for it in self.catalog
                 if all(d <= b for d, b in zip(it.dim, M.dims))]
        if not items:
            raise ValueError(f"no catalog entries under dim {M.dims}")
        labels = tuple(it.label for it in items)
        inv = self._hom_matrix_inverse(labels)
        h = [Fraction(hom_dim(it.rep, M)) for it in items]
        mult = [sum(inv[i][j] * h[j] for j in range(len(items)))
                for i in range(len(items))]
        parts = []
        dim = [0] * self.quiver.n
        for it, m in zip(items, mult):
            if m.denominator != 1 or m < 0:
                raise ValueError(f"non-integral multiplicity {m} of {it.label}")
            parts.extend([it.label] * int(m))
            for v in range(self.quiver.n):
                dim[v] += int(m) * it.dim[v]
        if tuple(dim) != M.dims:
            raise ValueError("Hom-count decomposition does not match dimensions")
        cls = IsoClass(tuple(sorted(parts)))
        # independent consistency: End dimension must agree
        assert self.end_dim(cls) == hom_dim(M, M), f"End mismatch for {cls.label}"
        self._label_cache[key] = cls
        return cls

    def _hom_matrix_inverse(self, labels):
        if labels in self._solver_cache:
            return self._solver_cache[labels]
        n = len(labels)
        # rows indexed by probe I, columns by summand K: D[I][K] = hom(I, K)
        D = [[Fraction(self.hom_indec(labels[i], labels[j])) for j in range(n)]
             for i in range(n)]
        inv = _fraction_inverse(D)
        self._solver_cache[labels] = inv
        return inv

    # -- Hall numbers -------------------------------------------------------

    def hall_number(self, lam: IsoClass, alpha: IsoClass, beta: IsoClass) -> int:
        """g^lambda_{alpha beta}: submodules B of V_lambda with B = beta and
        V_lambda / B = alpha, counted by direct Grassmannian scan.

        One scan of the submodules of dimension dim beta in V_lambda fills
        g^lambda_{alpha' beta'} for every pair of classes of dimensions
        (dim alpha, dim beta), zeros included, so each (lambda, dim beta)
        is scanned at most once."""
        key = (lam, alpha, beta)
        if key in self._hall_cache:
            return self._hall_cache[key]
        ld = self.class_dim(lam)
        ad = self.class_dim(alpha)
        bd = self.class_dim(beta)
        if tuple(a + b for a, b in zip(ad, bd)) != ld:
            raise ValueError("dim alpha + dim beta != dim lambda")
        for a in self.classes_of_dim(ad):
            for b in self.classes_of_dim(bd):
                self._hall_cache[(lam, a, b)] = 0
        for (a, b), count in self._scan_submodules(lam, bd).items():
            self._hall_cache[(lam, a, b)] = count
        return self._hall_cache.setdefault(key, 0)

    def _scan_submodules(self, lam: IsoClass, bd) -> dict:
        """Count the submodules of V_lambda of dimension bd by the pair
        (class of the quotient, class of the submodule)."""
        q = self.q
        rep = self.representative(lam)
        arrows = self.quiver.arrows
        quot_dims = [d - b for d, b in zip(rep.dims, bd)]
        tally = {}
        grass = [self._grassmannian(rep.dims[v], bd[v]) for v in range(self.quiver.n)]
        for combo in product(*grass):
            sub_maps = []
            quot_maps = []
            for k, (s, t) in enumerate(arrows):
                ws, wt = combo[s], combo[t]
                # columns of image: the submodule's image, then the complement's
                image = (rep.maps[k] @ ws.frame) % q
                if ws.k and not linalg.column_space_contains(
                        wt.frame[:, :wt.k], image[:, :ws.k], q):
                    break
                # in the target frame's coordinates the map is block triangular:
                # the sub block maps W_s to W_t, the quotient block C_s to C_t
                block = (wt.frame_inv @ image) % q
                sub_maps.append(block[:wt.k, :ws.k])
                quot_maps.append(block[wt.k:, ws.k:])
            else:
                sub = Representation(self.quiver, q, bd, sub_maps)
                quot = Representation(self.quiver, q, quot_dims, quot_maps)
                pair = (self.label_module(quot), self.label_module(sub))
                tally[pair] = tally.get(pair, 0) + 1
        return tally

    def _grassmannian(self, d: int, k: int) -> list:
        """The k-subspaces of F_q^d, each as a :class:`_Subspace`."""
        key = (d, k)
        if key not in self._grass_cache:
            out = []
            for basis in linalg.subspaces(d, k, self.q):
                frame = np.concatenate([basis, linalg.complement_basis(basis, self.q)],
                                       axis=1)
                if d:
                    inv = linalg.solve_mod(frame, np.eye(d, dtype=np.int64), self.q)
                else:
                    inv = np.zeros((0, 0), dtype=np.int64)
                out.append(_Subspace(k, frame, inv))
            self._grass_cache[key] = out
        return self._grass_cache[key]

    # -- cache -------------------------------------------------------------

    def dump_cache(self) -> dict:
        """Computed Hall numbers and pair tables, JSON-ready."""
        return {
            "schema": 1,
            "quiver": self.quiver.to_json(),
            "q": self.q,
            "dim_bound": list(self.dim_bound),
            "hom": {f"{a}|{b}": v for (a, b), v in sorted(self._hom_cache.items())},
            "ext": {f"{a}|{b}": v for (a, b), v in sorted(self._ext_cache.items())},
            "hall": {f"{l.label}|{a.label}|{b.label}": g
                     for (l, a, b), g in sorted(self._hall_cache.items(),
                                                key=lambda kv: (kv[0][0].label,
                                                                kv[0][1].label,
                                                                kv[0][2].label))},
            "aut": {cls.label: self.aut_order(cls)
                    for dim in sorted(self._classes_cache)
                    for cls in self._classes_cache[dim]},
            "classes": {".".join(map(str, dim)): [c.label for c in classes]
                        for dim, classes in sorted(self._classes_cache.items())},
        }

    def load_cache(self, data: dict) -> int:
        """Merge tables written by :meth:`dump_cache`; returns the number of
        malformed entries skipped (bad key shape, unknown label, dimensions
        that do not add up, or a value that is not a nonnegative integer)."""
        if not isinstance(data, dict):
            return 1
        if data.get("q") != self.q or data.get("dim_bound") != list(self.dim_bound):
            return 0
        skipped = 0
        for section, store in (("hom", self._hom_cache), ("ext", self._ext_cache),
                               ("hall", self._hall_cache)):
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
        assert num % den == 0, "Riedtmann-Peng quotient must be integral"
        return num // den

    def extension_middle_counts(self, alpha: IsoClass, beta: IsoClass):
        """Count Ext(V_alpha, V_beta) classes by iso-class of the middle term."""
        q = self.q
        A = self.representative(alpha)
        B = self.representative(beta)
        # cocycles: tuples c_k in Hom(A_{s(k)}, B_{t(k)}); coboundaries: the
        # image of the Hom system f -> (B_k f_s - f_t A_k)
        cell_shapes = [(B.dims[t], A.dims[s]) for s, t in self.quiver.arrows]
        d = hom_system(A, B)
        ncells, nvars = d.shape
        if nvars and ncells:
            img = linalg.column_reduce(d, q)
        else:
            img = np.zeros((ncells, 0), dtype=np.int64)
        comp = linalg.complement_basis(img, q) if ncells else np.zeros((0, 0), dtype=np.int64)
        e = comp.shape[1]
        if self.q**e > self.ext_budget:
            raise BudgetExceeded(f"|Ext| = {q}^{e} exceeds the extension budget")
        counts = {}
        for coeffs in product(range(q), repeat=e):
            vec = np.zeros(ncells, dtype=np.int64)
            for c, col in zip(coeffs, comp.T):
                vec = (vec + c * col) % q
            middle = self._middle_term(A, B, vec, cell_shapes)
            cls = self.label_module(middle)
            counts[cls] = counts.get(cls, 0) + 1
        return counts

    def _middle_term(self, A, B, vec, cell_shapes):
        q = self.q
        dims = tuple(A.dims[v] + B.dims[v] for v in range(self.quiver.n))
        maps = []
        off = 0
        for k, (s, t) in enumerate(self.quiver.arrows):
            r, c = cell_shapes[k]
            cmat = vec[off:off + r * c].reshape(r, c)
            off += r * c
            m = np.zeros((dims[t], dims[s]), dtype=np.int64)
            m[:A.dims[t], :A.dims[s]] = A.maps[k]
            m[A.dims[t]:, :A.dims[s]] = cmat
            m[A.dims[t]:, A.dims[s]:] = B.maps[k]
            maps.append(m)
        return Representation(self.quiver, q, dims, maps)


class TableSet(dict):
    """The ClassTables of one quiver and bound, keyed by prime and built on
    first use by ``build(q)``; a GenericContext and a CertificateEngine can
    share one."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, q: int) -> ClassTable:
        table = self[q] = self.build(q)
        return table


def _fraction_inverse(rows):
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(k == i)) for k in range(n)]
           for i, row in enumerate(rows)]
    pivots, _ = linalg.gauss_jordan(aug, n)
    if len(pivots) < n:
        raise ValueError("catalog Hom matrix is singular")
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
