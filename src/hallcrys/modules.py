"""Finite-field quiver representations: Hom/Ext, reflection functors, catalogs.

A representation assigns F_q^{d_v} to each vertex and a (d_target x d_source)
matrix to each arrow.  Everything is exact integer arithmetic mod q.

The duality D = Hom_k(-, k) to the opposite quiver writes each mirrored
construction once: sigma^+_i = D sigma^-_i D, and I_v = D P_v(Q^op).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import linalg
from .checks import check
from .quivers import Quiver, dim_total


class BudgetExceeded(RuntimeError):
    pass


class CatalogUnavailable(RuntimeError):
    pass


class Representation:
    """A representation of a quiver over the prime field F_q."""

    __slots__ = ("quiver", "q", "dims", "maps")

    def __init__(self, quiver: Quiver, q: int, dims, maps=None):
        self.quiver = quiver
        self.q = int(q)
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != quiver.n or any(d < 0 for d in self.dims):
            raise ValueError(f"bad dimension vector {dims}")
        out = []
        for k, (s, t) in enumerate(quiver.arrows):
            shape = (self.dims[t], self.dims[s])
            if maps is None:
                m = np.zeros(shape, dtype=np.int64)
            else:
                m = np.asarray(maps[k], dtype=np.int64) % q
                if m.shape != shape:
                    raise ValueError(f"arrow {k}: matrix shape {m.shape} != {shape}")
            out.append(m)
        self.maps = out

    @staticmethod
    def zero(quiver: Quiver, q: int) -> "Representation":
        return Representation(quiver, q, (0,) * quiver.n)

    @staticmethod
    def simple(quiver: Quiver, q: int, v: int) -> "Representation":
        dims = tuple(1 if i == v else 0 for i in range(quiver.n))
        return Representation(quiver, q, dims)

    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def __repr__(self):
        return f"Representation(q={self.q}, dims={self.dims})"


def direct_sum(reps) -> Representation:
    reps = list(reps)
    if not reps:
        raise ValueError("empty direct sum; pass Representation.zero explicitly")
    quiver, q = reps[0].quiver, reps[0].q
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(quiver.n))
    maps = []
    for k, (s, t) in enumerate(quiver.arrows):
        block = np.zeros((dims[t], dims[s]), dtype=np.int64)
        ro = co = 0
        for r in reps:
            rt, cs = r.dims[t], r.dims[s]
            block[ro:ro + rt, co:co + cs] = r.maps[k]
            ro += rt
            co += cs
        maps.append(block)
    return Representation(quiver, q, dims, maps)


def dual(M: Representation) -> Representation:
    """D M = Hom_k(M, k), a representation of the opposite quiver: the same
    dimension vector, every arrow matrix transposed."""
    return Representation(M.quiver.opposite(), M.q, M.dims, [m.T for m in M.maps])


# ----------------------------------------------------------------------
# Hom via the intertwiner system


def hom_system(M: Representation, N: Representation) -> np.ndarray:
    """Matrix whose right kernel is Hom(M, N): one pair of
    :func:`hom_system_stack`."""
    return hom_system_stack(M.quiver, M.q, M.dims, M.maps, N.dims, N.maps)


def hom_system_stack(quiver: Quiver, q: int, m_dims, m_maps, n_dims, n_maps) -> np.ndarray:
    """The systems N_r f_s = f_t M_r whose right kernels are Hom(M, N), for
    stacks of M and N of dimension vectors ``m_dims`` and ``n_dims``.

    ``m_maps[r]`` and ``n_maps[r]`` are arrow r's matrices with any leading
    batch axes, which broadcast against each other; the result has the
    broadcast batch axes followed by (conditions, unknowns).  The blocks of
    arrow r are the Kronecker products N_r (x) I and I (x) M_r^T, built by
    broadcasting: at these small shapes that costs less than half of numpy's
    Kronecker-product routine."""
    nvar = [n_dims[v] * m_dims[v] for v in range(quiver.n)]
    offs = np.cumsum([0] + nvar)
    rows = sum(n_dims[t] * m_dims[s] for s, t in quiver.arrows)
    batch = np.broadcast_shapes(*(np.shape(m)[:-2] for m in (*m_maps, *n_maps)))
    D = np.zeros(batch + (rows, offs[-1]), dtype=np.int64)
    r0 = 0
    for k, (s, t) in enumerate(quiver.arrows):
        ms, nt = m_dims[s], n_dims[t]
        blk = nt * ms
        if blk:
            if nvar[s]:
                eye = np.eye(ms, dtype=np.int64)
                n_k = np.asarray(n_maps[k])
                D[..., r0:r0 + blk, offs[s]:offs[s + 1]] = (
                    n_k[..., :, None, :, None] * eye[:, None, :]
                ).reshape(n_k.shape[:-2] + (blk, nvar[s]))
            if nvar[t]:
                eye = np.eye(nt, dtype=np.int64)
                m_k = np.asarray(m_maps[k])
                D[..., r0:r0 + blk, offs[t]:offs[t + 1]] -= (
                    eye[:, None, :, None] * np.swapaxes(m_k, -1, -2)[..., None, :, None, :]
                ).reshape(m_k.shape[:-2] + (blk, nvar[t]))
        r0 += blk
    return D % q


def hom_dim(M: Representation, N: Representation) -> int:
    if M.q != N.q:
        raise ValueError("mismatched base field")
    D = hom_system(M, N)
    if D.shape[1] == 0:
        return 0
    return D.shape[1] - linalg.rank_mod(D, M.q) if D.shape[0] else D.shape[1]


def hom_basis(M: Representation, N: Representation):
    """Basis of Hom(M,N) as lists of per-vertex matrices (N_v x M_v)."""
    D = hom_system(M, N)
    if D.shape[1] == 0:
        return []
    if D.shape[0] == 0:
        ns = np.eye(D.shape[1], dtype=np.int64)
    else:
        ns = linalg.nullspace_mod(D, M.q)
    out = []
    offs = np.cumsum([0] + [N.dims[v] * M.dims[v] for v in range(M.quiver.n)])
    for col in range(ns.shape[1]):
        vec = ns[:, col]
        mats = []
        for v in range(M.quiver.n):
            mats.append(vec[offs[v]:offs[v + 1]].reshape(N.dims[v], M.dims[v]))
        out.append(mats)
    return out


# ----------------------------------------------------------------------
# Ext via the explicit projective presentation of the path algebra


def paths_from(quiver: Quiver, v: int):
    """All paths starting at v as (arrow index tuple, endpoint)."""
    out = [((), v)]
    frontier = [((), v)]
    while frontier:
        nxt = []
        for word, w in frontier:
            for k in quiver.arrows_out_of(w):
                item = (word + (k,), quiver.arrows[k][1])
                nxt.append(item)
        out.extend(nxt)
        frontier = nxt
    return out


def _path_basis(quiver: Quiver, v: int):
    """Paths starting at v grouped by endpoint, each group sorted: the basis
    of P_v at every vertex, in the order :func:`projective` indexes it."""
    by_vertex = [[] for _ in range(quiver.n)]
    for word, w in paths_from(quiver, v):
        by_vertex[w].append(word)
    for words in by_vertex:
        words.sort()
    return by_vertex


def projective(quiver: Quiver, q: int, v: int) -> Representation:
    """The indecomposable projective P_v, with path basis."""
    by_vertex = _path_basis(quiver, v)
    index = {word: pos for words in by_vertex for pos, word in enumerate(words)}
    dims = tuple(len(words) for words in by_vertex)
    maps = []
    for k, (s, t) in enumerate(quiver.arrows):
        m = np.zeros((dims[t], dims[s]), dtype=np.int64)
        for word in by_vertex[s]:
            m[index[word + (k,)], index[word]] = 1
        maps.append(m)
    return Representation(quiver, q, dims, maps)


def _precompose_matrix(quiver: Quiver, k: int, bases):
    """Per-vertex matrices of the morphism P_{t(k)} -> P_{s(k)}, y -> y o k;
    ``bases[v]`` is :func:`_path_basis` of v."""
    s, t = quiver.arrows[k]
    bt, bs = bases[t], bases[s]
    mats = []
    for w in range(quiver.n):
        m = np.zeros((len(bs[w]), len(bt[w])), dtype=np.int64)
        pos_s = {word: i for i, word in enumerate(bs[w])}
        for j, word in enumerate(bt[w]):
            m[pos_s[(k,) + word], j] = 1
        mats.append(m)
    return mats


def hom_ext(M: Representation, N: Representation):
    """(dim Hom, dim Ext) as a pair; the two dimensions are computed by
    independent routes, so hom - ext = <dim M, dim N> stays a real check."""
    return hom_dim(M, N), ext_dim(M, N)


def is_exceptional(M: Representation) -> bool:
    """No self-extensions (and nonzero)."""
    return not M.is_zero() and ext_dim(M, M) == 0


def projective_presentation(M: Representation):
    """The standard presentation P1 --phi--> P0 -->> M over the path algebra.

    P0 = sum_v P_v^{M_v}, P1 = sum_{arrows k} P_{t(k)}^{M_{s(k)}}; phi sends
    the (k, c) copy into the (s(k), c) copy by path precomposition and into
    the (t(k), c') copies by -M_k[c', c] times the identity.  Returns
    (P1, P0, phi) with phi a list of per-vertex matrices P1_w -> P0_w.
    """
    quiver, q = M.quiver, M.q
    proj = [projective(quiver, q, v) for v in range(quiver.n)]
    p0_parts = [(v, c) for v in range(quiver.n) for c in range(M.dims[v])]
    p1_parts = [(k, c) for k in range(len(quiver.arrows))
                for c in range(M.dims[quiver.arrows[k][0]])]
    P0 = direct_sum([proj[v] for v, _ in p0_parts]) if p0_parts else Representation.zero(quiver, q)
    P1 = (direct_sum([proj[quiver.arrows[k][1]] for k, _ in p1_parts])
          if p1_parts else Representation.zero(quiver, q))

    def offsets(parts, of):
        offs = []
        acc = [0] * quiver.n
        for part in parts:
            offs.append(tuple(acc))
            d = of(part)
            acc = [a + d_w for a, d_w in zip(acc, d)]
        return offs

    off0 = offsets(p0_parts, lambda part: proj[part[0]].dims)
    off1 = offsets(p1_parts, lambda part: proj[quiver.arrows[part[0]][1]].dims)

    bases = [_path_basis(quiver, v) for v in range(quiver.n)]
    pre = [_precompose_matrix(quiver, k, bases) for k in range(len(quiver.arrows))]
    phi = [np.zeros((P0.dims[w], P1.dims[w]), dtype=np.int64) for w in range(quiver.n)]
    for cidx, (k, c) in enumerate(p1_parts):
        s, t = quiver.arrows[k]
        pt = proj[t]
        for w in range(quiver.n):
            cblock = slice(off1[cidx][w], off1[cidx][w] + pt.dims[w])
            for ridx, (v, cc) in enumerate(p0_parts):
                pv = proj[v]
                rblock = slice(off0[ridx][w], off0[ridx][w] + pv.dims[w])
                if v == s and cc == c:
                    phi[w][rblock, cblock] += pre[k][w]
                if v == t:
                    coeff = int(M.maps[k][cc, c])
                    if coeff:
                        phi[w][rblock, cblock] -= coeff * np.eye(pt.dims[w], dtype=np.int64)
    phi = [m % q for m in phi]
    return P1, P0, phi


def is_morphism(M: Representation, N: Representation, f) -> bool:
    """Check the intertwiner conditions N_k f_s = f_t M_k for per-vertex f."""
    q = M.q
    for k, (s, t) in enumerate(M.quiver.arrows):
        lhs = (N.maps[k] @ f[s]) % q
        rhs = (f[t] @ M.maps[k]) % q
        if not np.array_equal(lhs, rhs):
            return False
    return True


def ext_dim(M: Representation, N: Representation) -> int:
    """dim Ext^1(M, N) as the cokernel of Hom(P0, N) -> Hom(P1, N).

    Built from explicit projective objects and path composition, never from
    the intertwiner system ``hom_system(M, N)`` of :func:`hom_dim`, so the
    Euler identity hom - ext = <dim M, dim N> is a genuine downstream
    cross-check.  P0, P1 and Hom(P0, N) depend on M only through dim M; only
    phi carries M's arrow matrices.  One pair of :func:`ext_dims`.
    """
    return ext_dims([M], [N])[0][0]


def ext_dims(Ms, Ns) -> list:
    """The matrix [dim Ext^1(M, N) for N in Ns] for M in Ms, by the route of
    :func:`ext_dim`: one presentation per M, and Hom(P1, N) and Hom(P0, N)
    once per (dim M, N)."""
    Ms, Ns = list(Ms), list(Ns)
    if any(M.q != N.q for M in Ms for N in Ns):
        raise ValueError("mismatched base field")
    out = [[0] * len(Ns) for _ in Ms]
    groups = {}
    for i, M in enumerate(Ms):
        if not M.is_zero():
            groups.setdefault(M.dims, []).append(i)
    for rows in groups.values():
        quiver, q = Ms[rows[0]].quiver, Ms[rows[0]].q
        presentations = [projective_presentation(Ms[i]) for i in rows]
        P1, P0, _ = presentations[0]        # the same for the whole group
        if P1.is_zero():
            continue
        for j, N in enumerate(Ns):
            if N.is_zero():
                continue
            h1 = hom_dim(P1, N)
            H0 = hom_basis(P0, N)
            if not H0:
                for i in rows:
                    out[i][j] = h1
                continue
            # per vertex w, the basis maps as one (len(H0), N_w, P0_w) array
            stacked = [np.stack([g[w] for g in H0]) for w in range(quiver.n)]
            for i, (_, _, phi) in zip(rows, presentations):
                # row b: the image g_b o phi, flattened vertex by vertex
                im = np.concatenate([(stacked[w] @ phi[w]).reshape(len(H0), -1)
                                     for w in range(quiver.n)], axis=1) % q
                out[i][j] = h1 - (linalg.rank_mod(im, q) if im.size else 0)
    return out


# ----------------------------------------------------------------------
# BGP reflection functors


class NotASink(ValueError):
    pass


class NotASource(ValueError):
    pass


def reflect_plus(M: Representation, i: int) -> Representation:
    """sigma^+_i at a sink: M_i becomes the kernel of the incoming sum map.

    A sink of Q is a source of Q^op, and D turns that kernel into the
    cokernel of sigma^-_i, so sigma^+_i = D sigma^-_i D."""
    if not M.quiver.is_sink(i):
        raise NotASink(f"vertex {M.quiver.vertices[i]!r} is not a sink")
    return dual(reflect_minus(dual(M), i))


def reflect_minus(M: Representation, i: int) -> Representation:
    """sigma^-_i at a source: replace M_i by the cokernel of the outgoing map."""
    quiver, q = M.quiver, M.q
    if not quiver.is_source(i):
        raise NotASource(f"vertex {quiver.vertices[i]!r} is not a source")
    outgoing = quiver.arrows_out_of(i)
    tgts = [quiver.arrows[k][1] for k in outgoing]
    total = sum(M.dims[t] for t in tgts)
    h = np.zeros((total, M.dims[i]), dtype=np.int64)
    off = 0
    off_of = {}
    for k, t in zip(outgoing, tgts):
        off_of[k] = off
        h[off:off + M.dims[t], :] = M.maps[k]
        off += M.dims[t]
    # cokernel projection pi with ker = im(h)
    if total == 0:
        coker_dim = 0
        pi = np.zeros((0, 0), dtype=np.int64)
    else:
        imb = linalg.column_reduce(h, q) if M.dims[i] else np.zeros((total, 0), dtype=np.int64)
        comp = linalg.complement_basis(imb, q)
        coker_dim = comp.shape[1]
        full = np.concatenate([imb, comp], axis=1)
        inv = linalg.solve_mod(full, np.eye(total, dtype=np.int64), q)
        pi = inv[imb.shape[1]:, :]
    new_quiver = quiver.reflect(i)
    dims = list(M.dims)
    dims[i] = coker_dim
    maps = []
    for k, (s, t) in enumerate(new_quiver.arrows):
        if k in off_of:
            t_old = quiver.arrows[k][1]
            block = pi[:, off_of[k]:off_of[k] + M.dims[t_old]]
            maps.append(block)
        else:
            maps.append(M.maps[k])
    return Representation(new_quiver, q, dims, maps)


def coxeter_minus(M: Representation) -> Representation:
    """C^- = composite of sigma^- along a full admissible source sequence."""
    out = M
    for i in M.quiver.source_sequence():
        out = reflect_minus(out, i)
    check(out.quiver == M.quiver, "C^- must return to the original orientation")
    return out


# ----------------------------------------------------------------------
# indecomposable catalogs


@dataclass(frozen=True)
class Indec:
    """One indecomposable: label, dimension vector, representative, End data."""
    label: str
    dim: tuple
    rep: Representation = field(compare=False, repr=False)
    end_dim: int = 1          # dim_k End
    rad_dim: int = 0          # dim_k rad End
    res_deg: int = 1          # End/rad = F_{q^res_deg}
    field_dependent: bool = False

    def total(self):
        return dim_total(self.dim)


def _rigid_label(quiver: Quiver, dim) -> str:
    nz = [v for v, d in enumerate(dim) if d]
    if len(nz) == 1 and dim[nz[0]] == 1:
        return f"S{quiver.vertices[nz[0]]}"
    return "r" + ".".join(str(d) for d in dim)


def _monic_irreducibles(q: int, d: int):
    """Monic irreducible polynomials of degree d over F_q (d <= 3), as
    ascending coefficient tuples without the leading 1."""
    if d == 1:
        return [(a,) for a in range(q)]
    out = []
    for coeffs in product(range(q), repeat=d):
        # poly = x^d + c_{d-1} x^{d-1} + ... + c_0, coeffs ascending
        has_root = False
        for x in range(q):
            val = pow(x, d, q)
            for e, c in enumerate(coeffs):
                val = (val + c * pow(x, e, q)) % q
            if val == 0:
                has_root = True
                break
        if not has_root:
            out.append(tuple(coeffs))
    return out  # degree 2,3: irreducible iff rootless


def _companion(coeffs, power: int, q: int) -> np.ndarray:
    """Companion matrix of p(x)^power for monic p given by ascending coeffs."""
    d = len(coeffs)
    # multiply out p^power over F_q
    poly = [1]
    base = list(coeffs) + [1]
    for _ in range(power):
        new = [0] * (len(poly) + d)
        for ii, a in enumerate(poly):
            if a:
                for jj, b in enumerate(base):
                    new[ii + jj] = (new[ii + jj] + a * b) % q
        poly = new
    n = len(poly) - 1
    mat = np.zeros((n, n), dtype=np.int64)
    for r in range(1, n):
        mat[r, r - 1] = 1
    for r in range(n):
        mat[r, n - 1] = (-poly[r]) % q
    return mat


def _jordan_nilpotent(m: int) -> np.ndarray:
    mat = np.zeros((m, m), dtype=np.int64)
    for r in range(1, m):
        mat[r, r - 1] = 1
    return mat


def kronecker_regulars(quiver: Quiver, q: int, max_mult: int):
    """Indecomposable regular Kronecker modules with dim (n, n), n <= max_mult.

    Points of P^1 over F_q: the monic irreducibles (any degree) plus infinity.
    The module at a degree-d point with multiplicity m has dimension (dm, dm),
    maps (identity, companion(p^m)); at infinity, (nilpotent Jordan, identity).
    """
    out = []
    for m in range(1, max_mult + 1):
        jm = _jordan_nilpotent(m)
        im = np.eye(m, dtype=np.int64)
        rep = Representation(quiver, q, (m, m), [jm, im])
        out.append(Indec(f"R[inf]m{m}", (m, m), rep, end_dim=m, rad_dim=m - 1,
                         res_deg=1, field_dependent=True))
    for d in range(1, max_mult + 1):
        for coeffs in _monic_irreducibles(q, d):
            for m in range(1, max_mult // d + 1):
                n = d * m
                comp = _companion(coeffs, m, q)
                rep = Representation(quiver, q, (n, n),
                                     [np.eye(n, dtype=np.int64), comp])
                code = ".".join(str(c) for c in coeffs)
                out.append(Indec(f"R[{code}]m{m}", (n, n), rep, end_dim=n,
                                 rad_dim=d * (m - 1), res_deg=d,
                                 field_dependent=True))
    return out


def indecomposable_catalog(quiver: Quiver, q: int, bound) -> list:
    """All indecomposables with dim <= bound (componentwise).

    Dynkin quivers: Coxeter-orbit generation from the projectives (every
    indecomposable is preprojective).  Kronecker: the preprojectives, the
    preinjectives as duals of the opposite quiver's preprojectives, and the
    regular tubes.
    """
    bound = tuple(bound)
    if quiver.is_dynkin():
        reps = _generate_rigid(quiver, q, bound, dynkin=True)
        items = [Indec(_rigid_label(quiver, r.dims), r.dims, r) for r in reps]
        items.sort(key=lambda it: (it.total(), it.dim))
        return items
    if quiver.is_kronecker_like() and len(quiver.arrows) == 2:
        reps = _generate_rigid(quiver, q, bound, dynkin=False)
        items = [Indec(_rigid_label(quiver, r.dims), r.dims, r) for r in reps]
        max_mult = min(bound)
        items.extend(it for it in kronecker_regulars(quiver, q, max_mult)
                     if all(d <= b for d, b in zip(it.dim, bound)))
        items.sort(key=lambda it: (it.total(), it.dim, it.label))
        return items
    raise CatalogUnavailable(
        "indecomposable catalog available only for Dynkin and Kronecker quivers")


def _generate_rigid(quiver: Quiver, q: int, bound, dynkin: bool):
    """Coxeter-orbit generation of the rigid indecomposables within bound:
    the preprojectives, then the preinjectives as duals of the opposite
    quiver's preprojectives; the first representative per dimension vector
    wins, preprojectives first."""
    found = _preprojectives(quiver, q, bound, dynkin)
    for dims, rep in _preprojectives(quiver.opposite(), q, bound, dynkin).items():
        if dims not in found:
            found[dims] = dual(rep)
    return [r for r in found.values() if all(d <= b for d, b in zip(r.dims, bound))]


def _preprojectives(quiver: Quiver, q: int, bound, dynkin: bool) -> dict:
    """The projectives, then their C^- orbits, keyed by dimension vector
    (the first representative wins); off Dynkin, the sweep stops at the
    growth bound."""
    found = {}
    frontier = [projective(quiver, q, v) for v in range(quiver.n)]
    while frontier:
        nxt = []
        for r in frontier:
            if not r.is_zero() and r.dims not in found:
                found[r.dims] = r
                r2 = coxeter_minus(r)
                if dynkin or _within_growth(r2.dims, bound):
                    nxt.append(r2)
        frontier = nxt
        if dynkin and len(found) > 4 ** quiver.n + 64:
            raise RuntimeError("runaway Coxeter generation on a Dynkin quiver")
    return found


def _within_growth(dims, bound):
    # allow one Coxeter step beyond the bound so truncation cannot lose roots
    return all(d <= 2 * b + 2 for d, b in zip(dims, bound))
