"""Finite-field quiver representations: Hom/Ext, reflection functors, catalogs.

A representation assigns F_q^{d_v} to each vertex and a (d_target x d_source)
matrix to each arrow.  Everything is exact integer arithmetic mod q.

The duality D = Hom_k(-, k) to the opposite quiver writes each mirrored
construction once: sigma^+_i = D sigma^-_i D, and I_v = D P_v(Q^op).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, product
from math import prod

import numpy as np

from . import linalg
from ._kernels import rank_mod_stack
from .checks import check
from .quivers import Quiver, dim_total


# entries of one stacked array of the F_p kernels (256 KiB of int64): a
# system of hom_counts, an image stack of ext_dims, a scan chunk, a cut of a
# Grassmannian or of the middle terms of extension_middle_counts; the rank
# sweep holds about three arrays of that size
_HOM_STACK = 2**15


def stack_cuts(count: int, per_item: int) -> list:
    """The cuts of a leading axis of ``count`` items of ``per_item`` entries
    each, as consecutive slices that hold at most ``_HOM_STACK`` entries
    (read at call time) apart from a cut of one item, which may exceed it."""
    step = max(1, _HOM_STACK // max(1, per_item))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


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


def require_ring(M: Representation, quiver: Quiver, q: int) -> None:
    """Raise unless M is over F_q and over ``quiver``, arrow order included
    (``Quiver.__eq__`` ignores it, but arrow k indexes the maps)."""
    if M.q != q:
        raise ValueError("mismatched base field")
    if M.quiver is not quiver and (M.quiver.vertices != quiver.vertices
                                   or M.quiver.arrows != quiver.arrows):
        raise ValueError("mismatched quiver")


def hom_system(M: Representation, N: Representation) -> np.ndarray:
    """Matrix whose right kernel is Hom(M, N): one pair of
    :func:`hom_system_stack`."""
    require_ring(N, M.quiver, M.q)
    return hom_system_stack(M.quiver, M.q, M.dims, M.maps, N.dims, N.maps)


def hom_system_stack(quiver: Quiver, q: int, m_dims, m_maps, n_dims, n_maps) -> np.ndarray:
    """The systems N_r f_s = f_t M_r whose right kernels are Hom(M, N), for
    stacks of M and N of dimension vectors ``m_dims`` and ``n_dims``.

    ``m_maps[r]`` and ``n_maps[r]`` are arrow r's matrices with any leading
    batch axes, which broadcast against each other; the result has the
    broadcast batch axes followed by (conditions, unknowns).  The blocks of
    arrow r are the Kronecker products N_r (x) I and I (x) M_r^T, written as
    one strided copy of N_r and one block of M_r^T per diagonal entry of I;
    at these small shapes that is cheaper than building either product."""
    nvar = [n_dims[v] * m_dims[v] for v in range(quiver.n)]
    offs = list(accumulate([0] + nvar))
    rows = sum(n_dims[t] * m_dims[s] for s, t in quiver.arrows)
    batch = np.broadcast_shapes(*(np.shape(m)[:-2] for m in (*m_maps, *n_maps)))
    D = np.zeros(batch + (rows, offs[-1]), dtype=np.int64)
    r0 = 0
    for k, (s, t) in enumerate(quiver.arrows):
        ms, mt, nt = m_dims[s], m_dims[t], n_dims[t]
        blk = nt * ms
        for i in range(ms if nvar[s] else 0):
            D[..., r0 + i:r0 + blk:ms, offs[s] + i:offs[s + 1]:ms] = n_maps[k]
        for j in range(nt if nvar[t] else 0):
            D[..., r0 + j * ms:r0 + (j + 1) * ms, offs[t] + j * mt:offs[t] + (j + 1) * mt] -= \
                np.swapaxes(m_maps[k], -1, -2)
        r0 += blk
    D %= q
    return D


def hom_dim(M: Representation, N: Representation) -> int:
    """dim Hom(M, N): one pair of :func:`hom_counts`."""
    require_ring(N, M.quiver, M.q)
    return int(hom_counts(M.quiver, M.q, M.dims, M.maps, N.dims, N.maps))


def hom_counts(quiver: Quiver, q: int, m_dims, m_maps, n_dims, n_maps) -> np.ndarray:
    """dim Hom(M, N) over the broadcast batch axes of :func:`hom_system_stack`
    (same arguments), as an int64 array.  The leading batch axis is cut so
    that one stacked system holds at most ``_HOM_STACK`` entries; a system
    with no conditions or no unknowns is not ranked."""
    nconds = sum(n_dims[t] * m_dims[s] for s, t in quiver.arrows)
    nvars = sum(m * n for m, n in zip(m_dims, n_dims))
    batch = np.broadcast_shapes(*(np.shape(m)[:-2] for m in (*m_maps, *n_maps)))
    if not (nconds * nvars and prod(batch)):
        return np.full(batch, nvars, dtype=np.int64)
    shape = batch or (1,)
    m_maps, n_maps = ([np.broadcast_to(m, shape + np.shape(m)[-2:]) for m in maps]
                      for maps in (m_maps, n_maps))
    ranks = [rank_mod_stack(hom_system_stack(quiver, q, m_dims, [m[cut] for m in m_maps],
                                             n_dims, [m[cut] for m in n_maps])
                            .reshape(-1, nconds, nvars), q)
             for cut in stack_cuts(shape[0], prod(shape[1:]) * nconds * nvars)]
    return (nvars - np.concatenate(ranks)).reshape(batch)


def hom_basis(M: Representation, N: Representation):
    """Basis of Hom(M,N) as lists of per-vertex matrices (N_v x M_v)."""
    ns = linalg.nullspace_mod(hom_system(M, N), M.q)
    offs = list(accumulate([0] + [N.dims[v] * M.dims[v] for v in range(M.quiver.n)]))
    blocks = [ns[offs[v]:offs[v + 1]].T.reshape(ns.shape[1], N.dims[v], M.dims[v])
              for v in range(M.quiver.n)]
    return [list(g) for g in zip(*blocks)]


# ----------------------------------------------------------------------
# Ext via the explicit projective presentation of the path algebra


def _path_basis(quiver: Quiver, v: int):
    """The paths starting at v (tuples of arrow indices) grouped by endpoint,
    each group sorted: the basis of P_v at every vertex, in the order
    :func:`projective` indexes it."""
    by_vertex = [[] for _ in range(quiver.n)]
    frontier = [((), v)]
    while frontier:
        for word, w in frontier:
            by_vertex[w].append(word)
        frontier = [(word + (k,), quiver.arrows[k][1])
                    for word, w in frontier for k in quiver.arrows_out_of(w)]
    for words in by_vertex:
        words.sort()
    return by_vertex


def projective(quiver: Quiver, q: int, v: int) -> Representation:
    """The indecomposable projective P_v, with path basis."""
    return _projective(quiver, q, _path_basis(quiver, v))


def _projective(quiver: Quiver, q: int, by_vertex) -> Representation:
    """The projective with path basis ``by_vertex`` (:func:`_path_basis`)."""
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


def projective_presentation(M: Representation):
    """The standard presentation P1 --phi--> P0 -->> M over the path algebra.

    P0 = sum_v P_v^{M_v}, P1 = sum_{arrows k} P_{t(k)}^{M_{s(k)}}; phi sends
    the (k, c) copy into the (s(k), c) copy by path precomposition and into
    the (t(k), c') copies by -M_k[c', c] times the identity.  Returns
    (P1, P0, phi) with phi a list of per-vertex matrices P1_w -> P0_w.
    """
    proj, pre = _projectives(M.quiver, M.q)
    P0 = [proj[v] for v in range(M.quiver.n) for _ in range(M.dims[v])]
    P0 = direct_sum(P0) if P0 else Representation.zero(M.quiver, M.q)
    return _p1(M.dims, proj), P0, _phi(M.dims, M.maps, proj, pre)


def _projectives(quiver: Quiver, q: int):
    """The projectives P_v and the precomposition maps P_{t(k)} -> P_{s(k)}."""
    bases = [_path_basis(quiver, v) for v in range(quiver.n)]
    return ([_projective(quiver, q, b) for b in bases],
            [_precompose_matrix(quiver, k, bases) for k in range(len(quiver.arrows))])


def _p1(dims, proj) -> Representation:
    P1 = [proj[t] for s, t in proj[0].quiver.arrows for _ in range(dims[s])]
    return direct_sum(P1) if P1 else Representation.zero(proj[0].quiver, proj[0].q)


def _phi(dims, maps, proj, pre) -> list:
    """phi of :func:`projective_presentation` for modules of dimension vector
    ``dims`` with arrow matrices ``maps`` (leading batch axes broadcast), one
    matrix per vertex w: copy c of P_{t(k)} goes to copy c of P_{s(k)} by
    path precomposition with k, and the (t(k), k) block is -M_k (x) I."""
    quiver, q = proj[0].quiver, proj[0].q
    batch = np.broadcast_shapes(*(np.shape(m)[:-2] for m in maps))
    phi = []
    for w in range(quiver.n):
        r_off = list(accumulate([0] + [dims[v] * proj[v].dims[w] for v in range(quiver.n)]))
        c_off = list(accumulate([0] + [dims[s] * proj[t].dims[w] for s, t in quiver.arrows]))
        m = np.zeros(batch + (r_off[-1], c_off[-1]), dtype=np.int64)
        for k, (s, t) in enumerate(quiver.arrows):
            ps, pt = proj[s].dims[w], proj[t].dims[w]
            for c in range(dims[s]):
                m[..., r_off[s] + c * ps:r_off[s] + (c + 1) * ps,
                  c_off[k] + c * pt:c_off[k] + (c + 1) * pt] = pre[k][w]
            for i in range(pt):
                m[..., r_off[t] + i:r_off[t + 1]:pt, c_off[k] + i:c_off[k + 1]:pt] -= maps[k]
        phi.append(m % q)
    return phi


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
    Euler identity hom - ext = <dim M, dim N> is a genuine cross-check: this
    is the oracle for ``ClassTable.ext``, which reads Ext off the Hom table by
    that identity.  One pair of :func:`ext_dims`.
    """
    return ext_dims([M], [N])[0][0]


def ext_dims(Ms, Ns) -> list:
    """The matrix [dim Ext^1(M, N) for N in Ns] for M in Ms, by the route of
    :func:`ext_dim`, in stacked kernels per block of Ms and Ns of one
    dimension vector each.

    P1 and P0 = sum_v P_v^{M_v} depend on M only through dim M; only phi
    carries M's arrow matrices.  Per block, one :func:`hom_counts` gives
    dim Hom(P1, N), and stacked ranks the images g o phi, g running over
    the Hom(P_v, N) bases, solved for once per vertex and N.  The images
    are built and ranked one cut of the block's (N, M) pairs at a time
    (:func:`stack_cuts`), so one stack holds at most ``_HOM_STACK`` entries
    unless it holds a single pair.  The Yoneda
    forms (Hom(P_v, N) = N_v) would skip the solving, but would turn phi^*
    into the intertwiner system of (M, N) and the Euler identity into a
    tautology.
    """
    Ms, Ns = list(Ms), list(Ns)
    for X in (Ms + Ns if Ms and Ns else ()):
        require_ring(X, Ms[0].quiver, Ms[0].q)
    out = [[0] * len(Ns) for _ in Ms]
    m_groups, n_groups = {}, {}
    for i, M in enumerate(Ms):
        if any(M.dims[s] for s, _ in M.quiver.arrows):     # else P1 = 0: M is projective
            m_groups.setdefault(M.dims, []).append(i)
    for j, N in enumerate(Ns):
        if not N.is_zero():
            n_groups.setdefault(N.dims, []).append(j)
    if not (m_groups and n_groups):
        return out
    quiver, q = Ms[0].quiver, Ms[0].q
    n, arrows = quiver.n, range(len(quiver.arrows))
    proj, pre = _projectives(quiver, q)
    n_maps = {d: [np.stack([Ns[j].maps[k] for j in cols]) for k in arrows]
              for d, cols in n_groups.items()}
    bases = {}      # (v, dim N) -> Hom(P_v, N) bases, per w (len(N group), h, N_w, P_v,w)
    for m_dims, rows in m_groups.items():
        P1 = _p1(m_dims, proj)
        phi = _phi(m_dims, [np.stack([Ms[i].maps[k] for i in rows]) for k in arrows], proj, pre)
        # phi_w's rows of the copies (v, c) of P_v, as (len(rows), M_v, P_v,w, P1_w)
        r0 = [list(accumulate([0] + [m_dims[u] * proj[u].dims[w] for u in range(n)]))
              for w in range(n)]
        phi = {(v, w): phi[w][:, r0[w][v]:r0[w][v + 1]].reshape(
                   len(rows), m_dims[v], proj[v].dims[w], P1.dims[w])
               for v in range(n) if m_dims[v] for w in range(n)}
        for n_dims, cols in n_groups.items():
            wide = [w for w in range(n) if n_dims[w] * P1.dims[w]]
            if not wide:
                continue        # Hom(P1, N) has no unknowns
            h1 = hom_counts(quiver, q, P1.dims, P1.maps, n_dims, n_maps[n_dims])
            support = [v for v in range(n) if m_dims[v]]
            for v in support:
                if (v, n_dims) not in bases:
                    found = [hom_basis(proj[v], Ns[j]) for j in cols]
                    h = len(found[0])
                    check(all(len(b) == h for b in found),
                          "dim Hom(P_v, N) differs between modules N of one dimension vector")
                    bases[v, n_dims] = [
                        np.array([[g[w] for g in b] for b in found], dtype=np.int64)
                        .reshape(len(cols), h, n_dims[w], proj[v].dims[w]) for w in range(n)]
            # g o phi for every (N, M) pair: a row block per v, a column block
            # per w, stacked one cut of the pair axis at a time
            H = {v: bases[v, n_dims] for v in support}
            height = sum(m_dims[v] * H[v][0].shape[1] for v in support)
            width = sum(n_dims[w] * P1.dims[w] for w in wide)
            ranks = []
            for cut in stack_cuts(len(cols) * len(rows), height * width):
                of_n, of_m = np.divmod(np.arange(cut.start, cut.stop), len(rows))
                im = np.concatenate([np.concatenate(
                    [(H[v][w][of_n, None] @ phi[v, w][of_m, :, None]).reshape(
                        len(of_n), m_dims[v] * H[v][w].shape[1], n_dims[w] * P1.dims[w])
                     for w in wide], axis=2) for v in support], axis=1)
                ranks.append(rank_mod_stack(im, q))
            ranks = np.concatenate(ranks)
            for a, j in enumerate(cols):
                for b, i in enumerate(rows):
                    out[i][j] = int(h1[a] - ranks[a * len(rows) + b])
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
    # cokernel projection pi: it vanishes on im(h) and sends the greedy
    # complement of im(h) to the identity
    comp, inv = linalg.complement_basis(h, q)
    coker_dim = comp.shape[1]
    pi = inv[total - coker_dim:]
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
    """Monic irreducible polynomials of degree d over F_q, as ascending
    coefficient tuples without the leading 1: the monic polynomials that are
    not a product of two monic polynomials of lower degree."""
    reducible = {_monic_product(a, b, q)
                 for e in range(1, d // 2 + 1)
                 for a in product(range(q), repeat=e) for b in product(range(q), repeat=d - e)}
    return [c for c in product(range(q), repeat=d) if c not in reducible]


def _monic_product(a, b, q: int) -> tuple:
    """The product over F_q of two monic polynomials given, like the result,
    by ascending coefficients without the leading 1."""
    f, g = (*a, 1), (*b, 1)
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % q
    return tuple(out[:-1])


def _companion(coeffs, power: int, q: int) -> np.ndarray:
    """Companion matrix of p(x)^power for monic p given by ascending coeffs."""
    poly = ()
    for _ in range(power):
        poly = _monic_product(poly, coeffs, q)
    n = len(poly)
    mat = np.zeros((n, n), dtype=np.int64)
    for r in range(1, n):
        mat[r, r - 1] = 1
    for r in range(n):
        mat[r, n - 1] = (-poly[r]) % q
    return mat


def kronecker_regulars(quiver: Quiver, q: int, max_mult: int):
    """Indecomposable regular Kronecker modules with dim (n, n), n <= max_mult.

    Points of P^1 over F_q: the monic irreducibles (any degree) plus infinity.
    The module at a degree-d point with multiplicity m has dimension (dm, dm),
    maps (identity, companion(p^m)); at infinity, (nilpotent Jordan, identity).
    """
    out = []
    for m in range(1, max_mult + 1):
        # the companion matrix of x^m is the nilpotent Jordan block
        rep = Representation(quiver, q, (m, m),
                             [_companion((0,), m, q), np.eye(m, dtype=np.int64)])
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
    dynkin = quiver.is_dynkin()
    if not dynkin and not (quiver.is_kronecker_like() and len(quiver.arrows) == 2):
        raise CatalogUnavailable(
            "indecomposable catalog available only for Dynkin and Kronecker quivers")
    items = [Indec(_rigid_label(quiver, r.dims), r.dims, r)
             for r in _generate_rigid(quiver, q, bound, dynkin)]
    if not dynkin:
        items.extend(it for it in kronecker_regulars(quiver, q, min(bound))
                     if all(d <= b for d, b in zip(it.dim, bound)))
    items.sort(key=lambda it: (it.total(), it.dim, it.label))
    return items


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
