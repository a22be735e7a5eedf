"""Quivers, Cartan data, Euler forms and sink/source combinatorics."""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from math import prod

from .linalg import gauss_jordan


class QuiverError(ValueError):
    pass


def dim_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def dim_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def dim_scale(k, a):
    return tuple(k * x for x in a)


def dim_total(a):
    return sum(a)


class Quiver:
    """A finite quiver without oriented cycles.

    Vertices carry names (strings) but all indexing is positional, fixed at
    construction order; arrows are (source_index, target_index) pairs.
    """

    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex names")
        self.index = {v: i for i, v in enumerate(self.vertices)}
        arr = []
        for a in arrows:
            s, t = a
            if not isinstance(s, int):
                s = self.index.get(str(s))
            if not isinstance(t, int):
                t = self.index.get(str(t))
            if s is None or t is None or not (0 <= s < self.n and 0 <= t < self.n):
                raise QuiverError(f"arrow {a!r} references unknown vertex")
            arr.append((s, t))
        self.arrows = tuple(arr)
        self._check_acyclic()

    @property
    def n(self) -> int:
        return len(self.vertices)

    def _check_acyclic(self):
        out = {i: [] for i in range(self.n)}
        for s, t in self.arrows:
            if s == t:
                raise QuiverError(f"loop at vertex {self.vertices[s]!r}")
            out[s].append(t)
        seen, stack = set(), set()

        def visit(u):
            seen.add(u)
            stack.add(u)
            for w in out[u]:
                if w in stack:
                    raise QuiverError("quiver has an oriented cycle")
                if w not in seen:
                    visit(w)
            stack.remove(u)

        for u in range(self.n):
            if u not in seen:
                visit(u)

    # -- combinatorics -------------------------------------------------

    def vertex_bound(self, values, what: str = "dimension bound") -> tuple:
        """``values`` as a tuple; ValueError unless it has one nonnegative
        entry per vertex (a short one would leave the last vertices free)."""
        bound = tuple(values)
        if len(bound) != self.n or any(b < 0 for b in bound):
            raise ValueError(f"{what} {bound} needs one nonnegative entry for "
                             f"each of the {self.n} vertices")
        return bound

    def arrows_out_of(self, i):
        return [k for k, (s, _) in enumerate(self.arrows) if s == i]

    def arrows_into(self, i):
        return [k for k, (_, t) in enumerate(self.arrows) if t == i]

    def sinks(self):
        return [i for i in range(self.n) if not self.arrows_out_of(i)]

    def sources(self):
        return [i for i in range(self.n) if not self.arrows_into(i)]

    def is_sink(self, i) -> bool:
        return not self.arrows_out_of(i)

    def is_source(self, i) -> bool:
        return not self.arrows_into(i)

    def reflect(self, i) -> "Quiver":
        """sigma_i Omega: reverse exactly the arrows incident to vertex i."""
        if not (self.is_sink(i) or self.is_source(i)):
            raise QuiverError(f"vertex {self.vertices[i]!r} is neither sink nor source")
        arrows = [(t, s) if s == i or t == i else (s, t) for s, t in self.arrows]
        return Quiver(self.vertices, arrows)

    def opposite(self) -> "Quiver":
        """Q^op: every arrow reversed, arrow indices kept."""
        return Quiver(self.vertices, [(t, s) for s, t in self.arrows])

    def sink_sequence(self):
        """A full admissible sink sequence (length n, smallest index first)."""
        return self._admissible_sequence(Quiver.sinks, "sink")

    def source_sequence(self):
        return self._admissible_sequence(Quiver.sources, "source")

    def _admissible_sequence(self, candidates, kind: str):
        q = self
        seq = []
        remaining = set(range(self.n))
        while remaining:
            cands = [i for i in candidates(q) if i in remaining]
            if not cands:
                raise QuiverError(f"no admissible {kind}; quiver not acyclic?")
            i = min(cands)
            seq.append(i)
            remaining.discard(i)
            q = q.reflect(i)
        return seq

    # -- classification -------------------------------------------------

    def is_kronecker_like(self) -> bool:
        """Two vertices, all arrows parallel between them, at least two."""
        if self.n != 2 or len(self.arrows) < 2:
            return False
        return len(set(self.arrows)) == 1

    def tits_form_positive_definite(self) -> bool:
        """Exact positive-definiteness of the symmetric Euler form."""
        c = cartan_datum(self).matrix
        n = self.n
        for k in range(1, n + 1):
            minor = [[Fraction(c[i][j]) for j in range(k)] for i in range(k)]
            pivots, leads, sign = gauss_jordan(minor)
            if len(pivots) < k or prod(leads, start=sign) <= 0:
                return False
        return True

    def is_dynkin(self) -> bool:
        return self._dynkin

    @cached_property
    def _dynkin(self) -> bool:
        # once per quiver: ClassTable.classes_of_dim asks for every
        # dimension vector outside its bound
        return self.tits_form_positive_definite()

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [[self.vertices[s], self.vertices[t]] for s, t in self.arrows],
        }

    @staticmethod
    def from_json(data: dict) -> "Quiver":
        if not isinstance(data, dict) or "vertices" not in data or "arrows" not in data:
            raise QuiverError("quiver file must contain 'vertices' and 'arrows'")
        if not data["vertices"]:
            raise QuiverError("quiver has no vertices")
        return Quiver(data["vertices"], data["arrows"])

    @staticmethod
    def load(path) -> "Quiver":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise QuiverError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
        except OSError as exc:
            raise QuiverError(f"{path}: cannot read quiver file: {exc.strerror}")
        return Quiver.from_json(data)

    def content_hash(self) -> str:
        """The cache key: the first 12 hex digits of the SHA-1 of the
        canonical quiver JSON (sorted keys).

        hashlib is imported here, not at module level: it maps OpenSSL's
        libcrypto (about 3.6 MiB of resident memory), and only a run with a
        cache directory names cache files.  A failed cache write is a note on
        stderr that leaves the report unchanged (``cli._save_tables``)."""
        import hashlib
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()[:12]

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and sorted(self.arrows) == sorted(other.arrows))

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self.arrows))))

    def __repr__(self):
        arrows = ", ".join(f"{self.vertices[s]}->{self.vertices[t]}" for s, t in self.arrows)
        return f"Quiver({'|'.join(self.vertices)}; {arrows})"


# ----------------------------------------------------------------------
# Euler forms


def euler_form(quiver: Quiver):
    """The matrix <i,j> = delta_ij - #(arrows i -> j)."""
    n = quiver.n
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for s, t in quiver.arrows:
        mat[s][t] -= 1
    return tuple(tuple(row) for row in mat)


def euler_bilinear(quiver: Quiver, a, b) -> int:
    """<a, b> extended bilinearly to dimension vectors."""
    total = sum(x * y for x, y in zip(a, b))
    for s, t in quiver.arrows:
        total -= a[s] * b[t]
    return total


def euler_symmetric(quiver: Quiver, a, b) -> int:
    return euler_bilinear(quiver, a, b) + euler_bilinear(quiver, b, a)


# ----------------------------------------------------------------------
# Cartan data


class CartanError(ValueError):
    pass


class CartanDatum:
    """A symmetric bilinear form on Z[I] satisfying Lusztig's two conditions."""

    def __init__(self, matrix):
        mat = tuple(tuple(int(x) for x in row) for row in matrix)
        n = len(mat)
        if any(len(row) != n for row in mat):
            raise CartanError("Cartan matrix must be square")
        for i in range(n):
            for j in range(n):
                if mat[i][j] != mat[j][i]:
                    raise CartanError("Cartan form must be symmetric")
            if mat[i][i] <= 0 or mat[i][i] % 2 != 0:
                raise CartanError(f"(i,i) must lie in {{2,4,6,...}} at vertex {i}")
        for i in range(n):
            for j in range(n):
                if i != j:
                    num = 2 * mat[i][j]
                    if num > 0 or num % mat[i][i] != 0:
                        raise CartanError(
                            f"2(i,j)/(i,i) must be a nonpositive integer at ({i},{j})")
        self.matrix = mat

    @property
    def n(self):
        return len(self.matrix)

    @property
    def symmetrizers(self):
        return tuple(self.matrix[i][i] // 2 for i in range(self.n))

    def a_ij(self, i, j) -> int:
        return 2 * self.matrix[i][j] // self.matrix[i][i]

    def sym(self, a, b) -> int:
        """The symmetric form (a, b) on dimension vectors."""
        return sum(self.matrix[i][j] * a[i] * b[j]
                   for i in range(self.n) for j in range(self.n))

    def simple_reflection(self, i, mu):
        """s_i(mu) = mu - (2 (mu, i)/(i, i)) i."""
        coeff = 2 * sum(self.matrix[j][i] * mu[j] for j in range(self.n)) // self.matrix[i][i]
        out = list(mu)
        out[i] -= coeff
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, CartanDatum) and self.matrix == other.matrix

    def __repr__(self):
        return f"CartanDatum({self.matrix})"


def cartan_datum(quiver: Quiver) -> CartanDatum:
    """The Cartan datum (i,j) = <i,j> + <j,i> of an acyclic quiver."""
    e = euler_form(quiver)
    n = quiver.n
    mat = [[e[i][j] + e[j][i] for j in range(n)] for i in range(n)]
    return CartanDatum(mat)


# ----------------------------------------------------------------------
# built-in quivers used throughout tests and the self-test battery


def quiver_a2() -> Quiver:
    return Quiver(["1", "2"], [["1", "2"]])


def quiver_a3() -> Quiver:
    return Quiver(["1", "2", "3"], [["1", "2"], ["2", "3"]])


def quiver_kronecker() -> Quiver:
    return Quiver(["1", "2"], [["1", "2"], ["1", "2"]])


def quiver_a1() -> Quiver:
    return Quiver(["1"], [])
