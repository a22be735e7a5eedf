"""The Hall algebra in the rescaled basis <u_lambda>, over either scalar layer.

One algebra, seen over two scalar rings.  An element is a finitely supported
map IsoClass -> scalars over a *layer*: a :class:`ClassTable` (the Hall
algebra at a fixed prime q, scalars ``QSqrtScalar`` in Q(sqrt q)) or a
:class:`~hallcrys.generic.GenericContext` (the generic composition algebra,
scalars ``RatFunc`` in Q(v), specialising to the first at v = sqrt q).  A
layer supplies scalar coercion and zero, ``v_power``, the structure constant
``hall_number`` (an integer, or the Hall polynomial as a ``RatFunc`` in v^2),
``aut``, ``epsilon``, ``class_dim``, ``classes_of_dim``, ``simple_class`` and
``quiver``.  The product is

    <u_a><u_b> = v^{-<b,a>} sum_lam g^lam_{ab} <u_lam>;

the four derivations of the r/r'/delta family and the Ringel pairing are
written once over the layer.  Divided powers with their two-sided check, the
quantum Serre defect and transport along sink reflection functors are
fixed-q.
"""

from __future__ import annotations

from .checks import check
from .classtable import ClassTable, IsoClass, ZERO_CLASS
from .modules import reflect_plus
from .quivers import cartan_datum, dim_add, dim_sub, euler_bilinear, euler_symmetric
from .scalars import quantum_binomial, quantum_factorial


def add_term(out: dict, key, c):
    """out[key] += c, dropping the key when the sum vanishes."""
    s = out[key] + c if key in out else c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


class HallElement:
    """A finitely supported combination of basis vectors <u_cls> over a layer."""

    __slots__ = ("layer", "coeffs")

    def __init__(self, layer, coeffs=None):
        self.layer = layer
        d = {}
        if coeffs:
            for cls, c in coeffs.items():
                c = layer.scalar(c)
                if not c.is_zero():
                    d[cls] = c
        self.coeffs = d

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, HallElement):
            return NotImplemented
        return (self.layer.quiver == other.layer.quiver
                and self.layer.q == other.layer.q and self.coeffs == other.coeffs)

    def __add__(self, other):
        d = dict(self.coeffs)
        for cls, c in other.coeffs.items():
            add_term(d, cls, c)
        return HallElement(self.layer, d)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "HallElement":
        c = self.layer.scalar(c)
        return HallElement(self.layer, {cls: v * c for cls, v in self.coeffs.items()})

    def weights(self):
        return {self.layer.class_dim(cls) for cls in self.coeffs}

    def pure_weight(self):
        ws = self.weights()
        if len(ws) != 1:
            raise ValueError(f"element of mixed weight: {sorted(ws)}")
        return next(iter(ws))

    def specialize(self, q: int) -> "HallElement":
        """The image at v = sqrt(q) of an element over a GenericContext."""
        table = self.layer.table(q)
        return HallElement(table, {cls: table.scalar(c) for cls, c in self.coeffs.items()})

    def __str__(self):
        if self.is_zero():
            return "0"
        return " + ".join(f"({self.coeffs[cls]})*u[{cls.label}]"
                          for cls in self.support())

    __repr__ = __str__

    def to_json(self):
        """[[class label, str(coefficient)], ...] with exact rationals."""
        return [[cls.label, str(self.coeffs[cls])] for cls in self.support()]


def zero_element(layer) -> HallElement:
    return HallElement(layer)


def identity_element(layer) -> HallElement:
    return HallElement(layer, {ZERO_CLASS: 1})


def rescale(layer, cls: IsoClass) -> HallElement:
    """The basis vector <u_cls>; unknown labels are rejected."""
    for part in cls.parts:
        if part not in layer.by_label:
            raise KeyError(f"unknown indecomposable label {part!r}")
    return HallElement(layer, {cls: 1})


def rescale_exponent(layer, cls: IsoClass) -> int:
    """The exponent e with <u_cls> = v^e u_cls, namely -dim + <cls, cls>."""
    return -sum(layer.class_dim(cls)) + layer.epsilon(cls)


def chevalley(layer, v: int) -> HallElement:
    """E_v identified with <u_{S_v}>."""
    return rescale(layer, layer.simple_class(v))


def divided_power_simple(layer, v: int, n: int) -> HallElement:
    """E_v^{(n)} = <u_{n S_v}> as a basis vector."""
    return rescale(layer, IsoClass((f"S{layer.quiver.vertices[v]}",) * n))


def v_power(layer, e: int):
    return layer.v_power(e)


def multiply(x: HallElement, y: HallElement) -> HallElement:
    layer = x.layer
    if layer.quiver != y.layer.quiver or layer.q != y.layer.q:
        raise ValueError("elements live in different Hall algebras")
    out = {}
    for a, ca in x.coeffs.items():
        da = layer.class_dim(a)
        for b, cb in y.coeffs.items():
            db = layer.class_dim(b)
            coeff = ca * cb * layer.v_power(-euler_bilinear(layer.quiver, db, da))
            for lam in layer.classes_of_dim(dim_add(da, db)):
                g = layer.hall_number(lam, a, b)
                if g:
                    add_term(out, lam, coeff * g)
    return HallElement(layer, out)


def power(x: HallElement, n: int) -> HallElement:
    out = identity_element(x.layer)
    for _ in range(n):
        out = multiply(out, x)
    return out


def divided_power(table: ClassTable, cls: IsoClass, t: int) -> HallElement:
    """<u_cls>^(t) = <u_cls>^t / [t]!_{eps}; equals <u_{t*cls}> and both sides
    are computed and compared."""
    if t < 0:
        raise ValueError("negative divided power")
    if not table.is_exceptional(cls):
        raise ValueError(f"{cls.label} is not exceptional")
    if t == 0:
        return identity_element(table)
    fact = table.scalar(quantum_factorial(t, table.epsilon(cls)))
    lhs = power(rescale(table, cls), t).scale(fact.inverse())
    tcls = IsoClass(tuple(sorted(cls.parts * t)))
    rhs = rescale(table, tcls)
    check(lhs == rhs, f"divided-power identity failed for {cls.label}^({t})")
    return rhs


def derivation(kind: str, alpha: IsoClass, x: HallElement) -> HallElement:
    """The operators r_a, r'_a, delta_right (= delta_a), delta_left (= _a delta).

    r_a  <u_l> = sum_b v^{<b,a>+(a,b)} g^l_{b a} (a_b a_a / a_l) <u_b>
    r'_a <u_l> = sum_b v^{<a,b>+(a,b)} g^l_{a b} (a_b a_a / a_l) <u_b>
    _a delta = v^{2(-dim a + eps a)} / a_a * r'_a,  delta_a likewise with r_a.
    On the generic layer r'_{S_i} is f'_i.
    """
    if kind not in ("r", "rprime", "delta_right", "delta_left"):
        raise ValueError(f"unknown derivation kind {kind!r}")
    right = kind in ("r", "delta_right")
    layer = x.layer
    quiver = layer.quiver
    da = layer.class_dim(alpha)
    a_a = layer.aut(alpha)
    out = {}
    for lam, cl in x.coeffs.items():
        db = dim_sub(layer.class_dim(lam), da)
        if any(d < 0 for d in db):
            continue
        a_l = layer.aut(lam)
        for beta in layer.classes_of_dim(db):
            if right:
                g = layer.hall_number(lam, beta, alpha)
                exp = euler_bilinear(quiver, db, da)
            else:
                g = layer.hall_number(lam, alpha, beta)
                exp = euler_bilinear(quiver, da, db)
            if not g:
                continue
            exp += euler_symmetric(quiver, da, db)
            coeff = layer.v_power(exp) * (g * layer.aut(beta) * a_a) / a_l
            add_term(out, beta, cl * coeff)
    res = HallElement(layer, out)
    if kind in ("delta_right", "delta_left"):
        res = res.scale(layer.v_power(2 * (-sum(da) + layer.epsilon(alpha))) / a_a)
    return res


def rprime(alpha: IsoClass, x: HallElement) -> HallElement:
    return derivation("rprime", alpha, x)


def ringel_pair(x: HallElement, y: HallElement):
    """(<u_b>, <u_b'>)_R = v^{(b,b)} a_b^{-1} delta_{b b'}, extended bilinearly."""
    layer = x.layer
    if layer.quiver != y.layer.quiver or layer.q != y.layer.q:
        raise ValueError("elements live in different Hall algebras")
    total = layer.zero()
    for cls, cx in x.coeffs.items():
        cy = y.coeffs.get(cls)
        if cy is None:
            continue
        d = layer.class_dim(cls)
        norm = layer.v_power(euler_symmetric(layer.quiver, d, d)) / layer.aut(cls)
        total = total + cx * cy * norm
    return total


def transport_Ti(x: HallElement, i: int, target_table: ClassTable | None = None) -> HallElement:
    """T_i along sigma^+_i at a sink: relabel each basis class by its image.

    Rejects support containing the simple V_i (the extended Drinfeld-double
    formula is out of scope).
    """
    table = x.layer
    if not table.quiver.is_sink(i):
        raise ValueError(f"vertex {table.quiver.vertices[i]!r} is not a sink")
    si = f"S{table.quiver.vertices[i]}"
    if target_table is None:
        target_table = ClassTable(table.quiver.reflect(i), table.q, table.dim_bound,
                                  table.point_budget, table.ext_budget)
    out = {}
    for cls, c in x.coeffs.items():
        if si in cls.parts:
            raise ValueError(f"class {cls.label} has a V_{si} summand")
        image = reflect_plus(table.representative(cls), i)
        out[target_table.label_module(image)] = c
    return HallElement(target_table, out)


def serre_defect(table: ClassTable, i: int, j: int) -> HallElement:
    """The quantum Serre sum for E_i, E_j; zero iff the relation holds."""
    n = 1 - cartan_datum(table.quiver).a_ij(i, j)
    ei, ej = chevalley(table, i), chevalley(table, j)
    total = zero_element(table)
    for t in range(n + 1):
        coeff = table.scalar(quantum_binomial(n, t))
        if t % 2:
            coeff = coeff * (-1)
        term = multiply(power(ei, t), multiply(ej, power(ei, n - t)))
        total = total + term.scale(coeff)
    return total
