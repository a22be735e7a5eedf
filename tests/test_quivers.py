import itertools

import pytest

from hallcrys.quivers import (CartanDatum, CartanError, Quiver, QuiverError,
                              cartan_datum, euler_bilinear, euler_form,
                              euler_symmetric, quiver_a2, quiver_a3,
                              quiver_kronecker)


def test_euler_form_matrices(a2, a3, kron):
    assert euler_form(a2) == ((1, -1), (0, 1))
    assert euler_form(kron) == ((1, -2), (0, 1))
    single = Quiver(["1"], [])
    assert euler_form(single) == ((1,),)


def test_cartan_datum(a2, kron):
    c = cartan_datum(a2)
    assert c.matrix == ((2, -1), (-1, 2))
    assert c.symmetrizers == (1, 1)
    assert cartan_datum(kron).matrix[0][1] == -2
    single = cartan_datum(Quiver(["1"], []))
    assert single.matrix == ((2,),)
    assert single.a_ij(0, 0) == 2


def test_cartan_conditions_rejected():
    with pytest.raises(CartanError):
        CartanDatum([[2, 1], [1, 2]])       # positive off-diagonal
    with pytest.raises(CartanError):
        CartanDatum([[3, -1], [-1, 2]])     # odd diagonal


def test_simple_reflections(a2, kron):
    c = cartan_datum(a2)
    assert c.simple_reflection(1, (1, 0)) == (1, 1)
    assert c.simple_reflection(0, (1, 0)) == (-1, 0)
    ck = cartan_datum(kron)
    assert ck.simple_reflection(1, (1, 0)) == (1, 2)


def test_reflection_involution_and_isometry(a3):
    c = cartan_datum(a3)
    vecs = list(itertools.product(range(-2, 3), repeat=3))[:60]
    for i in range(3):
        for mu in vecs:
            assert c.simple_reflection(i, c.simple_reflection(i, mu)) == mu
            for nu in vecs[:10]:
                smu = c.simple_reflection(i, mu)
                snu = c.simple_reflection(i, nu)
                assert c.sym(smu, snu) == c.sym(mu, nu)


def test_sink_source_tools(a2, a3):
    assert a2.sinks() == [1] and a2.sources() == [0]
    assert a2.reflect(1).arrows == ((1, 0),)
    assert a3.opposite().arrows == ((1, 0), (2, 1))
    assert a3.opposite().opposite().arrows == a3.arrows
    assert a3.sink_sequence() == [2, 1, 0]
    with pytest.raises(QuiverError):
        a3.reflect(1)    # middle vertex is neither sink nor source


def test_reflection_preserves_symmetric_form(a2, a3, kron):
    for q in (a2, a3, kron):
        base = cartan_datum(q)
        for i in q.sinks() + q.sources():
            assert cartan_datum(q.reflect(i)) == base


def test_euler_symmetric_identity(a2, a3, kron):
    for q in (a2, a3, kron):
        c = cartan_datum(q)
        vecs = list(itertools.product(range(3), repeat=q.n))
        for a in vecs:
            for b in vecs[:9]:
                assert euler_symmetric(q, a, b) == c.sym(a, b)


def test_acyclicity_and_validation():
    with pytest.raises(QuiverError):
        Quiver(["1", "2"], [["1", "2"], ["2", "1"]])
    with pytest.raises(QuiverError):
        Quiver(["1"], [["1", "1"]])
    with pytest.raises(QuiverError):
        Quiver.from_json({"vertices": [], "arrows": []})
    with pytest.raises(QuiverError):
        Quiver.from_json({"vertices": ["1"]})


def test_json_roundtrip(tmp_path, a3):
    path = tmp_path / "q.json"
    import json
    path.write_text(json.dumps(a3.to_json()))
    assert Quiver.load(path) == a3
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(QuiverError, match="line"):
        Quiver.load(bad)


def test_dynkin_detection(a2, a3, kron):
    assert a2.is_dynkin() and a3.is_dynkin()
    assert not kron.is_dynkin()
    assert kron.is_kronecker_like()


class TestValuedCartanData:
    """General symmetrizable data entered directly as a matrix (no quiver)."""

    def test_b2_style_datum(self):
        c = CartanDatum([[2, -2], [-2, 4]])
        assert c.symmetrizers == (1, 2)
        assert c.a_ij(0, 1) == -2 and c.a_ij(1, 0) == -1
        assert c.simple_reflection(0, (1, 0)) == (-1, 0)
        assert c.simple_reflection(1, (1, 0)) == (1, 1)

    def test_valued_quantum_integers(self):
        from hallcrys.scalars import quantum_integer
        c = CartanDatum([[2, -2], [-2, 4]])
        eps = c.symmetrizers
        assert quantum_integer(2, eps[1]) == quantum_integer(2, 2)

    def _random_datum(self, draw_ints):
        # build a symmetric matrix satisfying the two Cartan conditions
        diag = [2 * d for d in draw_ints[:2]]
        off = -draw_ints[2] * (diag[0] // 2) * (diag[1] // 2)
        return CartanDatum([[diag[0], off], [off, diag[1]]])

    def test_reflection_laws_random(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
               st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
               st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        @settings(deadline=None, max_examples=60)
        def inner(d1, d2, k, mu, nu):
            c = self._random_datum([d1, d2, k])
            for i in range(2):
                assert c.simple_reflection(i, c.simple_reflection(i, mu)) == mu
                smu = c.simple_reflection(i, mu)
                snu = c.simple_reflection(i, nu)
                assert c.sym(smu, snu) == c.sym(mu, nu)

        inner()
