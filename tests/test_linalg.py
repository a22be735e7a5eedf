"""The exact-field Gauss–Jordan routine, over Fraction and RatFunc, against
definitions: permutation expansion for the determinant, substitution for
solutions and kernels."""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from hallcrys import linalg
from hallcrys.classtable import _fraction_inverse
from hallcrys.scalars import LaurentPoly, RatFunc


def rand_fraction(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))


def rand_ratfunc(rng):
    if rng.random() < 0.3:
        return RatFunc.zero()
    num = LaurentPoly({int(e): int(rng.integers(-2, 3)) for e in rng.integers(-1, 2, 2)})
    den = LaurentPoly({0: 1, 1: int(rng.integers(0, 2))})
    return RatFunc(num, den)


def rand_matrix(rng, n, m, entry):
    rows = [[entry(rng) for _ in range(m)] for _ in range(n)]
    if n > 1 and rng.random() < 0.4:
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]    # rank-deficient
    return rows


def permutation_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def mat_vec(rows, x, zero):
    out = []
    for row in rows:
        acc = zero
        for a, b in zip(row, x):
            acc = acc + a * b
        out.append(acc)
    return out


def test_det_matches_permutation_expansion():
    rng = np.random.default_rng(1)
    singular = 0
    for n in range(1, 5):
        for _ in range(40):
            rows = rand_matrix(rng, n, n, rand_fraction)
            work = [row[:] for row in rows]
            pivots, det = linalg.gauss_jordan(work)
            expected = permutation_det(rows)
            if len(pivots) < n:
                singular += 1
                assert expected == 0
            else:
                assert det == expected != 0
                assert work == [[int(i == j) for j in range(n)] for i in range(n)]
    assert singular


@pytest.mark.parametrize("field,entry", [(Fraction, rand_fraction),
                                         (RatFunc, rand_ratfunc)])
def test_solve_and_nullspace_by_substitution(field, entry):
    rng = np.random.default_rng(2)
    zero = field(0)
    for _ in range(25):
        n, m = (int(x) for x in rng.integers(1, 5, 2))
        rows = rand_matrix(rng, n, m, entry)
        cols = [list(c) for c in zip(*rows)]
        rank = len(linalg.gauss_jordan([row[:] for row in rows])[0])
        null = linalg.nullspace(cols, n, field)
        assert len(null) == m - rank
        for vec in null:
            assert len(vec) == m and any(vec)
            assert not any(mat_vec(rows, vec, zero))
        x = [entry(rng) for _ in range(m)]
        b = mat_vec(rows, x, zero)
        sol = linalg.solve(cols, b, field)
        assert sol is not None and mat_vec(rows, sol, zero) == b
    assert linalg.nullspace([], 3, field) == []
    assert linalg.nullspace([[zero], [zero]], 1, field) == [
        [field(1), zero], [zero, field(1)]]


@pytest.mark.parametrize("field", [Fraction, RatFunc])
def test_inconsistent_system_returns_none(field):
    one, two = field(1), field(2)
    cols = [[one, two], [two, field(4)]]        # both columns on the line (1, 2)
    assert linalg.solve(cols, [one, one], field) is None
    assert linalg.solve(cols, [two, field(4)], field) == [two, field(0)]


def test_fraction_inverse():
    rng = np.random.default_rng(3)
    done = 0
    while done < 30:
        n = int(rng.integers(1, 5))
        rows = rand_matrix(rng, n, n, rand_fraction)
        if permutation_det(rows) == 0:
            with pytest.raises(ValueError, match="singular"):
                _fraction_inverse(rows)
            continue
        inv = _fraction_inverse(rows)
        product = [[sum(inv[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]
        done += 1
