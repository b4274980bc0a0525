"""The exact linear algebra of ``kernel`` against sympy.

``_det``, ``_mat_inv``, ``_solve_linear`` and ``_rank_of`` run one
fraction-free elimination on integer rows; sympy's ``Matrix.det``, ``inv``,
``rank`` and ``LUsolve`` are the independent oracle.  The inputs are seeded
random rational matrices with duplicated and scaled rows, zero columns (a
skipped pivot) and singular ones among them.  ``_det``, ``_mat_inv`` and
``_rank_of`` take integer rows, so each matrix is cleared here, m = rows / d,
and their results are read back over d.
"""

import math
import random
from fractions import Fraction

import pytest

from sympy_oracle import as_fraction, as_matrix, solve
from sysbound import cones
from sysbound.catalog import product, projective_space
from sysbound.cones import ConeProblem
from sysbound.errors import PreconditionUnmet
from sysbound.kernel import _det, _mat_inv, _rank_of, _solve_linear

SHAPES = ("plain", "small", "duplicate", "scaled", "zero column")


def _matrix(rng, rows, cols, shape):
    """A random rows x cols matrix of Fractions of the given shape; "small"
    entries in {-1, 0, 1} are often singular by chance."""
    if shape == "small":
        return [[Fraction(rng.randint(-1, 1)) for _ in range(cols)]
                for _ in range(rows)]
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(cols)]
         for _ in range(rows)]
    if shape in ("duplicate", "scaled") and rows > 1:
        i, j = rng.sample(range(rows), 2)
        k = 1 if shape == "duplicate" else Fraction(rng.choice((-3, -1, 2, 5)),
                                                    rng.randint(1, 4))
        m[j] = [k * x for x in m[i]]
    elif shape == "zero column":
        c = rng.randrange(cols)
        for row in m:
            row[c] = Fraction(0)
    return m


def _square(seed, count):
    rng = random.Random(seed)
    for trial in range(count):
        n = 1 + trial % 6
        yield _matrix(rng, n, n, SHAPES[trial % len(SHAPES)])


def _any_shape(seed, count):
    rng = random.Random(seed)
    for trial in range(count):
        rows, cols = rng.randint(1, 7), rng.randint(1, 6)
        yield _matrix(rng, rows, cols, SHAPES[trial % len(SHAPES)])


def _is_fraction_list(xs):
    return all(type(x) is Fraction for x in xs)


def _is_int_list(xs):
    return all(type(x) is int for x in xs)


def _ints(m):
    """``(rows, d)``: m = rows / d with integer rows, d the least common
    denominator of m's entries."""
    d = math.lcm(*(x.denominator for row in m for x in row))
    return [[int(x * d) for x in row] for row in m], d


def test_det_matches_sympy():
    singular = 0
    for m in _square(101, 240):
        rows, d = _ints(m)
        det = _det(rows)
        assert type(det) is int
        assert Fraction(det, d ** len(m)) == as_fraction(as_matrix(m).det()), m
        singular += det == 0
    assert 40 <= singular <= 200


def test_inverse_matches_sympy_and_refuses_singular_matrices():
    refused = 0
    for m in _square(102, 240):
        oracle = as_matrix(m)
        rows, d = _ints(m)
        if oracle.det() == 0:
            with pytest.raises(PreconditionUnmet, match="matrix is singular"):
                _mat_inv(rows, d)
            refused += 1
            continue
        inv, den = _mat_inv(rows, d)
        assert all(_is_int_list(row) for row in inv)
        assert type(den) is int and den > 0
        # one denominator, the least: no common factor is left over
        assert math.gcd(den, *(x for row in inv for x in row)) == 1, m
        assert [[Fraction(x, den) for x in row] for row in inv] == [
            [as_fraction(x) for x in oracle.inv().row(i)]
            for i in range(oracle.rows)], m
        # (inv / den) (rows / d) = I, that is inv rows = den d I, in ints
        n = len(m)
        assert [[sum(inv[i][k] * rows[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)] == [
            [den * d * int(i == j) for j in range(n)] for i in range(n)], m
    assert 40 <= refused <= 200
    # an integer matrix is its own rows over d = 1
    assert _mat_inv([[2, 1], [1, 1]]) == ([[1, -1], [-1, 2]], 1)
    assert _mat_inv([[2]]) == ([[1]], 2)


def test_solve_matches_sympy_on_consistent_and_inconsistent_systems():
    rng = random.Random(103)
    outcomes = {"solved": 0, "none": 0}
    for trial, m in enumerate(_any_shape(104, 400)):
        cols = len(m[0])
        if trial % 2:
            # consistent: the image of a random vector
            x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(cols)]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in m]
        else:
            rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in m]
        x = _solve_linear(m, rhs)
        assert x == solve(m, rhs), (m, rhs)
        if x is None:
            outcomes["none"] += 1
        else:
            assert _is_fraction_list(x)
            assert [sum(a * v for a, v in zip(row, x)) for row in m] == rhs
            outcomes["solved"] += 1
    assert min(outcomes.values()) >= 80, outcomes


def test_rank_matches_sympy():
    ranks = set()
    for m in _any_shape(105, 400):
        rank = _rank_of(_ints(m)[0])
        assert rank == as_matrix(m).rank(), m
        ranks.add(rank)
    assert ranks == {0, 1, 2, 3, 4, 5, 6}
    assert _rank_of([]) == 0


def test_ray_coordinates_match_sympy():
    # three degree-2 generators, so one to four rays may or may not be
    # independent and alpha may or may not lie in their span
    space = product(product(projective_space(1), projective_space(1)),
                    projective_space(2))
    gens = [space.ring.gen(name) for name in ("H1", "H2", "H")]
    curves = ()
    rng = random.Random(106)

    def combination(classes, low=-4, high=4):
        total = 0 * gens[0]
        for c in classes:
            total = total + Fraction(rng.randint(low, high),
                                     rng.randint(1, 3)) * c
        return total

    outcomes = {"in span": 0, "outside": 0}
    for trial in range(240):
        k = rng.randint(1, 4)
        rays = []
        while len(rays) < k:
            ray = combination(rng.sample(gens, rng.randint(1, 3)))
            if ray.terms:
                rays.append(ray)
        alpha = combination(rays if trial % 2 else gens)
        if not alpha.terms:
            continue
        problem = ConeProblem(space=space, rays=tuple(rays), curves=curves)
        monos = sorted({m for r in rays for m in r.terms} | set(alpha.terms))
        expected = solve([[r.coefficient(m) for r in rays] for m in monos],
                         [alpha.coefficient(m) for m in monos])
        coords = cones._ray_coordinates(problem, alpha)
        assert coords == (None if expected is None else tuple(expected))
        if coords is None:
            outcomes["outside"] += 1
        else:
            assert _is_fraction_list(coords)
            outcomes["in span"] += 1
    assert min(outcomes.values()) >= 40, outcomes
