"""Lattice minima, duals, transference, and the reduced dual basis.

The independent oracle throughout is a naive box enumeration, deliberately
different from the Fincke-Pohst search used by the library.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from sysbound.errors import BoundViolated, PreconditionUnmet, RankTooLarge
from sysbound.lattices import (NormedLattice, dual_lattice, kz_transform,
                               lll_transform, random_basis, reduced_dual_basis,
                               successive_minima, transference_check,
                               _gram_of_basis, _quad)


def _identity(r):
    return [[1 if i == j else 0 for j in range(r)] for i in range(r)]


def _box_minima(lattice, j, size, box=6):
    """Oracle: scan the coefficient box [-box, box]^r for successive minima,
    measuring each lattice vector (in ambient coordinates) with ``size``."""
    r = lattice.rank
    found = []
    for coeffs in itertools.product(range(-box, box + 1), repeat=r):
        if not any(coeffs):
            continue
        found.append((size(lattice.vector(coeffs)), coeffs))
    found.sort()
    rows, minima = [], []
    for norm, coeffs in found:
        candidate = rows + [[Fraction(c) for c in coeffs]]
        from sysbound.lattices import _rank_of
        if _rank_of(candidate) > len(rows):
            rows = candidate
            minima.append(norm)
            if len(minima) == j:
                return minima
    raise AssertionError("box too small for the oracle")


def _cofactor_det(m):
    """Oracle determinant by cofactor expansion along the first row."""
    if not m:
        return Fraction(1)
    return sum((-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1:]
                                                    for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _sylvester_positive_definite(g):
    """Oracle: symmetric with every leading principal minor positive."""
    n = len(g)
    return (all(g[i][j] == g[j][i] for i in range(n) for j in range(n))
            and all(_cofactor_det([row[:k] for row in g[:k]]) > 0
                    for k in range(1, n + 1)))


def test_positive_definite_matches_sylvester_minors():
    from sysbound.lattices import _is_positive_definite
    rng = random.Random(31)
    for trial in range(150):
        kind = ("definite", "semidefinite", "indefinite", "negative",
                "asymmetric")[trial % 5]
        n = rng.randint(1 if kind in ("definite", "negative") else 2, 5)
        # g = B^T diag(signs) B; by Sylvester's law of inertia the signs
        # and the rank of B fix which kind of form g is
        rows = n - 1 if kind == "semidefinite" else n
        while True:
            b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(n)] for _ in range(rows)]
            if rows < n or _cofactor_det(b) != 0:
                break
        signs = [-1 if kind == "negative" else 1] * rows
        if kind == "indefinite":
            signs[rng.randrange(1, rows)] = -1
        g = [[sum(s * row[i] * row[j] for s, row in zip(signs, b))
              for j in range(n)] for i in range(n)]
        if kind == "asymmetric":
            g[0][n - 1] += 1
        assert _sylvester_positive_definite(g) == (kind == "definite")
        assert _is_positive_definite(g) == (kind == "definite"), (kind, g)
    # a zero leading pivot ahead of a positive one is not definite
    assert not _is_positive_definite([[0, 0], [0, 1]])
    assert not _is_positive_definite([[0, 1], [1, 0]])
    # a matrix that is not square is not a form
    assert not _is_positive_definite([[]])
    assert not _is_positive_definite([[2, 1], [1]])


def test_integer_lattice_minima():
    for r in (1, 2, 3, 4):
        lat = NormedLattice(basis=_identity(r), gram=_identity(r))
        for j in range(1, r + 1):
            assert successive_minima(lat, j) == 1


def test_hexagonal_gram_minima():
    lat = NormedLattice(basis=_identity(2), gram=[[2, 1], [1, 2]])
    assert successive_minima(lat, 1) == 2
    assert successive_minima(lat, 2) == 2
    oracle = _box_minima(lat, 2, lat.norm_sq)
    assert oracle == [2, 2]


def test_minima_match_box_oracle_on_random_lattices():
    rng = random.Random(13)
    for _ in range(12):
        r = rng.randint(2, 3)
        basis = random_basis(r, rng, -3, 3)
        lat = NormedLattice(basis=basis, gram=_identity(r))
        minima = [successive_minima(lat, j) for j in range(1, r + 1)]
        assert minima == _box_minima(lat, r, lat.norm_sq, box=7)
        assert minima == sorted(minima)


def test_minima_are_computed_once_per_lattice(monkeypatch):
    from sysbound import lattices
    calls = []
    real = lattices.lll_transform

    def counting(gram, *args):
        calls.append(gram)
        return real(gram, *args)

    monkeypatch.setattr(lattices, "lll_transform", counting)
    lat = NormedLattice(basis=[[1, 2, 0], [0, 1, 3], [1, 0, 1]],
                        gram=_identity(3))
    minima = [successive_minima(lat, j) for j in range(1, 4)]
    assert minima == sorted(minima)
    assert len(calls) == 1


def test_minima_invariant_under_unimodular_change():
    rng = random.Random(21)
    base = NormedLattice(basis=_identity(3), gram=[[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    minima = [successive_minima(base, j) for j in range(1, 4)]
    for _ in range(6):
        # random small unimodular transform: products of elementary matrices
        u = _identity(3)
        for _ in range(5):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-2, 2)
            for k in range(3):
                u[i][k] += c * u[j][k]
        changed = [[sum(u[i][k] * base.basis[k][j] for k in range(3))
                    for j in range(3)] for i in range(3)]
        lat = NormedLattice(basis=changed, gram=base.gram)
        assert [successive_minima(lat, j) for j in range(1, 4)] == minima


def test_rank_cap():
    with pytest.raises(RankTooLarge):
        NormedLattice(basis=_identity(6), gram=_identity(6))


def test_dual_lattice_euclidean():
    lat = NormedLattice(basis=_identity(2), gram=[[2, 0], [0, 2]])
    dual = dual_lattice(lat)
    assert dual.lattice_gram() == [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    double = dual_lattice(dual)
    assert double.lattice_gram() == lat.lattice_gram()
    assert [[Fraction(x) for x in row] for row in double.basis] == lat.basis


def test_dual_of_integer_lattice_is_itself():
    lat = NormedLattice(basis=_identity(3), gram=_identity(3))
    dual = dual_lattice(lat)
    assert dual.lattice_gram() == lat.lattice_gram()


def test_transference_integer_and_diagonal():
    lat = NormedLattice(basis=_identity(3), gram=_identity(3))
    report = transference_check(lat)
    assert report.product_sq == 1
    assert report.ok
    skew = NormedLattice(basis=_identity(2), gram=[[4, 0], [0, Fraction(1, 4)]])
    report = transference_check(skew)
    assert report.lambda1_sq == Fraction(1, 4)
    assert report.dual_lambda_r_sq == 4
    assert report.product_sq == 1 <= 4


def test_lll_and_kz_are_unimodular():
    rng = random.Random(31)
    from sysbound.lattices import _det, _mat
    for _ in range(8):
        r = rng.randint(2, 4)
        basis = random_basis(r, rng)
        gram = _gram_of_basis(basis, _identity(r))
        for transform in (lll_transform(gram), kz_transform(gram)):
            assert abs(_det(_mat(transform))) == 1


def test_kz_first_vector_is_shortest():
    rng = random.Random(37)
    for _ in range(8):
        r = rng.randint(2, 4)
        basis = random_basis(r, rng, -4, 4)
        lat = NormedLattice(basis=basis, gram=_identity(r))
        gram = lat.lattice_gram()
        w = kz_transform(gram)
        first = _quad(gram, [Fraction(c) for c in w[0]])
        assert first == successive_minima(lat, 1)


def test_reduced_dual_basis_integer_lattice():
    lat = NormedLattice(basis=_identity(2), gram=_identity(2))
    result = reduced_dual_basis(lat)
    assert result.squared
    assert sorted(result.dual_norms) == [1, 1]
    # r^2 / lambda_1 = 4; squared bound 16
    assert all(nsq * result.lambda1 <= 16 for nsq in result.dual_norms)


def test_reduced_dual_basis_hexagonal():
    lat = NormedLattice(basis=_identity(2), gram=[[2, 1], [1, 2]])
    result = reduced_dual_basis(lat)
    # both dual norms at most (r^2 / lambda_1)^2 = 16 / 2
    for nsq in result.dual_norms:
        assert nsq * result.lambda1 <= 16
        assert nsq == Fraction(2, 3)  # shortest dual vectors of the dual gram


def test_reduced_dual_basis_random_sweep():
    rng = random.Random(101)
    for _ in range(40):
        r = rng.randint(2, 4)
        basis = random_basis(r, rng)
        lat = NormedLattice(basis=basis, gram=_identity(r))
        result = reduced_dual_basis(lat)
        bound = Fraction(r) ** 4
        for nsq in result.dual_norms:
            assert nsq * result.lambda1 <= bound
        # the dual vectors form a Z-basis: unimodular against the dual basis
        dual = dual_lattice(lat)
        from sysbound.lattices import _det, _mat, _mat_inv, _mat_mul
        change = _mat_mul(_mat([list(v) for v in result.vectors]),
                          _mat_inv(dual.basis))
        det = _det(change)
        assert abs(det) == 1
        for row in change:
            for x in row:
                assert x.denominator == 1


# -- polytope norms -----------------------------------------------------------


_HEX_VERTICES = [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]]


def test_polytope_norm_values():
    lat = NormedLattice(basis=_identity(2), vertices=_HEX_VERTICES)
    # facets give ||v|| = max(|v1|, |v2|, |v1 - v2|)
    assert lat.norm([1, 0]) == 1
    assert lat.norm([1, 1]) == 1
    assert lat.norm([1, -1]) == 2
    assert lat.norm([Fraction(1, 2), 0]) == Fraction(1, 2)


def test_polytope_minima_by_enumeration():
    lat = NormedLattice(basis=_identity(2), vertices=_HEX_VERTICES)
    assert successive_minima(lat, 1) == 1
    assert successive_minima(lat, 2) == 1
    # oracle: brute-force over a box using the Minkowski functional
    best = min(lat.norm([a, b])
               for a in range(-4, 5) for b in range(-4, 5) if (a, b) != (0, 0))
    assert best == 1


_CROSS_3_VERTICES = [[s * int(i == j) for j in range(3)]
                     for i in range(3) for s in (1, -1)]


def test_polytope_minima_match_box_oracle_on_random_bases():
    from sysbound.lattices import _mat_inv
    rng = random.Random(41)
    for trial in range(12):
        vertices, r = ((_HEX_VERTICES, 2) if trial % 2 == 0
                       else (_CROSS_3_VERTICES, 3))
        lat = NormedLattice(basis=random_basis(r, rng, -2, 2),
                            vertices=vertices)
        # a lattice vector v = c B has c_j = <v, column j of B^-1>, and v lies
        # in ||v|| times the unit ball, so |c_j| <= ||v|| max_u |<u, column
        # j>| over the vertices u: once the box holds every vector up to the
        # oracle's lambda_r, the scan is complete
        inv = _mat_inv(lat.basis)
        reach = max(abs(sum(u[i] * inv[i][j] for i in range(r)))
                    for u in vertices for j in range(r))
        box = 3
        oracle = _box_minima(lat, r, lat.norm, box)
        while oracle[-1] * reach > box:
            box = math.ceil(oracle[-1] * reach)
            oracle = _box_minima(lat, r, lat.norm, box)
        assert [successive_minima(lat, j) for j in range(1, r + 1)] == oracle


def test_polytope_vertex_list_must_be_symmetric():
    with pytest.raises(PreconditionUnmet):
        NormedLattice(basis=_identity(2), vertices=[[1, 0], [0, 1]])


def test_polytope_dual_is_polar():
    lat = NormedLattice(basis=_identity(2), vertices=_HEX_VERTICES)
    dual = dual_lattice(lat)
    # polar vertices are the facet normals: +-(1,0), +-(0,1), +-(1,-1)
    polar = {tuple(v) for v in dual.vertices}
    assert polar == {(1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1)}
    # dual norm is the support function on the primal ball
    assert dual.norm([1, 0]) == 1
    assert dual.norm([1, 1]) == 2


def test_polytope_sandwich_certificate():
    lat = NormedLattice(basis=_identity(2), vertices=_HEX_VERTICES)
    q = lat.euclidean_form()
    r = lat.rank
    # E inside K: every facet normal has a^T Q^-1 a <= 1
    from sysbound.lattices import _mat_inv
    qinv = _mat_inv(q)
    for a in lat._normals:
        assert _quad(qinv, list(a)) <= 1
    # K inside sqrt(r) E: vertices satisfy v^T Q v <= r
    for v in lat.vertices:
        assert _quad(q, v) <= r
    # the sandwich on the vertices: 1 <= |v|_Q <= sqrt(r) for norm-1 vertices
    for v in lat.vertices:
        val = _quad(q, v)
        assert 1 <= val <= r


def test_polytope_reduced_dual_basis():
    lat = NormedLattice(basis=_identity(2), vertices=_HEX_VERTICES)
    result = reduced_dual_basis(lat)
    assert not result.squared
    for norm in result.dual_norms:
        assert norm * result.lambda1 <= 4
