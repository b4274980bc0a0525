"""Lattice minima, duals, transference, and the reduced dual basis.

The independent oracle for minima is a naive box enumeration, deliberately
different from the Fincke-Pohst search used by the library.  The oracle for
LLL and KZ reduction has its own Fraction LDL^T, rounding and shortest-vector
search, and recomputes the Gram matrix of the rows and its Gram-Schmidt data
after every row operation, where the library keeps Cohen's integral data
and updates it in place; the integer Gram product is checked against plain
Fraction products.  The facet oracle solves each vertex subset in Fractions
and tests support with Fraction dot products, where the library eliminates
cleared integer rows.  A second minima oracle, ``_scored_vectors``,
combines each enumerated vector back to its coefficients and measures it
there in Fractions, where the library scans LLL coordinates in ints.  The
library keeps each matrix as integer rows over one denominator,
``(rows, den)``; the tests clear their inputs with ``_cleared_ints`` and
read results back as Fractions with ``_over``.
"""

import ast
import inspect
import itertools
import math
import random
import sys
import textwrap
from fractions import Fraction

import pytest

from sympy_oracle import as_matrix
from sysbound import lattices
from sysbound.errors import (BoundViolated, CertificateFailed,
                             PreconditionUnmet, RankTooLarge, TooManyVertices)
from sysbound.lattices import (NormedLattice, dual_lattice, kz_transform,
                               lll_transform, random_basis, reduced_dual_basis,
                               successive_minima, transference_check,
                               _int_gram, _integral_gs, _mat_inv)


def _identity(r):
    return [[1 if i == j else 0 for j in range(r)] for i in range(r)]


def _cleared_ints(gram):
    """``(ints, c)``: the matrix times c, the least common denominator of
    its entries, as integer rows."""
    c = math.lcm(*(x.denominator for row in gram for x in row))
    return [[x.numerator * (c // x.denominator) for x in row]
            for row in gram], c


def _over(pair):
    """The matrix ``rows / den`` of a ``(rows, den)`` pair, as Fractions."""
    rows, den = pair
    return [[Fraction(x, den) for x in row] for row in rows]


def _tuples(pair):
    """The rows of a ``(rows, den)`` pair as tuples of Fractions."""
    return [tuple(row) for row in _over(pair)]


def _gram_product(basis, form):
    """basis * form * basis^T as Fractions, by the library's integer product
    of the cleared rows: with basis = B / d and form = F / e it is
    B F B^T / d^2 e."""
    (b, d), (f, e) = _cleared_ints(basis), _cleared_ints(form)
    return _over((_int_gram(b, f), d * d * e))


def _inverse(m):
    """m^-1 as Fractions, by the integer inverse of m's cleared rows."""
    return _over(_mat_inv(*_cleared_ints(m)))


def _fraction_quad(g, x):
    """Oracle: x^T g x by Fraction products, entry by entry."""
    x = [Fraction(c) for c in x]
    return sum((xi * gij * xj for xi, row in zip(x, g)
                for gij, xj in zip(row, x)), Fraction(0))


def _box_minima(lattice, j, size, box=6):
    """Oracle: scan the coefficient box [-box, box]^r for successive minima,
    measuring each lattice vector (in ambient coordinates, a plain Fraction
    product with the basis) with ``size``; independence is sympy's rank."""
    r = lattice.rank
    found = []
    for coeffs in itertools.product(range(-box, box + 1), repeat=r):
        if not any(coeffs):
            continue
        vec = [sum(c * row[k] for c, row in zip(coeffs, lattice.basis))
               for k in range(r)]
        found.append((size(vec), coeffs))
    found.sort()
    rows, minima = [], []
    for norm, coeffs in found:
        candidate = rows + [list(coeffs)]
        if as_matrix(candidate).rank() > len(rows):
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
        assert _is_positive_definite(_cleared_ints(g)[0]) == (
            kind == "definite"), (kind, g)
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
    from sysbound.lattices import _det
    for _ in range(8):
        r = rng.randint(2, 4)
        basis = random_basis(r, rng)
        gram = _int_gram(basis, _identity(r))
        lll = lll_transform(gram)
        for transform in (lll[0], kz_transform(gram, lll)):
            assert abs(_det(transform)) == 1


@pytest.mark.parametrize("r", [3, 4, 5])
def test_one_kz_certificate_covers_every_level(monkeypatch, r):
    # a completion with its last row doubled below the top level only: the
    # certificate on the whole transform sees each one, as determinant +-2
    # per inner level
    real, lengths = lattices._complete_unimodular, []

    def complete(v):
        lengths.append(len(v))
        t = real(v)
        return t if len(lengths) == 1 else t[:-1] + [[2 * x for x in t[-1]]]

    gram = [[2 if i == j else 1 for j in range(r)] for i in range(r)]
    lll = lll_transform(gram)
    kz_transform(gram, lll)
    monkeypatch.setattr(lattices, "_complete_unimodular", complete)
    with pytest.raises(CertificateFailed) as caught:
        kz_transform(gram, lll)
    assert lengths == list(range(r, 1, -1))
    prefix = "unimodularity certificate: the KZ transform has determinant "
    message = str(caught.value)
    assert message.startswith(prefix)
    assert abs(int(message[len(prefix):])) == 2 ** (r - 2)


def test_kz_first_vector_is_shortest():
    rng = random.Random(37)
    for _ in range(8):
        r = rng.randint(2, 4)
        basis = random_basis(r, rng, -4, 4)
        lat = NormedLattice(basis=basis, gram=_identity(r))
        ints, _ = _cleared_ints(lat.lattice_gram())
        w = kz_transform(ints, lll_transform(ints))
        first = _fraction_quad(lat.lattice_gram(), w[0])
        assert first == successive_minima(lat, 1)


# -- the rebuild-from-scratch reduction route, as an oracle --------------------


def _fraction_gram(basis, form):
    """Oracle: basis * form * basis^T by Fraction products, entry by entry."""
    basis = [[Fraction(x) for x in row] for row in basis]
    bf = [[sum((row[k] * form[k][l] for k in range(len(form))), Fraction(0))
           for l in range(len(form))] for row in basis]
    return [[sum((x * y for x, y in zip(row, other)), Fraction(0))
             for other in basis] for row in bf]


def _oracle_gs(gram):
    """Oracle: LDL^T of a positive-definite Gram matrix in Fractions,
    gram = mu diag(bstar) mu^T with mu unit lower triangular."""
    r = len(gram)
    mu = [[Fraction(0)] * r for _ in range(r)]
    bstar = [Fraction(0)] * r
    for i in range(r):
        mu[i][i] = Fraction(1)
        bstar[i] = Fraction(gram[i][i])
        for j in range(i):
            num = gram[i][j] - sum(mu[i][k] * mu[j][k] * bstar[k]
                                   for k in range(j))
            mu[i][j] = num / bstar[j]
            bstar[i] -= mu[i][j] ** 2 * bstar[j]
        assert bstar[i] > 0, gram
    return mu, bstar


def _oracle_round_half(x: Fraction) -> int:
    """Oracle: x rounded to the nearest integer, halves up."""
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def _as_fractions(lam, d):
    """The Gram-Schmidt data (mu, bstar) that the integral data (lam, d)
    stands for: mu_ij = lam_ij / d_(j+1), bstar_i = d_(i+1) / d_i."""
    r = len(lam)
    mu = [[Fraction(lam[i][j], d[j + 1]) if j < i else Fraction(int(i == j))
           for j in range(r)] for i in range(r)]
    return mu, [Fraction(d[i + 1], d[i]) for i in range(r)]


def _oracle_size_reduce(w, gram, k):
    """Size-reduce row k against rows k-1, ..., 0, recomputing the
    Gram-Schmidt data of all rows after every step."""
    mu, bstar = _oracle_gs(_gram_product(w, gram))
    for j in range(k - 1, -1, -1):
        q = _oracle_round_half(mu[k][j])
        if q:
            w[k] = [a - q * b for a, b in zip(w[k], w[j])]
            mu, bstar = _oracle_gs(_gram_product(w, gram))
    return mu, bstar


def _oracle_lll(gram, delta=Fraction(3, 4)):
    r = len(gram)
    w = _identity(r)
    k = 1
    while k < r:
        mu, bstar = _oracle_size_reduce(w, gram, k)
        if bstar[k] >= (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            w[k], w[k - 1] = w[k - 1], w[k]
            k = max(k - 1, 1)
    return w


def _oracle_shortest(mu, bstar, bound):
    """Oracle: the first shortest nonzero x with x^T G x <= bound,
    G = mu diag(bstar) mu^T, in the library's order: by value, then by
    (x_(r-1), ..., x_0) ascending, the first nonzero x_i positive.

    A Fraction depth-first search, level l adding bstar_l (x_l - c_l)^2
    with the center c_l read off the deeper coordinates; each level scans
    a window around its center and keeps the x inside the budget.
    """
    r = len(bstar)
    best = []
    x = [0] * r

    def descend(level, spent):
        if level < 0:
            first = next((c for c in x if c), 0)
            if first > 0 and (not best or spent < best[1]):
                best[:] = [list(x), spent]
            return
        c = -sum(mu[j][level] * x[j] for j in range(level + 1, r))
        reach = math.isqrt(math.floor((bound - spent) / bstar[level])) + 1
        for x_l in range(math.floor(c) - reach, math.floor(c) + reach + 2):
            value = spent + bstar[level] * (x_l - c) ** 2
            if value <= bound:
                x[level] = x_l
                descend(level - 1, value)
        x[level] = 0

    descend(r - 1, Fraction(0))
    return best[0]


def _oracle_kz(gram):
    from sysbound.lattices import _complete_unimodular
    r = len(gram)
    if r == 1:
        return [[1]]
    w = _oracle_lll(gram)
    reduced = _gram_product(w, gram)
    best = _oracle_shortest(*_oracle_gs(reduced),
                            min(reduced[i][i] for i in range(r)))
    t1 = _complete_unimodular([sum(best[i] * w[i][j] for i in range(r))
                               for j in range(r)])
    g1 = _gram_product(t1, gram)
    projected = [[g1[i][j] - g1[i][0] * g1[j][0] / g1[0][0]
                  for j in range(1, r)] for i in range(1, r)]
    w = [t1[0]] + [[sum(row[i] * t1[i + 1][j] for i in range(r - 1))
                    for j in range(r)] for row in _oracle_kz(projected)]
    for i in range(1, r):
        _oracle_size_reduce(w, gram, i)
    return w


def _seeded_grams(count, seed):
    """Gram matrices at ranks 2-5 in turn: B B^T, B F B^T for a random
    integral form F, (B B^T) / 7, and the dual (B B^T)^-1."""
    rng = random.Random(seed)
    for n in range(count):
        r = 2 + n % 4
        gram = _fraction_gram(random_basis(r, rng), _identity(r))
        kind = (n // 4) % 4
        if kind == 1:
            form = _fraction_gram(random_basis(r, rng, -2, 2), _identity(r))
            gram = _fraction_gram(random_basis(r, rng, -3, 3), form)
        elif kind == 2:
            gram = [[x / 7 for x in row] for row in gram]
        elif kind == 3:
            gram = _inverse(gram)
        yield gram


def test_enumeration_matches_a_box_scan():
    from sysbound.lattices import enumerate_short_vectors
    rng = random.Random(67)
    scanned = 0
    for gram in _seeded_grams(40, 71):
        r = len(gram)
        bound = min(gram[i][i] for i in range(r)) * Fraction(
            rng.randint(2, 6), 3)
        # |x_i| <= sqrt(bound (G^-1)_ii) on the ellipsoid x^T G x <= bound
        inv = _inverse(gram)
        box = max(math.isqrt(math.floor(bound * inv[i][i]))
                  for i in range(r))
        if (2 * box + 1) ** r > 4_000:
            continue
        expected = []
        ints, scale = _cleared_ints(gram)
        for x in itertools.product(range(-box, box + 1), repeat=r):
            value = Fraction(lattices._int_quad(ints, x), scale)
            first = next((c for c in x if c), 0)
            if first > 0 and value <= bound:
                expected.append((x, value))
        spent, s = enumerate_short_vectors(*_integral_gs(ints), bound * scale)
        found = [(x, Fraction(n, s * scale)) for x, n in spent]
        assert sorted(found) == sorted(expected)
        assert [v for _, v in found] == sorted(v for _, v in found)
        scanned += 1
    assert scanned >= 20


def _full_walk(lam, d, bound):
    """Oracle: the Fincke-Pohst walk over every x, both members of each
    +-pair, keeping the one whose first nonzero coordinate is positive; it
    visits x in (x_(r-1), ..., x_0) order, and a stable sort by n keeps
    that order among ties."""
    r = len(lam)
    e = d[1:]
    s = math.lcm(*(a * b for a, b in zip(d, e)))
    m = [s // (a * b) for a, b in zip(d, e)]
    budget = bound.numerator * s // bound.denominator
    out = []
    coords = [0] * r

    def descend(level, remaining):
        if level < 0:
            first = next((x for x in coords if x), 0)
            if first > 0:
                out.append((tuple(coords), budget - remaining))
            return
        n = sum(lam[j][level] * coords[j] for j in range(level + 1, r))
        e_l, m_l = e[level], m[level]
        w = math.isqrt(remaining // m_l)
        for x in range(-((w + n) // e_l), (w - n) // e_l + 1):
            coords[level] = x
            t = e_l * x + n
            descend(level - 1, remaining - m_l * t * t)
        coords[level] = 0

    if budget >= 0:
        descend(r - 1, budget)
    out.sort(key=lambda item: item[1])
    return out, s


def _pool_pass_enumerations():
    """The arguments of every ``enumerate_short_vectors`` call of one pass
    of the benchmark's lattice sequence over its pool, from a cold norm
    memo."""
    from batch_pool import bench_child, golden_lattices
    child = bench_child()
    golden = golden_lattices()
    real, calls = lattices.enumerate_short_vectors, []

    def spy(lam, d, bound):
        calls.append(([list(row) for row in lam], list(d), bound))
        return real(lam, d, bound)

    lattices._norm.cache_clear()
    lattices.enumerate_short_vectors = spy
    try:
        for kind, specs in child.bench_inputs.lattice_pool().items():
            for spec, expected in zip(specs, golden[kind]):
                assert child.lattice_op(lattices, spec) == expected, kind
    finally:
        lattices.enumerate_short_vectors = real
    return calls


def test_the_half_walk_lists_what_the_full_walk_lists_over_a_pool_pass():
    # the whole list, ties in their order included, on every call
    from sysbound.lattices import enumerate_short_vectors
    calls = _pool_pass_enumerations()
    assert len(calls) > 800
    tied = 0
    for args in calls:
        listed = enumerate_short_vectors(*args)
        assert listed == _full_walk(*args), args
        sizes = [n for _, n in listed[0]]
        tied += len(sizes) - len(set(sizes))
    assert tied > 1000


def _tied_grams():
    """Gram matrices with many vectors of one length: the integer lattices,
    the hexagonal and A3 root lattices, D4, and scaled copies."""
    grams = [_identity(r) for r in range(1, 6)]
    grams += [[[2, 1], [1, 2]], [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
              [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
               [0, -1, 0, 2]]]
    grams += [[[3 * x for x in row] for row in gram] for gram in grams[4:]]
    return [[[Fraction(x) for x in row] for row in gram] for gram in grams]


def test_the_half_walk_lists_what_the_full_walk_lists_at_every_bound():
    # random and tied lattices, bounds below, at and above the LLL row
    # norms, and a zero budget, on the LLL run's data; on the unreduced
    # Gram-Schmidt data, whose walk spans wider ranges, up to the shortest
    # row.  Each bound is given on the cleared integer rows as a Fraction
    # and, rounded down, as an integer
    from sysbound.lattices import enumerate_short_vectors
    rng = random.Random(83)
    compared = 0
    for gram in _tied_grams() + list(_seeded_grams(24, 89)):
        ints, scale = _cleared_ints(gram)
        w, lam, d, norms = lll_transform(ints)
        low, high = (Fraction(n, scale) for n in (min(norms), max(norms)))
        below = low * Fraction(rng.randint(1, 9), 10)
        runs = [((lam, d), bound) for bound in
                (Fraction(0), below, low, high,
                 high * Fraction(rng.randint(11, 20), 10))]
        runs += [(_integral_gs(ints), bound) for bound in (below, low)]
        for data, bound in runs:
            for args in ((*data, bound * scale),
                         (*data, bound.numerator * scale // bound.denominator)):
                listed = enumerate_short_vectors(*args)
                assert listed == _full_walk(*args), (gram, bound)
                compared += bool(listed[0])
    assert compared > 200
    # Z^4's ball of radius 2 holds the 4 pairs +-e_i and the 12 pairs
    # +-(e_i +- e_j), each listed by its member with a positive first
    # nonzero coordinate
    vectors, s = enumerate_short_vectors(*_integral_gs(_identity(4)),
                                         Fraction(2))
    assert len(vectors) == 16 and s == 1
    assert all(next(x for x in v if x) > 0 for v, _ in vectors)
    assert enumerate_short_vectors(*_integral_gs(_identity(3)),
                                   Fraction(-1)) == ([], 1)


def test_kz_takes_its_top_vector_from_shortest_vector():
    # on every Euclidean pool dual and on 40 random lattices: KZ's first row
    # is the first vector the enumeration up to the shortest reduced row
    # lists, the one shortest_vector certifies
    from sysbound.lattices import shortest_vector
    rng = random.Random(0)
    cases = [lat for lat in _pool_lattices() if lat.kind == "euclidean"]
    for _ in range(40):
        r = rng.randint(2, 5)
        cases.append(NormedLattice(basis=random_basis(r, rng),
                                   gram=_identity(r)))
    for lat in cases:
        gram, _, lll = dual_lattice(lat)._lll
        assert kz_transform(gram, lll)[0] == shortest_vector(lll)
    # the reduced dual basis does not depend on whether the dual's minima
    # were read first
    rng = random.Random(7)
    for _ in range(24):
        r = rng.randint(2, 5)
        basis = random_basis(r, rng)
        bare = NormedLattice(basis=basis, gram=_identity(r))
        checked = NormedLattice(basis=basis, gram=_identity(r))
        transference_check(checked)
        assert reduced_dual_basis(bare) == reduced_dual_basis(checked)


def test_gram_product_matches_fraction_products():
    rng = random.Random(47)
    for trial in range(60):
        rows, r = rng.randint(1, 6), rng.randint(1, 5)
        basis = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(r)] for _ in range(rows)]
        form = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for _ in range(r)] for _ in range(r)]
        if trial % 3 == 0:
            basis = [[int(x) for x in row] for row in basis]
        assert _gram_product(basis, form) == _fraction_gram(basis, form)


def test_lll_and_kz_match_the_rebuild_oracle():
    grams = list(_seeded_grams(200, 59))
    assert {len(g) for g in grams} == {2, 3, 4, 5}
    assert any(x.denominator > 1 for g in grams for row in g for x in row)
    for gram in grams:
        expected = _oracle_lll(gram)
        ints, _ = _cleared_ints(gram)
        lll = lll_transform(ints)
        w, lam, d, norms = lll
        assert w == expected, gram
        # the integral data kept through the run is that of the rows, and
        # the norms are its diagonal
        reduced = _gram_product(w, ints)
        assert _as_fractions(lam, d) == _oracle_gs(reduced), gram
        assert norms == [reduced[i][i] for i in range(len(w))], gram
        assert kz_transform(ints, lll) == _oracle_kz(gram), gram
        # a positive multiple of the form reduces exactly alike
        tripled = [[3 * x for x in row] for row in ints]
        assert lll_transform(tripled)[0] == w, gram
        assert kz_transform(tripled, lll_transform(tripled)) == kz_transform(
            ints, lll), gram


def _checking_copy(fn, divisions):
    """A copy of ``fn`` in which every ``a // b`` asserts that b divides a
    and records b in ``divisions``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    found = []

    class Exact(ast.NodeTransformer):
        def visit_BinOp(self, node):
            self.generic_visit(node)
            if not isinstance(node.op, ast.FloorDiv):
                return node
            found.append(node)
            return ast.Call(ast.Name("_exact_div", ast.Load()),
                            [node.left, node.right], [])

    tree = ast.fix_missing_locations(Exact().visit(tree))
    assert found, fn.__name__

    def exact_div(a, b):
        q, rem = divmod(a, b)
        assert rem == 0, (fn.__name__, a, b)
        divisions.append(b)
        return q

    namespace = dict(vars(lattices), _exact_div=exact_div)
    exec(compile(tree, inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


def test_integral_divisions_are_exact(monkeypatch):
    # every // in the integral Gram-Schmidt pass and in the swap divides
    # exactly, over seeded Grams at ranks 2-5 of each kind: integer B B^T
    # and B F B^T, (B B^T) / 7 and the inverse (B B^T)^-1, cleared
    divisions = {"_integral_gs": [], "_swap_rows": []}
    for name, seen in divisions.items():
        monkeypatch.setattr(lattices, name,
                            _checking_copy(getattr(lattices, name), seen))
    grams = list(_seeded_grams(64, 83))
    assert {len(g) for g in grams} == {2, 3, 4, 5}
    for gram in grams:
        ints, _ = _cleared_ints(gram)
        lll = lll_transform(ints)
        kz_transform(ints, lll)
    assert all(len(seen) > 100 for seen in divisions.values()), {
        name: len(seen) for name, seen in divisions.items()}


def test_size_reduction_rounds_halves_up():
    from sysbound.lattices import _reduce_row
    # mu = +1/2 rounds to q = 1, mu = -1/2 to q = 0
    for gram, q in (([[2, 1], [1, 2]], 1), ([[2, -1], [-1, 2]], 0)):
        w = _identity(2)
        _reduce_row(w, *_integral_gs(gram), 1)
        assert w == [[1, 0], [-q, 1]]
        assert q == _oracle_round_half(Fraction(gram[0][1], 2))
    # mu = b / a over a grid that holds every half from -5/2 to 5/2
    for a in range(1, 7):
        for b in range(-15, 16):
            gram = [[a, b], [b, b * b + 1]]
            lam, d = _integral_gs(gram)
            w = _identity(2)
            _reduce_row(w, lam, d, 1)
            q = _oracle_round_half(Fraction(b, a))
            assert w[1] == [-q, 1], (a, b)
            assert _as_fractions(lam, d)[0][1][0] == Fraction(b, a) - q


def test_the_lll_data_are_ints(monkeypatch):
    # Fractions appear only where a value leaves the engine: every LLL run
    # over the benchmark's pool lattices, those on KZ's projected forms
    # included, reads an integer Gram matrix and keeps integer lam and d
    from batch_pool import bench_child
    real = lattices.lll_transform
    ranks = []

    def checked(gram):
        run = real(gram)
        w, lam, d, norms = run
        entries = [x for m in (gram, w, lam, [d, norms]) for row in m
                   for x in row]
        assert all(type(x) is int for x in entries), entries
        ranks.append(len(gram))
        return run

    monkeypatch.setattr(lattices, "lll_transform", checked)
    child = bench_child()
    pool = child.bench_inputs.lattice_pool()
    for specs in pool.values():
        for spec in specs:
            child.lattice_op(lattices, spec)
    assert len(ranks) > 2 * sum(len(specs) for specs in pool.values())
    assert set(ranks) == {2, 3, 4, 5}


def test_minima_read_the_kept_lll_run(monkeypatch):
    # once a lattice holds its LLL run, the minima scan neither rebuilds
    # the reduced Gram matrix nor factors it again
    rng = random.Random(7)
    cases = [NormedLattice(basis=random_basis(r, rng), gram=_identity(r))
             for r in (2, 3, 4, 5)]
    cases.append(NormedLattice(basis=random_basis(3, rng, -2, 2),
                               vertices=_CROSS_3_VERTICES))
    for lat in cases:
        lat._lll
    calls = []

    def counted(name):
        real = getattr(lattices, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("_integral_gs", "_cleared", "_int_gram"):
        monkeypatch.setattr(lattices, name, counted(name))
    for lat in cases:
        minima = [successive_minima(lat, j) for j in range(1, lat.rank + 1)]
        assert minima == sorted(minima)
    assert calls == []


def test_independent_scan_matches_the_rank_oracle():
    from sysbound.lattices import _independent_scan
    rng = random.Random(61)
    for trial in range(200):
        r = rng.randint(1, 5)
        vectors = []
        for _ in range(rng.randint(1, 14)):
            if vectors and rng.random() < 0.4:
                # a combination of earlier candidates: dependent on them
                picked = rng.sample(vectors, min(len(vectors), 2))
                coeffs = tuple(sum(rng.randint(-2, 2) * v[0][i]
                                   for v in picked) for i in range(r))
            else:
                coeffs = tuple(rng.randint(-3, 3) for _ in range(r))
            if any(coeffs):
                vectors.append((coeffs, Fraction(len(vectors))))
        upto = rng.randint(1, r)
        expected, rows = [], []
        for coeffs, value in vectors:
            candidate = rows + [list(coeffs)]
            if as_matrix(candidate).rank() > len(rows):
                rows = candidate
                expected.append(value)
                if len(expected) == upto:
                    break
        assert _independent_scan(vectors, upto) == expected


def test_each_gram_matrix_is_lll_reduced_once(monkeypatch):
    # the lattice subcommand's sequence: the dual's minima (in the
    # transference check) and the KZ reduction of the dual basis share one
    # dual lattice and one LLL run on its Gram matrix
    from sysbound import lattices
    calls = []
    real = lattices.lll_transform

    def counting(gram, *args):
        calls.append(tuple(tuple(row) for row in gram))
        return real(gram, *args)

    monkeypatch.setattr(lattices, "lll_transform", counting)
    rng = random.Random(5)
    done = []
    for _ in range(24):
        r = rng.randint(2, 5)
        lat = NormedLattice(basis=random_basis(r, rng), gram=_identity(r))
        for j in range(1, r + 1):
            successive_minima(lat, j)
        transference_check(lat)
        reduced_dual_basis(lat)
        done.append(lat)
    assert len(calls) == len(set(calls)) == 80
    for lat in done:
        assert dual_lattice(lat) is dual_lattice(lat)


def test_each_lll_run_measures_its_rows_once(monkeypatch):
    # an LLL run carries the norms of its reduced rows, which the minima
    # (the longest) and KZ's shortest vector (the shortest) both read: over
    # a pool pass every run measures its rows once, and the one other
    # measure per request is of a Euclidean reduced dual basis's KZ rows.
    # Measuring the dual's rows for its minima and again for KZ made one
    # more per Euclidean request
    from batch_pool import bench_child, golden_lattices
    runs, measured = [], []
    real_lll, real_norms = lattices.lll_transform, lattices._row_norms

    def counted_lll(gram):
        runs.append(len(gram))
        return real_lll(gram)

    def counted_norms(w, gram):
        measured.append(len(gram))
        return real_norms(w, gram)

    monkeypatch.setattr(lattices, "lll_transform", counted_lll)
    monkeypatch.setattr(lattices, "_row_norms", counted_norms)
    child = bench_child()
    golden = golden_lattices()
    euclidean = 0
    for kind, specs in child.bench_inputs.lattice_pool().items():
        for spec, expected in zip(specs, golden[kind]):
            assert child.lattice_op(lattices, spec) == expected, kind
            euclidean += spec["kind"] == "euclidean"
    assert euclidean == 192 and len(runs) > 2 * 288
    assert len(measured) == len(runs) + euclidean


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
        # the dual vectors form a Z-basis: unimodular against the dual basis;
        # V D^-1 is the off-diagonal block of the Gram matrix, in the
        # standard form, of the rows of V stacked on those of (D^-1)^T
        dual = dual_lattice(lat)
        from sysbound.lattices import _det
        stacked = [list(v) for v in result.vectors] + [
            list(col) for col in zip(*_inverse(dual.basis))]
        change = [row[r:] for row in _gram_product(stacked, _identity(r))[:r]]
        for row in change:
            for x in row:
                assert x.denominator == 1
        det = _det([[x.numerator for x in row] for row in change])
        assert abs(det) == 1


def test_pool_outputs_match_the_golden_record():
    # the benchmark's 288 pool lattices through its own call sequence
    from batch_pool import bench_child, golden_lattices
    child = bench_child()
    pool = child.bench_inputs.lattice_pool()
    golden = golden_lattices()
    assert sorted(pool) == sorted(golden)
    for kind, specs in pool.items():
        assert len(specs) == len(golden[kind])
        for pos, (spec, expected) in enumerate(zip(specs, golden[kind])):
            assert child.lattice_op(lattices, spec) == expected, (kind, pos)


def test_a_pool_pass_clears_each_matrix_once(monkeypatch):
    # a lattice clears its basis, its form or its vertices once when it is
    # built, and the ellipsoid fit clears each rationalized round once, once
    # per distinct polytope from an empty norm memo; nothing clears again,
    # and a dual is built from the inverse's rows without the constructor.
    # A pool pass made 11,136 calls when every routine cleared its own
    # input, 1,248 when the dual went through the constructor and 672 when
    # each lattice fitted its own ellipsoid; the ceiling sits just above
    # the 578 of two per lattice and one per fit.  The minima are scanned in
    # LLL coordinates, so no vector is combined back to its coefficients on
    # the way; what combines is KZ
    from batch_pool import bench_child, golden_lattices
    from sysbound import kernel
    real_cleared, real_init = kernel._cleared, NormedLattice.__init__
    real_combine = lattices._combine
    calls, built, combined = [], [], []

    def counted(m):
        calls.append(len(m))
        return real_cleared(m)

    def counted_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    def counted_combine(x, w):
        frame, callers = sys._getframe(1), set()
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        combined.append("_minima" in callers)
        return real_combine(x, w)

    for module in (kernel, lattices):
        monkeypatch.setattr(module, "_cleared", counted)
    monkeypatch.setattr(NormedLattice, "__init__", counted_init)
    monkeypatch.setattr(lattices, "_combine", counted_combine)
    lattices._norm.cache_clear()
    child = bench_child()
    pool = child.bench_inputs.lattice_pool()
    golden = golden_lattices()
    for kind, specs in pool.items():
        for spec, expected in zip(specs, golden[kind]):
            assert child.lattice_op(lattices, spec) == expected, kind
    assert 0 < len(calls) <= 580, len(calls)
    assert len(built) == 288
    assert combined and not any(combined), combined.count(True)


def test_a_pool_pass_makes_no_fraction_copies(monkeypatch):
    # the lattice sequence reads no dual's public basis, form or vertices,
    # and makes them for no lattice: every value it returns is a minimum, a
    # norm or a vector, made Fraction by Fraction
    from batch_pool import bench_child, golden_lattices
    real, copies = lattices._fractions, []

    def counted(rows, den):
        copies.append(len(rows))
        return real(rows, den)

    monkeypatch.setattr(lattices, "_fractions", counted)
    child = bench_child()
    pool = child.bench_inputs.lattice_pool()
    golden = golden_lattices()
    for kind, specs in pool.items():
        for spec, expected in zip(specs, golden[kind]):
            assert child.lattice_op(lattices, spec) == expected, kind
    assert copies == []
    # the counter sees a copy made on first read, and only one
    dual = dual_lattice(NormedLattice(basis=_identity(2), gram=_identity(2)))
    assert dual.basis is dual.basis
    assert copies == [2]


def test_a_pool_pass_reads_no_integer_input_as_a_fraction(monkeypatch):
    # the pool's bases, forms and vertices are ints, which the constructor
    # clears as they are; it reads an entry as a Fraction only where the
    # entry is not an int.  The counter sees what the constructor makes
    from batch_pool import bench_child, golden_lattices
    made, building = [], []
    real_init = NormedLattice.__init__

    def counted(*args):
        if building:
            made.append(type(args[0]) if len(args) == 1 else args)
        return Fraction(*args)

    def counted_init(self, *args, **kwargs):
        building.append(1)
        try:
            real_init(self, *args, **kwargs)
        finally:
            building.pop()

    monkeypatch.setattr(lattices, "Fraction", counted)
    monkeypatch.setattr(NormedLattice, "__init__", counted_init)
    lattices._norm.cache_clear()
    child = bench_child()
    golden = golden_lattices()
    for kind, specs in child.bench_inputs.lattice_pool().items():
        for spec, expected in zip(specs, golden[kind]):
            assert child.lattice_op(lattices, spec) == expected, kind
    assert made == []
    NormedLattice(basis=[[1, 0.5], [0, "1/3"]], gram=[[2, Fraction(1)],
                                                     [1, True]])
    assert made == [float, str, Fraction, bool]


#: lattice inputs whose entries are ints, Fractions, strings, floats and
#: bools, with vertices listed in no sorted order
_MIXED_INPUTS = [
    ([[1, 0], [0, 1]], {"gram": [[2, 1], [1, 2]]}),
    ([[Fraction(1, 2), 3], [-1, "2/3"]], {"gram": [[1.5, 0], [0, True]]}),
    ([[2, 1, 0], [0, 1, 0], [1, 1, 1]],
     {"vertices": [[0, 0, -1], [1, 0, 0], [0, -1, 0], [0, 0, 1], [-1, 0, 0],
                   [0, 1, 0]]}),
    ([["1/3", 0], [0, 1]],
     {"vertices": [[Fraction(1, 2), 0], [0, 1], [-0.5, 0], [0, -1]]}),
]


@pytest.mark.parametrize("basis, norm", _MIXED_INPUTS)
def test_the_public_fields_are_the_inputs_read_as_fractions(basis, norm):
    # basis, gram and vertices read as Fraction(x) entry by entry, in the
    # order given: ==, the repr and replace see the inputs
    lat = NormedLattice(basis=basis, **norm)
    given = {"basis": basis, "gram": None, "vertices": None, **norm}
    expected = {name: None if rows is None else
                [[Fraction(x) for x in row] for row in rows]
                for name, rows in given.items()}
    for name, value in expected.items():
        got = getattr(lat, name)
        assert got == value, name
        assert got is getattr(lat, name)
        if value is not None:
            assert {type(x) for row in got for x in row} == {Fraction}
    if lat.vertices is not None:
        assert lat.vertices != sorted(lat.vertices)
    assert repr(lat) == "NormedLattice(basis=%r, gram=%r, vertices=%r)" % (
        expected["basis"], expected["gram"], expected["vertices"])
    assert lat == NormedLattice(**{name: value for name, value
                                   in expected.items()})
    assert lat == lat.replace()


_I2 = [[1, 0], [0, 1]]


@pytest.mark.parametrize("basis, norm, error, message", [
    # the basis entries are read first, before its shape is checked
    ([[1, "x"]], {"gram": [[1]]}, ValueError,
     "Invalid literal for Fraction: 'x'"),
    ([[1, None], [0, 1]], {"gram": "never read"}, TypeError,
     "argument should be a string or a Rational instance"),
    ([[float("nan"), 0], [0, 1]], {"gram": _I2}, ValueError,
     "cannot convert NaN to integer ratio"),
    # then the basis, before the form or the vertices are read
    ([], {"gram": [["bad"]]}, PreconditionUnmet,
     "the lattice basis is empty; rank must be at least 1"),
    (_identity(6), {"gram": [["bad"]]}, RankTooLarge,
     "rank 6 exceeds the desk-scale cap 5"),
    ([[1, 2]], {"gram": [["bad"]]}, PreconditionUnmet,
     "basis must be a square matrix"),
    ([[1, 2], [2, 4]], {"gram": _I2, "vertices": _I2}, PreconditionUnmet,
     "basis must be nonsingular"),
    (_I2, {"gram": _I2, "vertices": _I2}, PreconditionUnmet,
     "give exactly one of gram and vertices"),
    (_I2, {}, PreconditionUnmet, "give exactly one of gram and vertices"),
    # a form's or a vertex list's entries, then its shape, then its norm
    (_I2, {"gram": [[1, "y"], [0]]}, ValueError,
     "Invalid literal for Fraction: 'y'"),
    (_I2, {"gram": [[1, 0], [0]]}, PreconditionUnmet,
     "the Gram matrix is 2x1/2 but the basis has rank 2"),
    (_I2, {"gram": [[1, 2], [2, 1]]}, PreconditionUnmet,
     "the Euclidean form must be symmetric positive-definite (leading "
     "principal minors positive)"),
    (_I2, {"vertices": [[1, "z"], [0]]}, ValueError,
     "Invalid literal for Fraction: 'z'"),
    (_I2, {"vertices": [[1, 0, 0], [-1, 0, 0]]}, PreconditionUnmet,
     "the vertices have 3 coordinates but the basis has rank 2"),
    (_I2, {"vertices": [[1, 0], [0, 1]]}, PreconditionUnmet,
     "polytope vertex list must be closed under negation"),
    (_I2, {"vertices": [[1, 0], [-1, 0]]}, PreconditionUnmet,
     "polytope is not full-dimensional"),
])
def test_the_constructor_refuses_in_its_order(basis, norm, error, message):
    with pytest.raises(error) as caught:
        NormedLattice(basis, **norm)
    assert type(caught.value) is error and str(caught.value) == message


def test_the_float_loop_sees_only_floats(monkeypatch):
    # the exact algebra runs on kernel's integer elimination; the float
    # Gauss-Jordan loop belongs to the ellipsoid fit alone.  Every module
    # binding it gets a checker, then the polytope pool lattices, from an
    # empty norm memo, and the cone engine over the batch pool run through
    # it.  The memo fits each distinct polytope once, the hexagon and the
    # cross-polytope, and the loop runs in each fit; the polars, whose
    # ellipsoids the reduced dual bases read, run no fit.
    import importlib
    import io
    import pkgutil
    import sysbound
    from batch_pool import BATCH_POOL, bench_child
    from sysbound.cli import run_command
    real = lattices._gauss_jordan
    calls = []

    def checked(rows, ncols):
        entries = [x for row in rows for x in row]
        assert all(type(x) is float for x in entries), entries
        # the fit this loop runs in, counted from 1
        calls.append(len(fits))
        return real(rows, ncols)

    binding = []
    for info in pkgutil.iter_modules(sysbound.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("sysbound." + info.name)
        if hasattr(module, "_gauss_jordan"):
            binding.append(info.name)
            monkeypatch.setattr(module, "_gauss_jordan", checked)
    assert binding == ["lattices"]
    real_fit, fits = lattices._fitted_forms, []

    def counted_fit(normals, r):
        fits.append(normals)
        return real_fit(normals, r)

    monkeypatch.setattr(lattices, "_fitted_forms", counted_fit)
    lattices._norm.cache_clear()
    child = bench_child()
    pool = child.bench_inputs.lattice_pool()
    for kind in ("hexagon", "cross"):
        for spec in pool[kind]:
            child.lattice_op(lattices, spec)
    assert len(fits) == 2 and set(calls) == {1, 2}, (len(fits), set(calls))
    fitted = len(calls)
    for descriptor in BATCH_POOL:
        for argv in (["phi-sup", "--space", descriptor],
                     ["contractions", "--space", descriptor],
                     ["bound", "--space", descriptor, "--theorem", "thm1.4"]):
            run_command(argv, out=io.StringIO(), err=io.StringIO())
    assert len(calls) == fitted


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


def _complete_box_minima(lat):
    """The box oracle's minima of a polytope lattice, on a box large enough
    to hold every vector up to the oracle's lambda_r."""
    r = lat.rank
    # a lattice vector v = c B has c_j = <v, column j of B^-1>, and v lies
    # in ||v|| times the unit ball, so |c_j| <= ||v|| max_u |<u, column
    # j>| over the vertices u: once the box holds every vector up to the
    # oracle's lambda_r, the scan is complete
    inv = _inverse(lat.basis)
    reach = max(abs(sum(u[i] * inv[i][j] for i in range(r)))
                for u in lat.vertices for j in range(r))
    box = 3
    oracle = _box_minima(lat, r, lat.norm, box)
    while oracle[-1] * reach > box:
        box = math.ceil(oracle[-1] * reach)
        oracle = _box_minima(lat, r, lat.norm, box)
    return oracle


def test_polytope_minima_match_box_oracle_on_random_bases():
    rng = random.Random(41)
    for trial in range(12):
        vertices, r = ((_HEX_VERTICES, 2) if trial % 2 == 0
                       else (_CROSS_3_VERTICES, 3))
        lat = NormedLattice(basis=random_basis(r, rng, -2, 2),
                            vertices=vertices)
        assert ([successive_minima(lat, j) for j in range(1, r + 1)]
                == _complete_box_minima(lat))


#: a polytope whose ellipsoid fit stops short of John's bound: the certified
#: constant c is about 1.0002 r, and a search budget of r ||v||^2 misses a
#: vector that the successive-minima certificate then asks for
_SLACK_VERTICES = [[s * x for x in v] for v in
                   ([-3, 0, -3], [-1, -3, -1], [-1, 2, -2], [-1, 3, -1],
                    [3, -2, 3])
                   for s in (1, -1)]


def test_slack_ellipsoid_fit_keeps_the_minima_exact():
    rng = random.Random(43)
    for basis in (_identity(3), random_basis(3, rng, -2, 2)):
        lat = NormedLattice(basis=basis, vertices=_SLACK_VERTICES)
        q, c = _over(lat._norm.ellipsoid[0]), lat._norm.ellipsoid[1]
        assert q == lat.euclidean_form()
        assert c > 3
        # the sandwich with the certified constant: E_Q inside K, K inside
        # sqrt(c) E_Q, with c attained at a vertex
        qinv = _inverse(q)
        assert all(_fraction_quad(qinv, a) <= 1 for a in _over(lat._norm.normals))
        assert max(_fraction_quad(q, v) for v in lat.vertices) == c
        for each in (lat, dual_lattice(lat)):
            assert ([successive_minima(each, j) for j in range(1, 4)]
                    == _complete_box_minima(each))


def test_vector_lengths_are_checked():
    hexagon = NormedLattice(basis=_identity(2), vertices=_HEX_VERTICES)
    form = NormedLattice(basis=_identity(2), gram=[[2, 1], [1, 2]])
    calls = [(hexagon.norm, [1]), (hexagon.norm, [1, 0, 5]),
             (form.norm_sq, [1]), (form.norm_sq, [1, 0, 1])]
    for fn, vec in calls:
        with pytest.raises(PreconditionUnmet) as err:
            fn(vec)
        assert str(err.value) == ("the vector has %d coordinates but the "
                                  "basis has rank 2" % len(vec))
    for lat in (hexagon, form):
        with pytest.raises(PreconditionUnmet) as err:
            lat.vector([1])
        assert str(err.value) == ("the coefficient vector has 1 coordinates "
                                  "but the basis has rank 2")


def _random_polytope(rng, r, pairs, low=-3, high=3):
    """A centrally symmetric vertex list of ``pairs`` random +-pairs, redrawn
    until it spans R^r."""
    from sysbound.lattices import _rank_of
    while True:
        half = [[rng.randint(low, high) for _ in range(r)]
                for _ in range(pairs)]
        if _rank_of(half) == r:
            return half + [[-x for x in v] for v in half]


def _scored_vectors(lattice):
    """Oracle: every nonzero lattice vector no larger than the longest
    LLL-reduced row, one per +-pair, as (coefficients, exact size) sorted by
    size.  Each enumerated vector is combined back to its coefficients and
    measured there as a Fraction, where the library measures it in LLL
    coordinates in ints."""
    gram, scale, (w, lam, d, _) = lattice._lll
    if lattice.gram is not None:
        radius = budget = Fraction(max(lattices._row_norms(w, gram)), scale)
    else:
        radius = max(lattice._coefficient_norm(row) for row in w)
        budget = lattice._norm.ellipsoid[1] * radius ** 2
    vectors, s = lattices.enumerate_short_vectors(lam, d, budget * scale)
    scored = []
    for vec, spent in vectors:
        coeffs = tuple(lattices._combine(vec, w))
        value = Fraction(spent, s * scale)
        if lattice.gram is None:
            value = lattice._coefficient_norm(coeffs)
            if value > radius:
                continue
        scored.append((coeffs, value))
    scored.sort(key=lambda item: item[1])
    return scored


def _oracle_minima(lattice):
    """Oracle: the minima by the independence scan over ``_scored_vectors``."""
    r = lattice.rank
    return lattices._independent_scan(_scored_vectors(lattice), r)


def _pool_lattices():
    """The benchmark's 288 pool lattices, built as its ``lattice_op`` builds
    them."""
    from batch_pool import bench_child
    out = []
    for specs in bench_child().bench_inputs.lattice_pool().values():
        for spec in specs:
            if spec["kind"] == "euclidean":
                out.append(NormedLattice(basis=spec["basis"],
                                         gram=_identity(spec["rank"])))
            else:
                out.append(NormedLattice(basis=spec["basis"],
                                         vertices=spec["vertices"]))
    return out


def test_minima_in_lll_coordinates_match_the_combine_then_scan_oracle():
    # the pool, then lattices whose minima tie: the identity at each rank,
    # the hexagon and the cross-polytopes, on unimodular bases too, and
    # their duals
    pool = _pool_lattices()
    assert len(pool) == 288
    rng = random.Random(89)
    tied = []
    for r in (1, 2, 3, 4, 5):
        tied.append(NormedLattice(basis=_identity(r), gram=_identity(r)))
    for vertices in (_HEX_VERTICES, _cross_vertices(2), _CROSS_3_VERTICES,
                     _cross_vertices(4)):
        r = len(vertices[0])
        tied.append(NormedLattice(basis=_identity(r), vertices=vertices))
    for r in (2, 3, 4):
        t = lattices._complete_unimodular([1] + [rng.randint(-3, 3)
                                                 for _ in range(r - 1)])
        tied.append(NormedLattice(basis=t, gram=_identity(r)))
        tied.append(NormedLattice(basis=t, vertices=_cross_vertices(r)))
    tied.append(NormedLattice(basis=[[1, 0], [0, 1]], gram=[[2, 1], [1, 2]]))
    tied += [dual_lattice(lat) for lat in tied if lat.rank < 4]
    for lat in pool + tied:
        minima = [successive_minima(lat, j) for j in range(1, lat.rank + 1)]
        assert minima == _oracle_minima(lat), lat
    assert any(len(set(lat._minima)) < lat.rank for lat in tied)


def test_the_direct_dual_matches_the_constructor():
    # the dual is built from the inverse's rows; the constructor, given the
    # dual's public basis and form or vertices, clears and checks them anew.
    # A KZ run on the dual reads none of those public values; read after it,
    # they are the constructor's on the inverse-transpose basis with the
    # inverse form or the primal's facet normals
    rng = random.Random(83)

    def rational_basis(r):
        return [[Fraction(x, k) for x in row]
                for row, k in zip(random_basis(r, rng, -3, 3),
                                  rng.choices(range(1, 5), k=r))]

    cases = []
    for r in (1, 2, 3, 4, 5):
        for _ in range(3):
            form = _gram_product(rational_basis(r), _identity(r))
            cases.append(NormedLattice(basis=rational_basis(r), gram=form))
    halved_hexagon = [[Fraction(x, 2) for x in v] for v in _HEX_VERTICES]
    for vertices in (_HEX_VERTICES, halved_hexagon, _cross_vertices(1),
                     _cross_vertices(2), _CROSS_3_VERTICES):
        for _ in range(3):
            cases.append(NormedLattice(basis=rational_basis(len(vertices[0])),
                                       vertices=vertices))
    for lat in cases:
        dual = dual_lattice(lat)
        reduced_dual_basis(lat)
        assert not {"basis", "gram", "vertices"} & dual.__dict__.keys()
        basis = [list(col) for col in zip(*_inverse(lat.basis))]
        if lat.kind == "euclidean":
            expected = NormedLattice(basis=basis, gram=_inverse(lat.gram))
            built = NormedLattice(basis=dual.basis, gram=dual.gram)
        else:
            expected = NormedLattice(basis=basis, vertices=[
                list(a) for a in _oracle_facet_normals(lat.vertices,
                                                       lat.rank)])
            built = NormedLattice(basis=dual.basis, vertices=dual.vertices)
        assert (dual.basis, dual.gram, dual.vertices) == (
            expected.basis, expected.gram, expected.vertices)
        assert dual == built == expected
        assert dual._basis == built._basis
        assert dual._norm.rows == built._norm.rows
        assert dual._norm.normals == built._norm.normals
        assert dual._coeff_normals == built._coeff_normals


def test_measured_sizes_match_the_ambient_norms():
    rng = random.Random(47)
    cases = []
    for r in (2, 3, 4, 5):
        basis = random_basis(r, rng, -4, 4)
        cases.append(NormedLattice(basis=basis, gram=_identity(r)))
        form = [[Fraction(x) for x in row] for row in random_basis(r, rng)]
        form = _gram_product(form, _identity(r))
        cases.append(NormedLattice(basis=[[Fraction(x, 3) for x in row]
                                          for row in basis], gram=form))
    for r in (2, 3):
        cases.append(NormedLattice(basis=random_basis(r, rng, -2, 2),
                                   vertices=_random_polytope(rng, r, r + 1)))
    cases.append(NormedLattice(basis=random_basis(3, rng, -2, 2),
                               vertices=_CROSS_3_VERTICES))
    for lat in cases:
        size = lat.norm_sq if lat.kind == "euclidean" else lat.norm
        scored = _scored_vectors(lat)
        assert len(scored) >= lat.rank
        for coeffs, value in scored:
            assert value == size(lat.vector(coeffs))


def test_coefficient_norm_matches_the_ambient_norm():
    rng = random.Random(53)
    cases = [(_HEX_VERTICES, 2), (_CROSS_3_VERTICES, 3),
             (_cross_vertices(4), 4)]
    cases += [(_random_polytope(rng, r, r + 1), r) for r in (2, 3, 4)]
    # rational vertices give rational normals
    cases.append(([[Fraction(x, 2) for x in v] for v in _HEX_VERTICES], 2))
    for vertices, r in cases:
        basis = [[Fraction(x, rng.randint(1, 3)) for x in row]
                 for row in random_basis(r, rng, -3, 3)]
        lat = NormedLattice(basis=basis, vertices=vertices)
        for _ in range(30):
            coeffs = [rng.randint(-5, 5) for _ in range(r)]
            assert lat._coefficient_norm(coeffs) == lat.norm(
                lat.vector(coeffs))


def _oracle_facet_normals(vertices, r):
    """Oracle: the supporting functionals with <a, v> <= 1 through r of the
    vertices, sorted; one Fraction solve per r-subset (the kernel's
    ``_solve_linear``), each candidate tested with Fraction dot products
    against every vertex, duplicates merged as Fraction tuples."""
    from sysbound.kernel import _solve_linear
    normals = set()
    for subset in itertools.combinations(vertices, r):
        a = _solve_linear([list(v) for v in subset], [1] * r)
        if a is None:
            continue
        if all(sum(ai * vi for ai, vi in zip(a, v)) <= 1 for v in vertices):
            normals.add(tuple(a))
    return sorted(normals)


def _rational_polytope(rng, r, pairs):
    """A centrally symmetric vertex list of random +-pairs whose entries
    have mixed denominators, redrawn until it spans R^r."""
    from sysbound.lattices import _rank_of
    while True:
        half = [[Fraction(rng.randint(-6, 6), rng.randint(1, 7))
                 for _ in range(r)] for _ in range(pairs)]
        if _rank_of(_cleared_ints(half)[0]) == r:
            return half + [[-x for x in v] for v in half]


def _padded(vertices, r):
    """The vertex list with a duplicated vertex, a boundary point (the mean
    of the vertices on one facet) and an interior point, each with its
    negative: the same polytope."""
    a = _oracle_facet_normals(vertices, r)[0]
    tight = [v for v in vertices if sum(x * y for x, y in zip(a, v)) == 1]
    boundary = [sum(col, Fraction(0)) / len(tight) for col in zip(*tight)]
    interior = [Fraction(x, 2) for x in vertices[0]]
    extra = [list(vertices[0]), boundary, interior]
    return list(vertices) + extra + [[-x for x in v] for v in extra]


def test_facet_normals_match_the_fraction_oracle(monkeypatch):
    from sysbound.lattices import _facet_normals
    rng = random.Random(67)
    # the hexagon and the cross listed in reversed order swap rows
    cases = [_HEX_VERTICES, _HEX_VERTICES[::-1], _CROSS_3_VERTICES,
             _CROSS_3_VERTICES[::-1], _cross_vertices(4)[::-1],
             [[Fraction(x, 2) for x in v] for v in _HEX_VERTICES]]
    for r, pairs in ((2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5)):
        cases.append(_random_polytope(rng, r, pairs))
        cases.append(_rational_polytope(rng, r, pairs))
    # record the elimination of every full-rank subset: its diagonal and
    # the determinant it returns, signed by the row swaps
    real = lattices._eliminate
    pivots = []

    def recorded(rows, ncols, jordan=True):
        m, rank, det = real(rows, ncols, jordan)
        if rank == ncols:
            pivots.append((m[0][0], det))
        return m, rank, det

    monkeypatch.setattr(lattices, "_eliminate", recorded)
    for vertices in cases:
        r = len(vertices[0])
        normals = _facet_normals(_cleared_ints(vertices), r)
        assert _tuples(normals) == _oracle_facet_normals(vertices, r), vertices
        # integer rows over their least common denominator, as cleared
        assert normals == _cleared_ints(_tuples(normals))
        if r < 5:
            # duplicated, boundary and interior points change nothing
            padded = _padded(vertices, r)
            assert _facet_normals(_cleared_ints(padded), r) == normals
            assert _oracle_facet_normals(padded, r) == _tuples(normals)
    assert any(p < 0 for p, _ in pivots)
    assert any((p < 0) != (det < 0) for p, det in pivots)


def test_pulled_back_normals_match_the_fraction_pull_back():
    rng = random.Random(71)
    cases = [_HEX_VERTICES, _CROSS_3_VERTICES]
    cases += [_rational_polytope(rng, r, r + 1) for r in (2, 3, 4)]
    for vertices in cases:
        r = len(vertices[0])
        basis = [[Fraction(x, rng.randint(1, 5)) for x in row]
                 for row in random_basis(r, rng, -3, 3)]
        lat = NormedLattice(basis=basis, vertices=vertices)
        assert _over(lat._coeff_normals) == [
            [sum(b * a for b, a in zip(row, normal)) for row in lat.basis]
            for normal in _over(lat._norm.normals)]


def test_polar_normals_are_the_primal_extreme_vertices():
    from sysbound.lattices import MAX_FACET_SUBSETS, _polar_normals
    rng = random.Random(59)
    # a boundary point and an interior point listed with the hexagon
    padded = _HEX_VERTICES + [[1, Fraction(1, 2)], [-1, Fraction(-1, 2)],
                              [Fraction(1, 2), 0], [Fraction(-1, 2), 0]]
    cases = [_HEX_VERTICES, padded, _CROSS_3_VERTICES, _cross_vertices(4)]
    # a polar at rank 4 often has C(16, 4) = 1820 subsets, about a second
    cases += [_random_polytope(rng, r, rng.randint(r, r + 2))
              for r, count in ((2, 6), (3, 6), (4, 2)) for _ in range(count)]
    checked = 0
    for vertices in cases:
        r = len(vertices[0])
        lat = NormedLattice(basis=_identity(r), vertices=vertices)
        polar = _over(lat._norm.normals)
        if math.comb(len(polar), r) > MAX_FACET_SUBSETS:
            continue
        expected = _oracle_facet_normals(polar, r)
        assert _tuples(_polar_normals(_cleared_ints(vertices), lat._norm.normals,
                                      r)) == expected
        assert _tuples(dual_lattice(lat)._norm.normals) == expected
        if vertices is padded:
            assert len(expected) == 6
        checked += 1
    assert checked >= 16


class _Opaque(Fraction):
    """A Fraction whose value can be read only through ``numerator`` and
    ``denominator``: its arithmetic, comparisons, conversions and hash
    raise."""


def _refuse(*args):
    raise AssertionError("Fraction arithmetic on an input entry")


for _name in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow",
              "divmod"):
    setattr(_Opaque, "__%s__" % _name, _refuse)
    setattr(_Opaque, "__r%s__" % _name, _refuse)
for _name in ("neg", "pos", "abs", "eq", "ne", "lt", "le", "gt", "ge", "bool",
              "float", "int", "hash", "round", "trunc", "floor", "ceil"):
    setattr(_Opaque, "__%s__" % _name, _refuse)


def _opaque(rows):
    """The rows with each entry an ``_Opaque`` of the same value."""
    return [[_Opaque(f.numerator, f.denominator)
             for f in map(Fraction, row)] for row in rows]


def _is_int_pair(pair):
    rows, den = pair
    return type(den) is int and all(type(x) is int for row in rows
                                    for x in row)


def test_polytope_entries_are_read_as_cleared_ints():
    # kernel._cleared reads each vertex entry only as numerator and
    # denominator; facet enumeration, the polar test and the ellipsoid
    # sandwich run on the integer rows it returns and return integer rows,
    # and a lattice keeps every matrix, its dual's too, as such rows
    from sysbound.kernel import _cleared
    from sysbound.lattices import (_certified_ellipsoid_form, _facet_normals,
                                   _fitted_forms, _polar_normals)
    probe = _Opaque(1, 2)
    for op in (lambda: probe + 1, lambda: 1 - probe, lambda: probe * probe,
               lambda: probe == probe, lambda: probe < 1, lambda: -probe,
               lambda: float(probe), lambda: hash(probe)):
        with pytest.raises(AssertionError):
            op()
    rng = random.Random(73)
    cases = [_HEX_VERTICES, _CROSS_3_VERTICES[::-1],
             _padded([[Fraction(x, 3) for x in v] for v in _HEX_VERTICES], 2),
             _rational_polytope(rng, 3, 4), _random_polytope(rng, 4, 5)]
    for vertices in cases:
        r = len(vertices[0])
        cleared = _cleared(_opaque(vertices))
        assert _is_int_pair(cleared)
        assert cleared == _cleared_ints(vertices)
        normals = _facet_normals(cleared, r)
        assert _is_int_pair(normals)
        assert _tuples(normals) == _oracle_facet_normals(vertices, r)
        polar = _polar_normals(cleared, normals, r)
        assert _is_int_pair(polar)
        assert polar == _polar_normals(
            _cleared_ints(vertices), _cleared_ints(_tuples(normals)), r)
        form = _certified_ellipsoid_form(cleared, normals, r,
                                         _fitted_forms(normals, r))
        assert _is_int_pair(form[0])
        normal_ints = _cleared_ints(_tuples(normals))
        assert form == _certified_ellipsoid_form(
            _cleared_ints(vertices), normal_ints, r,
            _fitted_forms(normal_ints, r))
        lat = NormedLattice(basis=_opaque(_identity(r)),
                            vertices=_opaque(vertices))
        assert lat._norm.ellipsoid == form
        dual = dual_lattice(lat)
        assert all(_is_int_pair(pair) for pair in (
            lat._basis, lat._norm.rows, lat._norm.normals, lat._coeff_normals,
            dual._basis, dual._norm.rows, dual._norm.normals,
            dual._coeff_normals, dual._norm.ellipsoid[0]))


def test_ellipsoid_sandwich_on_rational_polytopes():
    # the certified form is exactly inscribed (the largest a^T Q^-1 a over
    # the normals is 1) and c is the largest v^T Q v over the vertices,
    # both recomputed here in Fractions, on vertices with denominators
    from sysbound.lattices import _certified_ellipsoid_form, _fitted_forms
    rng = random.Random(79)
    cases = [[[Fraction(x, 2) for x in v] for v in _HEX_VERTICES],
             [[Fraction(x, 5) for x in v] for v in _SLACK_VERTICES]]
    cases += [_rational_polytope(rng, r, r + 1) for r in (2, 3, 4)]
    for vertices in cases:
        r = len(vertices[0])
        normals = _oracle_facet_normals(vertices, r)
        normal_ints = _cleared_ints(normals)
        form, c = _certified_ellipsoid_form(_cleared_ints(vertices),
                                            normal_ints, r,
                                            _fitted_forms(normal_ints, r))
        q = _over(form)
        qinv = _inverse(q)
        assert max(_fraction_quad(qinv, a) for a in normals) == 1
        assert max(_fraction_quad(q, v) for v in vertices) == c


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
    qinv = _inverse(q)
    for a in _over(lat._norm.normals):
        assert _fraction_quad(qinv, a) <= 1
    # K inside sqrt(r) E: vertices satisfy v^T Q v <= r
    for v in lat.vertices:
        assert _fraction_quad(q, v) <= r
    # the sandwich on the vertices: 1 <= |v|_Q <= sqrt(r) for norm-1 vertices
    for v in lat.vertices:
        val = _fraction_quad(q, v)
        assert 1 <= val <= r


def _cross_vertices(r):
    return [[s * int(i == j) for j in range(r)] for i in range(r) for s in (1, -1)]


@pytest.mark.parametrize("vertices, form, polar_form", [
    (_HEX_VERTICES, [["4/3", "-2/3"], ["-2/3", "4/3"]],
     [["4/3", "2/3"], ["2/3", "4/3"]]),
    (_cross_vertices(3), [["3", "0", "0"], ["0", "3", "0"], ["0", "0", "3"]],
     [[str(int(i == j)) for j in range(3)] for i in range(3)]),
    (_cross_vertices(4), [[str(4 * int(i == j)) for j in range(4)]
                          for i in range(4)],
     [[str(int(i == j)) for j in range(4)] for i in range(4)]),
])
def test_polytope_ellipsoid_forms_are_pinned(vertices, form, polar_form):
    # these symmetric polytopes stop the fit at its first check, so the
    # rationalized form is the exact John ellipsoid
    r = len(vertices[0])
    lat = NormedLattice(basis=_identity(r), vertices=vertices)
    as_fractions = lambda m: [[Fraction(x) for x in row] for row in m]
    assert lat.euclidean_form() == as_fractions(form)
    assert dual_lattice(lat).euclidean_form() == as_fractions(polar_form)


def test_polytope_reduced_dual_basis():
    lat = NormedLattice(basis=_identity(2), vertices=_HEX_VERTICES)
    result = reduced_dual_basis(lat)
    assert not result.squared
    for norm in result.dual_norms:
        assert norm * result.lambda1 <= 4


#: a thin rhombus, (+-1/1000, 0) and (0, +-1)
_RHOMBUS_VERTICES = [[Fraction(1, 1000), 0], [0, 1], [Fraction(-1, 1000), 0],
                     [0, -1]]


def test_the_polar_ellipsoid_is_certified_from_the_primal_form():
    # a polar norm's one candidate is its primal's certified form Q, and the
    # certificate gives c Q^-1 with the primal's c, exactly inscribed.  On
    # the pool's 96 polytope lattices, the hexagon, the cross-polytope and a
    # thin rhombus: the dual minima are those read with a polar ellipsoid
    # fitted by the float stage, run here as the oracle, and the reduced
    # dual basis is KZ's on the dual basis in the form Q^-1
    from sysbound.lattices import _certified_ellipsoid_form, _fitted_forms
    cases = [lat for lat in _pool_lattices() if lat.kind == "polytope"]
    assert len(cases) == 96
    for vertices in (_HEX_VERTICES, _CROSS_3_VERTICES, _RHOMBUS_VERTICES):
        cases.append(NormedLattice(basis=_identity(len(vertices[0])),
                                   vertices=vertices))
    fitted = {}
    for lat in cases:
        r = lat.rank
        dual = dual_lattice(lat)
        (q, c), polar = lat._norm.ellipsoid, dual._norm
        derived = _over(polar.ellipsoid[0])
        assert polar.ellipsoid[1] == c
        assert derived == [[c * x for x in row] for row in _inverse(_over(q))]
        assert max(_fraction_quad(_inverse(derived), a)
                   for a in _over(polar.normals)) == 1
        assert max(_fraction_quad(derived, v) for v in _over(polar.rows)) == c
        # the same polar built from its vertices is fitted, once per
        # distinct polar in the norm memo
        oracle = NormedLattice(basis=dual.basis, vertices=dual.vertices)
        norm = oracle._norm
        if norm not in fitted:
            fitted[norm] = _certified_ellipsoid_form(
                norm.rows, norm.normals, r, _fitted_forms(norm.normals, r))
        assert norm.ellipsoid == fitted[norm]
        assert [successive_minima(dual, j) for j in range(1, r + 1)] == [
            successive_minima(oracle, j) for j in range(1, r + 1)]
        gram = _int_gram(dual._basis[0], _mat_inv(*q)[0])
        w = kz_transform(gram, lll_transform(gram))
        reduced = reduced_dual_basis(lat)
        assert reduced.vectors == [tuple(dual.vector(row)) for row in w]
        assert reduced.dual_norms == tuple(dual._coefficient_norm(row)
                                           for row in w)
    # the pool's cross-polytope is this one
    assert len(fitted) == 4


# -- the norm memo ------------------------------------------------------------


def _answers(lat):
    """What the engine reports for a lattice and its duals: the minima of
    the lattice, its dual and its dual's dual, those duals themselves, the
    reduced dual basis and, for a polytope, both certified ellipsoids."""
    dual = dual_lattice(lat)
    twice = dual_lattice(dual)
    out = [dual, twice, reduced_dual_basis(lat)]
    out += [[successive_minima(each, j) for j in range(1, lat.rank + 1)]
            for each in (lat, dual, twice)]
    if lat.kind == "polytope":
        out += [lat._norm.ellipsoid, dual._norm.ellipsoid]
    return out


def test_a_warm_norm_memo_answers_as_a_cold_one():
    # each lattice is answered on a memo warmed by another lattice on the
    # same norm, then again after the memo is cleared
    from batch_pool import bench_child
    rng = random.Random(97)
    cases = [(spec["basis"], {"gram": _identity(spec["rank"])}
              if spec["kind"] == "euclidean" else
              {"vertices": spec["vertices"]})
             for specs in bench_child().bench_inputs.lattice_pool().values()
             for spec in specs]
    vertex_lists = [_HEX_VERTICES, _CROSS_3_VERTICES]
    vertex_lists += [_rational_polytope(rng, r, r + 1) for r in (2, 3)]
    vertex_lists += [_random_polytope(rng, r, r + 1) for r in (2, 3)]
    for vertices in vertex_lists:
        r = len(vertices[0])
        cases.append((random_basis(r, rng, -2, 2), {"vertices": vertices}))
    for gram in _seeded_grams(8, 97):
        cases.append((random_basis(len(gram), rng, -3, 3), {"gram": gram}))
    for basis, norm in cases:
        r = len(basis)
        warmer = NormedLattice(basis=_identity(r), **norm)
        _answers(warmer)
        lat = NormedLattice(basis=basis, **norm)
        assert lat._norm is warmer._norm
        warm = _answers(lat)
        lattices._norm.cache_clear()
        lat = NormedLattice(basis=basis, **norm)
        assert lat._norm is not warmer._norm
        assert _answers(lat) == warm, (basis, norm)


def test_a_cold_pool_pass_enumerates_and_fits_each_polytope_once(
        monkeypatch):
    # the pool's polytope lattices share two vertex lists, the hexagon and
    # the cross-polytope; a hexagon listed in another order is the same
    # norm.  The pass reads each polytope dual's minima too, whose polar
    # ellipsoid is certified from the primal's and not fitted.  The shared
    # rows are read, never written: after the pass they still equal what
    # the inputs clear to, and the kept facets and fits what a fresh
    # enumeration and fit return
    from batch_pool import bench_child, golden_lattices
    from sysbound.kernel import _cleared
    enumerated, fitted = [], []
    real_facets = lattices._facet_normals
    real_fit = lattices._fitted_forms

    def counted_facets(vertices, r):
        enumerated.append(frozenset(map(tuple, vertices[0])))
        return real_facets(vertices, r)

    def counted_fit(normals, r):
        fitted.append(tuple(map(tuple, normals[0])))
        return real_fit(normals, r)

    monkeypatch.setattr(lattices, "_facet_normals", counted_facets)
    monkeypatch.setattr(lattices, "_fitted_forms", counted_fit)
    lattices._norm.cache_clear()
    child = bench_child()
    pool = child.bench_inputs.lattice_pool()
    golden = golden_lattices()
    for kind, specs in pool.items():
        for spec, expected in zip(specs, golden[kind]):
            assert child.lattice_op(lattices, spec) == expected, kind
            if spec["kind"] != "euclidean":
                dual = dual_lattice(NormedLattice(basis=spec["basis"],
                                                  vertices=spec["vertices"]))
                for j in range(1, spec["rank"] + 1):
                    successive_minima(dual, j)
    reordered = NormedLattice(basis=_identity(2),
                              vertices=pool["hexagon"][0]["vertices"][::-1])
    successive_minima(reordered, 1)
    distinct = {frozenset(map(tuple, spec["vertices"]))
                for kind in ("hexagon", "cross") for spec in pool[kind]}
    assert len(enumerated) == len(set(enumerated)) == len(distinct) == 2
    assert set(enumerated) == distinct
    normals = []
    for kind in ("hexagon", "cross"):
        spec = pool[kind][0]
        norm = NormedLattice(basis=spec["basis"],
                             vertices=spec["vertices"])._norm
        rows, den = _cleared([[Fraction(x) for x in v]
                              for v in spec["vertices"]])
        assert norm.rows == (sorted(rows), den)
        assert norm.normals == real_facets(norm.rows, spec["rank"])
        assert norm.ellipsoid == lattices._certified_ellipsoid_form(
            norm.rows, norm.normals, spec["rank"],
            real_fit(norm.normals, spec["rank"]))
        normals.append(tuple(map(tuple, norm.normals[0])))
    # one fit per distinct primal norm, none for a polar
    assert fitted == normals


@pytest.mark.parametrize("norm, error, message", [
    ({"vertices": [[1, 0], [0, 1]]}, PreconditionUnmet,
     "polytope vertex list must be closed under negation"),
    ({"vertices": [[1, 0], [-1, 0]]}, PreconditionUnmet,
     "polytope is not full-dimensional"),
    ({"vertices": [[int(bit) * 2 - 1 for bit in format(n, "05b")]
                   for n in range(32)]}, TooManyVertices,
     "facet enumeration over 32 vertices at rank 5 needs C(32, 5) = 201376 "
     "linear solves, above the cap 10000"),
    ({"gram": [[1, 2], [2, 1]]}, PreconditionUnmet,
     "the Euclidean form must be symmetric positive-definite (leading "
     "principal minors positive)"),
])
def test_a_failed_norm_is_not_memoized(norm, error, message):
    r = len(next(iter(norm.values()))[0])
    misses = lattices._norm.cache_info().misses
    for _ in range(2):
        with pytest.raises(error) as err:
            NormedLattice(basis=_identity(r), **norm)
        assert str(err.value) == message
    # each call computed the norm again: nothing was kept
    assert lattices._norm.cache_info().misses == misses + 2


def test_the_norm_memo_is_bounded():
    from sysbound.lattices import MAX_NORMS
    assert lattices._norm.cache_info().maxsize == MAX_NORMS
    lattices._norm.cache_clear()
    built = [NormedLattice(basis=[[1]], gram=[[n]])
             for n in range(1, MAX_NORMS + 9)]
    assert lattices._norm.cache_info().currsize == MAX_NORMS
    # a lattice keeps its norm after the memo drops it
    assert [successive_minima(lat, 1) for lat in built] == list(
        range(1, MAX_NORMS + 9))
