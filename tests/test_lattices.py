"""Lattice minima, duals, transference, and the reduced dual basis.

The independent oracle for minima is a naive box enumeration, deliberately
different from the Fincke-Pohst search used by the library.  The oracle for
LLL and KZ reduction recomputes the Gram matrix of the rows and its
Gram-Schmidt data after every row operation, where the library updates the
Gram-Schmidt data in place; the integer Gram product is checked against
plain Fraction products.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from sympy_oracle import as_matrix
from sysbound import lattices
from sysbound.errors import BoundViolated, PreconditionUnmet, RankTooLarge
from sysbound.lattices import (NormedLattice, dual_lattice, kz_transform,
                               lll_transform, random_basis, reduced_dual_basis,
                               successive_minima, transference_check,
                               _gram_of_basis, _quad)


def _identity(r):
    return [[1 if i == j else 0 for j in range(r)] for i in range(r)]


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
        lll = lll_transform(gram)
        for transform in (lll[0], kz_transform(gram, lll)):
            assert abs(_det(_mat(transform))) == 1


def test_kz_first_vector_is_shortest():
    rng = random.Random(37)
    for _ in range(8):
        r = rng.randint(2, 4)
        basis = random_basis(r, rng, -4, 4)
        lat = NormedLattice(basis=basis, gram=_identity(r))
        gram = lat.lattice_gram()
        w = kz_transform(gram, lll_transform(gram))
        first = _quad(gram, [Fraction(c) for c in w[0]])
        assert first == successive_minima(lat, 1)


# -- the rebuild-from-scratch reduction route, as an oracle --------------------


def _fraction_gram(basis, form):
    """Oracle: basis * form * basis^T by Fraction products, entry by entry."""
    basis = [[Fraction(x) for x in row] for row in basis]
    bf = [[sum((row[k] * form[k][l] for k in range(len(form))), Fraction(0))
           for l in range(len(form))] for row in basis]
    return [[sum((x * y for x, y in zip(row, other)), Fraction(0))
             for other in basis] for row in bf]


def _oracle_size_reduce(w, gram, k):
    """Size-reduce row k against rows k-1, ..., 0, recomputing the
    Gram-Schmidt data of all rows after every step."""
    from sysbound.lattices import _gs_data, _round_half
    mu, bstar = _gs_data(_gram_of_basis(w, gram))
    for j in range(k - 1, -1, -1):
        q = _round_half(mu[k][j])
        if q:
            w[k] = [a - q * b for a, b in zip(w[k], w[j])]
            mu, bstar = _gs_data(_gram_of_basis(w, gram))
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


def _oracle_kz(gram):
    from sysbound.lattices import (_complete_unimodular, _gs_data,
                                   enumerate_short_vectors)
    r = len(gram)
    if r == 1:
        return [[1]]
    w = _oracle_lll(gram)
    reduced = _gram_of_basis(w, gram)
    best, _ = enumerate_short_vectors(
        *_gs_data(reduced), min(reduced[i][i] for i in range(r)))[0]
    t1 = _complete_unimodular([sum(best[i] * w[i][j] for i in range(r))
                               for j in range(r)])
    g1 = _gram_of_basis(t1, gram)
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
    from sysbound.lattices import _mat_inv
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
            gram = _mat_inv(gram)
        yield gram


def test_enumeration_matches_a_box_scan():
    from sysbound.lattices import _gs_data, _mat_inv, enumerate_short_vectors
    rng = random.Random(67)
    scanned = 0
    for gram in _seeded_grams(40, 71):
        r = len(gram)
        bound = min(gram[i][i] for i in range(r)) * Fraction(
            rng.randint(2, 6), 3)
        # |x_i| <= sqrt(bound (G^-1)_ii) on the ellipsoid x^T G x <= bound
        inv = _mat_inv(gram)
        box = max(math.isqrt(math.floor(bound * inv[i][i]))
                  for i in range(r))
        if (2 * box + 1) ** r > 4_000:
            continue
        expected = []
        for x in itertools.product(range(-box, box + 1), repeat=r):
            value = _quad(gram, list(x))
            first = next((c for c in x if c), 0)
            if first > 0 and value <= bound:
                expected.append((x, value))
        found = enumerate_short_vectors(*_gs_data(gram), bound)
        assert sorted(found) == sorted(expected)
        assert [v for _, v in found] == sorted(v for _, v in found)
        scanned += 1
    assert scanned >= 20


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
        assert _gram_of_basis(basis, form) == _fraction_gram(basis, form)


def test_lll_and_kz_match_the_rebuild_oracle():
    grams = list(_seeded_grams(200, 59))
    assert {len(g) for g in grams} == {2, 3, 4, 5}
    assert any(x.denominator > 1 for g in grams for row in g for x in row)
    from sysbound.lattices import _gs_data
    for gram in grams:
        expected = _oracle_lll(gram)
        lll = lll_transform(gram)
        w, mu, bstar = lll
        assert w == expected, gram
        # the Gram-Schmidt data kept through the run is that of the rows
        assert (mu, bstar) == _gs_data(_gram_of_basis(w, gram)), gram
        assert kz_transform(gram, lll) == _oracle_kz(gram), gram
        if all(x.denominator == 1 for row in gram for x in row):
            # plain int entries reduce exactly as their Fractions do
            ints = [[int(x) for x in row] for row in gram]
            assert lll_transform(ints) == lll, gram


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

    for name in ("_gs_data", "_gram_of_basis"):
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
        assert _independent_scan(vectors, r, upto) == expected


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
        from sysbound.lattices import _det, _mat_inv, _transpose
        stacked = [list(v) for v in result.vectors] + _transpose(
            _mat_inv(dual.basis))
        change = [row[r:] for row in _gram_of_basis(stacked, _identity(r))[:r]]
        det = _det(change)
        assert abs(det) == 1
        for row in change:
            for x in row:
                assert x.denominator == 1


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


def test_the_float_loop_sees_only_floats(monkeypatch):
    # the exact algebra runs on kernel's integer elimination; the float
    # Gauss-Jordan loop belongs to the ellipsoid fit alone.  Every module
    # binding it gets a checker, then the polytope pool lattices and the
    # cone engine over the batch pool run through it.
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
        calls.append(ncols)
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
    child = bench_child()
    pool = child.bench_inputs.lattice_pool()
    for kind in ("hexagon", "cross"):
        for spec in pool[kind]:
            child.lattice_op(lattices, spec)
    assert len(calls) > len(pool["hexagon"]) + len(pool["cross"])
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
    from sysbound.lattices import _mat_inv
    r = lat.rank
    # a lattice vector v = c B has c_j = <v, column j of B^-1>, and v lies
    # in ||v|| times the unit ball, so |c_j| <= ||v|| max_u |<u, column
    # j>| over the vertices u: once the box holds every vector up to the
    # oracle's lambda_r, the scan is complete
    inv = _mat_inv(lat.basis)
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
    from sysbound.lattices import _mat_inv
    rng = random.Random(43)
    for basis in (_identity(3), random_basis(3, rng, -2, 2)):
        lat = NormedLattice(basis=basis, vertices=_SLACK_VERTICES)
        q, c = lat._ellipsoid
        assert c > 3
        # the sandwich with the certified constant: E_Q inside K, K inside
        # sqrt(c) E_Q, with c attained at a vertex
        qinv = _mat_inv(q)
        assert all(_quad(qinv, list(a)) <= 1 for a in lat._normals)
        assert max(_quad(q, v) for v in lat.vertices) == c
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


def test_measured_sizes_match_the_ambient_norms():
    from sysbound.lattices import _scored_vectors
    rng = random.Random(47)
    cases = []
    for r in (2, 3, 4, 5):
        basis = random_basis(r, rng, -4, 4)
        cases.append(NormedLattice(basis=basis, gram=_identity(r)))
        form = [[Fraction(x) for x in row] for row in random_basis(r, rng)]
        form = _gram_of_basis(form, _identity(r))
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


def test_polar_normals_are_the_primal_extreme_vertices():
    from sysbound.lattices import (MAX_FACET_SUBSETS, _facet_normals,
                                   _polar_normals)
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
        polar = [list(a) for a in lat._normals]
        if math.comb(len(polar), r) > MAX_FACET_SUBSETS:
            continue
        expected = _facet_normals(polar, r)
        assert _polar_normals(lat.vertices, lat._normals, r) == expected
        assert dual_lattice(lat)._normals == expected
        if vertices is padded:
            assert len(expected) == 6
        checked += 1
    assert checked >= 16


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
