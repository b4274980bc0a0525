"""Rank <= 5 normed lattices: minima, duals, reduction, transference.

Basis vectors are rows of a nonsingular rational matrix.  Norms are either
Euclidean (an ambient positive-definite rational Gram form) or polytope
(Minkowski functional of a centrally symmetric vertex list).  All reported
quantities are exact: Euclidean minima as squared rationals, polytope minima
as rationals.

Gram matrices B F B^T are formed in Python ints, with the denominators of B
and F cleared once; lattice vectors and quadratic forms x^T F x are
evaluated the same way, and inverses, determinants, solves and ranks run on
the integer elimination of ``kernel``.

The reduction engine runs on integers from the Gram matrix through the
enumeration, on Cohen's integral Gram-Schmidt data (GTM 138, Algorithm
2.6.7): the leading principal minors d_i of the integer Gram matrix and
lam_ij = d_(j+1) mu_ij, mu the Gram-Schmidt coefficients.  One pass computes
them and is also the positive-definiteness test (every d_i > 0, Sylvester's
criterion).  LLL's size reduction, Lovasz test and swaps, and the size
reduction that ends a KZ reduction, update them in place with exact integer
divisions; LLL hands the data of its reduced rows to the enumeration, the
shortest vector and KZ, so no Gram matrix is rebuilt or factored twice.
Enumeration is exact Fincke-Pohst on the same data, each range from an
integer square root.  A value becomes a Fraction only where it leaves the
engine: a minimum, a norm.  Each lattice keeps its minima, its LLL run and
its dual.

Each enumerated vector is measured once, and the minima are read off by an
independence scan that keeps integer echelon rows.  A Euclidean size is the
enumeration's own exact value x^T (W G W^T) x, which equals coeffs^T G
coeffs.  A polytope norm is read on coefficient vectors: the facet normals
are pulled back to lattice coordinates once per lattice, as integer rows
over one denominator, and a norm is a max of integer dot products.

The polytope half runs on cleared rows too: a polytope's vertices, and then
its facet normals, are cleared once to integer rows over one denominator.
Facet enumeration solves each r-subset by one integer elimination and tests
support in ints; the polar test, the pull-back and the ellipsoid sandwich
read the same rows.  For polytope norms the search region comes from an
inscribed ellipsoid E whose sandwich (E inside the ball, ball inside
sqrt(c) E) is verified exactly, with c the largest vertex value v^T Q v;
the search budget uses that c.  The ellipsoid itself is fitted in plain
Python floats, with a float Gauss-Jordan loop of its own, since only the
certificate matters.  The dual's unit ball is the polar polytope, whose
facet normals are the primal's extreme vertices (polar duality; Ziegler,
Lectures on Polytopes, section 2.3), so only input polytopes enumerate facets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul

from .errors import (BoundViolated, CertificateFailed, EuclideanizationFailed,
                     PreconditionUnmet, RankTooLarge, TooManyVertices)
from .kernel import (_cleared, _cleared_row, _det, _eliminate, _mat, _mat_inv,
                     _rank_of)
from .values import Record

MAX_RANK = 5
#: the most r-subsets of an input vertex list ``_facet_normals`` will solve,
#: one exact r x r linear system each; a dual lattice's polar polytope takes
#: its facet normals from the primal's vertices and solves none
MAX_FACET_SUBSETS = 10_000
#: the Lovasz constant of the LLL exchange condition
LLL_DELTA = Fraction(3, 4)


# ---------------------------------------------------------------------------
# Gram forms
# ---------------------------------------------------------------------------


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _integral_gs(gram):
    """Cohen's integral Gram-Schmidt data ``(lam, d)`` of a symmetric
    integer matrix (GTM 138, Algorithm 2.6.7, step 2).

    d_0 = 1 and d_i is the leading i x i minor; row i of lam holds
    lam_ij = d_(j+1) mu_ij for j < i, where gram = mu diag(bstar) mu^T with
    mu unit lower triangular and bstar_i = d_(i+1) / d_i.  Every division is
    exact.  Raises on the first d_i that is not positive, so none is ever
    divided by unless positive: the form is positive definite iff no d_i
    raises (Sylvester's criterion).
    """
    d = [1]
    lam = []
    for k, g_k in enumerate(gram):
        row = []
        for j in range(k + 1):
            other = lam[j] if j < k else row
            u = g_k[j]
            for i in range(j):
                u = (d[i + 1] * u - row[i] * other[i]) // d[i]
            if j < k:
                row.append(u)
        if u <= 0:
            raise PreconditionUnmet("form is not positive definite")
        d.append(u)
        lam.append(row)
    return lam, d


def _is_positive_definite(g):
    """Symmetric with every leading principal minor positive (Sylvester's
    criterion), read off the integral Gram-Schmidt pass."""
    n = len(g)
    if any(len(row) != n for row in g):
        return False
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
        return False
    try:
        _integral_gs(_cleared(g)[0])
    except PreconditionUnmet:
        return False
    return True


def _int_quad(rows, xs):
    """x^T G x for integer rows G and an integer vector x, in ints."""
    return sum(xi * sum(map(mul, row, xs)) for xi, row in zip(xs, rows) if xi)


def _quad(g, x):
    """The exact value x^T g x: with g = G / e and x = X / d cleared,
    X^T G X / (d^2 e), one Fraction."""
    xs, d = _cleared_row(x)
    rows, e = _cleared(g)
    return Fraction(_int_quad(rows, xs), d * d * e)


def _int_gram(b, f):
    """B F B^T for integer rows B and F, in ints."""
    f_cols = list(zip(*f))
    bf = [[sum(map(mul, row, col)) for col in f_cols] for row in b]
    return [[sum(map(mul, row, other)) for other in b] for row in bf]


def _integral_gram(basis, form):
    """``(gram, scale)``: basis * form * basis^T = gram / scale, gram in
    integer rows.  Denominators are cleared once per matrix (basis = B / d,
    form = F / e), so gram = B F B^T and scale = d^2 e."""
    b, d = _cleared(basis)
    f, e = _cleared(form)
    return _int_gram(b, f), d * d * e


def _gram_of_basis(basis, form):
    """The exact product basis * form * basis^T, one Fraction per entry."""
    gram, scale = _integral_gram(basis, form)
    return [[Fraction(x, scale) for x in row] for row in gram]


# ---------------------------------------------------------------------------
# the lattice type
# ---------------------------------------------------------------------------


def _lengths(rows):
    """The distinct row lengths, as '2' or '1/2'."""
    return "/".join(str(n) for n in sorted({len(row) for row in rows}))


class NormedLattice(Record, frozen=False):
    """A rank-r lattice with a Euclidean or polytope norm.

    ``basis`` rows generate the lattice in ambient coordinates.  Exactly one
    of ``gram`` (ambient Euclidean form) and ``vertices`` (unit-ball vertex
    list, closed under negation) must be given.
    """

    # ``_normals``, which ``==`` and the repr leave out, are the facet
    # normals of the unit ball, when already known: only ``dual_lattice``
    # passes them, for the polar of a primal's ball
    def __init__(self, basis: list, gram: list | None = None,
                 vertices: list | None = None, _normals: list | None = None):
        self.basis = _mat(basis)
        self.gram, self.vertices, self._normals = gram, vertices, _normals
        r = len(self.basis)
        if r == 0:
            raise PreconditionUnmet("the lattice basis is empty; rank must be "
                                    "at least 1")
        if r > MAX_RANK:
            raise RankTooLarge("rank %d exceeds the desk-scale cap %d"
                               % (r, MAX_RANK))
        if any(len(row) != r for row in self.basis):
            raise PreconditionUnmet("basis must be a square matrix")
        if _det(self.basis) == 0:
            raise PreconditionUnmet("basis must be nonsingular")
        if (self.gram is None) == (self.vertices is None):
            raise PreconditionUnmet("give exactly one of gram and vertices")
        if self.gram is not None:
            self.gram = _mat(self.gram)
            if len(self.gram) != r or any(len(row) != r for row in self.gram):
                raise PreconditionUnmet(
                    "the Gram matrix is %dx%s but the basis has rank %d"
                    % (len(self.gram), _lengths(self.gram), r))
            if not _is_positive_definite(self.gram):
                raise PreconditionUnmet(
                    "the Euclidean form must be symmetric positive-definite "
                    "(leading principal minors positive)")
            self._normals = self._coeff_normals = None
        else:
            self.vertices = [[Fraction(x) for x in v] for v in self.vertices]
            if any(len(v) != r for v in self.vertices):
                raise PreconditionUnmet(
                    "the vertices have %s coordinates but the basis has rank %d"
                    % (_lengths(self.vertices), r))
            rows, _ = _cleared(self.vertices)
            vset = {tuple(v) for v in rows}
            if {tuple(-x for x in v) for v in rows} != vset:
                raise PreconditionUnmet(
                    "polytope vertex list must be closed under negation")
            if self._normals is None:
                self._normals = _facet_normals(self.vertices, r)
            # <a, c B> = <B a, c>: with basis = B / d and normals = A / e
            # cleared once, each normal pulled back to lattice coordinates
            # is the integer row B a over d e
            b, d = self._cleared_basis
            normals, e = _cleared(self._normals)
            self._coeff_normals = (
                [[sum(map(mul, row, a)) for row in b] for a in normals], d * e)

    # -- norms ------------------------------------------------------------

    @property
    def rank(self):
        return len(self.basis)

    @property
    def kind(self):
        return "euclidean" if self.gram is not None else "polytope"

    def lattice_gram(self):
        """Gram matrix of the basis vectors (Euclidean norm only)."""
        if self.gram is None:
            raise PreconditionUnmet("polytope lattices have no Gram matrix")
        return _gram_of_basis(self.basis, self.gram)

    def _check_length(self, vec, what):
        if len(vec) != self.rank:
            raise PreconditionUnmet(
                "the %s has %d coordinates but the basis has rank %d"
                % (what, len(vec), self.rank))

    def vector(self, coeffs):
        """Ambient coordinates of an integer coefficient vector."""
        self._check_length(coeffs, "coefficient vector")
        rows, d = self._cleared_basis
        return [Fraction(sum(map(mul, coeffs, col)), d) for col in zip(*rows)]

    def norm_sq(self, ambient_vec):
        if self.gram is None:
            raise PreconditionUnmet("polytope norms are not squared-rational")
        self._check_length(ambient_vec, "vector")
        return _quad(self.gram, [Fraction(x) for x in ambient_vec])

    def norm(self, ambient_vec):
        """Exact polytope norm (Minkowski functional)."""
        if self._normals is None:
            raise PreconditionUnmet("Euclidean norms are reported squared")
        self._check_length(ambient_vec, "vector")
        v = [Fraction(x) for x in ambient_vec]
        return max(sum(a * x for a, x in zip(normal, v))
                   for normal in self._normals)

    def _coefficient_norm(self, coeffs):
        """The polytope norm of the lattice vector with these integer
        coefficients, from the pulled-back facet normals."""
        rows, d = self._coeff_normals
        return Fraction(max(sum(map(mul, row, coeffs)) for row in rows), d)

    @cached_property
    def _cleared_basis(self):
        """The basis as integer rows over one denominator."""
        return _cleared(self.basis)

    def euclidean_form(self):
        """An ambient quadratic form comparable to the norm.

        Euclidean lattices return their own form.  Polytope lattices return a
        certified inscribed-ellipsoid form Q with
        (1/sqrt(c)) |v|_Q <= ||v|| <= |v|_Q, c the exact largest v^T Q v
        over the vertices.
        """
        if self.gram is not None:
            return self.gram
        return self._ellipsoid[0]

    def _form_budget(self, size):
        """A bound on v^T Q v, Q = euclidean_form(), for every v of at most
        this size; for polytopes by the sandwich |v|_Q^2 <= c ||v||^2."""
        if self.gram is not None:
            return size
        return self._ellipsoid[1] * size ** 2

    # -- computed once per lattice ------------------------------------------

    @cached_property
    def _ellipsoid(self):
        """(Q, c) of the certified inscribed ellipsoid."""
        return _certified_ellipsoid_form(self.vertices, self._normals,
                                         self.rank)

    @cached_property
    def _lll(self):
        """``(gram, scale, run)``: the Gram matrix of the basis in the
        Euclidean form as integer rows over ``scale`` (see
        :func:`_integral_gram`), and the LLL run of those rows (see
        :func:`lll_transform`)."""
        gram, scale = _integral_gram(self.basis, self.euclidean_form())
        return gram, scale, lll_transform(gram)

    @cached_property
    def _minima(self):
        """All r minima: scan the vectors up to the longest LLL-reduced row
        in order of size."""
        r = self.rank
        minima = _independent_scan(_scored_vectors(self), r, r)
        if len(minima) != r:
            raise CertificateFailed(
                "successive-minima certificate: vectors up to the longest "
                "reduced basis norm span rank %d < %d" % (len(minima), r))
        return minima

    @cached_property
    def _dual(self):
        """The dual lattice with the dual norm; see :func:`dual_lattice`."""
        dual_basis = _transpose(_mat_inv(self.basis))
        if self.kind == "euclidean":
            form = {"gram": _mat_inv(self.gram)}
        else:
            form = {"vertices": [list(a) for a in self._normals],
                    "_normals": _polar_normals(self.vertices, self._normals,
                                               self.rank)}
        return NormedLattice(basis=dual_basis, **form)


# ---------------------------------------------------------------------------
# polytopes: facets and inscribed ellipsoid
# ---------------------------------------------------------------------------


def _facet_normals(vertices, r):
    """Supporting functionals a with <a, v> <= 1, exhaustively at rank <= 5,
    sorted.

    The vertices are cleared once to integer rows V over one denominator D.
    For each r-subset S one fraction-free elimination of [V_S | D] solves
    V_S a = D 1: when V_S has rank r, Gauss-Jordan leaves p [I | n], p the
    common diagonal (the determinant up to the sign of the row swaps), so
    a = n / p.  With p made positive, a supports the polytope iff
    n . V_i <= p D for every vertex, in ints.  Normals are deduplicated on
    (n, p) over their gcd and become Fractions only at the end.
    """
    subsets = math.comb(len(vertices), r)
    if subsets > MAX_FACET_SUBSETS:
        raise TooManyVertices(
            "facet enumeration over %d vertices at rank %d needs C(%d, %d) = "
            "%d linear solves, above the cap %d"
            % (len(vertices), r, len(vertices), r, subsets, MAX_FACET_SUBSETS))
    rows, den = _cleared(vertices)
    normals = set()
    for subset in combinations(rows, r):
        m, rank, _ = _eliminate([v + [den] for v in subset], r)
        if rank < r:
            continue
        p = m[0][0]
        n = [row[r] for row in m]
        if p < 0:
            p, n = -p, [-x for x in n]
        bound = p * den
        if all(sum(map(mul, n, v)) <= bound for v in rows):
            g = math.gcd(p, *n)
            normals.add((p // g, *(x // g for x in n)))
    if not normals:
        raise PreconditionUnmet("polytope is not full-dimensional")
    span = [key[1:] for key in normals]
    if len(span) < r or _rank_of(span) < r:
        raise PreconditionUnmet("polytope is not full-dimensional")
    return sorted(tuple(Fraction(x, p) for x in n) for p, *n in normals)


def _polar_normals(vertices, normals, r):
    """The facet normals of the polar polytope, in ``_facet_normals`` order:
    the listed vertices that are extreme, v being extreme iff the normals a
    with <a, v> = 1 have rank r.

    Vertices and normals are cleared once, vertices = V / D and
    normals = A / E, so a normal is tight at a vertex iff A_j . V_i = E D,
    in ints, and the rank test runs on the integer tight rows.  Sorting the
    distinct rows V_i sorts the vertices, D being positive.
    """
    rows, den = _cleared(vertices)
    normal_rows, e = _cleared(normals)
    one = e * den
    extreme = []
    for v in sorted({tuple(v) for v in rows}):
        tight = [a for a in normal_rows if sum(map(mul, a, v)) == one]
        if len(tight) >= r and _rank_of(tight) == r:
            extreme.append(tuple(Fraction(x, den) for x in v))
    return extreme


def _gauss_jordan(rows, ncols):
    """Gauss-Jordan elimination of float rows on their first ``ncols``
    columns, for the ellipsoid fit; the pivot is the first nonzero entry of
    its column.  Returns ``(m, rank)``: the reduced rows and the number of
    pivots.
    """
    m = list(rows)
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return m, rank


def _certified_ellipsoid_form(vertices, normals, r):
    """Rational PD form Q and the exact c = max v^T Q v over the vertices,
    with E_Q inside K inside sqrt(c) E_Q.

    Khachiyan's iteration (Math. Oper. Res. 21, 1996) fits, in floats, the
    minimal enclosing ellipsoid of the polar vertex set (the facet normals):
    weights u on the points, moment matrix M = sum u_i p_i p_i^T, and a step
    toward the first point of largest p^T M^-1 p until that is at most r.
    The polar set's enclosing form M^-1 / r is rationalized, rescaled so E_Q
    is exactly inscribed, and c is then computed exactly on the vertices.
    The first round with c <= r (John's bound) is returned; failing that,
    the round with the smallest c.
    """
    points, e = _cleared(normals)
    rows, den = _cleared(vertices)
    # p p^T of each point, flattened row by row, and each entry over the
    # points; int / int true division is correctly rounded, as float() of
    # the exact Fraction is
    e2 = e * e
    outer = [[x * y / e2 for x in a for y in a] for a in points]
    entries = list(zip(*outer))
    u = [1.0 / len(outer)] * len(outer)

    def moment_inverse():
        """M^-1, flattened, by the float Gauss-Jordan loop."""
        flat = [sum(map(mul, u, entry)) for entry in entries]
        aug = [flat[i * r:(i + 1) * r] + [float(i == k) for k in range(r)]
               for i in range(r)]
        reduced, rank = _gauss_jordan(aug, r)
        if rank < r:
            raise EuclideanizationFailed("polar vertex set is degenerate")
        return [x for row in reduced for x in row[r:]]

    best = None
    for rounds in range(6):
        for _ in range(400 * (rounds + 1)):
            minv = moment_inverse()
            kappa = [sum(map(mul, minv, o)) for o in outer]
            kmax = max(kappa)
            j = kappa.index(kmax)
            if kmax <= r * (1.0 + 1e-12):
                break
            step = (kmax - r) / (r * (kmax - 1.0))
            u = [x * (1.0 - step) for x in u]
            u[j] += step
        limit = 10 ** (6 + 2 * rounds)
        minv = moment_inverse()
        w = [[Fraction(minv[i * r + j] / r).limit_denominator(limit)
              for j in range(r)] for i in range(r)]
        w = [[(w[i][j] + w[j][i]) / 2 for j in range(r)] for i in range(r)]
        # w = W / f: the largest a^T w a over the normals A / e is one
        # Fraction, and so is c over the vertices V / D
        wrows, f = _cleared(w)
        scale = Fraction(max(_int_quad(wrows, a) for a in points), e2 * f)
        if scale <= 0:
            continue
        w = [[x / scale for x in row] for row in w]
        if not _is_positive_definite(w):
            continue
        q = _mat_inv(w)
        qrows, f = _cleared(q)
        c = Fraction(max(_int_quad(qrows, v) for v in rows), den * den * f)
        if c <= r:
            return q, c
        if best is None or c < best[1]:
            best = q, c
    if best is None:
        raise EuclideanizationFailed(
            "no positive-definite inscribed ellipsoid form found")
    return best


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def enumerate_short_vectors(lam, d, bound, scale=1):
    """All nonzero x in Z^r with x^T G x <= bound, one per +-pair, with
    their exact values, sorted by value; G = gram / scale, and ``(lam, d)``
    is the integral Gram-Schmidt data of the integer rows ``gram``.

    Fincke-Pohst in integers.  With mu_jl = lam_jl / e_l, e_l = d_(l+1),
    and bstar_l = d_(l+1) / d_l, level l adds to x^T gram x the term
    bstar_l (x_l + n_l / e_l)^2 = (e_l x_l + n_l)^2 / (d_l d_(l+1)), n_l the
    integer sum of lam_jl x_j over the deeper coordinates.  Over the common
    denominator s = lcm(d_l d_(l+1)) it is m_l (e_l x_l + n_l)^2 / s with
    m_l an integer, so the budget is kept as floor(s scale bound) minus
    integer terms and each level's range comes from one integer square root.
    """
    r = len(lam)
    e = d[1:]
    s = math.lcm(*(a * b for a, b in zip(d, e)))
    m = [s // (a * b) for a, b in zip(d, e)]
    s *= scale
    budget = bound.numerator * s // bound.denominator
    out = []
    coords = [0] * r

    def descend(level, remaining):
        if level < 0:
            for x in coords:
                if x > 0:
                    out.append((tuple(coords), budget - remaining))
                    break
                if x < 0:
                    break
            return
        n = 0
        for j in range(level + 1, r):
            n += lam[j][level] * coords[j]
        e_l, m_l = e[level], m[level]
        w = math.isqrt(remaining // m_l)
        # the x with |e_l x + n| <= w
        for x in range(-((w + n) // e_l), (w - n) // e_l + 1):
            coords[level] = x
            t = e_l * x + n
            descend(level - 1, remaining - m_l * t * t)
        coords[level] = 0

    if budget >= 0:
        descend(r - 1, budget)
    out.sort(key=lambda item: item[1])
    return [(vec, Fraction(spent, s)) for vec, spent in out]


# ---------------------------------------------------------------------------
# exact LLL and KZ reduction (on Gram matrices, tracking the transform)
# ---------------------------------------------------------------------------


def _reduce_row(w, lam, d, k):
    """Size-reduce row k of w in place against rows k-1, ..., 0.

    Each step is row k <- row k - q row j with q = mu_kj rounded half up,
    mu_kj = lam_kj / d_(j+1), that is q = (2 lam_kj + d_(j+1)) // (2 d_(j+1));
    row k's lam follow in place (lam_kl -= q lam_jl for l < j,
    lam_kj -= q d_(j+1)) and the d do not change.
    """
    lam_k = lam[k]
    for j in range(k - 1, -1, -1):
        e = d[j + 1]
        q = (2 * lam_k[j] + e) // (2 * e)
        if q:
            w[k] = [a - q * b for a, b in zip(w[k], w[j])]
            lam_j = lam[j]
            for l in range(j):
                lam_k[l] -= q * lam_j[l]
            lam_k[j] -= q * e


def _swap_rows(w, lam, d, k):
    """Exchange rows k-1 and k of w, updating the integral data with exact
    divisions (Cohen, GTM 138, Algorithm 2.6.7, sub-algorithm SWAPI)."""
    w[k], w[k - 1] = w[k - 1], w[k]
    lam[k][:k - 1], lam[k - 1] = lam[k - 1], lam[k][:k - 1]
    m = lam[k][k - 1]
    d0, d1, d2 = d[k - 1], d[k], d[k + 1]
    b = (d0 * d2 + m * m) // d1
    for lam_i in lam[k + 1:]:
        t = lam_i[k]
        lam_i[k] = (d2 * lam_i[k - 1] - m * t) // d1
        lam_i[k - 1] = (b * t + m * lam_i[k]) // d2
    d[k] = b


def lll_transform(gram):
    """The LLL run ``(w, lam, d)`` of a positive-definite integer Gram
    matrix: integer rows W with W * basis LLL-reduced, and the integral
    Gram-Schmidt data (see :func:`_integral_gs`) of W gram W^T.

    The run depends only on the form, so any positive multiple of it gives
    the same W.  The data is computed once and then updated in place under
    each size-reduction step and each swap.  The Lovasz test with
    LLL_DELTA = p / q, bstar_k >= (p/q - mu_(k,k-1)^2) bstar_(k-1), reads
    q (d_(k+1) d_(k-1) + lam_(k,k-1)^2) >= p d_k^2 on the integral data.
    """
    r = len(gram)
    w = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    lam, d = _integral_gs(gram)
    p, q = LLL_DELTA.numerator, LLL_DELTA.denominator
    k, guard = 1, 0
    while k < r:
        guard += 1
        if guard > 10_000:
            raise PreconditionUnmet("LLL failed to terminate")
        _reduce_row(w, lam, d, k)
        m = lam[k][k - 1]
        if q * (d[k + 1] * d[k - 1] + m * m) >= p * d[k] * d[k]:
            k += 1
        else:
            _swap_rows(w, lam, d, k)
            k = max(k - 1, 1)
    return w, lam, d


def _row_norms(w, gram):
    """The diagonal of W gram W^T, in ints."""
    return [_int_quad(gram, row) for row in w]


def _combine(x, w):
    """The integer combination sum_i x_i w_i of the rows of w."""
    return [sum(map(mul, x, col)) for col in zip(*w)]


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _complete_unimodular(v):
    """Integer matrix with first row v (primitive), determinant +-1."""
    r = len(v)
    t = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    w = list(v)
    # chain 2x2 steps turning w into (g, 0, ..., 0); accumulate the inverse
    for i in range(r - 1, 0, -1):
        a, b = w[i - 1], w[i]
        if b == 0:
            continue
        g, s, tt = _xgcd(a, b)
        # rows i-1, i of the inverse operation [[a/g, -tt], [b/g, s]]
        row_a = [(a // g) * t[i - 1][j] + (b // g) * t[i][j] for j in range(r)]
        row_b = [-tt * t[i - 1][j] + s * t[i][j] for j in range(r)]
        t[i - 1], t[i] = row_a, row_b
        w[i - 1], w[i] = g, 0
    if w[0] == -1:
        t[0] = [-x for x in t[0]]
        w[0] = 1
    if w[0] != 1:
        raise PreconditionUnmet("vector is not primitive")
    return t


def shortest_vector(gram, lll):
    """A shortest nonzero coefficient vector of the integer Gram matrix
    ``gram``, from its LLL run ``lll_transform(gram)``."""
    w, lam, d = lll
    bound = min(_row_norms(w, gram))
    vectors = enumerate_short_vectors(lam, d, bound)
    if not vectors:
        raise CertificateFailed(
            "shortest-vector certificate: no vector within the shortest "
            "reduced basis norm %s" % bound)
    coeffs = _combine(vectors[0][0], w)
    g = math.gcd(*coeffs)
    if g != 1:
        raise CertificateFailed(
            "primitivity certificate: shortest vector %s has content %d"
            % (coeffs, g))
    return coeffs


def kz_transform(gram, lll):
    """Integer row transform W with W * basis KZ-reduced, for a
    positive-definite integer Gram matrix; ``lll`` is the LLL run
    ``lll_transform(gram)``.

    The first vector is a shortest vector; recursively, each Gram-Schmidt
    vector is shortest in the projected lattice, and the final basis is
    size-reduced (|mu_ij| <= 1/2).  The projected form is the Schur
    complement g_00 g_ij - g_i0 g_j0 of the first vector, in integers,
    divided by its content; a positive multiple of a form reduces alike.
    """
    r = len(gram)
    if r == 1:
        return [[1]]
    t1 = _complete_unimodular(shortest_vector(gram, lll))
    g1 = _int_gram(t1, gram)
    a = g1[0][0]
    projected = [[a * g1[i][j] - g1[i][0] * g1[j][0] for j in range(1, r)]
                 for i in range(1, r)]
    content = math.gcd(*(x for row in projected for x in row))
    projected = [[x // content for x in row] for row in projected]
    # a rank-1 projection needs no LLL run: it is KZ-reduced as it stands
    sub = (kz_transform(projected, lll_transform(projected)) if r > 2
           else [[1]])
    w = [t1[0]] + [_combine(row, t1[1:]) for row in sub]
    lam, d = _integral_gs(_int_gram(w, gram))
    for i in range(1, r):
        _reduce_row(w, lam, d, i)
    det = _det(w)
    if abs(det) != 1:
        raise CertificateFailed(
            "unimodularity certificate: the KZ transform has determinant %s"
            % det)
    return w


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def successive_minima(lattice: NormedLattice, j: int) -> Fraction:
    """The j-th successive minimum: exact lambda_j^2 (Euclidean norm) or
    exact lambda_j (polytope norm)."""
    r = lattice.rank
    if not 1 <= j <= r:
        raise PreconditionUnmet("index j must satisfy 1 <= j <= rank")
    return lattice._minima[j - 1]


def _independent_scan(vectors, r, upto):
    """Values at which the span dimension increments, scanning by norm.

    Kept rows are held in echelon form as integer rows with content 1, each
    with a pivot column where the rows kept before it vanish.  A candidate
    is reduced against them in order by row <- a row - f kept (a the kept
    pivot entry, f the candidate's), which zeroes the pivot column and keeps
    the earlier ones zero, so it is independent iff something is left.
    """
    echelon = []
    minima = []
    for coeffs, value in vectors:
        row = list(coeffs)
        for pivot, kept in echelon:
            f = row[pivot]
            if f:
                a = kept[pivot]
                row = [a * x - f * y for x, y in zip(row, kept)]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is not None:
            g = math.gcd(*row)
            echelon.append((pivot, [x // g for x in row]))
            minima.append(value)
            if len(minima) == upto:
                break
    return minima


def _scored_vectors(lattice: NormedLattice):
    """Every nonzero lattice vector no larger than the longest LLL-reduced
    row, one per +-pair, as (coefficients, exact size) sorted by size.

    The search is in the Euclidean form.  A Euclidean size is the
    enumeration's own value; a polytope norm is measured on the coefficients.
    """
    gram, scale, (w, lam, d) = lattice._lll
    if lattice.gram is not None:
        radius = Fraction(max(_row_norms(w, gram)), scale)
    else:
        radius = max(lattice._coefficient_norm(row) for row in w)
    scored = []
    for vec, value in enumerate_short_vectors(
            lam, d, lattice._form_budget(radius), scale):
        coeffs = tuple(_combine(vec, w))
        if lattice.gram is None:
            value = lattice._coefficient_norm(coeffs)
            if value > radius:
                continue
        scored.append((coeffs, value))
    scored.sort(key=lambda item: item[1])
    return scored


def dual_lattice(lattice: NormedLattice) -> NormedLattice:
    """The dual lattice with the dual norm.

    Euclidean: inverse-transpose basis with the inverse ambient form (so the
    lattice Gram inverts exactly).  Polytope: the polar polytope, whose
    vertex list is the facet-normal list of the primal unit ball and whose
    facet normals are the primal's extreme vertices.  The dual is built once
    per lattice and kept.
    """
    return lattice._dual


class TransferenceReport(Record):
    def __init__(self, lambda1_sq: Fraction, dual_lambda_r_sq: Fraction,
                 product_sq: Fraction, rank: int):
        self.__dict__.update(lambda1_sq=lambda1_sq,
                             dual_lambda_r_sq=dual_lambda_r_sq,
                             product_sq=product_sq, rank=rank)

    @property
    def ok(self):
        return self.product_sq <= Fraction(self.rank) ** 2


def transference_check(lattice: NormedLattice) -> TransferenceReport:
    """lambda_1(L) * lambda_r(L^*) <= r, checked on exact squared values."""
    if lattice.kind != "euclidean":
        raise PreconditionUnmet("the transference check runs on Euclidean norms")
    r = lattice.rank
    l1 = successive_minima(lattice, 1)
    lr = successive_minima(dual_lattice(lattice), r)
    report = TransferenceReport(lambda1_sq=l1, dual_lambda_r_sq=lr,
                                product_sq=l1 * lr, rank=r)
    if not report.ok:
        raise BoundViolated(
            "transference product exceeded the rank bound: %s > %s^2"
            % (report.product_sq, r))
    return report


class ReducedDualBasis(Record):
    """A Z-basis of the dual lattice with certified norm bounds.

    ``dual_norms`` are exact squared dual norms for Euclidean lattices and
    exact dual norms for polytope lattices; ``lambda1`` follows the same
    convention for the primal shortest vector.  ``achieved`` lists the
    scale-invariant products ||u_i||* lambda_1 (squared in the Euclidean
    case), each certified <= rank^2 (rank^4 squared).
    """

    def __init__(self, vectors: tuple, dual_norms: tuple, lambda1: Fraction,
                 squared: bool, rank: int):
        self.__dict__.update(vectors=vectors, dual_norms=dual_norms,
                             lambda1=lambda1, squared=squared, rank=rank)

    @property
    def achieved(self):
        return tuple(n * self.lambda1 for n in self.dual_norms)


def reduced_dual_basis(lattice: NormedLattice) -> ReducedDualBasis:
    """KZ-reduce the dual lattice and certify ||u_i||* <= r^2 / lambda_1.

    The certificate compares against a lambda_1 obtained by independent
    exhaustive enumeration, not against any by-product of the reduction.
    """
    r = lattice.rank
    dual = dual_lattice(lattice)
    if lattice.kind == "euclidean":
        # the dual's own form is the inverse form: share its kept LLL run
        gram, scale, lll = dual._lll
        w = kz_transform(gram, lll)
        norms = tuple(Fraction(n, scale) for n in _row_norms(w, gram))
    else:
        gram, _ = _integral_gram(dual.basis,
                                 _mat_inv(lattice.euclidean_form()))
        w = kz_transform(gram, lll_transform(gram))
        norms = tuple(dual._coefficient_norm(row) for row in w)
    vectors = [tuple(dual.vector(row)) for row in w]
    l1 = successive_minima(lattice, 1)
    squared = lattice.kind == "euclidean"
    power, product = ((4, "||u||^2 lambda1^2") if squared
                      else (2, "||u||* lambda1"))
    bound = Fraction(r) ** power
    for n in norms:
        if n * l1 > bound:
            raise BoundViolated("reduced dual vector with %s = %s > r^%d = %s"
                                % (product, n * l1, power, bound))
    return ReducedDualBasis(vectors=vectors, dual_norms=norms, lambda1=l1,
                            squared=squared, rank=r)


def random_basis(rank: int, rng, low=-5, high=5):
    """A random nonsingular integer basis with entries in [low, high]."""
    while True:
        rows = [[rng.randint(low, high) for _ in range(rank)]
                for _ in range(rank)]
        if _det(rows) != 0:
            return rows
