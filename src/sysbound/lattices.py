"""Rank <= 5 normed lattices: minima, duals, reduction, transference.

Basis vectors are rows of a nonsingular rational matrix.  Norms are either
Euclidean (an ambient positive-definite rational Gram form) or polytope
(Minkowski functional of a centrally symmetric vertex list).  All reported
quantities are exact: Euclidean minima as squared rationals, polytope minima
as rationals.

A lattice holds each of its matrices once, as integer rows over one
denominator: ``NormedLattice`` clears its basis and its Euclidean form or
its vertices when it is built, and every routine after that reads those
rows.  Gram matrices B F B^T are products of them in Python ints; inverses,
determinants and ranks run on the integer elimination of ``kernel``, the
inverse coming back as integer rows over one denominator.  The dual lattice
is built directly from the inverse's rows, which are already cleared,
without going through the constructor again.  Values are ints until they
leave the engine, where they become Fractions: the public basis, form and
vertices, a minimum, a norm, a dual vector, ``euclidean_form()`` and
``lattice_gram()``.  The constructor clears an int entry as it is and reads
any other entry as ``Fraction(x)``; every lattice, a dual too, makes its
public basis, form and vertices from its own integer rows when each is
first read, the vertices in the order given.

What depends on the unit ball alone is computed once per distinct norm in
a process and shared by every lattice, and every dual, built on it: the
positive-definiteness check and the inverse form of a Euclidean norm; the
negation check, the facet normals, the certified ellipsoid and the polar
norm of a polytope.  They live in a bounded memo keyed on the
cleared rows (at most ``MAX_NORMS`` norms, the least recently used dropped
first), and a lattice's dual takes its norm's dual.  The sandwich
certificate is a property of the norm, so it holds for every lattice that
reuses it; a check or fit that fails is not kept and raises again on the
next call.  The basis, the pull-back of the normals, LLL, the enumeration
and KZ stay per lattice.

The reduction engine runs on integers from the Gram matrix through the
enumeration, on Cohen's integral Gram-Schmidt data (GTM 138, Algorithm
2.6.7): the leading principal minors d_i of the integer Gram matrix and
lam_ij = d_(j+1) mu_ij, mu the Gram-Schmidt coefficients.  One pass computes
them and is also the positive-definiteness test (every d_i > 0, Sylvester's
criterion).  LLL's size reduction, Lovasz test and swaps, and the size
reduction that ends a KZ reduction, update them in place with exact integer
divisions; LLL hands the data and the norms of its reduced rows to the
enumeration, the shortest vector and KZ, so no Gram matrix is rebuilt or
factored twice.
KZ recurses on projected lattices, and only the outermost call size-reduces
the transform and certifies it unimodular (see :func:`kz_transform` for why
once suffices).
Enumeration is exact Fincke-Pohst on the same data, each range from an
integer square root.  It walks half the ball: by central symmetry it
visits only the vectors whose last nonzero coordinate is positive, lists
each +-pair by its member whose first nonzero coordinate is positive, and
sorts them by (size, coordinates reversed), the order a walk over the whole
ball gives.  Each lattice keeps its minima, its LLL run and its dual.

The minima are scanned in LLL coordinates: each enumerated vector x is
measured once, as an integer over one scale, and the minima are read off by
an independence scan that keeps integer echelon rows; W being unimodular, x
is independent of earlier vectors iff x W is.  A Euclidean size is the
enumeration's own budget spent, x^T (W G W^T) x over its scale.  A polytope
norm is a max of integer dot products: the facet normals are pulled back to
lattice coordinates once per lattice and through W once per minima scan, as
integer rows over one denominator.  Only the r minima become Fractions.

The polytope half runs on the same rows.  Facet enumeration solves each
r-subset of the vertex rows by one integer elimination, tests support in
ints and returns the normals as integer rows over one denominator; the
polar test, the pull-back and the ellipsoid sandwich read those rows.  For
polytope norms the search region comes from an inscribed ellipsoid E_Q
whose sandwich (E_Q inside the ball, ball inside sqrt(c) E_Q) is verified
exactly, with c the largest vertex value v^T Q v; the search budget uses
that c.  An input polytope's candidate forms are fitted in plain Python
floats, with a float Gauss-Jordan loop of its own, since only the
certificate matters.  The dual's unit ball is the polar polytope, whose
facet normals are the primal's extreme vertices (polar duality; Ziegler,
Lectures on Polytopes, section 2.3) and whose one candidate is the primal's
Q: the polar of E_Q is E_(Q^-1), so its certificate gives c Q^-1 with the
same c.  Only input polytopes enumerate facets or run the fit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from operator import itemgetter, mul

from .errors import (BoundViolated, CertificateFailed, EuclideanizationFailed,
                     PreconditionUnmet, RankTooLarge, TooManyVertices)
from .kernel import _cleared, _det, _eliminate, _mat_inv, _rank_of
from .values import Record

MAX_RANK = 5
#: the most r-subsets of an input vertex list ``_facet_normals`` will solve,
#: one exact r x r linear system each; a dual lattice's polar polytope takes
#: its facet normals from the primal's vertices and solves none
MAX_FACET_SUBSETS = 10_000
#: the Lovasz constant of the LLL exchange condition
LLL_DELTA = Fraction(3, 4)
#: the most distinct norms the memo keeps at once, which bounds the norm
#: data a long-lived process holds
MAX_NORMS = 64


# ---------------------------------------------------------------------------
# Gram forms
# ---------------------------------------------------------------------------


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


def _is_positive_definite(rows):
    """Integer rows that are symmetric with every leading principal minor
    positive (Sylvester's criterion), read off the integral Gram-Schmidt
    pass."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        return False
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        return False
    try:
        _integral_gs(rows)
    except PreconditionUnmet:
        return False
    return True


def _int_quad(rows, xs):
    """x^T G x for integer rows G and an integer vector x, in ints."""
    return sum(xi * sum(map(mul, row, xs)) for xi, row in zip(xs, rows) if xi)


def _int_gram(b, f):
    """B F B^T for integer rows B and F, in ints."""
    f_cols = list(zip(*f))
    bf = [[sum(map(mul, row, col)) for col in f_cols] for row in b]
    return [[sum(map(mul, row, other)) for other in b] for row in bf]


def _fractions(rows, den):
    """The matrix rows / den, one Fraction per entry."""
    return [[Fraction(x, den) for x in row] for row in rows]


def _entries(m):
    """The rows of an input matrix for ``_cleared``: an int entry as it is,
    any other entry as ``Fraction(x)``."""
    return [[x if type(x) is int else Fraction(x) for x in row] for row in m]


def _pulled_back(basis, normals):
    """Functionals a pulled back through the rows of a basis, as integer
    rows over one denominator: <a, c B> = <B a, c>, so with basis = B / d
    and normals = A / e each pulled-back row is B a over d e."""
    (b, d), (rows, e) = basis, normals
    return [[sum(map(mul, row, a)) for row in b] for a in rows], d * e


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
    list, closed under negation) must be given.  The norm's data (facets,
    polar, certified ellipsoid, inverse form) is computed
    once per distinct norm in a process, in a bounded memo, and shared by
    every lattice on it; the basis and its reductions are the lattice's own.
    """

    # The basis is cleared once here to ``(rows, den)``, kept as ``_basis``,
    # and the form or the vertices, in the order given, as ``_form``; an int
    # entry is cleared as it is, any other read as ``Fraction(x)`` first.
    # The form or the vertices are looked up in the norm memo; the shared
    # ``_Norm`` is kept as ``_norm``, and a polytope's facet normals pulled
    # back to lattice coordinates as ``_coeff_normals``.  ``==`` and the repr
    # leave these out.  The public ``basis``, ``gram`` and ``vertices`` are
    # made from ``_basis`` and ``_form`` on first read, never from the
    # shared norm, whose vertex rows are sorted; ``_dual`` sets both too.
    def __init__(self, basis: list, gram: list | None = None,
                 vertices: list | None = None):
        rows = _entries(basis)
        r = len(rows)
        if r == 0:
            raise PreconditionUnmet("the lattice basis is empty; rank must be "
                                    "at least 1")
        if r > MAX_RANK:
            raise RankTooLarge("rank %d exceeds the desk-scale cap %d"
                               % (r, MAX_RANK))
        if any(len(row) != r for row in rows):
            raise PreconditionUnmet("basis must be a square matrix")
        self._basis = _cleared(rows)
        if _det(self._basis[0]) == 0:
            raise PreconditionUnmet("basis must be nonsingular")
        if (gram is None) == (vertices is None):
            raise PreconditionUnmet("give exactly one of gram and vertices")
        if gram is not None:
            rows = _entries(gram)
            if len(rows) != r or any(len(row) != r for row in rows):
                raise PreconditionUnmet(
                    "the Gram matrix is %dx%s but the basis has rank %d"
                    % (len(rows), _lengths(rows), r))
            self._form = rows, den = _cleared(rows)
            self._norm = _norm("euclidean", tuple(map(tuple, rows)), den, r)
            self._coeff_normals = None
        else:
            rows = _entries(vertices)
            if any(len(v) != r for v in rows):
                raise PreconditionUnmet(
                    "the vertices have %s coordinates but the basis has rank %d"
                    % (_lengths(rows), r))
            self._form = rows, den = _cleared(rows)
            self._norm = _norm("polytope", tuple(sorted(map(tuple, rows))),
                               den, r)
            self._coeff_normals = _pulled_back(self._basis, self._norm.normals)

    @cached_property
    def basis(self):
        return _fractions(*self._basis)

    @cached_property
    def gram(self):
        return _fractions(*self._form) if self.kind == "euclidean" else None

    @cached_property
    def vertices(self):
        return None if self.kind == "euclidean" else _fractions(*self._form)

    # -- norms ------------------------------------------------------------

    @property
    def rank(self):
        return len(self._basis[0])

    @property
    def kind(self):
        return "euclidean" if self._norm.normals is None else "polytope"

    def lattice_gram(self):
        """Gram matrix of the basis vectors (Euclidean norm only)."""
        if self._norm.normals is not None:
            raise PreconditionUnmet("polytope lattices have no Gram matrix")
        (b, d), (f, e) = self._basis, self._norm.rows
        return _fractions(_int_gram(b, f), d * d * e)

    def _check_length(self, vec, what):
        if len(vec) != self.rank:
            raise PreconditionUnmet(
                "the %s has %d coordinates but the basis has rank %d"
                % (what, len(vec), self.rank))

    def vector(self, coeffs):
        """Ambient coordinates of an integer coefficient vector."""
        self._check_length(coeffs, "coefficient vector")
        rows, d = self._basis
        return [Fraction(sum(map(mul, coeffs, col)), d) for col in zip(*rows)]

    def norm_sq(self, ambient_vec):
        if self._norm.normals is not None:
            raise PreconditionUnmet("polytope norms are not squared-rational")
        self._check_length(ambient_vec, "vector")
        (xs,), d = _cleared([[Fraction(x) for x in ambient_vec]])
        rows, e = self._norm.rows
        return Fraction(_int_quad(rows, xs), d * d * e)

    def norm(self, ambient_vec):
        """Exact polytope norm (Minkowski functional)."""
        if self._norm.normals is None:
            raise PreconditionUnmet("Euclidean norms are reported squared")
        self._check_length(ambient_vec, "vector")
        (xs,), d = _cleared([[Fraction(x) for x in ambient_vec]])
        rows, e = self._norm.normals
        return Fraction(max(sum(map(mul, a, xs)) for a in rows), d * e)

    def _coefficient_norm(self, coeffs):
        """The polytope norm of the lattice vector with these integer
        coefficients, from the pulled-back facet normals."""
        rows, d = self._coeff_normals
        return Fraction(max(sum(map(mul, row, coeffs)) for row in rows), d)

    def euclidean_form(self):
        """An ambient quadratic form comparable to the norm.

        Euclidean lattices return their own form.  Polytope lattices return a
        certified inscribed-ellipsoid form Q with
        (1/sqrt(c)) |v|_Q <= ||v|| <= |v|_Q, c the exact largest v^T Q v
        over the vertices.
        """
        if self._norm.normals is None:
            return self.gram
        return _fractions(*self._norm.ellipsoid[0])

    # -- computed once per lattice ------------------------------------------

    @cached_property
    def _lll(self):
        """``(gram, scale, run)``: the Gram matrix of the basis in the
        Euclidean form, B F B^T over scale = d^2 e for basis = B / d and
        form = F / e, and the LLL run of those rows (see
        :func:`lll_transform`)."""
        norm = self._norm
        form = norm.rows if norm.normals is None else norm.ellipsoid[0]
        (b, d), (f, e) = self._basis, form
        gram = _int_gram(b, f)
        return gram, d * d * e, lll_transform(gram)

    @cached_property
    def _minima(self):
        """All r minima: scan the vectors up to the longest LLL-reduced row
        in order of size, in the LLL run's own coordinates x.

        W is unimodular, so the x are independent iff the coefficient
        vectors x W are.  A Euclidean size is the enumeration's budget spent
        on x, over its scale; a polytope norm is a max of integer dot
        products with the coefficient normals pulled back through W, over
        their denominator.  Sizes stay ints until the r minima are found.
        """
        r = self.rank
        gram, scale, (w, lam, d, norms) = self._lll
        if self._norm.normals is None:
            vectors, s = enumerate_short_vectors(lam, d, max(norms))
            s *= scale
        else:
            normals, s = _pulled_back((w, 1), self._coeff_normals)
            # row i of W is the unit vector e_i in these coordinates; every
            # vector of norm at most top / s has v^T Q v <= c (top / s)^2,
            # Q = euclidean_form(), by the sandwich |v|_Q^2 <= c ||v||^2;
            # the enumeration measures scale |v|_Q^2
            top = max(map(max, normals))
            found, _ = enumerate_short_vectors(
                lam, d, self._norm.ellipsoid[1] * Fraction(top, s) ** 2
                * scale)
            vectors = []
            for x, _ in found:
                size = max(sum(map(mul, a, x)) for a in normals)
                if size <= top:
                    vectors.append((x, size))
            vectors.sort(key=lambda item: item[1])
        minima = _independent_scan(vectors, r)
        if len(minima) != r:
            raise CertificateFailed(
                "successive-minima certificate: vectors up to the longest "
                "reduced basis norm span rank %d < %d" % (len(minima), r))
        return [Fraction(size, s) for size in minima]

    @cached_property
    def _dual(self):
        """The dual lattice with the dual norm; see :func:`dual_lattice`.

        Built from the inverse's integer rows, not by ``__init__``: they are
        already cleared, and the checks hold by construction (the inverse of
        a nonsingular matrix is nonsingular, of a symmetric form symmetric,
        and a symmetric polytope's normals are closed under negation).  Its
        norm is ``self._norm.dual``, shared by every dual on the same norm.
        The dual form's positive-definiteness is certified again by its own LLL
        run, whose integral Gram-Schmidt pass raises on a minor <= 0.  It
        holds integer rows only: its public basis, form and vertices become
        Fractions on first read, and the ``lattice`` subcommand reads none.
        """
        dual = NormedLattice.__new__(NormedLattice)
        rows, den = _mat_inv(*self._basis)
        dual._basis = [list(col) for col in zip(*rows)], den
        dual._norm = norm = self._norm.dual
        dual._form = norm.rows
        dual._coeff_normals = (None if norm.normals is None else
                               _pulled_back(dual._basis, norm.normals))
        return dual


# ---------------------------------------------------------------------------
# norms: the data of one unit ball, computed once per process
# ---------------------------------------------------------------------------


class _Norm:
    """What a unit ball alone determines, shared by every lattice on it.

    ``rows`` is the Euclidean form or the vertex list and ``normals`` a
    polytope's facet normals (None for a Euclidean norm), each as integer
    rows over one denominator that no routine mutates.  ``primal`` is the
    norm whose dual this one is, None for a norm built from its inputs.  The
    certified ellipsoid and the dual norm are computed on first read and
    kept; one that raises keeps nothing and raises again on the next read.
    """

    def __init__(self, rows, normals, r, primal):
        self.rows, self.normals, self.r, self.primal = rows, normals, r, primal

    @cached_property
    def ellipsoid(self):
        """((rows, den), c) of the certified inscribed ellipsoid.  A polar
        norm's one candidate is its primal's certified form, any other
        polytope's are the fit's (see :func:`_certified_ellipsoid_form`)."""
        candidates = (_fitted_forms(self.normals, self.r)
                      if self.primal is None else [self.primal.ellipsoid[0]])
        return _certified_ellipsoid_form(self.rows, self.normals, self.r,
                                         candidates)

    @cached_property
    def dual(self):
        """The dual norm: the inverse form, or the polar polytope, whose
        vertices are this polytope's facet normals and whose facet normals
        are its extreme vertices."""
        if self.normals is None:
            return _Norm(_mat_inv(*self.rows), None, self.r, self)
        return _Norm(self.normals,
                     _polar_normals(self.rows, self.normals, self.r), self.r,
                     self)


@lru_cache(maxsize=MAX_NORMS)
def _norm(kind, rows, den, r):
    """The shared ``_Norm`` of the rank-r Euclidean form or vertex list
    ``rows`` / den, rows a tuple of integer tuples; a lattice sorts a vertex
    list, whose order does not change the unit ball.

    Checks the form positive definite, or the vertices closed under
    negation, and enumerates a polytope's facets.  Memoized on the
    arguments, at most MAX_NORMS at once; a check or an enumeration that
    raises is not memoized, so it raises again on the next call.
    """
    if kind == "euclidean":
        form = [list(row) for row in rows], den
        if not _is_positive_definite(form[0]):
            raise PreconditionUnmet(
                "the Euclidean form must be symmetric positive-definite "
                "(leading principal minors positive)")
        return _Norm(form, None, r, None)
    if {tuple(-x for x in v) for v in rows} != set(rows):
        raise PreconditionUnmet(
            "polytope vertex list must be closed under negation")
    vertices = [list(v) for v in rows], den
    return _Norm(vertices, _facet_normals(vertices, r), r, None)


# ---------------------------------------------------------------------------
# polytopes: facets and inscribed ellipsoid
# ---------------------------------------------------------------------------


def _facet_normals(vertices, r):
    """Supporting functionals a with <a, v> <= 1, exhaustively at rank <= 5,
    as sorted integer rows over one denominator.

    ``vertices`` are integer rows V over one denominator D.  For each
    r-subset S one fraction-free elimination of [V_S | D] solves
    V_S a = D 1: when V_S has rank r, Gauss-Jordan leaves p [I | n], p the
    common diagonal (the determinant up to the sign of the row swaps), so
    a = n / p.  With p made positive, a supports the polytope iff
    n . V_i <= p D for every vertex, in ints.  Normals are deduplicated on
    (n, p) over their gcd and put over the lcm of their p at the end, which
    sorts them as the rationals they stand for.
    """
    rows, den = vertices
    subsets = math.comb(len(rows), r)
    if subsets > MAX_FACET_SUBSETS:
        raise TooManyVertices(
            "facet enumeration over %d vertices at rank %d needs C(%d, %d) = "
            "%d linear solves, above the cap %d"
            % (len(rows), r, len(rows), r, subsets, MAX_FACET_SUBSETS))
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
    lcm = math.lcm(*(p for p, *_ in normals))
    return sorted([x * (lcm // p) for x in n] for p, *n in normals), lcm


def _polar_normals(vertices, normals, r):
    """The facet normals of the polar polytope, in ``_facet_normals`` order:
    the listed vertices that are extreme, v being extreme iff the normals a
    with <a, v> = 1 have rank r.

    Both arguments are integer rows over one denominator, vertices = V / D
    and normals = A / E, so a normal is tight at a vertex iff
    A_j . V_i = E D, in ints, and the rank test runs on the integer tight
    rows.  The result is the distinct extreme rows V_i over D, sorted, which
    sorts the vertices, D being positive.
    """
    rows, den = vertices
    normal_rows, e = normals
    one = e * den
    extreme = []
    for v in sorted({tuple(v) for v in rows}):
        tight = [a for a in normal_rows if sum(map(mul, a, v)) == one]
        if len(tight) >= r and _rank_of(tight) == r:
            extreme.append(list(v))
    return extreme, den


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


def _fitted_forms(normals, r):
    """Candidate forms for :func:`_certified_ellipsoid_form`, from a float
    fit of the facet normals.

    Khachiyan's iteration (Math. Oper. Res. 21, 1996) fits, in floats, the
    minimal enclosing ellipsoid of the polar vertex set (the facet normals):
    weights u on the points, moment matrix M = sum u_i p_i p_i^T, and a step
    toward the first point of largest p^T M^-1 p until that is at most r.
    Each of six rounds iterates longer and yields the enclosing form
    M^-1 / r, rationalized with a finer denominator limit, symmetrized and
    cleared.
    """
    points, e = normals
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
        yield _cleared([[(w[i][j] + w[j][i]) / 2 for j in range(r)]
                        for i in range(r)])


def _certified_ellipsoid_form(vertices, normals, r, candidates):
    """``((rows, den), c)``: a rational PD form Q = rows / den and the exact
    c = max v^T Q v over the vertices, with E_Q inside K inside sqrt(c) E_Q,
    from the first candidate with c <= r (John's bound), or failing that the
    one with the smallest c.  Each candidate W, like the vertices and the
    normals, is integer rows over one denominator; it is rescaled so the
    largest a^T W a over the normals is exactly 1, which puts E_Q, Q = W^-1,
    inside K, and passed over unless it is then positive definite.
    """
    points, e = normals
    rows, den = vertices
    e2 = e * e
    best = None
    for wrows, f in candidates:
        # the largest a^T w a over the normals A / e, for w = W / f, is one
        # Fraction, and w / scale = W s / (f t) for scale = t / s (a scale
        # <= 0 leaves W not positive definite); c over the vertices V / D is
        # one Fraction too
        scale = Fraction(max(_int_quad(wrows, a) for a in points), e2 * f)
        wrows = [[x * scale.denominator for x in row] for row in wrows]
        if not _is_positive_definite(wrows):
            continue
        q = _mat_inv(wrows, f * scale.numerator)
        qrows, g = q
        c = Fraction(max(_int_quad(qrows, v) for v in rows), den * den * g)
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


def enumerate_short_vectors(lam, d, bound):
    """``(vectors, s)``: all nonzero x in Z^r with x^T gram x <= bound, an
    int or a Fraction, one per +-pair, each as ``(x, n)`` with
    x^T gram x = n / s exactly; ``(lam, d)`` is the integral Gram-Schmidt
    data of the integer rows ``gram``.  Of each pair the x whose first
    nonzero coordinate is positive is listed, and the list is sorted by n,
    ties by (x_(r-1), ..., x_0) ascending: the key is (n, x reversed).  So
    for any smaller bound the list is a prefix of this one.

    Fincke-Pohst in integers.  With mu_jl = lam_jl / e_l, e_l = d_(l+1),
    and bstar_l = d_(l+1) / d_l, level l adds to x^T gram x the term
    bstar_l (x_l + n_l / e_l)^2 = (e_l x_l + n_l)^2 / (d_l d_(l+1)), n_l the
    integer sum of lam_jl x_j over the deeper coordinates.  Over the common
    denominator s = lcm(d_l d_(l+1)) it is m_l (e_l x_l + n_l)^2 / s with
    m_l an integer, so the budget is kept as floor(s bound) minus integer
    terms and each level's range comes from one integer square root.

    The walk visits one x of each pair, the one whose last nonzero
    coordinate is positive: for each top level t, x_t runs over 1, 2, ...
    with every deeper coordinate zero, so n_t = 0, and the levels below run
    over their whole ranges.  Each visited x is listed as the pair's
    representative, x or -x, so the list is sorted by n and each run of
    equal n is put in order after.
    """
    r = len(lam)
    e = d[1:]
    s = math.lcm(*(a * b for a, b in zip(d, e)))
    m = [s // (a * b) for a, b in zip(d, e)]
    budget = bound.numerator * s // bound.denominator
    found = []
    coords = [0] * r

    def descend(level, remaining):
        n = 0
        for j in range(level + 1, r):
            n += lam[j][level] * coords[j]
        e_l, m_l = e[level], m[level]
        w = math.isqrt(remaining // m_l)
        # the x with |e_l x + n| <= w
        xs = range(-((w + n) // e_l), (w - n) // e_l + 1)
        if level:
            for x in xs:
                coords[level] = x
                t = e_l * x + n
                descend(level - 1, remaining - m_l * t * t)
            coords[level] = 0
            return
        # x_0 settles the sign: positive keeps the vector, negative negates
        # it, and zero leaves it to the first nonzero of x_1, x_2, ...
        deeper = tuple(coords[1:])
        negated = tuple([-c for c in deeper])
        zero = deeper if next(c for c in deeper if c) > 0 else negated
        spent = budget - remaining
        for x in xs:
            t = e_l * x + n
            found.append(((x,) + deeper if x > 0 else (-x,) + negated if x < 0
                          else (0,) + zero, spent + m_l * t * t))

    if budget >= 0:
        for top in range(r):
            e_t, m_t = e[top], m[top]
            for x in range(1, math.isqrt(budget // m_t) // e_t + 1):
                t = e_t * x
                if top:
                    coords[top] = x
                    descend(top - 1, budget - m_t * t * t)
                else:
                    found.append(((x,) + (0,) * (r - 1), m_t * t * t))
            coords[top] = 0
    found.sort(key=itemgetter(1))
    start = 0
    for i in range(1, len(found) + 1):
        if i == len(found) or found[i][1] != found[start][1]:
            if i - start > 1:
                found[start:i] = sorted(found[start:i],
                                        key=lambda item: item[0][::-1])
            start = i
    return found, s


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
    """The LLL run ``(w, lam, d, norms)`` of a positive-definite integer
    Gram matrix: integer rows W with W * basis LLL-reduced, the integral
    Gram-Schmidt data (see :func:`_integral_gs`) of W gram W^T, and its
    diagonal, the norms of the reduced rows.

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
    return w, lam, d, _row_norms(w, gram)


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


def shortest_vector(lll):
    """A shortest nonzero coefficient vector of an integer Gram matrix,
    read from its LLL run ``lll_transform(gram)`` alone.

    It is the first vector the enumeration up to the shortest reduced row
    lists, certified within that row and primitive.
    """
    w, lam, d, norms = lll
    bound = min(norms)
    vectors, s = enumerate_short_vectors(lam, d, bound)
    if not vectors or vectors[0][1] > bound * s:
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


def _kz_rows(gram, lll):
    """The KZ transform of :func:`kz_transform` before its size reduction
    and its certificate: the first row is a shortest vector and,
    recursively, the others lift the projected lattice's rows.

    The projected form is the Schur complement g_00 g_ij - g_i0 g_j0 of the
    first vector, in integers, divided by its content; a positive multiple
    of a form reduces alike.
    """
    r = len(gram)
    t1 = _complete_unimodular(shortest_vector(lll))
    if r == 2:
        # a rank-1 projection is KZ-reduced as it stands
        return t1
    g1 = _int_gram(t1, gram)
    a = g1[0][0]
    projected = [[a * g1[i][j] - g1[i][0] * g1[j][0] for j in range(1, r)]
                 for i in range(1, r)]
    content = math.gcd(*(x for row in projected for x in row))
    projected = [[x // content for x in row] for row in projected]
    sub = _kz_rows(projected, lll_transform(projected))
    return [t1[0]] + [_combine(row, t1[1:]) for row in sub]


def kz_transform(gram, lll):
    """Integer row transform W with W * basis KZ-reduced, for a
    positive-definite integer Gram matrix; ``lll`` is the LLL run
    ``lll_transform(gram)``.

    The first vector is a shortest vector; recursively, each Gram-Schmidt
    vector is shortest in the projected lattice (:func:`_kz_rows`), and the
    final basis is size-reduced (|mu_ij| <= 1/2).  Size reduction and the
    unimodularity certificate run once, on the whole transform, and once is
    enough.  Each level's rows are diag(1, sub) t1, both factors integer,
    so |det W| = 1 forces every level's t1 and sub, every completion
    included, to be unimodular.  Size reduction maps each row to the one
    member of its coset modulo the earlier rows with every mu_ij in
    [-1/2, 1/2), so reducing the inner levels too would give the same rows.
    The certificate reads the size reduction's Gram-Schmidt pass: its last
    minor is det(W gram W^T) = det(W)^2 det(gram), and the LLL run's is
    det(gram), which LLL's swaps leave as it is, so the two are equal iff
    |det W| = 1.
    """
    if len(gram) == 1:
        return [[1]]
    w = _kz_rows(gram, lll)
    lam, d = _integral_gs(_int_gram(w, gram))
    for i in range(1, len(w)):
        _reduce_row(w, lam, d, i)
    if d[-1] != lll[2][-1]:
        raise CertificateFailed(
            "unimodularity certificate: the KZ transform has determinant %s"
            % _det(w))
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


def _independent_scan(vectors, upto):
    """The sizes at which the span dimension increments, scanning
    ``(coeffs, size)`` pairs in order of size.

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


def dual_lattice(lattice: NormedLattice) -> NormedLattice:
    """The dual lattice with the dual norm.

    Euclidean: inverse-transpose basis with the inverse ambient form (so the
    lattice Gram inverts exactly).  Polytope: the polar polytope, whose
    vertex list is the facet-normal list of the primal unit ball and whose
    facet normals are the primal's extreme vertices.  The dual is built once
    per lattice and kept, and its norm is the primal norm's dual, computed
    once per distinct norm in a process and shared by every dual on it.
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

    KZ reduces the dual's basis in the dual's Euclidean form, from the
    dual's kept LLL run: the inverse form, or the polar's certified form
    c Q^-1, which reduces as Q^-1 does.  The two kinds of norm differ only
    in how each reduced row is measured: a Euclidean dual norm squared in
    the inverse form, a polytope dual norm on the polar's facet normals.
    """
    r = lattice.rank
    dual = dual_lattice(lattice)
    gram, scale, lll = dual._lll
    w = kz_transform(gram, lll)
    squared = lattice.kind == "euclidean"
    if squared:
        norms = tuple(Fraction(n, scale) for n in _row_norms(w, gram))
    else:
        norms = tuple(dual._coefficient_norm(row) for row in w)
    vectors = [tuple(dual.vector(row)) for row in w]
    l1 = successive_minima(lattice, 1)
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
