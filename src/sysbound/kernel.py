"""Exact primitives shared by the engines, each implemented once.

Gauss-Jordan elimination serves every inverse, determinant, linear solve and
rank in the package, over the field of its entries (Fractions for the exact
algebra, floats for the lattice ellipsoid fit).  Sparse polynomials are dicts
{exponent tuple: coefficient} with one product, which also gives the
intersection numbers of a complete intersection in a product of projective
spaces.  Dense univariate polynomials live in ``roots``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import EmptyIntersection, PreconditionUnmet

# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def _mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _gauss_jordan(rows, ncols):
    """Gauss-Jordan elimination on the first ``ncols`` columns, over the
    field of the entries: Fractions for the exact algebra, floats for the
    ellipsoid fit.  The pivot is the first nonzero entry of its column.

    Returns ``(m, rank, det)``: the reduced rows, the number of pivots, and
    the product of the pivots signed by the row swaps, which is the
    determinant when the rows form a nonsingular square matrix.
    """
    m = list(rows)
    rank, det = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det *= m[rank][col]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return m, rank, det


def _mat_inv(a):
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    m, rank, _ = _gauss_jordan(_mat(aug), n)
    if rank < n:
        raise PreconditionUnmet("matrix is singular")
    return [row[n:] for row in m]


def _det(a):
    _, rank, det = _gauss_jordan(_mat(a), len(a))
    return det if rank == len(a) else Fraction(0)


def _solve_linear(rows, rhs):
    """The unique solution of rows x = rhs, or None if rows is singular."""
    n = len(rows)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    m, rank, _ = _gauss_jordan(_mat(aug), n)
    return [row[n] for row in m] if rank == n else None


def _rank_of(rows):
    return _gauss_jordan(_mat(rows), len(rows[0]) if rows else 0)[1]


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------


def _sparse_mul(a, b):
    """Product of two polynomials given as {exponent tuple: coefficient};
    zero coefficients are dropped."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _intersection_pairing(rows, ns):
    """``(dim, pairing)`` of the complete intersection X of the divisors
    ``rows`` (multidegrees) in CP(N_1) x ... x CP(N_m): X's complex
    dimension, and each top monomial H^e of X mapped to <H^e, [X]>.  By the
    projection formula <a, [X]> = <a D_1...D_r, [ambient]> (Fulton,
    Intersection Theory, 2.5), that is the coefficient of H^(N-e) in
    D_1...D_r.  Raises EmptyIntersection when X is empty: the codimension
    leaves nothing, or the product of the divisors vanishes on the ambient.
    """
    m, r = len(ns), len(rows)
    dim = sum(ns) - r
    if dim < 1:
        raise EmptyIntersection(
            "codimension %d leaves nothing of the %d-dimensional ambient space"
            % (r, sum(ns)))
    divisors = {(0,) * m: 1}
    for row in rows:
        divisors = _sparse_mul(divisors, {
            tuple(int(i == j) for j in range(m)): d for i, d in enumerate(row) if d})
    pairing = {tuple(N - e for N, e in zip(ns, mono)): c
               for mono, c in divisors.items()
               if all(e <= N for e, N in zip(mono, ns))}
    if not pairing:
        raise EmptyIntersection(
            "the hypersurfaces do not meet: the product of their divisors "
            "vanishes on %s" % "x".join("CP(%d)" % N for N in ns))
    return dim, pairing
