"""Exact primitives shared by the engines, each implemented once.

One fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968;
Cohen, GTM 138, section 2.2) serves every exact inverse, determinant, linear
solve and rank in the package.  A matrix is held as ``(rows, den)``, integer
rows over one denominator; ``_cleared`` is the one place where rational
entries become that pair.  The determinant, inverse and rank take integer
rows and run on Python ints throughout, the inverse coming back as integer
rows over one denominator; only ``_solve_linear``, for the cone engine,
clears its rational rows itself.  Sparse polynomials are dicts {exponent
tuple: coefficient} with one product, which also gives the intersection
numbers of a complete intersection in a product of projective spaces.
Dense univariate polynomials live in ``roots``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .errors import EmptyIntersection, PreconditionUnmet

# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def _cleared(m):
    """``(rows, d)``: integer rows with m = rows / d, d the least common
    denominator of the entries (ints or Fractions)."""
    d = math.lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m], d


def _eliminate(rows, ncols, jordan=True):
    """Fraction-free elimination of integer rows on their first ``ncols``
    columns; the pivot is the first nonzero entry of its column.

    Each step with pivot a, after a previous pivot p, replaces every other
    row by (a row - f pivot_row) / p, f the row's entry in the pivot column.
    The division is exact: after k steps every entry is a minor of the input
    of order k or k+1 (Sylvester's identity), and the k-th pivot is the
    leading k x k minor of the pivot rows and columns.  With ``jordan`` the
    rows above the pivot are reduced too, so the result is the reduced row
    echelon form times the last pivot; without it only the rows below are.

    Returns ``(m, rank, det)``: the rows, the number of pivots, and the last
    pivot signed by the row swaps, which is the determinant when the rows
    form a nonsingular square matrix.
    """
    m = list(rows)
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top = m[rank]
        a = top[col]
        for i in range(0 if jordan else rank + 1, len(m)):
            if i != rank:
                f = m[i][col]
                m[i] = [(a * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = a
        rank += 1
    return m, rank, sign * prev


def _mat_inv(rows, d=1):
    """``(inv, den)``: the inverse of the nonsingular matrix rows / d, as
    integer rows over their least common denominator.

    Gauss-Jordan reduces [B | I] to p [I | B^-1], p the last pivot, so the
    inverse d B^-1 = d adj(B) / det B is d times the right half over p, with
    the sign made positive and the common content divided out.
    """
    n = len(rows)
    m, rank, _ = _eliminate(
        [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)],
        n)
    if rank < n:
        raise PreconditionUnmet("matrix is singular")
    p = m[0][0]
    if p < 0:
        d = -d
    inv = [[d * x for x in row[n:]] for row in m]
    g = math.gcd(p, *(x for row in inv for x in row))
    return [[x // g for x in row] for row in inv], abs(p) // g


def _det(rows):
    """The determinant of a square matrix of integer rows."""
    _, rank, det = _eliminate(rows, len(rows), jordan=False)
    return det if rank == len(rows) else 0


def _rank_of(rows):
    """The rank of a matrix of integer rows."""
    return _eliminate(rows, len(rows[0]) if rows else 0, jordan=False)[1]


def _solve_linear(rows, rhs):
    """The unique solution of rows x = rhs, for rational rows and rhs, or
    None if there is none or more than one: rows of rank below the number of
    unknowns (the row length), or an inconsistent equation."""
    n = len(rows[0]) if rows else 0
    m, rank, _ = _eliminate(
        _cleared([list(row) + [b] for row, b in zip(rows, rhs)])[0], n)
    if rank < n or any(row[n] for row in m[rank:]):
        return None
    return [Fraction(row[n], row[i]) for i, row in enumerate(m[:n])]


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
