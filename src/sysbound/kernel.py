"""Exact primitives shared by the engines, each implemented once.

One fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968;
Cohen, GTM 138, section 2.2) serves every exact inverse, determinant, linear
solve and rank in the package.  A matrix is held as ``(rows, den)``, integer
rows over one denominator; ``_cleared`` is the one place where rational
entries become that pair.  The determinant, inverse and rank take integer
rows and run on Python ints throughout, the inverse coming back as integer
rows over one denominator; only ``_solve_linear``, for the cone engine,
clears its rational rows itself.  Sparse polynomials are dicts {exponent
tuple: coefficient} with one product.  A complete intersection in a
product of projective spaces is given by multidegree rows that one
validator checks, for the catalog and the contraction report alike.  Its
intersection numbers come from a product truncated as it goes, after a
matching has decided that the intersection is not empty, and its
holomorphic Euler characteristics from the Koszul sum at an integer twist.
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


# ---------------------------------------------------------------------------
# complete intersections in products of projective spaces
# ---------------------------------------------------------------------------


def _checked_rows(multidegrees, ambient, checks):
    """``(rows, ns)``: the multidegree rows and the factor dimensions
    N_1, ..., N_m of a complete intersection, as lists of ints, refused
    with ``PreconditionUnmet`` at the first fault that ``checks`` names.

    ``checks`` are ``(faults, message)`` pairs in the order they are made,
    a message's ``%d`` standing for m.  The faults are "no row", "no
    factor", "small factor" (some N_i < 1), and the first faulty row's
    first of "width" (not m entries), "negative" (an entry below 0) and
    "zero" (no entry above 0).
    """
    rows = [[int(d) for d in row] for row in multidegrees]
    ns = [int(N) for N in ambient]
    found = {"no row"} if not rows else set()
    if not ns:
        found.add("no factor")
    elif min(ns) < 1:
        found.add("small factor")
    for row in rows:
        if len(row) != len(ns):
            found.add("width")
        elif row and min(row) < 0:
            found.add("negative")
        elif not any(row):
            found.add("zero")
        else:
            continue
        break
    if found:
        for faults, message in checks:
            if found.intersection(faults):
                raise PreconditionUnmet(message.replace("%d", str(len(ns))))
    return rows, ns


def _intersection_dim(rows, ns):
    """The complex dimension of the complete intersection X of the divisors
    ``rows`` (multidegrees) in CP(N_1) x ... x CP(N_m), after refusing an
    empty X with EmptyIntersection: the codimension leaves nothing, or the
    product of the divisors vanishes on the ambient.

    Every coefficient of D_1...D_r is a sum of nonnegative terms, one per
    choice of a factor for each row with the row's degree positive there,
    and the choice lands on H^e with e_i the rows put on factor i.  So the
    product survives H_i^(N_i + 1) = 0 exactly when some choice puts at most
    N_i rows on each factor i: a matching of rows to factors of capacity
    N_i, found by augmenting paths.
    """
    dim = sum(ns) - len(rows)
    if dim < 1:
        raise EmptyIntersection(
            "codimension %d leaves nothing of the %d-dimensional ambient space"
            % (len(rows), sum(ns)))
    placed = [[] for _ in ns]  # the rows put on each factor
    if not all(_place(j, rows, ns, placed, set())
               for j in range(len(rows))):
        raise EmptyIntersection(
            "the hypersurfaces do not meet: the product of their divisors "
            "vanishes on %s" % "x".join("CP(%d)" % N for N in ns))
    return dim


def _place(j, rows, ns, placed, seen):
    """Put row j on a factor not in ``seen`` with its degree positive there,
    moving rows already placed along an augmenting path if the factor is
    full; False when no such path exists."""
    for i, d in enumerate(rows[j]):
        if d and i not in seen:
            seen.add(i)
            if len(placed[i]) < ns[i]:
                placed[i].append(j)
                return True
            for k, other in enumerate(placed[i]):
                if _place(other, rows, ns, placed, seen):
                    placed[i][k] = j
                    return True
    return False


def _intersection_pairing(rows, ns):
    """Each top monomial H^e of the nonempty complete intersection X of the
    divisors ``rows`` in CP(N_1) x ... x CP(N_m), mapped to <H^e, [X]>.  By
    the projection formula <a, [X]> = <a D_1...D_r, [ambient]> (Fulton,
    Intersection Theory, 2.5), that is the coefficient of H^(N-e) in
    D_1...D_r.  The product is taken one row at a time and truncated at
    e_i <= N_i as it goes; no coefficient cancels, so every term kept is
    nonzero.
    """
    products = {(0,) * len(ns): 1}
    for row in rows:
        out = {}
        for mono, c in products.items():
            for i, d in enumerate(row):
                if d and mono[i] < ns[i]:
                    e = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                    out[e] = out.get(e, 0) + c * d
        products = out
    return {tuple(N - e for N, e in zip(ns, mono)): c
            for mono, c in products.items()}


def _signed_degrees(rows, m):
    """The signed multidegrees d_S of the Koszul sum: the terms of
    prod over the rows of (1 - z^row), in m variables."""
    signed = {(0,) * m: 1}
    for row in rows:
        signed = _sparse_mul(signed, {(0,) * m: 1, tuple(row): -1})
    return signed


def _koszul_value(rows, ns, t: int) -> int:
    """chi(X, O(t H_1)) at an integer t on the complete intersection X of
    the divisors ``rows`` in CP(N_1) x ... x CP(N_m): the Koszul sum of
    ``engine._koszul_chi``, each binomial evaluated where it stands.  At
    t = 0 it is the Todd genus of X."""
    return sum(sign * _binomial(ns[0], t - d[0])
               * math.prod(_binomial(N, -di) for N, di in zip(ns[1:], d[1:]))
               for d, sign in _signed_degrees(rows, len(ns)).items())


def _binomial(n: int, u: int) -> int:
    """The polynomial C(n + u, n) = (u + 1)...(u + n) / n! at an integer u:
    it vanishes at u = -n, ..., -1, and is (-1)^n C(-u - 1, n) below."""
    if u >= 0:
        return math.comb(n + u, n)
    if u >= -n:
        return 0
    return (-1) ** n * math.comb(-u - 1, n)
