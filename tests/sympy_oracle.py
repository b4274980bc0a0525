"""sympy views of the package's values, for the tests that use sympy as an
independent oracle: a ``SymmetricPolynomial`` as a polynomial, a matrix of
ints and Fractions as a ``sympy.Matrix``.  The package itself never imports
sympy."""

from fractions import Fraction

import sympy


def as_poly(sym):
    """``sym`` as a ``sympy.Poly`` in x1..x_nvars; no terms is the zero
    polynomial."""
    return sympy.Poly.from_dict(dict(sym.terms) or {(0,) * sym.nvars: 0},
                                sympy.symbols("x1:%d" % (sym.nvars + 1)))


def as_expr(sym):
    return as_poly(sym).as_expr()


def as_matrix(rows):
    """Rows of ints or Fractions as a ``sympy.Matrix`` of Rationals."""
    return sympy.Matrix([[sympy.Rational(Fraction(x).numerator,
                                         Fraction(x).denominator) for x in row]
                         for row in rows])


def as_fraction(x):
    """A sympy Rational as a Fraction."""
    return Fraction(int(x.p), int(x.q))


def solve(rows, rhs):
    """The unique solution of rows x = rhs as Fractions, or None when the
    rows have rank below the number of unknowns or the system is
    inconsistent; by ``sympy.Matrix.LUsolve``."""
    a = as_matrix(rows)
    if a.rank() < a.cols:
        return None
    try:
        x = a.LUsolve(as_matrix([[b] for b in rhs]))
    except ValueError:          # "The system is inconsistent."
        return None
    return [as_fraction(v) for v in x]
