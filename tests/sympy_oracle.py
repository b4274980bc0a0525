"""sympy views of a ``SymmetricPolynomial``, for the tests that use sympy as
an independent oracle.  The package itself never imports sympy."""

import sympy


def as_poly(sym):
    """``sym`` as a ``sympy.Poly`` in x1..x_nvars; no terms is the zero
    polynomial."""
    return sympy.Poly.from_dict(dict(sym.terms) or {(0,) * sym.nvars: 0},
                                sympy.symbols("x1:%d" % (sym.nvars + 1)))


def as_expr(sym):
    return as_poly(sym).as_expr()
