"""Localization pushforwards, primitive components, Segre cross-checks."""

import functools
import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from batch_pool import golden_pushforward
from sympy import Integer, Rational, Symbol, expand, symbols
from sympy.polys.polyfuncs import symmetrize
from sympy_oracle import as_expr, as_poly
from test_cli import _child_env

from sysbound.catalog import projective_space
from sysbound.characteristic import ChernData
from sysbound.errors import (NonPolynomialResult, PreconditionUnmet,
                             TooFewVariables)
from sysbound.kernel import _sparse_mul
from sysbound.pushforward import (_MAX_J, _MAX_R, SEGRE_SIGN,
                                  SymmetricPolynomial, _check_at_fixed_point,
                                  _fixed_points, _schur_coefficients,
                                  _schur_monomials, _specialization,
                                  _standard_tableaux, bracket_formula,
                                  localization_pushforward,
                                  primitive_coefficient, segre_pushforward,
                                  segre_series_at)

#: every case inside the caps r <= 6, j <= 6
_ALL_CASES = [(k, r, j) for r in range(2, 7) for k in range(1, r)
              for j in range(0, 7)]


def power_sum_expansion(sym: SymmetricPolynomial, degree: int):
    """Oracle: rewrite a homogeneous symmetric polynomial in power sums.

    Returns a sympy expression in symbols p1..p_degree, through sympy's
    ``symmetrize`` (elementary symmetric polynomials) and Newton's
    identities.  Requires the number of variables to be at least the degree,
    otherwise the power sums are algebraically dependent.
    """
    if degree > sym.nvars:
        raise TooFewVariables(
            "power-sum independence needs at least %d variables (have %d)"
            % (degree, sym.nvars))
    expr, remainder, mapping = symmetrize(as_expr(sym), *as_poly(sym).gens,
                                          formal=True)
    if remainder != 0:
        raise PreconditionUnmet("polynomial is not symmetric")
    ps = [None] + [Symbol("p%d" % i) for i in range(1, degree + 1)]
    elementary = [Integer(1)]
    for i in range(1, degree + 1):
        acc = Integer(0)
        for m in range(1, i + 1):
            acc += (-1) ** (m - 1) * elementary[i - m] * ps[m]
        elementary.append(expand(acc / i))
    subs_map = {}
    for s_sym, _ in mapping:
        idx = int(str(s_sym)[1:])
        subs_map[s_sym] = elementary[idx] if idx <= degree else Integer(0)
    return expand(expr.subs(subs_map))


def _localization_sum(k, r, j, xs):
    """The defining fixed-point sum, evaluated in Fractions at the roots xs."""
    q = k * (r - k)
    total = Fraction(0)
    for subset in itertools.combinations(range(r), k):
        numerator = (-sum(xs[i] for i in subset)) ** (q + j)
        denominator = math.prod(xs[l] - xs[i] for i in subset
                                for l in range(r) if l not in subset)
        total += numerator / denominator
    return total


def _g0(k, r, j):
    """(-(x_1+...+x_k))^(q+j) * Delta(x_1..x_k) * Delta(x_(k+1)..x_r)."""
    x = [tuple(int(i == l) for i in range(r)) for l in range(r)]
    factors = [{x[l]: -1 for l in range(k)}] * (k * (r - k) + j)
    factors += [{x[b]: 1, x[a]: -1} for block in (range(k), range(k, r))
                for a, b in itertools.combinations(block, 2)]
    return functools.reduce(_sparse_mul, factors, {(0,) * r: 1})


def _antisymmetrized_coefficients(k, r, j):
    """Oracle: k!(r-k)! times the Schur coefficients, from the expansion.

    The localization sum is the antisymmetrization of g0 over S_r divided
    by the Vandermonde and by k!(r-k)!.  By the bialternant formula
    (Macdonald, I.3) each monomial x^alpha of g0 with distinct exponents
    adds its sorting sign times s_(sort(alpha) - delta).
    """
    raw = {}
    for alpha, c in _g0(k, r, j).items():
        if len(set(alpha)) < r:
            continue
        inversions = sum(a < b for a, b in itertools.combinations(alpha, 2))
        lam = tuple(e - (r - 1 - i)
                    for i, e in enumerate(sorted(alpha, reverse=True)))
        lam = tuple(p for p in lam if p)
        raw[lam] = raw.get(lam, 0) + (-1) ** inversions * c
    sign = (-1) ** (r * (r - 1) // 2)
    return {lam: sign * v for lam, v in raw.items() if v}


def test_closed_form_matches_the_antisymmetrized_expansion():
    for k, r, j in _ALL_CASES:
        orbit = math.factorial(k) * math.factorial(r - k)
        expected = {lam: Fraction(v, orbit) for lam, v
                    in _antisymmetrized_coefficients(k, r, j).items()}
        assert dict(_schur_coefficients(k, r, j)) == expected, (k, r, j)


def test_fixed_point_check_catches_each_changed_coefficient():
    changed_cases = 0
    for k, r, j in _ALL_CASES:
        coeffs = _schur_coefficients(k, r, j)
        _check_at_fixed_point(k, r, j, coeffs)
        prefix = r"^localization sum for \(k, r, j\) = \(%d, %d, %d\) " \
            % (k, r, j)
        for i, (lam, d) in enumerate(coeffs):
            for delta in (1, -1):
                changed = coeffs[:i] + ((lam, d + delta),) + coeffs[i + 1:]
                with pytest.raises(NonPolynomialResult, match=prefix):
                    _check_at_fixed_point(k, r, j, changed)
                changed_cases += 1
    assert changed_cases == 502


def test_base_case_minus_p1():
    sym = localization_pushforward(1, 2, 1)
    x1, x2 = symbols("x1 x2")
    assert expand(as_expr(sym) + x1 + x2) == 0
    assert sym.is_symmetric()


def test_degree_zero_is_fiber_degree():
    # pushforward of the top fiber power is the degree of the fiber
    # Grassmannian: 1 for projective fibers, 2 for G(2,4), 5 for G(2,5)
    assert as_expr(localization_pushforward(1, 2, 0)) == 1
    assert as_expr(localization_pushforward(1, 4, 0)) == 1
    assert as_expr(localization_pushforward(3, 4, 0)) == 1
    assert as_expr(localization_pushforward(2, 4, 0)) == 2
    assert as_expr(localization_pushforward(2, 5, 0)) == 5


def test_polynomiality_sweep():
    for r in range(2, 6):
        for k in range(1, r):
            for j in range(0, 5):
                sym = localization_pushforward(k, r, j)
                poly = as_poly(sym)
                if j == 0:
                    assert poly.is_zero or poly.total_degree() == 0
                else:
                    assert poly.total_degree() == j
                assert sym.is_symmetric()


def test_complete_homogeneous_identity_for_projective_fibers():
    # P^(1,r)_b = (-1)^b h_b: check against an independent generating-series
    # oracle at rational sample points
    rng = random.Random(17)
    for r in (2, 3, 4, 5):
        for b in (1, 2, 3):
            sym = localization_pushforward(1, r, b)
            for _ in range(3):
                vals = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        for _ in range(r)]
                lhs = sym.evaluate(vals)
                rhs = SEGRE_SIGN * segre_series_at(vals, b)
                assert lhs == rhs


def test_primitive_coefficient_examples():
    assert primitive_coefficient(1, 2, 1) == -1
    assert primitive_coefficient(1, 3, 1) == -1
    assert primitive_coefficient(2, 3, 1) == -2
    assert primitive_coefficient(1, 2, 2) == Fraction(1, 2)


def test_primitive_coefficient_tracks_bracket_for_b_at_least_two():
    # [P]_prim = C * bracket with C nonzero, computed not assumed
    for (k, r) in ((1, 3), (2, 3), (1, 4), (2, 5)):
        for b in range(2, min(r, 4) + 1):
            prim = primitive_coefficient(k, r, b)
            bracket = bracket_formula(k, r, b)
            assert bracket != 0
            assert prim != 0
            assert (prim / bracket) != 0


def test_primitive_vanishing_locus_at_r_equals_2k():
    """At r = 2k the bracket (and the coefficient) vanish for odd b >= 3.

    Even b always survive; b = 1 survives too (the class is a nonzero
    multiple of p_1 even though the closed-form bracket degenerates there).
    """
    for k in (1, 2, 3):
        r = 2 * k
        for b in range(1, min(6, r) + 1):
            prim = primitive_coefficient(k, r, b)
            if b % 2 == 1 and b >= 3:
                assert prim == 0, (k, r, b)
            else:
                assert prim != 0, (k, r, b)
            if b >= 2:
                bracket = bracket_formula(k, r, b)
                assert (bracket == 0) == (prim == 0)


def test_primitive_needs_enough_variables():
    with pytest.raises(TooFewVariables):
        primitive_coefficient(1, 2, 3)


def test_localization_matches_the_defining_sum():
    rng = random.Random(2024)
    for k, r, j in _ALL_CASES:
        sym = localization_pushforward(k, r, j)
        for _ in range(2):
            xs = []
            while len(xs) < r:
                x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                if x not in xs:
                    xs.append(x)
            assert sym.evaluate(xs) == _localization_sum(k, r, j, xs), \
                (k, r, j, xs)


def test_printed_class_matches_sympy():
    for k, r, j in _ALL_CASES:
        sym = localization_pushforward(k, r, j)
        assert str(sym) == str(as_expr(sym)), (k, r, j)


def test_primitive_coefficient_matches_power_sum_route():
    # hook sum of the Schur coefficients against sympy's symmetrize route
    for r in range(2, 5):
        for k in range(1, r):
            for b in range(1, r + 1):
                expr = power_sum_expansion(localization_pushforward(k, r, b), b)
                ps = [Symbol("p%d" % i) for i in range(1, b + 1)]
                expr = expand(expr.subs({p: 0 for p in ps[:-1]}))
                coeff = Rational(expr.coeff(ps[-1]))
                assert primitive_coefficient(k, r, b) == \
                    Fraction(int(coeff.p), int(coeff.q)), (k, r, b)


def test_is_symmetric_rejects_asymmetric_polynomials():
    # x1 alone, and x1 + 2*x2 + x3: a missing and a mismatched orbit partner
    assert not SymmetricPolynomial(terms=(((1, 0), 1),), nvars=2).is_symmetric()
    lopsided = SymmetricPolynomial(terms=(((1, 0, 0), 1), ((0, 1, 0), 2),
                                          ((0, 0, 1), 1)), nvars=3)
    assert not lopsided.is_symmetric()
    assert SymmetricPolynomial(terms=(), nvars=3).is_symmetric()


def test_power_sum_expansion_roundtrip():
    # h_2 = (p1^2 + p2)/2 in 3 variables
    sym = localization_pushforward(1, 3, 2)
    expr = power_sum_expansion(sym, 2)
    p1, p2 = Symbol("p1"), Symbol("p2")
    assert expand(expr - (p1 ** 2 + p2) / 2) == 0


def test_segre_pushforward_classes():
    cp5 = projective_space(5)
    H = cp5.ring.gen("H")
    line = ChernData(rank=1, total=1 + 3 * H)
    assert segre_pushforward(line, 1) == -3 * H
    trivial = ChernData(rank=2, total=cp5.ring.one())
    for b in (1, 2):
        assert segre_pushforward(trivial, b).is_zero()


def test_segre_contains_product_monomial():
    # for (1 + N1 a1)(1 + N2 a2) the degree-2 Segre class contains the
    # monomial N1 N2 a1 a2 (sign (-1)^d with d = 2)
    from sysbound.catalog import product
    prod = product(projective_space(2), projective_space(2))
    a1, a2 = prod.ring.gen("H1"), prod.ring.gen("H2")
    for n1, n2 in ((2, 3), (1, 5)):
        bundle = ChernData(rank=2, total=(1 + n1 * a1) * (1 + n2 * a2))
        s2 = segre_pushforward(bundle, 2)
        mono = tuple(1 if g.name in ("H1", "H2") else 0
                     for g in prod.ring.generators)
        assert s2.coefficient(mono) == n1 * n2
        # full value from the series oracle: s2 = c1^2 - c2
        assert s2 == (n1 * a1 + n2 * a2) ** 2 - (n1 * n2) * (a1 * a2)


#: the 40 cases of the primitive-coefficient table, in table order
_TABLE = [(k, r, b) for r in range(2, 6) for k in range(1, r)
          for b in range(1, r + 1)]

_MEMOS = (_fixed_points, _specialization, _standard_tableaux,
          _schur_coefficients, _schur_monomials)


def test_localization_caps():
    # r = 6 and j = 6 answer; r = 7 and j = 7 are refused before any memo
    # takes an entry
    assert (_MAX_R, _MAX_J) == (6, 6)
    for k, r, j in ((1, 6, 1), (5, 6, 0), (1, 2, 6), (3, 6, 6)):
        assert localization_pushforward(k, r, j).is_symmetric()
    assert primitive_coefficient(3, 6, 3) == 0 != primitive_coefficient(3, 6, 6)
    sizes = [memo.cache_info().currsize for memo in _MEMOS]
    caps = r"^desk-scale caps: r <= 6, j <= 6$"
    for k, r, j in ((1, 7, 1), (6, 7, 0), (1, 2, 7), (3, 6, 7)):
        with pytest.raises(PreconditionUnmet, match=caps):
            localization_pushforward(k, r, j)
    for k, b in ((1, 1), (3, 7)):
        with pytest.raises(PreconditionUnmet, match=caps):
            primitive_coefficient(k, 7, b)
    assert [memo.cache_info().currsize for memo in _MEMOS] == sizes
    with pytest.raises(PreconditionUnmet):
        localization_pushforward(2, 2, 1)


def test_memoized_fixed_point_data_match_the_fraction_oracles():
    # the per-(k, r) weights against the defining sum in Fractions, and each
    # s_lambda(1, 2, ..., 2^(r-1)) against its monomial expansion
    for k, r, j in _ALL_CASES:
        coeffs = _schur_coefficients(k, r, j)
        xs = [2 ** i for i in range(r)]
        vandermonde = math.prod(b - a for a, b in itertools.combinations(xs, 2))
        v, points = _fixed_points(k, r)
        assert v == vandermonde
        left = sum(s ** (k * (r - k) + j) * w for s, w in points)
        assert left == vandermonde * _localization_sum(
            k, r, j, list(map(Fraction, xs))), (k, r, j)
        for lam, _ in coeffs:
            assert _specialization(lam, r) == sum(
                c * math.prod(x ** e for x, e in zip(xs, alpha))
                for alpha, c in _schur_monomials(lam, r)), (lam, r)


_TABLE_CHILD = r'''
import json, sys
from sysbound.pushforward import primitive_coefficient
print(json.dumps([str(primitive_coefficient(*case))
                  for case in json.loads(sys.argv[1])]))
'''


def test_table_in_reverse_order_from_a_cold_memo_answers_the_same():
    # a memo keyed on too few indices would answer a case with the data of
    # one met before it, so the order would show
    def cold(cases):
        proc = subprocess.run([sys.executable, "-c", _TABLE_CHILD,
                               json.dumps(cases)], capture_output=True,
                              text=True, env=_child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        return dict(zip(cases, json.loads(proc.stdout)))

    forward = cold(_TABLE)
    assert cold(_TABLE[::-1]) == forward
    assert forward == {case: golden_pushforward()["%d,%d,%d" % case]
                       for case in _TABLE}
