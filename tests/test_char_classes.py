"""Characteristic classes against independent Taylor-series oracles."""

import math
import random
from fractions import Fraction

import pytest

from batch_pool import BATCH_POOL
from sysbound.catalog import (complete_intersection, integrate, product,
                              projective_space, quadric)
from sysbound.characteristic import (ChernData, a_hat, chern_character,
                                     chern_from_power_sums, newton_power_sums,
                                     todd, whitney_quotient)
from sysbound.cli import parse_space
from sysbound.errors import DivisionInconsistent
from sysbound.graded import exp_class, exp_nilpotent, truncated_polynomial_ring


# -- independent series oracle (direct inversion, no logarithms) -------------

def _series_mul(a, b, prec):
    out = [Fraction(0)] * (prec + 1)
    for i, ai in enumerate(a[: prec + 1]):
        for j, bj in enumerate(b[: prec + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_inverse(a, prec):
    out = [Fraction(1)] + [Fraction(0)] * prec
    for n in range(1, prec + 1):
        out[n] = -sum(a[k] * out[n - k] for k in range(1, n + 1))
    return out


def _ahat_line_series(prec):
    # invert sinh(x/2)/(x/2) = sum x^(2k) / (4^k (2k+1)!)
    s = [Fraction(0)] * (prec + 1)
    for k in range(prec // 2 + 1):
        s[2 * k] = Fraction(1, 4 ** k * math.factorial(2 * k + 1))
    return _series_inverse(s, prec)


def _todd_line_series(prec):
    # invert (1 - e^(-x))/x = sum (-1)^k x^k/(k+1)!
    s = [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(prec + 1)]
    return _series_inverse(s, prec)


def _series_log(a, prec):
    """log of a series with constant term 1, by integrating a'/a."""
    deriv = [(k + 1) * a[k + 1] for k in range(prec)]
    quot = _series_mul(deriv, _series_inverse(a, prec), prec - 1)
    return [Fraction(0)] + [c / (k + 1) for k, c in enumerate(quot)]


def _todd_log_coeffs(prec):
    """Coefficients of log(x/(1-exp(-x))) up to degree prec."""
    # (1 - exp(-x))/x = sum (-1)^k x^k / (k+1)!
    s = [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(prec + 1)]
    return [-c for c in _series_log(s, prec)]


def _newton_oracle(c, upto=None):
    """Power sums p_1..p_upto by Newton's recursion
    p_k - c_1 p_{k-1} + ... + (-1)^(k-1) c_{k-1} p_1 + (-1)^k k c_k = 0;
    the library reads them off log c instead."""
    ring = c.ring
    m = upto if upto is not None else ring.truncation // 2
    ps = []
    for k in range(1, m + 1):
        acc = ring.zero()
        for j in range(1, k):
            acc = acc + (-1) ** (j - 1) * c.chern(j) * ps[k - j - 1]
        acc = acc - ((-1) ** k * k) * c.chern(k)
        ps.append(acc)
    return ps


def _todd_oracle(c):
    """Todd by its own log series on the Chern roots' power sums; the
    library reads Todd off A-hat instead."""
    ps = _newton_oracle(c)
    coeffs = _todd_log_coeffs(len(ps))
    z = c.ring.zero()
    for m, p in enumerate(ps, 1):
        z = z + coeffs[m] * p
    return exp_nilpotent(z)


def _line_bundle(max_power):
    ring = truncated_polynomial_ring("x", 2, max_power, 1)
    return ring, ChernData(rank=1, total=1 + ring.gen("x"))


def test_ahat_line_bundle_series():
    ring, line = _line_bundle(4)
    x = ring.gen("x")
    oracle = _ahat_line_series(4)
    assert oracle[2] == Fraction(-1, 24) and oracle[4] == Fraction(7, 5760)
    expected = ring.one() + oracle[2] * x ** 2 + oracle[4] * x ** 4
    assert a_hat(line) == expected


def test_ahat_log_coefficients_match_the_log_of_the_line_series():
    # the closed form -B_2k / (2k (2k)!) against the log of the inverted
    # sinh series, degree by degree up to 20
    from sysbound.characteristic import _ahat_log_coeffs
    for prec in range(21):
        oracle = _series_log(_ahat_line_series(prec), prec)
        assert list(_ahat_log_coeffs(prec)) == oracle, prec
    assert _ahat_log_coeffs(4)[2:] == (Fraction(-1, 24), 0, Fraction(1, 2880))


def test_todd_line_bundle_series():
    ring, line = _line_bundle(4)
    x = ring.gen("x")
    oracle = _todd_line_series(4)
    assert oracle[1] == Fraction(1, 2)
    assert oracle[2] == Fraction(1, 12)
    assert oracle[3] == 0
    assert oracle[4] == Fraction(-1, 720)
    expected = (ring.one() + oracle[1] * x + oracle[2] * x ** 2
                + oracle[4] * x ** 4)
    assert todd(line) == expected


def test_trivial_bundle_classes():
    ring, _ = _line_bundle(4)
    trivial = ChernData(rank=3, total=ring.one())
    assert a_hat(trivial) == ring.one()
    assert todd(trivial) == ring.one()
    ps = newton_power_sums(trivial)
    assert all(p.is_zero() for p in ps.sums)


def test_newton_rank_two():
    # p2 = c1^2 - 2 c2, from expanding (x1 + x2)^2 - 2 x1 x2
    prod = product(projective_space(2), projective_space(2))
    h1, h2 = prod.ring.gen("H1"), prod.ring.gen("H2")
    bundle = ChernData(rank=2, total=(1 + h1) * (1 + h2))
    ps = newton_power_sums(bundle, upto=2)
    c1, c2 = h1 + h2, h1 * h2
    assert ps[1] == c1
    assert ps[2] == c1 ** 2 - 2 * c2


def test_newton_concentrated_class():
    # c = 1 + N alpha in degree 2b: p_j = 0 below b, p_b = (-1)^(b-1) b N alpha
    ring = truncated_polynomial_ring("H", 2, 6, 1)
    H = ring.gen("H")
    for b, N in ((2, 5), (3, 7)):
        bundle = ChernData(rank=b, total=1 + N * H ** b)
        ps = newton_power_sums(bundle, upto=b)
        for j in range(1, b):
            assert ps[j].is_zero()
        assert ps[b] == ((-1) ** (b - 1) * b * N) * H ** b


def _sample_bundle(space):
    """The tangent bundle, or on a space without one the sum over each
    degree-2 generator g of O(g)^3 + O(-2g)."""
    if space.tangent is not None:
        return space.tangent
    ring = space.ring
    total, rank = ring.one(), 0
    for gen in ring.generators:
        if gen.degree == 2:
            g = ring.gen(gen.name)
            total, rank = total * (1 + g) ** 3 * (1 - 2 * g), rank + 4
    return ChernData(rank=rank, total=total)


def test_power_sums_match_newton_recursion():
    descriptors = ["CP(1)", "CP(4)", "CP(7)", "Q(3)", "Q(6)",
                   "CI(degrees=[[3]]; ambient=[5])",
                   "CI(degrees=[[2],[3]]; ambient=[6])",
                   "CI(degrees=[[1,1],[1,1]]; ambient=[4,4])",
                   "PB(degrees=[0,1,2]; genus=0)",
                   "PB(degrees=[1,1,1,1]; genus=2)",
                   "CP(5) * S1", "CP(2) * S(2)", "CP(3) * CP(3)"]
    for d in descriptors:
        c = _sample_bundle(parse_space(d).build())
        half = c.ring.truncation // 2
        for upto in (None, 1, half, half + 2):
            assert list(newton_power_sums(c, upto).sums) == \
                _newton_oracle(c, upto), (d, upto)
        assert newton_power_sums(c, half + 2)[half + 1].is_zero()


def test_power_sum_round_trip():
    spaces = [projective_space(4), quadric(3),
              complete_intersection([[2], [3]], [6])]
    for space in spaces:
        c = space.tangent
        ps = newton_power_sums(c)
        back = chern_from_power_sums(space.ring, c.rank, ps)
        assert back.total == c.total


def test_todd_equals_exp_half_c1_times_ahat():
    spaces = [projective_space(n) for n in range(1, 7)]
    spaces += [quadric(n) for n in (2, 3, 4, 5)]
    spaces += [complete_intersection([[3]], [5]),
               complete_intersection([[2], [2]], [6])]
    # every complex space of the benchmark pool with tangent data: products
    # (Todd from the factors' A-hat) and twists (A-hat shared) included
    pool = [parse_space(d).build() for d in BATCH_POOL]
    pool = [s for s in pool if s.is_complex and s.tangent is not None]
    assert {"product", "CP", "Q", "CI", "PB"} <= {s.family for s in pool}
    assert any("twist" in space.name for space in pool)
    for space in spaces + pool:
        c = space.tangent
        oracle = _todd_oracle(c)
        assert oracle == exp_class(c.chern(1) * Fraction(1, 2)) * a_hat(c)
        assert todd(c) == oracle, space.name
        assert space.todd_cls == oracle, space.name


def test_ahat_multiplicative_on_sums():
    prod = product(projective_space(2), projective_space(3))
    h1, h2 = prod.ring.gen("H1"), prod.ring.gen("H2")
    l1 = ChernData(rank=1, total=1 + 2 * h1)
    l2 = ChernData(rank=1, total=1 + 3 * h2)
    both = ChernData(rank=2, total=(1 + 2 * h1) * (1 + 3 * h2))
    assert a_hat(both) == a_hat(l1) * a_hat(l2)


def test_chern_character_line_and_additivity():
    cp4 = projective_space(4)
    H = cp4.ring.gen("H")
    line = ChernData(rank=1, total=1 + 2 * H)
    assert chern_character(line) == exp_class(2 * H)
    other = ChernData(rank=1, total=1 - H)
    direct_sum = ChernData(rank=2, total=(1 + 2 * H) * (1 - H))
    assert chern_character(direct_sum) == chern_character(line) + chern_character(other)


def test_chern_character_twist_by_line():
    cp4 = projective_space(4)
    H = cp4.ring.gen("H")
    e = ChernData(rank=2, total=(1 + H) * (1 + 3 * H))
    # tensoring with a line bundle of class x multiplies ch by e^x
    twisted = ChernData(rank=2, total=(1 + 2 * H) * (1 + 4 * H))
    assert chern_character(twisted) == chern_character(e) * exp_class(H)


def test_difference_of_bundles_identity():
    # sum (-1)^(Q-a) binom(Q,a) e^(a v) = (e^v - 1)^Q at Q = 2
    cp4 = projective_space(4)
    v = cp4.ring.gen("H")
    lhs = cp4.ring.zero()
    for a in range(0, 3):
        lhs = lhs + ((-1) ** (2 - a) * math.comb(2, a)) * exp_class(a * v)
    rhs = (exp_class(v) - 1) ** 2
    assert lhs == rhs


def test_whitney_quotient_quadric_and_cubic():
    q4 = quadric(4)
    assert q4.c1 == 4 * q4.ring.gen("H")
    cubic = complete_intersection([[3]], [4])
    assert cubic.c1 == 2 * cubic.ring.gen("H")


def test_whitney_quotient_by_trivial_bundle():
    cp3 = projective_space(3)
    trivial = ChernData(rank=1, total=cp3.ring.one())
    out = whitney_quotient(cp3.tangent, trivial)
    assert out.total == cp3.tangent.total
    assert out.rank == cp3.tangent.rank - 1


def test_whitney_quotient_inverts_product():
    rng = random.Random(3)
    cp4 = projective_space(4)
    H = cp4.ring.gen("H")
    for _ in range(5):
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        ambient = ChernData(rank=5, total=(1 + a * H) * (1 + b * H) * (1 + c * H))
        normal = ChernData(rank=1, total=1 + c * H)
        quotient = whitney_quotient(ambient, normal)
        assert quotient.total * normal.total == ambient.total


def test_division_needs_unit_constant_term():
    cp3 = projective_space(3)
    H = cp3.ring.gen("H")
    with pytest.raises(DivisionInconsistent):
        ChernData(rank=1, total=2 * cp3.ring.one() + H)


def test_todd_of_cp1_tangent():
    cp1 = projective_space(1)
    H = cp1.ring.gen("H")
    assert cp1.todd_cls == 1 + H
    assert integrate(cp1, cp1.todd_cls) == 1
