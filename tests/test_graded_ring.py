"""Ring arithmetic: normal forms, Koszul signs, pairing, exponentials."""

import random
from fractions import Fraction

import pytest

from sysbound.catalog import blowup_point, circle, integrate, product, projective_space
from sysbound.errors import InvalidPresentation, NotDegreeTwo, RingMismatch
from sysbound.graded import (Generator, RingPresentation, exp_class, make_ring,
                             truncated_polynomial_ring)


def test_projective_ring_pieces():
    ring = truncated_polynomial_ring("H", 2, 3, 1)
    H = ring.gen("H")
    degrees = [(H ** k).degrees() for k in range(5)]
    assert degrees == [[0], [2], [4], [6], []]


def test_odd_generator_squares_to_zero():
    ring = truncated_polynomial_ring("xi", 1, 1, 1)
    xi = ring.gen("xi")
    assert (xi * xi).is_zero()


def test_degree_raising_rule_rejected():
    gens = [Generator("H", 2, False)]
    with pytest.raises(InvalidPresentation):
        make_ring(RingPresentation(
            generators=gens, truncation=8,
            power_rules={"H": (3, {(4,): Fraction(1)})},
            pairing={(4,): Fraction(1)}))


def test_parity_must_match_degree():
    with pytest.raises(InvalidPresentation):
        Generator("H", 2, True)


def test_pairing_must_be_top_degree():
    gens = [Generator("H", 2, False)]
    with pytest.raises(InvalidPresentation):
        make_ring(RingPresentation(
            generators=gens, truncation=4,
            power_rules={"H": (3, {})},
            pairing={(1,): Fraction(1)}))


def test_zero_pairing_rejected():
    gens = [Generator("H", 2, False)]
    with pytest.raises(InvalidPresentation):
        make_ring(RingPresentation(
            generators=gens, truncation=4,
            power_rules={"H": (3, {})},
            pairing={(2,): Fraction(0)}))


def test_simple_products():
    cp2 = projective_space(2)
    H = cp2.ring.gen("H")
    assert H * H == H ** 2
    assert (H ** 3).is_zero()


def test_blowup_binomial_expansion():
    # (3H - E)^2 = 9H^2 - 6HE + E^2, and HE -> 0
    bl = blowup_point(2)
    H, E = bl.ring.gen("H"), bl.ring.gen("E")
    expansion = (3 * H - E) ** 2
    assert expansion == 9 * H ** 2 + E ** 2
    # the pairing <E^2> = -1 makes the integral a^2 - b^2
    assert integrate(bl, expansion) == 8


def test_ring_mismatch_detected():
    a = projective_space(2)
    b = projective_space(2)
    with pytest.raises(RingMismatch):
        a.ring.gen("H") * b.ring.gen("H")


def test_integrate_below_top_degree():
    cp3 = projective_space(3)
    H = cp3.ring.gen("H")
    assert integrate(cp3, H) == 0
    assert integrate(cp3, H ** 3) == 1


def test_quadric_pairing_from_ambient_bezout():
    # oracle: <H^n . 2H> in the ambient CP^(n+1) ring
    from sysbound.catalog import quadric
    for n in (2, 3, 4):
        ambient = projective_space(n + 1)
        H = ambient.ring.gen("H")
        oracle = integrate(ambient, (H ** n) * (2 * H))
        q = quadric(n)
        assert integrate(q, q.ring.gen("H") ** n) == oracle == 2


def test_exp_class_truncation():
    cp2 = projective_space(2)
    H = cp2.ring.gen("H")
    e = exp_class(H)
    assert e == 1 + H + Fraction(1, 2) * H ** 2
    assert exp_class(cp2.ring.zero()) == cp2.ring.one()


def test_exp_requires_degree_two():
    cp2 = projective_space(2)
    H = cp2.ring.gen("H")
    with pytest.raises(NotDegreeTwo):
        exp_class(H ** 2)


def test_exp_group_law():
    rng = random.Random(7)
    prod = product(projective_space(2), projective_space(3))
    h1, h2 = prod.ring.gen("H1"), prod.ring.gen("H2")
    for _ in range(10):
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        x = a * h1 + b * h2
        y = b * h1 - a * h2
        assert exp_class(x) * exp_class(-1 * x) == prod.ring.one()
        assert exp_class(x + y) == exp_class(x) * exp_class(y)


def _random_class(ring, rng, max_coeff=5):
    cls = ring.zero()
    for gen in ring.generators:
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            cls = cls + c * ring.gen(gen.name)
    if rng.random() < 0.5:
        cls = cls + rng.randint(-3, 3)
    return cls


def test_associativity_on_random_classes():
    rng = random.Random(11)
    spaces = [projective_space(3), blowup_point(3),
              product(projective_space(2), circle())]
    for space in spaces:
        for _ in range(15):
            a = _random_class(space.ring, rng)
            b = _random_class(space.ring, rng)
            c = _random_class(space.ring, rng)
            assert (a * b) * c == a * (b * c)


def test_koszul_commutativity():
    # a b = (-1)^{|a||b|} b a on homogeneous classes, with odd classes present
    m = product(product(projective_space(1), circle()), circle())
    ring = m.ring
    names = ring.gen_names()
    odd = [ring.gen(n) for n in names if ring.generators[ring.index[n]].odd]
    even = [ring.gen(n) for n in names if not ring.generators[ring.index[n]].odd]
    xi, eta = odd[0], odd[1]
    h = even[0]
    assert xi * eta == -1 * (eta * xi)
    assert xi * h == h * xi
    assert (xi * xi).is_zero()


def test_koszul_commutativity_random_homogeneous():
    rng = random.Random(19)
    m = product(product(projective_space(2), circle()), circle())
    ring = m.ring

    def random_homogeneous(degree):
        cls = ring.zero()
        for gen in ring.generators:
            if gen.degree == degree:
                cls = cls + rng.randint(-3, 3) * ring.gen(gen.name)
        if degree == 2:
            # include the product of the two odd generators
            odd = [g.name for g in ring.generators if g.odd]
            cls = cls + rng.randint(-3, 3) * (ring.gen(odd[0]) * ring.gen(odd[1]))
        return cls

    for _ in range(20):
        da, db = rng.choice((1, 2)), rng.choice((1, 2))
        a = random_homogeneous(da)
        b = random_homogeneous(db)
        sign = -1 if (da % 2 and db % 2) else 1
        assert a * b == sign * (b * a)


def test_kunneth_pairing_with_odd_factor():
    m = product(projective_space(2), circle())
    h = m.ring.gen("H")
    t = m.ring.gen("t")
    assert integrate(m, h ** 2 * t) == 1
    assert integrate(m, t * h ** 2) == 1


def test_integrate_is_linear():
    cp3 = projective_space(3)
    H = cp3.ring.gen("H")
    a, b = H ** 3, H ** 2
    assert integrate(cp3, 2 * a + 3 * b) == 2 * integrate(cp3, a) + 3 * integrate(cp3, b)


def test_a_rule_with_more_than_one_monomial_is_refused():
    # a^25 -> a^24 b + a^23 b^2 lowers the monomial order, but its right
    # side has two monomials, so a normal form would branch
    gens = [Generator("a", 2, False), Generator("b", 2, False)]
    with pytest.raises(InvalidPresentation, match="2 monomials"):
        make_ring(RingPresentation(
            generators=gens, truncation=96,
            power_rules={"a": (25, {(24, 1): 1, (23, 2): 1})},
            pairing={(0, 48): 1}))
    # one of its monomials alone is a rule; a^48 = a^24 * a^24 rewrites
    # along one path, a^48 -> a^47 b -> ... -> a^24 b^24, in 24 steps
    ring = make_ring(RingPresentation(
        generators=gens, truncation=96,
        power_rules={"a": (25, {(24, 1): 1}), "b": (25, {})},
        pairing={(24, 24): 1}))
    x = ring.from_terms({(24, 0): 1})
    assert x * x == ring.from_terms({(24, 24): 1})
    assert ring.integrate_top(x * x) == 1
    y = ring.from_terms({(13, 0): 1})
    assert y * y == ring.from_terms({(24, 2): 1})


def test_one_monomial_rules_that_do_not_lower_the_order_are_refused():
    # a^2 -> b^2 lowers the lexicographic order; b^2 -> a^2 does not, and
    # together the two would rewrite a^2 forever
    gens = [Generator("a", 2, False), Generator("b", 2, False)]
    lowering = {"a": (2, {(0, 2): 1})}
    ring = make_ring(RingPresentation(
        generators=gens, truncation=8, power_rules=lowering,
        pairing={(1, 3): 1}))
    assert ring.gen("a") ** 2 == ring.gen("b") ** 2
    with pytest.raises(InvalidPresentation, match="does not lower"):
        make_ring(RingPresentation(
            generators=gens, truncation=8,
            power_rules={**lowering, "b": (2, {(2, 0): 1})},
            pairing={(1, 3): 1}))
    with pytest.raises(InvalidPresentation, match="does not lower"):
        make_ring(RingPresentation(
            generators=gens, truncation=8,
            power_rules={"b": (2, {(2, 0): 1})}, pairing={(1, 3): 1}))


def _naive_product(a, b):
    """a*b term by term in Fraction arithmetic: the Koszul sign counted here,
    the normal form through from_terms, the sum through +."""
    ring = a.ring
    odd = [i for i, g in enumerate(ring.generators) if g.odd]
    acc = ring.zero()
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            swaps = sum(m1[i] * m2[j] for i in odd for j in odd if j < i)
            merged = tuple(x + y for x, y in zip(m1, m2))
            acc = acc + ring.from_terms({merged: (-1) ** swaps * c1 * c2})
    return acc


def test_integer_product_kernel_matches_naive_fraction_product():
    # odd generators t, s (Koszul signs) and a rule with a non-integral
    # right-hand side, xi^2 -> 1/2 xi f
    ring = make_ring(RingPresentation(
        generators=[Generator("xi", 2, False), Generator("f", 2, False),
                    Generator("t", 1, True), Generator("s", 1, True)],
        truncation=6,
        power_rules={"xi": (2, {(1, 1, 0, 0): Fraction(1, 2)}), "f": (2, {})},
        pairing={(1, 1, 1, 1): 1}))
    monos = [(a, b, c, d) for a in (0, 1) for b in (0, 1)
             for c in (0, 1) for d in (0, 1)]
    rng = random.Random(5)

    def random_class():
        return ring.from_terms({m: Fraction(rng.randint(-9, 9),
                                            rng.choice((1, 2, 3, 4, 6, 9)))
                                for m in monos if rng.random() < 0.6})

    products = []
    for _ in range(60):
        a, b = random_class(), random_class()
        products.append(a * b)
        assert products[-1] == _naive_product(a, b)
    xi, f, t, s = (ring.gen(n) for n in ("xi", "f", "t", "s"))
    assert xi * xi == Fraction(1, 2) * xi * f
    for a, b in ((xi, xi - Fraction(1, 2) * f), (t + s, t + s)):
        products.append(a * b)
        assert products[-1].is_zero() and _naive_product(a, b).is_zero()
    # an integral coefficient is an int, any other a Fraction
    for p in products:
        assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
                   for c in p.terms.values())
        assert all(p.terms.values())
    assert any(type(c) is int for p in products for c in p.terms.values())
