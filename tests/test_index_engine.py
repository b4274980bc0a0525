"""Index polynomials, lengths, and the closed-form bound evaluations."""

import math
import random
from fractions import Fraction

import pytest
from batch_pool import BATCH_POOL

from sysbound.catalog import (blowup_point, circle, complete_intersection,
                              integrate, product, projective_space, quadric,
                              sphere, twist_spin_c, weighted_mukai_x6, Space)
from sysbound.characteristic import ChernData
from sysbound.cli import parse_space
from sysbound.engine import (ONE, PI, IndexPolynomial, PiScaled,
                             avg_scalar_curvature, gromov_width_bound,
                             hilbert_polynomial, index_polynomial, length,
                             product_length_bound, systolic_bound, todd_genus,
                             volume)
from sysbound.errors import (CalculatorError, DegenerateClass,
                             EmptyIntersection,
                             KunnethViolation, LichnerowiczObstruction,
                             MetadataOnlySpace, MissingOddClass,
                             PreconditionUnmet)
from sysbound import engine, graded, roots
from sysbound.engine import _koszul_chi
from sysbound.graded import exp_class, truncated_polynomial_ring
from sysbound.kernel import (_binomial, _intersection_dim,
                             _intersection_pairing, _koszul_value,
                             _sparse_mul)


def _lagrange(points):
    """Independent interpolation oracle used to cross-check coefficients."""
    def evaluate(t):
        total = Fraction(0)
        for i, (xi, yi) in enumerate(points):
            term = Fraction(yi)
            for j, (xj, _) in enumerate(points):
                if i != j:
                    term *= Fraction(t - xj, xi - xj)
            total += term
        return total
    return evaluate


# -- Todd genus ---------------------------------------------------------------


def test_todd_genus_values():
    assert todd_genus(projective_space(1)) == 1
    assert todd_genus(quadric(2)) == 1
    assert todd_genus(product(projective_space(2), projective_space(3))) == 1
    assert todd_genus(complete_intersection([[2], [3]], [5])) == 1
    with pytest.raises(MetadataOnlySpace):
        todd_genus(weighted_mukai_x6(4))


# -- index polynomials --------------------------------------------------------


def test_projective_index_polynomial_is_binomial():
    for n in (1, 2, 3, 4):
        cpn = projective_space(n)
        poly = index_polynomial(cpn)
        assert poly.degree == n
        assert poly.q0 == n + 1
        # oracle: direct ring evaluation at 2n + 2 points, interpolated
        x = cpn.primitive_x
        base = exp_class(cpn.spin_c * Fraction(1, 2)) * cpn.a_hat_cls
        points = []
        for a in range(-n - 1, n + 1):
            points.append((a, integrate(cpn, exp_class(a * x) * base)))
        oracle = _lagrange(points)
        for a in range(-2 * n - 2, 2 * n + 3):
            expected = math.comb(n + a, n) if n + a >= 0 else \
                ((-1) ** n) * math.comb(-a - 1, n)
            assert poly(a) == oracle(a) == expected
        assert poly(0) == 1


def test_leading_coefficient_invariant():
    for space in (projective_space(3), quadric(4),
                  complete_intersection([[3]], [5]),
                  product(projective_space(2), circle())):
        n = space.half_dim
        poly = index_polynomial(space)
        xi = space.odd_xi if space.real_dim % 2 else space.ring.one()
        lead = integrate(space, xi * space.primitive_x ** n)
        assert poly.degree == n
        assert poly.coeffs[n] == Fraction(lead, math.factorial(n))


def test_quadric_polynomial_roots():
    q3 = quadric(3)
    poly = index_polynomial(q3)
    assert poly(-1) == 0 and poly(-2) == 0
    assert poly(0) == 1


def test_polynomial_matches_direct_ring_evaluation():
    for space in (quadric(4), complete_intersection([[2], [2]], [6]),
                  product(quadric(2), circle())):
        poly = index_polynomial(space)
        xi = space.odd_xi if space.real_dim % 2 else space.ring.one()
        base = xi * exp_class(space.spin_c * Fraction(1, 2)) * space.a_hat_cls
        for a in range(-6, 7):
            direct = integrate(space, exp_class(a * space.primitive_x) * base)
            assert poly(a) == direct


def test_product_with_circle_same_polynomial():
    cp2 = projective_space(2)
    m = product(cp2, circle())
    assert index_polynomial(m).coeffs == index_polynomial(cp2).coeffs


def test_odd_dimension_needs_xi():
    m = product(projective_space(2), sphere(3))
    with pytest.raises(MissingOddClass):
        index_polynomial(m)


# -- lengths ------------------------------------------------------------------


def test_length_values():
    for n in range(2, 7):
        assert length(projective_space(n)) == n + 1
        assert length(quadric(n)) == n
    for n in range(3, 7):
        assert length(complete_intersection([[3]], [n + 1])) == n - 1
        assert length(complete_intersection([[4]], [n + 1])) == n - 2


def test_length_bounded_by_fano_index():
    spaces = [projective_space(4), quadric(5),
              complete_intersection([[2], [2]], [6]),
              complete_intersection([[2], [3]], [6])]
    for space in spaces:
        assert length(space) <= space.fano_index


def test_length_twist_invariance():
    for base in (projective_space(3), quadric(4),
                 complete_intersection([[3]], [5])):
        ell = length(base)
        for k in (-2, -1, 1, 3):
            assert length(twist_spin_c(base, k)) == ell


def _nonvanishing_set(space, cap=9):
    """{|q0 + 2a| <= cap : P(a) != 0}, sampled by the twisted value itself."""
    poly = index_polynomial(space)
    out = set()
    for target in range(-cap, cap + 1):
        if (target - poly.q0) % 2 == 0 and poly((target - poly.q0) // 2) != 0:
            out.add(abs(target))
    return out


def test_twist_preserves_nonvanishing_set():
    # re-centering a leaves the set {|q0 + 2a| : P(a) != 0} unchanged
    for base in (projective_space(2), quadric(3),
                 complete_intersection([[4]], [5])):
        reference = _nonvanishing_set(base)
        for k in (-3, -1, 2):
            assert _nonvanishing_set(twist_spin_c(base, k)) == reference


def test_length_window_bound():
    spaces = [projective_space(n) for n in range(1, 6)]
    spaces += [quadric(n) for n in range(2, 6)]
    spaces += [product(projective_space(n), circle()) for n in (1, 2, 3)]
    spaces += [sphere(2), product(circle(), circle())]
    for space in spaces:
        assert length(space) <= space.half_dim + 1


def _k3_model():
    """A K3-like surface built with given classes: c1 = 0, c2 = 24 x^2,
    A-hat genus 2."""
    ring = truncated_polynomial_ring("x", 2, 2, 1)
    x = ring.gen("x")
    tangent = ChernData(rank=2, total=1 + 24 * x ** 2)
    from sysbound.characteristic import a_hat
    return Space(name="K3-model", family="custom", real_dim=4, b1=0, b2=1,
                 ring=ring, is_complex=True, complex_dim=2,
                 tangent_of=lambda: tangent, c1=ring.zero(),
                 a_hat_of=lambda: a_hat(tangent),
                 spin_c=ring.zero(), primitive_x=x)


def _cp2_model():
    """CP(2) built by hand: its c1 is read off the given tangent."""
    ring = truncated_polynomial_ring("x", 2, 2, 1)
    x = ring.gen("x")
    tangent = ChernData(rank=2, total=1 + 3 * x + 3 * x ** 2)
    return Space(name="CP2-model", family="custom", real_dim=4, b1=0, b2=1,
                 ring=ring, is_complex=True, complex_dim=2,
                 tangent_of=lambda: tangent, spin_c=3 * x, primitive_x=x)


def test_length_zero_encodes_obstruction():
    k3 = _k3_model()
    assert integrate(k3, k3.a_hat_cls) == 2
    assert length(k3) == 0
    with pytest.raises(LichnerowiczObstruction):
        systolic_bound(k3, None, "prop5.1")


@pytest.mark.parametrize("build, c1, spin_c, poly, twice, todd, size", [
    (_cp2_model, "3*x", "5*x", "3 + 5/2*a + 1/2*a^2", "6 + 7/2*a + 1/2*a^2",
     1, 3),
    (_k3_model, "0", "2*x", "5/2 + a + 1/2*a^2", "4 + 2*a + 1/2*a^2", 2, 0)],
    ids=["CP2-model", "K3-model"])
def test_a_twist_keeps_the_given_classes(build, c1, spin_c, poly, twice, todd,
                                         size):
    # the twist shares the recipes of the given classes, the c1 read off the
    # tangent among them, on the space and on its copy alike
    for space in (build(), build().replace(notes="copied")):
        twisted = twist_spin_c(space, 1)
        assert twisted.ring is space.ring
        assert twisted.primitive_x is space.primitive_x
        assert (repr(twisted.c1), repr(twisted.spin_c)) == (c1, spin_c)
        assert str(index_polynomial(twisted)) == poly
        assert str(index_polynomial(twist_spin_c(twisted, 1))) == twice
        assert (todd_genus(twisted), length(twisted)) == (todd, size)


def test_product_length_bound():
    assert product_length_bound(projective_space(2), circle()) == 3
    assert product_length_bound(projective_space(1), circle()) == 2
    assert product_length_bound(quadric(3), circle()) == 3
    with pytest.raises(PreconditionUnmet):
        product_length_bound(product(projective_space(1), circle()), circle())
    # b2(N) = 0 violated
    with pytest.raises(PreconditionUnmet):
        product_length_bound(projective_space(2), sphere(2))
    # vanishing index pairing on the factor: the A-hat genus of S4 is 0
    with pytest.raises(PreconditionUnmet):
        product_length_bound(quadric(3), sphere(4))


# -- bounds -------------------------------------------------------------------


def test_pi_scaled_arithmetic():
    v = PiScaled.of(Fraction(3, 2), 2)
    assert str(v) == "3/2 * pi^2"
    assert str(PiScaled.of(4, 1)) == "4 * pi"
    assert str(PiScaled.of(7)) == "7"
    assert (v / PI) == PiScaled.of(Fraction(3, 2), 1)
    assert v * 2 == PiScaled.of(3, 2)
    assert abs(v.approx() - 1.5 * math.pi ** 2) < 1e-12


def test_systolic_bound_selectors():
    cp3 = projective_space(3)
    assert systolic_bound(cp3, None, "thm1.1") == PiScaled.of(48, 1)
    assert systolic_bound(quadric(4), None, "thm1.2") == PiScaled.of(64, 1)
    assert systolic_bound(cp3, circle(), "thm1.3") == PiScaled.of(48, 1)
    assert systolic_bound(quadric(4), None, "prop5.1") == PiScaled.of(64, 1)
    assert systolic_bound(complete_intersection([[3]], [5]), None,
                          "thm4.5") == PiScaled.of(4 * (4 * 3 + 2), 1)
    assert systolic_bound(complete_intersection([[3]], [5]), None,
                          "thm5.6") == PiScaled.of(48, 1)
    # metadata-only spaces work for the index-refined bound
    assert systolic_bound(weighted_mukai_x6(4), circle(), "thm5.6") == \
        PiScaled.of(4 * 4 * 2, 1)


def test_systolic_bound_hypotheses():
    with pytest.raises(PreconditionUnmet):
        systolic_bound(projective_space(3), None, "thm1.2")
    with pytest.raises(PreconditionUnmet):
        systolic_bound(quadric(3), None, "thm4.5")
    with pytest.raises(PreconditionUnmet):
        systolic_bound(projective_space(3), sphere(4), "thm1.3")
    with pytest.raises(PreconditionUnmet):
        systolic_bound(blowup_point(3), None, "thm5.6")
    with pytest.raises(PreconditionUnmet):
        systolic_bound(projective_space(3), None, "nonsense")


# -- curvature, volume, width -------------------------------------------------


def test_average_scalar_curvature():
    for n in (1, 2, 3, 4):
        cpn = projective_space(n)
        h = cpn.ring.gen("H")
        assert avg_scalar_curvature(cpn, h, PI) == PiScaled.of(4 * n * (n + 1))
    for n in (2, 3, 4):
        qn = quadric(n)
        assert avg_scalar_curvature(qn, qn.ring.gen("H"), PI) == \
            PiScaled.of(4 * n * n)


def test_average_scalar_curvature_product_ring_evaluation():
    p = product(projective_space(1), projective_space(1))
    alpha = p.ring.gen("H1") + p.ring.gen("H2")
    # 4 pi n (c1 . alpha) / alpha^2 = 4 pi * 2 * 4 / 2
    assert avg_scalar_curvature(p, alpha) == PiScaled.of(16, 1)
    skew = p.ring.gen("H1") + 2 * p.ring.gen("H2")
    assert avg_scalar_curvature(p, skew) == \
        PiScaled.of(Fraction(4 * 2 * 6, 4), 1)


def test_volume_and_width():
    for n in (2, 3, 5, 8):
        cpn = projective_space(n)
        h = cpn.ring.gen("H")
        assert volume(cpn, h, PI) == PiScaled.of(Fraction(1, math.factorial(n)), n)
        assert gromov_width_bound(cpn, h, PI) == \
            PiScaled.of(Fraction(2 * n, n + 1), 1)
    with pytest.raises(DegenerateClass):
        bl = blowup_point(3)
        volume(bl, bl.ring.gen("H") - bl.ring.gen("E"))
    with pytest.raises(MetadataOnlySpace):
        volume(weighted_mukai_x6(4), None)


# -- Hilbert polynomials -------------------------------------------------------


def test_hilbert_polynomial_cp2():
    cp2 = projective_space(2)
    poly = hilbert_polynomial(cp2, cp2.ring.gen("H"))
    for k in range(-4, 8):
        assert poly(k) == Fraction((k + 1) * (k + 2), 2)


def test_hilbert_polynomial_matches_interpolation():
    cp2 = projective_space(2)
    h = cp2.ring.gen("H")
    poly = hilbert_polynomial(cp2, h)
    points = [(k, integrate(cp2, exp_class(k * h) * cp2.todd_cls))
              for k in range(6)]
    oracle = _lagrange(points[:3])
    for k, val in points:
        assert poly(k) == val == oracle(k)


def test_hilbert_polynomial_product():
    p = product(projective_space(1), projective_space(1))
    alpha = p.ring.gen("H1") + p.ring.gen("H2")
    poly = hilbert_polynomial(p, alpha)
    for k in range(-3, 6):
        assert poly(k) == (k + 1) ** 2


def test_hilbert_direct_evaluation_window():
    # agreement with direct ring integration on -2n <= k <= 2n
    for space in (projective_space(3), quadric(3)):
        n = space.complex_dim
        poly = hilbert_polynomial(space, space.primitive_x)
        for k in range(-2 * n, 2 * n + 1):
            direct = integrate(space, exp_class(k * space.primitive_x)
                               * space.todd_cls)
            assert poly(k) == direct


def test_hilbert_equals_index_polynomial_at_canonical_data():
    for space in (projective_space(3), quadric(3)):
        hp = hilbert_polynomial(space, space.primitive_x)
        ip = index_polynomial(space)
        assert hp.coeffs == ip.coeffs


def test_hilbert_fano_value_at_zero():
    for space in (projective_space(5), quadric(4),
                  complete_intersection([[2], [2], [2]], [6])):
        assert hilbert_polynomial(space, space.primitive_x)(0) == 1


# -- the Riemann-Roch closed form against the ring route ----------------------

#: the benchmark pool, larger spaces, complete intersections with two and
#: three rows, twists by +-1 and +-2, and products of complete intersections
_KOSZUL_CASES = BATCH_POOL + (
    "CP(40)", "Q(30)", "CI(degrees=[[2,2]]; ambient=[8,8])",
    "CI(degrees=[[2],[2],[3]]; ambient=[8])",
    "CI(degrees=[[1,1],[1,2],[2,1]]; ambient=[3,4])",
    "CP(5).twist(2)", "CP(6).twist(-2)", "CP(2).twist(-1)", "Q(5).twist(1)",
    "Q(6).twist(-2)", "Q(7).twist(2)",
    "CI(degrees=[[3]]; ambient=[5]).twist(-1)",
    "CI(degrees=[[2],[3]]; ambient=[6]).twist(2)",
    "CI(degrees=[[2],[2],[3]]; ambient=[8]).twist(-2)",
    "CI(degrees=[[5]]; ambient=[4]).twist(1)",
    "CP(3).twist(1) * S1", "Q(4).twist(-2) * S1",
    "CP(2) * CI(degrees=[[2,2]]; ambient=[3,3])", "Q(3) * CP(1) * CP(1)")


def _chi_outcomes(space):
    """Index polynomial coefficients, q0, Todd genus and length, errors
    included."""
    out = []
    for run in (lambda s: index_polynomial(s).coeffs,
                lambda s: index_polynomial(s).q0, todd_genus, length):
        try:
            out.append(run(space))
        except CalculatorError as exc:
            out.append("%s: %s" % (type(exc).__name__, exc))
    return out


@pytest.mark.parametrize("desc", _KOSZUL_CASES)
def test_riemann_roch_closed_form_agrees_with_the_ring_route(desc):
    space = parse_space(desc).build()
    ring_route = space.replace(koszul=None)
    assert _chi_outcomes(space) == _chi_outcomes(ring_route)


def test_closed_form_takes_a_half_integral_shift():
    # a class c = c1 + j x with j odd is no spin^c class, but the index
    # polynomial is still chi at a + j/2
    for space in (projective_space(2), quadric(4),
                  complete_intersection([[2], [3]], [6])):
        for j in (-3, -1, 1):
            moved = space.replace(spin_c=space.c1 + j * space.primitive_x)
            ring_route = moved.replace(koszul=None)
            assert _chi_outcomes(moved) == _chi_outcomes(ring_route)


def test_the_closed_form_serves_the_projective_cases():
    # every CP, Q and CI case, their twists, products and products with S1
    spaces = [parse_space(desc).build() for desc in _KOSZUL_CASES]
    closed = [s for s in spaces if s.koszul is not None]
    polynomials = [s for s in closed
                   if not isinstance(_chi_outcomes(s)[0], str)]
    assert (len(closed), len(polynomials)) == (78, 63)


# -- the truncated pairing and the matching against the whole product ---------


def _full_product(rows, ns):
    """``(dim, pairing)`` of the complete intersection of ``rows`` in
    CP(ns) by the whole product D_1...D_r, whose monomials past some
    H_i^N_i are dropped only at the end; an empty intersection raises
    EmptyIntersection, the codimension checked first."""
    m = len(ns)
    dim = sum(ns) - len(rows)
    if dim < 1:
        raise EmptyIntersection(
            "codimension %d leaves nothing of the %d-dimensional ambient space"
            % (len(rows), sum(ns)))
    divisors = {(0,) * m: 1}
    for row in rows:
        divisors = _sparse_mul(divisors, {
            tuple(int(i == j) for j in range(m)): d
            for i, d in enumerate(row) if d})
    pairing = {tuple(N - e for N, e in zip(ns, mono)): c
               for mono, c in divisors.items()
               if all(e <= N for e, N in zip(mono, ns))}
    if not pairing:
        raise EmptyIntersection(
            "the hypersurfaces do not meet: the product of their divisors "
            "vanishes on %s" % "x".join("CP(%d)" % N for N in ns))
    return dim, pairing


def _verdict(pairing_of, rows, ns):
    try:
        return pairing_of(rows, ns)
    except EmptyIntersection as exc:
        return str(exc)


def _truncated(rows, ns):
    return _intersection_dim(rows, ns), _intersection_pairing(rows, ns)


@pytest.mark.parametrize("desc", _KOSZUL_CASES)
def test_truncated_pairing_matches_the_full_product(desc):
    space = parse_space(desc).build()
    if space.koszul is None:
        return
    rows, ns = space.koszul
    assert _truncated(rows, ns) == _full_product(rows, ns)


def test_matching_decides_emptiness_as_the_full_product_does():
    # seeded (rows, ns): up to four factors, degrees 0..2 with zeros, as
    # many rows as the ambient has dimensions, so both refusals occur; a
    # first-fit choice without moving placed rows errs on 33 of these
    rng = random.Random(29)
    seen = {}
    for _ in range(600):
        ns = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        rows = []
        for _ in range(rng.randint(1, sum(ns))):
            row = [rng.choice((0, 0, 0, 1, 2)) for _ in ns]
            row[rng.randrange(len(ns))] = rng.randint(1, 2)
            rows.append(row)
        expected = _verdict(_full_product, rows, ns)
        assert _verdict(_truncated, rows, ns) == expected, (rows, ns)
        kind = expected.split()[0] if isinstance(expected, str) else "meets"
        seen[kind] = seen.get(kind, 0) + 1
    # nonempty, disjoint, codimension too large
    assert sorted(seen) == ["codimension", "meets", "the"], seen


#: spaces with ``koszul`` data: one factor and two, up to three rows, and
#: ambient dimensions small enough that t = -10 puts u below -N
_KOSZUL_VALUE_CASES = (
    "CP(1)", "CP(3)", "CP(7)", "Q(2)", "Q(5)", "CI(degrees=[[3]]; ambient=[4])",
    "CI(degrees=[[2],[3]]; ambient=[6])", "CI(degrees=[[2],[2],[2]]; ambient=[7])",
    "CI(degrees=[[5]]; ambient=[3])", "CP(2) * CP(3)",
    "CI(degrees=[[1,1]]; ambient=[2,2])", "CI(degrees=[[1,2]]; ambient=[2,3])",
    "CI(degrees=[[1,1],[1,1]]; ambient=[4,4])", "CP(2) * Q(3)")


@pytest.mark.parametrize("desc", _KOSZUL_VALUE_CASES)
def test_koszul_values_agree_with_the_expansion_and_the_ring(desc):
    # chi(X, O(t H_1)) at each integer t in [-10, 10]: the Koszul sum read at
    # t, the expanded polynomial at t, and <e^(t H_1) Td(X), [X]> in the ring
    space = parse_space(desc).build()
    rows, ns = space.koszul
    expanded = _koszul_chi(rows, ns)
    ring_route = hilbert_polynomial(space, space.ring.gen(space.ring.gen_names()[0]))
    for t in range(-10, 11):
        value = _koszul_value(rows, ns, t)
        assert value == roots.evaluate(expanded, t) == ring_route(t), t
    assert todd_genus(space) == _koszul_value(rows, ns, 0) == space.todd


def test_koszul_binomial_below_the_ambient_dimension():
    # C(N + u, N) read as (u + 1)...(u + N) / N!: zero at -N <= u <= -1,
    # and (-1)^N C(-u - 1, N) below -N
    for n in range(1, 6):
        for u in range(-12, 8):
            assert _binomial(n, u) == math.prod(range(u + 1, u + n + 1)) \
                // math.factorial(n)


def _ring_sphere_pairing(n_factor):
    """The index pairing's nonvanishing on N in its ring: an odd N without
    its degree-1 class is refused first, as ``_n_factor_admissible``
    refuses it."""
    if n_factor.real_dim % 2 and n_factor.lacks("odd_xi"):
        return False
    return integrate(n_factor, engine._index_class(n_factor)) != 0


def test_sphere_pairings_match_the_a_hat_route(monkeypatch):
    # 1 on S1 and 0 on S(2k), read off the dimension; S(2) has b2 = 1 and
    # twists, and keeps the ring route, as does every other N
    rings = []
    init = graded.Ring.__init__

    def counted(ring, presentation):
        rings.append(presentation)
        init(ring, presentation)
    monkeypatch.setattr(graded.Ring, "__init__", counted)
    for k in range(1, 10):
        got = engine._n_factor_admissible(sphere(k))
        assert rings == [] or k == 2, k
        assert got == _ring_sphere_pairing(sphere(k)) == (k == 1), k
        del rings[:]
    for make in (lambda: twist_spin_c(sphere(2), 1),
                 lambda: product(sphere(2), sphere(2)),
                 lambda: product(circle(), sphere(4)),
                 lambda: projective_space(2)):
        assert engine._n_factor_admissible(make()) \
            == _ring_sphere_pairing(make()), make().name


def test_length_of_a_large_projective_space():
    # chi(CP(n), O(u)) vanishes for -n <= u <= -1, so the first nonzero
    # twist is at |q0 + 2a| = n + 1
    assert length(projective_space(1000)) == 1001


def _plain_scan(space):
    """``length`` by the scan from |q0 + 2a| = 0 over the whole window, on
    the index polynomial, or the name of the error raised instead."""
    try:
        poly = index_polynomial(space)
    except CalculatorError as exc:
        return type(exc).__name__
    for value in range(space.half_dim + 2):
        for target in (value, -value):
            if (target - poly.q0) % 2 == 0 and poly((target - poly.q0) // 2):
                return value
    return "WindowExhausted"


@pytest.mark.parametrize("desc", _KOSZUL_CASES)
def test_length_skips_only_twists_where_every_koszul_term_vanishes(desc):
    # the scan starts past the interval where every Koszul term is zero;
    # each twist by -2..2 must still find the plain scan's first value
    base = parse_space(desc).build()
    for k in range(-2, 3):
        try:
            space = twist_spin_c(base, k)
        except CalculatorError:
            continue
        try:
            found = length(space)
        except CalculatorError as exc:
            found = type(exc).__name__
        assert found == _plain_scan(space), k


@pytest.mark.parametrize("desc", BATCH_POOL)
def test_exact_queries_return_fractions(desc):
    # integral ring coefficients are stored as ints, but coefficient,
    # scalar_part, integrate and todd_genus hand out Fractions: callers
    # divide them, and int / int is a float
    space = parse_space(desc).build()
    ring = space.ring
    cls = 3 * space.spin_c + 2
    assert type(cls.scalar_part()) is Fraction and cls.scalar_part() == 2
    assert all(type(cls.coefficient(m)) is Fraction for m in cls.terms)
    assert type(ring.zero().scalar_part()) is Fraction
    top = ring.from_terms({m: 1 for m in ring.pairing})
    assert type(integrate(space, top)) is Fraction
    assert type(integrate(space, ring.one())) is Fraction
    try:
        genus = todd_genus(space)
    except CalculatorError:
        return
    assert type(genus) is Fraction
