"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are exact (zero tolerance): every comparison is between exact
rationals or exact pi-scaled values.  Criterion 9c checks the vanishing parity
of the primitive pushforward coefficients at r = 2k: zero exactly for odd
b >= 3, nonzero for b = 1 and for even b.  Its expected side comes from closed
forms, not from the localization engine.  An earlier statement of 9c (zero iff
b is even) was dropped because it is false: at (k, r, b) = (1, 2, 2) the class
is (-x1)^3/(x2-x1) + (-x2)^3/(x1-x2) = h_2 = (p1^2 + p2)/2, whose p2
coefficient is 1/2.
"""

import math
import random
from fractions import Fraction

from sysbound.catalog import (blowup_point, circle, complete_intersection,
                              integrate, product, projective_space, quadric,
                              sphere, twist_spin_c, weighted_del_pezzo_x4,
                              weighted_del_pezzo_x6, weighted_mukai_x6)
from sysbound.cones import (Unbounded, bundle_profile_sup,
                            bundle_systole_profile, cone_problem, phi_sup)
from sysbound.engine import (PI, PiScaled, avg_scalar_curvature,
                             gromov_width_bound, hilbert_polynomial,
                             index_polynomial, length, product_length_bound,
                             systolic_bound, todd_genus, volume)
from sysbound.graded import exp_class, tensor_ring
from sysbound.lattices import (NormedLattice, dual_lattice, random_basis,
                               reduced_dual_basis, successive_minima)
from sysbound.pushforward import localization_pushforward, primitive_coefficient


def _report(number, title, check):
    try:
        check()
    except BaseException as exc:
        print("ACCEPTANCE %s (%s): FAIL -- %s" % (number, title, exc))
        raise
    print("ACCEPTANCE %s (%s): PASS" % (number, title))


def _fano_hypersurface_cases():
    """(space, expected index) for the cut-out families in their Fano range."""
    cases = []
    for n in range(2, 7):
        cases.append((complete_intersection([[3]], [n + 1]), n - 1))
    for n in range(3, 7):
        cases.append((complete_intersection([[4]], [n + 1]), n - 2))
    for n in range(2, 7):
        cases.append((complete_intersection([[2], [2]], [n + 2]), n - 1))
    for n in range(3, 7):
        cases.append((complete_intersection([[2], [3]], [n + 2]), n - 2))
    for n in range(3, 7):
        cases.append((complete_intersection([[2], [2], [2]], [n + 3]), n - 2))
    return cases


def test_criterion_1_todd_genus():
    def check():
        for n in range(1, 9):
            assert todd_genus(projective_space(n)) == 1, "CP(%d)" % n
        for n in range(2, 9):
            assert todd_genus(quadric(n)) == 1, "Q(%d)" % n
        for space, _ in _fano_hypersurface_cases():
            assert todd_genus(space) == 1, space.name
    _report("1", "todd genus chi(X, O) = 1", check)


def test_criterion_2_length_values():
    def check():
        for n in range(2, 7):
            assert length(projective_space(n)) == n + 1, "CP(%d)" % n
            assert length(quadric(n)) == n, "Q(%d)" % n
        for n in range(3, 7):
            cubic = complete_intersection([[3]], [n + 1])
            quartic = complete_intersection([[4]], [n + 1])
            assert length(cubic) == n - 1 == cubic.fano_index, cubic.name
            assert length(quartic) == n - 2 == quartic.fano_index, quartic.name
    _report("2", "length = Fano index on CP/Q/cubic/quartic", check)


def test_criterion_3_sharp_constants():
    def check():
        kahler = [projective_space(n) for n in range(1, 6)]
        kahler += [quadric(n) for n in (2, 3, 4)]
        kahler += [complete_intersection([[3]], [5]),
                   product(projective_space(1), projective_space(2))]
        for space in kahler:
            n = space.complex_dim
            assert systolic_bound(space, None, "thm1.1") == \
                PiScaled.of(4 * n * (n + 1), 1), space.name
            if space.family != "CP":
                assert systolic_bound(space, None, "thm1.2") == \
                    PiScaled.of(4 * n * n, 1), space.name
            if space.family not in ("CP", "Q"):
                assert systolic_bound(space, None, "thm4.5") == \
                    PiScaled.of(4 * (n * (n - 1) + 2), 1), space.name

        pairs = [(projective_space(n), None) for n in (1, 2, 3, 4)]
        pairs += [(projective_space(n), circle()) for n in (1, 2, 3)]
        pairs += [(quadric(3), circle()), (quadric(4), sphere(3))]
        pairs += [(product(projective_space(2), circle()), None)]
        for x, n_factor in pairs:
            if n_factor is not None and not _condition_b_holds(n_factor):
                continue
            n = x.half_dim
            extra = 0 if n_factor is None else n_factor.real_dim // 2
            assert systolic_bound(x, n_factor, "thm1.3") == \
                PiScaled.of(4 * (n + extra) * (n + 1), 1), x.name

        fano = [(projective_space(n), n + 1) for n in (2, 3, 4)]
        fano += [(quadric(n), n) for n in (2, 3, 4)]
        fano += [case for case in _fano_hypersurface_cases()
                 if case[0].complex_dim >= 3][:6]
        fano += [(weighted_del_pezzo_x6(4), 3), (weighted_del_pezzo_x4(5), 4),
                 (weighted_mukai_x6(4), 2)]
        for x, index in fano:
            n = x.half_dim
            assert x.fano_index == index, x.name
            assert systolic_bound(x, None, "thm5.6") == \
                PiScaled.of(4 * n * index, 1), x.name
            assert systolic_bound(x, circle(), "thm5.6") == \
                PiScaled.of(4 * n * index, 1), x.name
    _report("3", "sharp constants of the five bound families", check)


def _condition_b_holds(n_factor):
    from sysbound.engine import _n_factor_admissible
    return _n_factor_admissible(n_factor)


def test_criterion_4_curvature_and_volume():
    def check():
        for n in range(1, 9):
            cpn = projective_space(n)
            h = cpn.ring.gen("H")
            assert avg_scalar_curvature(cpn, h, PI) == \
                PiScaled.of(4 * n * (n + 1), 0), "Rbar CP(%d)" % n
            assert volume(cpn, h, PI) == \
                PiScaled.of(Fraction(1, math.factorial(n)), n), "Vol CP(%d)" % n
        for n in range(2, 9):
            qn = quadric(n)
            assert avg_scalar_curvature(qn, qn.ring.gen("H"), PI) == \
                PiScaled.of(4 * n * n, 0), "Rbar Q(%d)" % n
    _report("4", "scalar curvature and volume normalizations", check)


def test_criterion_5_gromov_width():
    def check():
        for n in range(1, 9):
            cpn = projective_space(n)
            h = cpn.ring.gen("H")
            assert gromov_width_bound(cpn, h, PI) == \
                PiScaled.of(Fraction(2 * n, n + 1), 1), "w_G CP(%d)" % n
    _report("5", "Gromov width bound 2 pi n/(n+1)", check)


def test_criterion_6_cone_optimization():
    def check():
        for n in range(1, 7):
            assert phi_sup(cone_problem(projective_space(n))) == (n + 1) ** n
        for n in (2, 3, 4, 5):
            bl = blowup_point(n)
            result = phi_sup(cone_problem(bl))
            assert isinstance(result, Unbounded), "BlP(%d)" % n
            assert result.witness == bl.ring.gen("H") - bl.ring.gen("E")
        for n in range(2, 7):
            sup = bundle_profile_sup(n)
            assert sup == Fraction(n - 1) + Fraction(2, n), "profile n=%d" % n
            _, at_max = bundle_systole_profile([0] * n, 0, 1, 1)
            assert at_max == sup, "maximizer (x, e) = (1, 0) at n=%d" % n
    _report("6", "nef-cone suprema and bundle profiles", check)


def test_criterion_7_parity_sweep():
    def check():
        bases = [projective_space(n) for n in range(1, 6)]
        bases += [quadric(n) for n in range(2, 6)]
        bases += [complete_intersection([[3]], [n + 1]) for n in (3, 4, 5)]
        bases += [complete_intersection([[4]], [n + 1]) for n in (3, 4, 5)]
        bases += [complete_intersection([[2], [2]], [n + 2]) for n in (3, 4, 5)]
        matrix = []
        for base in bases:
            for k in (-1, 0, 1):
                matrix.append(twist_spin_c(base, k))
        assert len(matrix) >= 50, "need at least 50 catalog products"
        failures = 0
        for x in matrix:
            ell_x = length(x)
            assert ell_x <= x.half_dim + 1, x.name
            ell_prod = product_length_bound(x, circle())
            if ell_prod > ell_x:
                failures += 1
        assert failures == 0
    _report("7", "parity sweep (>= 50 catalog products)", check)


def test_criterion_8_lattice_suite():
    def check():
        rng = random.Random(20240)
        buckets = [0] * 10
        count = 0
        for _ in range(200):
            rank = rng.randint(2, 4)
            basis = random_basis(rank, rng, -5, 5)
            lat = NormedLattice(
                basis=basis,
                gram=[[1 if i == j else 0 for j in range(rank)]
                      for i in range(rank)])
            reduced = reduced_dual_basis(lat)
            lambda1_sq = successive_minima(lat, 1)   # independent enumeration
            assert lambda1_sq == reduced.lambda1
            bound_sq = Fraction(rank) ** 4
            for norm_sq in reduced.dual_norms:
                assert norm_sq * lambda1_sq <= bound_sq
                ratio = math.sqrt(float(norm_sq * lambda1_sq)) / rank ** 2
                buckets[min(int(ratio * 10), 9)] += 1
                count += 1
            dual_r_sq = successive_minima(dual_lattice(lat), rank)
            assert lambda1_sq * dual_r_sq <= Fraction(rank) ** 2
        print("achieved-constant histogram (ratio of ||u|| lambda1 to r^2):")
        for i, n in enumerate(buckets):
            if n:
                print("  [%.1f, %.1f): %s" % (i / 10, (i + 1) / 10, "#" * (1 + n * 40 // count)))
    _report("8", "lattice reduction and transference on 200 instances", check)


def test_criterion_9a_pushforward_base_case():
    def check():
        from sympy import expand, symbols
        from sympy_oracle import as_expr
        sym = localization_pushforward(1, 2, 1)
        x1, x2 = symbols("x1 x2")
        assert expand(as_expr(sym) + x1 + x2) == 0
    _report("9a", "localization (1,2,1) = -p1", check)


def test_criterion_9b_polynomiality():
    def check():
        for r in range(2, 6):
            for k in range(1, r):
                for j in range(0, 5):
                    sym = localization_pushforward(k, r, j)
                    assert sym.is_symmetric(), (k, r, j)
    _report("9b", "polynomiality for r <= 5, j <= 4", check)


def _rectangle_tableaux(rows, cols):
    """Standard Young tableaux of a rows x cols rectangle (hook-length formula)."""
    hooks = 1
    for i in range(rows):
        for j in range(cols):
            hooks *= (rows - i) + (cols - j) - 1
    return math.factorial(rows * cols) // hooks


def test_criterion_9c_vanishing_parity_as_stated():
    """At r = 2k, primitive_coefficient(k, r, b) is zero exactly for odd b >= 3.

    The law is the one stated in the README and in the docstring of
    ``primitive_coefficient``.  Expected values come from closed forms, with
    P_b the degree-b localization sum and q = k(r - k) = k^2:

    * b = 1: shifting every x_i by t leaves each denominator fixed and shifts
      -sum_I x by -kt; the t-linear terms give r * c = -k(q+1) * deg G(k, r),
      where deg G(k, r) counts the standard tableaux of the k x (r-k)
      rectangle.  So c = -1, -5, -210 for k = 1, 2, 3.
    * odd b >= 3: swapping each subset I with its complement multiplies the
      denominator by (-1)^q and sends -sum_I x to sum_I x - p1, so
      P_b = (-1)^b (P_b + sum_{m>=1} C(q+b, m) p1^m P_{b-m}).  The p1
      multiples have no p_b coefficient, hence [p_b] P_b = (-1)^b [p_b] P_b,
      which is zero for odd b.
    * even b, k = 1: the class is (-1)^b h_b (the Segre identity that
      tests/test_pushforward.py checks), and [p_b] h_b = 1/b.
    * even b, k >= 2: nonzero.  No closed form in this repository settles
      this; it rests on the proportionality to ``bracket_formula`` for
      b >= 2 with a nonzero constant, the bracket being k * 2^(1-b) != 0.

    The old law (zero iff b even) fails at (1, 2, 2), where the class is
    h_2 = (p1^2 + p2)/2 with p2 coefficient 1/2.  The b range respects the
    operation's own precondition b <= r = 2k.
    """
    nonzero = "nonzero"

    def expected(k, b):
        r, q = 2 * k, k * k
        if b == 1:
            return Fraction(-k * (q + 1) * _rectangle_tableaux(k, r - k), r)
        if b % 2 == 1:
            return Fraction(0)
        if k == 1:
            return Fraction((-1) ** b, b)
        bracket = Fraction(k, 2 ** b) * (1 + (-1) ** b)  # bracket_formula at r = 2k
        return nonzero if bracket != 0 else Fraction(0)

    def check():
        for k in (1, 2, 3):
            r = 2 * k
            for b in range(1, r + 1):
                prim = primitive_coefficient(k, r, b)
                want = expected(k, b)
                ok = prim != 0 if want is nonzero else prim == want
                assert ok, "(k,r,b)=(%d,%d,%d): computed %s, expected %s" \
                    % (k, r, b, prim, want)
    _report("9c", "primitive vanishing parity at r = 2k", check)


def test_criterion_10_identity_suite():
    def check():
        from sysbound.characteristic import a_hat, todd
        tangent_spaces = [projective_space(n) for n in range(1, 7)]
        tangent_spaces += [quadric(n) for n in range(2, 7)]
        tangent_spaces += [s for s, _ in _fano_hypersurface_cases()]
        tangent_spaces += [product(projective_space(1), projective_space(2))]
        from sysbound.catalog import proj_bundle_over_curve
        tangent_spaces += [proj_bundle_over_curve([0, 1], 0),
                           proj_bundle_over_curve([0, 0, 2], 1)]
        for space in tangent_spaces:
            c = space.tangent
            assert todd(c) == exp_class(c.chern(1) * Fraction(1, 2)) * a_hat(c), \
                space.name

        rng = random.Random(77)
        factories = [lambda: projective_space(rng.randint(1, 3)),
                     lambda: quadric(rng.randint(2, 3)),
                     lambda: sphere(rng.choice((2, 4))),
                     lambda: circle()]
        checked = 0
        while checked < 50:
            x = rng.choice(factories)()
            y = rng.choice(factories)()
            p = product(x, y)
            lmap, rmap = p.factor_embeddings
            # Kuenneth: integrals of pulled-back products factorize
            ax = _random_poly(x, rng)
            by = _random_poly(y, rng)
            assert integrate(p, lmap(ax) * rmap(by)) == \
                integrate(x, ax) * integrate(y, by)
            # A-hat multiplicativity across the product
            assert p.a_hat_cls == lmap(x.a_hat_cls) * rmap(y.a_hat_cls)
            checked += 1

        cp2 = projective_space(2)
        h = cp2.ring.gen("H")
        poly = hilbert_polynomial(cp2, h)
        points = [(k, integrate(cp2, exp_class(k * h) * cp2.todd_cls))
                  for k in range(6)]
        interp = _lagrange(points)
        for k in range(-6, 10):
            assert poly(k) == interp(k)
    _report("10", "Todd identity, Kuenneth, Hilbert interpolation", check)


def _random_poly(space, rng):
    cls = space.ring.scalar(rng.randint(0, 2))
    for gen in space.ring.generators:
        power = rng.randint(0, 2)
        if power:
            cls = cls + rng.randint(-2, 2) * space.ring.gen(gen.name) ** power
    return cls


def _lagrange(points):
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
