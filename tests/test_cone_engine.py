"""Nef-cone optimization, thresholds, bundle profiles, contractions."""

import math
import random
from fractions import Fraction
from itertools import zip_longest

import pytest

import sturm_oracle
from batch_pool import BATCH_POOL
from sysbound import cones, engine, graded, roots
from sysbound.catalog import (Space, blowup_point, complete_intersection,
                              integrate, product, proj_bundle_over_curve,
                              projective_space, twist_spin_c)
from sysbound.cli import parse_space
from sysbound.cones import (ConeProblem, Unbounded, bundle_profile_sup,
                            bundle_systole_profile, cone_problem,
                            multiproj_contractions, nef_threshold, phi,
                            phi_sup, s_alpha)
from sysbound.errors import (CalculatorError, CertificateFailed,
                             DegenerateClass, DimensionTooLow,
                             EmptyIntersection, InvalidNormalization,
                             IrrationalCriticalPoint, PreconditionUnmet,
                             UnsupportedRank)
from sysbound.graded import Generator, RingPresentation, make_ring
from sysbound.grammar import ProductNode, TwistNode
from sysbound.kernel import _solve_linear
from sysbound.values import ONE, PI, PiScaled


# -- exact root machinery -----------------------------------------------------


def test_sturm_counts():
    # (t - 1/2)(t - 1/3)(t - 5)
    p = roots.multiply(roots.multiply([Fraction(-1, 2), Fraction(1)],
                                      [Fraction(-1, 3), Fraction(1)]),
                       [Fraction(-5), Fraction(1)])
    assert sturm_oracle.count_real_roots(p, 0, 1) == 2
    assert sturm_oracle.count_real_roots(p, 1, 10) == 1
    assert sturm_oracle.rational_roots(p) == [Fraction(1, 3), Fraction(1, 2),
                                              Fraction(5)]
    assert roots.roots_in_unit_interval(p) == [Fraction(1, 3), Fraction(1, 2)]


def test_sturm_flags_irrational_roots():
    # t^2 - 1/2 has a root 1/sqrt(2) in (0, 1)
    with pytest.raises(ValueError, match="has 1 roots in \\(0,1\\) but only "
                       "0 rational ones"):
        roots.roots_in_unit_interval([Fraction(-1, 2), Fraction(0), Fraction(1)])


def test_squarefree_and_multiple_roots():
    # (t - 1/2)^2: counted once
    p = roots.multiply([Fraction(-1, 2), Fraction(1)],
                       [Fraction(-1, 2), Fraction(1)])
    assert sturm_oracle.count_real_roots(p, 0, 1) == 1
    assert roots.roots_in_unit_interval(p) == [Fraction(1, 2)]


def test_simplest_fraction_has_the_least_denominator():
    # against a scan of the denominators, on every interval between two
    # fractions with denominators up to 7, and up to infinity
    ends = sorted({Fraction(a, b) for b in range(1, 8) for a in range(0, 15)})
    for i, lo in enumerate(ends):
        for hi in ends[i + 1:] + [None]:
            v = next(v for v in range(1, 100) if hi is None or
                     math.floor(lo * v) + 1 < hi * v)
            u = math.floor(lo * v) + 1
            got = roots._simplest(lo.numerator, lo.denominator,
                                  *((hi.numerator, hi.denominator)
                                    if hi is not None else (1, 0)))
            assert got == (u, v), (lo, hi)


def _integer_route(p):
    """The package's roots of p in (0, 1), or its refusal's message."""
    try:
        return roots.roots_in_unit_interval(p)
    except ValueError as exc:
        return str(exc)


def _sturm_route(p):
    """The same, from the Sturm count and the rational-root theorem."""
    rational, total = sturm_oracle.roots_in_unit_interval(p)
    if total == len(rational):
        return rational
    return ("polynomial has %d roots in (0,1) but only %d rational ones"
            % (total, len(rational)))


def test_integer_isolation_matches_the_sturm_route_on_the_pool(monkeypatch):
    # every critical equation phi-sup solves over the benchmark's pool
    equations = []
    solve = roots.roots_in_unit_interval
    monkeypatch.setattr(roots, "roots_in_unit_interval",
                        lambda g: equations.append(g) or solve(g))
    for desc in BATCH_POOL:
        try:
            phi_sup(cone_problem(parse_space(desc).build()))
        except CalculatorError:
            pass
    assert len(equations) == 2
    for g in equations:
        assert solve(g) == _sturm_route(g), g


def _seeded_polynomials(count, seed):
    """Products of degree at most 8 of small factors, some repeated:
    linear factors with roots in and around (0, 1), dyadic ones, t and
    t - 1, irreducible quadratics (some with roots in (0, 1)) and random
    dense factors."""
    rng = random.Random(seed)
    quadratics = ([-1, 0, 2], [-1, 0, 3], [1, -4, 2], [2, -6, 3], [1, 1, 1],
                  [-1, 1, 1], [1, -3, 1])
    for _ in range(count):
        p = [rng.choice((1, -1, 2, -3, 6))]
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(6)
            if kind == 0:
                v = rng.randint(1, 12)
                factor = [-rng.randint(-2, v + 2), v]
            elif kind == 1:
                factor = rng.choice(quadratics)
            elif kind == 2:
                k = rng.randint(1, 5)
                factor = [-rng.randint(1, 2 ** k - 1), 2 ** k]
            elif kind == 3:
                factor = rng.choice(([0, 1], [-1, 1]))
            else:
                factor = [rng.randint(-6, 6) for _ in range(rng.randint(2, 4))]
                factor[-1] = factor[-1] or 1
            for _ in range(rng.choice((1, 1, 2, 3))):
                if len(p) + len(factor) <= 10:
                    p = roots.multiply(p, factor)
        yield p


def test_integer_isolation_matches_the_sturm_route_on_seeded_polynomials():
    outcomes = set()
    for p in _seeded_polynomials(400, 25):
        expected = _sturm_route(p)
        assert _integer_route(p) == expected, p
        outcomes.add(type(expected))
    assert outcomes == {list, str}


def test_integer_isolation_ignores_scale_and_the_ends():
    # a Fraction polynomial and its integer multiple have the same roots;
    # a root at 0 or 1 is no root of the open interval
    p = roots.multiply([Fraction(-1, 3), Fraction(1)], [Fraction(-3, 4), 1])
    assert roots.roots_in_unit_interval(p) == [Fraction(1, 3), Fraction(3, 4)]
    assert roots.roots_in_unit_interval([3 * 4 * c for c in p]) == \
        [Fraction(1, 3), Fraction(3, 4)]
    assert roots.roots_in_unit_interval(roots.multiply(p, [0, -1, 1])) == \
        [Fraction(1, 3), Fraction(3, 4)]
    with pytest.raises(ZeroDivisionError):
        roots.roots_in_unit_interval([0, 0])


# -- the volume functional ----------------------------------------------------


def test_phi_on_projective_space():
    for n in (1, 2, 3, 6):
        cpn = projective_space(n)
        assert phi(cpn, cpn.ring.gen("H")) == (n + 1) ** n


def test_phi_homogeneity():
    rng = random.Random(2)
    bl = blowup_point(3)
    H, E = bl.ring.gen("H"), bl.ring.gen("E")
    alpha = 2 * H - E
    base = phi(bl, alpha)
    assert base == 56
    for _ in range(5):
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert phi(bl, t * alpha) == base


def test_phi_degenerate_class():
    bl = blowup_point(4)
    H, E = bl.ring.gen("H"), bl.ring.gen("E")
    with pytest.raises(DegenerateClass):
        phi(bl, H - E)


def test_phi_sup_projective_space():
    for n in range(1, 7):
        cpn = projective_space(n)
        assert phi_sup(cone_problem(cpn)) == (n + 1) ** n


def test_phi_sup_blowup_unbounded_with_witness():
    for n in (2, 3, 4):
        bl = blowup_point(n)
        result = phi_sup(cone_problem(bl))
        assert isinstance(result, Unbounded)
        H, E = bl.ring.gen("H"), bl.ring.gen("E")
        witness = result.witness
        assert witness == H - E
        assert integrate(bl, witness ** n) == 0
        assert integrate(bl, bl.c1 * witness ** (n - 1)) > 0


def test_phi_sup_product_unbounded():
    p = product(projective_space(1), projective_space(1))
    result = phi_sup(cone_problem(p))
    assert isinstance(result, Unbounded)
    assert integrate(p, result.witness ** 2) == 0


def _blowup_of_fano(n, degree, index):
    """Blowup ring of a b2 = 1 Fano with <H^n> = degree, c1 = index H - (n-1) E."""
    gens = [Generator("H", 2, False), Generator("E", 2, False)]
    ring = make_ring(RingPresentation(
        generators=gens, truncation=2 * n,
        power_rules={"H": (n + 1, {}), "E": (n + 1, {})},
        pair_rules=[("H", "E")],
        pairing={(n, 0): Fraction(degree), (0, n): Fraction((-1) ** (n + 1))}))
    H, E = ring.gen("H"), ring.gen("E")
    c1 = index * H - (n - 1) * E
    return Space(name="Bl_p V(%d,%d)" % (degree, index), family="BlP",
                 real_dim=2 * n, b1=0, b2=2, ring=ring, is_complex=True,
                 complex_dim=n, c1=c1, spin_c=c1, nef_rays=(H, H - E))


def test_phi_sup_blowup_of_cubic_is_bounded():
    # degree 3 is not a rational n-th power, so every nef class stays big
    for n in (3, 4):
        bl = _blowup_of_fano(n, 3, n - 1)
        result = phi_sup(cone_problem(bl))
        assert not isinstance(result, Unbounded)
        # the supremum sits at the pullback polarization H
        H = bl.ring.gen("H")
        assert result == phi(bl, H) == (n - 1) ** n * 3
        # and dominates a sample of interior classes
        E = bl.ring.gen("E")
        for a, b in ((2, 1), (3, 1), (3, 2), (5, 4)):
            assert phi(bl, a * H - b * E) <= result


def test_phi_sup_blowup_of_quadric():
    bl = _blowup_of_fano(3, 2, 3)
    result = phi_sup(cone_problem(bl))
    H, E = bl.ring.gen("H"), bl.ring.gen("E")
    # interior critical point at t = 2/3 is a local minimum; the boundary
    # ray H - E wins with (c1 . (H-E)^2)^3 / ((H-E)^3)^2 = 4^3 / 1
    assert result == 64
    assert phi(bl, H - E) == 64
    assert phi(bl, H) == 54


# -- the ring oracle -----------------------------------------------------------
#
# The library reads the volume functional's numbers off each space's
# intersection form.  The oracle integrates products of classes in the ring
# instead, on the same rays and classes.


def _ring_numbers(space, alpha):
    """(<c1 alpha^(n-1)>, <alpha^n>), integrated in the ring."""
    n = space.complex_dim
    return (integrate(space, space.c1 * alpha ** (n - 1)),
            integrate(space, alpha ** n))


def _ring_phi(space, alpha):
    mixed, top = _ring_numbers(space, alpha)
    if top == 0:
        raise DegenerateClass("alpha^n = 0: the volume functional is undefined")
    n = space.complex_dim
    return max(mixed, Fraction(0)) ** n / top ** (n - 1)


def _ring_phi_sup(problem):
    """phi_sup integrated in the ring on the problem's class rays."""
    space = problem.space
    n = space.complex_dim
    rays = problem.rays
    if len(rays) == 1:
        return _ring_phi(space, rays[0])
    interior = rays[0] + rays[1]
    for ray in rays:
        top = integrate(space, ray ** n)
        if top < 0:
            raise PreconditionUnmet("nef ray with negative top power")
        if top == 0:
            d = next((k for k in range(n - 1, -1, -1) if integrate(
                space, ray ** k * interior ** (n - k)) != 0), None)
            if d is None or d == 0:
                raise PreconditionUnmet(
                    "degenerate nef ray on %s" % space.name)
            if integrate(space, space.c1 * ray ** d
                         * interior ** (n - 1 - d)) <= 0:
                raise PreconditionUnmet(
                    "non-big ray with nonpositive c1 pairing; outside the "
                    "catalogued Fano families")
            return Unbounded(witness=ray)
    base, d = rays[0], rays[1] - rays[0]
    num = roots.trim([math.comb(n - 1, k) * integrate(
        space, space.c1 * d ** k * base ** (n - 1 - k)) for k in range(n)])
    den = roots.trim([math.comb(n, k) * integrate(
        space, d ** k * base ** (n - k)) for k in range(n + 1)])
    g = roots.trim([n * a - (n - 1) * b for a, b in zip_longest(
        roots.multiply(roots.derivative(num), den),
        roots.multiply(num, roots.derivative(den)), fillvalue=0)])
    candidates = [Fraction(0), Fraction(1)]
    if g:
        rational, total = sturm_oracle.roots_in_unit_interval(g)
        if total != len(rational):
            raise IrrationalCriticalPoint(space.name)
        candidates += rational
    best = Fraction(0)
    for t in candidates:
        d_val = roots.evaluate(den, t)
        if d_val <= 0:
            raise PreconditionUnmet("non-big class in the interior of the "
                                    "nef cone of %s" % space.name)
        n_val = roots.evaluate(num, t)
        if n_val > 0:
            best = max(best, n_val ** n / d_val ** (n - 1))
    return best


def _ring_ray_coordinates(problem, alpha):
    """alpha in the ray basis, one equation per monomial of the classes."""
    rays = problem.rays
    monos = sorted({m for r in rays for m in r.terms} | set(alpha.terms))
    coords = _solve_linear([[r.coefficient(m) for r in rays] for m in monos],
                           [alpha.coefficient(m) for m in monos])
    return None if coords is None else tuple(coords)


def _outcome(call):
    """A value, an ``Unbounded`` as its witness class and printed text, or
    a domain error as its type and message."""
    try:
        value = call()
    except CalculatorError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, Unbounded):
        return "UNBOUNDED", value.witness, value.witness_text
    return value


def _hand_made_cones():
    """The blowups of the cubic and the quadric threefolds, and of the cubic
    fourfold, built with their rings: their forms are read off the rings."""
    return [_blowup_of_fano(3, 3, 2), _blowup_of_fano(4, 3, 3),
            _blowup_of_fano(3, 2, 3)]


_FORM_EXTRAS = ("PB(degrees=[0,2]; genus=3)", "PB(degrees=[0,1,1]; genus=2)",
                "PB(degrees=[0,0,3]; genus=0)", "CP(2) * Q(3)",
                "Q(4).twist(1) * CP(1)", "CP(1) * BlP(2)", "BlP(3) * CP(1)",
                "CI(degrees=[[3]]; ambient=[4]) * CP(2)",
                "CI(degrees=[[2,1],[1,2]]; ambient=[3,3])")


def test_phi_sup_matches_the_ring_oracle():
    answered = 0
    for desc in BATCH_POOL + _FORM_EXTRAS:
        space = parse_space(desc).build()
        try:
            problem = cone_problem(space)
        except UnsupportedRank:
            continue
        ours = _outcome(lambda: phi_sup(problem))
        oracle = _outcome(lambda: _ring_phi_sup(ConeProblem(
            space=space, rays=problem.rays)))
        if isinstance(oracle, tuple) and oracle[0] == "UNBOUNDED":
            assert ours[1] == oracle[1] and ours[2] == repr(oracle[1]), desc
        else:
            assert ours == oracle, desc
        answered += not isinstance(ours, tuple) or ours[0] == "UNBOUNDED"
    assert answered >= 66
    for space in _hand_made_cones():
        problem = cone_problem(space)
        assert phi_sup(problem) == _ring_phi_sup(problem)


def _open_cone_classes(problem, rng, count):
    """``count`` seeded positive combinations of the problem's rays."""
    for _ in range(count):
        yield sum((Fraction(rng.randint(1, 9), rng.randint(1, 4)) * ray
                   for ray in problem.rays), problem.rays[0].ring.zero())


def test_kahler_numbers_match_the_ring_oracle():
    rng = random.Random(35)
    spaces = [parse_space(desc).build() for desc in BATCH_POOL + _FORM_EXTRAS]
    seen = 0
    for space in spaces + _hand_made_cones():
        try:
            problem = cone_problem(space)
        except UnsupportedRank:
            continue
        n = space.complex_dim
        for alpha in _open_cone_classes(problem, rng, 6):
            mixed, top = _ring_numbers(space, alpha)
            assert _outcome(lambda: phi(space, alpha)) == _outcome(
                lambda: _ring_phi(space, alpha)), (space.name, alpha)
            coords = _ring_ray_coordinates(problem, alpha)
            c1 = _ring_ray_coordinates(problem, space.c1)
            threshold = None if c1 is None else max(
                (k / a for k, a in zip(c1, coords) if k > 0), default=0)
            if threshold is None:
                threshold = ("PreconditionUnmet", "the nef rays of %s do not "
                             "span c1; no threshold is read off them"
                             % space.name)
            elif threshold == 0:
                threshold = ("PreconditionUnmet", "K_X pairs nonnegatively "
                             "with every extremal curve; no finite positive "
                             "threshold")
            assert _outcome(lambda: nef_threshold(problem, alpha)) \
                == threshold, (space.name, alpha)
            if top == 0:
                assert _outcome(lambda: s_alpha(problem, alpha)) == (
                    "DegenerateClass", "alpha^n = 0")
                continue
            if not isinstance(threshold, tuple):
                assert mixed / top <= threshold
                threshold = mixed / top
            assert _outcome(lambda: s_alpha(problem, alpha)) == threshold
            for scale in (ONE, PI):
                assert engine.volume(space, alpha, scale) == scale ** n \
                    * PiScaled(top / math.factorial(n))
                rbar = PiScaled(Fraction(4 * n), 1) \
                    * (PiScaled(mixed / top) / scale)
                assert engine.avg_scalar_curvature(space, alpha, scale) == rbar
                if rbar.q > 0:
                    assert engine.gromov_width_bound(space, alpha, scale) \
                        == PiScaled(Fraction(8 * n * n), 1) / rbar
            seen += 1
    assert seen > 450


#: the values a space may record a closed form for; without one, each is
#: read off the ring by its field's rule
_RECORDED = ("form", "generators", "q0", "todd", "top_pairing",
             "index_pairing")


def _recorded_inputs():
    """``(label, build)`` for every pool descriptor, form extra and sphere
    S(k), k <= 4, a twist of each b2 = 1 space among them, and the products
    of all of these with ``S1`` and ``S(2)``."""
    inputs = [(desc, lambda desc=desc: parse_space(desc).build())
              for desc in BATCH_POOL + _FORM_EXTRAS
              + ("S1", "S(2)", "S(3)", "S(4)")]
    for desc, build in list(inputs):
        space = build()
        if space.b2 == 1 and not (space.metadata_only
                                  or space.lacks("primitive_x")):
            inputs.append(("%s twist" % desc, lambda build=build:
                           twist_spin_c(build(), 1)))
    for label, build in list(inputs):
        if not build().metadata_only:
            for sphere in ("S1", "S(2)"):
                inputs.append(("%s * %s" % (label, sphere), lambda build=build,
                               sphere=sphere: product(
                                   build(), parse_space(sphere).build())))
    return inputs


def test_a_form_read_off_the_ring_is_the_recorded_one(monkeypatch):
    # every recorded value, read with no ring built, is what the ring rule
    # gives: a copy made by the public constructor is given the classes
    # alone, so it reads each value off its ring.  The recorded form prints
    # each ray as the ring does
    rings = []
    init = graded.Ring.__init__

    def counted(ring, presentation):
        rings.append(presentation)
        init(ring, presentation)
    monkeypatch.setattr(graded.Ring, "__init__", counted)
    compared = dict.fromkeys(_RECORDED, 0)
    for label, build in _recorded_inputs():
        for name in _RECORDED:
            space = build()
            if name not in space._recipes:
                continue
            del rings[:]
            recorded = getattr(space, name)
            assert rings == [], (label, name)
            copy = space.replace()
            assert name not in copy._recipes
            assert getattr(copy, name) == recorded, (label, name)
            if name == "form":
                assert [recorded.text(r) for r in recorded.rays] == list(
                    map(repr, space.nef_rays)), label
            compared[name] += 1
    assert compared == {"form": 124, "generators": 414, "q0": 198,
                        "todd": 116, "top_pairing": 186, "index_pairing": 3}


def test_a_form_read_off_a_ring_with_odd_generators():
    # CP(1) x T^2 as a complex surface: the degree-2 classes are H and
    # a b, with <H a b, [X]> = 1 and (a b)^2 = 0
    ring = make_ring(RingPresentation(
        generators=[Generator("H", 2, False), Generator("a", 1, True),
                    Generator("b", 1, True)],
        truncation=4, power_rules={"H": (2, {})},
        pairing={(1, 1, 1): Fraction(1)}))
    H, a, b = ring.gen("H"), ring.gen("a"), ring.gen("b")
    space = Space(name="CP1 x T2", family="custom", real_dim=4, b1=2, b2=2,
                  ring=ring, is_complex=True, complex_dim=2, c1=2 * H,
                  nef_rays=(H, a * b))
    form = space.form
    assert form.names == ("H", "a*b")
    assert form.pairing == {(1, 1): 1}
    rng = random.Random(36)
    for _ in range(12):
        alpha = rng.randint(1, 5) * H + rng.randint(1, 5) * a * b
        assert phi(space, alpha) == _ring_phi(space, alpha)
        assert engine.volume(space, alpha) == PiScaled(
            _ring_numbers(space, alpha)[1] / 2)
    problem = cone_problem(space)
    assert _outcome(lambda: phi_sup(problem)) == _outcome(
        lambda: _ring_phi_sup(problem)) == (
        "PreconditionUnmet", "non-big ray with nonpositive c1 pairing; "
        "outside the catalogued Fano families")


def test_unsupported_rank_rejected():
    p3 = product(product(projective_space(1), projective_space(1)),
                 projective_space(1))
    with pytest.raises(UnsupportedRank):
        cone_problem(p3)


# -- nef thresholds -----------------------------------------------------------


def test_nef_threshold_projective_space():
    for n in (2, 3, 5):
        cpn = projective_space(n)
        prob = cone_problem(cpn)
        H = cpn.ring.gen("H")
        assert nef_threshold(prob, H) == n + 1
        assert s_alpha(prob, H) == n + 1
        # homogeneity of degree -1
        assert nef_threshold(prob, 2 * H) == Fraction(n + 1, 2)


def test_nef_threshold_two_ray_lp():
    p = product(projective_space(1), projective_space(1))
    prob = cone_problem(p)
    h1, h2 = p.ring.gen("H1"), p.ring.gen("H2")
    alpha = h1 + 2 * h2
    assert nef_threshold(prob, alpha) == 2
    assert s_alpha(prob, alpha) == Fraction(3, 2)
    with pytest.raises(DegenerateClass):
        nef_threshold(prob, h1 - h2)


def test_classes_off_the_open_cone_are_degenerate():
    bl = blowup_point(3)
    prob = cone_problem(bl)
    H, E = bl.ring.gen("H"), bl.ring.gen("E")
    assert prob.rays == (H, H - E)
    # the single ray H: E lies outside its span
    single = ConeProblem(space=bl, rays=(H,))
    assert cones._ray_coordinates(single, E) is None
    # dependent rays have no coordinates
    assert cones._ray_coordinates(
        ConeProblem(space=bl, rays=(H, 2 * H)), H) is None
    # H is the boundary ray of the cone (H, H - E)
    assert cones._ray_coordinates(prob, H) == (1, 0)
    for problem, alpha in ((single, E), (prob, H)):
        for function in (nef_threshold, s_alpha):
            with pytest.raises(DegenerateClass, match="open nef cone"):
                function(problem, alpha)
    # 2H - E = H + (H - E) is interior
    assert cones._ray_coordinates(prob, 2 * H - E) == (1, 1)
    assert s_alpha(prob, 2 * H - E) == nef_threshold(prob, 2 * H - E) == 2


def test_rays_that_do_not_span_c1_are_refused():
    # 2H is in the open cone of the single ray H, but c1 = 4H - 2E is not in
    # its span, so the rays give no threshold
    bl = blowup_point(3)
    H = bl.ring.gen("H")
    with pytest.raises(PreconditionUnmet) as err:
        nef_threshold(ConeProblem(space=bl, rays=(H,)), 2 * H)
    assert str(err.value) == ("the nef rays of BlP(3) do not span c1; no "
                              "threshold is read off them")


def test_s_below_r_on_random_samples():
    rng = random.Random(9)
    spaces = [product(projective_space(1), projective_space(2)),
              blowup_point(3), proj_bundle_over_curve([0, 1], 0)]
    for space in spaces:
        prob = cone_problem(space)
        r0, r1 = prob.rays
        for _ in range(8):
            a = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            b = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            alpha = a * r0 + b * r1
            assert s_alpha(prob, alpha) <= nef_threshold(prob, alpha)


# -- the curve oracle ---------------------------------------------------------
#
# Each catalog cone is also cut out by its extremal curves, the dual
# description (Kleiman's criterion; Lazarsfeld, Positivity I, 1.4): a class
# is in the open cone when it pairs positively with each, and K_X + t alpha
# is nef when t alpha - c1 pairs nonnegatively with each.  The curves are
# written out here as their pairings with the ring's generators, in order.

#: PB's fiber line and section (generators xi, f); BlP's exceptional and
#: strict lines (generators H, E)
_FAMILY_CURVES = {"PB": ((1, 0), (0, 1)), "BlP": ((0, -1), (1, 1))}


def _curves(node):
    """The extremal curves of the space a descriptor node builds: one line
    per factor of a projective model, and a product's factors' curves, each
    padded by zeros on the other factor's generators."""
    if isinstance(node, TwistNode):  # a twist keeps the ring and the cone
        return _curves(node.inner)
    if isinstance(node, ProductNode):
        left, right = _curves(node.left), _curves(node.right)
        return (tuple(c + (0,) * len(right[0]) for c in left)
                + tuple((0,) * len(left[0]) + c for c in right))
    space = node.build()
    m = len(space.ring.generators)
    return _FAMILY_CURVES.get(space.family) or tuple(
        tuple(int(i == j) for j in range(m)) for i in range(m))


def _dot(curve, cls):
    """The pairing of a curve with a class linear in the generators."""
    m = len(curve)
    return sum(c * cls.coefficient(tuple(int(i == j) for j in range(m)))
               for i, c in enumerate(curve))


def _curve_threshold(space, curves, alpha):
    """max (c1 . C) / (alpha . C) over the curves with c1 . C > 0: "outside"
    when alpha pairs nonpositively with a curve, None when no curve pairs
    positively with c1."""
    pairs = [(_dot(c, space.c1), _dot(c, alpha)) for c in curves]
    if any(a <= 0 for _, a in pairs):
        return "outside"
    return max((Fraction(k) / a for k, a in pairs if k > 0), default=None)


def _ray_threshold(problem, alpha):
    try:
        return nef_threshold(problem, alpha)
    except DegenerateClass as err:
        assert "open nef cone" in str(err)
        return "outside"
    except PreconditionUnmet as err:
        assert "no finite positive threshold" in str(err)
        return None


def _compare_with_curves(problem, curves, seed, count=24):
    """nef_threshold against the curve oracle on seeded classes: half
    positive combinations of the rays, half combinations of the generators
    with coefficients of either sign; returns the oracle's values."""
    rng = random.Random(seed)
    ring = problem.space.ring
    gens = [ring.gen(g.name) for g in ring.generators]
    assert len(curves) == len(problem.rays) == len(gens)
    seen = []
    for trial in range(count):
        basis, low = (problem.rays, 1) if trial % 2 else (gens, -3)
        alpha = ring.zero()
        for cls in basis:
            alpha = alpha + Fraction(rng.randint(low, 6),
                                     rng.randint(1, 3)) * cls
        if not alpha.terms:
            continue
        expected = _curve_threshold(problem.space, curves, alpha)
        assert _ray_threshold(problem, alpha) == expected, alpha
        seen.append(expected)
    return seen


_ORACLE_EXTRAS = (
    "PB(degrees=[0,2]; genus=3)", "PB(degrees=[0,1,1]; genus=2)",
    "CP(2) * Q(3)", "Q(4).twist(1) * CP(1)",
    "CI(degrees=[[3]]; ambient=[4]) * CP(2)",
    # c1 = 0, c1 = -H and c1 = 0 H1 + 0 H2: no finite positive threshold
    "CI(degrees=[[5]]; ambient=[4])", "CI(degrees=[[6]]; ambient=[4])",
    "CI(degrees=[[3,3]]; ambient=[2,2])",
    # c1 = 2 H2: one curve pairs positively with c1
    "CI(degrees=[[4,1]]; ambient=[3,2])")


def test_nef_threshold_matches_the_curve_oracle():
    cones_seen, values = 0, []
    for i, desc in enumerate(BATCH_POOL + _ORACLE_EXTRAS):
        node = parse_space(desc)
        try:
            problem = cone_problem(node.build())
        except UnsupportedRank:
            assert desc in BATCH_POOL, desc
            continue
        cones_seen += 1
        values += _compare_with_curves(problem, _curves(node), i)
    # every pool cone, the extras, and each kind of reply
    assert cones_seen == 67 + len(_ORACLE_EXTRAS)
    assert "outside" in values and None in values
    assert len([v for v in values if isinstance(v, Fraction)]) > 1000


def test_nef_threshold_matches_the_curve_oracle_on_hand_made_cones():
    for seed, (n, degree, index) in enumerate(((3, 3, 2), (4, 3, 3),
                                               (3, 2, 3), (3, 5, 0))):
        bl = _blowup_of_fano(n, degree, index)
        _compare_with_curves(cone_problem(bl), _FAMILY_CURVES["BlP"], seed)


# -- bundle profiles ----------------------------------------------------------


def test_bundle_profile_balanced_product():
    # g = 0, e = 0, a = b = 1: the profile is n - 1 + 2/n
    for n in (2, 3, 4, 6):
        sys_value, prod_s = bundle_systole_profile([0] * n, 0, 1, 1)
        assert sys_value == 1
        assert prod_s == Fraction(n - 1) + Fraction(2, n)


def test_bundle_profile_genus_one():
    sys_value, prod_s = bundle_systole_profile([0, 0, 0], 1, 1, 1)
    assert (sys_value, prod_s) == (1, 2)  # n - 1 with the genus term gone


def test_bundle_profile_spec_point():
    sys_value, prod_s = bundle_systole_profile([0, 2], 0, 1, 1)
    assert sys_value == 1
    assert prod_s == Fraction(3, 2)


def test_bundle_profile_normalization_enforced():
    with pytest.raises(InvalidNormalization):
        bundle_systole_profile([1, 0], 0, 1, 1)
    with pytest.raises(InvalidNormalization):
        bundle_systole_profile([0, 1], 0, 0, 1)
    # an empty splitting fails the bundle's own degree count, not an index
    with pytest.raises(PreconditionUnmet, match="at least two degrees"):
        bundle_systole_profile([], 0, 1, 1)


def test_bundle_profile_sup_values():
    for n in range(2, 7):
        sup = bundle_profile_sup(n)
        assert sup == Fraction(n - 1) + Fraction(2, n)
        assert sup == Fraction(n * (n - 1) + 2, n)
        # the maximizer (x, e) = (1, 0) realizes the supremum
        _, prod_s = bundle_systole_profile([0] * n, 0, 1, 1)
        assert prod_s == sup
        # consistency with the sharp constant 4 pi (n(n-1) + 2)
        assert 4 * n * sup == 4 * (n * (n - 1) + 2)


def test_bundle_profile_dominated_by_sup():
    rng = random.Random(4)
    for n in (2, 3, 4):
        sup = bundle_profile_sup(n)
        for _ in range(12):
            degrees = [0] + sorted(rng.randint(0, 3) for _ in range(n - 1))
            a = rng.randint(1, 5)
            b = rng.randint(1, 5)
            _, prod_s = bundle_systole_profile(degrees, 0, a, b)
            assert prod_s <= sup


def test_bundle_profile_sup_bounds_a_rational_grid():
    # the grid sweep the exact certificate replaced, kept as an oracle
    for n in range(2, 6):
        sup = bundle_profile_sup(n)
        grid = sorted({Fraction(p, q) for q in range(1, 8)
                       for p in range(1, 5 * q + 1)})
        for e in range(6):
            values = [min(Fraction(1), x) * (n - 1 + Fraction(2, e + n * x))
                      for x in grid]
            # attained on the grid at (x, e) = (1, 0)
            assert max(values) <= sup and (e > 0 or max(values) == sup)
            rising = [v for x, v in zip(grid, values) if x <= 1]
            assert rising == sorted(rising)


#: (N, D) in place of _profile_parts(3), with N/D as the profile on x >= 1;
#: each breaks one step of the certificate and passes the steps before it
_BROKEN_PROFILES = {
    "denominator": ({(1, 0): 6, (0, 1): -2, (0, 0): 2}, {(1, 0): 3, (0, 1): -1}),
    "point": ({(1, 0): 8, (0, 1): 2, (0, 0): 2}, {(1, 0): 4, (0, 1): 1}),
    "x >= 1": ({(1, 0): 6, (0, 1): 3, (0, 0): 2}, {(1, 0): 3, (0, 1): 1}),
    "x <= 1": ({(2, 0): 6, (0, 1): 2, (0, 0): 2}, {(2, 0): 3, (0, 1): 1}),
}
_BROKEN_MESSAGES = {
    "denominator": "the denominator may vanish for x > 0, e >= 0",
    "point": "the profile at (x, e) = (1, 0) is not 8/3",
    "x >= 1": "the profile may increase in e on x >= 1",
    "x <= 1": "the profile may decrease in x on x <= 1",
}


@pytest.mark.parametrize("step", sorted(_BROKEN_PROFILES))
def test_bundle_profile_sup_certificate_fails_on_a_broken_profile(
        monkeypatch, step):
    monkeypatch.setattr(cones, "_profile_parts",
                        lambda n: _BROKEN_PROFILES[step])
    with pytest.raises(CertificateFailed) as info:
        bundle_profile_sup(3)
    assert str(info.value) == ("bundle supremum certificate: "
                               + _BROKEN_MESSAGES[step])


# -- contractions -------------------------------------------------------------


def test_contractions_bidegree_fano():
    report = multiproj_contractions([3, 3], [[2, 2]])
    assert report.fano
    assert report.admissible_p == 2
    assert all(f.k_negative for f in report.factors)
    assert [f.anticanonical_coeff for f in report.factors] == [2, 2]


def test_contractions_non_fano_factor():
    report = multiproj_contractions([3, 2], [[4, 1]])
    assert not report.fano
    assert [f.k_negative for f in report.factors] == [False, True]


def test_contractions_dimension_guard():
    with pytest.raises(DimensionTooLow):
        multiproj_contractions([2, 1], [[1, 1]])


def test_contractions_refuses_hypersurfaces_that_do_not_meet():
    # dimension 4 passes the dimension guard, but two hyperplanes of CP(1)
    # do not meet: the same refusal as building the space
    message = ("the hypersurfaces do not meet: the product of their "
               "divisors vanishes on CP(1)xCP(5)")
    with pytest.raises(EmptyIntersection) as err:
        multiproj_contractions([1, 5], [[1, 0], [1, 0]])
    assert str(err.value) == message
    with pytest.raises(EmptyIntersection) as err:
        complete_intersection([[1, 0], [1, 0]], [1, 5])
    assert str(err.value) == message


def test_contractions_ambient_factors_must_be_positive():
    # the same precondition and message as building the space
    message = "ambient factors must have positive dimension"
    for ambient in ([0, 5], [-2, 7]):
        with pytest.raises(PreconditionUnmet) as err:
            multiproj_contractions(ambient, [[0, 1]])
        assert str(err.value) == message
        with pytest.raises(PreconditionUnmet) as err:
            complete_intersection([[0, 1]], ambient)
        assert str(err.value) == message
    # the other preconditions keep their messages
    with pytest.raises(PreconditionUnmet) as err:
        multiproj_contractions([0, 5], [[0, 1, 1]])
    assert str(err.value) == "each multidegree row needs 2 entries"


def test_contractions_dominance_relation():
    # (d, e) <= (a, b) componentwise makes every projection K-negative
    rng = random.Random(8)
    for _ in range(10):
        a, b = rng.randint(2, 5), rng.randint(2, 5)
        d, e = rng.randint(1, a), rng.randint(1, b)
        if a + b - 1 < 3:
            continue
        report = multiproj_contractions([a, b], [[d, e]])
        assert report.fano
        assert report.admissible_p == min(a - 1, b - 1)
