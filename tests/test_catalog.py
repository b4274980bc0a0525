"""Catalog constructors: pairings, metadata, products, twists."""

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from batch_pool import BATCH_POOL

from sysbound import catalog, cones, engine, graded
from sysbound.characteristic import ChernData, a_hat, whitney_quotient
from sysbound.cli import parse_space
from sysbound.catalog import (blowup_point, circle, complete_intersection,
                              grassmann_section, integrate, product,
                              proj_bundle_over_curve, projective_space,
                              quadric, sphere, twist_spin_c,
                              weighted_del_pezzo_x4, weighted_del_pezzo_x6,
                              weighted_mukai_x6)
from sysbound.errors import (CalculatorError, EmptyIntersection,
                             MetadataOnlySpace, MissingSpinCClass,
                             NoPrimitiveClass, PreconditionUnmet)
from sysbound.graded import (Generator, RingPresentation, make_ring,
                             truncated_polynomial_ring)
from test_index_engine import _cp2_model, _k3_model


def test_projective_space_data():
    cp3 = projective_space(3)
    assert cp3.fano_index == 4
    assert cp3.c1 == 4 * cp3.ring.gen("H")
    assert cp3.b2 == 1
    assert integrate(cp3, cp3.todd_cls) == 1
    with pytest.raises(PreconditionUnmet):
        projective_space(0)


def test_quadric_data():
    q4 = quadric(4)
    assert q4.c1 == 4 * q4.ring.gen("H")
    assert q4.fano_index == 4
    assert integrate(q4, q4.ring.gen("H") ** 4) == 2
    q3 = quadric(3)
    assert integrate(q3, q3.todd_cls) == 1


def test_index_metadata_matches_c1():
    for space in (projective_space(4), quadric(5),
                  complete_intersection([[3]], [5]),
                  complete_intersection([[2], [2]], [6])):
        assert space.c1 == space.fano_index * space.primitive_x


def test_spin_c_defaults_to_c1_on_complex_spaces():
    for space in (projective_space(3), quadric(3),
                  complete_intersection([[4]], [5]),
                  proj_bundle_over_curve([0, 1], 0), blowup_point(3)):
        assert space.spin_c == space.c1


def test_sphere_and_circle():
    s1 = circle()
    assert integrate(s1, s1.odd_xi) == 1
    s2 = sphere(2)
    assert s2.b2 == 1
    assert integrate(s2, s2.primitive_x) == 1
    s4 = sphere(4)
    assert s4.a_hat_cls == s4.ring.one()
    assert s4.b2 == 0
    assert sphere(1).name == "S1"


def test_product_kunneth():
    p = product(projective_space(1), projective_space(1))
    h1, h2 = p.ring.gen("H1"), p.ring.gen("H2")
    assert integrate(p, h1 * h2) == 1
    assert p.b2 == 2
    assert integrate(p, p.todd_cls) == 1


def test_product_with_circle():
    m = product(projective_space(3), circle())
    assert m.real_dim == 7
    assert m.odd_xi is not None
    assert m.primitive_x is not None
    # A-hat is unchanged by the flat factor
    assert integrate(m, m.odd_xi * m.primitive_x ** 3) == 1


def test_kunneth_integral_factorizes():
    rng = random.Random(5)
    x = projective_space(2)
    y = quadric(2)
    p = product(x, y)
    hx, hy = x.ring.gen("H"), y.ring.gen("H")
    h1, h2 = p.ring.gen("H1"), p.ring.gen("H2")
    for _ in range(10):
        i = rng.randint(0, 2)
        j = rng.randint(0, 2)
        lhs = integrate(p, h1 ** i * h2 ** j)
        rhs = integrate(x, hx ** i) * integrate(y, hy ** j)
        assert lhs == rhs


def test_ahat_multiplicative_across_product():
    x = projective_space(2)
    y = quadric(3)
    p = product(x, y)
    # compare against the tensor of the factorwise classes
    from sysbound.graded import tensor_ring
    ring, lmap, rmap = tensor_ring(x.ring, y.ring)
    assert p.a_hat_cls.terms == (lmap(x.a_hat_cls) * rmap(y.a_hat_cls)).terms


def test_complete_intersection_examples():
    cubic = complete_intersection([[3]], [4])
    H = cubic.ring.gen("H")
    assert cubic.c1 == 2 * H
    assert integrate(cubic, H ** 3) == 3
    assert cubic.fano_index == 2

    x22 = complete_intersection([[2], [2]], [5])
    assert x22.complex_dim == 3
    assert x22.fano_index == 2  # (n + 3) + 1 - 4 at n = 3

    with pytest.raises(EmptyIntersection):
        complete_intersection([[1]] * 5, [4])


_AMBIENT = "ambient factors must have positive dimension"
_NONNEGATIVE_NONZERO = "multidegrees must be nonnegative and each row nonzero"


@pytest.mark.parametrize("rows, ns, built, report", [
    ([], [3], "need at least one hypersurface",
     "need at least one hypersurface and one factor"),
    ([[1]], [], _AMBIENT, "need at least one hypersurface and one factor"),
    ([], [0], _AMBIENT, "need at least one hypersurface and one factor"),
    ([[1, 2]], [0], _AMBIENT, "each multidegree row needs 1 entries"),
    ([[-1]], [0], _AMBIENT, _NONNEGATIVE_NONZERO),
    ([[0]], [3], "each hypersurface needs a nonzero multidegree",
     _NONNEGATIVE_NONZERO),
    ([[-1, 0]], [3, 3], "multidegrees must be nonnegative",
     _NONNEGATIVE_NONZERO),
    ([[1], [1, 1]], [3], "each multidegree row needs 1 entries",
     "each multidegree row needs 1 entries"),
    ([[0], [1, 1]], [3], "each hypersurface needs a nonzero multidegree",
     _NONNEGATIVE_NONZERO),
    ([[1, 1], [0, 0]], [3, 0], _AMBIENT, _NONNEGATIVE_NONZERO),
    ([[2]], [-1, 3], _AMBIENT, "each multidegree row needs 2 entries")])
def test_rows_and_ambient_are_refused_in_each_callers_order(rows, ns, built,
                                                             report):
    # one validator, the catalog's and the contraction report's messages
    # and orders of checks: the first fault each finds is the one it names
    with pytest.raises(PreconditionUnmet) as exc:
        complete_intersection(rows, ns)
    assert str(exc.value) == built
    with pytest.raises(PreconditionUnmet) as exc:
        cones.multiproj_contractions(ns, rows)
    assert str(exc.value) == report


def test_complete_intersection_twisted_pairing():
    # <H^dim, [X]> equals the Bezout degree = product of total degrees
    x = complete_intersection([[2], [3]], [6])
    H = x.ring.gen("H")
    assert integrate(x, H ** 4) == 6
    assert integrate(x, x.todd_cls) == 1


def test_multifactor_complete_intersection():
    x = complete_intersection([[2, 2]], [3, 3])
    h1, h2 = x.ring.gen("H1"), x.ring.gen("H2")
    assert x.b2 == 2
    assert x.complex_dim == 5
    # -K = 2 H1 + 2 H2
    assert x.c1 == 2 * h1 + 2 * h2
    assert integrate(x, x.todd_cls) == 1


def test_blowup_ring_normalization():
    for n in (2, 3, 4):
        bl = blowup_point(n)
        H, E = bl.ring.gen("H"), bl.ring.gen("E")
        for a, b in ((1, 1), (2, 1), (3, 2)):
            val = integrate(bl, (a * H - b * E) ** n)
            assert val == a ** n - b ** n
        assert integrate(bl, (H - E) ** n) == 0
    bl2 = blowup_point(2)
    assert integrate(bl2, bl2.ring.gen("E") ** 2) == -1


def test_proj_bundle_closed_form_numbers():
    # c1 . alpha^(n-1) = a^(n-2) [(n-1)(ae + nb) - (2g - 2) a]
    for degrees, genus in (([0, 0], 0), ([0, 1, 2], 0), ([1, 1, 1], 1),
                           ([0, 0, 0, 2], 0)):
        pb = proj_bundle_over_curve(degrees, genus)
        n, e = len(degrees), sum(degrees)
        xi, f = pb.ring.gen("xi"), pb.ring.gen("f")
        for a, b in ((1, 1), (2, 3)):
            alpha = a * xi + b * f
            assert integrate(pb, alpha ** n) == a ** (n - 1) * (a * e + n * b)
            expected = a ** (n - 2) * ((n - 1) * (a * e + n * b)
                                       - (2 * genus - 2) * a)
            assert integrate(pb, pb.c1 * alpha ** (n - 1)) == expected


def test_proj_bundle_todd_genus_is_one_minus_genus():
    for genus in (0, 1, 2):
        pb = proj_bundle_over_curve([0, 0], genus)
        assert integrate(pb, pb.todd_cls) == 1 - genus


@pytest.mark.parametrize("genus", range(4))
def test_proj_bundle_todd_closed_form_matches_the_ring(genus, monkeypatch):
    # 1 - g is read with no ring built, on a bundle, on a product of two
    # bundles and on a product with CP(1), whose Todd genus is its Koszul
    # value at 0; each value is the Todd class integrated in the ring of a
    # fresh copy of the space
    rings = []
    init = graded.Ring.__init__

    def counted(ring, presentation):
        rings.append(presentation)
        init(ring, presentation)
    monkeypatch.setattr(graded.Ring, "__init__", counted)
    makers = [partial(proj_bundle_over_curve, degrees, genus)
              for degrees in ([0, 0], [0, 1], [0, 2], [1, 3], [-2, 0, 5],
                              [0, 1, 2], [1, 1, 1, 1])]
    makers += [lambda: product(proj_bundle_over_curve([0, 1], genus),
                               projective_space(1)),
               lambda: product(proj_bundle_over_curve([0, 2, 3], genus),
                               proj_bundle_over_curve([1, 1], 2))]
    for make in makers:
        space, fresh = make(), make()
        del rings[:]
        value = engine.todd_genus(space)
        assert rings == [], space.name
        assert value == integrate(fresh, fresh.todd_cls), space.name


def test_twist_spin_c():
    cp2 = projective_space(2)
    assert twist_spin_c(cp2, 0) is cp2
    down = twist_spin_c(cp2, -1)
    assert down.spin_c == cp2.ring.gen("H")
    base = sphere(2)
    tw = twist_spin_c(base, 1)
    assert tw.spin_c == 2 * base.primitive_x

    with pytest.raises(NoPrimitiveClass):
        twist_spin_c(blowup_point(2), 1)


@pytest.mark.parametrize("k", [0, 1, -2])
def test_a_twist_needs_a_spin_c_class(k):
    # a space built with a primitive class but no spin^c class is refused by
    # name before any recipe is read
    ring = truncated_polynomial_ring("x", 2, 2, 1)
    space = catalog.Space(name="m", family="c", real_dim=4, b1=0, b2=1,
                          ring=ring, primitive_x=ring.gen("x"))
    with pytest.raises(MissingSpinCClass) as err:
        twist_spin_c(space, k)
    assert str(err.value) == "m carries no spin^c class to twist"
    assert "primitive_x" not in vars(space)


def test_a_twist_shares_its_base_model():
    # the twist is made before either ring is read: one model, one ring,
    # the same classes, and spin^c moved by 2k H
    q4 = quadric(4)
    up = twist_spin_c(twist_spin_c(q4, 1), 1)
    assert up.ring is q4.ring
    for name in ("c1", "primitive_x", "nef_rays"):
        assert getattr(up, name) is getattr(q4, name), name
    H = q4.primitive_x
    assert (q4.spin_c, up.spin_c) == (4 * H, 8 * H)
    assert engine.index_polynomial(up).q0 == 8
    assert up.tangent == q4.tangent


def test_an_explicit_spin_c_class_wins_over_the_recorded_q0():
    # replace reads every field, so the copy has no model and its q0 is
    # read off the class it is given
    cp3 = twist_spin_c(projective_space(3), 1)
    H = cp3.primitive_x
    moved = cp3.replace(spin_c=2 * H)
    assert moved.ring is cp3.ring
    assert engine.index_polynomial(cp3).q0 == 6
    assert engine.index_polynomial(moved).q0 == 2
    assert engine.length(moved) == engine.length(
        twist_spin_c(projective_space(3), -1))


@pytest.mark.parametrize("build, spin_c, length, coeffs, q0", [
    (lambda: twist_spin_c(product(projective_space(3), circle()), 1),
     "6*H", 4, (4, Fraction(13, 3), Fraction(3, 2), Fraction(1, 6)), 6),
    (lambda: product(circle(), circle()), "0", 2, (0, 1), 0),
])
def test_a_lazy_product_answers_as_the_eager_route(build, spin_c, length,
                                                   coeffs, q0):
    # the values the products gave when they were built with every class;
    # replace reads every field, so its copy is given the classes and reads
    # q0 off its spin_c, and without koszul data the polynomial is
    # integrated in the ring
    for space in (build(), build().replace()):
        assert repr(space.spin_c) == spin_c
        assert engine.length(space) == length
        poly = engine.index_polynomial(space)
        assert (poly.coeffs, poly.q0) == (coeffs, q0)
    given = build().replace(koszul=None)
    assert engine.index_polynomial(given).coeffs == coeffs


def test_metadata_spaces_reject_ring_operations():
    for space in (weighted_del_pezzo_x6(4), weighted_del_pezzo_x4(5),
                  weighted_mukai_x6(4), grassmann_section(3)):
        assert space.metadata_only
        with pytest.raises(MetadataOnlySpace):
            space.require_ring()


def test_metadata_indices():
    assert weighted_del_pezzo_x6(4).fano_index == 3
    assert weighted_del_pezzo_x4(4).fano_index == 3
    assert weighted_mukai_x6(4).fano_index == 2
    assert grassmann_section(5).fano_index == 4
    assert grassmann_section(4).kahler_einstein is False
    assert grassmann_section(6).kahler_einstein is True
    with pytest.raises(PreconditionUnmet):
        grassmann_section(7)


def test_todd_genus_one_on_fano_sweep():
    spaces = [projective_space(n) for n in (1, 2, 3, 4)]
    spaces += [quadric(n) for n in (2, 3, 4)]
    spaces += [complete_intersection([[3]], [n + 1]) for n in (2, 3, 4)]
    for space in spaces:
        if space.fano_index is not None and space.fano_index > 0:
            assert integrate(space, space.todd_cls) == 1


# -- the ambient route: the projection formula as an oracle ------------------
#
# A complete intersection X of divisors D_1..D_r in CP(N_1) x ... x CP(N_m)
# can also be computed in the whole ambient ring, truncated at 2 sum N with
# <H^N> = 1, by pairing a class a with [X] as <a D_1...D_r, [ambient]>.  The
# catalog's ring stops at X's own top degree instead; both must agree.


def _ambient_model(rows, ns):
    """(ring, hyperplane classes, D_1...D_r, tangent) in the ambient ring."""
    names = ["H"] if len(ns) == 1 else ["H%d" % (i + 1) for i in range(len(ns))]
    ring = make_ring(RingPresentation(
        generators=[Generator(name, 2, False) for name in names],
        truncation=2 * sum(ns),
        power_rules={name: (N + 1, {}) for name, N in zip(names, ns)},
        pairing={tuple(ns): 1}))
    hs = [ring.gen(name) for name in names]
    twist, ambient, normal = ring.one(), ring.one(), ring.one()
    for N, h in zip(ns, hs):
        ambient = ambient * (1 + h) ** (N + 1)
    for row in rows:
        divisor = sum(d * h for d, h in zip(row, hs))
        twist, normal = twist * divisor, normal * (1 + divisor)
    tangent = whitney_quotient(ChernData(rank=sum(ns), total=ambient),
                               ChernData(rank=len(rows), total=normal))
    return ring, hs, twist, tangent


#: (family, rows, ambient) of every CI of the batch pool, then CP(3) and Q(4)
_MODELS = [("CI", [list(r) for r in rows], list(ns)) for rows, ns in
           (parse_space(d).args for d in BATCH_POOL if d.startswith("CI("))] \
    + [("CP", [], [3]), ("Q", [[2]], [5])]


@pytest.mark.parametrize("family, rows, ns", _MODELS, ids=str)
def test_projection_formula_gives_the_pairing_and_the_tangent(family, rows, ns):
    x = {"CI": lambda: complete_intersection(rows, ns),
         "CP": lambda: projective_space(ns[0]),
         "Q": lambda: quadric(ns[0] - 1)}[family]()
    ring, _, twist, tangent = _ambient_model(rows, ns)
    dim = x.complex_dim
    assert x.ring.truncation == 2 * dim
    for k in range(dim + 1):
        for e in itertools.product(range(dim - k + 1), repeat=len(ns)):
            if sum(e) != dim - k:
                continue
            ours = integrate(x, x.tangent.chern(k) * x.ring.from_terms({e: 1}))
            oracle = ring.integrate_top(
                tangent.chern(k) * ring.from_terms({e: 1}) * twist)
            assert ours == oracle, (k, e)


@pytest.mark.parametrize("desc", [d for d in BATCH_POOL
                                  if d.startswith(("CP(", "Q(", "CI("))
                                  and " * S" not in d])
def test_closed_form_c1_is_the_first_chern_class_of_the_tangent(desc):
    space = parse_space(desc).build()
    assert "tangent" not in vars(space)  # built on first read only
    assert space.c1 == space.tangent.chern(1)


def _on_ambient_model(rows, ns, twists):
    """``complete_intersection(rows, ns)`` with its classes moved to the
    ambient ring; ``twists`` records the ring's fundamental-class twist."""
    x = complete_intersection(rows, ns)
    ring, _, twist, tangent = _ambient_model(rows, ns)
    twists[ring] = twist

    def move(cls):
        return None if cls is None else ring.from_terms(cls.terms)
    return x.replace(
        ring=ring, tangent_of=lambda: tangent, c1=tangent.chern(1),
        a_hat_of=partial(a_hat, tangent), koszul=None, spin_c=move(x.spin_c),
        primitive_x=move(x.primitive_x),
        nef_rays=tuple(move(r) for r in x.nef_rays))


@pytest.fixture
def ambient_route(monkeypatch):
    """Every integral over a ring in the returned dict pairs through its
    twist, as the ambient model does."""
    twists = {}

    def twisted_integrate(space, cls):
        twist = twists.get(space.require_ring())
        return space.ring.integrate_top(cls if twist is None else cls * twist)
    monkeypatch.setattr(catalog, "integrate", twisted_integrate)
    monkeypatch.setattr(engine, "integrate", twisted_integrate)
    return twists


def _outcomes(space):
    """What index-poly, todd and phi-sup compute on ``space``, errors
    included."""
    out = []
    for run in (lambda s: (engine.index_polynomial(s), engine.index_polynomial(s).q0),
                engine.todd_genus,
                lambda s: cones.phi_sup(cones.cone_problem(s))):
        try:
            out.append(repr(run(space)))
        except CalculatorError as exc:
            out.append("%s: %s" % (type(exc).__name__, exc))
    return out


_ROUTE_CASES = [(rows, ns, None) for f, rows, ns in _MODELS if f == "CI"] + [
    ([[3]], [5], sphere(1)), ([[2, 2]], [3, 3], projective_space(2)),
    ([[3]], [5], 1), ([[2], [2]], [6], -2)]


@pytest.mark.parametrize("rows, ns, extra", _ROUTE_CASES,
                         ids=lambda v: getattr(v, "name", str(v)))
def test_index_todd_and_phi_sup_agree_with_the_ambient_route(rows, ns, extra,
                                                             ambient_route):
    def finish(x):
        if extra is None:
            return x
        if isinstance(extra, int):
            return twist_spin_c(x, extra)
        p = product(x, extra)
        twist = ambient_route.get(x.ring)
        if twist is not None:
            ambient_route[p.ring] = p.factor_embeddings[0](twist)
        return p
    ours = _outcomes(finish(complete_intersection(rows, ns)))
    oracle = _outcomes(finish(_on_ambient_model(rows, ns, ambient_route)))
    assert ours == oracle
    assert not all(": " in o for o in ours)  # something was computed


def test_divisors_that_do_not_meet_are_refused():
    # H1^2 = 0 on CP(1) x CP(5): the two hyperplanes of CP(1) are disjoint
    with pytest.raises(EmptyIntersection) as err:
        complete_intersection([[1, 0], [1, 0]], [1, 5])
    assert str(err.value) == ("the hypersurfaces do not meet: the product of "
                              "their divisors vanishes on CP(1)xCP(5)")
    # one hyperplane of each factor meets in a point times CP(4)
    assert complete_intersection([[1, 0], [0, 1]], [1, 5]).complex_dim == 4


#: spaces built with given classes by the public constructor
_GIVEN = {
    "K3-model": _k3_model, "CP2-model": _cp2_model,
    "point": lambda: catalog.Space(name="pt", family="point", real_dim=0,
                                   b1=0, b2=0),
    "S1 by hand": lambda: catalog.Space(
        name="S1", family="S", real_dim=1, b1=1, b2=0,
        ring=circle().ring, odd_xi=circle().odd_xi)}


@pytest.mark.parametrize("desc", [
    *BATCH_POOL, "S1", "S(2)", "S(3)", "S1 * S1", "S1 * CP(3)",
    "CP(2) * S(2) * S1", "S(2).twist(1)", "Q(3).twist(1) * S1", *_GIVEN])
def test_lacks_answers_as_a_read_of_each_ring_side_field(desc):
    # every space's recipes are keyed by made fields only, and lacks
    # answers from them what a read of a ring-side field that may be None
    # gives, on the space and on its copy, whose recipes are the classes it
    # is given
    def build():
        return _GIVEN[desc]() if desc in _GIVEN else parse_space(desc).build()
    made = {name for name, field in vars(catalog.Space).items()
            if isinstance(field, catalog._Made)}
    assert set(build()._recipes) <= made
    for name in sorted(catalog._RING_SIDE):
        if vars(catalog.Space)[name].rule is not None:
            continue  # nef_rays, factor_embeddings: () without one
        for fresh in (build(), build().replace()):
            assert fresh.lacks(name) is (getattr(fresh, name) is None), name
