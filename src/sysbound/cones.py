"""Exact optimization on rank <= 2 nef cones and contraction enumeration.

The nef cones of the catalog families are simplicial and supplied by their
rays alone; no general cone machinery is attempted.  Every number the
volume functional needs is read off the space's top intersection form on
H^2 (:class:`forms.Form`) by one evaluator, :func:`_segment`: the
pairings <alpha^n> and <c1 alpha^(n-1)> of a class, and along a segment of
classes their coefficients in its parameter.  A class enters as its
coordinate vector, so ``phi_sup``, ``nef_threshold`` and the bundle profile
build no ring, and ``phi``, ``s_alpha`` and the engine's volume, average
scalar curvature and width bound multiply no classes.  ``phi_at`` and the
engine's ``*_at`` evaluators take the vector itself, as the CLI reads it
off an ``--alpha`` text (``grammar.parse_alpha``), so they meet no ring;
the class-taking functions read a class's vector (:func:`_class_vector`)
and call them.  The functional is
optimized on the normalized segment between the rays with exact
critical-point arithmetic: the coefficients stay in the arithmetic of the
form, integers on every catalog space, and the critical equation's roots
are isolated and tested for rationality in integers (:mod:`roots`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, factorial, prod
from operator import add, sub

from . import roots
from .errors import (CertificateFailed, DegenerateClass, DimensionTooLow,
                     InvalidNormalization, IrrationalCriticalPoint,
                     PreconditionUnmet, RingMismatch, UnsupportedRank)
from .kernel import (_checked_rows, _intersection_dim, _solve_linear,
                     _sparse_mul)
from .values import Record

# ``Space`` and ``GradedClass`` appear in annotations only.  ``catalog`` is
# imported where a bundle is built, so the contraction report and the bundle
# supremum, which take no space, load no catalog.


class ConeProblem(Record):
    """A space of Picard rank <= 2 with the rays of its nef cone.

    :func:`cone_problem` records the rays as coordinate vectors of the
    space's form and makes their classes on first read; a problem built
    with class rays reads their coordinates off them."""

    def __init__(self, space: Space, rays: tuple | None = None,
                 _coordinates: tuple | None = None):
        self.__dict__["space"] = space
        if rays is not None:
            self.__dict__["rays"] = rays
        if _coordinates is not None:
            self.__dict__["coordinates"] = _coordinates

    @cached_property
    def rays(self) -> tuple:
        return tuple(self.space.nef_rays)

    @cached_property
    def coordinates(self) -> tuple:
        """The rays' coordinate vectors in the space's form."""
        return tuple(_coordinates(self.space, ray) for ray in self.rays)


class Unbounded(Record):
    """Verdict of phi_sup on a cone containing a non-big nef direction: the
    ``witness`` is the problem's ray ``_index``, made on first read."""

    def __init__(self, witness: GradedClass | None = None,
                 _problem: ConeProblem | None = None, _index: int = 0):
        self.__dict__.update(_problem=_problem, _index=_index)
        if witness is not None:
            self.__dict__["witness"] = witness

    @cached_property
    def witness(self) -> GradedClass:
        return self._problem.rays[self._index]

    @property
    def witness_text(self) -> str:
        """The witness as its ring prints it, read off the form when it is
        a ray of the problem."""
        if self._problem is None:
            return repr(self.witness)
        return self._problem.space.form.text(
            self._problem.coordinates[self._index])

    def __str__(self):
        return "UNBOUNDED"


def cone_problem(space: Space) -> ConeProblem:
    """The space's cone data, read off its form; a space of Picard rank
    above 2 or without a recorded cone is refused with no ring built."""
    space.check_ring()
    if not space.is_complex or space.complex_dim is None \
            or space.lacks("c1"):
        raise UnsupportedRank("%s is not a complex catalog space with c1 data"
                              % space.name)
    if space.b2 > 2:
        raise UnsupportedRank("nef-cone optimization is catalogued for "
                              "Picard rank <= 2 only (b2 = %d)" % space.b2)
    rays = space.form.rays
    if not rays:
        raise UnsupportedRank("%s has no recorded nef-cone description"
                              % space.name)
    return ConeProblem(space=space, _coordinates=rays)


# ---------------------------------------------------------------------------
# the volume functional, read off the intersection form
# ---------------------------------------------------------------------------


def _segment(form, base, step=None):
    """``(num, den)``: <c1 a_t^(n-1)> and <a_t^n> as coefficient lists
    [c_0, ..., c_n] in t for the class a_t = base + t step (constant without
    ``step``), given by coordinate vectors in the basis D_1, ..., D_m of
    ``form``, whose top monomials have degree n.

    By the multinomial theorem, a_t^n pairs to the sum over the top
    monomials D^e of <D^e> C(n; e) prod_i a_i^e_i, a_i the i-th coordinate
    of a_t; and c1 a_t^(n-1) to the sum over the same e and each i with
    e_i > 0 of <D^e> c1_i C(n-1; e - 1_i) a_i^(e_i-1) prod_{j != i}
    a_j^e_j.  Each a_i^k that depends on t is expanded by the binomial
    theorem as a polynomial in t, and the products are ``roots.multiply``'s,
    all in the arithmetic of the coordinates, so integer data stays in the
    integers.  A form without c1 gives num = 0."""
    step = step or (0,) * len(base)
    n = max(map(sum, form.pairing), default=0)
    num, den = [0] * (n + 1), [0] * (n + 1)
    for e, value in form.pairing.items():
        _accumulate(den, value, e, base, step)
        for i, c in enumerate(form.c1 or ()):
            if c and e[i]:
                _accumulate(num, value * c, e[:i] + (e[i] - 1,) + e[i + 1:],
                            base, step)
    return num, den


def _accumulate(acc, value, e, base, step):
    """acc += value C(|e|; e) prod_i (base_i + t step_i)^e_i, on the
    coefficient list ``acc`` of length at least |e| + 1."""
    scale = value * (factorial(sum(e)) // prod(map(factorial, e)))
    term = [1]
    for k, b, s in zip(e, base, step):
        if not s:
            scale *= b ** k
        elif k:
            term = roots.multiply(term, [comb(k, j) * b ** (k - j) * s ** j
                                         for j in range(k + 1)])
    for j, c in enumerate(term):
        acc[j] += scale * c


def _numbers(form, vector):
    """``(<c1 a^(n-1)>, <a^n>)`` for the class a with coordinates
    ``vector`` in ``form``."""
    num, den = _segment(form, vector)
    return Fraction(num[0]), Fraction(den[0])


def _coordinates(space: Space, cls: GradedClass) -> tuple:
    """The coordinate vector of a degree-2 class of the space's ring in the
    basis of its form."""
    if cls.ring is not space.ring:
        raise RingMismatch("class does not live on %s" % space.name)
    coords = space.form.coordinates(cls)
    if len(cls.terms) != sum(1 for c in coords if c):
        raise DegenerateClass("a cone class must be homogeneous of degree 2")
    return coords


def _class_vector(space: Space, cls: GradedClass):
    """The vector the evaluators at coordinates take for the class ``cls``:
    None when it is not homogeneous of degree 2, and else its coordinates
    in the space's form.  A space without Kaehler data
    (``Space.has_kahler_data``) gets (), which the evaluators refuse before
    they read a vector; one without a ring gets it before ``cls`` is read,
    as they refuse it first."""
    if space.metadata_only or space.lacks("ring"):
        return ()
    if not cls.is_homogeneous(2):
        return None
    return _coordinates(space, cls) if space.has_kahler_data() else ()


def _require_c1(space: Space) -> None:
    """Refuse a space without a ring, c1 or complex dimension; builds
    nothing."""
    space.check_ring()
    if not space.has_kahler_data():
        raise PreconditionUnmet("%s has no first Chern class data" % space.name)


def phi(space: Space, alpha: GradedClass) -> Fraction:
    """(c1 . alpha^(n-1))^n / (alpha^n)^(n-1); homogeneous of degree zero:
    :func:`phi_at` alpha's coordinates."""
    return phi_at(space, _class_vector(space, alpha))


def phi_at(space: Space, vector) -> Fraction:
    """phi at the class with coordinates ``vector`` in the space's form, as
    :func:`_class_vector` gives them (None: a class off degree 2)."""
    _require_c1(space)
    if vector is None:
        raise DegenerateClass("the argument must be homogeneous of degree 2")
    return _phi(space, vector)


def _phi(space: Space, vector) -> Fraction:
    """phi at the class with coordinates ``vector`` in the space's form."""
    mixed, top = _numbers(space.form, vector)
    if top == 0:
        raise DegenerateClass("alpha^n = 0: the volume functional is undefined")
    n = space.complex_dim
    return max(mixed, Fraction(0)) ** n / top ** (n - 1)


def _ray_coordinates(problem: ConeProblem, alpha: GradedClass):
    """Coordinates of a degree-2 class in the ray basis, or None when the
    rays are dependent or alpha lies outside their span."""
    return _in_rays(problem, _coordinates(problem.space, alpha))


def _in_rays(problem: ConeProblem, vector):
    """The coordinates of ``vector`` (in the form) in the ray basis, or
    None: one equation per basis class, solved exactly by
    ``kernel._solve_linear``."""
    rays = problem.coordinates
    coords = _solve_linear([[ray[i] for ray in rays]
                            for i in range(len(vector))], vector)
    return None if coords is None else tuple(coords)


def _require_open_cone(problem: ConeProblem, alpha: GradedClass):
    if not alpha.is_homogeneous(2):
        raise DegenerateClass("a cone class must be homogeneous of degree 2")
    coords = _ray_coordinates(problem, alpha)
    if coords is None or any(c <= 0 for c in coords):
        raise DegenerateClass(
            "the class is not in the open nef cone of %s (positive "
            "combination of the extremal rays required)" % problem.space.name)
    return coords


def nef_threshold(problem: ConeProblem, alpha: GradedClass) -> Fraction:
    """Smallest t with K_X + t alpha nef.  With alpha = sum a_i R_i (all
    a_i > 0) and c1 = sum k_i R_i in the rays, t alpha - c1 is nef exactly
    when every t a_i - k_i >= 0, so t = max k_i / a_i over k_i > 0."""
    coords = _require_open_cone(problem, alpha)
    c1 = problem.space.form.c1
    c1 = None if c1 is None else _in_rays(problem, c1)
    if c1 is None:
        raise PreconditionUnmet(
            "the nef rays of %s do not span c1; no threshold is read off "
            "them" % problem.space.name)
    threshold = max((k / a for k, a in zip(c1, coords) if k > 0), default=0)
    if threshold == 0:
        raise PreconditionUnmet(
            "K_X pairs nonnegatively with every extremal curve; no finite "
            "positive threshold")
    return threshold


def s_alpha(problem: ConeProblem, alpha: GradedClass) -> Fraction:
    """The ratio (c1 . alpha^(n-1)) / alpha^n; always <= nef_threshold."""
    _require_open_cone(problem, alpha)
    space = problem.space
    mixed, top = _numbers(space.form, _coordinates(space, alpha))
    if top == 0:
        raise DegenerateClass("alpha^n = 0")
    value = mixed / top
    threshold = nef_threshold(problem, alpha)
    if value > threshold:
        raise CertificateFailed(
            "nef-threshold certificate: s(alpha) = %s exceeds the nef "
            "threshold %s" % (value, threshold))
    return value


# ---------------------------------------------------------------------------
# supremum of the volume functional over the nef cone
# ---------------------------------------------------------------------------


def phi_sup(problem: ConeProblem):
    """Supremum of the volume functional on the nef cone.

    Returns an exact Fraction, or :class:`Unbounded` with a witness nef class
    alpha0 != 0 with alpha0^n = 0 whose c1-pairing stays positive.
    """
    space = problem.space
    _require_c1(space)
    n = space.complex_dim
    form = space.form
    rays = problem.coordinates

    if len(rays) == 1:
        return _phi(space, rays[0])
    if len(rays) != 2:
        raise UnsupportedRank("phi_sup handles one or two extremal rays")

    interior = tuple(map(add, *rays))
    for index, ray in enumerate(rays):
        top = _numbers(form, ray)[1]
        if top < 0:
            raise PreconditionUnmet("nef ray with negative top power")
        if top == 0:
            # non-big direction: certify the positive c1-asymptotics at the
            # highest power d = n - j of the ray that still pairs.  Along
            # ray + t interior, den[j] = C(n, j) <ray^(n-j) interior^j> and
            # num[j] = C(n-1, j) <c1 ray^(n-1-j) interior^j>.
            num, den = _segment(form, ray, interior)
            j = min((j for j, c in enumerate(den) if j and c), default=None)
            if j is None or j == n:
                raise PreconditionUnmet(
                    "degenerate nef ray on %s" % space.name)
            if num[j - 1] <= 0:
                raise PreconditionUnmet(
                    "non-big ray with nonpositive c1 pairing; outside the "
                    "catalogued Fano families")
            return Unbounded(_problem=problem, _index=index)

    # both rays big: optimize on the segment alpha_t = R0 + t d, d = R1 - R0
    num, den = _segment(form, rays[0], tuple(map(sub, rays[1], rays[0])))

    # the critical equation of num^n / den^(n-1): n num' den - (n-1) num den'
    g = [n * a - (n - 1) * b for a, b in zip(
        roots.multiply(roots.derivative(num), den),
        roots.multiply(num, roots.derivative(den)))]

    candidates = [Fraction(0), Fraction(1)]
    if any(g):
        try:
            candidates += roots.roots_in_unit_interval(g)
        except ValueError as exc:
            raise IrrationalCriticalPoint(
                "the critical equation on the nef segment of %s has a "
                "non-rational root; refusing to approximate (%s)"
                % (space.name, exc)) from None

    best = Fraction(0)
    for t in candidates:
        d_val = roots.evaluate(den, t)
        if d_val <= 0:
            raise PreconditionUnmet("non-big class in the interior of the "
                                    "nef cone of %s" % space.name)
        n_val = roots.evaluate(num, t)
        if n_val <= 0:
            continue
        best = max(best, n_val ** n / d_val ** (n - 1))
    return best


# ---------------------------------------------------------------------------
# projective-bundle systole profiles
# ---------------------------------------------------------------------------


def bundle_systole_profile(degrees, genus: int, a, b):
    """Systole-times-curvature profile of a projective bundle over a curve.

    Returns ``(sys_value, product_with_s)`` where sys_value is min(a, b) for
    genus 0 and a for genus >= 1, and the product multiplies it with
    s(alpha) for alpha = a xi + b f, read off the bundle's form.  Genus 0
    expects the normalization 0 = d_1 <= d_2 <= ... of the splitting
    degrees.
    """
    from .catalog import proj_bundle_over_curve

    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise InvalidNormalization("the class a xi + b f needs a, b > 0")
    degrees = [int(d) for d in degrees]
    if genus == 0 and degrees:
        if degrees != sorted(degrees) or degrees[0] != 0:
            raise InvalidNormalization(
                "genus-0 bundles must be normalized 0 = d_1 <= d_2 <= ...")
    space = proj_bundle_over_curve(degrees, genus)
    n = space.complex_dim
    e = sum(degrees)
    mixed, top = _numbers(space.form, (a, b))
    if top == 0:
        raise DegenerateClass("alpha^n = 0 for the chosen (a, b)")
    s_val = mixed / top

    # closed forms used as an internal consistency check
    expected_a_s = (n - 1) - Fraction(2 * (genus - 1) * a, a * e + n * b)
    if a * s_val != expected_a_s:
        raise CertificateFailed(
            "bundle closed-form certificate: a s(alpha) = %s, closed form %s"
            % (a * s_val, expected_a_s))

    sys_value = min(a, b) if genus == 0 else a
    return sys_value, sys_value * s_val


# Polynomials in (x, e) are dicts {(i, j): c} for the terms c x^i e^j.


def _bi_diff(p, var):
    """Partial derivative in x (``var`` 0) or e (``var`` 1)."""
    out = {}
    for m, c in p.items():
        if m[var]:
            lower = (m[0] - 1, m[1]) if var == 0 else (m[0], m[1] - 1)
            out[lower] = c * m[var]
    return out


def _nonnegative(p):
    """Every coefficient >= 0, so p >= 0 wherever both variables are."""
    return all(c >= 0 for c in p.values())


def _slope(num, den, var):
    """Numerator of the partial derivative of num/den; its denominator is
    den^2."""
    out = _sparse_mul(_bi_diff(num, var), den)
    for m, c in _sparse_mul(num, _bi_diff(den, var)).items():
        out[m] = out.get(m, 0) - c
    return out


def _profile_parts(n):
    """(N, D) with N/D = n - 1 + 2/(e + n x): the profile is N/D on x >= 1
    and x N/D on x <= 1."""
    return ({(1, 0): Fraction(n * (n - 1)), (0, 1): Fraction(n - 1),
             (0, 0): Fraction(2)},
            {(1, 0): Fraction(n), (0, 1): Fraction(1)})


def bundle_profile_sup(n: int) -> Fraction:
    """Supremum of min(1, x)(n - 1 + 2/(e + n x)) over x > 0, e >= 0.

    The value is n - 1 + 2/n, attained at (x, e) = (1, 0).  It is certified
    exactly by the two monotone branches, read off from coefficient signs:
    on x >= 1 the profile N/D does not increase in x or e, so it is at most
    its value at (1, 0); on x <= 1 the profile x N/D does not decrease in x,
    so it is at most its value at x = 1, which the first branch bounds.
    """
    if n < 2:
        raise PreconditionUnmet("bundle profiles need fiber dimension >= 1")
    sup = Fraction(n - 1) + Fraction(2, n)
    num, den = _profile_parts(n)

    def fail(reason):
        raise CertificateFailed("bundle supremum certificate: " + reason)

    # D > 0 for x > 0, e >= 0: no negative coefficient, and a positive term
    # free of e
    if not _nonnegative(den) or not any(c > 0 for (_, j), c in den.items()
                                        if j == 0):
        fail("the denominator may vanish for x > 0, e >= 0")
    # at (1, 0) each term free of e is worth its coefficient, the others 0
    if (Fraction(sum(c for (_, j), c in num.items() if j == 0))
            / sum(c for (_, j), c in den.items() if j == 0)) != sup:
        fail("the profile at (x, e) = (1, 0) is not %s" % sup)
    # branch x >= 1: both slopes are <= 0 (checked for all x, e >= 0)
    for var, name in ((0, "x"), (1, "e")):
        if not _nonnegative({m: -c for m, c in _slope(num, den, var).items()}):
            fail("the profile may increase in %s on x >= 1" % name)
    # branch x <= 1: the x-slope of x N/D is >= 0
    x_num = {(i + 1, j): c for (i, j), c in num.items()}
    if not _nonnegative(_slope(x_num, den, 0)):
        fail("the profile may decrease in x on x <= 1")
    return sup


# ---------------------------------------------------------------------------
# contraction enumeration for multiprojective complete intersections
# ---------------------------------------------------------------------------


class FactorReport(Record):
    def __init__(self, factor: int, ambient_dim: int, degree_sum: int,
                 k_negative: bool, fiber_dim: int, anticanonical_coeff: int):
        self.__dict__.update(
            factor=factor, ambient_dim=ambient_dim, degree_sum=degree_sum,
            k_negative=k_negative, fiber_dim=fiber_dim,
            anticanonical_coeff=anticanonical_coeff)


class ContractionReport(Record):
    def __init__(self, dim: int, fano: bool, admissible_p: int,
                 factors: tuple):
        self.__dict__.update(dim=dim, fano=fano, admissible_p=admissible_p,
                             factors=factors)


#: the refusals of (rows, ns) by the contraction report, in its order
_CONTRACTION_CHECKS = (
    (("no row", "no factor"), "need at least one hypersurface and one factor"),
    (("width",), "each multidegree row needs %d entries"),
    (("negative", "zero"),
     "multidegrees must be nonnegative and each row nonzero"),
    (("small factor",), "ambient factors must have positive dimension"))


def multiproj_contractions(ambient, multidegrees) -> ContractionReport:
    """Coordinate-projection report for a multiprojective complete intersection.

    A projection is K-negative exactly when the column degree sum is at most
    the factor dimension; the intersection is Fano when every projection is.
    Hypersurfaces that do not meet raise EmptyIntersection, as building the
    space does.
    """
    rows, ns = _checked_rows(multidegrees, ambient, _CONTRACTION_CHECKS)
    r = len(rows)
    dim = sum(ns) - r
    if dim < 3:
        raise DimensionTooLow(
            "the contraction enumeration needs complex dimension >= 3 "
            "(degree <= 2 cohomology must restrict from the ambient space)")
    _intersection_dim(rows, ns)  # hypersurfaces that do not meet: refused
    factors = []
    for i, N in enumerate(ns):
        dsum = sum(row[i] for row in rows)
        factors.append(FactorReport(
            factor=i + 1, ambient_dim=N, degree_sum=dsum,
            k_negative=dsum <= N, fiber_dim=N - r,
            anticanonical_coeff=N + 1 - dsum))
    fano = all(f.k_negative for f in factors)
    return ContractionReport(
        dim=dim, fano=fano,
        admissible_p=min(f.fiber_dim for f in factors),
        factors=tuple(factors))
