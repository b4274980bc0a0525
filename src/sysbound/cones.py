"""Exact optimization on rank <= 2 nef cones and contraction enumeration.

The nef cones of the catalog families are simplicial and supplied by their
rays alone; no general cone machinery is attempted.  The volume functional is
optimized on the normalized segment between the rays with exact
critical-point arithmetic: the critical equation is solved by rational-root
extraction certified complete by Sturm counting.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb

from . import roots
from .errors import (CertificateFailed, DegenerateClass, DimensionTooLow,
                     InvalidNormalization, IrrationalCriticalPoint,
                     PreconditionUnmet, UnsupportedRank)
from .kernel import _intersection_dim, _solve_linear, _sparse_mul
from .values import Record

# ``Space`` and ``GradedClass`` appear in annotations only.  ``catalog`` is
# imported where a space is integrated or built, so the contraction report and
# the bundle supremum, which take no space, load no catalog.


class ConeProblem(Record):
    """A space of Picard rank <= 2 with the rays of its nef cone."""

    def __init__(self, space: Space, rays: tuple):
        self.__dict__.update(space=space, rays=rays)


class Unbounded(Record):
    """Verdict of phi_sup on a cone containing a non-big nef direction."""

    def __init__(self, witness: GradedClass):
        self.__dict__.update(witness=witness)

    def __str__(self):
        return "UNBOUNDED"


def cone_problem(space: Space) -> ConeProblem:
    """The space's cone data; a space of Picard rank above 2 is refused
    before any ring is built."""
    space.check_ring()
    if not space.is_complex or space.lacks("c1"):
        raise UnsupportedRank("%s is not a complex catalog space with c1 data"
                              % space.name)
    if space.b2 > 2:
        raise UnsupportedRank("nef-cone optimization is catalogued for "
                              "Picard rank <= 2 only (b2 = %d)" % space.b2)
    if not space.nef_rays:
        raise UnsupportedRank("%s has no recorded nef-cone description"
                              % space.name)
    return ConeProblem(space=space, rays=tuple(space.nef_rays))


# ---------------------------------------------------------------------------
# the volume functional
# ---------------------------------------------------------------------------


def phi(space: Space, alpha: GradedClass) -> Fraction:
    """(c1 . alpha^(n-1))^n / (alpha^n)^(n-1); homogeneous of degree zero."""
    space.require_ring()
    if space.c1 is None or space.complex_dim is None:
        raise PreconditionUnmet("%s has no first Chern class data" % space.name)
    if not alpha.is_homogeneous(2):
        raise DegenerateClass("the argument must be homogeneous of degree 2")
    from .catalog import integrate
    n = space.complex_dim
    top = integrate(space, alpha ** n)
    if top == 0:
        raise DegenerateClass("alpha^n = 0: the volume functional is undefined")
    mixed = integrate(space, space.c1 * alpha ** (n - 1))
    if mixed < 0:
        mixed = Fraction(0)
    return mixed ** n / top ** (n - 1)


def _ray_coordinates(problem: ConeProblem, alpha: GradedClass):
    """Coordinates of a degree-2 class in the ray basis, or None when the
    rays are dependent or alpha lies outside their span: one equation per
    monomial, solved exactly by ``kernel._solve_linear``."""
    rays = problem.rays
    monos = sorted({m for r in rays for m in r.terms} | set(alpha.terms))
    coords = _solve_linear([[r.coefficient(m) for r in rays] for m in monos],
                           [alpha.coefficient(m) for m in monos])
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
    c1 = _ray_coordinates(problem, problem.space.c1)
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
    from .catalog import integrate
    space = problem.space
    n = space.complex_dim
    top = integrate(space, alpha ** n)
    if top == 0:
        raise DegenerateClass("alpha^n = 0")
    value = integrate(space, space.c1 * alpha ** (n - 1)) / top
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
    from .catalog import integrate
    space = problem.space
    n = space.complex_dim
    rays = problem.rays

    if len(rays) == 1:
        return phi(space, rays[0])
    if len(rays) != 2:
        raise UnsupportedRank("phi_sup handles one or two extremal rays")

    interior = rays[0] + rays[1]
    for ray in rays:
        top = integrate(space, ray ** n)
        if top < 0:
            raise PreconditionUnmet("nef ray with negative top power")
        if top == 0:
            # non-big direction: certify the positive c1-asymptotics
            d = None
            for k in range(n - 1, -1, -1):
                if integrate(space, ray ** k * interior ** (n - k)) != 0:
                    d = k
                    break
            if d is None or d == 0:
                raise PreconditionUnmet(
                    "degenerate nef ray on %s" % space.name)
            c2 = integrate(space, space.c1 * ray ** d * interior ** (n - 1 - d))
            if c2 <= 0:
                raise PreconditionUnmet(
                    "non-big ray with nonpositive c1 pairing; outside the "
                    "catalogued Fano families")
            return Unbounded(witness=ray)

    # both rays big: optimize on the segment alpha_t = R0 + t d, d = R1 - R0.
    # The t^k coefficient of <c1 alpha_t^(n-1)> is C(n-1, k) <c1 d^k
    # R0^(n-1-k)>, and that of <alpha_t^n> is C(n, k) <d^k R0^(n-k)>.
    base, d = rays[0], rays[1] - rays[0]
    base_pows, d_pows = [space.ring.one()], [space.ring.one()]
    for _ in range(n):
        base_pows.append(base_pows[-1] * base)
        d_pows.append(d_pows[-1] * d)
    num = roots.trim([comb(n - 1, k) * integrate(
        space, space.c1 * d_pows[k] * base_pows[n - 1 - k]) for k in range(n)])
    den = roots.trim([comb(n, k) * integrate(
        space, d_pows[k] * base_pows[n - k]) for k in range(n + 1)])

    # the critical equation of num^n / den^(n-1): n num' den - (n-1) num den'
    g = roots.trim([n * a - (n - 1) * b for a, b in zip_longest(
        roots.multiply(roots.derivative(num), den),
        roots.multiply(num, roots.derivative(den)), fillvalue=0)])

    candidates = [Fraction(0), Fraction(1)]
    if g:
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
    s(alpha) for alpha = a xi + b f.  Genus 0 expects the normalization
    0 = d_1 <= d_2 <= ... of the splitting degrees.
    """
    from .catalog import integrate, proj_bundle_over_curve

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
    xi = space.ring.gen("xi")
    f = space.ring.gen("f")
    alpha = a * xi + b * f
    top = integrate(space, alpha ** n)
    if top == 0:
        raise DegenerateClass("alpha^n = 0 for the chosen (a, b)")
    s_val = integrate(space, space.c1 * alpha ** (n - 1)) / top

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


def multiproj_contractions(ambient, multidegrees) -> ContractionReport:
    """Coordinate-projection report for a multiprojective complete intersection.

    A projection is K-negative exactly when the column degree sum is at most
    the factor dimension; the intersection is Fano when every projection is.
    Hypersurfaces that do not meet raise EmptyIntersection, as building the
    space does.
    """
    ns = [int(N) for N in ambient]
    rows = [[int(d) for d in row] for row in multidegrees]
    m = len(ns)
    r = len(rows)
    if r == 0 or m == 0:
        raise PreconditionUnmet("need at least one hypersurface and one factor")
    for row in rows:
        if len(row) != m:
            raise PreconditionUnmet("each multidegree row needs %d entries" % m)
        if any(d < 0 for d in row) or not any(row):
            raise PreconditionUnmet("multidegrees must be nonnegative and "
                                    "each row nonzero")
    if any(N < 1 for N in ns):
        raise PreconditionUnmet("ambient factors must have positive dimension")
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
