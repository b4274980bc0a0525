"""Index polynomials, the length invariant, and the closed-form bounds.

All outputs are exact: rationals, rational polynomials, or :class:`PiScaled`
values q * pi^k.  Decimal rendering is left entirely to the CLI.

``roots`` is imported where a polynomial is made or evaluated, and the
catalog loads ``graded`` where an index class is, so the closed-form
replies (the length and Todd genus of a model, the bounds read off
integers) load neither.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from . import catalog
from .catalog import Space, _index_class, integrate
from .errors import (DegenerateClass, KunnethViolation, LichnerowiczObstruction,
                     MetadataOnlySpace, MissingOddClass, NoPrimitiveClass,
                     PreconditionUnmet, WindowExhausted)
from .kernel import _binomial, _koszul_value, _signed_degrees
from .values import ONE, PI, SELECTORS, PiScaled, _format_terms

if TYPE_CHECKING:
    from .graded import GradedClass


class RationalPolynomial:
    """Dense univariate polynomial with Fraction coefficients."""

    def __init__(self, coeffs):
        from .roots import trim
        self.coeffs = tuple(trim(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, value):
        from .roots import evaluate
        return evaluate(self.coeffs, Fraction(value))

    def __eq__(self, other):
        if isinstance(other, RationalPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __str__(self, var="a"):
        return _format_terms(
            (c, "1" if j == 0 else var if j == 1 else "%s^%d" % (var, j))
            for j, c in enumerate(self.coeffs) if c)

    __repr__ = __str__


class IndexPolynomial(RationalPolynomial):
    """The twist polynomial a -> <[X], xi e^(ax) e^(c/2) A-hat(TX)>."""

    def __init__(self, coeffs, q0: int):
        super().__init__(coeffs)
        self.q0 = q0


# ---------------------------------------------------------------------------
# genera and index polynomials
# ---------------------------------------------------------------------------


def todd_genus(space: Space) -> Fraction:
    """Integral of the Todd class; the holomorphic Euler characteristic, as
    the space gives it (``Space.todd``)."""
    space.check_ring()
    return Fraction(space.todd)


def _check_odd_class(space: Space) -> None:
    """Refuse an odd space without its degree-1 class xi; builds nothing."""
    if space.real_dim % 2 == 1 and space.lacks("odd_xi"):
        raise MissingOddClass(
            "%s is odd-dimensional but carries no degree-1 class with "
            "xi * x^n nonzero" % space.name)


def index_polynomial(space: Space) -> IndexPolynomial:
    """Exact coefficients of P(a) = <[X], xi e^(ax) e^(c/2) A-hat(TX)>: on a
    space with ``koszul`` data from the Riemann-Roch closed form, elsewhere
    in the ring.
    """
    q0 = _index_data(space)
    if space.koszul is not None:
        return IndexPolynomial(
            _koszul_chi(*space.koszul, _twice_shift(space, q0)), q0)
    return IndexPolynomial(_twist_series(
        space, _index_class(space), space.primitive_x, space.half_dim), q0)


def _twist_series(space: Space, base: GradedClass, cls: GradedClass,
                  top: int) -> list:
    """[<base cls^k, [X]> / k! for k = 0, ..., top]: the coefficients of
    a -> <base e^(a cls), [X]>."""
    coeffs = []
    power = space.ring.one()
    for k in range(top + 1):
        coeffs.append(integrate(space, base * power) / math.factorial(k))
        power = power * cls
    return coeffs


def _index_data(space: Space) -> int:
    """The integer q0 with c = q0 x (``Space.q0``), on a space with an
    index polynomial; an odd space must carry its degree-1 factor xi,
    checked before the A-hat class is read."""
    space.check_ring()
    if space.lacks("primitive_x"):
        raise NoPrimitiveClass(
            "%s has no recorded primitive degree-2 class (b2 = 1 required)"
            % space.name)
    _check_odd_class(space)
    if space.koszul is None and space.a_hat_cls is None:
        raise MetadataOnlySpace("%s carries no A-hat data" % space.name)
    return space.q0


def _twice_shift(space: Space, q0: int) -> int:
    """2s for a space with ``koszul`` data, where P(a) = chi(X, O(a + s)).

    x = H and c1 = (N + 1 - d_1 - ... - d_r) H, so c = c1 + 2s x with
    2s = q0 - (N + 1 - sum d): e^(c/2) A-hat = e^(sx) Td, and by
    Hirzebruch-Riemann-Roch P(a) = chi(X, O(a + s)).
    """
    rows, ns = space.koszul
    return q0 - ns[0] - 1 + sum(row[0] for row in rows)


def _koszul_chi(rows, ns, twice_shift=0):
    """Coefficients in a of chi(X, O((a + twice_shift / 2) H_1)) on the
    complete intersection X of the divisors ``rows`` in CP(N_1) x ... x
    CP(N_m), ``twice_shift`` an integer.

    The Koszul resolution of O_X by the sums of the divisors D_S over the
    subsets S of the rows gives chi(X, O(t H_1)) = sum over S of
    (-1)^|S| C(N_1 + t - d_S1, N_1) prod_{i >= 2} C(N_i - d_Si, N_i), each
    binomial C(N + u, N) = (u + 1)...(u + N) / N! read as a polynomial in u
    (Hirzebruch, Topological Methods in Algebraic Geometry).
    The signed multidegrees d_S are the terms of prod_rows (1 - z^row).  The
    sum runs over the integers, scaled by den^N_1 N_1! ... N_m! with den = 2
    for a half-integral shift, and is divided once at the end.
    """
    den = 1 + twice_shift % 2
    total = [0] * (ns[0] + 1)
    for d, sign in _signed_degrees(rows, len(ns)).items():
        poly = [sign * math.prod(j - di for N, di in zip(ns[1:], d[1:])
                                 for j in range(1, N + 1))]
        if not poly[0]:
            continue
        for j in range(1, ns[0] + 1):  # times (den a + den (j - d_1 + shift))
            c = den * (j - d[0]) + den * twice_shift // 2
            poly = [c * p + den * q for p, q in zip(poly + [0], [0] + poly)]
        total = [t + p for t, p in zip(total, poly)]
    scale = den ** ns[0] * math.prod(math.factorial(N) for N in ns)
    return [Fraction(t, scale) for t in total]


def length(space: Space) -> int:
    """min |q0 + 2a| over integer twists with nonvanishing index pairing.

    Returns 0 in the even-q0 case where the untwisted pairing is already
    nonzero: that is the obstruction case, and callers asking for a positive
    bound must surface it instead of quoting 0.

    With ``koszul`` data and an integral shift s, P(a) = chi(X, O(a + s)) is
    read off the Koszul sum at each twist; elsewhere the index polynomial is
    expanded once and evaluated on its integer numerators (same zeros).
    A Koszul term of first degree d is zero for a + s in [d - N_1, d - 1],
    and where every term is zero around q0 + 2a = 0 the scan starts past.
    """
    q0 = _index_data(space)
    start = 0
    if space.koszul is not None and _twice_shift(space, q0) % 2 == 0:
        rows, ns = space.koszul
        shift = _twice_shift(space, q0) // 2

        def pairing(a):
            return _koszul_value(rows, ns, a + shift)
        live = [d[0] for d in _signed_degrees(rows, len(ns))
                if math.prod(_binomial(N, -di) for N, di in zip(ns[1:], d[1:]))]
        if live:
            lo, hi = max(live) - ns[0] - shift, min(live) - 1 - shift
            if 2 * lo <= -q0 <= 2 * hi:
                start = min(q0 + 2 * hi, -q0 - 2 * lo) + 1
    else:
        from .roots import evaluate, numerators
        nums = numerators(index_polynomial(space).coeffs)

        def pairing(a):
            return evaluate(nums, a)
    n = space.half_dim
    # window |q0 + 2a| <= n + 1 suffices: it holds at least n + 1 twist
    # points, more than a nonzero polynomial of degree <= n has zeros
    for value in range(start, n + 2):
        for target in ((0,) if value == 0 else (value, -value)):
            if (target - q0) % 2 == 0 and pairing((target - q0) // 2) != 0:
                return value
    raise WindowExhausted(
        "index polynomial of %s vanishes identically; the space does not "
        "satisfy the nonvanishing hypothesis" % space.name)


def product_length_bound(x: Space, n_factor: Space) -> int:
    """Length of the product, asserted against the bound length(x).

    Hypotheses: b2(x) = 1, b2(N) = 0, at most one factor odd-dimensional, and
    the N-factor must have a nonzero index pairing (eta e^(c/2) A-hat against
    its fundamental class).
    """
    if x.b2 != 1:
        raise PreconditionUnmet("b2(X) = 1 is required for the product bound")
    _require_condition_b(n_factor)
    _require_parity(x, n_factor)
    prod = catalog.product(x, n_factor)
    if prod.b2 != 1:
        raise KunnethViolation("b2(X x N) = %d, expected 1" % prod.b2)
    ell = length(prod)
    ell_x = length(x)
    if ell > ell_x:
        raise WindowExhausted(
            "product length %d exceeded the factor length %d" % (ell, ell_x))
    return ell


def _n_factor_admissible(n_factor: Space) -> bool:
    """Nonvanishing of <eta e^(c/2) A-hat(TN), [N]> for the second factor,
    as the space gives it (``Space.index_pairing``, None on an odd N
    without its eta and on one without A-hat data)."""
    return not n_factor.metadata_only and bool(n_factor.index_pairing)


# ---------------------------------------------------------------------------
# curvature, volume, width
# ---------------------------------------------------------------------------


def _pairings(space: Space, vector):
    """``(<c1 a^(n-1)>, <a^n>)`` for the Kaehler class a with coordinates
    ``vector`` in the space's form (None: a class off degree 2), read by
    the cone engine's evaluator; the second is refused at 0."""
    space.check_ring()
    if vector is None:
        raise DegenerateClass("a Kaehler class must be homogeneous of degree 2")
    if space.lacks("c1"):
        raise MetadataOnlySpace("%s has no first Chern class data" % space.name)
    from .cones import _numbers
    mixed, top = _numbers(space.form, vector)
    if top == 0:
        raise DegenerateClass("alpha^n = 0: the class is degenerate")
    return mixed, top


def avg_scalar_curvature(space: Space, alpha: GradedClass,
                         scale: PiScaled = ONE) -> PiScaled:
    """Average scalar curvature 4 pi n (c1 . alpha^(n-1)) / alpha^n.

    ``scale`` multiplies the class: passing scale=PI evaluates at pi*alpha,
    which is how the catalog normalizes Kaehler-Einstein classes.
    """
    from .cones import _class_vector
    return avg_scalar_curvature_at(space, _class_vector(space, alpha), scale)


def avg_scalar_curvature_at(space: Space, vector,
                            scale: PiScaled = ONE) -> PiScaled:
    """:func:`avg_scalar_curvature` at the class with coordinates
    ``vector`` in the space's form, as ``cones._class_vector`` gives them."""
    mixed, top = _pairings(space, vector)
    n = space.complex_dim
    ratio = PiScaled(mixed / top) / scale
    return PiScaled(Fraction(4 * n), 1) * ratio


def volume(space: Space, alpha: GradedClass, scale: PiScaled = ONE) -> PiScaled:
    """Symplectic volume alpha^n / n! of the scaled class."""
    from .cones import _class_vector
    return volume_at(space, _class_vector(space, alpha), scale)


def volume_at(space: Space, vector, scale: PiScaled = ONE) -> PiScaled:
    """:func:`volume` at the class with coordinates ``vector``."""
    _, top = _pairings(space, vector)
    n = space.complex_dim
    return (scale ** n) * PiScaled(Fraction(top, math.factorial(n)))


def gromov_width_bound(space: Space, alpha: GradedClass,
                       scale: PiScaled = ONE) -> PiScaled:
    """The width bound 8 pi n^2 / Rbar(alpha)."""
    from .cones import _class_vector
    return gromov_width_bound_at(space, _class_vector(space, alpha), scale)


def gromov_width_bound_at(space: Space, vector,
                          scale: PiScaled = ONE) -> PiScaled:
    """:func:`gromov_width_bound` at the class with coordinates ``vector``."""
    n = space.complex_dim
    rbar = avg_scalar_curvature_at(space, vector, scale)
    if rbar.q <= 0:
        raise DegenerateClass("the width bound needs positive average "
                              "scalar curvature")
    return PiScaled(Fraction(8 * n * n), 1) / rbar


def hilbert_polynomial(space: Space, line_class: GradedClass) -> RationalPolynomial:
    """Polynomial k -> <[X], e^(k L) Td(TX)> with exact coefficients."""
    space.require_ring()
    if not space.is_complex or space.todd_cls is None:
        raise MetadataOnlySpace("%s has no Todd data" % space.name)
    if not line_class.is_homogeneous(2):
        raise DegenerateClass("the twisting class must be of degree 2")
    return RationalPolynomial(
        _twist_series(space, space.todd_cls, line_class, space.complex_dim))


# ---------------------------------------------------------------------------
# the closed-form systolic bounds
# ---------------------------------------------------------------------------

def systolic_bound(space: Space, n_factor: Space | None = None,
                   theorem: str = "thm1.3") -> PiScaled:
    """Exact right-hand side of the selected systolic inequality.

    Selector tokens (the second factor N defaults to a point):

    - ``thm1.1``: 4 pi n (n+1) for Kaehler X of complex dimension n.
    - ``thm1.2``: 4 pi n^2, for Kaehler X not projective space.
    - ``thm1.3``: 4 pi (n + floor(dim N / 2)) (n+1) for spin^c X x N with
      b2 = 1, X carrying u with u^n nonzero (and xi in odd dimension), N with
      nonzero index pairing.
    - ``prop5.1``: 4 pi n length(X) for b2(X) = 1 spin^c X.
    - ``thm4.5``: 4 pi (n(n-1) + 2) for Kaehler X neither projective space
      nor a quadric.
    - ``thm5.6``: 4 pi (n + floor(dim N / 2)) i_X for X diffeomorphic to a
      b2 = 1 Fano manifold of index i_X.
    """
    if theorem not in SELECTORS:
        raise PreconditionUnmet("unknown bound selector %r (expected one of %s)"
                                % (theorem, ", ".join(SELECTORS)))

    if theorem == "thm1.1":
        _require_point(n_factor, theorem)
        n = _require_kahler(space)
        return PiScaled(Fraction(4 * n * (n + 1)), 1)

    if theorem == "thm1.2":
        _require_point(n_factor, theorem)
        n = _require_kahler(space)
        if space.family == "CP":
            raise PreconditionUnmet(
                "the 4 pi n^2 bound requires X not biholomorphic to "
                "projective space")
        return PiScaled(Fraction(4 * n * n), 1)

    if theorem == "thm1.3":
        n = _require_condition_a(space)
        half_n = _require_condition_b(n_factor)
        _require_parity(space, n_factor)
        return PiScaled(Fraction(4 * (n + half_n) * (n + 1)), 1)

    if theorem == "prop5.1":
        _require_point(n_factor, theorem)
        ell = length(space)
        if ell == 0:
            raise LichnerowiczObstruction(
                "the untwisted A-hat pairing of %s is nonzero: no metric of "
                "positive scalar curvature exists, so no positive systolic "
                "bound applies" % space.name)
        n = space.half_dim
        return PiScaled(Fraction(4 * n * ell), 1)

    if theorem == "thm4.5":
        _require_point(n_factor, theorem)
        n = _require_kahler(space)
        if space.family in ("CP", "Q"):
            raise PreconditionUnmet(
                "the 4 pi (n(n-1)+2) bound requires X biholomorphic to "
                "neither projective space nor a quadric")
        return PiScaled(Fraction(4 * (n * (n - 1) + 2)), 1)

    # thm5.6
    if space.fano_index is None or space.b2 != 1:
        raise PreconditionUnmet(
            "the index-refined bound needs X diffeomorphic to a Fano "
            "manifold with b2 = 1 and recorded Fano index")
    if space.real_dim % 2:
        raise PreconditionUnmet("a Fano manifold is even-dimensional")
    n = space.half_dim
    half_n = _require_condition_b(n_factor)
    _require_parity(space, n_factor)
    return PiScaled(Fraction(4 * (n + half_n) * space.fano_index), 1)


def _require_point(n_factor, theorem):
    if n_factor is not None and n_factor.real_dim > 0:
        raise PreconditionUnmet(
            "selector %s takes a single space (N must be a point)" % theorem)


def _require_kahler(space: Space) -> int:
    space.check_ring()
    if not space.is_complex or space.complex_dim is None:
        raise PreconditionUnmet(
            "%s is not a complex (Kaehler) catalog space" % space.name)
    return space.complex_dim


def _require_condition_a(space: Space) -> int:
    """<xi u^n, [X]> nonzero (xi = 1 in even dimension), as the space gives
    it (``Space.top_pairing``); returns n = half_dim."""
    space.check_ring()
    n = space.half_dim
    if space.b2 != 1 or space.lacks("primitive_x"):
        raise PreconditionUnmet(
            "%s must have b2 = 1 with a degree-2 class u, u^n nonzero"
            % space.name)
    _check_odd_class(space)
    if space.top_pairing == 0:
        raise PreconditionUnmet(
            "the top pairing of the degree-2 class of %s vanishes"
            % space.name)
    return n


def _require_condition_b(n_factor: Space | None) -> int:
    """Index nonvanishing for the N factor; returns floor(dim N / 2)."""
    if n_factor is None:
        return 0
    if n_factor.b2 != 0:
        raise PreconditionUnmet(
            "b2(N) = 0 is required so that b2(X x N) = 1 (got b2 = %d on %s)"
            % (n_factor.b2, n_factor.name))
    if not _n_factor_admissible(n_factor):
        raise PreconditionUnmet(
            "the factor %s has vanishing index pairing "
            "<eta e^(c/2) A-hat(TN), [N]>" % n_factor.name)
    return n_factor.real_dim // 2


def _require_parity(space: Space, n_factor: Space | None):
    if n_factor is not None and space.real_dim % 2 and n_factor.real_dim % 2:
        raise PreconditionUnmet(
            "dim X and dim N cannot both be odd (the product would have "
            "b2 > 1 or lose the degree-1 class)")
