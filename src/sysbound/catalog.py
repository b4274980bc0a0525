"""Constructors for the manifold catalog.

A :class:`Space` bundles a ring presentation with the topological data the
bound calculators consume: tangent Chern data, built on first read (or an
explicit A-hat class for non-complex factors), the Koszul data of complete
intersections, the distinguished characteristic class ``spin_c``, a
primitive degree-2 generator when b2 = 1, an optional degree-1 class for odd
dimensions, nef-cone data for the rank <= 2 families, and Betti/index
metadata.  Each ring pairs its own top degree with the fundamental class.
Projective spaces, quadrics and complete intersections share one
:class:`_ProjectiveModel` of the divisors in a product of projective spaces.
Such a space is its rows: its dimension, Betti and index data, Koszul data
and q0 are integers set at construction, where an empty intersection is
refused by a matching, and the model builds the ring, its pairing and the
classes on their first read; a twist shares its base's model.  So the
Todd genus, the length, the index polynomial and every bound read off the
dimension, the length or the Fano index of these spaces build no ring.  ``sysbound.characteristic`` is imported only
where a tangent or an A-hat class is built.

Weighted-projective hypersurfaces and the Grassmannian linear section enter
the catalog as metadata-only spaces (dimension and index, no ring); the
operations that need a ring reject them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from .errors import (CertificateFailed, MetadataOnlySpace, NoPrimitiveClass,
                     PreconditionUnmet, RingMismatch)
from .graded import (GradedClass, Generator, Ring, RingPresentation, make_ring,
                     tensor_ring, truncated_polynomial_ring)
from .kernel import _intersection_dim, _intersection_pairing
from .values import Record

if TYPE_CHECKING:  # characteristic loads where a tangent or A-hat is built
    from .characteristic import ChernData


class Curve(Record):
    """An extremal curve class as a linear functional on degree-2 classes."""

    def __init__(self, name: str, pairings: dict):
        self.__dict__.update(name=name, pairings=pairings)

    def dot(self, cls: GradedClass) -> Fraction:
        if not cls.is_homogeneous(2):
            raise PreconditionUnmet(
                "curve classes pair with homogeneous degree-2 classes only")
        ring = cls.ring
        total = Fraction(0)
        for m, c in cls.terms.items():
            support = [(i, e) for i, e in enumerate(m) if e]
            if len(support) != 1 or support[0][1] != 1 \
                    or ring.generators[support[0][0]].degree != 2:
                raise PreconditionUnmet(
                    "curve pairing needs a class linear in the degree-2 generators")
            gname = ring.generators[support[0][0]].name
            total += c * self.pairings.get(gname, Fraction(0))
        return total

    def __hash__(self):
        return hash((self.name, tuple(sorted(self.pairings.items()))))


class Space(Record, frozen=False):
    """A catalog manifold; immutable by convention after construction.

    Recipes run on the first read of the value they make, and the value is
    kept: ``tangent_of`` makes ``tangent`` (the tangent Chern data), and
    ``a_hat_of`` makes ``a_hat_cls``, which without a recipe is the A-hat
    class of the tangent.  ``todd_cls`` is read off c1 and A-hat the same
    way.  ``c1`` defaults to the tangent's first Chern class, which makes
    the tangent.

    Projective spaces, quadrics, complete intersections and their twists
    are made from a projective model (``_model``): their integers are set at
    construction, and ``ring``, ``c1``, ``spin_c``, ``primitive_x``,
    ``nef_rays`` and ``curves`` are read off the model on first read and
    kept, the ring built once per model.  ``_q0`` is the integer with
    spin_c = q0 H, recorded exactly when the space has a primitive class;
    without one, spin_c is c1.  :meth:`lacks` and :meth:`check_ring` answer
    without building anything, so the replies that read only integers build
    no ring.

    ``koszul`` is ``(rows, ns)`` when the index polynomial and the Todd genus
    are those of the complete intersection of the divisors ``rows`` in
    CP(N_1) x ... x CP(N_m): on that space and its twists, on a product of
    such spaces (cut out by both sets of rows), and, for the index
    polynomial, on its product with the circle.  :mod:`sysbound.engine`
    reads them from the Riemann-Roch closed form, with no tangent data.
    ``factor_embeddings`` are the (left, right) class maps on products.

    Kept values are not fields, so ``Space.replace`` copies the recipes
    and never a value computed for another space.  It reads every field,
    model or not, so the copy has no model: its classes are the original's
    and its q0 is read off its own spin_c.
    """

    def __init__(self, name: str, family: str, real_dim: int, b1: int,
                 b2: int, ring: Ring | None = None, is_complex=False,
                 complex_dim=None,
                 tangent_of: Callable[[], ChernData] | None = None,
                 c1: GradedClass | None = None,
                 a_hat_of: Callable[[], GradedClass | None] | None = None,
                 koszul=None, spin_c=None, primitive_x=None, odd_xi=None,
                 fano_index=None, metadata_only=False, nef_rays=(), curves=(),
                 kahler_einstein=None, notes="", factor_embeddings=(),
                 _model: _ProjectiveModel | None = None,
                 _q0: int | None = None):
        self.name = name
        self.family = family
        self.real_dim = real_dim
        self.b1 = b1
        self.b2 = b2
        self.is_complex = is_complex
        self.complex_dim = complex_dim
        self.tangent_of = tangent_of
        self.a_hat_of = a_hat_of
        self.koszul = koszul
        self.odd_xi = odd_xi
        self.fano_index = fano_index
        self.metadata_only = metadata_only
        self.kahler_einstein = kahler_einstein
        self.notes = notes
        self.factor_embeddings = factor_embeddings
        self._model = _model
        self._q0 = _q0
        if _model is None:  # a model makes these fields on first read
            self.ring = ring
            self.c1 = c1
            self.spin_c = spin_c
            self.primitive_x = primitive_x
            self.nef_rays = nef_rays
            self.curves = curves
            if c1 is None and tangent_of is not None:
                self.c1 = self.tangent.chern(1)
        if metadata_only:
            return
        if odd_xi is not None and real_dim % 2 == 0:
            raise PreconditionUnmet(
                "%s: a degree-1 class is only recorded in odd dimensions" % name)

    # the fields a projective model makes; every other space sets them in
    # __init__, which hides these recipes

    @cached_property
    def ring(self) -> Ring:
        return self._model.ring

    @cached_property
    def c1(self) -> GradedClass:
        return self._model.c1

    @cached_property
    def primitive_x(self) -> GradedClass | None:
        return None if self._q0 is None else self._model.hs[0]

    @cached_property
    def spin_c(self) -> GradedClass:
        if self._q0 is None:
            return self._model.c1
        return self._q0 * self._model.hs[0]

    @cached_property
    def nef_rays(self) -> tuple:
        return self._model.nef_rays

    @cached_property
    def curves(self) -> tuple:
        return self._model.curves

    @cached_property
    def tangent(self) -> ChernData | None:
        return None if self.tangent_of is None else self.tangent_of()

    @cached_property
    def a_hat_cls(self) -> GradedClass | None:
        if self.a_hat_of is not None:
            return self.a_hat_of()
        if self.tangent is None:
            return None
        from .characteristic import a_hat
        return a_hat(self.tangent)

    @cached_property
    def todd_cls(self) -> GradedClass | None:
        """Todd = exp(c1/2) * A-hat on complex spaces carrying both."""
        if not self.is_complex or self.c1 is None or self.a_hat_cls is None:
            return None
        from .characteristic import todd_from_a_hat
        return todd_from_a_hat(self.c1, self.a_hat_cls)

    def lacks(self, name: str) -> bool:
        """Whether the field ``name`` is None, answered without building a
        model: a model always makes a ring, c1 and spin_c, and a primitive
        class exactly when q0 is recorded."""
        if self._model is None or name in self.__dict__:
            return getattr(self, name) is None
        return name == "primitive_x" and self._q0 is None

    def check_ring(self) -> None:
        """Refuse a space stored without a cohomology ring; builds none."""
        if self.metadata_only or self.lacks("ring"):
            raise MetadataOnlySpace(
                "%s is stored as index data only (no cohomology ring)" % self.name)

    def require_ring(self) -> Ring:
        self.check_ring()
        return self.ring

    def model_top_pairing(self) -> int | None:
        """<x^n, [X]> of the primitive class x = H, n = half_dim, on a space
        made from a projective model with one, read from the model's rows
        with no ring built: a positive integer, X being nonempty.  None on
        any other space."""
        if self._model is None or self._q0 is None:
            return None
        return self._model.pairing[(self._model.dim,)]

    @property
    def half_dim(self) -> int:
        return self.real_dim // 2


#: the fields of a model space that its model makes
_MODEL_FIELDS = ("ring", "c1", "spin_c", "primitive_x", "nef_rays", "curves")


def integrate(space: Space, cls: GradedClass) -> Fraction:
    """Fundamental-class pairing <cls, [space]>, read off the ring's top degree."""
    ring = space.require_ring()
    if cls.ring is not ring:
        raise RingMismatch("class does not live on %s" % space.name)
    return ring.integrate_top(cls)


# ---------------------------------------------------------------------------
# basic families
# ---------------------------------------------------------------------------


def projective_space(n: int) -> Space:
    """Complex projective n-space: Q[H]/(H^(n+1)), <H^n> = 1, c1 = (n+1)H."""
    if n < 1:
        raise PreconditionUnmet("projective space needs n >= 1; the point "
                                "enters through the product identity instead")
    return _model_space(
        [], [n], ("line",), n + 1,
        name="CP(%d)" % n, family="CP", fano_index=n + 1, kahler_einstein=True,
    )


def quadric(n: int) -> Space:
    """Smooth n-dimensional quadric, modelled on its H-subring with <H^n> = 2.

    The primitive middle cohomology of even quadrics is omitted: every class
    integrated here is a polynomial in the hyperplane class (all tangent data
    restrict from the ambient projective space).
    """
    if n < 2:
        raise PreconditionUnmet("quadric needs n >= 2")
    return _model_space(
        [[2]], [n + 1], ("line",), n,
        name="Q(%d)" % n, family="Q", fano_index=n, kahler_einstein=True,
        notes="H-subring model; middle cohomology omitted",
    )


def circle() -> Space:
    """The circle, with its degree-1 generator normalized to <t> = 1."""
    ring = truncated_polynomial_ring("t", 1, 1, 1)
    t = ring.gen("t")
    return Space(
        name="S1", family="S", real_dim=1, b1=1, b2=0,
        ring=ring, spin_c=ring.zero(), odd_xi=t,
        a_hat_of=ring.one,
    )


def sphere(k: int) -> Space:
    """The k-sphere: trivial ring except the fundamental class; A-hat = 1."""
    if k < 1:
        raise PreconditionUnmet("sphere needs k >= 1")
    if k == 1:
        return circle()
    gname = "x" if k == 2 else "v"
    ring = truncated_polynomial_ring(gname, k, 1, 1)
    g = ring.gen(gname)
    return Space(
        name="S(%d)" % k, family="S", real_dim=k, b1=0,
        b2=1 if k == 2 else 0,
        ring=ring, spin_c=ring.zero(),
        primitive_x=g if k == 2 else None,
        odd_xi=None,
        a_hat_of=ring.one,
        notes="stably trivial tangent bundle",
    )


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def product(x: Space, y: Space) -> Space:
    """Product space with tensor ring and Kuenneth pairing.

    Odd x odd products are allowed at construction time; the parity
    hypothesis of the product length bound is enforced where a length is
    actually requested.
    """
    xr, yr = x.require_ring(), y.require_ring()
    ring, lmap, rmap, lnames, rnames = tensor_ring(xr, yr)

    b1 = x.b1 + y.b1
    b2 = x.b2 + y.b2 + x.b1 * y.b1
    both_complex = x.is_complex and y.is_complex

    tangent_of = None
    c1 = None
    if both_complex and x.tangent_of is not None and y.tangent_of is not None:
        def tangent_of():
            from .characteristic import ChernData
            return ChernData(
                rank=x.tangent.rank + y.tangent.rank,
                total=lmap(x.tangent.total) * rmap(y.tangent.total))

    def a_hat_of():
        if x.a_hat_cls is None or y.a_hat_cls is None:
            return None
        return lmap(x.a_hat_cls) * rmap(y.a_hat_cls)

    if both_complex and x.c1 is not None and y.c1 is not None:
        c1 = lmap(x.c1) + rmap(y.c1)

    koszul = None
    if both_complex and x.koszul is not None and y.koszul is not None:
        # X x Y is cut out in the product of the ambients by both sets of rows
        (xrows, xns), (yrows, yns) = x.koszul, y.koszul
        koszul = (tuple(row + (0,) * len(yns) for row in xrows)
                  + tuple((0,) * len(xns) + row for row in yrows), xns + yns)
    elif x.is_complex and y.family == "S" and y.real_dim == 1:
        koszul = x.koszul  # <t, [S1]> = 1: X x S1 has X's index polynomial

    primitive_x = None
    if x.b2 == 1 and y.b2 == 0 and x.primitive_x is not None and x.b1 * y.b1 == 0:
        primitive_x = lmap(x.primitive_x)
    elif y.b2 == 1 and x.b2 == 0 and y.primitive_x is not None and x.b1 * y.b1 == 0:
        primitive_x = rmap(y.primitive_x)
    elif x.b2 == y.b2 == 0 and x.b1 == y.b1 == 1 \
            and x.odd_xi is not None and y.odd_xi is not None:
        primitive_x = lmap(x.odd_xi) * rmap(y.odd_xi)

    odd_xi = None
    if (x.real_dim + y.real_dim) % 2 == 1:
        if x.odd_xi is not None and y.real_dim % 2 == 0:
            odd_xi = lmap(x.odd_xi)
        elif y.odd_xi is not None and x.real_dim % 2 == 0:
            odd_xi = rmap(y.odd_xi)

    nef_rays = ()
    curves = ()
    if both_complex and x.b2 + y.b2 <= 2 and x.nef_rays and y.nef_rays \
            and x.curves and y.curves:
        nef_rays = tuple(lmap(r) for r in x.nef_rays) + tuple(rmap(r) for r in y.nef_rays)
        curves = tuple(
            Curve(c.name + "_1", {lnames[k]: v for k, v in c.pairings.items()})
            for c in x.curves
        ) + tuple(
            Curve(c.name + "_2", {rnames[k]: v for k, v in c.pairings.items()})
            for c in y.curves
        )

    return Space(
        name="%s * %s" % (x.name, y.name), family="product",
        real_dim=x.real_dim + y.real_dim, b1=b1, b2=b2,
        ring=ring, is_complex=both_complex,
        complex_dim=(x.complex_dim + y.complex_dim) if both_complex else None,
        tangent_of=tangent_of, c1=c1, a_hat_of=a_hat_of, koszul=koszul,
        spin_c=lmap(x.spin_c) + rmap(y.spin_c), primitive_x=primitive_x,
        odd_xi=odd_xi, nef_rays=nef_rays, curves=curves,
        factor_embeddings=(lmap, rmap),
    )


# ---------------------------------------------------------------------------
# projective bundles over a curve
# ---------------------------------------------------------------------------


def proj_bundle_over_curve(degrees, genus: int = 0) -> Space:
    """Projectivization of a sum of line bundles over a genus-g curve.

    ``degrees`` lists n line-bundle degrees; the total space has complex
    dimension n.  Ring: generators xi, f of degree 2 with f^2 = 0 and
    xi^n = e * xi^(n-1) f for e the total degree, normalized so that
    (a xi + b f)^n = a^(n-1) (a e + n b) with <xi^(n-1) f> = 1.
    """
    degrees = [int(d) for d in degrees]
    n = len(degrees)
    if n < 2:
        raise PreconditionUnmet("projective bundle needs at least two degrees")
    if genus < 0:
        raise PreconditionUnmet("genus must be nonnegative")
    e = sum(degrees)
    gens = [Generator("xi", 2, False), Generator("f", 2, False)]
    top = (n - 1, 1)
    rhs = {top: Fraction(e)} if e else {}
    ring = make_ring(RingPresentation(
        generators=gens,
        truncation=2 * n,
        power_rules={"xi": (n, rhs), "f": (2, {})},
        pairing={top: Fraction(1)},
    ))
    xi, f = ring.gen("xi"), ring.gen("f")
    # the tangent's total Chern class; it becomes ChernData on first read
    total = 1 + (2 - 2 * genus) * f
    for d in degrees:
        total = total * (1 + xi - d * f)

    def tangent_of():
        from .characteristic import ChernData
        return ChernData(rank=n, total=total)
    c1 = total.component(2)
    expected_c1 = n * xi + (2 - 2 * genus - e) * f
    if c1 != expected_c1:
        raise CertificateFailed(
            "first Chern class certificate: c1 = %s, closed form %s"
            % (c1, expected_c1))
    return Space(
        name="PB(degrees=%s; genus=%d)" % (degrees, genus), family="PB",
        real_dim=2 * n, b1=2 * genus, b2=2,
        ring=ring, tangent_of=tangent_of, c1=c1, is_complex=True,
        complex_dim=n, spin_c=expected_c1,
        nef_rays=(xi, f),
        curves=(Curve("fiber_line", {"xi": Fraction(1)}),
                Curve("section", {"f": Fraction(1)})),
        notes="ring ignores the odd cohomology of the base curve",
    )


# ---------------------------------------------------------------------------
# complete intersections in products of projective spaces
# ---------------------------------------------------------------------------


class _ProjectiveModel:
    """The ring side of the complete intersection X of the divisors ``rows``
    (multidegrees) in CP(N_1) x ... x CP(N_m), of complex dimension ``dim``,
    each part made on first read and kept.

    The ring stops at X's top degree 2 dim, with H_i^(min(N_i, dim)+1) = 0
    and the pairing of :func:`kernel._intersection_pairing`.  c1 = sum_i
    (N_i + 1 - sum of the rows' d_i) H_i by adjunction.  The tangent is the
    Euler sequences' class over (1 + D_1)...(1 + D_r).  ``lines`` names one
    extremal curve per factor, the line of that factor, where X records its
    nef cone; the nef rays are then the H_i.

    A model refers to no space, so a space and its twists share one, and
    dropping them frees it without the cycle collector.
    """

    def __init__(self, rows, ns, dim: int, lines: tuple):
        self.rows, self.ns, self.dim, self.lines = rows, ns, dim, lines
        self.names = (("H",) if len(ns) == 1 else
                      tuple("H%d" % (i + 1) for i in range(len(ns))))

    @cached_property
    def pairing(self) -> dict:
        """<H^e, [X]> of each top monomial H^e, read from the rows."""
        return _intersection_pairing(self.rows, self.ns)

    @cached_property
    def hs(self) -> tuple:
        """The hyperplane classes, in the ring built here."""
        ring = make_ring(RingPresentation(
            generators=[Generator(name, 2, False) for name in self.names],
            truncation=2 * self.dim,
            power_rules={name: (min(N, self.dim) + 1, {})
                         for name, N in zip(self.names, self.ns)},
            pairing=self.pairing))
        return tuple(ring.gen(name) for name in self.names)

    @property
    def ring(self) -> Ring:
        return self.hs[0].ring

    @cached_property
    def c1(self) -> GradedClass:
        return sum(((N + 1 - sum(row[i] for row in self.rows)) * h
                    for i, (N, h) in enumerate(zip(self.ns, self.hs))),
                   self.ring.zero())

    @property
    def nef_rays(self) -> tuple:
        return self.hs if self.lines else ()

    @cached_property
    def curves(self) -> tuple:
        return tuple(Curve(line, {g: Fraction(1 if j == i else 0)
                                  for j, g in enumerate(self.names)})
                     for i, line in enumerate(self.lines))

    def tangent(self) -> ChernData:
        from .characteristic import ChernData, whitney_quotient
        ring, hs = self.ring, self.hs
        ambient = math.prod(((1 + h) ** (N + 1) for N, h in zip(self.ns, hs)),
                            start=ring.one())
        normal = math.prod(
            (1 + sum(d * h for d, h in zip(row, hs)) for row in self.rows),
            start=ring.one())
        return whitney_quotient(ChernData(rank=sum(self.ns), total=ambient),
                                ChernData(rank=len(self.rows), total=normal))


def _model_space(rows, ns, lines, q0, **fields) -> Space:
    """The space of the complete intersection of ``rows`` in CP(ns), an empty
    one refused: its integers now, its ring and classes from a
    :class:`_ProjectiveModel` on first read.  ``q0`` is None for a space
    without a primitive class; ``koszul`` records (rows, ns) for the
    engine's Riemann-Roch closed forms."""
    dim = _intersection_dim(rows, ns)
    model = _ProjectiveModel(rows, ns, dim, lines)
    return Space(
        real_dim=2 * dim, b1=0, b2=len(ns), is_complex=True, complex_dim=dim,
        tangent_of=model.tangent,
        koszul=(tuple(map(tuple, rows)), tuple(ns)),
        _model=model, _q0=q0, **fields)


def complete_intersection(multidegrees, ambient) -> Space:
    """Smooth complete intersection in a product of projective spaces.

    ``multidegrees`` is an r x m matrix (one row per hypersurface) and
    ``ambient`` the list of factor dimensions [N_1..N_m].  Classes restrict
    from the ambient space to a ring that stops at X's own top degree;
    hypersurfaces that do not meet raise :class:`EmptyIntersection`.
    Lefschetz makes the degree <= 2 data faithful once the intersection has
    complex dimension >= 3, so the b2/index metadata and the primitive class
    are only claimed there.
    """
    rows = [[int(d) for d in row] for row in multidegrees]
    ns = [int(N) for N in ambient]
    if not ns or any(N < 1 for N in ns):
        raise PreconditionUnmet("ambient factors must have positive dimension")
    m = len(ns)
    if not rows:
        raise PreconditionUnmet("need at least one hypersurface")
    for row in rows:
        if len(row) != m:
            raise PreconditionUnmet("each multidegree row needs %d entries" % m)
        if any(d < 0 for d in row):
            raise PreconditionUnmet("multidegrees must be nonnegative")
        if not any(row):
            raise PreconditionUnmet("each hypersurface needs a nonzero multidegree")
    dim = sum(ns) - len(rows)
    lefschetz = dim >= 3
    index = ns[0] + 1 - sum(row[0] for row in rows)  # -K = index * H if m = 1

    degree_names = (",".join(str(row[0]) for row in rows) if m == 1 else
                    ";".join("(%s)" % ",".join(map(str, row)) for row in rows))
    name = "X_{%s} in %s" % (degree_names, "x".join("CP(%d)" % N for N in ns))

    # the general cubic and quartic and every smooth X_{2,2} are KE
    ke = m == 1 and lefschetz and sorted(row[0] for row in rows) in (
        [3], [4], [2, 2])

    return _model_space(
        rows, ns,
        tuple("line_%d" % (i + 1) for i in range(m))
        if (m <= 2 and lefschetz) else (),
        index if (m == 1 and lefschetz) else None,
        name=name, family="CI",
        fano_index=index if m == 1 and lefschetz and index >= 1 else None,
        kahler_einstein=ke or None,
        notes="" if lefschetz else
              "ambient H-subring model; b2/index metadata unreliable below "
              "complex dimension 3",
    )


# ---------------------------------------------------------------------------
# blowup of projective space at a point
# ---------------------------------------------------------------------------


def blowup_point(n: int) -> Space:
    """Blowup of CP^n at one point.

    Ring Q[H,E]/(HE, H^(n+1), E^(n+1)) with <H^n> = 1 and
    <E^n> = (-1)^(n+1), so that (aH - bE)^n integrates to a^n - b^n.
    """
    if n < 2:
        raise PreconditionUnmet("point blowup needs n >= 2")
    gens = [Generator("H", 2, False), Generator("E", 2, False)]
    ring = make_ring(RingPresentation(
        generators=gens, truncation=2 * n,
        power_rules={"H": (n + 1, {}), "E": (n + 1, {})},
        pair_rules=[("H", "E")],
        pairing={(n, 0): Fraction(1), (0, n): Fraction((-1) ** (n + 1))},
    ))
    H, E = ring.gen("H"), ring.gen("E")
    c1 = (n + 1) * H - (n - 1) * E
    return Space(
        name="BlP(%d)" % n, family="BlP", real_dim=2 * n, b1=0, b2=2,
        ring=ring, is_complex=True, complex_dim=n,
        c1=c1, spin_c=c1,
        nef_rays=(H, H - E),
        curves=(Curve("exceptional_line", {"H": Fraction(0), "E": Fraction(-1)}),
                Curve("strict_line", {"H": Fraction(1), "E": Fraction(1)})),
        notes="tangent Chern data beyond c1 not tracked",
    )


# ---------------------------------------------------------------------------
# spin^c twisting
# ---------------------------------------------------------------------------


def twist_spin_c(space: Space, k: int) -> Space:
    """Replace the characteristic class c by c + 2k x; parity is preserved."""
    space.check_ring()
    if space.b2 != 1 or space.lacks("primitive_x"):
        raise NoPrimitiveClass(
            "twisting needs b2 = 1 with a recorded primitive degree-2 class")
    if k == 0:
        return space
    # the copied recipes make the untwisted tangent and A-hat, which do not
    # see the spin^c class
    changes = {"name": "%s twist(%d)" % (space.name, k),
               "notes": (space.notes + "; " if space.notes else "")
               + "twisted spin^c class"}
    if space._model is None:
        return space.replace(
            spin_c=space.spin_c + (2 * k) * space.primitive_x, **changes)
    # the twist shares the model, so its ring and classes are the base's,
    # and only q0 moves
    fields = {name: getattr(space, name) for name in space._fields
              if name not in _MODEL_FIELDS}
    fields.update(changes)
    return Space(**fields, _model=space._model, _q0=space._q0 + 2 * k)


# ---------------------------------------------------------------------------
# metadata-only spaces (index data without a ring)
# ---------------------------------------------------------------------------


def _metadata_space(name, n, index, ke, notes=""):
    return Space(
        name=name, family="weighted", real_dim=2 * n, b1=0, b2=1,
        ring=None, is_complex=True, complex_dim=n,
        fano_index=index, metadata_only=True, kahler_einstein=ke, notes=notes,
    )


def weighted_del_pezzo_x6(n: int) -> Space:
    """Degree-6 hypersurface in P(1^n, 2, 3); index n-1."""
    if n < 3:
        raise PreconditionUnmet("weighted del Pezzo X6 catalogued for n >= 3")
    return _metadata_space("X6 in P(1^%d,2,3)" % n, n, n - 1, True,
                           "orbifold Riemann-Roch out of scope")


def weighted_del_pezzo_x4(n: int) -> Space:
    """Degree-4 hypersurface in P(1^(n+1), 2); index n-1."""
    if n < 3:
        raise PreconditionUnmet("weighted del Pezzo X4 catalogued for n >= 3")
    return _metadata_space("X4 in P(1^%d,2)" % (n + 1), n, n - 1, True,
                           "orbifold Riemann-Roch out of scope")


def weighted_mukai_x6(n: int) -> Space:
    """Degree-6 hypersurface in P(1^(n+1), 3); index n-2."""
    if n < 3:
        raise PreconditionUnmet("weighted Mukai X6 catalogued for n >= 3")
    return _metadata_space("X6 in P(1^%d,3)" % (n + 1), n, n - 2, True,
                           "orbifold Riemann-Roch out of scope")


def grassmann_section(n: int) -> Space:
    """Linear section of the Pluecker-embedded G(2, C^5); index n-1."""
    if not 3 <= n <= 6:
        raise PreconditionUnmet("the Grassmannian section exists for 3 <= n <= 6")
    ke = {3: True, 4: False, 5: False, 6: True}[n]
    return _metadata_space("G(2,C^5) cap CP(%d)" % (n + 3), n, n - 1, ke,
                           "cohomology ring not catalogued; index data only")
