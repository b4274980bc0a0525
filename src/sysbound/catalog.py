"""Constructors for the manifold catalog.

A :class:`Space` bundles a ring presentation with the topological data the
bound calculators consume: tangent Chern data, built on first read (or an
explicit A-hat class for non-complex factors), the Koszul data of complete
intersections, the distinguished characteristic class ``spin_c``, a
primitive degree-2 generator when b2 = 1, an optional degree-1 class for odd
dimensions, the nef-cone rays of the rank <= 2 families, and Betti/index
metadata.  Each ring pairs its own top degree with the fundamental class.

Every space is its integers (dimension, Betti and index data, Koszul data,
q0), set at construction, where an empty intersection is refused by a
matching and a ring-less factor of a product at once, and its recipes,
which build the ring and classes on first read.  Projective spaces,
quadrics and complete intersections share one :class:`_ProjectiveModel` of
the divisors in a product of projective spaces; a projective bundle and a
point blowup each have one cached builder; a product tensors its factors'
rings, and a twist shares its base's.  So the length, the index polynomial
and every bound read off the dimension, the length, the Fano index or b2
build no ring, nor does the Todd genus of a model, of a projective bundle,
or of a product of such spaces: a model records it as its Koszul sum at
t = 0, and a bundle over a curve of genus g as 1 - g, since pi_* O = O and
the higher direct images vanish, after certifying its first Chern class in
integers; a product multiplies its factors'.  Each space also records its
ring's generator names and degrees, which an ``--alpha`` text is read
against.

The modules behind a ring load with it: ``sysbound.graded`` is imported
only in the recipes that build a ring (a sphere's, a product's tensor ring,
a model's, a bundle's and a blowup's), and ``sysbound.characteristic`` only
where a tangent or an A-hat class is built.  So no reply on a catalog
descriptor loads either; they serve spaces built by hand and the tests'
oracles.

A complex space also records its top intersection form on H^2
(:class:`forms.Form`) from the same integers: the pairings <D^e, [X]> of the top
monomials in its degree-2 generators, and c1 and the nef rays as integer
coordinate vectors.  A model takes the pairing from its rows, a point
blowup and a projective bundle from closed forms (the bundle's c1
certified ring-free), a product of two such spaces the Kuenneth product of
their forms, and a twist its base's; a space given its classes by the
public constructor reads its form off its ring.  The volume functional,
phi-sup and the nef threshold read a class's numbers off the form
(:mod:`sysbound.cones`), so they build no ring; the classes c1 and the nef
rays are made from the form's vectors when the ring is built.

Weighted-projective hypersurfaces and the Grassmannian linear section enter
the catalog as metadata-only spaces (dimension and index, no ring); the
operations that need a ring reject them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property, partial
from typing import TYPE_CHECKING, Callable

from .errors import (CertificateFailed, MetadataOnlySpace, MissingSpinCClass,
                     NoPrimitiveClass, PreconditionUnmet, RewrittenGenerator,
                     RingMismatch)
from .kernel import (_checked_rows, _intersection_dim, _intersection_pairing,
                     _koszul_value)
from .values import Record, _format_terms, _tensor_names

if TYPE_CHECKING:  # graded loads where a ring is built, characteristic
    from .characteristic import ChernData  # where a tangent or A-hat is,
    from .forms import Form  # and forms where a form is read
    from .graded import GradedClass, Ring


class _Made:
    """A ring-side field of :class:`Space`: the first read runs the space's
    recipe for it (``default`` without one) and keeps the value in the
    instance dict, so later reads are plain hits."""

    def __init__(self, default=None):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, space, owner=None):
        if space is None:
            return self
        value = space._recipes.get(self.name, lambda: self.default)()
        space.__dict__[self.name] = value
        return value


class Space(Record, frozen=False):
    """A catalog manifold; immutable by convention after construction.

    The integers (b1, b2, dimensions, complexness, ``koszul``, q0) are set at
    construction.  Recipes run on the first read of the value they make, and
    the value is kept: each ring-side field (``ring``, ``c1``, ``spin_c``,
    ``primitive_x``, ``odd_xi``, ``nef_rays``, ``factor_embeddings``) has
    one in ``_recipes``, or is None (or empty).  The catalog gives
    ``_recipes``; a class given to the public constructor becomes a recipe
    that returns it, and c1 defaults to the tangent's first Chern class.
    ``tangent_of`` makes ``tangent``, ``a_hat_of`` makes ``a_hat_cls`` (the
    tangent's A-hat class without one), and ``todd_cls`` is read off both.
    ``_q0``, recorded by the catalog only, is the integer with spin_c = q0 x
    for the primitive class x.  :meth:`lacks` and :meth:`check_ring` answer
    from the recipes and build nothing.

    ``koszul`` is ``(rows, ns)`` when the index polynomial and the Todd genus
    are those of the complete intersection of the divisors ``rows`` in
    CP(N_1) x ... x CP(N_m): on that space and its twists, on a product of
    such spaces, and, for the index polynomial, on its product with the
    circle in either order.  :mod:`sysbound.engine` reads them from the
    Riemann-Roch closed form, and :meth:`model_top_pairing` reads the degree
    from rows in one projective space.  ``factor_embeddings`` are the
    (left, right) class maps on products.

    ``_form_of``, recorded by the catalog only, makes :attr:`form`, the top
    intersection form; without it the form is read off the ring.
    ``_todd_of``, recorded by the catalog only, makes the Todd genus as an
    integer where a closed form gives it: on a model, a projective bundle
    and a product of two such spaces; a twist shares its base's.
    ``_generators_of``, recorded by the catalog only, names the ring's
    generators with their degrees (:meth:`generators`).

    ``Space.replace`` reads every field, so the copy is given the original's
    classes, reads its q0 off its own spin_c and its form off its ring.
    Kept values are not fields, so it never copies a value computed for
    another space.
    """

    ring, c1, spin_c, primitive_x, odd_xi = (_Made() for _ in range(5))
    nef_rays, factor_embeddings = _Made(()), _Made(())

    def __init__(self, name: str, family: str, real_dim: int, b1: int,
                 b2: int, ring: Ring | None = None, is_complex=False,
                 complex_dim=None,
                 tangent_of: Callable[[], ChernData] | None = None,
                 c1: GradedClass | None = None,
                 a_hat_of: Callable[[], GradedClass | None] | None = None,
                 koszul=None, spin_c=None, primitive_x=None, odd_xi=None,
                 fano_index=None, metadata_only=False, nef_rays=(),
                 kahler_einstein=None, notes="", factor_embeddings=(),
                 _recipes: dict | None = None, _q0: int | None = None,
                 _form_of: Callable[[], Form] | None = None,
                 _todd_of: Callable[[], int] | None = None,
                 _generators_of: Callable[[], tuple] | None = None):
        self.__dict__.update(
            name=name, family=family, real_dim=real_dim, b1=b1, b2=b2,
            is_complex=is_complex, complex_dim=complex_dim,
            tangent_of=tangent_of, a_hat_of=a_hat_of, koszul=koszul,
            fano_index=fano_index, metadata_only=metadata_only,
            kahler_einstein=kahler_einstein, notes=notes, _q0=_q0,
            _form_of=_form_of, _todd_of=_todd_of,
            _generators_of=_generators_of)
        given = dict(ring=ring, c1=c1, spin_c=spin_c, primitive_x=primitive_x,
                     odd_xi=odd_xi, nef_rays=nef_rays,
                     factor_embeddings=factor_embeddings)
        self._recipes = {field: lambda value=value: value
                         for field, value in given.items() if value is not None}
        if tangent_of is not None:  # c1 defaults to the tangent's
            self._recipes.setdefault("c1", lambda: tangent_of().chern(1))
        self._recipes.update(_recipes or {})
        if not (metadata_only or real_dim % 2 or self.lacks("odd_xi")):
            raise PreconditionUnmet(
                "%s: a degree-1 class is only recorded in odd dimensions" % name)

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
    def form(self) -> Form:
        """The top intersection form on H^2 (:class:`forms.Form`): recorded
        by the catalog from integers it has, with no ring built, or read
        off the ring."""
        if self._form_of is not None:
            return self._form_of()
        from .forms import ring_form
        return ring_form(self)

    @cached_property
    def todd_cls(self) -> GradedClass | None:
        """Todd = exp(c1/2) * A-hat on complex spaces carrying both."""
        if not self.is_complex or self.a_hat_cls is None or self.c1 is None:
            return None
        from .characteristic import todd_from_a_hat
        return todd_from_a_hat(self.c1, self.a_hat_cls)

    def lacks(self, name: str) -> bool:
        """Whether the field ``name`` is None, answered for a ring-side
        field not yet read from the recipes, building nothing."""
        if name in self.__dict__ or name not in _RING_SIDE:
            return getattr(self, name) is None
        return name not in self._recipes

    def generators(self) -> tuple:
        """The ring's generators as ``(name, degree)`` pairs, in order:
        recorded by the catalog, with no ring built, or read off the ring.
        Each is its own monomial in normal form, or zero, as the class
        parser and ``Form.vector`` read it; a ring whose power rule of cap
        1 rewrites a generator is refused."""
        if self._generators_of is not None:
            return self._generators_of()
        ring = self.require_ring()
        for i, g in enumerate(ring.generators):
            unit = tuple(int(j == i) for j in range(len(ring.generators)))
            if ring._normal_form(unit) not in ((unit, 1), None):
                raise RewrittenGenerator(
                    "generator %r of %s's ring is rewritten to %r by a power "
                    "rule; a class expression reads each generator as itself"
                    % (g.name, self.name, ring.gen(g.name)))
        return tuple((g.name, g.degree) for g in ring.generators)

    def has_kahler_data(self) -> bool:
        """Whether the space has a ring, c1 and a complex dimension, the
        data the Kaehler evaluators read a class's coordinates in its form
        with; builds nothing."""
        return not (self.metadata_only or self.lacks("ring")
                    or self.lacks("c1") or self.complex_dim is None)

    def check_ring(self) -> None:
        """Refuse a space stored without a cohomology ring; builds none."""
        if self.metadata_only or self.lacks("ring"):
            raise MetadataOnlySpace(
                "%s is stored as index data only (no cohomology ring)" % self.name)

    def require_ring(self) -> Ring:
        self.check_ring()
        return self.ring

    def model_top_pairing(self) -> int | None:
        """<H^n, [X]>, n = half_dim, read with no ring built from ``koszul``
        rows in one projective space: a positive integer, X being nonempty.
        None on any other space."""
        if self.koszul is None or len(self.koszul[1]) != 1:
            return None
        return _intersection_pairing(*self.koszul).get((self.half_dim,))

    @property
    def half_dim(self) -> int:
        return self.real_dim // 2


#: the fields a space makes by its recipes
_RING_SIDE = frozenset(name for name in Space._fields
                       if isinstance(vars(Space).get(name), _Made))


def integrate(space: Space, cls: GradedClass) -> Fraction:
    """Fundamental-class pairing <cls, [space]>, read off the ring's top degree."""
    ring = space.require_ring()
    if cls.ring is not ring:
        raise RingMismatch("class does not live on %s" % space.name)
    return ring.integrate_top(cls)


def _made_recipes(made) -> dict:
    """The recipes of a space with a recorded form, read off ``made()``,
    whose value starts (ring, c1, nef rays), the classes made from the form;
    spin_c is c1."""
    recipes = {"ring": lambda: made()[0], "c1": lambda: made()[1],
               "nef_rays": lambda: made()[2]}
    recipes["spin_c"] = recipes["c1"]
    return recipes


# ---------------------------------------------------------------------------
# basic families
# ---------------------------------------------------------------------------


def projective_space(n: int) -> Space:
    """Complex projective n-space: Q[H]/(H^(n+1)), <H^n> = 1, c1 = (n+1)H."""
    if n < 1:
        raise PreconditionUnmet("projective space needs n >= 1; the point "
                                "enters through the product identity instead")
    return _model_space(
        [], [n], True, n + 1,
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
        [[2]], [n + 1], True, n,
        name="Q(%d)" % n, family="Q", fano_index=n, kahler_einstein=True,
        notes="H-subring model; middle cohomology omitted",
    )


def circle() -> Space:
    """The circle, with its degree-1 generator normalized to <t> = 1."""
    return _sphere("S1", 1, "t", "")


def sphere(k: int) -> Space:
    """The k-sphere: trivial ring except the fundamental class; A-hat = 1."""
    if k < 1:
        raise PreconditionUnmet("sphere needs k >= 1")
    if k == 1:
        return circle()
    return _sphere("S(%d)" % k, k, "x" if k == 2 else "v",
                   "stably trivial tangent bundle")


def _sphere(name: str, k: int, gname: str, notes: str) -> Space:
    """The k-sphere, lazy: Q[g]/(g^2), g of degree k with <g> = 1, spin_c = 0
    and A-hat = 1; g is S1's degree-1 class and S(2)'s primitive (q0 = 0)."""
    ring = cache(partial(_sphere_ring, gname, k))
    recipes = {"ring": ring, "spin_c": lambda: ring().zero()}
    if k <= 2:
        recipes["odd_xi" if k == 1 else "primitive_x"] = \
            lambda: ring().gen(gname)
    return Space(name=name, family="S", real_dim=k, b1=int(k == 1),
                 b2=int(k == 2), a_hat_of=lambda: ring().one(), notes=notes,
                 _recipes=recipes, _q0=0 if k == 2 else None,
                 _generators_of=lambda: ((gname, k),))


def _sphere_ring(gname: str, k: int) -> Ring:
    from .graded import truncated_polynomial_ring
    return truncated_polynomial_ring(gname, k, 1, 1)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def product(x: Space, y: Space) -> Space:
    """Product space with tensor ring and Kuenneth pairing, made lazily: a
    factor without a ring is refused at once, and the recipes refer to the
    factors and one shared tensor ring, never to the product.  q0 is the
    primitive factor's, 0 on a product of two odd classes (a factor with
    b2 = 0 has spin^c class 0 in real cohomology).

    Odd x odd products are allowed at construction time; the parity
    hypothesis of the product length bound is enforced where a length is
    actually requested.
    """
    x.check_ring()
    y.check_ring()
    both_complex = x.is_complex and y.is_complex

    @cache
    def tensor():  # (ring, left map, right map)
        from .graded import tensor_ring
        return tensor_ring(x.ring, y.ring)

    def left(cls):
        return tensor()[1](cls)

    def right(cls):
        return tensor()[2](cls)

    recipes = {"ring": lambda: tensor()[0],
               "factor_embeddings": lambda: tensor()[1:],
               "spin_c": lambda: left(x.spin_c) + right(y.spin_c)}
    if both_complex and not (x.lacks("c1") or y.lacks("c1")):
        recipes["c1"] = lambda: left(x.c1) + right(y.c1)

    q0 = None
    if x.b1 * y.b1 == 0 and {x.b2, y.b2} == {0, 1}:
        base, embed = (x, left) if x.b2 else (y, right)
        if not base.lacks("primitive_x"):
            recipes["primitive_x"] = lambda: embed(base.primitive_x)
            q0 = base._q0
    elif (x.b1, x.b2, y.b1, y.b2) == (1, 0, 1, 0) \
            and not (x.lacks("odd_xi") or y.lacks("odd_xi")):
        recipes["primitive_x"], q0 = \
            lambda: left(x.odd_xi) * right(y.odd_xi), 0

    if (x.real_dim + y.real_dim) % 2 == 1:  # one factor is odd
        odd, odd_map = (x, left) if x.real_dim % 2 else (y, right)
        if not odd.lacks("odd_xi"):
            recipes["odd_xi"] = lambda: odd_map(odd.odd_xi)

    if both_complex and x.b2 + y.b2 <= 2:
        recipes["nef_rays"] = lambda: tuple(map(left, x.nef_rays)) \
            + tuple(map(right, y.nef_rays)) \
            if x.nef_rays and y.nef_rays else ()

    form_of = None
    if both_complex and not (x._form_of is None or y._form_of is None):
        def form_of():
            return x.form.kunneth(y.form, x.b2 + y.b2 <= 2)

    def generators_of():  # named as tensor_ring names them
        xgens, ygens = x.generators(), y.generators()
        lnames, rnames = _tensor_names([name for name, _ in xgens],
                                       [name for name, _ in ygens])
        return tuple(zip(lnames + rnames,
                         [degree for _, degree in xgens + ygens]))

    todd_of = None  # the Todd genus is multiplicative
    if not (x._todd_of is None or y._todd_of is None):
        def todd_of():
            return x._todd_of() * y._todd_of()

    tangent_of = None
    if both_complex and x.tangent_of is not None and y.tangent_of is not None:
        def tangent_of():
            from .characteristic import ChernData
            return ChernData(
                rank=x.tangent.rank + y.tangent.rank,
                total=left(x.tangent.total) * right(y.tangent.total))

    def a_hat_of():
        if x.a_hat_cls is None or y.a_hat_cls is None:
            return None
        return left(x.a_hat_cls) * right(y.a_hat_cls)

    koszul = None
    if both_complex and x.koszul is not None and y.koszul is not None:
        # X x Y is cut out in the product of the ambients by both sets of rows
        (xrows, xns), (yrows, yns) = x.koszul, y.koszul
        koszul = (tuple(row + (0,) * len(yns) for row in xrows)
                  + tuple((0,) * len(xns) + row for row in yrows), xns + yns)
    elif x.is_complex and y.family == "S" and y.real_dim == 1:
        koszul = x.koszul  # <t, [S1]> = 1: X x S1 has X's index polynomial
    elif y.is_complex and x.family == "S" and x.real_dim == 1:
        koszul = y.koszul  # and so has S1 x X

    return Space(
        name="%s * %s" % (x.name, y.name), family="product",
        real_dim=x.real_dim + y.real_dim, b1=x.b1 + y.b1,
        b2=x.b2 + y.b2 + x.b1 * y.b1, is_complex=both_complex,
        complex_dim=(x.complex_dim + y.complex_dim) if both_complex else None,
        tangent_of=tangent_of, a_hat_of=a_hat_of, koszul=koszul,
        _recipes=recipes, _q0=q0, _form_of=form_of, _todd_of=todd_of,
        _generators_of=generators_of)


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
    e, top = sum(degrees), (n - 1, 1)

    def c1():  # in (xi, f), certified against the closed form
        c1 = _first_chern([(0, 2 - 2 * genus)] + [(1, -d) for d in degrees])
        closed = (n, 2 - 2 * genus - e)
        if c1 != closed:
            text = [_format_terms((c, name) for c, name
                                  in zip(v[::-1], ("f", "xi")) if c)
                    for v in (c1, closed)]  # as the ring prints them
            raise CertificateFailed(
                "first Chern class certificate: c1 = %s, closed form %s"
                % tuple(text))
        return c1

    def form():
        from .forms import Form
        return Form(("xi", "f"), {top: 1, (n, 0): e} if e else {top: 1},
                    c1(), ((1, 0), (0, 1)))

    def todd_of():  # chi(O) = chi(O_C) = 1 - g: pi_* O = O, R^i pi_* O = 0
        c1()
        return 1 - genus

    @cache
    def made():  # (ring, c1, nef rays, the tangent's total Chern class)
        from .graded import Generator, RingPresentation, make_ring
        ring = make_ring(RingPresentation(
            generators=[Generator("xi", 2, False), Generator("f", 2, False)],
            truncation=2 * n, pairing={top: Fraction(1)},
            power_rules={"xi": (n, {top: Fraction(e)} if e else {}),
                         "f": (2, {})}))
        pb = form()
        c1, xi, f = pb.classes(ring, (pb.c1,) + pb.rays)
        total = 1 + (2 - 2 * genus) * f
        for d in degrees:
            total = total * (1 + xi - d * f)
        return ring, c1, (xi, f), total

    def tangent_of():
        from .characteristic import ChernData
        return ChernData(rank=n, total=made()[3])
    return Space(
        name="PB(degrees=%s; genus=%d)" % (degrees, genus), family="PB",
        real_dim=2 * n, b1=2 * genus, b2=2, tangent_of=tangent_of,
        is_complex=True, complex_dim=n,
        notes="ring ignores the odd cohomology of the base curve",
        _recipes=_made_recipes(made), _form_of=form, _todd_of=todd_of,
        _generators_of=lambda: (("xi", 2), ("f", 2)))


def _first_chern(factors) -> tuple:
    """The degree-2 part of the product of the classes 1 + v over the
    coordinate vectors v of degree-2 classes: the sum of the v."""
    return tuple(map(sum, zip(*factors)))


# ---------------------------------------------------------------------------
# complete intersections in products of projective spaces
# ---------------------------------------------------------------------------


class _ProjectiveModel:
    """The ring side of the complete intersection X of the divisors ``rows``
    (multidegrees) in CP(N_1) x ... x CP(N_m), of complex dimension ``dim``,
    each part made on first read and kept.

    The form pairs by :func:`kernel._intersection_pairing`, c1 = sum_i
    (N_i + 1 - sum of the rows' d_i) H_i by adjunction, the nef rays are
    the H_i where ``cone`` records them, and H_1 is the primitive class
    where ``primitive`` does.  The ring stops at X's top
    degree 2 dim, with H_i^(min(N_i, dim)+1) = 0 and the form's pairing.
    The tangent is the Euler sequences' class over (1 + D_1)...(1 + D_r).

    A model refers to no space, so a space and its twists share one, and
    dropping them frees it without the cycle collector.
    """

    def __init__(self, rows, ns, dim: int, cone: bool, primitive: bool):
        self.rows, self.ns, self.dim = rows, ns, dim
        self.cone, self.primitive = cone, primitive
        self.names = (("H",) if len(ns) == 1 else
                      tuple("H%d" % (i + 1) for i in range(len(ns))))

    @cached_property
    def form(self) -> Form:
        from .forms import Form, _units
        units = _units(len(self.ns))
        return Form(self.names, _intersection_pairing(self.rows, self.ns),
                    tuple(N + 1 - sum(row[i] for row in self.rows)
                          for i, N in enumerate(self.ns)),
                    units if self.cone else (),
                    x=units[0] if self.primitive else None)

    def generators(self) -> tuple:
        """The ring's generators, the H_i of degree 2."""
        return tuple((name, 2) for name in self.names)

    def todd(self) -> int:
        """The Todd genus chi(X, O): the Koszul sum at t = 0."""
        return _koszul_value(self.rows, self.ns, 0)

    @cached_property
    def hs(self) -> tuple:
        """The hyperplane classes, in the ring built here."""
        from .graded import Generator, RingPresentation, make_ring
        ring = make_ring(RingPresentation(
            generators=[Generator(name, 2, False) for name in self.names],
            truncation=2 * self.dim,
            power_rules={name: (min(N, self.dim) + 1, {})
                         for name, N in zip(self.names, self.ns)},
            pairing=self.form.pairing))
        return tuple(ring.gen(name) for name in self.names)

    @property
    def ring(self) -> Ring:
        return self.hs[0].ring

    @cached_property
    def classes(self) -> tuple:
        """(c1, nef rays), made in the ring from the form."""
        c1, *rays = self.form.classes(self.ring,
                                      (self.form.c1,) + self.form.rays)
        return c1, tuple(rays)

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


def _model_space(rows, ns, cone: bool, q0, **fields) -> Space:
    """The space of the complete intersection of ``rows`` in CP(ns), an empty
    one refused: its integers now, its form, ring and classes from a
    :class:`_ProjectiveModel` on first read.  ``cone`` records the nef cone,
    whose rays are the H_i.  ``q0`` is None for a space without a primitive
    class, whose spin_c is c1; ``koszul`` records (rows, ns) for the
    engine's Riemann-Roch closed forms, and the Todd genus is their Koszul
    sum at t = 0."""
    dim = _intersection_dim(rows, ns)
    model = _ProjectiveModel(rows, ns, dim, cone, q0 is not None)
    recipes = _made_recipes(lambda: (model.ring, *model.classes))
    if q0 is not None:
        recipes["primitive_x"] = lambda: model.hs[0]
        recipes["spin_c"] = lambda: q0 * model.hs[0]
    return Space(
        real_dim=2 * dim, b1=0, b2=len(ns), is_complex=True, complex_dim=dim,
        tangent_of=model.tangent,
        koszul=(tuple(map(tuple, rows)), tuple(ns)), _recipes=recipes,
        _q0=q0, _form_of=partial(getattr, model, "form"),
        _todd_of=model.todd,
        _generators_of=model.generators, **fields)


#: the refusals of (rows, ns) by the catalog, in its order
_CI_CHECKS = (
    (("no factor", "small factor"),
     "ambient factors must have positive dimension"),
    (("no row",), "need at least one hypersurface"),
    (("width",), "each multidegree row needs %d entries"),
    (("negative",), "multidegrees must be nonnegative"),
    (("zero",), "each hypersurface needs a nonzero multidegree"))


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
    rows, ns = _checked_rows(multidegrees, ambient, _CI_CHECKS)
    m = len(ns)
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
        m <= 2 and lefschetz,
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

    def form():
        from .forms import Form
        return Form(("H", "E"), {(n, 0): 1, (0, n): (-1) ** (n + 1)},
                    (n + 1, 1 - n), ((1, 0), (1, -1)))

    @cache
    def made():  # (ring, c1, nef rays)
        from .graded import Generator, RingPresentation, make_ring
        f = form()
        ring = make_ring(RingPresentation(
            generators=[Generator("H", 2, False), Generator("E", 2, False)],
            truncation=2 * n, pair_rules=[("H", "E")],
            power_rules={"H": (n + 1, {}), "E": (n + 1, {})},
            pairing=f.pairing))
        c1, *rays = f.classes(ring, (f.c1,) + f.rays)
        return ring, c1, tuple(rays)

    return Space(
        name="BlP(%d)" % n, family="BlP", real_dim=2 * n, b1=0, b2=2,
        is_complex=True, complex_dim=n,
        notes="tangent Chern data beyond c1 not tracked",
        _recipes=_made_recipes(made), _form_of=form,
        _generators_of=lambda: (("H", 2), ("E", 2)))


# ---------------------------------------------------------------------------
# spin^c twisting
# ---------------------------------------------------------------------------


def twist_spin_c(space: Space, k: int) -> Space:
    """Replace the characteristic class c by c + 2k x; parity is preserved.
    The twist shares every recipe but spin_c's, the form, and the tangent
    and A-hat, which do not see the spin^c class; it moves q0 where it is
    recorded.  A space without a spin^c class is refused before any recipe
    is read."""
    space.check_ring()
    if space.b2 != 1 or space.lacks("primitive_x"):
        raise NoPrimitiveClass(
            "twisting needs b2 = 1 with a recorded primitive degree-2 class")
    if space.lacks("spin_c"):
        raise MissingSpinCClass(
            "%s carries no spin^c class to twist" % space.name)
    if k == 0:
        return space
    spin_c, primitive = space._recipes["spin_c"], space._recipes["primitive_x"]
    fields = {name: getattr(space, name) for name in space._fields
              if name not in _RING_SIDE}
    fields.update(name="%s twist(%d)" % (space.name, k),
                  notes=(space.notes + "; " if space.notes else "")
                  + "twisted spin^c class")
    return Space(**fields, _form_of=space._form_of, _todd_of=space._todd_of,
                 _generators_of=space._generators_of,
                 _q0=None if space._q0 is None else space._q0 + 2 * k,
                 _recipes=dict(space._recipes, spin_c=lambda: spin_c()
                               + (2 * k) * primitive()))


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
