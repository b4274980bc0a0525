"""Constructors for the manifold catalog.

A :class:`Space` is its integers and one table of recipes.  The integers
(dimension, Betti and index data, complexness, the Koszul data of a
complete intersection) are set at construction, where an empty
intersection is refused by a matching and a ring-less factor of a product
at once.  Every other value is a field made on first read and kept: the
ring and its classes (spin_c, the primitive degree-2 class when b2 = 1, the
degree-1 class of an odd space, c1, the nef rays of the rank <= 2 families,
a product's factor embeddings), the tangent Chern data and the A-hat and
Todd classes, the top intersection form on H^2 (:class:`forms.Form`), the
ring's generator names and degrees, which an ``--alpha`` text is read
against, the integer q0 with spin_c = q0 x, the Todd genus, the top pairing
<xi x^n, [X]> and the index pairing <eta e^(c/2) A-hat, [N]> of a second
factor.  A field's recipe, where the catalog records one, is a closed form;
without one the field's rule reads the value off the ring.  So which space
has which closed form is decided here alone, and the engines only read
values.

The closed forms come from integers the catalog already has.  Projective
spaces, quadrics and complete intersections share one
:class:`_ProjectiveModel` of the divisors in a product of projective
spaces: the form pairs by the rows, c1 is read by adjunction, the Todd
genus is the Koszul sum at t = 0 and, in one projective space, the top
pairing is the degree.  A projective bundle over a curve of genus g records
its form, c1 certified in integers, and its Todd genus 1 - g, since pi_* O
= O and the higher direct images vanish; a point blowup records its form; a
sphere its generator and its index pairing, 1 on the circle and 0 on an
even sphere.  A product builds its recipes from its factors' values: the
Kuenneth product of the forms, the product of the Todd genera, the
primitive factor's q0 and, times the circle, that factor's top pairing,
as <t, [S1]> = 1.  A twist shares its base's recipes but those of spin_c,
q0 and the index pairing, which see the spin^c class.  A space given its
classes by the public constructor, and every copy ``Space.replace`` makes,
reads the rest off its ring.  So the length, the index polynomial, the
Todd genus and every bound read off integers build no ring on a catalog
space, and the volume functional, phi-sup and the nef threshold read a
class's numbers off the form (:mod:`sysbound.cones`).

The modules behind a ring load with it: ``sysbound.graded`` is imported
only in the recipes that build a ring (a sphere's, a product's tensor ring,
a model's, a bundle's and a blowup's) and in the rules, and
``sysbound.characteristic`` only where a tangent, an A-hat or a Todd class
is built.  So no reply on a catalog descriptor loads either; they serve
spaces built by hand and the tests' oracles.

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
    """A derived field of :class:`Space`: the first read runs the space's
    recipe for it, or without one the field's ``rule`` on the space (None
    when the field has no rule), and keeps the value in the instance dict,
    so later reads are plain hits."""

    def __init__(self, rule=None):
        self.rule = rule

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, space, owner=None):
        if space is None:
            return self
        recipe = space._recipes.get(self.name)
        if recipe is not None:
            value = recipe()
        else:
            value = None if self.rule is None else self.rule(space)
        space.__dict__[self.name] = value
        return value


def _empty(space) -> tuple:
    return ()


def _tangent_a_hat(space: Space) -> GradedClass | None:
    """The tangent's A-hat class, None without a tangent."""
    if space.tangent is None:
        return None
    from .characteristic import a_hat
    return a_hat(space.tangent)


def _todd_class(space: Space) -> GradedClass | None:
    """Todd = exp(c1/2) * A-hat on complex spaces carrying both."""
    if not space.is_complex or space.a_hat_cls is None or space.c1 is None:
        return None
    from .characteristic import todd_from_a_hat
    return todd_from_a_hat(space.c1, space.a_hat_cls)


def _ring_form(space: Space) -> Form:
    from .forms import ring_form
    return ring_form(space)


def _ring_generators(space: Space) -> tuple:
    """The ring's generators as ``(name, degree)`` pairs, in order.  Each
    is its own monomial in normal form, or zero, as the class parser and
    ``Form.vector`` read it; a ring whose power rule of cap 1 rewrites a
    generator is refused."""
    ring = space.require_ring()
    for i, g in enumerate(ring.generators):
        unit = tuple(int(j == i) for j in range(len(ring.generators)))
        if ring._normal_form(unit) not in ((unit, 1), None):
            raise RewrittenGenerator(
                "generator %r of %s's ring is rewritten to %r by a power "
                "rule; a class expression reads each generator as itself"
                % (g.name, space.name, ring.gen(g.name)))
    return tuple((g.name, g.degree) for g in ring.generators)


def _ring_q0(space: Space) -> int:
    """The integer q0 with spin_c = q0 x in real cohomology, read off the
    classes."""
    x = space.primitive_x
    c = space.spin_c
    if c.is_zero():
        return 0
    for mono, xc in x.terms.items():
        cc = c.coefficient(mono)
        if cc:
            q0 = cc / xc
            break
    else:
        raise NoPrimitiveClass("characteristic class is not a multiple of x")
    if c != q0 * x:
        raise NoPrimitiveClass(
            "characteristic class of %s is not proportional to the primitive "
            "generator" % space.name)
    if q0.denominator != 1:
        raise NoPrimitiveClass("characteristic class must be an integral "
                               "multiple of the primitive generator")
    return int(q0)


def _ring_todd(space: Space) -> Fraction:
    """The integral of the Todd class."""
    if not space.is_complex or space.todd_cls is None:
        raise MetadataOnlySpace(
            "%s carries no complex tangent data for a Todd genus" % space.name)
    return integrate(space, space.todd_cls)


def _xi(space: Space) -> GradedClass:
    """The degree-1 class xi of an odd space, 1 on an even one."""
    return space.odd_xi if space.real_dim % 2 else space.ring.one()


def _index_class(space: Space) -> GradedClass:
    """xi e^(c/2) A-hat(TX), xi = 1 on an even space."""
    from .graded import exp_class
    return (_xi(space) * exp_class(space.spin_c * Fraction(1, 2))
            * space.a_hat_cls)


def _ring_top_pairing(space: Space) -> Fraction:
    """<xi x^n, [X]> for the primitive class x, n = half_dim."""
    return integrate(space, _xi(space) * space.primitive_x ** space.half_dim)


def _ring_index_pairing(space: Space) -> Fraction | None:
    """<xi e^(c/2) A-hat, [X]>, 1 on a point; None on an odd space without
    its xi, looked for before the A-hat class is read, and on a space
    without one."""
    if space.real_dim % 2 and space.lacks("odd_xi") or space.a_hat_cls is None:
        return None
    return 1 if space.real_dim == 0 else integrate(space, _index_class(space))


class Space(Record, frozen=False):
    """A catalog manifold; immutable by convention after construction.

    The integers (b1, b2, dimensions, complexness, ``koszul``) are set at
    construction.  Every other value is a :class:`_Made` field, made on
    first read and kept: by the space's recipe for it in ``_recipes`` where
    there is one, and else by the field's rule, which reads it off the ring,
    or leaves a ring or class the space has no recipe for None (the nef
    rays and factor embeddings empty).  The catalog gives ``_recipes``; the
    public constructor turns a class it is given into a recipe that returns
    it, ``tangent_of`` into the recipe of ``tangent`` (and of c1, the
    tangent's first Chern class, where none is given) and ``a_hat_of`` into
    that of ``a_hat_cls``.  :meth:`lacks` and :meth:`check_ring` answer from
    the recipes and build nothing.

    The fields read off the ring by a rule without a recipe: ``a_hat_cls``
    (the tangent's), ``todd_cls`` (exp(c1/2) A-hat), ``form``
    (``forms.ring_form``), ``generators`` (the ring's, as ``(name,
    degree)`` pairs), ``q0`` (the integer with spin_c = q0 x for the
    primitive class x), ``todd`` (the Todd genus), ``top_pairing`` (<xi
    x^n, [X]>, xi = 1 on an even space) and ``index_pairing`` (<xi e^(c/2)
    A-hat, [X]>, whose nonvanishing thm1.3 and thm5.6 ask of a second
    factor).

    ``koszul`` is ``(rows, ns)`` when the index polynomial is that of the
    complete intersection of the divisors ``rows`` in CP(N_1) x ... x
    CP(N_m): on that space and its twists, on a product of such spaces, and
    on its product with the circle in either order.  :mod:`sysbound.engine`
    reads it from the Riemann-Roch closed form.  ``factor_embeddings`` are
    the (left, right) class maps on products.

    ``Space.replace`` reads every field, so the copy is given the original's
    classes, ``tangent_of`` and ``a_hat_of``, and reads the rest off its
    ring.  Kept values are not fields, so it never copies a value computed
    for another space.
    """

    ring, c1, spin_c, primitive_x, odd_xi, tangent = (
        _Made() for _ in range(6))
    nef_rays, factor_embeddings = _Made(_empty), _Made(_empty)
    a_hat_cls, todd_cls, form = (
        _Made(_tangent_a_hat), _Made(_todd_class), _Made(_ring_form))
    generators, q0, todd = (
        _Made(_ring_generators), _Made(_ring_q0), _Made(_ring_todd))
    top_pairing, index_pairing = (
        _Made(_ring_top_pairing), _Made(_ring_index_pairing))

    def __init__(self, name: str, family: str, real_dim: int, b1: int,
                 b2: int, ring: Ring | None = None, is_complex=False,
                 complex_dim=None,
                 tangent_of: Callable[[], ChernData] | None = None,
                 c1: GradedClass | None = None,
                 a_hat_of: Callable[[], GradedClass | None] | None = None,
                 koszul=None, spin_c=None, primitive_x=None, odd_xi=None,
                 fano_index=None, metadata_only=False, nef_rays=(),
                 kahler_einstein=None, notes="", factor_embeddings=(),
                 _recipes: dict | None = None):
        self.__dict__.update(
            name=name, family=family, real_dim=real_dim, b1=b1, b2=b2,
            is_complex=is_complex, complex_dim=complex_dim,
            tangent_of=tangent_of, a_hat_of=a_hat_of, koszul=koszul,
            fano_index=fano_index, metadata_only=metadata_only,
            kahler_einstein=kahler_einstein, notes=notes)
        given = dict(ring=ring, c1=c1, spin_c=spin_c, primitive_x=primitive_x,
                     odd_xi=odd_xi, nef_rays=nef_rays,
                     factor_embeddings=factor_embeddings)
        self._recipes = {field: lambda value=value: value
                         for field, value in given.items() if value is not None}
        if tangent_of is not None:  # c1 defaults to the tangent's
            self._recipes["tangent"] = tangent_of
            self._recipes.setdefault("c1", lambda: tangent_of().chern(1))
        if a_hat_of is not None:
            self._recipes["a_hat_cls"] = a_hat_of
        self._recipes.update(_recipes or {})
        if not (metadata_only or real_dim % 2 or self.lacks("odd_xi")):
            raise PreconditionUnmet(
                "%s: a degree-1 class is only recorded in odd dimensions" % name)

    def lacks(self, name: str) -> bool:
        """Whether the field ``name`` is None, answered for a ring-side
        field not yet read from the recipes, building nothing."""
        if name in self.__dict__ or name not in _RING_SIDE:
            return getattr(self, name) is None
        return name not in self._recipes

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

    @property
    def half_dim(self) -> int:
        return self.real_dim // 2


#: the init fields a space makes by its recipes
_RING_SIDE = frozenset(name for name in Space._fields
                       if isinstance(vars(Space).get(name), _Made))


def integrate(space: Space, cls: GradedClass) -> Fraction:
    """Fundamental-class pairing <cls, [space]>, read off the ring's top degree."""
    ring = space.require_ring()
    if cls.ring is not ring:
        raise RingMismatch("class does not live on %s" % space.name)
    return ring.integrate_top(cls)


def _made_recipes(made, **recipes) -> dict:
    """The recipes of a space with a recorded form: the ring and classes
    read off ``made()``, whose value starts (ring, c1, nef rays), the
    classes made from the form, spin_c = c1, and then ``recipes``."""
    def c1():
        return made()[1]
    return {"ring": lambda: made()[0], "c1": c1, "spin_c": c1,
            "nef_rays": lambda: made()[2], **recipes}


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
    and A-hat = 1; g is S1's degree-1 class and S(2)'s primitive (q0 = 0).
    So the index pairing is <t, [S1]> = 1 on the circle and <1, [S^k]> = 0
    on an even sphere."""
    ring = cache(partial(_sphere_ring, gname, k))
    recipes = {"ring": ring, "spin_c": lambda: ring().zero(),
               "generators": lambda: ((gname, k),)}
    if k <= 2:
        recipes["odd_xi" if k == 1 else "primitive_x"] = \
            lambda: ring().gen(gname)
    if k == 2:
        recipes["q0"] = lambda: 0
    if k == 1 or k % 2 == 0:
        recipes["index_pairing"] = lambda: int(k == 1)
    return Space(name=name, family="S", real_dim=k, b1=int(k == 1),
                 b2=int(k == 2), a_hat_of=lambda: ring().one(), notes=notes,
                 _recipes=recipes)


def _sphere_ring(gname: str, k: int) -> Ring:
    from .graded import truncated_polynomial_ring
    return truncated_polynomial_ring(gname, k, 1, 1)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def product(x: Space, y: Space) -> Space:
    """Product space with tensor ring and Kuenneth pairing, made lazily: a
    factor without a ring is refused at once, and the recipes refer to the
    factors and one shared tensor ring, never to the product.  They read the
    factors' values: q0 is the primitive factor's, 0 on a product of two odd
    classes (a factor with b2 = 0 has spin^c class 0 in real cohomology);
    the form is the Kuenneth product of two recorded forms and the Todd
    genus the product of two recorded genera; and times the circle the
    primitive factor's recorded top pairing is kept.

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

    if x.b1 * y.b1 == 0 and {x.b2, y.b2} == {0, 1}:
        base, embed, other = (x, left, y) if x.b2 else (y, right, x)
        if not base.lacks("primitive_x"):
            recipes["primitive_x"] = lambda: embed(base.primitive_x)
            if "q0" in base._recipes:
                recipes["q0"] = lambda: base.q0
            if "top_pairing" in base._recipes and other.family == "S" \
                    and other.real_dim == 1:  # xi = t and <t, [S1]> = 1
                recipes["top_pairing"] = lambda: base.top_pairing
    elif (x.b1, x.b2, y.b1, y.b2) == (1, 0, 1, 0) \
            and not (x.lacks("odd_xi") or y.lacks("odd_xi")):
        recipes["primitive_x"] = lambda: left(x.odd_xi) * right(y.odd_xi)
        recipes["q0"] = lambda: 0

    if (x.real_dim + y.real_dim) % 2 == 1:  # one factor is odd
        odd, odd_map = (x, left) if x.real_dim % 2 else (y, right)
        if not odd.lacks("odd_xi"):
            recipes["odd_xi"] = lambda: odd_map(odd.odd_xi)

    if both_complex and x.b2 + y.b2 <= 2:
        recipes["nef_rays"] = lambda: tuple(map(left, x.nef_rays)) \
            + tuple(map(right, y.nef_rays)) \
            if x.nef_rays and y.nef_rays else ()

    if both_complex and "form" in x._recipes and "form" in y._recipes:
        recipes["form"] = lambda: x.form.kunneth(y.form, x.b2 + y.b2 <= 2)

    def generators():  # named as tensor_ring names them
        lnames, rnames = _tensor_names([name for name, _ in x.generators],
                                       [name for name, _ in y.generators])
        return tuple(zip(lnames + rnames, [
            degree for _, degree in x.generators + y.generators]))
    recipes["generators"] = generators

    if "todd" in x._recipes and "todd" in y._recipes:  # it is multiplicative
        recipes["todd"] = lambda: x.todd * y.todd

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
        _recipes=recipes)


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

    def todd():  # chi(O) = chi(O_C) = 1 - g: pi_* O = O, R^i pi_* O = 0
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
        _recipes=_made_recipes(made, form=form, todd=todd,
                               generators=lambda: (("xi", 2), ("f", 2))))


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
    class, whose spin_c is c1; a primitive class lives in one projective
    space, where the top pairing is the degree <H^dim, [X]>.  ``koszul``
    records (rows, ns) for the engine's Riemann-Roch closed forms."""
    dim = _intersection_dim(rows, ns)
    model = _ProjectiveModel(rows, ns, dim, cone, q0 is not None)
    recipes = _made_recipes(
        lambda: (model.ring, *model.classes),
        form=partial(getattr, model, "form"), generators=model.generators,
        todd=model.todd)
    if q0 is not None:
        recipes.update(
            primitive_x=lambda: model.hs[0],
            spin_c=lambda: q0 * model.hs[0], q0=lambda: q0,
            top_pairing=lambda: _intersection_pairing(rows, ns)[(dim,)])
    return Space(
        real_dim=2 * dim, b1=0, b2=len(ns), is_complex=True, complex_dim=dim,
        tangent_of=model.tangent,
        koszul=(tuple(map(tuple, rows)), tuple(ns)), _recipes=recipes,
        **fields)


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
        _recipes=_made_recipes(made, form=form,
                               generators=lambda: (("H", 2), ("E", 2))))


# ---------------------------------------------------------------------------
# spin^c twisting
# ---------------------------------------------------------------------------


def twist_spin_c(space: Space, k: int) -> Space:
    """Replace the characteristic class c by c + 2k x; parity is preserved.
    The twist shares every recipe but those that see the spin^c class: it
    moves spin_c and q0, and reads its index pairing off its ring.  A space
    without a spin^c class is refused before any recipe is read."""
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
    recipes = dict(space._recipes, q0=lambda: space.q0 + 2 * k,
                   spin_c=lambda: spin_c() + (2 * k) * primitive())
    recipes.pop("index_pairing", None)
    return Space(**fields, _recipes=recipes)


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
