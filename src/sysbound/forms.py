"""The top intersection form on H^2 of a complex space.

A :class:`Form` is what the volume functional and the cone engine read of a
complex space X of dimension n: a basis D_1, ..., D_m of degree-2 classes,
the pairings <D^e, [X]> of the top monomials D^e in it, and c1 and the nef
rays as coordinate vectors.  :mod:`sysbound.catalog` records the form of
each complex family from integers it already has, with no ring built;
:func:`ring_form` reads the form of a space built by hand off its ring.
:mod:`sysbound.cones` evaluates a class's numbers from its coordinates.

The catalog imports this module where a form is first made: for the
volume functional and the cone engine, and for the c1 and nef-ray classes
of a model, a point blowup or a projective bundle, which are made from
their form's vectors.  So ``length``, ``index-poly`` and the bounds read off
integers never compile it.  It imports no ring module: a class or a ring is
only ever handed to it, so ``phi``, ``phi-sup`` and the ``--alpha``
selectors read a catalog space's form without loading ``graded``.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

from .values import Record, _format_terms, _tensor_names

# ``Space``, ``Ring`` and ``GradedClass`` appear in annotations only.


def _units(m: int) -> tuple:
    """The unit vectors of length m."""
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


class Form(Record):
    """The top intersection form on H^2 of a complex space X of dimension
    n, in a basis D_1, ..., D_m of degree-2 classes: their ``names``, the
    ``pairing`` sending each exponent tuple e with |e| = n to <D^e, [X]>
    (zeros left out), and c1 (None without one), the nef rays and the
    primitive class x (None without one) as coordinate vectors.  ``monos``
    are the D_i as monomials of X's ring: its generators, in order, unless
    the form is read off a ring.  A ring is met only when a class is made
    or read."""

    def __init__(self, names, pairing: dict, c1, rays, monos=None, x=None):
        self.__dict__.update(
            names=tuple(names), pairing=pairing, c1=c1, rays=tuple(rays),
            monos=_units(len(names)) if monos is None else tuple(monos), x=x)

    def classes(self, ring: Ring, vectors) -> tuple:
        """The classes in ``ring`` with the coordinate vectors ``vectors``."""
        return tuple(ring.from_terms(dict(zip(self.monos, v)))
                     for v in vectors)

    def coordinates(self, cls: GradedClass) -> tuple:
        """The coefficients of ``cls`` on the basis, ints where integral."""
        return tuple(cls.terms.get(m, 0) for m in self.monos)

    def vector(self, coefficients) -> tuple:
        """The coordinates of the class sum_i c_i g_i, ``coefficients``
        holding c_i for each generator g_i of X's ring, in order, with c_i
        = 0 wherever g_i is not of degree 2.  A generator is its own
        monomial in normal form, or zero (``Space.generators`` refuses any
        other ring), so the class is read off the basis monomials that are
        generators."""
        return tuple(coefficients[m.index(1)] if sum(m) == 1 else 0
                     for m in self.monos)

    def text(self, vector) -> str:
        """The class with coordinates ``vector`` as its ring prints it."""
        order = sorted(range(len(self.monos)), key=self.monos.__getitem__)
        return _format_terms((vector[i], self.names[i]) for i in order
                             if vector[i])

    def kunneth(self, other: Form, rays: bool) -> Form:
        """The form of the product with ``other``, its basis named as the
        tensor ring's generators: the pairings multiply, c1 is the sum, and
        the rays are both factors' where ``rays`` holds and each factor has
        some.  A complex catalog space has b2 >= 1, so the product has no
        primitive class."""
        left, right = _tensor_names(self.names, other.names)
        zl, zr = (0,) * len(self.names), (0,) * len(other.names)
        return Form(
            left + right,
            {a + b: p * q for a, p in self.pairing.items()
             for b, q in other.pairing.items()},
            None if self.c1 is None or other.c1 is None
            else self.c1 + other.c1,
            tuple(r + zr for r in self.rays) + tuple(zl + r for r in other.rays)
            if rays and self.rays and other.rays else ())


def ring_form(space: Space) -> Form:
    """The form of a space with none recorded, read off its ring: the basis
    is the degree-2 monomials in normal form, and each pairing is
    ``catalog.integrate`` of a product of them."""
    from .catalog import integrate
    ring = space.require_ring()
    units, degrees = _units(len(ring.generators)), [
        g.degree for g in ring.generators]
    candidates = [u for u, d in zip(units, degrees) if d == 2] + [
        tuple(map(sum, zip(units[i], units[j])))
        for i in range(len(units)) for j in range(i + 1, len(units))
        if degrees[i] == degrees[j] == 1]
    monos = [mono for mono in candidates
             if ring._normal_form(mono) == (mono, 1)]
    basis = [ring.from_terms({mono: 1}) for mono in monos]
    pairing = {}
    for picks in combinations_with_replacement(range(len(monos)),
                                               space.complex_dim):
        value = integrate(space, math.prod((basis[i] for i in picks),
                                           start=ring.one()))
        if value:
            pairing[tuple(picks.count(i) for i in range(len(monos)))] = value
    form = Form(map(ring.monomial_str, monos), pairing, None, (), monos)
    return form.replace(
        c1=None if space.lacks("c1") else form.coordinates(space.c1),
        rays=map(form.coordinates, space.nef_rays),
        x=None if space.lacks("primitive_x")
        else form.coordinates(space.primitive_x))
