"""Truncated graded-commutative rings with exact rational coefficients.

A ring is presented by generators with degrees and parities, bounded-exponent
rewrite rules, and a pairing functional on top-degree monomials.  This covers
every presentation used by the manifold catalog (projective spaces, quadric
H-subrings, tensor products, projective bundles over curves, point blowups)
without general Groebner machinery: a rule sends a power of one generator to
at most one monomial of lower lexicographic order, so the normal form of a
monomial is one monomial times a coefficient, or zero, reached along one
rewrite path.

Monomials are exponent tuples aligned with the generator list.  An integral
coefficient is stored as an ``int`` and any other as a ``fractions.Fraction``;
a product runs on the integer numerators of its operands over one common
denominator each and divides once per output term, and only where that
denominator is not 1.  No floating point enters any ring operation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import InvalidPresentation, NotDegreeTwo, RingMismatch
from .values import Record, _format_terms, _tensor_names

Monomial = tuple  # tuple[int, ...], exponents per generator


class Generator(Record):
    def __init__(self, name: str, degree: int, odd: bool):
        if degree < 1:
            raise InvalidPresentation("generator %r must have positive degree" % name)
        if odd != (degree % 2 == 1):
            raise InvalidPresentation(
                "generator %r: parity flag must match degree parity in a "
                "graded-commutative ring over Q" % name)
        self.__dict__.update(name=name, degree=degree, odd=odd)


class RingPresentation(Record, frozen=False):
    """Input data for :func:`make_ring`.

    ``power_rules`` maps a generator name to ``(cap, rhs)`` meaning
    ``g**cap -> rhs`` where ``rhs`` is a mapping from monomials (exponent
    tuples) to rational coefficients; an empty mapping means the power is
    zero.  ``pair_rules`` is an iterable of generator-name pairs whose
    product is zero.  ``pairing`` assigns rational values to top-degree
    normal-form monomials.
    """

    def __init__(self, generators: Sequence[Generator], truncation: int,
                 power_rules: Mapping[str, tuple] | None = None,
                 pair_rules: Iterable[tuple] = (),
                 pairing: Mapping[Monomial, Fraction] | None = None):
        self.generators, self.truncation = generators, truncation
        self.power_rules = {} if power_rules is None else power_rules
        self.pair_rules = pair_rules
        self.pairing = {} if pairing is None else pairing


class Ring:
    """Handle produced by :func:`make_ring`; immutable after construction."""

    def __init__(self, presentation: RingPresentation):
        self.generators = tuple(presentation.generators)
        self._degrees = tuple(g.degree for g in self.generators)
        self._odd = tuple(i for i, g in enumerate(self.generators) if g.odd)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise InvalidPresentation("duplicate generator names: %r" % names)
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        self.truncation = int(presentation.truncation)
        if self.truncation < 0:
            raise InvalidPresentation("truncation must be nonnegative")

        self._power_rules = {}
        for name, (cap, rhs) in presentation.power_rules.items():
            if name not in self.index:
                raise InvalidPresentation("power rule on unknown generator %r" % name)
            i = self.index[name]
            gen = self.generators[i]
            if cap < 1:
                raise InvalidPresentation("power cap for %r must be >= 1" % name)
            rhs_terms = {tuple(m): _exact(c) for m, c in dict(rhs).items() if c}
            if len(rhs_terms) > 1:
                raise InvalidPresentation(
                    "rule %s^%d has %d monomials on its right side; at most "
                    "one is supported" % (name, cap, len(rhs_terms)))
            lhs_mono = tuple(cap if j == i else 0 for j in range(len(self.generators)))
            lhs_deg = cap * gen.degree
            for m in rhs_terms:
                if len(m) != len(self.generators):
                    raise InvalidPresentation("rule RHS monomial has wrong arity")
                if self.monomial_degree(m) > lhs_deg:
                    raise InvalidPresentation(
                        "degree-raising rule %s^%d -> %s" % (name, cap, m))
                if not m < lhs_mono:
                    raise InvalidPresentation(
                        "rule %s^%d does not lower the monomial order" % (name, cap))
            if rhs_terms and gen.odd:
                raise InvalidPresentation(
                    "substitution rules with nonzero RHS are only supported on "
                    "even generators (%r is odd)" % name)
            self._power_rules[i] = (cap, rhs_terms)

        self._pair_rules = set()
        for pair in presentation.pair_rules:
            a, b = pair
            if a not in self.index or b not in self.index:
                raise InvalidPresentation("pair rule on unknown generators %r" % (pair,))
            self._pair_rules.add(frozenset((self.index[a], self.index[b])))

        # odd generators square to zero implicitly (exponent cap 1); an
        # explicit cap >= 2 is redundant but harmless, a cap of 1 would kill
        # the generator itself
        for i, g in enumerate(self.generators):
            if g.odd and i in self._power_rules and self._power_rules[i][0] < 2:
                raise InvalidPresentation(
                    "odd generator %r squares to zero already; a cap below 2 "
                    "would erase the generator" % g.name)

        #: monomial -> its normal form, filled by products; a product's
        #: terms meet the same monomials again and again
        self._forms = {}

        self.pairing = {}
        for m, v in dict(presentation.pairing).items():
            m = tuple(m)
            v = _exact(v)
            if len(m) != len(self.generators):
                raise InvalidPresentation("pairing monomial has wrong arity")
            if self.monomial_degree(m) != self.truncation:
                raise InvalidPresentation(
                    "pairing monomial %r is not of top degree %d" % (m, self.truncation))
            if self._normal_form(m) != (m, 1):
                raise InvalidPresentation("pairing monomial %r is not in normal form" % (m,))
            if v:
                self.pairing[m] = v
        if not self.pairing:
            raise InvalidPresentation("pairing functional vanishes on all top monomials")

    # -- monomial helpers -------------------------------------------------

    def monomial_degree(self, m: Monomial) -> int:
        return sum(e * d for e, d in zip(m, self._degrees))

    def _normal_form(self, mono: Monomial):
        """``(monomial, coefficient)`` with mono = coefficient * monomial in
        normal form, or None when mono is zero.

        A rule sends a monomial to at most one monomial of no higher degree
        and lower lexicographic order, and that order is kept by
        multiplication, so the rewrite follows one path through the finitely
        many monomials of degree at most the truncation, and stops.
        """
        coeff = 1
        while True:
            if sum(e * d for e, d in zip(mono, self._degrees)) > self.truncation:
                return None
            if any(mono[i] >= 2 for i in self._odd):
                return None
            if any(all(mono[i] for i in pair) for pair in self._pair_rules):
                return None
            for i, (cap, rhs) in self._power_rules.items():
                if mono[i] >= cap:
                    break
            else:
                return mono, coeff
            if not rhs:
                return None
            [(rm, rc)] = rhs.items()
            mono = tuple(e + r - (cap if j == i else 0)
                         for j, (e, r) in enumerate(zip(mono, rm)))
            coeff *= rc

    def _koszul_sign(self, a: Monomial, b: Monomial) -> int:
        """Sign of moving the odd generators of b past those of a."""
        swaps = sum(a[i] * b[j] for i in self._odd for j in self._odd if j < i)
        return -1 if swaps % 2 else 1

    # -- class constructors ------------------------------------------------

    def zero(self) -> "GradedClass":
        return GradedClass(self, {})

    def one(self) -> "GradedClass":
        return GradedClass(self, {(0,) * len(self.generators): 1})

    def gen(self, name: str) -> "GradedClass":
        if name not in self.index:
            raise InvalidPresentation("no generator named %r" % name)
        i = self.index[name]
        mono = tuple(1 if j == i else 0 for j in range(len(self.generators)))
        return self.from_terms({mono: 1})

    def gen_names(self):
        return [g.name for g in self.generators]

    def from_terms(self, terms: Mapping[Monomial, object]) -> "GradedClass":
        acc = {}
        for m, c in terms.items():
            nf = self._normal_form(tuple(m))
            if nf is not None:
                acc[nf[0]] = acc.get(nf[0], 0) + nf[1] * _exact(c)
        return GradedClass(self, {m: _exact(c) for m, c in acc.items() if c})

    def scalar(self, value) -> "GradedClass":
        v = _exact(value)
        return GradedClass(self, {(0,) * len(self.generators): v} if v else {})

    def integrate_top(self, cls: "GradedClass") -> Fraction:
        if cls.ring is not self:
            raise RingMismatch("class belongs to a different ring")
        return Fraction(sum(c * self.pairing.get(m, 0)
                            for m, c in cls.terms.items()))

    def monomial_str(self, m: Monomial) -> str:
        parts = []
        for e, g in zip(m, self.generators):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append("%s^%d" % (g.name, e))
        return "*".join(parts) if parts else "1"


class GradedClass:
    """Sparse normal-form element of a :class:`Ring`.

    Instances are immutable; arithmetic returns new objects.  Zero
    coefficients are never stored.  A coefficient is an ``int`` when it is
    integral and a ``Fraction`` otherwise; the queries below return
    ``Fraction``s.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms):
        self.ring = ring
        self.terms = dict(terms)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        return sorted({self.ring.monomial_degree(m) for m in self.terms})

    def component(self, degree: int) -> "GradedClass":
        sel = {m: c for m, c in self.terms.items()
               if self.ring.monomial_degree(m) == degree}
        return GradedClass(self.ring, sel)

    def is_homogeneous(self, degree=None) -> bool:
        degs = self.degrees()
        if degree is None:
            return len(degs) <= 1
        return degs == [] or degs == [degree]

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self.terms.get(tuple(mono), 0))

    def scalar_part(self) -> Fraction:
        return self.coefficient((0,) * len(self.ring.generators))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "GradedClass"):
        if self.ring is not other.ring:
            raise RingMismatch("operands live in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            c = _exact(acc.get(m, 0) + c)
            if c:
                acc[m] = c
            else:
                del acc[m]
        return GradedClass(self.ring, acc)

    __radd__ = __add__

    def __neg__(self):
        return GradedClass(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            if not c:
                return self.ring.zero()
            return GradedClass(self.ring, {m: _exact(v * c)
                                           for m, v in self.terms.items()})
        self._check(other)
        ring = self.ring
        d1, left = _numerators(self.terms)
        d2, right = _numerators(other.terms)
        forms = ring._forms
        signed = bool(ring._odd)
        acc = {}
        for m1, n1 in left:
            for m2, n2 in right:
                merged = tuple(map(add, m1, m2))
                nf = forms.get(merged, False)
                if nf is False:
                    nf = forms[merged] = ring._normal_form(merged)
                if nf is None:
                    continue
                n = n1 * n2 * nf[1]
                if signed:
                    n *= ring._koszul_sign(m1, m2)
                acc[nf[0]] = acc.get(nf[0], 0) + n
        d = d1 * d2
        return GradedClass(ring, {m: _exact(n if d == 1 else Fraction(n, d))
                                  for m, n in acc.items() if n})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.scalar(other)
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), tuple(sorted(self.terms.items()))))

    def __repr__(self):
        ring = self.ring
        order = sorted(self.terms, key=lambda m: (ring.monomial_degree(m), m))
        return _format_terms((self.terms[m], ring.monomial_str(m))
                             for m in order)


def _numerators(terms):
    """(d, [(monomial, c * d)]) with d the lcm of the coefficients'
    denominators, so every c * d is an int."""
    d = math.lcm(*(c.denominator for c in terms.values()))
    if d == 1:
        return 1, list(terms.items())
    return d, [(m, c.numerator * (d // c.denominator)) for m, c in terms.items()]


def _exact(c):
    """``c`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def make_ring(presentation: RingPresentation) -> Ring:
    """Validate a presentation and return a ring handle."""
    return Ring(presentation)


def exp_class(x: GradedClass) -> GradedClass:
    """Truncated exponential of a homogeneous degree-2 class."""
    if not x.is_homogeneous(2):
        raise NotDegreeTwo("exp is only defined on homogeneous degree-2 classes")
    return exp_nilpotent(x)


def exp_nilpotent(x: GradedClass) -> GradedClass:
    """Truncated exponential of any class with vanishing degree-0 part.

    The sum is finite because positive-degree classes are nilpotent in a
    truncated ring.
    """
    if 0 in x.degrees():
        raise NotDegreeTwo("exp argument must have no degree-0 part")
    return _nilpotent_series(x, lambda k: Fraction(1, math.factorial(k)))


def _nilpotent_series(x: GradedClass, coeff) -> GradedClass:
    """1 + sum over k >= 1 of coeff(k) x^k, for a class x with no degree-0
    part: the sum stops at the first x^k = 0, which a truncated ring reaches
    by k = truncation + 1."""
    out = term = x.ring.one()
    for k in range(1, x.ring.truncation + 2):
        term = term * x
        if term.is_zero():
            break
        out = out + term * coeff(k)
    return out


def tensor_ring(left: Ring, right: Ring):
    """Tensor product ring with Kuenneth pairing.

    Returns ``(ring, left_map, right_map)``, where the maps send classes of
    the factors to the product ring, and the generators are named by
    :func:`_tensor_names`.
    """
    lmap_names, rmap_names = _tensor_names(
        [g.name for g in left.generators], [g.name for g in right.generators])
    gens = [Generator(nm, g.degree, g.odd) for nm, g in zip(
        lmap_names + rmap_names, left.generators + right.generators)]

    nl, nr = len(left.generators), len(right.generators)

    def embed_left(m):
        return tuple(m) + tuple(0 for _ in range(nr))

    def embed_right(m):
        return tuple(0 for _ in range(nl)) + tuple(m)

    power_rules = {}
    for i, (cap, rhs) in left._power_rules.items():
        power_rules[lmap_names[i]] = (cap, {embed_left(m): c for m, c in rhs.items()})
    for i, (cap, rhs) in right._power_rules.items():
        power_rules[rmap_names[i]] = (cap, {embed_right(m): c for m, c in rhs.items()})

    pair_rules = []
    for pair in left._pair_rules:
        a, b = sorted(pair)
        pair_rules.append((lmap_names[a], lmap_names[b]))
    for pair in right._pair_rules:
        a, b = sorted(pair)
        pair_rules.append((rmap_names[a], rmap_names[b]))

    pairing = {}
    for ml, vl in left.pairing.items():
        for mr, vr in right.pairing.items():
            pairing[tuple(ml) + tuple(mr)] = vl * vr

    ring = make_ring(RingPresentation(
        generators=gens,
        truncation=left.truncation + right.truncation,
        power_rules=power_rules,
        pair_rules=pair_rules,
        pairing=pairing,
    ))

    def left_map(cls: GradedClass) -> GradedClass:
        if cls.ring is not left:
            raise RingMismatch("class does not belong to the left factor")
        return GradedClass(ring, {embed_left(m): c for m, c in cls.terms.items()})

    def right_map(cls: GradedClass) -> GradedClass:
        if cls.ring is not right:
            raise RingMismatch("class does not belong to the right factor")
        return GradedClass(ring, {embed_right(m): c for m, c in cls.terms.items()})

    return ring, left_map, right_map


def truncated_polynomial_ring(name: str, degree_of_gen: int, max_power: int,
                              pairing_value=1) -> Ring:
    """Convenience: Q[g]/(g^(max_power+1)) with <g^max_power> = pairing_value."""
    gen = Generator(name, degree_of_gen, degree_of_gen % 2 == 1)
    top = (max_power,)
    rules = {name: (max_power + 1, {})}
    return make_ring(RingPresentation(
        generators=[gen],
        truncation=degree_of_gen * max_power,
        power_rules=rules,
        pairing={top: Fraction(pairing_value)},
    ))
