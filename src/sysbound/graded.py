"""Truncated graded-commutative rings with exact rational coefficients.

A ring is presented by generators with degrees and parities, bounded-exponent
rewrite rules, and a pairing functional on top-degree monomials.  This covers
every presentation used by the manifold catalog (projective spaces, quadric
H-subrings, tensor products, projective bundles over curves, point blowups)
without general Groebner machinery: every rule strictly lowers the
lexicographic monomial order, so normalization terminates.

Monomials are exponent tuples aligned with the generator list.  Coefficients
are stored as ``fractions.Fraction``; a product runs on the integer
numerators of its operands over one common denominator each and divides
once per output term.  No floating point enters any ring operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (InvalidPresentation, NonTerminatingRewrite, NotDegreeTwo,
                     RingMismatch)

Monomial = tuple  # tuple[int, ...], exponents per generator

#: iteration cap for the rewrite loop, per term
_REWRITE_BOUND = 10_000


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    odd: bool

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidPresentation("generator %r must have positive degree" % self.name)
        if self.odd != (self.degree % 2 == 1):
            raise InvalidPresentation(
                "generator %r: parity flag must match degree parity in a "
                "graded-commutative ring over Q" % self.name)


@dataclass
class RingPresentation:
    """Input data for :func:`make_ring`.

    ``power_rules`` maps a generator name to ``(cap, rhs)`` meaning
    ``g**cap -> rhs`` where ``rhs`` is a mapping from monomials (exponent
    tuples) to rational coefficients; an empty mapping means the power is
    zero.  ``pair_rules`` is an iterable of generator-name pairs whose
    product is zero.  ``pairing`` assigns rational values to top-degree
    normal-form monomials.
    """

    generators: Sequence[Generator]
    truncation: int
    power_rules: Mapping[str, tuple] = field(default_factory=dict)
    pair_rules: Iterable[tuple] = field(default_factory=tuple)
    pairing: Mapping[Monomial, Fraction] = field(default_factory=dict)


class Ring:
    """Handle produced by :func:`make_ring`; immutable after construction."""

    def __init__(self, presentation: RingPresentation):
        self.generators = tuple(presentation.generators)
        self._degrees = tuple(g.degree for g in self.generators)
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
            rhs_terms = {tuple(m): Fraction(c) for m, c in dict(rhs).items() if c}
            lhs_mono = tuple(cap if j == i else 0 for j in range(len(self.generators)))
            lhs_deg = cap * gen.degree
            for m, _ in rhs_terms.items():
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

        self.pairing = {}
        for m, v in dict(presentation.pairing).items():
            m = tuple(m)
            v = Fraction(v)
            if len(m) != len(self.generators):
                raise InvalidPresentation("pairing monomial has wrong arity")
            if self.monomial_degree(m) != self.truncation:
                raise InvalidPresentation(
                    "pairing monomial %r is not of top degree %d" % (m, self.truncation))
            nf = self._normalize_monomial(m)
            if dict(nf) != {m: Fraction(1)}:
                raise InvalidPresentation("pairing monomial %r is not in normal form" % (m,))
            if v:
                self.pairing[m] = v
        if not self.pairing:
            raise InvalidPresentation("pairing functional vanishes on all top monomials")

        #: m1 -> {m2: normal form of m1*m2 with coefficient 1}, filled by
        #: products; a normal form is linear in its coefficient, so a
        #: product scales the entry.  An entry is stored only once its
        #: rewrite has finished, so a presentation that exceeds the rewrite
        #: bound raises on every product that needs it.
        self._products = {}

        # smoke-test termination on the generator caps
        for i, (cap, _) in self._power_rules.items():
            mono = tuple(cap if j == i else 0 for j in range(len(self.generators)))
            self._normalize_monomial(mono)

    # -- monomial helpers -------------------------------------------------

    def monomial_degree(self, m: Monomial) -> int:
        return sum(e * d for e, d in zip(m, self._degrees))

    def _koszul_sign(self, a: Monomial, b: Monomial):
        """Sign of the product of normal-form monomials a*b, or None if zero."""
        odd_a = [i for i, g in enumerate(self.generators) if g.odd and a[i]]
        odd_b = [i for i, g in enumerate(self.generators) if g.odd and b[i]]
        if set(odd_a) & set(odd_b):
            return None
        swaps = sum(1 for i in odd_a for j in odd_b if j < i)
        return -1 if swaps % 2 else 1

    def _monomial_product(self, a: Monomial, b: Monomial):
        """Normal form of a*b with coefficient 1, Koszul sign included, as
        (monomial, coefficient) pairs; integral coefficients are ints."""
        merged = tuple(x + y for x, y in zip(a, b))
        sign = self._koszul_sign(a, b)
        if sign is None or self.monomial_degree(merged) > self.truncation:
            return ()
        return tuple((m, c.numerator if c.denominator == 1 else c)
                     for m, c in self._normalize_monomial(merged, sign).items())

    def _normalize_monomial(self, m: Monomial, coeff=Fraction(1)):
        """Rewrite coeff*m into normal form; returns {monomial: coeff}."""
        out = {}
        stack = [(tuple(m), coeff)]
        steps = 0
        while stack:
            mono, c = stack.pop()
            steps += 1
            if steps > _REWRITE_BOUND:
                raise NonTerminatingRewrite(
                    "rewrite exceeded %d steps; presentation is not terminating"
                    % _REWRITE_BOUND)
            if not c:
                continue
            if self.monomial_degree(mono) > self.truncation:
                continue
            if any(mono[i] >= 2 for i, g in enumerate(self.generators) if g.odd):
                continue
            if any(all(mono[i] for i in pair) for pair in self._pair_rules):
                continue
            hit = None
            for i, (cap, rhs) in self._power_rules.items():
                if mono[i] >= cap:
                    hit = (i, cap, rhs)
                    break
            if hit is None:
                out[mono] = out.get(mono, 0) + c
                if not out[mono]:
                    del out[mono]
                continue
            i, cap, rhs = hit
            rest = list(mono)
            rest[i] -= cap
            for rm, rc in rhs.items():
                merged = tuple(x + y for x, y in zip(rest, rm))
                stack.append((merged, c * rc))
        return out

    # -- class constructors ------------------------------------------------

    def zero(self) -> "GradedClass":
        return GradedClass(self, {})

    def one(self) -> "GradedClass":
        unit = tuple(0 for _ in self.generators)
        return GradedClass(self, {unit: Fraction(1)})

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
            for nm, nc in self._normalize_monomial(tuple(m), Fraction(c)).items():
                acc[nm] = acc.get(nm, Fraction(0)) + nc
                if not acc[nm]:
                    del acc[nm]
        return GradedClass(self, acc)

    def scalar(self, value) -> "GradedClass":
        unit = tuple(0 for _ in self.generators)
        v = Fraction(value)
        return GradedClass(self, {unit: v} if v else {})

    def integrate_top(self, cls: "GradedClass") -> Fraction:
        if cls.ring is not self:
            raise RingMismatch("class belongs to a different ring")
        total = Fraction(0)
        for m, c in cls.terms.items():
            if self.monomial_degree(m) == self.truncation:
                total += c * self.pairing.get(m, Fraction(0))
        return total

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
    coefficients are never stored.
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
        return self.terms.get(tuple(mono), Fraction(0))

    def scalar_part(self) -> Fraction:
        unit = tuple(0 for _ in self.ring.generators)
        return self.terms.get(unit, Fraction(0))

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
            acc[m] = acc.get(m, Fraction(0)) + c
            if not acc[m]:
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
            c = Fraction(other)
            if not c:
                return self.ring.zero()
            return GradedClass(self.ring, {m: v * c for m, v in self.terms.items()})
        self._check(other)
        ring = self.ring
        d1, left = _numerators(self.terms)
        d2, right = _numerators(other.terms)
        acc = {}
        for m1, n1 in left:
            row = ring._products.get(m1)
            if row is None:
                row = ring._products[m1] = {}
            for m2, n2 in right:
                nf = row.get(m2)
                if nf is None:
                    nf = row[m2] = ring._monomial_product(m1, m2)
                if not nf:
                    continue
                n = n1 * n2
                for nm, nc in nf:
                    acc[nm] = acc.get(nm, 0) + nc * n
        d = d1 * d2
        return GradedClass(ring, {m: Fraction(n, d) for m, n in acc.items() if n})

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
    return d, [(m, c.numerator * (d // c.denominator)) for m, c in terms.items()]


def _format_terms(terms):
    """``c*m + ...`` from (coefficient, monomial text) pairs with nonzero
    coefficients, the monomial "1" standing for the unit: a unit coefficient
    is left out, and "+ -" reads "- ".  No terms print as "0"."""
    bits = [str(c) if m == "1" else m if c == 1 else "-" + m if c == -1
            else "%s*%s" % (c, m) for c, m in terms]
    return " + ".join(bits).replace("+ -", "- ") if bits else "0"


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

    Returns ``(ring, left_map, right_map, left_names, right_names)`` where
    the maps send classes of the factors to the product ring and the name
    dicts record how generators were renamed.  Colliding generator names are
    suffixed with positional indices (H, H -> H1, H2).
    """
    lnames = [g.name for g in left.generators]
    rnames = [g.name for g in right.generators]
    collide = set(lnames) & set(rnames)
    used = set()
    counter = {}

    def fresh(name):
        if name not in collide and name not in used:
            used.add(name)
            return name
        k = counter.get(name, 0) + 1
        while "%s%d" % (name, k) in used:
            k += 1
        counter[name] = k
        new = "%s%d" % (name, k)
        used.add(new)
        return new

    gens = []
    lmap_names = []
    for g in left.generators:
        nm = fresh(g.name)
        lmap_names.append(nm)
        gens.append(Generator(nm, g.degree, g.odd))
    rmap_names = []
    for g in right.generators:
        nm = fresh(g.name)
        rmap_names.append(nm)
        gens.append(Generator(nm, g.degree, g.odd))

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

    left_names = {g.name: lmap_names[i] for i, g in enumerate(left.generators)}
    right_names = {g.name: rmap_names[i] for i, g in enumerate(right.generators)}
    return ring, left_map, right_map, left_names, right_names


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
