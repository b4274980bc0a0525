"""The exact value type every result is printed from, its one decimal
writer, and the bound selectors.

A leaf module: it imports only the standard library and ``errors``, so the
CLI can parse its arguments and print any result without loading an engine.
``engine`` re-exports the value type and the selectors; ``Record`` serves
data classes.  ``_digit_limit`` is the interpreter's int/text digit limit,
which both the descriptor tokenizer and the CLI's printing check.  The two
string helpers of the graded rings live here too, so that the catalog and
the intersection forms name and print classes without loading ``graded``:
``_format_terms`` writes a linear combination and ``_tensor_names`` names
the generators of a tensor product.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import CertificateFailed


class Record:
    """Value semantics from ``_fields``, the class's ``__init__`` parameters
    but ``_private`` ones: ``==`` and the hash compare the fields, within one
    class; the repr is ``Name(field=value, ...)``; assignment raises
    ``AttributeError``, so ``__init__`` fills ``self.__dict__``, unless the
    class is declared ``class C(Record, frozen=False)``, which is unhashable."""

    __slots__ = ()

    def __init_subclass__(cls, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = tuple(name for name in
                            code.co_varnames[1:code.co_argcount]
                            if not name.startswith("_"))
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def replace(self, **changes):
        """A copy with ``changes``, made by ``__init__`` from the fields, so
        the class's checks run on it again."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)


class PiScaled(Record):
    """An exact value q * pi^k with q rational.

    The exponent may go negative in intermediate arithmetic; every bound and
    volume produced by ``engine`` ends up with k >= 0.
    """

    def __init__(self, q: Fraction, k: int = 0):
        self.__dict__.update(q=q, k=k)

    @staticmethod
    def of(q, k=0) -> "PiScaled":
        return PiScaled(Fraction(q), int(k))

    def __mul__(self, other):
        if isinstance(other, PiScaled):
            return PiScaled(self.q * other.q, self.k + other.k)
        return PiScaled(self.q * Fraction(other), self.k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiScaled):
            return PiScaled(self.q / other.q, self.k - other.k)
        return PiScaled(self.q / Fraction(other), self.k)

    def __pow__(self, n: int):
        return PiScaled(self.q ** n, self.k * n)

    def __eq__(self, other):
        if isinstance(other, PiScaled):
            if self.q == 0 and other.q == 0:
                return True
            return self.q == other.q and self.k == other.k
        return self.q == Fraction(other) and (self.k == 0 or self.q == 0)

    def __hash__(self):
        return hash((self.q, self.k if self.q else 0))

    def is_zero(self):
        return self.q == 0

    def approx(self) -> float:
        return float(self.q) * math.pi ** self.k

    def decimal_str(self, places: int) -> str:
        """q * pi^k to ``places`` decimals: :func:`decimal_text`."""
        return decimal_text(self.q, self.k, places)

    def __str__(self):
        if self.k == 0 or self.q == 0:
            return str(self.q)
        pi = "pi" if self.k == 1 else "pi^%d" % self.k
        if self.q == 1:
            return pi
        return "%s * %s" % (self.q, pi)

    __repr__ = __str__


def decimal_text(q, k: int, places: int) -> str:
    """q * pi^k, q rational, to ``places`` decimals rounded half-even: the
    one decimal writer of table, CSV and JSON."""
    n, d = abs(q.numerator) * 10 ** places, q.denominator
    # refused as str() would refuse it, before any work on pi, when a lower
    # bound on the bits of n pi^k / d (1.65 < log2 pi < 1.66) passes the
    # limit's (log2 10 < 3.33)
    if 0 < 3.33 * _digit_limit() < (n.bit_length() - d.bit_length() - 1
                                    + (1.65 if k > 0 else 1.66) * k):
        raise ValueError("more than %d digits" % _digit_limit())
    digits = _rounded_pi_power(n, d, k) if k and n else round(Fraction(n, d))
    text = str(digits).rjust(places + 1, "0")
    if places:
        text = text[:-places] + "." + text[-places:]
    return "-" + text if q < 0 else text


def _rounded_pi_power(n: int, d: int, k: int) -> int:
    """n pi^k / d rounded to an integer, for n and k nonzero.  The value is
    irrational (Lindemann), so it is no tie: both ends of an enclosure from
    :func:`_pi_bounds` are rounded half up, and the precision doubles until
    they agree (Ziv, ACM TOMS 17, 1991), at most 8 times."""
    # the bits of n pi^k / d, over-estimated, and guard bits
    bits = max(n.bit_length() - d.bit_length() + 2 * abs(k), 0) + 40
    for _ in range(8):
        lo = hi = 1 << bits  # lo <= pi^i 2^bits <= hi, i the bits of |k| read
        pi_lo, pi_hi = _pi_bounds(bits)
        for bit in bin(abs(k))[2:]:
            lo, hi = lo * lo >> bits, -(-hi * hi >> bits)
            if bit == "1":
                lo, hi = lo * pi_lo >> bits, -(-hi * pi_hi >> bits)
        ends = ((n * lo, d << bits), (n * hi, d << bits)) if k > 0 else \
            ((n << bits, d * hi), (n << bits, d * lo))
        low, high = [(2 * a + b) // (2 * b) for a, b in ends]
        if low == high:
            return low
        bits *= 2
    raise CertificateFailed("decimal certificate: 8 refinements of the pi "
                            "enclosure did not round q * pi^%d" % k)


def _pi_bounds(bits: int):
    """Integers lo <= pi 2^bits <= hi by Machin's formula, pi = 16 atan(1/5)
    - 4 atan(1/239), summed in integers at w = bits + guard bits.  Term j of
    atan(1/x) 2^w, floor(floor(2^w / x^(2j+1)) / (2j+1)), is under the exact
    term by less than a unit, and so is the alternating tail from the first
    zero term on: J terms sum to within J + 1 units of atan(1/x) 2^w."""
    guard = bits.bit_length() + 8
    total = error = 0
    for weight, x in ((16, 5), (-4, 239)):
        power, j = (1 << (bits + guard)) // x, 0
        while power:
            total += weight * (power // (2 * j + 1))
            power //= x * x
            weight, j = -weight, j + 1
        error += abs(weight) * (j + 1)
    return (total - error) >> guard, -(-(total + error) >> guard)


def _format_terms(terms):
    """``c*m + ...`` from (coefficient, monomial text) pairs with nonzero
    coefficients, the monomial "1" standing for the unit: a unit coefficient
    is left out, and "+ -" reads "- ".  No terms print as "0"."""
    bits = [str(c) if m == "1" else m if c == 1 else "-" + m if c == -1
            else "%s*%s" % (c, m) for c, m in terms]
    return " + ".join(bits).replace("+ -", "- ") if bits else "0"


def _tensor_names(lnames, rnames):
    """The generator names of a tensor product, as lists for the left and
    the right factor: colliding names are suffixed with positional indices
    (H, H -> H1, H2)."""
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

    return [fresh(name) for name in lnames], [fresh(name) for name in rnames]


ONE = PiScaled(Fraction(1), 0)
PI = PiScaled(Fraction(1), 1)

#: the most digits the interpreter converts between an int and text; 0: none
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

#: selector tokens accepted by systolic_bound (and the CLI)
SELECTORS = ("thm1.1", "thm1.2", "thm1.3", "prop5.1", "thm4.5", "thm5.6")
