"""The exact value type every result is printed from, and the bound selectors.

A leaf module: it imports only the standard library, so the CLI can parse
its arguments and print any result without loading an engine.  ``engine``
re-exports the value type and the selectors; ``Record`` serves data classes.
``_digit_limit`` is the interpreter's int/text digit limit, which both the
descriptor tokenizer and the CLI's printing check.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction


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
        """q * pi^k to ``places`` decimals, rounded half-even from the exact
        value: q is the exact Fraction and pi has guard digits beyond what
        the integer part and the places need."""
        value = self.q
        if self.k and value:
            size = len(str(abs(value.numerator) // value.denominator))
            pi = Fraction(_pi_decimal(places + size + abs(self.k) + 10))
            value *= pi ** self.k
        scaled = round(value * 10 ** places)  # Fraction rounds half-even
        text = str(abs(scaled)).rjust(places + 1, "0")
        if places:
            text = text[:-places] + "." + text[-places:]
        return "-" + text if value < 0 else text

    def __str__(self):
        if self.k == 0 or self.q == 0:
            return str(self.q)
        pi = "pi" if self.k == 1 else "pi^%d" % self.k
        if self.q == 1:
            return pi
        return "%s * %s" % (self.q, pi)

    __repr__ = __str__


def _pi_decimal(digits: int):
    """pi to ``digits`` significant digits, by the recipe in the ``decimal``
    module's documentation; ``decimal`` is imported only here."""
    import decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 2  # extra digits for intermediate steps
        lasts, t, s, n, na, d, da = 0, decimal.Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        ctx.prec = digits
        return +s


ONE = PiScaled(Fraction(1), 0)
PI = PiScaled(Fraction(1), 1)

#: the most digits the interpreter converts between an int and text; 0: none
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

#: selector tokens accepted by systolic_bound (and the CLI)
SELECTORS = ("thm1.1", "thm1.2", "thm1.3", "prop5.1", "thm4.5", "thm5.6")
