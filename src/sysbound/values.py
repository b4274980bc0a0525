"""The exact value type every result is printed from, and the bound selectors.

A leaf module: it imports only the standard library, so the CLI can parse
its arguments and print any result without loading an engine.  ``engine``
re-exports every name defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PiScaled:
    """An exact value q * pi^k with q rational.

    The exponent may go negative in intermediate arithmetic; every bound and
    volume produced by ``engine`` ends up with k >= 0.
    """

    q: Fraction
    k: int = 0

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

#: selector tokens accepted by systolic_bound (and the CLI)
SELECTORS = ("thm1.1", "thm1.2", "thm1.3", "prop5.1", "thm4.5", "thm5.6")
