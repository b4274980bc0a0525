"""Multiplicative characteristic-class calculus over a graded ring.

The A-hat class is evaluated through the logarithm of its generating
function: ``log((x/2)/sinh(x/2))`` has the closed-form Taylor coefficients
-B_2k / (2k (2k)!) (Bernoulli numbers), which are applied to the power sums
of the Chern roots, read off log c(E) (Newton's identities).  This avoids
symbolic root splitting and stays in rational arithmetic end to end.  The
Todd class follows from A-hat without a second series: per Chern root,
x/(1-exp(-x)) = exp(x/2) * (x/2)/sinh(x/2), so Todd = exp(c1/2) * A-hat
(Hirzebruch, multiplicative sequences).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionInconsistent, RingMismatch
from .graded import GradedClass, _nilpotent_series, exp_class, exp_nilpotent
from .values import Record

# ---------------------------------------------------------------------------
# the A-hat log series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ahat_log_coeffs(prec: int):
    """Coefficients of log((x/2)/sinh(x/2)) up to degree prec.

    The coefficient of x^(2k) is -B_2k / (2k (2k)!) for k >= 1, and the odd
    ones vanish; the Bernoulli numbers come from the exact recurrence
    sum_{j <= m} C(m+1, j) B_j = 0 for m >= 1, with B_0 = 1.
    """
    bern = [Fraction(1)]
    for m in range(1, prec + 1):
        bern.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(bern))
                    / (m + 1))
    return tuple(-bern[n] / (n * math.factorial(n)) if n and n % 2 == 0
                 else Fraction(0) for n in range(prec + 1))


# ---------------------------------------------------------------------------
# Chern data and power sums
# ---------------------------------------------------------------------------


class ChernData(Record):
    """Total Chern class of a complex bundle, with its rank."""

    def __init__(self, rank: int, total: GradedClass):
        if total.scalar_part() != 1:
            raise DivisionInconsistent("total Chern class must start with 1")
        for d in total.degrees():
            if d % 2:
                raise DivisionInconsistent("Chern classes live in even degrees")
        self.__dict__.update(rank=rank, total=total)

    def chern(self, k: int) -> GradedClass:
        return self.total.component(2 * k)

    @property
    def ring(self):
        return self.total.ring


class PowerSums(Record):
    """Power sums p_1..p_m of the Chern roots; p_k has degree 2k."""

    def __init__(self, sums: tuple):
        self.__dict__.update(sums=sums)

    def __getitem__(self, k: int) -> GradedClass:
        return self.sums[k - 1]

    def __len__(self):
        return len(self.sums)


def newton_power_sums(c: ChernData, upto: int | None = None) -> PowerSums:
    """Power sums from Chern classes via Newton's identities in
    generating-function form (Macdonald, Symmetric Functions, I.2):
    log c = sum over k of (-1)^(k-1) p_k / k, so p_k = (-1)^(k-1) k [log c]_2k.
    """
    m = upto if upto is not None else c.ring.truncation // 2
    log_c = _nilpotent_series(c.total - 1, lambda k: Fraction((-1) ** (k + 1), k))
    return PowerSums(tuple((-1) ** (k - 1) * k * log_c.component(2 * k)
                           for k in range(1, m + 1)))


def chern_from_power_sums(ring, rank: int, ps: PowerSums,
                          upto=None) -> ChernData:
    """Inverse of :func:`newton_power_sums` (used as a round-trip oracle)."""
    m = upto if upto is not None else ring.truncation // 2
    cs = []
    for k in range(1, m + 1):
        acc = ring.zero()
        for j in range(1, k):
            acc = acc + (-1) ** (j - 1) * cs[k - j - 1] * ps[j]
        acc = acc + (-1) ** (k - 1) * ps[k]
        cs.append(acc * Fraction(1, k))
    total = ring.one()
    for ck in cs:
        total = total + ck
    return ChernData(rank=rank, total=total)


def _evaluate_log_series(coeffs, ps: PowerSums, ring) -> GradedClass:
    z = ring.zero()
    for m in range(1, len(coeffs)):
        if m > len(ps):
            break
        if coeffs[m]:
            z = z + coeffs[m] * ps[m]
    return exp_nilpotent(z)


def a_hat(c: ChernData) -> GradedClass:
    """Truncated A-hat class of the (realified) bundle.

    For a line bundle with first Chern class x this is the Taylor truncation
    of (x/2)/sinh(x/2); only even power sums contribute.
    """
    ring = c.ring
    ps = newton_power_sums(c)
    return _evaluate_log_series(_ahat_log_coeffs(ring.truncation // 2), ps, ring)


def todd(c: ChernData) -> GradedClass:
    """Truncated Todd class of a complex bundle."""
    return todd_from_a_hat(c.chern(1), a_hat(c))


def todd_from_a_hat(c1: GradedClass, a_hat_cls: GradedClass) -> GradedClass:
    """Todd = exp(c1/2) * A-hat, from the first Chern class and A-hat."""
    return exp_class(c1 * Fraction(1, 2)) * a_hat_cls


def chern_character(c: ChernData) -> GradedClass:
    """rk + p_1 + p_2/2! + ... with p_k the Newton power sums."""
    ring = c.ring
    ps = newton_power_sums(c)
    out = ring.scalar(c.rank)
    for k in range(1, len(ps) + 1):
        out = out + ps[k] * Fraction(1, math.factorial(k))
    return out


def total_inverse(total: GradedClass) -> GradedClass:
    """Inverse of a total class 1 + (positive-degree part), truncated: the
    geometric series in 1 - total."""
    if total.scalar_part() != 1:
        raise DivisionInconsistent("can only invert total classes starting with 1")
    return _nilpotent_series(1 - total, lambda k: 1)


def whitney_quotient(ambient: ChernData, normal: ChernData) -> ChernData:
    """Chern data of the quotient bundle: c(ambient)/c(normal)."""
    if ambient.ring is not normal.ring:
        raise RingMismatch("ambient and normal bundles live in different rings")
    if normal.rank > ambient.rank:
        raise DivisionInconsistent("normal rank exceeds ambient rank")
    total = ambient.total * total_inverse(normal.total)
    return ChernData(rank=ambient.rank - normal.rank, total=total)
