"""The exact univariate polynomial kernel over Q.

Polynomials are dense coefficient lists (constant term first) of Fractions.
Trimming, Horner evaluation, multiplication, division with remainder and
gcds live here and nowhere else in the package.
Sturm sequences certify root counts on intervals with rational endpoints;
rational roots are found by the rational-root theorem on the primitive
integer form and verified by evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import CertificateFailed


def trim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def evaluate(p, x):
    """p(x) by Horner's rule, in the arithmetic of p and x: on integers it
    stays in the integers."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def numerators(p):
    """p times the lcm of its coefficients' denominators: integer
    coefficients and the same roots."""
    d = lcm(*(c.denominator for c in p))
    return [int(c * d) for c in p]


def derivative(p):
    return [Fraction(k) * c for k, c in enumerate(p)][1:]


def multiply(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def divide(p, q):
    """Quotient and remainder of p by q (q nonzero)."""
    p = trim(p)
    q = trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(p) >= len(q):
        factor = p[-1] / q[-1]
        shift = len(p) - len(q)
        quot[shift] = factor
        for i, c in enumerate(q):
            p[i + shift] -= factor * c
        p = trim(p)
    return quot, p


def poly_gcd(p, q):
    p, q = trim(p), trim(q)
    while q:
        p, q = q, divide(p, q)[1]
    if p:
        lead = p[-1]
        p = [c / lead for c in p]
    return p


def squarefree_part(p):
    p = trim(p)
    if len(p) <= 1:
        return p
    g = poly_gcd(p, derivative(p))
    if len(g) <= 1:
        return p
    quot, rem = divide(p, g)
    if rem:
        raise CertificateFailed(
            "squarefree certificate: gcd(p, p') does not divide p "
            "(remainder %s)" % rem)
    return quot


def sturm_sequence(p):
    p = trim(p)
    seq = [p, trim(derivative(p))]
    while seq[-1]:
        r = divide(seq[-2], seq[-1])[1]
        seq.append([-c for c in r])
    seq.pop()
    return seq


def _variations(seq, x):
    signs = []
    for p in seq:
        v = evaluate(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    count = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            count += 1
    return count


def count_real_roots(p, lo, hi):
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    p = squarefree_part(p)
    if len(p) <= 1:
        return 0
    seq = sturm_sequence(p)
    return _variations(seq, Fraction(lo)) - _variations(seq, Fraction(hi))


def rational_roots(p):
    """All rational roots of p (each listed once), by the rational-root theorem."""
    p = trim(p)
    if not p:
        raise ZeroDivisionError("the zero polynomial has every root")
    shift = 0
    while p and p[0] == 0:
        p = p[1:]
        shift += 1
    roots = set()
    if shift:
        roots.add(Fraction(0))
    if len(p) <= 1:
        return sorted(roots)
    ip = numerators(p)
    content = 0
    for c in ip:
        content = gcd(content, abs(c))
    ip = [c // content for c in ip]
    lead, const = ip[-1], ip[0]

    def divisors(n):
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return out

    for num in divisors(const):
        for den in divisors(lead):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if evaluate(p, cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def roots_in_unit_interval(p):
    """All roots of p in the open interval (0, 1), certified rational.

    Returns the sorted rational roots; raises ValueError if Sturm counting
    shows additional (irrational) roots in the interval.
    """
    p = trim(p)
    if not p:
        raise ZeroDivisionError("the zero polynomial has every root")
    rr = [r for r in rational_roots(p) if 0 < r < 1]
    total = count_real_roots(p, Fraction(0), Fraction(1))
    if evaluate(p, Fraction(1)) == 0:
        total -= 1  # (0, 1] counts the right endpoint
    if total != len(rr):
        raise ValueError(
            "polynomial has %d roots in (0,1) but only %d rational ones"
            % (total, len(rr)))
    return rr
