"""The Fraction route to the roots of a polynomial in (0, 1), for the tests
that check ``sysbound.roots`` against it: a Sturm sequence counts the
distinct real roots on an interval, and the rational-root theorem, tried
by trial division, lists the rational ones.  Polynomials are coefficient
lists, constant term first."""

from fractions import Fraction
from math import gcd

from sysbound.roots import evaluate, numerators, trim


def derivative(p):
    return [Fraction(k) * c for k, c in enumerate(p)][1:]


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
    assert not rem
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
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


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
    """The rational roots of p in (0, 1), sorted, and the number of its
    distinct real roots there, by Sturm counting."""
    p = trim(p)
    total = count_real_roots(p, 0, 1) - (evaluate(p, Fraction(1)) == 0)
    return [r for r in rational_roots(p) if 0 < r < 1], total
