"""The exact univariate polynomial kernel.

Polynomials are dense coefficient lists, constant term first.  ``trim``
gives Fraction coefficients; ``evaluate``, ``derivative`` and ``multiply``
work in the arithmetic of their inputs, so integer data stays in the
integers.

The roots of a polynomial in (0, 1) are found in integers.  Its primitive
squarefree part is taken by a primitive remainder sequence.  Its roots are
isolated by Descartes bisection on integer Taylor shifts (Collins and
Akritas, SYMSAC 1976): on each dyadic interval the sign variations of the
shifted coefficients bound the number of roots and match it in parity,
which is checked against the signs at the endpoints.  Each isolating
interval is refined below width 1/L^2, L the leading coefficient, so it
holds at most one fraction whose denominator divides L: the simplest
fraction in it, which is a root exactly when v^d p(u/v) = 0.
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
    return [k * c for k, c in enumerate(p)][1:]


def multiply(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


# ---------------------------------------------------------------------------
# integer polynomials: primitive squarefree parts
# ---------------------------------------------------------------------------


def _strip(p):
    """p without its trailing zero coefficients."""
    end = len(p)
    while end and p[end - 1] == 0:
        end -= 1
    return p[:end]


def _primitive(p):
    """The nonzero integer polynomial p over its content, with a positive
    leading coefficient."""
    content = gcd(*p)
    if p[-1] < 0:
        content = -content
    return [c // content for c in p]


def _pseudo_remainder(p, q):
    """The remainder of lc(q)^k p by q, k = deg p - deg q + 1, in
    integers."""
    lead = q[-1]
    while len(p) >= len(q):
        a, shift = p[-1], len(p) - len(q)
        p = [lead * c for c in p]
        for i, b in enumerate(q):
            p[i + shift] -= a * b
        p = _strip(p)
    return p


def _exact_quotient(p, q):
    """p / q for integer polynomials where q divides p over the integers."""
    p = list(p)
    quot = [0] * (len(p) - len(q) + 1)
    for shift in reversed(range(len(quot))):
        a, r = divmod(p[shift + len(q) - 1], q[-1])
        if r:
            break
        quot[shift] = a
        for i, b in enumerate(q):
            p[i + shift] -= a * b
    if any(p):
        raise CertificateFailed(
            "squarefree certificate: gcd(p, p') does not divide p")
    return quot


def _squarefree(p):
    """The primitive squarefree part of the primitive polynomial p:
    p / gcd(p, p'), the gcd by the primitive remainder sequence."""
    a, b = p, _strip(derivative(p))
    while b:
        a, b = b, _pseudo_remainder(a, b)
        if b:
            b = _primitive(b)
    if len(a) == 1:
        return p
    return _primitive(_exact_quotient(p, _primitive(a)))


# ---------------------------------------------------------------------------
# Descartes bisection on (0, 1)
# ---------------------------------------------------------------------------


def _taylor_shift(p):
    """The coefficients of p(x + 1)."""
    p = list(p)
    for i in range(len(p) - 1):
        for j in range(len(p) - 2, i - 1, -1):
            p[j] += p[j + 1]
    return p


def _variations(p):
    """The sign variations of p's coefficients, zeros skipped."""
    count, last = 0, 0
    for c in p:
        if c:
            if last and (c > 0) != (last > 0):
                count += 1
            last = c
    return count


def _deflate_at_one(p):
    """p / (x - 1) for p(1) = 0, by synthetic division."""
    out, acc = [], 0
    for c in reversed(p[1:]):
        acc += c
        out.append(acc)
    return out[::-1]


def _isolate(p):
    """The roots of the squarefree integer polynomial p in (0, 1), p(0) and
    p(1) nonzero: ``(exact, intervals)``, the dyadic roots met as split
    points and, for each other root, the (c, k, q) whose open interval
    (c/2^k, (c+1)/2^k) holds it alone.

    Each interval carries q(x) = 2^(k deg q) p((x + c)/2^k), with the split
    points that are roots divided out, so q vanishes at neither end.  The
    sign variations of (1 + x)^deg q q(1/(1 + x)) bound its roots in (0, 1)
    and have their parity, which the signs of q(0) and q(1) give.  An
    interval is returned with its q."""
    exact, intervals = [], []
    todo = [(0, 0, p)]
    while todo:
        c, k, q = todo.pop()
        count = _variations(_taylor_shift(q[::-1]))
        if count % 2 != ((q[0] > 0) != (sum(q) > 0)):
            raise CertificateFailed(
                "root isolation certificate: %d sign variations on (%s, %s), "
                "of the wrong parity for the signs at its ends"
                % (count, Fraction(c, 1 << k), Fraction(c + 1, 1 << k)))
        if count == 1:
            intervals.append((c, k, q))
        elif count:
            d = len(q) - 1
            left = [a << (d - i) for i, a in enumerate(q)]  # 2^d q(x/2)
            right = _taylor_shift(left)                     # 2^d q((x+1)/2)
            if right[0] == 0:  # the midpoint is a root
                exact.append(Fraction(2 * c + 1, 2 << k))
                left, right = _deflate_at_one(left), right[1:]
            todo += [(2 * c + 1, k + 1, right), (2 * c, k + 1, left)]
    return exact, intervals


def _homogeneous(p, u, v):
    """v^deg p * p(u/v), in integers."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * u + c * scale
        scale *= v
    return acc


def _simplest(a, b, c, d):
    """(u, v): the fraction u/v of least denominator in the open interval
    (a/b, c/d), 0 <= a/b < c/d, d = 0 standing for infinity; read off the
    continued fractions of the ends."""
    terms = []
    while True:
        q = a // b
        if d == 0 or (q + 1) * d < c:
            break
        terms.append(q)
        a, b, c, d = d, c - q * d, b, a - q * b
    u, v = q + 1, 1
    for q in reversed(terms):
        u, v = q * u + v, u
    return u, v


def _rational_root(p, c, k, q):
    """The root of p in (c/2^k, (c+1)/2^k) when it is rational, else None;
    q is the interval's polynomial (see :func:`_isolate`).

    Bisection by the sign of q narrows the interval below width 1/L^2, L
    the leading coefficient of p; the simplest fraction in it is then the
    only candidate, by the rational-root theorem."""
    bound, left = p[-1] ** 2, q[0] > 0
    m, j = 0, 0  # the part (m/2^j, (m+1)/2^j) of q's unit interval
    while 1 << (k + j) <= bound:
        m, j = 2 * m + 1, j + 1
        value = _homogeneous(q, m, 1 << j)
        if value == 0:
            return Fraction((c << j) + m, 1 << (k + j))
        if (value > 0) != left:
            m -= 1
    lo, den = (c << j) + m, 1 << (k + j)
    u, v = _simplest(lo, den, lo + 1, den)
    return Fraction(u, v) if _homogeneous(p, u, v) == 0 else None


def roots_in_unit_interval(p):
    """All roots of p in the open interval (0, 1), certified rational.

    Returns the sorted rational roots; raises ValueError if p has a root
    there that is not rational.
    """
    p = _strip(numerators(p))
    if not p:
        raise ZeroDivisionError("the zero polynomial has every root")
    p = _squarefree(_primitive(p))
    if p[0] == 0:  # a root at 0, simple
        p = p[1:]
    if sum(p) == 0:  # a root at 1, simple
        p = _deflate_at_one(p)
    if len(p) == 1:
        return []
    exact, intervals = _isolate(p)
    found = exact + [root for root in (_rational_root(p, *interval)
                                       for interval in intervals)
                     if root is not None]
    total = len(exact) + len(intervals)
    if len(found) != total:
        raise ValueError(
            "polynomial has %d roots in (0,1) but only %d rational ones"
            % (total, len(found)))
    return sorted(found)
