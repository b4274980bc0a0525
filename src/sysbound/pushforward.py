"""Universal Gysin pushforwards for Grassmannian bundles.

``localization_pushforward(k, r, j)`` evaluates the fixed-point sum

    sum over k-subsets I of (-sum_{i in I} x_i)^(q+j) / prod (x_l - x_i)

with q = k(r-k), as an exact polynomial in the formal roots x_1..x_r.  Its
Schur coefficients are closed: d_lambda = (-1)^j f^mu for each partition
lambda of j with at most k rows, mu = lambda + (r-k)^k, and f^mu the number
of standard tableaux of shape mu (hook length formula, Frame, Robinson and
Thrall 1954).  By the bialternant formula (Macdonald, I.3), (sum x_I)^M is
sum_mu f^mu s_mu(x_I), and the other r-k roots must contribute exactly
delta_(r-k).  Each (k, r, j) is checked once against the fixed-point sum
at x_i = 2^(i-1); a mismatch raises.  The primitive component, the
coefficient of p_j once p_1..p_(j-1) are killed, is a hook sum
(Murnaghan-Nakayama, I.7) and needs at least j variables.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonPolynomialResult, PreconditionUnmet, TooFewVariables

# ``ChernData`` and ``GradedClass`` appear in annotations only: the
# localization sum needs no cohomology ring, so it loads none.

#: global sign relating h-power pushforwards to Segre classes, fixed
#: empirically at (k, r, j) = (1, 2, 1); all cross-checks are modulo it
SEGRE_SIGN = 1

_MAX_R = 6
_MAX_J = 6


@dataclass(frozen=True)
class SymmetricPolynomial:
    """An exact symmetric polynomial in formal roots x1..xn: ``terms`` holds
    (exponents, nonzero integer coefficient) pairs in decreasing lex order."""

    terms: tuple
    nvars: int

    def is_symmetric(self) -> bool:
        """Coefficients are constant on S_r orbits of exponent tuples (the
        adjacent transpositions generate S_r)."""
        coeffs = dict(self.terms)
        for alpha, c in coeffs.items():
            for i in range(self.nvars - 1):
                swapped = alpha[:i] + (alpha[i + 1], alpha[i]) + alpha[i + 2:]
                if coeffs.get(swapped, 0) != c:
                    return False
        return True

    def evaluate(self, values) -> Fraction:
        if len(values) != self.nvars:
            raise PreconditionUnmet("need one value per root")
        values = [Fraction(v) for v in values]
        return sum((c * math.prod(v ** e for v, e in zip(values, alpha))
                    for alpha, c in self.terms), Fraction(0))

    def total_degree(self):
        return max((sum(alpha) for alpha, _ in self.terms), default=0)

    def __str__(self):
        """The terms as sympy prints the expression: ``-x1 - x2``, ``1``."""
        text = ""
        for alpha, c in sorted(self.terms, reverse=True):
            factors = ["x%d%s" % (i + 1, "**%d" % e if e > 1 else "")
                       for i, e in enumerate(alpha) if e]
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            text += " %s %s" % ("-" if c < 0 else "+", "*".join(factors))
        # the leading term prints as "-x1" or "x1", not " - x1" or " + x1"
        return {" + ": "", " - ": "-"}[text[:3]] + text[3:] if text else "0"


def _cells(mu):
    """(hook length, content) of each cell of the Young diagram mu."""
    conjugate = [sum(p > c for p in mu) for c in range(mu[0] if mu else 0)]
    return [(p - c + conjugate[c] - i - 1, c - i)
            for i, p in enumerate(mu) for c in range(p)]


def _standard_tableaux(mu) -> int:
    """f^mu = |mu|! / prod of the hook lengths (Frame-Robinson-Thrall)."""
    return math.factorial(sum(mu)) // math.prod(h for h, _ in _cells(mu))


def _check_at_fixed_point(k: int, r: int, j: int, coeffs):
    """Raise unless V(x) sum d_lambda s_lambda(x) equals V(x) times the
    localization sum at x_i = 2^(i-1), V the Vandermonde.  V is a multiple
    of every fixed point's denominator, so the left side is a sum of
    integers with no Schur function in it.  On the right, s_lambda there is
    2^n(lambda) prod (2^(r+c) - 1) / (2^h - 1) over the contents c and hook
    lengths h of its cells (Macdonald, I.3 Example 1), never zero, so a
    change to any one coefficient breaks the match."""
    xs = [2 ** i for i in range(r)]
    vandermonde = math.prod(b - a for a, b in itertools.combinations(xs, 2))
    left = sum((-sum(xs[i] for i in subset)) ** (k * (r - k) + j) * vandermonde
               // math.prod(xs[l] - xs[i] for i in subset
                            for l in range(r) if l not in subset)
               for subset in itertools.combinations(range(r), k))
    right = 0
    for lam, d in coeffs:
        cells = _cells(lam)
        right += ((d << sum(i * p for i, p in enumerate(lam)))
                  * math.prod(2 ** (r + c) - 1 for _, c in cells)
                  // math.prod(2 ** h - 1 for h, _ in cells))
    if left != vandermonde * right:
        raise NonPolynomialResult(
            "localization sum for (k, r, j) = (%d, %d, %d) does not match "
            "its Schur coefficients at x_i = 2^(i-1); this contradicts the "
            "hook length formula for the pushforward" % (k, r, j))


@functools.lru_cache(maxsize=None)
def _schur_coefficients(k: int, r: int, j: int):
    """The class as ((lambda, d_lambda), ...) in the Schur basis s_lambda:
    d_lambda = (-1)^j f^(lambda + (r-k)^k) for lambda of j in <= k rows."""
    if not 1 <= k < r:
        raise PreconditionUnmet("need 1 <= k < r")
    if j < 0:
        raise PreconditionUnmet("need j >= 0")
    if r > _MAX_R or j > _MAX_J:
        raise PreconditionUnmet(
            "desk-scale caps: r <= %d, j <= %d" % (_MAX_R, _MAX_J))
    # lam runs over the partitions of j padded with zeros to k rows
    coeffs = tuple(sorted(
        (tuple(p for p in lam if p),
         (-1) ** j * _standard_tableaux([p + r - k for p in lam]))
        for lam in itertools.combinations_with_replacement(
            range(j, -1, -1), k) if sum(lam) == j))
    _check_at_fixed_point(k, r, j, coeffs)
    return coeffs


@functools.lru_cache(maxsize=None)
def _schur_monomials(lam, n: int):
    """s_lam(x_1..x_n) as a tuple of (exponents, coefficient) pairs, by the
    branching rule: removing a horizontal strip of size m from lam
    contributes x_n^m.  Cached, so each Schur function is expanded once."""
    if not lam:
        return (((0,) * n, 1),)
    if len(lam) > n:
        return ()
    out = {}
    for mu in itertools.product(*(range(nxt, part + 1) for part, nxt
                                  in zip(lam, lam[1:] + (0,)))):
        mu = tuple(p for p in mu if p)
        for alpha, c in _schur_monomials(mu, n - 1):
            key = alpha + (sum(lam) - sum(mu),)
            out[key] = out.get(key, 0) + c
    return tuple(out.items())


def localization_pushforward(k: int, r: int, j: int) -> SymmetricPolynomial:
    """The universal degree-j pushforward class for G(k, r)-bundles."""
    terms = {}
    for lam, d in _schur_coefficients(k, r, j):
        for alpha, c in _schur_monomials(lam, r):
            terms[alpha] = terms.get(alpha, 0) + d * c
    return SymmetricPolynomial(tuple(sorted(
        ((a, c) for a, c in terms.items() if c), reverse=True)), r)


def primitive_coefficient(k: int, r: int, b: int) -> Fraction:
    """Coefficient of p_b in the pushforward class, with p_1..p_(b-1) -> 0.

    Only p_b survives in degree b, and [p_b] s_lambda is (-1)^i / b for the
    hook lambda = (b-i, 1^i) and zero otherwise (Murnaghan-Nakayama).

    At r = 2k the coefficient is zero exactly for odd b >= 3.  Swapping each
    k-subset with its complement shows P_b = (-1)^b (P_b + p1 * (...)) for
    the degree-b class P_b, so for b >= 2 its p_b coefficient equals (-1)^b
    times itself.  At b = 1 it is -k(k^2 + 1) deg G(k, 2k) / (2k), that is
    -1, -5, -210 for k = 1, 2, 3.  At even b it is nonzero: (-1)^b / b for
    k = 1, where the class is (-1)^b h_b, and for k >= 2 by the
    proportionality to ``bracket_formula``, which is k 2^(1-b) there.
    """
    if not 1 <= b <= r:
        raise TooFewVariables(
            "the primitive component needs 1 <= b <= r (power-sum "
            "independence requires at least b variables)")
    coeffs = dict(_schur_coefficients(k, r, b))
    return Fraction(sum((-1) ** i * coeffs.get((b - i,) + (1,) * i, 0)
                        for i in range(b)), b)


def bracket_formula(k: int, r: int, b: int) -> Fraction:
    """The closed-form factor k((r-k)/r)^b + (r-k)(-k/r)^b.

    The primitive coefficient is proportional to this for b >= 2; the
    proportionality constant is computed, never assumed.
    """
    return (Fraction(k) * Fraction(r - k, r) ** b
            + Fraction(r - k) * Fraction(-k, r) ** b)


def segre_pushforward(chern: ChernData, b: int) -> GradedClass:
    """Degree-2b component of the inverse total Chern series."""
    if 2 * b > chern.ring.truncation:
        raise PreconditionUnmet("degree 2b exceeds the ring truncation")
    from .characteristic import total_inverse
    return total_inverse(chern.total).component(2 * b)


def segre_series_at(roots_values, b: int) -> Fraction:
    """Independent oracle: s_b for numeric Chern roots via series inversion."""
    prec = b + 1
    coeffs = [Fraction(1)] + [Fraction(0)] * b
    for x in roots_values:
        new = [Fraction(0)] * prec
        for i in range(prec):
            new[i] += coeffs[i]
            if i + 1 < prec:
                new[i + 1] += coeffs[i] * Fraction(x)
        coeffs = new
    inv = [Fraction(1)] + [Fraction(0)] * b
    for n in range(1, prec):
        acc = Fraction(0)
        for m in range(1, n + 1):
            acc += coeffs[m] * inv[n - m]
        inv[n] = -acc
    return inv[b]
