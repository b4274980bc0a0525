"""Output checks: golden outputs recorded before any change, and closed forms.

Every operation is checked.  Expected domain errors are correct outcomes;
wrong output, a traceback or an unexpected exit code is a failure.  Each
check returns None when the output is right and a short reason otherwise.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from bench_inputs import det


def _frac(obj):
    return Fraction(obj["numerator"], obj["denominator"])


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def check_cli(golden_entry, code, stdout: bytes, stderr: bytes):
    if code != golden_entry["code"]:
        return "exit code %s, expected %s" % (code, golden_entry["code"])
    if stdout.decode("utf-8", "replace") != golden_entry["stdout"]:
        return "stdout differs from the recorded output"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    return None


# ---------------------------------------------------------------------------
# batch-spaces
# ---------------------------------------------------------------------------

_CP = re.compile(r"^CP\((\d+)\)$")
_Q = re.compile(r"^Q\((\d+)\)$")


def _closed_form(command, desc, payload):
    """Closed-form values for projective spaces and quadrics."""
    m_cp, m_q = _CP.match(desc), _Q.match(desc)
    n = int((m_cp or m_q).group(1)) if (m_cp or m_q) else None
    if n is None:
        return None
    if command == "todd" and _frac(payload["todd_genus"]) != 1:
        return "Todd genus of %s is not 1" % desc
    if command == "phi-sup" and m_cp and _frac(payload["phi_sup"]) != (n + 1) ** n:
        return "phi_sup(CP(%d)) is not (n+1)^n" % n
    if command == "bound --theorem thm1.1":
        b = payload["bound"]
        if _frac(b) != 4 * n * (n + 1) or b["pi_exponent"] != 1:
            return "thm1.1 bound on %s is not 4 pi n (n+1)" % desc
    return None


def check_batch_line(golden_entry, command, desc, kind, text):
    """``kind`` is "ok" (stdout JSON document) or "err" (one stderr line)."""
    if kind != golden_entry["kind"]:
        return "%s on %s: %s, expected %s" % (command, desc, kind,
                                               golden_entry["kind"])
    if text != golden_entry["out"]:
        return "%s on %s: output differs from the recorded output" % (
            command, desc)
    if kind == "ok":
        try:
            payload = json.loads(text)
        except ValueError:
            return "%s on %s: output is not JSON" % (command, desc)
        return _closed_form(command, desc, payload)
    return None


def expected_batch_exit(kinds) -> int:
    """Domain errors only, so the batch exits 1 iff any line failed.

    The stream holds no parse errors, so this holds both under the
    last-error rule and under a maximum-severity rule.
    """
    return 1 if "err" in kinds else 0


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


def _polytope_norm(kind, v):
    if kind == "cross":
        return sum(abs(x) for x in v)
    if kind == "hexagon":
        return max(abs(v[0]), abs(v[1]), abs(v[0] + v[1]))
    raise ValueError(kind)


def check_lattice(spec, result, golden_result=None):
    """Closed-form certificates for one lattice operation's results.

    ``result`` holds strings: minima, transference (Euclidean), dual basis
    vectors, dual norms and lambda1.
    """
    if golden_result is not None and result != golden_result:
        return "lattice result differs from the recorded output"
    r = spec["rank"]
    basis = [[Fraction(x) for x in row] for row in spec["basis"]]
    euclid = spec["kind"] == "euclidean"
    minima = [Fraction(x) for x in result["minima"]]
    if len(minima) != r or minima[0] <= 0 \
            or any(a > b for a, b in zip(minima, minima[1:])):
        return "successive minima are not positive and nondecreasing"
    # lambda_j is at most the j-th smallest basis-vector norm
    if euclid:
        norms = sorted(sum(x * x for x in row) for row in basis)
    else:
        norms = sorted(_polytope_norm(spec["kind"], row) for row in basis)
    if any(m > n for m, n in zip(minima, norms)):
        return "a successive minimum exceeds a basis-vector norm"
    if euclid:
        tr = result["transference"]
        l1, lr, prod = (Fraction(tr[k]) for k in ("l1", "lr_dual", "product"))
        if l1 != minima[0] or prod != l1 * lr or prod > r * r:
            return "transference certificate lambda1^2 lambda_r*^2 <= r^2 fails"
    vectors = [[Fraction(x) for x in v] for v in result["dual_vectors"]]
    # dual basis (B^-1)^T, so coefficients are V B^T; unimodular means an
    # integer matrix with determinant +-1
    coeffs = [[sum(v[k] * basis[j][k] for k in range(r)) for j in range(r)]
              for v in vectors]
    if any(c.denominator != 1 for row in coeffs for c in row) \
            or abs(det(coeffs)) != 1:
        return "reduced dual basis is not unimodular"
    l1 = Fraction(result["lambda1"])
    if l1 != minima[0]:
        return "lambda1 of the dual-basis certificate differs from lambda_1"
    dual_norms = [Fraction(x) for x in result["dual_norms"]]
    verts = spec.get("vertices")
    for v, n in zip(vectors, dual_norms):
        expect = sum(x * x for x in v) if euclid else \
            max(sum(a * b for a, b in zip(v, x)) for x in verts)
        if n != expect:
            return "dual norm does not match its vector"
        if n * l1 > (r ** 4 if euclid else r ** 2):
            return "dual-norm certificate ||u|| lambda_1 <= r^2 fails"
    return None


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------


def check_pushforward(golden_table, case, value):
    expect = golden_table.get("%d,%d,%d" % tuple(case))
    if expect is None:
        return "no recorded value for case %s" % (case,)
    if value != expect:
        return "primitive_coefficient%s = %s, recorded %s" % (
            tuple(case), value, expect)
    return None
