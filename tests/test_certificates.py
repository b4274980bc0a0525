"""Internal certificates raise CertificateFailed, also under ``python -O``.

A bare ``assert`` vanishes under ``-O``, so every certificate in the package
is an ordinary check that raises. The subprocess test breaks several of
them on purpose and runs with ``-O``, among them the successive-minima
certificate, the ellipsoid fit's positive-definiteness check and, on a
reduced dual basis, KZ's unimodularity, shortest-vector and primitivity
certificates, the decimal writer's refinement of its pi enclosure, a
projective bundle's first-Chern-class certificate, and, on the intersection
form, phi-sup's rationality test and root-isolation parity check and the
bundle profile's closed form.  The
guard test keeps ``assert`` out of the package source.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import sysbound
from test_cone_engine import _BROKEN_MESSAGES, _BROKEN_PROFILES

_PACKAGE = Path(sysbound.__file__).resolve().parent

_FORCE_FAILURES = r'''
import ast, io, json, sys
from fractions import Fraction
from sysbound import (catalog, cones, graded, lattices, pushforward, roots,
                      values)
from sysbound.cli import run_command
from sysbound.errors import CertificateFailed


def outcome(call):
    try:
        call()
    except CertificateFailed as exc:
        return ["CertificateFailed", str(exc)]
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return ["passed", ""]


def broken(name, replacement):
    """The reduced dual basis of a fresh hexagonal lattice, with
    ``lattices.<name>`` replaced while it runs."""
    real = getattr(lattices, name)
    setattr(lattices, name, replacement(real))
    try:
        return outcome(lambda: lattices.reduced_dual_basis(
            lattices.NormedLattice(basis=[[1, 0], [0, 1]],
                                   gram=[[2, 1], [1, 2]])))
    finally:
        setattr(lattices, name, real)


# the KZ transform's last row doubled, so its determinant is 2; the
# enumeration finding nothing; its first vector doubled, so not primitive
kz_reports = {
    "unimodularity": broken("_complete_unimodular", lambda real: lambda v: (
        lambda t: t[:-1] + [[2 * x for x in t[-1]]])(real(v))),
    "shortest_vector": broken("enumerate_short_vectors",
                              lambda real: lambda *args: ([], 1)),
    "primitivity": broken("enumerate_short_vectors", lambda real: lambda *args: (
        lambda vectors, s: ([(tuple(2 * x for x in vec), spent)
                             for vec, spent in vectors], s))(*real(*args))),
}
lattices._independent_scan = lambda vectors, upto: []
lat = lattices.NormedLattice(basis=[[1, 0], [0, 1]], gram=[[2, 1], [1, 2]])
hexagon = lattices.NormedLattice(
    basis=[[1, 0], [0, 1]],
    vertices=[[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]])
cones.nef_threshold = lambda problem, alpha: Fraction(-1)
cp2 = catalog.projective_space(2)
problem = cones.cone_problem(cp2)
out, err = io.StringIO(), io.StringIO()
code = run_command(["lattice", "--gram", "[[2,1],[1,2]]"], out=out, err=err)
# count one standard tableau too many in the closed form: the Schur
# coefficients then miss the localization sum at the check point
full_tableaux = pushforward._standard_tableaux
pushforward._standard_tableaux = lambda mu: full_tableaux(mu) + 1
pf_out, pf_err = io.StringIO(), io.StringIO()
pf_code = run_command(["pushforward", "--k", "2", "--r", "4", "--j", "2"],
                      out=pf_out, err=pf_err)
# each broken bundle profile (see test_cone_engine) fails one certificate step
bundle = {}
for step, parts in ast.literal_eval(sys.argv[1]).items():
    cones._profile_parts = lambda n, parts=parts: parts
    bundle[step] = outcome(lambda: cones.bundle_profile_sup(3))
# the CLI runs with the last broken profile ("x <= 1") still in place
bp_out, bp_err = io.StringIO(), io.StringIO()
bp_code = run_command(["bundle-profile", "--n", "3"], out=bp_out, err=bp_err)
# the ellipsoid fit on a polytope this process has not seen, with every
# rationalized round refused as not positive definite; the failure is not
# memoized, so once the check is whole the same norm answers, and a lattice
# on the same vertices in another order shares it
definite = lattices._is_positive_definite
lattices._is_positive_definite = lambda rows: False
square = lattices.NormedLattice(basis=[[1, 0], [0, 1]],
                                vertices=[[1, 0], [0, 1], [-1, 0], [0, -1]])
broken_fit = outcome(square.euclidean_form)
lattices._is_positive_definite = definite
again = lattices.NormedLattice(basis=[[1, 1], [0, 1]],
                               vertices=[[0, -1], [-1, 0], [0, 1], [1, 0]])
fit = [broken_fit, [[str(x) for x in row] for row in square.euclidean_form()],
       again._norm is square._norm]
# an enclosure of pi that never narrows: the decimal writer stops refining
pi_bounds = values._pi_bounds
values._pi_bounds = lambda bits: (3 << bits, 4 << bits)
dec_out, dec_err = io.StringIO(), io.StringIO()
decimal = [outcome(lambda: values.decimal_text(Fraction(1), 1, 3)),
           run_command(["bound", "--theorem", "thm1.1", "--space", "CP(1)",
                        "--approx", "3", "--format", "json"],
                       out=dec_out, err=dec_err),
           dec_out.getvalue(), dec_err.getvalue()]
values._pi_bounds = pi_bounds
# a projective bundle's c1 doubled where its total Chern class is expanded:
# the first-Chern-class certificate fails in the catalog's integers, on the
# first read of the form and before the Todd genus is read off the genus,
# with no ring built either way; a reply refused on b2 = 2 reads neither
first_chern = catalog._first_chern
catalog._first_chern = lambda factors: tuple(2 * c for c in
                                             first_chern(factors))
ring_init, rings = graded.Ring.__init__, []


def counted(ring, presentation):
    rings.append(presentation)
    ring_init(ring, presentation)


graded.Ring.__init__ = counted
bundle_certificate = {}
for argv in (["phi-sup"], ["todd"], ["bound", "--theorem", "thm1.3"]):
    pb_out, pb_err = io.StringIO(), io.StringIO()
    del rings[:]
    pb_code = run_command(argv + ["--space", "PB(degrees=[0,1]; genus=0)"],
                          out=pb_out, err=pb_err)
    bundle_certificate[argv[0]] = [pb_code, pb_out.getvalue(),
                                   pb_err.getvalue(), len(rings)]
catalog._first_chern = first_chern
# phi-sup's critical equation isolated, but its root's rationality test
# never finding the fraction, and the bundle profile's s(alpha) read off a
# doubled c1 pairing: both refusals come from the intersection form, with
# no ring built
rational_root = roots._rational_root
roots._rational_root = lambda p, c, k, q: None
numbers = cones._numbers
cones._numbers = lambda form, v: (2 * numbers(form, v)[0], numbers(form, v)[1])
form_route = {}
for argv in (["phi-sup", "--space",
              "CI(degrees=[[1,1],[1,1],[1,1]]; ambient=[3,3])"],
             ["bundle-profile", "--degrees", "[0,1]"]):
    fr_out, fr_err = io.StringIO(), io.StringIO()
    del rings[:]
    fr_code = run_command(argv, out=fr_out, err=fr_err)
    form_route[argv[0]] = [fr_code, fr_out.getvalue(), fr_err.getvalue(),
                           len(rings)]
roots._rational_root = rational_root
cones._numbers = numbers
# the sign variations of the root isolation miscounted, as none or always
# two: the parity check against the signs at the ends refuses either
variations = roots._variations
isolation = {}
for count in (0, 2):
    roots._variations = lambda p, count=count: count
    del rings[:]
    ri_out, ri_err = io.StringIO(), io.StringIO()
    isolation[count] = [run_command(
        ["phi-sup", "--space", "CI(degrees=[[1,1],[1,1],[1,1]]; ambient=[3,3])"],
        out=ri_out, err=ri_err), ri_out.getvalue(), ri_err.getvalue(),
        len(rings)]
roots._variations = variations
graded.Ring.__init__ = ring_init
print(json.dumps({
    "optimized": not __debug__,
    "decimal": decimal,
    "minima": outcome(lambda: lattices.successive_minima(lat, 1)),
    "polytope_minima": outcome(lambda: lattices.successive_minima(hexagon, 1)),
    "s_alpha": outcome(lambda: cones.s_alpha(problem, cp2.ring.gen("H"))),
    "lattice": [code, err.getvalue()],
    "pushforward": outcome(lambda: pushforward.localization_pushforward(2, 4, 2)),
    "pushforward_cli": [pf_code, pf_err.getvalue()],
    "bundle": bundle,
    "bundle_cli": [bp_code, bp_err.getvalue()],
    "kz": kz_reports,
    "fit": fit,
    "bundle_certificate": bundle_certificate,
    "form_route": form_route,
    "isolation": isolation,
}))
'''


def test_forced_certificate_failures_raise_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _FORCE_FAILURES,
                           repr(_BROKEN_PROFILES)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["optimized"] is True
    for case in ("minima", "polytope_minima"):
        kind, message = report[case]
        assert kind == "CertificateFailed"
        assert "successive-minima certificate" in message
    kind, message = report["s_alpha"]
    assert kind == "CertificateFailed"
    assert "nef-threshold certificate" in message
    code, err = report["lattice"]
    assert code == 1
    assert err.startswith("error: successive-minima certificate")
    kind, message = report["pushforward"]
    assert kind == "NonPolynomialResult"
    assert "(k, r, j) = (2, 4, 2)" in message
    code, err = report["pushforward_cli"]
    assert code == 1
    assert err.startswith("error: localization sum for (k, r, j) = (2, 4, 2)")
    assert report["bundle"] == {
        step: ["CertificateFailed", "bundle supremum certificate: " + message]
        for step, message in _BROKEN_MESSAGES.items()}
    assert report["kz"] == {
        "unimodularity": ["CertificateFailed", "unimodularity certificate: "
                          "the KZ transform has determinant 2"],
        "shortest_vector": ["CertificateFailed", "shortest-vector "
                            "certificate: no vector within the shortest "
                            "reduced basis norm 2"],
        "primitivity": ["CertificateFailed", "primitivity certificate: "
                        "shortest vector [2, 0] has content 2"]}
    assert report["fit"] == [
        ["EuclideanizationFailed",
         "no positive-definite inscribed ellipsoid form found"],
        [["2", "0"], ["0", "2"]], True]
    message = ("decimal certificate: 8 refinements of the pi enclosure did "
               "not round q * pi^1")
    assert report["decimal"] == [["CertificateFailed", message], 1, "",
                                 "error: %s\n" % message]
    code, err = report["bundle_cli"]
    assert code == 1
    assert err == ("error: bundle supremum certificate: the profile may "
                   "decrease in x on x <= 1\n")
    message = ("error: first Chern class certificate: c1 = 2*f + 4*xi, "
               "closed form f + 2*xi\n")
    assert report["bundle_certificate"] == {
        "phi-sup": [1, "", message, 0], "todd": [1, "", message, 0],
        "bound": [1, "", "error: PB(degrees=[0, 1]; genus=0) must have b2 = 1 "
                  "with a degree-2 class u, u^n nonzero\n", 0]}
    assert report["form_route"] == {
        "phi-sup": [1, "", "error: the critical equation on the nef segment "
                    "of X_{(1,1);(1,1);(1,1)} in CP(3)xCP(3) has a "
                    "non-rational root; refusing to approximate (polynomial "
                    "has 1 roots in (0,1) but only 0 rational ones)\n", 0],
        "bundle-profile": [1, "", "error: bundle closed-form certificate: "
                           "a s(alpha) = 10/3, closed form 5/3\n", 0]}
    assert report["isolation"] == {
        str(count): [1, "", "error: root isolation certificate: %d sign "
                     "variations on (0, 1), of the wrong parity for the "
                     "signs at its ends\n" % count, 0] for count in (0, 2)}


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
