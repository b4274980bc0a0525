"""Internal certificates raise CertificateFailed, also under ``python -O``.

A bare ``assert`` vanishes under ``-O``, so every certificate in the package
is an ordinary check that raises. The subprocess test breaks several of
them on purpose and runs with ``-O``; the guard test keeps ``assert`` out of
the package source.
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
from sysbound import catalog, cones, lattices, pushforward
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


lattices._independent_scan = lambda vectors, r, upto: []
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
print(json.dumps({
    "optimized": not __debug__,
    "minima": outcome(lambda: lattices.successive_minima(lat, 1)),
    "polytope_minima": outcome(lambda: lattices.successive_minima(hexagon, 1)),
    "s_alpha": outcome(lambda: cones.s_alpha(problem, cp2.ring.gen("H"))),
    "lattice": [code, err.getvalue()],
    "pushforward": outcome(lambda: pushforward.localization_pushforward(2, 4, 2)),
    "pushforward_cli": [pf_code, pf_err.getvalue()],
    "bundle": bundle,
    "bundle_cli": [bp_code, bp_err.getvalue()],
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
    code, err = report["bundle_cli"]
    assert code == 1
    assert err == ("error: bundle supremum certificate: the profile may "
                   "decrease in x on x <= 1\n")


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
