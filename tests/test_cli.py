"""Descriptor grammar, command dispatch, formats, exit codes."""

import io
import itertools
import json
import math
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sysbound
from batch_pool import (BATCH_COMMANDS, BATCH_POOL, CLI_INVOCATIONS,
                        batch_key, golden_batch, golden_cli)

from sysbound import catalog, characteristic, cli
from sysbound.cli import (AtomNode, ProductNode, TwistNode, parse_alpha,
                          parse_json_value, parse_space, run_command)
from sysbound.engine import PiScaled
from sysbound.errors import ParseError


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- grammar ------------------------------------------------------------------


def test_parse_product():
    node = parse_space("CP(3) * S1")
    assert isinstance(node, ProductNode)
    assert node.left == AtomNode("CP", (3,))
    assert node.right == AtomNode("S", (1,))


def test_parse_ci():
    node = parse_space("CI(degrees=[[3]]; ambient=[4])")
    assert node == AtomNode("CI", (((3,),), (4,)))
    space = node.build()
    assert space.complex_dim == 3
    assert space.fano_index == 2


def test_parse_is_whitespace_insensitive():
    a = parse_space("CP(2)*S1*S(4)")
    b = parse_space("  CP( 2 )  *  S1 * S( 4 ) ")
    assert a == b


def test_parse_left_associative():
    node = parse_space("CP(1) * CP(2) * CP(3)")
    assert isinstance(node, ProductNode)
    assert isinstance(node.left, ProductNode)
    assert node.right == AtomNode("CP", (3,))


def test_parse_twist_suffix():
    node = parse_space("CP(2).twist(-1)")
    assert isinstance(node, TwistNode) and node.k == -1
    space = node.build()
    assert space.spin_c == space.primitive_x


def test_parse_print_parse_identity():
    for text in ("CP(3) * S1", "CI(degrees=[[2],[3]]; ambient=[6])",
                 "PB(degrees=[0,1]; genus=0)", "BlP(4)", "Q(5) * S(4)",
                 "CP(2).twist(3) * S1", "S(1)", "CP(2)twist(1)",
                 "PB(degrees=[1,1,1,1]; genus=2)"):
        node = parse_space(text)
        assert parse_space(node.unparse()) == node
    assert parse_space("S(1)") == parse_space("S1")
    assert parse_space("S(1)").unparse() == "S1"


def test_build_looks_up_the_catalog_function_when_called(monkeypatch):
    # a tracer rebinds catalog functions in the module namespace; builds
    # must go through the rebound name to be seen
    calls = []
    real = catalog.projective_space

    def patched(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(catalog, "projective_space", patched)
    assert parse_space("CP(2)").build().name == "CP(2)"
    assert calls == [2]


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_space("CP(3) & S1")
    assert exc.value.position == 6
    with pytest.raises(ParseError):
        parse_space("CP(-1)")
    with pytest.raises(ParseError):
        parse_space("CP(3) *")
    with pytest.raises(ParseError):
        parse_space("Frob(2)")


@pytest.mark.parametrize("text, message, position, expected", [
    # range checks point at the constructor name
    ("CP(0)", "CP needs n >= 1 at offset 0", 0, ()),
    ("Q(1)", "Q needs n >= 2 at offset 0", 0, ()),
    ("S(0)", "S needs k >= 1 at offset 0", 0, ()),
    ("BlP(1)", "BlP needs n >= 2 at offset 0", 0, ()),
    ("CP(2) * Q(1)", "Q needs n >= 2 at offset 8", 8, ()),
    ("CI(degrees=[]; ambient=[3])",
     "CI needs nonempty degrees and ambient at offset 0", 0, ()),
    ("CI(degrees=[[2]]; ambient=[])",
     "CI needs nonempty degrees and ambient at offset 0", 0, ()),
    ("PB(degrees=[1]; genus=0)",
     "PB needs at least two degrees at offset 0", 0, ()),
    ("PB(degrees=[0,1]; genus=-1)", "PB needs genus >= 0 at offset 0", 0, ()),
    # both checks fail: the first one reports
    ("PB(degrees=[1]; genus=-1)",
     "PB needs at least two degrees at offset 0", 0, ()),
    # keywords come in a fixed order, separated by ';'
    ("CI(ambient=[4]; degrees=[[3]])",
     "unexpected 'ambient' at offset 3 (expected degrees)", 3, ("degrees",)),
    ("CI(degrees=[[3]], ambient=[4])",
     "unexpected ',' at offset 16 (expected ;)", 16, (";",)),
    ("Frob(2)",
     "unknown space constructor 'Frob' at offset 0 "
     "(expected CP, Q, S, S1, CI, PB, BlP)", 0,
     ("CP", "Q", "S", "S1", "CI", "PB", "BlP")),
    ("S1(2)", "trailing input '(' at offset 2 (expected *, end of input)",
     2, ("*", "end of input")),
    ("CP(3) & S1", "unexpected character '&' at offset 6", 6, ()),
    ("CP(²)", "unexpected character '²' at offset 3", 3, ()),
    ("CP(3) *", "unexpected 'end of input' at offset 7 (expected NAME)",
     7, ("NAME",)),
    ("CP(2).twist", "unexpected 'end of input' at offset 11 (expected ()",
     11, ("(",)),
    ("", "unexpected 'end of input' at offset 0 (expected NAME)", 0, ("NAME",)),
])
def test_parse_error_texts(text, message, position, expected):
    with pytest.raises(ParseError) as exc:
        parse_space(text)
    assert str(exc.value) == message
    assert exc.value.position == position
    assert exc.value.expected == expected


def test_parse_alpha_expressions():
    from sysbound.catalog import blowup_point, projective_space
    bl = blowup_point(3)
    cls, pi_exp = parse_alpha(bl, "2*H - E")
    assert cls == 2 * bl.ring.gen("H") - bl.ring.gen("E")
    assert pi_exp == 0
    cp2 = projective_space(2)
    cls, pi_exp = parse_alpha(cp2, "pi*H")
    assert cls == cp2.ring.gen("H") and pi_exp == 1
    cls, pi_exp = parse_alpha(cp2, "1/2*pi^2*H")
    assert cls == Fraction(1, 2) * cp2.ring.gen("H") and pi_exp == 2
    with pytest.raises(ParseError):
        parse_alpha(cp2, "2*Z")
    # "-2" is one integer in a descriptor (genus=-1) but minus 2 here
    p1xp1 = catalog.product(projective_space(1), projective_space(1))
    cls, pi_exp = parse_alpha(p1xp1, "H1 -2*H2")
    assert cls == p1xp1.ring.gen("H1") - 2 * p1xp1.ring.gen("H2")
    assert pi_exp == 0


@pytest.mark.parametrize("text, message, position", [
    ("*H", "each term needs a degree-2 generator name", 0),
    ("1/*H", "expected a denominator", 2),
    ("1/0*H", "zero denominator", 2),
    ("pi^*H", "expected an exponent", 3),
    ("H*E", "term has two generator names", 2),
    ("2*Z", "unknown generator 'Z' (ring has H, E)", 3),
    ("pi*H - E", "all terms must carry the same power of pi", 8),
    ("H E", "unexpected token in class expression", 2),
    ("H & E", "unexpected character '&' in class expression", 2),
    ("²*H", "unexpected character '²' in class expression", 0),
])
def test_parse_alpha_error_texts(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_alpha(catalog.blowup_point(3), text)
    assert str(exc.value) == "%s at offset %d" % (message, position)
    assert exc.value.position == position
    assert exc.value.expected == ()


_VOCABULARY = {
    "descriptor": ("CP", "Q", "S", "S1", "CI", "PB", "BlP", "twist",
                   "degrees", "ambient", "genus", "(", ")", "[", "]", ",",
                   ";", "=", "*", ".", "-", "-1", "0", "2", "3", " ", "²"),
    "class": ("H", "E", "Z", "pi", "+", "-", "*", "/", "^", "(", ")", "0",
              "1", "2", "13", "-2", " ", "²"),
}


@pytest.mark.parametrize("grammar", sorted(_VOCABULARY))
def test_random_token_strings_parse_or_raise_a_parse_error(grammar):
    if grammar == "class":
        space = catalog.blowup_point(3)
        parse = lambda text: parse_alpha(space, text)  # noqa: E731
    else:
        parse = parse_space
    rng = random.Random(23)
    outcomes = {"parsed": 0, "rejected": 0}
    for _ in range(3000):
        words = [rng.choice(_VOCABULARY[grammar])
                 for _ in range(rng.randint(1, 10))]
        if rng.random() < 0.1:
            words.insert(rng.randint(0, len(words)), "&")
        text = "".join(words)
        try:
            parse(text)
        except ParseError as exc:
            assert 0 <= exc.position <= len(text), (text, exc.position)
            outcomes["rejected"] += 1
        else:
            outcomes["parsed"] += 1
    assert min(outcomes.values()) > 0, outcomes


# -- commands -----------------------------------------------------------------


def test_bound_command_table():
    code, out, _ = _run(["bound", "--space", "CP(3)", "--theorem", "prop5.1"])
    assert code == 0
    assert "48 * pi" in out


def test_length_command():
    code, out, _ = _run(["length", "--space", "Q(4)"])
    assert code == 0
    assert out.splitlines()[-1].split()[-1] == "4"


def test_phi_sup_command_unbounded():
    code, out, _ = _run(["phi-sup", "--space", "BlP(3)"])
    assert code == 0
    assert "UNBOUNDED" in out
    assert "H" in out and "E" in out


def test_bound_json_round_trip():
    code, out, _ = _run(["bound", "--space", "CP(3) * S1", "--theorem",
                         "thm1.3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    value = parse_json_value(payload["bound"])
    assert value == PiScaled.of(48, 1)


def test_volume_and_width_selectors():
    code, out, _ = _run(["bound", "--space", "CP(2)", "--theorem", "thm1.8",
                         "--alpha", "pi*H"])
    assert code == 0 and "1/2 * pi^2" in out
    code, out, _ = _run(["bound", "--space", "CP(2)", "--theorem", "thm1.4"])
    assert code == 0 and "4/3 * pi" in out
    code, out, _ = _run(["bound", "--space", "Q(3)", "--theorem", "rbar",
                         "--alpha", "pi*H"])
    assert code == 0 and "36" in out


def test_csv_and_approx():
    code, out, _ = _run(["bound", "--space", "CP(3)", "--theorem", "thm1.1",
                         "--format", "csv", "--approx", "3"])
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("bound")][0]
    assert line.split(",")[1] == "48 * pi"
    assert line.split(",")[2].startswith("~150.796")


def test_approx_digits_are_exact_past_double_precision():
    # rounded half-even from q * pi^k, not the decimal expansion of the
    # nearest double (which reads 150.79644737231006956790 and
    # 2.66666666666666651864 at 20 places)
    code, out, _ = _run(["bound", "--space", "CP(3)", "--theorem", "thm1.1",
                         "--approx", "20", "--format", "csv"])
    assert code == 0
    assert "bound,48 * pi,~150.79644737231007544621\n" in out
    code, out, _ = _run(["bundle-profile", "--n", "3", "--approx", "20"])
    assert code == 0
    assert "profile_sup:  8/3   (~ 2.66666666666666666667)\n" in out
    # JSON keeps a float
    code, out, _ = _run(["bound", "--space", "CP(3)", "--theorem", "thm1.1",
                         "--approx", "20", "--format", "json"])
    assert json.loads(out)["bound_approx"] == 48 * math.pi


def test_exact_decimals_round_half_even():
    assert PiScaled.of(Fraction(5, 2)).decimal_str(0) == "2"
    assert PiScaled.of(Fraction(7, 2)).decimal_str(0) == "4"
    assert PiScaled.of(Fraction(-1, 8)).decimal_str(2) == "-0.12"
    assert PiScaled.of(Fraction(-1, 1000)).decimal_str(2) == "-0.00"
    assert PiScaled.of(0, 3).decimal_str(3) == "0.000"
    assert PiScaled.of(1, 1).decimal_str(30) == \
        "3.141592653589793238462643383280"
    assert PiScaled.of(Fraction(1, 2), -1).decimal_str(25) == \
        "0.1591549430918953357688838"


def test_todd_command():
    code, out, _ = _run(["todd", "--space", "CI(degrees=[[2],[2]]; ambient=[6])"])
    assert code == 0
    assert out.splitlines()[-1].split()[-1] == "1"


def test_phi_command():
    code, out, _ = _run(["phi", "--space", "BlP(3)", "--alpha", "2*H - E"])
    assert code == 0
    assert out.splitlines()[-1].split()[-1] == "56"


def test_contractions_command():
    code, out, _ = _run(["contractions", "--space",
                         "CI(degrees=[[2,2]]; ambient=[3,3])"])
    assert code == 0
    assert "fano" in out and "True" in out


@pytest.mark.parametrize("ambient", ["[0,5]", "[-2,7]"])
def test_contractions_refuses_nonpositive_ambient_factors(ambient):
    code, out, err = _run(["contractions", "--space",
                           "CI(degrees=[[0,1]]; ambient=%s)" % ambient])
    assert (code, out) == (1, "")
    assert err == "error: ambient factors must have positive dimension\n"


def test_bundle_profile_command():
    code, out, _ = _run(["bundle-profile", "--n", "3"])
    assert code == 0
    assert "8/3" in out


@pytest.mark.parametrize("degrees, genus, a, b", [
    ("[0,1]", 0, "3", "2"),      # genus 0: sys_value = min(a, b) = b
    ("[0,2,3]", 1, "3/2", "1"),  # genus 1: sys_value = a
])
def test_bundle_profile_command_profile_rows(degrees, genus, a, b):
    from sysbound import cones
    code, out, err = _run(["bundle-profile", "--degrees", degrees,
                           "--genus", str(genus), "--a", a, "--b", b])
    assert (code, err) == (0, "")
    rows = dict(line.split(":", 1) for line in out.splitlines())
    sys_value, product = cones.bundle_systole_profile(
        json.loads(degrees), genus, Fraction(a), Fraction(b))
    assert sys_value == (min(Fraction(a), Fraction(b)) if genus == 0
                         else Fraction(a))
    assert {key: value.strip() for key, value in rows.items()} == {
        "degrees": degrees, "genus": str(genus),
        "sys_value": str(sys_value), "sys_times_s": str(product)}


def test_pushforward_command():
    code, out, _ = _run(["pushforward", "--k", "1", "--r", "2", "--j", "1"])
    assert code == 0
    assert "-x1 - x2" in out


def test_pushforward_command_prints_the_class_as_sympy_does():
    code, out, _ = _run(["pushforward", "--k", "2", "--r", "4", "--j", "2"])
    assert code == 0
    assert out.splitlines()[-1] == (
        "pushforward:  9*x1**2 + 14*x1*x2 + 14*x1*x3 + 14*x1*x4 + 9*x2**2 "
        "+ 14*x2*x3 + 14*x2*x4 + 9*x3**2 + 14*x3*x4 + 9*x4**2")


def test_lattice_command_gram():
    code, out, _ = _run(["lattice", "--gram", "[[2,1],[1,2]]"])
    assert code == 0
    assert "lambda_1_sq" in out
    assert "transference_product_sq" in out


def test_lattice_command_vertices():
    code, out, _ = _run(["lattice", "--vertices",
                         "[[1,0],[0,1],[1,1],[-1,0],[0,-1],[-1,-1]]"])
    assert code == 0
    assert "polytope" in out


def _cross_polytope(r):
    return json.dumps([[s * int(i == j) for j in range(r)]
                       for i in range(r) for s in (1, -1)])


def _cube(r):
    return json.dumps([list(v) for v in itertools.product((1, -1), repeat=r)])


def test_lattice_vertex_cap(monkeypatch):
    from sysbound import lattices
    # facet enumeration solves each r-subset by one elimination of its
    # cleared rows; the rank tests go through the kernel's own binding.
    # An empty norm memo, so no earlier test has enumerated these facets
    lattices._norm.cache_clear()
    solves = []
    real = lattices._eliminate

    def counting(rows, ncols, jordan=True):
        solves.append(rows)
        return real(rows, ncols, jordan)

    monkeypatch.setattr(lattices, "_eliminate", counting)
    # the 5-cube has 32 vertices, and C(32, 5) = 201376 is over the cap
    code, out, err = _run(["lattice", "--vertices", _cube(5)])
    assert code == 1 and out == ""
    assert err == ("error: facet enumeration over 32 vertices at rank 5 "
                   "needs C(32, 5) = 201376 linear solves, above the cap "
                   "10000\n")
    # the cap is checked before any subset is solved
    assert solves == []
    # the rank-5 cross-polytope's polar, the unit ball of its dual lattice,
    # is that cube; it takes its facets from the primal's vertices, so only
    # the primal's C(10, 5) = 252 subsets are solved
    code, out, _ = _run(["lattice", "--vertices", _cross_polytope(5)])
    assert code == 0
    assert len(solves) == 252
    rows = dict(line.split(":", 1) for line in out.splitlines())
    for j in range(1, 6):
        assert rows["lambda_%d" % j].strip() == "1"
        # the dual norm is the max-norm, 1 on every KZ-reduced dual vector
        assert rows["dual_norm_%d" % j].strip() == "1"
    code, out, _ = _run(["lattice", "--vertices", _cross_polytope(4)])
    assert code == 0
    assert "dual_norm_4:   1" in out


def test_catalog_command():
    code, out, _ = _run(["catalog"])
    assert code == 0
    assert "CP(n)" in out and "metadata only" in out


def test_exit_codes():
    # domain error: hypothesis fails -> 1
    code, _, err = _run(["bound", "--space", "CP(3)", "--theorem", "thm1.2"])
    assert code == 1
    assert "projective space" in err
    # parse error -> 2
    code, _, err = _run(["length", "--space", "CP(-1)"])
    assert code == 2
    assert "offset" in err
    # missing --space -> 2
    code, _, err = _run(["length"])
    assert code == 2


def test_error_messages_name_the_hypothesis():
    code, _, err = _run(["bound", "--space", "CP(2) * S(2)", "--theorem",
                         "thm1.3"])
    assert code == 1
    assert "vanishing index pairing" in err or "b2" in err


def test_batch_mode(monkeypatch):
    import io as _io
    import sys as _sys
    monkeypatch.setattr(_sys, "stdin", _io.StringIO("CP(2)\nQ(3)\n"))
    code, out, _ = _run(["length", "--batch"])
    assert code == 0
    values = [l.split()[-1] for l in out.splitlines() if l.startswith("length")]
    assert values == ["3", "3"]


@pytest.mark.parametrize("argv", [
    ["lattice", "--gram", "foo"],
    ["lattice", "--gram", '[[1,"a"],[1,2]]'],
    ["lattice", "--vertices", "[]"],
    ["bundle-profile", "--degrees", "foo"],
    ["bundle-profile", "--degrees", "[0,1]", "--a", "x"],
    ["phi", "--space", "CP(2)", "--alpha", "1/0*H"],
    ["bundle-profile", "--degrees", "[0, 1.7]"],
    ["bundle-profile", "--degrees", "[0, true]"],
    ["bundle-profile", "--degrees", '[0, "1"]'],
])
def test_bad_option_values_are_parse_errors(argv):
    proc = subprocess.run([sys.executable, "-m", "sysbound", *argv],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("parse error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["--gram", "[[1,0],[0,1]]", "--basis", "[[1]]"],
     "the Gram matrix is 2x2 but the basis has rank 1"),
    (["--gram", "[[1]]", "--basis", "[[1,0],[0,1]]"],
     "the Gram matrix is 1x1 but the basis has rank 2"),
    (["--vertices", "[[1,0],[-1,0]]", "--basis", "[[1]]"],
     "the vertices have 2 coordinates but the basis has rank 1"),
    (["--gram", "[]"], "the lattice basis is empty; rank must be at least 1"),
    (["--gram", "[[1]]", "--basis", "[]"],
     "the lattice basis is empty; rank must be at least 1"),
    (["--vertices", "[[]]"],
     "the lattice basis is empty; rank must be at least 1"),
])
def test_lattice_sizes_must_match_the_basis(argv, message):
    proc = subprocess.run([sys.executable, "-m", "sysbound", "lattice", *argv],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "error: %s\n" % message
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["--sweep", "3", "--min-rank", "4", "--max-rank", "2"],
     "--min-rank 4 exceeds --max-rank 2"),
    (["--sweep", "3", "--max-rank", "1"], "--min-rank 2 exceeds --max-rank 1"),
    (["--sweep", "3", "--min-rank", "0"], "--min-rank 0 is below 1"),
    (["--sweep", "3", "--min-rank", "-1"], "--min-rank -1 is below 1"),
    (["--sweep", "-1"], "--sweep -1 is not a positive count"),
    (["--sweep", "0"], "--sweep 0 is not a positive count"),
    (["--sweep", "0", "--gram", "[[1]]"], "--sweep 0 is not a positive count"),
])
def test_lattice_sweep_sizes_are_parse_errors(argv, message):
    proc = subprocess.run([sys.executable, "-m", "sysbound", "lattice", *argv],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "parse error: %s at offset 0\n" % message
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, message", [
    (["--gram", "[[2,1],[1,2]]", "--vertices", "[[1,0],[0,1]]"],
     "pass one of --gram and --vertices, not both"),
    (["--sweep", "5", "--gram", "[[1]]"],
     "--sweep draws its own lattices; drop --gram, --vertices and --basis"),
    (["--sweep", "5", "--vertices", "[[1,0],[-1,0]]"],
     "--sweep draws its own lattices; drop --gram, --vertices and --basis"),
    (["--sweep", "5", "--basis", "[[1]]"],
     "--sweep draws its own lattices; drop --gram, --vertices and --basis"),
])
def test_lattice_takes_one_source(argv, message):
    # a second source is refused, not dropped
    assert _run(["lattice", *argv]) == (
        2, "", "parse error: %s at offset 0\n" % message)


@pytest.mark.parametrize("argv, message", [
    (["--gram", ""], "invalid JSON in --gram: Expecting value"),
    (["--vertices", ""], "invalid JSON in --vertices: Expecting value"),
    (["--gram", "", "--vertices", "[[1,0],[0,1]]"],
     "pass one of --gram and --vertices, not both"),
    (["--gram", "[[1]]", "--basis", ""],
     "invalid JSON in --basis: Expecting value"),
    (["--sweep", "3", "--gram", ""],
     "--sweep draws its own lattices; drop --gram, --vertices and --basis"),
])
def test_an_empty_lattice_option_is_a_malformed_value(argv, message):
    # an empty value was passed, so it is read, not taken for an absent one
    assert _run(["lattice", *argv]) == (
        2, "", "parse error: %s at offset 0\n" % message)


@pytest.mark.parametrize("argv", [[], ["--basis", "[[1]]"]])
def test_lattice_without_a_source_is_a_usage_error(argv):
    # no --gram, --vertices or --sweep: misuse of the options, like two
    # sources, so exit 2 and not a domain error
    assert _run(["lattice", *argv]) == (
        2, "", "parse error: pass --gram, --vertices, or --sweep at offset 0\n")


@pytest.mark.parametrize("argv", [[], ["--genus", "1"], ["--a", "2"],
                                  ["--b", "1"]])
def test_bundle_profile_without_n_or_degrees_is_a_usage_error(argv):
    # nothing to compute: misuse of the options, as with a bare ``lattice``;
    # --genus, --a and --b only qualify --degrees
    assert _run(["bundle-profile", *argv]) == (
        2, "", "parse error: pass --n for the supremum or --degrees (with "
               "optional --genus, --a, --b) for a profile value at offset 0\n")


def test_length_refuses_a_vanishing_index_polynomial():
    # b2 = 1 from CP(2), but e^(ax) A-hat has no S(4) volume component
    assert _run(["length", "--space", "CP(2) * S(4)"]) == (
        1, "", "error: index polynomial of CP(2) * S(4) vanishes identically; "
               "the space does not satisfy the nonvanishing hypothesis\n")


def test_lattice_sweep_above_the_rank_cap_is_a_domain_error():
    proc = subprocess.run([sys.executable, "-m", "sysbound", "lattice",
                           "--sweep", "2", "--min-rank", "6", "--max-rank", "6"],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "error: rank 6 exceeds the desk-scale cap 5\n"


def test_a_thin_rhombus_is_refused_fast_in_bounded_memory():
    # the ellipsoid fit rounds the rhombus's M^-1 / r entries near 1e-18
    # to 0 in every round, so no positive-definite form is found; ROADMAP
    # item 21 (a scale-aware fit) will turn this refusal into an answer.
    # The child runs under its own address-space limit and a timeout
    import resource
    import time
    limit = 512 * 2 ** 20

    def bounded():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sysbound", "lattice", "--vertices",
         '[["1/1000000007",0],[0,1],["-1/1000000007",0],[0,-1]]'],
        capture_output=True, text=True, env=_child_env(), timeout=60,
        preexec_fn=bounded)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: no positive-definite inscribed ellipsoid "
                           "form found\n")


def test_batch_continues_past_a_bad_alpha(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("CP(2)\nBlP(3)\n"))
    code, out, err = _run(["phi", "--batch", "--alpha", "1/0*H"])
    assert code == 2 and out == ""
    assert err.splitlines() == ["parse error: zero denominator at offset 2"] * 2


@pytest.mark.parametrize("lines", ["CP(\nS1\n", "S1\nCP(\n"])
def test_batch_exit_code_is_the_maximum_severity(monkeypatch, lines):
    # one parse error (exit 2) and one domain error (exit 1), in either order
    import sys as _sys
    monkeypatch.setattr(_sys, "stdin", io.StringIO(lines))
    code, _, err = _run(["length", "--batch"])
    assert code == 2
    kinds = {line.split(":")[0] for line in err.splitlines()}
    assert kinds == {"parse error", "error"}


# -- one batch keeps each line's reply ----------------------------------------

#: a twist between two reads of its untwisted space: a value kept on CP(3)
#: must not reach CP(3).twist(1), nor the other way round
_LEAD = ("CP(3)", "CP(3).twist(1)", "CP(3)")


@pytest.mark.parametrize("command", BATCH_COMMANDS, ids=" ".join)
def test_batch_output_does_not_depend_on_order_or_repeats(monkeypatch, command):
    single = {desc: _run([*command, "--space", desc, "--format", "json"])
              for desc in set(_LEAD + BATCH_POOL)}
    orders = {"pool": BATCH_POOL, "reversed": BATCH_POOL[::-1],
              "doubled": tuple(d for d in BATCH_POOL for _ in range(2))}
    for order, lines in orders.items():
        lines = _LEAD + lines
        monkeypatch.setattr(sys, "stdin",
                            io.StringIO("".join(d + "\n" for d in lines)))
        code, out, err = _run([*command, "--batch", "--format", "json"])
        assert code == max(single[d][0] for d in lines), order
        assert out == "".join(single[d][1] for d in lines), order
        assert err == "".join(single[d][2] for d in lines), order


def test_a_repeated_batch_line_replays_its_first_reply(monkeypatch):
    # an answer, a parse error, a domain error and the vanishing branch,
    # each twice but the last: one run per distinct line
    lines = ("CP(2)", "CP(2)", "CP(", "CP(", "BlP(3)", "BlP(3)",
             "CP(2) * S(4)")
    single = {desc: _run(["length", "--space", desc]) for desc in lines}
    calls = []
    handler = cli._DISPATCH["length"]

    def counted(args):
        calls.append(args.space)
        return handler(args)
    monkeypatch.setitem(cli._DISPATCH, "length", counted)
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO("".join(d + "\n" for d in lines)))
    code, out, err = _run(["length", "--batch"])
    assert calls == list(dict.fromkeys(lines))
    assert out == "".join(single[d][1] for d in lines)
    assert err == "".join(single[d][2] for d in lines)
    assert code == max(single[d][0] for d in lines) == 2


def test_batch_commands_leave_built_spaces_unchanged(monkeypatch):
    # every command runs on the same built spaces, each node built once and
    # handed to every handler that names it; afterwards each init field is
    # the object it was, and only the kept values are new
    built = {}
    for cls in (AtomNode, TwistNode, ProductNode):
        def build(node, make=cls.build):
            if node not in built:
                built[node] = make(node)
            return built[node]
        monkeypatch.setattr(cls, "build", build)
    for desc in _LEAD + BATCH_POOL:
        parse_space(desc).build()
    spaces = dict(built)
    before = {node: {name: getattr(space, name) for name in space._fields}
              for node, space in spaces.items()}
    assert any(isinstance(node, ProductNode) for node in spaces)
    assert any(isinstance(node, TwistNode) for node in spaces)
    parser = cli._build_parser()
    for command in BATCH_COMMANDS:
        for desc in _LEAD + BATCH_POOL:
            args = parser.parse_args([*command, "--space", desc])
            cli._reply(cli._DISPATCH[args.command], args)
    assert built.keys() == spaces.keys()
    assert all(built[n] is s for n, s in spaces.items())
    kept = {"tangent", "a_hat_cls", "todd_cls"}
    for node, space in spaces.items():
        for name, value in before[node].items():
            assert getattr(space, name) is value, (node.unparse(), name)
        assert set(vars(space)) - set(before[node]) <= kept, node.unparse()
    # the Riemann-Roch closed forms answer without tangent data
    assert all("a_hat_cls" not in vars(spaces[parse_space(d)])
               for d in ("CP(3)", "CP(3).twist(1)", "CP(3) * S1"))


# -- the benchmark's recorded outputs -----------------------------------------


def test_cli_invocations_print_the_recorded_bytes():
    recorded = golden_cli()
    assert [entry["argv"] for entry in recorded] == \
        [list(argv) for argv in CLI_INVOCATIONS]
    for entry in recorded:
        code, out, _ = _run(entry["argv"])
        assert (code, out) == (entry["code"], entry["stdout"]), entry["argv"]


@pytest.mark.parametrize("command", BATCH_COMMANDS, ids=" ".join)
def test_batch_commands_print_the_recorded_lines(command):
    # each pool descriptor run alone gives the line its batch recorded: a
    # JSON document on stdout, or one domain error on stderr
    recorded = golden_batch()[batch_key(command)]
    assert sorted(recorded) == sorted(BATCH_POOL)
    for desc, entry in recorded.items():
        reply = _run([*command, "--space", desc, "--format", "json"])
        expect = ((0, entry["out"], "") if entry["kind"] == "ok"
                  else (1, "", entry["out"]))
        assert reply == expect, desc


def test_projective_spaces_answer_without_tangent_data(monkeypatch):
    # the Riemann-Roch closed forms and the closed-form c1 leave the tangent
    # of CP, Q, CI, their twists and their products with S1 unbuilt
    def refuse(*args):
        raise AssertionError("tangent data built")
    monkeypatch.setattr(characteristic, "whitney_quotient", refuse)
    monkeypatch.setattr(characteristic, "a_hat", refuse)
    pool = [d for d in BATCH_POOL
            if d.startswith(("CP(", "Q(", "CI("))
            and (" * " not in d or d.endswith(" * S1"))]
    for command in BATCH_COMMANDS:
        recorded = golden_batch()[batch_key(command)]
        for desc in pool:
            entry = recorded[desc]
            expect = ((0, entry["out"], "") if entry["kind"] == "ok"
                      else (1, "", entry["out"]))
            reply = _run([*command, "--space", desc, "--format", "json"])
            assert reply == expect, (command, desc)


# -- README examples in a fresh interpreter ---------------------------------

#: the README's CLI examples, one or more per subcommand (the sweep shortened
#: from 200 lattices to 20), plus a primitive pushforward and two polytope
#: norms, which run the ellipsoid fit
_EXAMPLES = [
    ["catalog"],
    ["bound", "--space", "CP(3)", "--theorem", "prop5.1"],
    ["bound", "--space", "CP(3) * S1", "--theorem", "thm1.3"],
    ["bound", "--space", "CP(4)", "--theorem", "thm1.4"],
    ["bound", "--space", "Q(3)", "--theorem", "rbar", "--alpha", "pi*H"],
    ["length", "--space", "Q(4)"],
    ["index-poly", "--space", "CI(degrees=[[3]]; ambient=[4])"],
    ["todd", "--space", "CI(degrees=[[2],[3]]; ambient=[6])"],
    ["phi", "--space", "BlP(3)", "--alpha", "2*H - E"],
    ["phi-sup", "--space", "BlP(3)"],
    ["contractions", "--space", "CI(degrees=[[2,2]]; ambient=[3,3])"],
    ["bundle-profile", "--n", "3"],
    ["lattice", "--gram", "[[2,1],[1,2]]"],
    ["lattice", "--sweep", "20", "--min-rank", "2", "--max-rank", "4",
     "--seed", "7"],
    ["pushforward", "--k", "1", "--r", "2", "--j", "1"],
    ["pushforward", "--k", "2", "--r", "4", "--j", "2", "--primitive"],
    ["lattice", "--vertices", "[[1,0],[0,1],[-1,1],[-1,0],[0,-1],[1,-1]]"],
    ["lattice", "--vertices",
     "[[1,0,0],[0,1,0],[0,0,1],[-1,0,0],[0,-1,0],[0,0,-1]]"],
]

_REPLAY = r'''
import io, json, sys
import sysbound


def sysbound_modules():
    return sorted(m for m in sys.modules if m.startswith("sysbound."))


modules_after_import = sysbound_modules()
after_import = "sympy" in sys.modules
from sysbound.cli import run_command

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    results.append([run_command(argv, out=out, err=err), out.getvalue(),
                    sysbound_modules()])
print(json.dumps({"optimized": not __debug__,
                  "sympy_after_import": after_import,
                  "sympy_after_commands": "sympy" in sys.modules,
                  "numpy_after_commands": "numpy" in sys.modules,
                  "modules_after_import": modules_after_import,
                  "results": results}))
'''


def _child_env():
    """The environment with this checkout's package first on the path."""
    env = dict(os.environ)
    package_root = Path(sysbound.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")]))
    return env


def test_length_of_a_huge_projective_space_answers():
    # chi(CP(n), O(u)) is zero for u in [-n, -1], which holds the scan's
    # centre: the first twist read is the answer, with no 10^8 zeros first
    proc = subprocess.run([sys.executable, "-m", "sysbound", "length",
                           "--space", "CP(100000000)"], capture_output=True,
                          text=True, env=_child_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "space:   CP(100000000)\nlength:  100000001\n"


def _replay(flags, examples=_EXAMPLES):
    """Run ``examples`` in one fresh interpreter started with ``flags``;
    each result is the exit code, the output and the ``sysbound.*`` modules
    loaded so far."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _REPLAY, json.dumps(examples)],
        capture_output=True, text=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_runtime_never_imports_sympy():
    report = _replay([])
    assert report["sympy_after_import"] is False
    assert report["sympy_after_commands"] is False
    # the ellipsoid fit runs in plain floats: the runtime needs no numpy
    assert report["numpy_after_commands"] is False
    assert all(code == 0 for code, _, _ in report["results"])


def test_outputs_are_identical_under_optimize():
    report = _replay(["-O"])
    assert report["optimized"] is True
    for argv, (code, out, _) in zip(_EXAMPLES, report["results"]):
        expected_code, expected_out, _ = _run(argv)
        assert (code, out) == (expected_code, expected_out), argv


#: the package's engine modules; ``cli``, ``errors`` and ``values`` are not
_ENGINES = frozenset(("catalog", "characteristic", "cones", "engine", "graded",
                      "lattices", "pushforward", "roots"))
#: engines a cold process must not load, by subcommand; the subcommands that
#: build a space load neither the lattice nor the pushforward engine, and
#: the benchmark's spaces answer them without characteristic classes
_NOT_LOADED = {
    **dict.fromkeys(("bound", "length", "index-poly", "todd", "phi",
                     "phi-sup"),
                    frozenset(("characteristic", "lattices", "pushforward"))),
    "catalog": _ENGINES,
    "lattice": _ENGINES - {"lattices"},
    "pushforward": _ENGINES - {"pushforward"} | {"kernel"},
    "contractions": _ENGINES - {"cones", "roots"},
    "bundle-profile": _ENGINES - {"cones", "roots"},
}


#: a projective bundle answers these without characteristic classes, or
#: refuses them (exit 1: b2 = 2, no primitive class); only ``todd`` reads
#: its tangent
_PB_INVOCATIONS = tuple(
    (command, *options, "--space", "PB(degrees=[0,1,2]; genus=1)")
    for command, *options in (("bound", "--theorem", "thm1.1"), ("phi-sup",),
                              ("length",), ("index-poly",)))


def test_a_cold_process_loads_only_the_engine_its_subcommand_runs():
    # one fresh interpreter per benchmark invocation, so nothing accumulates
    for argv in CLI_INVOCATIONS + _PB_INVOCATIONS:
        report = _replay([], [list(argv)])
        assert report["modules_after_import"] == []  # bare ``import sysbound``
        [(code, _, modules)] = report["results"]
        refused = argv in _PB_INVOCATIONS and argv[0] in ("length", "index-poly")
        assert code == (1 if refused else 0), argv
        loaded = {m.split(".", 1)[1] for m in modules}
        assert {"cli", "errors", "values"} <= loaded
        forbidden = _NOT_LOADED.get(argv[0], {"lattices", "pushforward"})
        assert not loaded & forbidden, (argv, sorted(loaded & forbidden))


@pytest.mark.parametrize("argv", [
    ["bound", "--space", "CP(3)", "--theorem", "thm1.1", "--approx", "-1",
     "--format", "json"],
    ["bound", "--space", "CP(3)", "--theorem", "thm1.1", "--approx", "-2"],
    ["length", "--batch", "--approx", "-1"],
    ["lattice", "--gram", "[[2,1],[1,2]]", "--approx", "-3", "--format", "csv"],
])
def test_negative_approx_is_a_parse_error(argv):
    # two batch lines on stdin: the error is raised once, before either
    proc = subprocess.run([sys.executable, "-m", "sysbound", *argv],
                          input="CP(2)\nQ(3)\n", capture_output=True,
                          text=True, env=_child_env(), timeout=60)
    digits = argv[argv.index("--approx") + 1]
    assert proc.returncode == 2
    assert proc.stderr == "parse error: --approx %s is below 0 at offset 0\n" \
        % digits
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_zero_approx_adds_no_decimals():
    code, out, _ = _run(["bound", "--space", "CP(3)", "--theorem", "thm1.1",
                         "--approx", "0"])
    assert code == 0 and "~" not in out


# -- refusals: an empty intersection, values past the interpreter's limits ----


@pytest.fixture
def digit_limit():
    """The interpreter's default int/text digit limit, set for one test."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_an_empty_intersection_is_refused():
    message = ("error: the hypersurfaces do not meet: the product of their "
               "divisors vanishes on CP(1)xCP(5)\n")
    for argv in (["todd"], ["bound", "--theorem", "thm1.1"],
                 ["contractions"]):
        code, out, err = _run([*argv, "--space",
                               "CI(degrees=[[1,0],[1,0]]; ambient=[1,5])"])
        assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("desc, message", [
    ("CI(degrees=[[1,2]]; ambient=[3])", "each multidegree row needs 1 entries"),
    ("CI(degrees=[[-1]]; ambient=[3])", "multidegrees must be nonnegative"),
    ("CI(degrees=[[0]]; ambient=[3])",
     "each hypersurface needs a nonzero multidegree"),
])
def test_complete_intersection_rows_are_checked(desc, message):
    assert _run(["todd", "--space", desc]) == (1, "", "error: %s\n" % message)


_PAST_FLOAT = ["bound", "--theorem", "thm1.8", "--alpha", "1000000000*H",
               "--approx", "3"]
_TOO_LARGE = ("error: a result is too large to print: more than 4300 digits, "
              "or past the float range of a JSON _approx field\n")


def test_an_approximation_past_the_float_range_is_a_domain_error(
        monkeypatch, digit_limit):
    code, out, err = _run([*_PAST_FLOAT, "--space", "CP(40)", "--format",
                           "json"])
    assert (code, out, err) == (1, "", _TOO_LARGE)
    # float(q) is finite here, but q * pi^10 is not
    assert _run(["bound", "--theorem", "thm1.8", "--space", "CP(10)",
                 "--alpha", "%d*pi*H" % 10 ** 31, "--approx", "3",
                 "--format", "json"]) == (1, "", _TOO_LARGE)
    code, out, _ = _run([*_PAST_FLOAT, "--space", "CP(40)"])
    assert code == 0 and "(~ " in out  # the table prints its decimals
    # a batch answers the lines after it
    monkeypatch.setattr(sys, "stdin", io.StringIO("CP(40)\nCP(2)\n"))
    code, out, err = _run([*_PAST_FLOAT, "--batch", "--format", "json"])
    assert (code, err) == (1, _TOO_LARGE)
    assert out == _run([*_PAST_FLOAT, "--space", "CP(2)", "--format",
                        "json"])[1]


def _stdlib_json(text):
    """``text`` parsed and written again by ``json.dumps``, as a reply."""
    return json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n"


def test_json_replies_are_written_as_the_standard_library_writes_them():
    for command in BATCH_COMMANDS:
        for entry in golden_batch()[batch_key(command)].values():
            if entry["kind"] == "ok":
                assert entry["out"] == _stdlib_json(entry["out"])
        for desc in BATCH_POOL:  # with decimals
            code, out, _ = _run([*command, "--space", desc, "--format", "json",
                                 "--approx", "4"])
            assert code or out == _stdlib_json(out), desc
    for argv in (["lattice", "--gram", "[[2,1],[1,2]]"],
                 ["lattice", "--vertices", "[[1,0],[0,1],[-1,0],[0,-1]]"],
                 ["lattice", "--sweep", "5", "--seed", "3"],
                 ["pushforward", "--k", "2", "--r", "4", "--j", "2",
                  "--primitive"],
                 ["bundle-profile", "--degrees", "[0,2]", "--n", "3"]):
        code, out, _ = _run([*argv, "--format", "json", "--approx", "3"])
        assert code == 0 and out == _stdlib_json(out), argv


@pytest.mark.parametrize("value", [
    {}, [], [[]], [{}], {"a": [], "b": {}}, [[1, [2, []]], {"c": {"d": [3]}}],
    "plain", "d\u00e9j\u00e0 \u2211 \U0001d54f \u2028 \"q\" \\ \t\x7f\x00",
    {"\u043a\u043b\u044e\u0447": ["\u00fc", 1.5, -0.0, 1e16, 2.5e-7, True, False]},
    10 ** 40, -7, {"numerator": -3, "denominator": 4, "pi_exponent": 2},
])
def test_the_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2,
                                               allow_nan=False)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                   {"x_approx": [float("inf")]}])
def test_the_json_writer_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        cli._json_text(value)


def test_the_todd_genus_of_a_huge_projective_space_prints_at_once():
    proc = subprocess.run(
        [sys.executable, "-m", "sysbound", "todd", "--space", "CP(100000000)"],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "space:       CP(100000000)\ntodd_genus:  1\n"


_LONG = "1" * 5000


@pytest.mark.parametrize("argv, offset", [
    (["length", "--space", "CP(%s)" % _LONG], 3),
    (["length", "--space", "CP(2).twist(-%s)" % _LONG], 12),
    (["bound", "--theorem", "thm1.8", "--space", "CP(2)", "--alpha",
      "%s*H" % _LONG], 0),
    (["bound", "--theorem", "thm1.8", "--space", "CP(2)", "--alpha",
      "1/%s*H" % _LONG], 2),
    (["bound", "--theorem", "thm1.8", "--space", "CP(2)", "--alpha",
      "pi^%s*H" % _LONG], 3),
])
def test_an_integer_past_the_digit_limit_is_a_parse_error(argv, offset,
                                                          digit_limit):
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert err == ("parse error: integer exceeds the 4300-digit limit at "
                   "offset %d\n" % offset)


def test_a_batch_continues_past_a_long_integer(monkeypatch, digit_limit):
    monkeypatch.setattr(sys, "stdin", io.StringIO("CP(%s)\nCP(2)\n" % _LONG))
    code, out, err = _run(["length", "--batch"])
    assert (code, out) == (2, _run(["length", "--space", "CP(2)"])[1])
    assert err == "parse error: integer exceeds the 4300-digit limit at offset 3\n"


_BIG_TWIST = "CP(2).twist(%s)" % ("1" * 2200)


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_a_result_past_the_digit_limit_is_a_domain_error(fmt, monkeypatch,
                                                         digit_limit):
    # the coefficients of the index polynomial hold the square of the twist
    argv = ["index-poly", "--format", fmt]
    assert _run([*argv, "--space", _BIG_TWIST]) == (1, "", _TOO_LARGE)
    monkeypatch.setattr(sys, "stdin", io.StringIO(_BIG_TWIST + "\nCP(2)\n"))
    code, out, err = _run([*argv, "--batch"])
    assert (code, err) == (1, _TOO_LARGE)
    assert out == _run([*argv, "--space", "CP(2)"])[1]


def test_approx_past_the_digit_limit(monkeypatch, digit_limit):
    # refused once, before a batch reads a line
    monkeypatch.setattr(sys, "stdin", io.StringIO("CP(2)\nQ(3)\n"))
    assert _run(["length", "--batch", "--approx", "4301"]) == (
        2, "", "parse error: --approx 4301 exceeds the 4300-digit limit at "
               "offset 0\n")
    # at the limit, a value whose integer part adds digits is a domain error
    argv = ["bound", "--space", "CP(3)", "--theorem", "prop5.1", "--approx"]
    assert _run([*argv, "4300"]) == (1, "", _TOO_LARGE)
    code, out, _ = _run([*argv, "4297"])  # 48 pi = 150.79...: 4300 digits
    assert code == 0 and "(~ 150.7964473723" in out


# -- the README's documented values ------------------------------------------


def test_readme_cli_values():
    # every example line of the README's CLI block that ends in "# value"
    # prints each ", "-separated fragment of that value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    checked = 0
    for line in block.splitlines():
        command, _, values = line.partition(" #")
        if not values:
            continue
        code, out, err = _run(shlex.split(command)[1:])
        assert (code, err) == (0, ""), line
        for fragment in values.strip().split(", "):
            assert fragment in out, (line, fragment)
        checked += 1
    assert checked >= 9
