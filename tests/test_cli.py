"""Descriptor grammar, command dispatch, formats, exit codes."""

import argparse
import decimal
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sysbound
from batch_pool import (BATCH_COMMANDS, BATCH_POOL, CLI_INVOCATIONS,
                        batch_key, golden_batch, golden_cli)

import reply_dump
from reply_dump import ALPHA_TEXTS
from sysbound import (catalog, characteristic, cli, cones, grammar, graded,
                      values)
from sysbound.cli import (parse_alpha, parse_json_value, parse_space,
                          run_command)
from sysbound.grammar import AtomNode, ProductNode, TwistNode
from sysbound.engine import PiScaled
from sysbound.errors import CalculatorError, ParseError, RewrittenGenerator


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


def test_parse_alpha_expressions(ring_builds):
    # a class parses to its coordinates in the space's form, no ring built
    from sysbound.catalog import blowup_point, projective_space
    bl = blowup_point(3)
    assert parse_alpha(bl, "2*H - E") == ((2, -1), 0)
    cp2 = projective_space(2)
    assert parse_alpha(cp2, "pi*H") == ((1,), 1)
    vector, pi_exp = parse_alpha(cp2, "1/2*pi^2*H")
    assert vector == (Fraction(1, 2),) and pi_exp == 2
    with pytest.raises(ParseError):
        parse_alpha(cp2, "2*Z")
    # "-2" is one integer in a descriptor (genus=-1) but minus 2 here
    p1xp1 = catalog.product(projective_space(1), projective_space(1))
    assert parse_alpha(p1xp1, "H1 -2*H2") == ((1, -2), 0)
    # a class off degree 2 is None; a space without c1 has no form to read
    circle_product = catalog.product(projective_space(2), catalog.circle())
    assert parse_alpha(circle_product, "H + t") == (None, 0)
    assert parse_alpha(circle_product, "H + t - t") == ((), 0)
    assert ring_builds == []


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


def test_parse_alpha_refuses_a_ring_that_rewrites_a_generator():
    # with the rule a -> 3b the class a is 3b, of vector (3,) and phi 4;
    # read as its own monomial it would have vector (0,)
    ring = graded.make_ring(graded.RingPresentation(
        generators=[graded.Generator("a", 2, False),
                    graded.Generator("b", 2, False)],
        truncation=4, power_rules={"a": (1, {(0, 1): 3})},
        pairing={(0, 2): 1}))
    b = ring.gen("b")
    space = catalog.Space(name="m", family="hand", real_dim=4, b1=0, b2=1,
                          ring=ring, is_complex=True, complex_dim=2, c1=2 * b)
    assert cones._class_vector(space, ring.gen("a")) == (3,)
    assert cones.phi(space, ring.gen("a")) == 4
    for text in ("a", "b", "2*Z"):
        with pytest.raises(RewrittenGenerator, match=re.escape(
                "generator 'a' of m's ring is rewritten to 3*b by a power "
                "rule; a class expression reads each generator as itself")):
            parse_alpha(space, text)
    # a generator that a rule sends to zero is its own class, zero
    killed = catalog.Space(
        name="k", family="hand", real_dim=4, b1=0, b2=1, is_complex=True,
        complex_dim=2, ring=graded.make_ring(graded.RingPresentation(
            generators=[graded.Generator("b", 2, False),
                        graded.Generator("z", 2, False)],
            truncation=4, power_rules={"z": (1, {})}, pairing={(2, 0): 1})))
    assert killed.generators == (("b", 2), ("z", 2))


def _ring_parse_alpha(space, text):
    """The ring route the CLI parsed ``--alpha`` by, kept as the oracle:
    ``(class, pi exponent)``, the class built in the space's ring."""
    from sysbound.grammar import _CLASS_PUNCT, _Parser
    ring = space.require_ring()
    p = _Parser(text, _CLASS_PUNCT, " in class expression")
    total, pi_exponent = ring.zero(), None
    tok = p.peek()
    if tok.kind in ("+", "-"):
        p.next()
    while True:
        sign = -1 if tok.kind == "-" else 1
        coeff, pi_exp, name = Fraction(1), 0, None
        while p.peek().kind in ("INT", "NAME"):
            factor = p.next()
            if factor.kind == "INT":
                den = p.operand("/", "a denominator")
                if den is not None and int(den.text) == 0:
                    raise ParseError("zero denominator", den.pos)
                coeff *= Fraction(int(factor.text),
                                  1 if den is None else int(den.text))
            elif factor.text == "pi":
                power = p.operand("^", "an exponent")
                pi_exp += 1 if power is None else int(power.text)
            elif name is not None:
                raise ParseError("term has two generator names", factor.pos)
            else:
                name = factor.text
            if p.peek().kind != "*":
                break
            p.next()
        if name is None:
            raise ParseError("each term needs a degree-2 generator name",
                             p.peek().pos)
        if name not in ring.index:
            raise ParseError("unknown generator %r (ring has %s)" % (
                name, ", ".join(ring.gen_names())), p.peek().pos)
        if pi_exponent is None:
            pi_exponent = pi_exp
        elif pi_exponent != pi_exp:
            raise ParseError("all terms must carry the same power of pi",
                             p.peek().pos)
        total = total + sign * coeff * ring.gen(name)
        tok = p.next()
        if tok.kind == "END":
            return total, pi_exponent
        if tok.kind not in ("+", "-"):
            raise ParseError("unexpected token in class expression", tok.pos)


def _parsed(parse, space, text):
    """``parse(space, text)``, or its ParseError's text and offset."""
    try:
        return parse(space, text)
    except ParseError as exc:
        return str(exc), exc.position


#: the pool, its products with a sphere (S1, S(2), S(3) and S(4) in turn),
#: and a twist and products of models and bundles
_ALPHA_SPACES = list(BATCH_POOL) + [
    "%s * %s" % (desc, ("S1", "S(2)", "S(3)", "S(4)")[i % 4])
    for i, desc in enumerate(BATCH_POOL)] + [
    "CP(2).twist(1)", "S(2) * S(2)", "S1 * S1 * CP(1)", "CP(1) * CP(1)",
    "BlP(2) * CP(1)", "PB(degrees=[0,1]; genus=1) * CP(2)"]

#: ``ALPHA_TEXTS`` and texts that name odd and sphere generators, cancel,
#: or are malformed
_ORACLE_TEXTS = ALPHA_TEXTS + (
    "t", "x", "v", "H + t", "H + t - t", "2*H - 2*H", "H1 + x", "-1/3*H2",
    "xi - xi + f", "H1 + H2 + H3", "E", "2*Z", "pi*H - E", "H*E", "1/0*H")


def test_alpha_vectors_match_the_ring_parsed_classes(ring_builds):
    # the vector route on a fresh space, the ring route on another; a
    # refusal is the same text at the same offset, and an answer is the
    # ring class's vector as the evaluators read it
    compared = set()
    for desc in _ALPHA_SPACES:
        for text in _ORACLE_TEXTS:
            got = _parsed(parse_alpha, parse_space(desc).build(), text)
            assert ring_builds == [], (desc, text)
            space = parse_space(desc).build()
            want = _parsed(_ring_parse_alpha, space, text)
            if isinstance(want[0], graded.GradedClass):
                want = (cones._class_vector(space, want[0]), want[1])
                compared.add("none" if want[0] is None else
                             "empty" if want[0] == () else "vector")
            assert got == want, (desc, text)
            del ring_builds[:]
    assert compared == {"none", "empty", "vector"}


def test_the_default_class_is_the_recorded_primitive_vector(ring_builds):
    for desc in _ALPHA_SPACES:
        try:
            got = grammar._default_alpha(parse_space(desc).build())
        except CalculatorError as exc:
            got = str(exc)
        assert ring_builds == [], desc
        space = parse_space(desc).build()
        want = str(CalculatorError("no default class on %s; pass --alpha "
                                   "explicitly" % space.name)) \
            if space.primitive_x is None else \
            (cones._class_vector(space, space.primitive_x), 1)
        assert got == want, desc
        del ring_builds[:]


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


def _pi_reference(digits):
    """pi to ``digits`` significant digits as a Fraction, by the recipe in
    the ``decimal`` module's documentation."""
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
        return Fraction(+s)


_PI_200 = _pi_reference(200)


def _reference_decimal(q, k, places):
    """q * pi^k to ``places`` decimals, rounded half-even from q times a
    200-digit pi: right unless the value lies within about 10^-150 of a
    rounding boundary."""
    scaled = round(q * _PI_200 ** k * 10 ** places)
    text = str(abs(scaled)).rjust(places + 1, "0")
    if places:
        text = text[:-places] + "." + text[-places:]
    return "-" + text if q < 0 else text


def test_pi_bounds_enclose_pi():
    pi = _pi_reference(250)
    for bits in range(1, 700):
        lo, hi = values._pi_bounds(bits)
        assert lo <= pi * 2 ** bits <= hi and hi - lo <= 2, bits


def test_decimal_text_matches_a_200_digit_reference():
    rng = random.Random(31)
    for _ in range(3000):
        q = Fraction(rng.randint(-10 ** rng.randint(0, 12),
                                 10 ** rng.randint(0, 12)),
                     rng.randint(1, 10 ** rng.randint(0, 8)))
        k, places = rng.randint(-4, 4), rng.randint(0, 40)
        assert values.decimal_text(q, k, places) == \
            _reference_decimal(q, k, places), (q, k, places)


def test_a_near_tie_refines_the_pi_enclosure(monkeypatch):
    # q pi lies within about 10^-295 of 1.00005, the midpoint of two
    # 4-place decimals; a 400-digit pi tells which side
    midpoint = Fraction(100005, 100000)
    q = midpoint / _pi_reference(300)
    above = q * _pi_reference(400) > midpoint
    precisions = []
    pi_bounds = values._pi_bounds
    monkeypatch.setattr(values, "_pi_bounds", lambda bits: (
        precisions.append(bits), pi_bounds(bits))[1])
    assert values.decimal_text(q, 1, 4) == ("1.0001" if above else "1.0000")
    assert len(precisions) > 1
    assert precisions == [precisions[0] * 2 ** i
                          for i in range(len(precisions))]


def test_a_decimal_past_the_digit_limit_is_refused_before_pi(monkeypatch,
                                                            digit_limit):
    # pi^100000 has 49,715 integer digits; str() would refuse them
    def no_pi(bits):
        raise AssertionError("pi enclosed at %d bits" % bits)
    monkeypatch.setattr(values, "_pi_bounds", no_pi)
    with pytest.raises(ValueError, match="more than 4300 digits"):
        values.decimal_text(Fraction(1), 100000, 3)
    code, out, err = _run(["bound", "--theorem", "thm1.8", "--space", "CP(1)",
                           "--alpha", "pi^100000*H", "--approx", "3"])
    assert (code, out) == (1, "")
    assert err.startswith("error: a result is too large to print")


@pytest.mark.parametrize("space, alpha, places, text", [
    ("CP(2)", "25*pi*H", 12, "3084.251375340425"),  # 625/2 pi^2
    ("CP(3)", "6*pi*H", 12, "1116.225960490794"),  # 36 pi^3
    ("CP(3)", "16*pi*H", 11, "21166.95154708468")])  # 2048/3 pi^3
def test_json_approx_is_the_float_of_the_table_decimal(space, alpha, places,
                                                        text):
    # values whose JSON _approx, when it was rounded in floats as
    # round(q * math.pi ** k, places), missed the table's last digit
    argv = ["bound", "--theorem", "thm1.8", "--space", space, "--alpha",
            alpha, "--approx", str(places)]
    code, out, _ = _run(argv)
    assert code == 0 and out.endswith("   (~ %s)\n" % text)
    code, out, _ = _run(argv + ["--format", "json"])
    assert json.loads(out)["volume_approx"] == float(text)


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


# -- a subcommand's process parses with that subcommand's parser alone -------


def _parser_inputs(command):
    """``--help``, the subcommand alone (missing its required options where
    it has any), an invalid ``--format`` and a trailing unrecognized
    argument after the benchmark's invocation of ``command``."""
    [valid] = [list(argv) for argv in CLI_INVOCATIONS if argv[0] == command]
    return ([command, "--help"], [command], [command, "--format", "xml"],
            valid + ["extra"])


def _parses(argv, capsys, monkeypatch, full):
    """``(parser built, code, stdout, stderr)`` of ``run_command(argv)`` on
    the process's streams, where argparse writes help, usage and errors;
    with ``full``, every run builds the parser of all subcommands."""
    build = cli._build_parser
    built = []

    def spy(command=None):
        built.append(command)
        return build(None if full else command)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_build_parser", spy)
        code = run_command(argv)
    return (built, code) + capsys.readouterr()


@pytest.mark.parametrize("command", list(cli._DISPATCH))
def test_one_subparser_replies_as_the_full_parser(command, capsys,
                                                  monkeypatch):
    for argv in _parser_inputs(command):
        one = _parses(argv, capsys, monkeypatch, full=False)
        full = _parses(argv, capsys, monkeypatch, full=True)
        assert one[0] == [command], argv
        assert one[1:] == full[1:], argv
        assert one[1] in (0, 2) and (one[2] or one[3]), argv
    # the last input's trailing argument is the top-level parser's error,
    # printed under the top-level usage
    assert "usage: sysbound [-h]\n" in one[3]
    assert one[3].endswith("error: unrecognized arguments: extra\n")


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h", "length"],
                                  ["bogus"]])
def test_without_a_leading_subcommand_the_full_parser_replies(argv, capsys,
                                                              monkeypatch):
    reply = _parses(argv, capsys, monkeypatch, full=False)
    assert reply[0] == [None]
    assert reply == _parses(argv, capsys, monkeypatch, full=True)
    assert reply[1] == (0 if "-h" in argv or "--help" in argv else 2)


def test_dispatch_and_parser_name_the_same_subcommands():
    # a subcommand missing from either table would split the two parsers
    full = cli._build_parser()
    [action] = [a for a in full._actions
                if isinstance(a, argparse._SubParsersAction)]
    assert list(action.choices) == list(cli._DISPATCH)
    for command in cli._DISPATCH:
        assert cli._build_parser(command).format_usage() == \
            full.format_usage()


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
    names = {node: set(vars(space)) for node, space in spaces.items()}
    assert any(isinstance(node, ProductNode) for node in spaces)
    assert any(isinstance(node, TwistNode) for node in spaces)
    parser = cli._build_parser()
    for command in BATCH_COMMANDS:
        for desc in _LEAD + BATCH_POOL:
            args = parser.parse_args([*command, "--space", desc])
            cli._reply(cli._DISPATCH[args.command], args)
    assert built.keys() == spaces.keys()
    assert all(built[n] is s for n, s in spaces.items())
    kept = {"tangent", "a_hat_cls", "todd_cls", "form", "generators", "q0",
            "todd", "top_pairing", "index_pairing"}
    for node, space in spaces.items():
        for name, value in before[node].items():
            assert getattr(space, name) is value, (node.unparse(), name)
        assert set(vars(space)) - names[node] <= kept, node.unparse()
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


def _golden_replies() -> dict:
    """``tests/golden_replies.txt``: block -> (SHA-256 of the block's dump
    text, number of runs), as ``reply_dump.digests`` gives them."""
    out = {}
    path = Path(__file__).resolve().parent / "golden_replies.txt"
    for line in path.read_text().splitlines():
        digest, command, theorem, fmt, count = line.split()
        out["%s %s %s" % (command, theorem, fmt)] = (digest, int(count))
    return out


def test_every_dump_block_prints_the_recorded_replies():
    # every reply of tests/reply_dump.py, one digest per block of runs (one
    # subcommand, --theorem and --format); an output changed on purpose
    # re-records the file with ``reply_dump.py --digests``
    recorded, now = _golden_replies(), reply_dump.digests()
    differ = [key for key in recorded.keys() | now.keys()
              if recorded.get(key) != now.get(key)]
    assert not differ, "blocks whose replies differ from the record: %s" % (
        ", ".join(sorted(differ)))


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


# -- projective models: integer replies build no ring -------------------------

#: every CP, Q and CI of the pool and its twists by -2, -1 and 1 (a twist of
#: a space without a primitive class is refused as it is built)
_PROJECTIVE = [variant for d in BATCH_POOL
               if d.startswith(("CP(", "Q(", "CI(")) and " * " not in d
               for variant in (d, d + ".twist(-2)", d + ".twist(-1)",
                               d + ".twist(1)")]


@pytest.fixture
def ring_builds(monkeypatch):
    """The presentation of each ``graded.Ring`` built, in order."""
    built = []
    init = graded.Ring.__init__

    def counted(ring, presentation):
        built.append(presentation)
        init(ring, presentation)
    monkeypatch.setattr(graded.Ring, "__init__", counted)
    return built


#: the pool's products and S1 * CP(n): their integers answer, as their
#: factors' do
_PRODUCTS = [d for d in BATCH_POOL if " * " in d] + [
    "S1 * CP(%d)" % n for n in (1, 2, 3, 5)]


@pytest.mark.parametrize("command", [("todd",), ("length",), ("index-poly",),
                                     ("bound", "--theorem", "thm1.1"),
                                     ("bound", "--theorem", "thm1.3")])
def test_closed_form_replies_build_no_ring(command, ring_builds):
    # thm1.3 splits X * N and reads a sphere N's index pairing off its
    # dimension
    codes = set()
    for desc in _PROJECTIVE + _PRODUCTS:
        code, out, err = _run([*command, "--space", desc])
        assert (code, bool(out), bool(err)) in ((0, True, False),
                                                 (1, False, True)), desc
        assert ring_builds == [], desc
        codes.add(code)
    assert codes == {0, 1}


def test_no_batch_reply_builds_a_ring(ring_builds):
    # one pass of the integer replies and phi-sup over the pool: every
    # space answers from its integers or its intersection form or is
    # refused on them; a PB's Todd genus is 1 - g
    built = {}
    for command in (("todd",), ("length",), ("index-poly",),
                    ("bound", "--theorem", "thm1.1"), ("phi-sup",)):
        for desc in BATCH_POOL:
            _run([*command, "--space", desc])
            if ring_builds:
                built[command[0], desc] = len(ring_builds)
            del ring_builds[:]
    assert built == {}


def test_no_catalog_reply_builds_a_ring(ring_builds):
    # every subcommand on every pool descriptor: phi and the --alpha
    # selectors read the class's coordinates off the text and the default
    # class off the form
    commands = list(BATCH_COMMANDS) + [("phi-sup",), ("contractions",)] + [
        ("bound", "--theorem", theorem) for theorem in values.SELECTORS
        + tuple(cli._ALPHA_SELECTORS)] + [
        ("phi", "--alpha", text) for text in ALPHA_TEXTS] + [
        ("bound", "--theorem", theorem, "--alpha", text)
        for theorem in cli._ALPHA_SELECTORS for text in ALPHA_TEXTS]
    codes = set()
    for command in commands:
        for desc in BATCH_POOL:
            codes.add(_run([*command, "--space", desc])[0])
            assert ring_builds == [], (command, desc)
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("factor", ["CP(3)", "Q(4)", "CP(2).twist(1)"])
def test_circle_on_either_side_gives_the_same_reply(factor, ring_builds):
    # <t, [S1]> = 1: S1 * X and X * S1 both take X's Koszul data
    for command in ("index-poly", "length"):
        left, right = (_run([command, "--space", desc])
                       for desc in ("S1 * " + factor, factor + " * S1"))
        assert left[0] == right[0] == 0 and left[2] == right[2] == ""
        assert left[1].split("\n")[1:] == right[1].split("\n")[1:]
        assert left[1].split("\n")[0].split(None, 1) == [
            "space:", "S1 * " + factor]
    assert ring_builds == []


def test_thm1_3_reads_the_top_pairing_from_the_rows(ring_builds):
    # <u^n, [X]> != 0 is the degree of X, read from its rows
    for desc, bound in (("CP(3)", "48 * pi"), ("Q(4)", "80 * pi"),
                        ("CI(degrees=[[3]]; ambient=[5])", "80 * pi")):
        assert _run(["bound", "--theorem", "thm1.3", "--space", desc]) == (
            0, "space:    %s\ntheorem:  thm1.3\nbound:    %s\n"
            % (desc, bound), "")
    assert ring_builds == []


_VANISHING = ("error: the factor %s has vanishing index pairing "
              "<eta e^(c/2) A-hat(TN), [N]>\n")


#: projective bundles and point blowups: b2 = 2 refuses them from integers
_TWO_RAYS = ("PB(degrees=[0,1]; genus=0)", "PB(degrees=[1,1,1,1]; genus=2)",
             "BlP(2)", "BlP(7)")


@pytest.mark.parametrize("theorem, desc, err", [
    # an odd N without its degree-1 class is refused before its A-hat class
    # is read: neither X's ring (its rows answer) nor the sphere's is built
    *(("thm1.3", desc, _VANISHING % desc.split(" * ")[1]) for desc in (
        "CP(2) * S(3)", "CP(3) * S(5)", "Q(4) * S(3)", "Q(3) * S(3)")),
    # X = CP(2) * S1 has the rows of CP(2), and <t u^2, [X]> = 1 is read
    # from them
    ("thm1.3", "CP(2) * S1 * S(2)", "error: b2(N) = 0 is required so that "
     "b2(X x N) = 1 (got b2 = 1 on S(2))\n"),
    # b2 = 2 on a projective bundle or a blowup is read off its integers
    *(("thm1.3", desc, "error: %s must have b2 = 1 with a degree-2 class u, "
       "u^n nonzero\n" % desc.replace(",", ", ")) for desc in _TWO_RAYS),
    *(("thm5.6", desc, "error: the index-refined bound needs X diffeomorphic "
       "to a Fano manifold with b2 = 1 and recorded Fano index\n")
      for desc in _TWO_RAYS)])
def test_thm1_3_refusals_build_no_ring(theorem, desc, err, ring_builds):
    assert _run(["bound", "--theorem", theorem, "--space", desc]) == (
        1, "", err)
    assert ring_builds == []


def test_phi_sup_builds_no_ring(ring_builds):
    # every reply, an answer or a refusal, is read off the space's integers
    # and its intersection form; a model without a nef cone is refused
    answered = 0
    for desc in _PROJECTIVE + list(BATCH_POOL):
        code, _, err = _run(["phi-sup", "--space", desc])
        answered += code == 0
        if code and desc in _PROJECTIVE:
            assert "no recorded nef-cone" in err or "twisting" in err, desc
        assert ring_builds == [], (desc, err)
    assert answered == 186 + 66  # the projective variants, then the pool


#: a nested product, and products of a PB and a BlP with the circle
_CYCLE_EXTRA = ("CP(2) * S(2) * S1", "BlP(3) * S1",
                "PB(degrees=[0,1]; genus=1) * S1")

_NO_CYCLES = r'''
import gc, json
from batch_pool import BATCH_POOL
from sysbound import catalog
from sysbound.cli import parse_space

EXTRA = %r
collected = []
gc.collect()
gc.disable()
try:
    for desc in BATCH_POOL + EXTRA:
        space = parse_space(desc).build()
        del space
        collected.append([desc, gc.collect()])
        space = parse_space(desc).build()
        twisted = (catalog.twist_spin_c(space, 1)
                   if space.b2 == 1 and not space.lacks("primitive_x")
                   else space)
        repr(twisted), repr(space), space.tangent, space.a_hat_cls
        if not space.lacks("ring"):
            space.ring, space.c1, space.nef_rays
        del space, twisted
        collected.append([desc, gc.collect()])
finally:
    gc.enable()
print(json.dumps([collected, len(gc.garbage)]))
''' % (_CYCLE_EXTRA,)


def test_dropped_spaces_leave_no_reference_cycles():
    # a space, its twists, its factors and their recipes refer to one
    # another in one direction only, so reference counting frees them: the
    # cycle collector finds nothing, whether the ring was built or not, on
    # the pool and on ``_CYCLE_EXTRA``.  A fresh process, so each collection
    # walks this check's heap and not the suite's.
    env = _child_env()
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-c", _NO_CYCLES],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    collected, garbage = json.loads(proc.stdout)
    assert [desc for desc, _ in collected] == [
        desc for desc in BATCH_POOL + _CYCLE_EXTRA for _ in range(2)]
    assert [(desc, found) for desc, found in collected if found] == []
    assert garbage == 0


#: the Baseline's complete intersection of m = 12 random 0/1 rows (seeded
#: with random.seed(12), a zero row given a 1 at a random factor) in 12
#: copies of CP(2): the whole product of its divisors took seconds
_LARGE_CI = (
    "CI(degrees=[[1,1,1,0,1,0,1,1,1,1,0,0],[0,1,1,0,1,0,0,0,0,1,1,0],"
    "[0,0,0,0,1,1,0,1,0,1,0,0],[0,0,1,1,1,1,1,0,0,0,1,1],"
    "[1,1,1,0,1,0,1,1,1,0,0,1],[1,0,0,0,1,0,1,0,0,0,0,0],"
    "[1,0,1,1,1,1,0,1,1,0,1,1],[1,1,1,0,0,1,1,0,0,0,0,1],"
    "[1,0,0,0,0,0,0,1,0,0,1,1],[0,0,1,1,1,1,1,0,1,1,0,1],"
    "[1,1,0,1,1,0,0,0,0,1,1,0],[0,0,1,1,0,1,0,1,1,0,1,0]]; "
    "ambient=[2,2,2,2,2,2,2,2,2,2,2,2])")

_TIMED = r'''
import io, json, sys, time
from sysbound.cli import run_command
replies = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = run_command(argv, out=out, err=err)
    replies.append([code, out.getvalue(), err.getvalue(),
                    time.perf_counter() - start])
print(json.dumps(replies))
'''


def test_a_large_complete_intersection_answers_from_its_rows():
    # todd reads the Koszul sum and phi-sup refuses b2 = 12 before any
    # ring is built; each takes well under half a second
    random.seed(12)
    rows = [[random.randint(0, 1) for _ in range(12)] for _ in range(12)]
    assert all(any(row) for row in rows)
    assert _LARGE_CI.startswith("CI(degrees=%s;" % json.dumps(
        rows, separators=(",", ":")))
    argvs = [["todd", "--space", _LARGE_CI], ["phi-sup", "--space", _LARGE_CI]]
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED, json.dumps(argvs)],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    (todd_code, todd_out, _, todd_s), (sup_code, _, sup_err, sup_s) = \
        json.loads(proc.stdout)
    assert (todd_code, todd_out.splitlines()[-1]) == (
        0, "todd_genus:  393694619419")
    assert (sup_code, sup_err) == (
        1, "error: nef-cone optimization is catalogued for Picard rank <= 2 "
           "only (b2 = 12)\n")
    assert todd_s < 0.5 and sup_s < 0.5, (todd_s, sup_s)


#: complete intersections in CP(4)xCP(4) and CP(5)xCP(5) whose critical
#: equations have large coefficients: a trial-division search for their
#: rational roots took from one to five seconds
_LARGE_COEFFICIENT_CIS = (
    "CI(degrees=[[3,2],[4,7],[4,7],[7,4]]; ambient=[4,4])",
    "CI(degrees=[[3,2],[4,7],[4,7],[7,4],[9,5]]; ambient=[5,5])",
    "CI(degrees=[[31,2],[4,37],[4,7],[7,4]]; ambient=[4,4])")


def test_phi_sup_with_large_coefficients_answers_quickly():
    # after one reply that loads the cone engine, each answers within 50 ms
    argvs = [["phi-sup", "--space", desc]
             for desc in ("CP(2)",) + _LARGE_COEFFICIENT_CIS]
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED, json.dumps(argvs)],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    for desc, (code, out, err, seconds) in zip(
            _LARGE_COEFFICIENT_CIS, json.loads(proc.stdout)[1:]):
        assert (code, out, err) == (
            0, "space:    %s\nphi_sup:  0\n" % desc, ""), desc
        assert seconds < 0.05, (desc, seconds)


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
_ENGINES = frozenset(("catalog", "characteristic", "cones", "engine", "forms",
                      "graded", "lattices", "pushforward", "roots"))
#: engines a cold process must not load, by subcommand; the subcommands that
#: build a space load neither the lattice nor the pushforward engine, the
#: benchmark's spaces answer them without rings or characteristic classes,
#: only the volume functional reads an intersection form, and only a
#: polynomial or the cone engine needs ``roots``
_NOT_LOADED = {
    **dict.fromkeys(("bound", "length", "todd"),
                    frozenset(("characteristic", "forms", "graded",
                               "lattices", "pushforward", "roots"))),
    "index-poly": frozenset(("characteristic", "forms", "graded", "lattices",
                             "pushforward")),
    **dict.fromkeys(("phi", "phi-sup"),
                    frozenset(("characteristic", "graded", "lattices",
                               "pushforward"))),
    "catalog": _ENGINES,
    "lattice": _ENGINES - {"lattices"},
    "pushforward": _ENGINES - {"pushforward"} | {"kernel"},
    "contractions": _ENGINES - {"cones", "roots"},
    "bundle-profile": _ENGINES - {"cones", "roots"},
}


#: a projective bundle answers these without characteristic classes, or
#: refuses them (exit 1: b2 = 2, no primitive class); ``todd`` reads its
#: genus and reads no form
_PB_INVOCATIONS = tuple(
    (command, *options, "--space", "PB(degrees=[0,1,2]; genus=1)")
    for command, *options in (("bound", "--theorem", "thm1.1"), ("phi-sup",),
                              ("length",), ("index-poly",), ("todd",)))


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


def _encoded(value):
    """A reply value as the JSON writer encodes it: an exact number as a
    {numerator, denominator, pi_exponent} object, a sequence item by item,
    a string or a boolean as itself, anything else as its ``str``."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        value = PiScaled(Fraction(value), 0)
    if isinstance(value, PiScaled):
        return {"numerator": value.q.numerator,
                "denominator": value.q.denominator, "pi_exponent": value.k}
    if isinstance(value, (list, tuple)):
        return [_encoded(v) for v in value]
    return value if isinstance(value, (str, bool)) else str(value)


def _payload(rows, approx):
    """The object a JSON reply holds: each label mapped to its value's
    encoding and, with ``approx``, each exact number's label plus
    ``_approx`` to the float of its decimal text at that many places."""
    payload = {}
    for key, value in rows:
        payload[key] = _encoded(value)
        number = _encoded(value) if approx else None
        if isinstance(number, dict):
            q = Fraction(number["numerator"], number["denominator"])
            payload[key + "_approx"] = float(
                PiScaled(q, number["pi_exponent"]).decimal_str(approx))
    return payload


_PI = PiScaled(Fraction(1), 1)

#: reply rows of each kind of value a handler returns
_JSON_ROWS = [
    [],
    [("space", "CP(3)"), ("length", Fraction(4))],
    [("bound", PiScaled(Fraction(-7, 3), 2)), ("zero", PiScaled(Fraction(0), 3)),
     ("pi", _PI), ("int", -7), ("big", 10 ** 40), ("half", Fraction(1, 2))],
    [("coefficients", [Fraction(1), Fraction(-3, 4), 0]),
     ("empty", []), ("nested", [[], [1, [_PI, "x"]], ()]),
     ("tuple", (Fraction(2), "two"))],
    [("fano", True), ("k_negative", False), ("polynomial", object()),
     ("float", 1.5), ("none", None)],
    [("plain", "d\u00e9j\u00e0 \u2211 \U0001d54f \u2028 \"q\" \\ \t\x7f\x00"),
     ("\u043a\u043b\u044e\u0447", "\u00fc")],
]


@pytest.mark.parametrize("approx", [None, 0, 3, 12])
@pytest.mark.parametrize("rows", _JSON_ROWS)
def test_the_json_writer_matches_json_dumps(rows, approx):
    assert cli._render(rows, "json", approx) == json.dumps(
        _payload(rows, approx), indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("value", [
    PiScaled(Fraction(10 ** 300), 60),  # finite q, infinite q * pi^k
    Fraction(10 ** 400, 3), 10 ** 400])  # q past the float range
def test_the_json_writer_refuses_values_past_the_float_range(value):
    rows = [("space", "CP(1)"), ("value", value)]
    assert json.loads(cli._render(rows, "json", None))["value"]
    with pytest.raises((ValueError, OverflowError)):
        json.dumps(_payload(rows, 3), allow_nan=False)
    with pytest.raises(CalculatorError, match="too large to print"):
        cli._render(rows, "json", 3)


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
