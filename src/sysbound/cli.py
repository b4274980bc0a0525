"""Command-line frontend.

A small LL(1) parser turns descriptor strings such as ``CP(3) * S1`` or
``CI(degrees=[[2,3]]; ambient=[5])`` into catalog constructors.  One tokenizer
and one parser class serve both descriptors and ``--alpha`` class expressions
such as ``1/2*pi^2*H - E``.  Only the punctuation differs, and with it the
reading of ``-``: directly before a digit it starts a negative integer in a
descriptor (``genus=-1``), but in a class expression it is always the minus
operator (``H1 -2*H2`` is H1 - 2*H2).  Results are printed exactly (``q * pi^k``);
decimals appear only with ``--approx`` and are labeled approximate.  Exit
codes: 0 success, 1 domain error, 2 usage error.

A run is a value.  Each subcommand handler maps its arguments to rows
(label, value), and a space subcommand is handed its parsed descriptor; one
``_render`` turns rows into the text of ``--format``; and one ``_reply``
turns a run into ``(exit code, stdout text, stderr text)``, mapping a parse
error to 2 and a domain error to 1.  ``run_command`` only writes the replies:
the ``--approx`` check's, then one run's, or one per ``--batch`` line.  A
reply depends on its line alone, so a batch keeps each line's reply and a
repeated line replays it, errors included; nothing else is shared between
lines.

Each subcommand imports the engine it runs on first use, so one process loads
only the modules its subcommand calls: ``lattice --gram`` never loads the
catalog, and ``catalog`` loads no engine.  No data class generates code at
import (they are plain classes on ``values.Record``), and ``json`` loads only
where JSON is written (``--format json``, a list argument in a descriptor)
or read (``--gram``, ``--vertices``, ``--basis``, ``--degrees``).
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .errors import CalculatorError, ParseError, ValueTooLarge
from .values import SELECTORS, PiScaled, Record

# ---------------------------------------------------------------------------
# tokens and parser, shared by descriptors and class expressions
# ---------------------------------------------------------------------------

_PUNCT = ("(", ")", "[", "]", ",", ";", "=", "*", ".")
_CLASS_PUNCT = ("+", "-", "*", "/", "^", "(", ")")


#: the most digits the interpreter converts between an int and text; 0: none
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


class Token(Record, frozen=False):
    __slots__ = ("kind", "text", "pos")  # kind: NAME, INT, punctuation, END

    def __init__(self, kind: str, text: str, pos: int):
        self.kind, self.text, self.pos = kind, text, pos


def _tokenize(text: str, punct=_PUNCT, where=""):
    """Tokens of ``text``: each character of ``punct``, names and integers.
    A ``-`` before a digit starts a negative integer unless ``-`` is in
    ``punct``; ``where`` ends the message for an unexpected character."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in punct:
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        # isdecimal, not isdigit: int() rejects digits such as "²"
        if ch.isdecimal() or (ch == "-" and i + 1 < len(text)
                              and text[i + 1].isdecimal()):
            j = i + 1
            while j < len(text) and text[j].isdecimal():
                j += 1
            if 0 < _digit_limit() < j - i - (ch == "-"):
                raise ParseError("integer exceeds the %d-digit limit"
                                 % _digit_limit(), i)
            tokens.append(Token("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r%s" % (ch, where), i)
    tokens.append(Token("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, punct=_PUNCT, where=""):
        self.tokens = _tokenize(text, punct, where)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, text=None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ParseError("unexpected %r" % (tok.text or "end of input"),
                             tok.pos, expected=(text or kind,))
        return self.next()

    def operand(self, op, what):
        """The INT token after an ``op`` token, or None when the next token
        is not ``op``; anything else after ``op`` is "expected <what>"."""
        if self.peek().kind != op:
            return None
        self.next()
        tok = self.next()
        if tok.kind != "INT":
            raise ParseError("expected " + what, tok.pos)
        return tok

    def integer(self) -> int:
        return int(self.expect("INT").text)

    def bracketed(self, item):
        """``[item, ...]`` as a tuple, possibly empty."""
        self.expect("[")
        out = []
        if self.peek().kind != "]":
            out.append(item())
            while self.peek().kind == ",":
                self.next()
                out.append(item())
        self.expect("]")
        return tuple(out)

    def int_list(self):
        return self.bracketed(self.integer)

    def int_matrix(self):
        return self.bracketed(self.int_list)


# descriptor AST -----------------------------------------------------------


class _Constructor(Record):
    """One descriptor constructor: how it parses, checks, makes and prints.

    ``params`` are ``(keyword or None, _Parser method, least, message)``,
    written in order and separated by ``;``.  An argument below ``least``
    (an integer's value, a list's length) is reported with ``message``; the
    first such argument wins.  ``fn`` is looked up in ``catalog`` at build
    time, so a rebound catalog function (a tracer's wrapper) is the one
    called.  ``alias_of`` names the ``(name, args)`` node this spelling
    stands for; that node prints as the alias.
    """

    def __init__(self, name: str, fn: str | None = None, params: tuple = (),
                 alias_of: tuple | None = None):
        self.__dict__.update(name=name, fn=fn, params=params,
                             alias_of=alias_of)


_CI_EMPTY = "CI needs nonempty degrees and ambient"

_CONSTRUCTORS = {row.name: row for row in (
    _Constructor("CP", "projective_space",
                 ((None, "integer", 1, "CP needs n >= 1"),)),
    _Constructor("Q", "quadric", ((None, "integer", 2, "Q needs n >= 2"),)),
    _Constructor("S", "sphere", ((None, "integer", 1, "S needs k >= 1"),)),
    _Constructor("S1", alias_of=("S", (1,))),
    _Constructor("CI", "complete_intersection",
                 (("degrees", "int_matrix", 1, _CI_EMPTY),
                  ("ambient", "int_list", 1, _CI_EMPTY))),
    _Constructor("PB", "proj_bundle_over_curve",
                 (("degrees", "int_list", 2, "PB needs at least two degrees"),
                  ("genus", "integer", 0, "PB needs genus >= 0"))),
    _Constructor("BlP", "blowup_point",
                 ((None, "integer", 2, "BlP needs n >= 2"),)),
)}


class AtomNode(Record):
    """A catalog constructor applied to its arguments (ints and tuples)."""

    def __init__(self, name: str, args: tuple):
        self.__dict__.update(name=name, args=args)

    def build(self) -> Space:
        from . import catalog
        return getattr(catalog, _CONSTRUCTORS[self.name].fn)(*self.args)

    def unparse(self) -> str:
        for row in _CONSTRUCTORS.values():
            if row.alias_of == (self.name, self.args):
                return row.name
        fields = []
        for (keyword, _, _, _), value in zip(_CONSTRUCTORS[self.name].params,
                                             self.args):
            if isinstance(value, tuple):  # compact JSON: [1,2] or [[2],[3]]
                import json
                value = json.dumps(value, separators=(",", ":"))
            fields.append(("" if keyword is None else keyword + "=") + str(value))
        return "%s(%s)" % (self.name, "; ".join(fields))


class TwistNode(Record):
    def __init__(self, inner, k: int):
        self.__dict__.update(inner=inner, k=k)

    def build(self) -> Space:
        from . import catalog
        return catalog.twist_spin_c(self.inner.build(), self.k)

    def unparse(self) -> str:
        return "%s.twist(%d)" % (self.inner.unparse(), self.k)


class ProductNode(Record):
    def __init__(self, left, right):
        self.__dict__.update(left=left, right=right)

    def build(self) -> Space:
        from . import catalog
        return catalog.product(self.left.build(), self.right.build())

    def unparse(self) -> str:
        return "%s * %s" % (self.left.unparse(), self.right.unparse())


def _parse_atom(p: _Parser):
    tok = p.expect("NAME")
    row = _CONSTRUCTORS.get(tok.text)
    if row is None:
        raise ParseError("unknown space constructor %r" % tok.text, tok.pos,
                         expected=tuple(_CONSTRUCTORS))
    if row.alias_of is not None:
        return AtomNode(*row.alias_of)
    p.expect("(")
    args = []
    for keyword, method, _, _ in row.params:
        if args:
            p.expect(";")
        if keyword is not None:
            p.expect("NAME", keyword)
            p.expect("=")
        args.append(getattr(p, method)())
    p.expect(")")
    for (_, _, least, message), value in zip(row.params, args):
        if (len(value) if isinstance(value, tuple) else value) < least:
            raise ParseError(message, tok.pos)
    return AtomNode(row.name, tuple(args))


def _parse_postfix(p: _Parser):
    node = _parse_atom(p)
    while True:
        tok = p.peek()
        if tok.kind == ".":
            p.next()
        elif tok.kind == "NAME" and tok.text == "twist":
            pass  # bare twist(k) suffix, no dot
        else:
            break
        p.expect("NAME", "twist")
        p.expect("(")
        k = p.integer()
        p.expect(")")
        node = TwistNode(node, k)
    return node


def parse_space(text: str):
    """Parse a space descriptor into its AST; ``*`` is left-associative."""
    p = _Parser(text)
    node = _parse_postfix(p)
    while p.peek().kind == "*":
        p.next()
        node = ProductNode(node, _parse_postfix(p))
    end = p.peek()
    if end.kind != "END":
        raise ParseError("trailing input %r" % end.text, end.pos,
                         expected=("*", "end of input"))
    return node


# ---------------------------------------------------------------------------
# degree-2 class expressions ("pi*H", "2*H1 - E", "1/2*H")
# ---------------------------------------------------------------------------


def parse_alpha(space: Space, text: str):
    """Parse a linear combination of degree-2 generators, with a pi scale.

    Returns ``(GradedClass, pi_exponent)``; all terms must carry the same
    power of pi.
    """
    space.require_ring()
    p = _Parser(text, _CLASS_PUNCT, " in class expression")
    total = space.ring.zero()
    pi_exponent = None
    tok = p.peek()
    if tok.kind in ("+", "-"):
        p.next()
    while True:
        sign = -1 if tok.kind == "-" else 1
        coeff, pi_exp, gen = _parse_term(p, space.ring)
        if pi_exponent is None:
            pi_exponent = pi_exp
        elif pi_exponent != pi_exp:
            raise ParseError("all terms must carry the same power of pi",
                             p.peek().pos)
        total = total + sign * coeff * gen
        tok = p.next()
        if tok.kind == "END":
            return total, pi_exponent
        if tok.kind not in ("+", "-"):
            raise ParseError("unexpected token in class expression", tok.pos)


def _parse_term(p: _Parser, ring):
    """``factor (* factor)*``, a factor being ``n``, ``n/d``, ``pi``,
    ``pi^e`` or one generator name; returns ``(coeff, pi_exp, generator)``."""
    coeff = Fraction(1)
    pi_exp = 0
    name = None
    while p.peek().kind in ("INT", "NAME"):
        tok = p.next()
        if tok.kind == "INT":
            den = p.operand("/", "a denominator")
            if den is not None and int(den.text) == 0:
                raise ParseError("zero denominator", den.pos)
            coeff *= Fraction(int(tok.text),
                              1 if den is None else int(den.text))
        elif tok.text == "pi":
            power = p.operand("^", "an exponent")
            pi_exp += 1 if power is None else int(power.text)
        elif name is not None:
            raise ParseError("term has two generator names", tok.pos)
        else:
            name = tok.text
        if p.peek().kind != "*":
            break
        p.next()
    if name is None:
        raise ParseError("each term needs a degree-2 generator name",
                         p.peek().pos)
    if name not in ring.index:
        raise ParseError("unknown generator %r (ring has %s)"
                         % (name, ", ".join(ring.gen_names())), p.peek().pos)
    return coeff, pi_exp, ring.gen(name)


def _default_alpha(space: Space):
    if space.primitive_x is not None:
        return space.primitive_x, 1
    raise CalculatorError(
        "no default class on %s; pass --alpha explicitly" % space.name)


# ---------------------------------------------------------------------------
# exact-value formatting
# ---------------------------------------------------------------------------


def _as_pi_scaled(value):
    if isinstance(value, PiScaled):
        return value
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, Fraction)):
        return PiScaled(Fraction(value), 0)
    return None


def exact_str(value) -> str:
    ps = _as_pi_scaled(value)
    if ps is not None:
        return str(ps)
    if isinstance(value, (list, tuple)):
        return "[%s]" % ", ".join(exact_str(v) for v in value)
    return str(value)


def parse_json_value(obj):
    """Inverse of the JSON encoding: reconstruct an exact PiScaled."""
    return PiScaled(Fraction(obj["numerator"], obj["denominator"]),
                    obj["pi_exponent"])


def _json_rows(rows, approx: int | None) -> str:
    """The ``--format json`` text of ``rows``: ``json.dumps(payload,
    indent=2)`` of the object mapping each label to its value's encoding,
    and, with ``approx``, each exact number's label plus ``_approx`` to its
    rounded float, written in one pass (with an indent ``json.dumps`` runs
    the standard library's pure-Python encoder).

    An exact number (an int, a Fraction or a PiScaled q * pi^k) is encoded
    as ``{"numerator", "denominator", "pi_exponent"}``, a list or tuple
    item by item, a string or a boolean as itself, anything else as its
    ``str``.  A non-finite float or an int past the digit limit raises
    ``ValueError``, as in ``json.dumps``.
    """
    # a JSON string literal, escaped to ASCII as ``json.dumps`` writes it
    from json.encoder import encode_basestring_ascii as string

    def exact(value):
        """``(q, k)`` of an exact number, or None."""
        if isinstance(value, PiScaled):
            return value.q, value.k
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return value, 0
        return None

    def text(value, indent):
        inner = indent + "  "
        number = exact(value)
        if number is not None:
            q, k = number
            return ('{%s"numerator": %s,%s"denominator": %s,'
                    '%s"pi_exponent": %s%s}' % (
                        inner, int.__repr__(q.numerator), inner,
                        int.__repr__(q.denominator), inner, int.__repr__(k),
                        indent))
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            return "[%s%s%s]" % (inner, ("," + inner).join(
                text(v, inner) for v in value), indent)
        if isinstance(value, bool):
            return "true" if value else "false"
        return string(value if isinstance(value, str) else str(value))

    items = []
    for key, value in rows:
        items.append(string(key) + ": " + text(value, "\n  "))
        number = exact(value) if approx else None
        if number is not None:
            q, k = number
            rounded = round(float(q) * math.pi ** k, approx)
            if not math.isfinite(rounded):
                raise ValueError(
                    "Out of range float values are not JSON compliant")
            items.append(string(key + "_approx") + ": "
                         + float.__repr__(rounded))
    if not items:
        return "{}\n"
    return "{\n  " + ",\n  ".join(items) + "\n}\n"


def _render(rows, fmt: str, approx: int | None) -> str:
    """The text of ``rows`` in ``fmt``, made whole before anything is
    written, so a value too large to print prints nothing."""
    try:
        if fmt == "json":
            return _json_rows(rows, approx)
        width = max((len(k) for k, _ in rows), default=0)
        text = ""
        for key, value in rows:
            if fmt == "csv":
                line, tail = "%s,%s" % (key, exact_str(value)), ",~%s"
            else:
                line = "%-*s  %s" % (width + 1, key + ":", exact_str(value))
                tail = "   (~ %s)"
            ps = _as_pi_scaled(value)
            if approx and ps is not None:
                line += tail % ps.decimal_str(approx)
            text += line + "\n"
        return text
    except (ValueError, OverflowError):  # see ValueTooLarge
        raise ValueTooLarge(
            "a result is too large to print: more than %d digits, or past "
            "the float range of a JSON _approx field" % _digit_limit()) from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


#: --theorem choices that take a degree-2 class: the ``engine`` function,
#: looked up when called, and the label of its row
_ALPHA_SELECTORS = {
    "thm1.4": ("gromov_width_bound", "gromov_width_bound"),
    "thm1.8": ("volume", "volume"),
    "rbar": ("avg_scalar_curvature", "average_scalar_curvature"),
}


def _cmd_bound(node, args):
    from . import engine
    theorem = args.theorem
    if theorem in _ALPHA_SELECTORS:
        fn, label = _ALPHA_SELECTORS[theorem]
        space = node.build()
        if args.alpha:
            alpha, pi_exp = parse_alpha(space, args.alpha)
        else:
            alpha, pi_exp = _default_alpha(space)
        value = getattr(engine, fn)(space, alpha, PiScaled(Fraction(1), pi_exp))
        return [("theorem", theorem), (label, value)]
    if isinstance(node, ProductNode):  # X * N: a two-space bound
        x, n_factor = node.left.build(), node.right.build()
    else:
        x, n_factor = node.build(), None
    if theorem in ("thm1.1", "thm1.2", "thm4.5", "prop5.1") \
            and n_factor is not None:
        raise CalculatorError(
            "selector %s takes a single space; drop the product factor"
            % theorem)
    return [("theorem", theorem),
            ("bound", engine.systolic_bound(x, n_factor, theorem))]


def _cmd_index_poly(node, args):
    from . import engine
    poly = engine.index_polynomial(node.build())
    return [("polynomial", poly),
            ("coefficients", [Fraction(c) for c in poly.coeffs]),
            ("q0", Fraction(poly.q0))]


def _cmd_length(node, args):
    from . import engine
    return [("length", Fraction(engine.length(node.build())))]


def _cmd_todd(node, args):
    from . import engine
    return [("todd_genus", engine.todd_genus(node.build()))]


def _cmd_phi(node, args):
    from . import cones
    space = node.build()
    alpha, pi_exp = parse_alpha(space, args.alpha)
    if pi_exp:
        raise CalculatorError("the volume functional is scale-invariant; "
                              "drop the pi factor")
    return [("alpha", args.alpha.strip()), ("phi", cones.phi(space, alpha))]


def _cmd_phi_sup(node, args):
    from . import cones
    result = cones.phi_sup(cones.cone_problem(node.build()))
    if isinstance(result, cones.Unbounded):
        return [("phi_sup", "UNBOUNDED"), ("witness", repr(result.witness))]
    return [("phi_sup", result)]


def _cmd_contractions(node, args):
    from . import cones
    if not (isinstance(node, AtomNode) and node.name == "CI"):
        raise CalculatorError("contractions expects a CI(...) descriptor")
    degrees, ambient = node.args
    report = cones.multiproj_contractions(ambient, degrees)
    rows = [("dim", Fraction(report.dim)),
            ("fano", report.fano),
            ("admissible_p", Fraction(report.admissible_p))]
    for f in report.factors:
        rows.append(("factor_%d" % f.factor,
                     "N=%d degree_sum=%d K_negative=%s fiber_dim=%d "
                     "anticanonical=%d" % (f.ambient_dim, f.degree_sum,
                                           f.k_negative, f.fiber_dim,
                                           f.anticanonical_coeff)))
    return rows


def _cmd_bundle_profile(args):
    from . import cones
    rows = []
    if args.degrees is not None:
        degrees = _option_value("--degrees", args.degrees, _int_list)
        sys_value, product = cones.bundle_systole_profile(
            degrees, args.genus, _option_value("--a", args.a, Fraction),
            _option_value("--b", args.b, Fraction))
        rows += [("degrees", args.degrees), ("genus", Fraction(args.genus)),
                 ("sys_value", sys_value), ("sys_times_s", product)]
    if args.n is not None:
        rows += [("n", Fraction(args.n)),
                 ("profile_sup", cones.bundle_profile_sup(args.n)),
                 ("maximizer", "(x, e) = (1, 0)")]
    if not rows:
        raise ParseError("pass --n for the supremum or --degrees (with "
                         "optional --genus, --a, --b) for a profile value", 0)
    return rows


def _option_value(option, text, convert):
    """``convert(text)``; malformed input raises ParseError (exit 2), at the
    JSON offset where there is one."""
    import json
    try:
        return convert(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON in %s: %s" % (option, exc.msg),
                         exc.pos) from None
    except (TypeError, ValueError, ZeroDivisionError):
        raise ParseError("invalid value for %s" % option, 0) from None


def _int_list(text):
    """A JSON list of integers: floats, booleans and strings are refused."""
    import json
    values = json.loads(text)
    if not isinstance(values, list) or any(type(d) is not int for d in values):
        raise ValueError("not a list of integers")
    return values


def _rational_matrix(text):
    """A JSON matrix whose entries are numbers or 'p/q' strings."""
    import json
    return [[Fraction(str(x)) for x in row] for row in json.loads(text)]


def _check_sweep(args):
    """A sweep draws at least one lattice, at ranks in a nonempty range
    starting at 1 or above, and is given no lattice of its own; ranks above
    the cap are left to NormedLattice."""
    if args.sweep < 1:
        raise ParseError("--sweep %d is not a positive count" % args.sweep, 0)
    if args.min_rank < 1:
        raise ParseError("--min-rank %d is below 1" % args.min_rank, 0)
    if args.min_rank > args.max_rank:
        raise ParseError("--min-rank %d exceeds --max-rank %d"
                         % (args.min_rank, args.max_rank), 0)
    if (args.gram, args.vertices, args.basis) != (None, None, None):
        raise ParseError("--sweep draws its own lattices; drop --gram, "
                         "--vertices and --basis", 0)


def _cmd_lattice(args):
    from . import lattices
    if args.sweep is not None:
        import random
        _check_sweep(args)
        rng = random.Random(args.seed)
        buckets = {}
        worst = Fraction(0)
        for _ in range(args.sweep):
            rank = rng.randint(args.min_rank, args.max_rank)
            basis = lattices.random_basis(rank, rng)
            lat = lattices.NormedLattice(
                basis=basis, gram=[[1 if i == j else 0 for j in range(rank)]
                                   for i in range(rank)])
            reduced = lattices.reduced_dual_basis(lat)
            for prod_sq in reduced.achieved:
                ratio = float(prod_sq) ** 0.5 / reduced.rank ** 2
                worst = max(worst, prod_sq)
                bucket = min(int(ratio * 10), 9)
                buckets[bucket] = buckets.get(bucket, 0) + 1
        rows = [("instances", Fraction(args.sweep)),
                ("worst_product_sq", worst)]
        for bucket in sorted(buckets):
            lo, hi = bucket / 10, (bucket + 1) / 10
            rows.append(("achieved/bound in [%.1f, %.1f)" % (lo, hi),
                         Fraction(buckets[bucket])))
        return rows
    # an empty value is a value, malformed like any other
    if args.gram is not None and args.vertices is not None:
        raise ParseError("pass one of --gram and --vertices, not both", 0)
    if args.gram is not None:
        gram = _option_value("--gram", args.gram, _rational_matrix)
        form, rank = {"gram": gram}, len(gram)
    elif args.vertices is not None:
        verts = _option_value("--vertices", args.vertices, _rational_matrix)
        if not verts:
            raise ParseError("--vertices needs at least one vertex", 0)
        form, rank = {"vertices": verts}, len(verts[0])
    else:
        raise ParseError("pass --gram, --vertices, or --sweep", 0)
    basis = (_option_value("--basis", args.basis, _rational_matrix)
             if args.basis is not None else
             [[1 if i == j else 0 for j in range(rank)] for i in range(rank)])
    lat = lattices.NormedLattice(basis=basis, **form)
    rows = [("rank", Fraction(lat.rank)), ("norm", lat.kind)]
    for j in range(1, lat.rank + 1):
        label = "lambda_%d%s" % (j, "_sq" if lat.kind == "euclidean" else "")
        rows.append((label, lattices.successive_minima(lat, j)))
    if lat.kind == "euclidean":
        rep = lattices.transference_check(lat)
        rows.append(("transference_product_sq", rep.product_sq))
        rows.append(("transference_bound_sq", Fraction(rep.rank) ** 2))
    reduced = lattices.reduced_dual_basis(lat)
    for i, (vec, norm) in enumerate(zip(reduced.vectors, reduced.dual_norms)):
        rows.append(("dual_basis_%d" % (i + 1),
                     "(%s)" % ", ".join(str(x) for x in vec)))
        rows.append(("dual_norm%s_%d" % ("_sq" if reduced.squared else "", i + 1),
                     norm))
    return rows


def _cmd_pushforward(args):
    from . import pushforward
    rows = [("k", Fraction(args.k)), ("r", Fraction(args.r)),
            ("j", Fraction(args.j))]
    sym = pushforward.localization_pushforward(args.k, args.r, args.j)
    rows.append(("pushforward", str(sym)))
    if args.primitive:
        rows.append(("primitive_coefficient",
                     pushforward.primitive_coefficient(args.k, args.r, args.j)))
    return rows


_CATALOG_LINES = (
    ("CP(n)", "projective space, index n+1, <H^n> = 1"),
    ("Q(n)", "quadric, index n, <H^n> = 2 (H-subring model)"),
    ("CI(degrees; ambient)", "complete intersection in a product of "
                             "projective spaces (ambient-restricted classes)"),
    ("PB(degrees; genus)", "projective bundle over a curve, rays {xi, f}"),
    ("BlP(n)", "blowup of CP(n) at a point, rays {H, H-E}"),
    ("S(k), S1", "spheres and the circle (A-hat = 1)"),
    ("X * Y", "products (Kuenneth pairing)"),
    ("X.twist(k)", "replace the spin^c class c by c + 2k x"),
    ("X6 in P(1^n,2,3)", "index n-1, metadata only (weighted del Pezzo)"),
    ("X4 in P(1^(n+1),2)", "index n-1, metadata only (weighted del Pezzo)"),
    ("X6 in P(1^(n+1),3)", "index n-2, metadata only (weighted Mukai)"),
    ("G(2,C^5) cap CP(n+3)", "index n-1, metadata only, KE iff n in {3, 6}"),
)


def _cmd_catalog(args):
    return _CATALOG_LINES


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sysbound",
        description="Exact curvature-systole, volume, and width bounds on a "
                    "catalog of explicit manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, space=True):
        if space:
            p.add_argument("--space", required=False,
                           help="space descriptor, e.g. 'CP(3) * S1'")
            p.add_argument("--batch", action="store_true",
                           help="read one descriptor per line from stdin")
        p.add_argument("--format", choices=("table", "json", "csv"),
                       default="table")
        p.add_argument("--approx", type=int, default=None, metavar="DIGITS",
                       help="add decimal approximations (labeled approximate)")

    p = sub.add_parser("bound", help="evaluate a closed-form bound")
    p.add_argument("--theorem", required=True,
                   choices=SELECTORS + tuple(_ALPHA_SELECTORS))
    p.add_argument("--alpha", help="degree-2 class, e.g. 'pi*H' (thm1.4, "
                                   "thm1.8, rbar)")
    common(p)

    p = sub.add_parser("index-poly", help="twist polynomial of a b2 = 1 space")
    common(p)
    p = sub.add_parser("length", help="minimal nonvanishing twist distance")
    common(p)
    p = sub.add_parser("todd", help="Todd genus")
    common(p)

    p = sub.add_parser("phi", help="volume functional at a class")
    p.add_argument("--alpha", required=True)
    common(p)
    p = sub.add_parser("phi-sup", help="supremum of the volume functional")
    common(p)

    p = sub.add_parser("contractions",
                       help="projection report for a multiprojective CI")
    common(p)

    p = sub.add_parser("bundle-profile",
                       help="projective-bundle systole profile and supremum")
    p.add_argument("--n", type=int)
    p.add_argument("--degrees", help="JSON list, e.g. '[0,2]'")
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--a", default="1")
    p.add_argument("--b", default="1")
    common(p, space=False)

    p = sub.add_parser("lattice", help="minima, duals, reduction, transference")
    p.add_argument("--gram", help="JSON matrix (entries int or 'p/q')")
    p.add_argument("--vertices", help="JSON list of unit-ball vertices")
    p.add_argument("--basis", help="JSON basis matrix (rows; default identity)")
    p.add_argument("--sweep", type=int, help="random sweep of this many lattices")
    p.add_argument("--min-rank", type=int, default=2)
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    common(p, space=False)

    p = sub.add_parser("pushforward", help="Grassmannian-bundle pushforward")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--primitive", action="store_true")
    common(p, space=False)

    p = sub.add_parser("catalog", help="list the catalog families")
    common(p, space=False)
    return parser


def _command(handler, space=False):
    """The whole subcommand as one callable, from parse to render; a space
    subcommand's rows follow the row of its parsed ``--space``."""
    def command(args):
        if not space:
            return _render(handler(args), args.format, args.approx)
        node = parse_space(args.space)
        return _render([("space", node.unparse())] + handler(node, args),
                       args.format, args.approx)
    return command


#: one callable per subcommand: args -> stdout text, from parse to render
_DISPATCH = {
    "bound": _command(_cmd_bound, space=True),
    "index-poly": _command(_cmd_index_poly, space=True),
    "length": _command(_cmd_length, space=True),
    "todd": _command(_cmd_todd, space=True),
    "phi": _command(_cmd_phi, space=True),
    "phi-sup": _command(_cmd_phi_sup, space=True),
    "contractions": _command(_cmd_contractions, space=True),
    "bundle-profile": _command(_cmd_bundle_profile),
    "lattice": _command(_cmd_lattice),
    "pushforward": _command(_cmd_pushforward),
    "catalog": _command(_cmd_catalog),
}


def _check_approx(args):
    """``--approx`` is a digit count: at least 0, and at most the digits the
    interpreter prints of an integer.  The check prints nothing."""
    if args.approx is not None and args.approx < 0:
        raise ParseError("--approx %d is below 0" % args.approx, 0)
    if args.approx is not None and 0 < _digit_limit() < args.approx:
        raise ParseError("--approx %d exceeds the %d-digit limit"
                         % (args.approx, _digit_limit()), 0)
    return ""


def _reply(command, args):
    """``(exit code, stdout text, stderr text)`` of ``command(args)``: a
    parse error exits 2, a domain error 1."""
    try:
        return 0, command(args), ""
    except ParseError as exc:
        return 2, "", "parse error: %s\n" % exc
    except CalculatorError as exc:
        return 1, "", "error: %s\n" % exc


def _replies(args):
    """The reply of each run one invocation makes: the ``--approx`` check,
    then the subcommand once, or once per distinct nonblank line of a
    ``--batch``, a repeated line yielding its first reply again."""
    check = _reply(_check_approx, args)
    yield check
    if check[0]:
        return
    command = _DISPATCH[args.command]
    if getattr(args, "batch", False):
        replies = {}  # a line's reply depends on the line alone
        for line in sys.stdin:
            args.space = line.strip()
            if args.space:
                if args.space not in replies:
                    replies[args.space] = _reply(command, args)
                yield replies[args.space]
    elif hasattr(args, "space") and not args.space:
        yield 2, "", "error: --space is required (or use --batch)\n"
    else:
        yield _reply(command, args)


def run_command(argv, out=None, err=None) -> int:
    """Run one CLI invocation; returns the exit code without exiting."""
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    code = 0
    for reply_code, text, error in _replies(args):
        out.write(text)
        err.write(error)
        code = max(code, reply_code)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
