"""Descriptor and class-expression grammar.

A small LL(1) parser turns descriptor strings such as ``CP(3) * S1`` or
``CI(degrees=[[2,3]]; ambient=[5])`` into a tree of nodes, each of which
builds its catalog space and prints itself back as the canonical descriptor.
One tokenizer and one parser class serve both descriptors and ``--alpha``
class expressions such as ``1/2*pi^2*H - E``.  Only the punctuation differs,
and with it the reading of ``-``: directly before a digit it starts a
negative integer in a descriptor (``genus=-1``), but in a class expression it
is always the minus operator (``H1 -2*H2`` is H1 - 2*H2).  Malformed input
raises ``ParseError`` at its offset.

:mod:`sysbound.cli` imports this module on the first descriptor or class
expression it parses (``cli.parse_space``, ``cli.parse_alpha``), so a
process that parses none, such as ``catalog``, ``lattice`` or an empty
``--batch``, never compiles it.  It loads the catalog only to build a node,
and prints a descriptor's integer lists without ``json``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CalculatorError, ParseError
from .values import Record, _digit_limit

# ---------------------------------------------------------------------------
# tokens and parser, shared by descriptors and class expressions
# ---------------------------------------------------------------------------

_PUNCT = ("(", ")", "[", "]", ",", ";", "=", "*", ".")
_CLASS_PUNCT = ("+", "-", "*", "/", "^", "(", ")")


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
            fields.append(("" if keyword is None else keyword + "=")
                          + _compact(value))
        return "%s(%s)" % (self.name, "; ".join(fields))


def _compact(value) -> str:
    """An int, or a tuple of them nested, as compact JSON: ``[1,2]``,
    ``[[2],[3]]``."""
    if isinstance(value, tuple):
        return "[%s]" % ",".join(map(_compact, value))
    return str(value)


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
    """Parse a linear combination of generators, with a pi scale, into the
    class's coordinate vector in the space's form (:class:`forms.Form`),
    with no ring built.

    Returns ``(vector, pi_exponent)``; all terms must carry the same power
    of pi.  The vector is None for a class with a part off degree 2 (a
    generator of another degree), and () on a space without Kaehler data
    (``Space.has_kahler_data``), whose form no evaluator reads: the vector
    that ``cones._class_vector`` makes of the parsed class.
    """
    space.check_ring()
    generators = space.generators
    index = {name: i for i, (name, _) in enumerate(generators)}
    p = _Parser(text, _CLASS_PUNCT, " in class expression")
    coefficients = [0] * len(generators)
    pi_exponent = None
    tok = p.peek()
    if tok.kind in ("+", "-"):
        p.next()
    while True:
        sign = -1 if tok.kind == "-" else 1
        coeff, pi_exp, name = _parse_term(p, index)
        if pi_exponent is None:
            pi_exponent = pi_exp
        elif pi_exponent != pi_exp:
            raise ParseError("all terms must carry the same power of pi",
                             p.peek().pos)
        coefficients[index[name]] += sign * coeff
        tok = p.next()
        if tok.kind == "END":
            break
        if tok.kind not in ("+", "-"):
            raise ParseError("unexpected token in class expression", tok.pos)
    coefficients = [c.numerator if c.denominator == 1 else c
                    for c in map(Fraction, coefficients)]
    if any(c for c, (_, degree) in zip(coefficients, generators)
           if degree != 2):
        return None, pi_exponent
    if not space.has_kahler_data():
        return (), pi_exponent
    return space.form.vector(coefficients), pi_exponent


def _parse_term(p: _Parser, index):
    """``factor (* factor)*``, a factor being ``n``, ``n/d``, ``pi``,
    ``pi^e`` or one generator name, a key of ``index``; returns ``(coeff,
    pi_exp, name)``."""
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
    if name not in index:
        raise ParseError("unknown generator %r (ring has %s)"
                         % (name, ", ".join(index)), p.peek().pos)
    return coeff, pi_exp, name


def _default_alpha(space: Space):
    """The primitive class x at scale pi, as :func:`parse_alpha` gives a
    class: its coordinate vector is recorded in the space's form."""
    if space.lacks("primitive_x"):
        raise CalculatorError(
            "no default class on %s; pass --alpha explicitly" % space.name)
    return (space.form.x if space.has_kahler_data() else ()), 1
