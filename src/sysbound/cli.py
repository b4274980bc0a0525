"""Command-line frontend.

Space descriptors such as ``CP(3) * S1`` and ``--alpha`` class expressions
such as ``1/2*pi^2*H - E`` are parsed by :mod:`sysbound.grammar`, which
``parse_space`` and ``parse_alpha`` import on their first call, so a process
that parses neither (``catalog``, ``lattice``, ``pushforward``,
``bundle-profile``, an empty ``--batch``) never compiles it.  Results are
printed exactly (``q * pi^k``); decimals appear only with ``--approx`` and
are labeled approximate.  Every decimal is ``values.decimal_text``, q * pi^k
correctly rounded at ``--approx`` places; a JSON ``_approx`` field is the
float of that same text.  Exit codes: 0 success, 1 domain error, 2 usage
error.

A run is a value.  Each subcommand handler maps its arguments to rows
(label, value), and a space subcommand is handed its parsed descriptor; one
``_render`` turns rows into the text of ``--format``; and one ``_reply``
turns a run into ``(exit code, stdout text, stderr text)``, mapping a parse
error to 2 and a domain error to 1.  ``run_command`` only writes the replies:
the ``--approx`` check's, then one run's, or one per ``--batch`` line.  A
reply depends on its line alone, so a batch keeps each line's reply and a
repeated line replays it, errors included; nothing else is shared between
lines.

One table, ``_SUBCOMMANDS``, gives each subcommand its handler and its
arguments.  When the first argument names a subcommand, ``run_command``
builds the parser of that subcommand alone, whose usage still lists every
choice, so help, usage and errors read as the full parser's; bare
``sysbound``, a leading ``-h`` and an unknown command get the full parser.

Each subcommand imports the engine it runs on first use, so one process loads
only the modules its subcommand calls: ``lattice --gram`` never loads the
catalog, ``catalog`` and an empty ``--batch`` load no engine, and no reply
on a catalog descriptor loads the graded rings (``graded``) or the
characteristic classes.  ``--alpha`` is read as a coordinate vector in the
space's intersection form, and ``phi`` and the ``--alpha`` selectors take
that vector (``cones.phi_at``, the ``engine`` ``*_at`` functions).  The
length, the Todd genus and the bounds read off integers do not load
``roots`` either.  No data class generates code at import (they are plain
classes on ``values.Record``), and ``json`` loads only where JSON is
written (``--format json``) or read (``--gram``, ``--vertices``,
``--basis``, ``--degrees``).
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .errors import CalculatorError, ParseError, ValueTooLarge
from .values import SELECTORS, PiScaled, _digit_limit, decimal_text

# ---------------------------------------------------------------------------
# descriptors and class expressions, parsed by sysbound.grammar
# ---------------------------------------------------------------------------


def parse_space(text: str):
    """Parse a space descriptor into its AST; ``*`` is left-associative."""
    from . import grammar
    return grammar.parse_space(text)


def parse_alpha(space: Space, text: str):
    """Parse a linear combination of degree-2 generators, with a pi scale.

    Returns ``(vector, pi_exponent)``: the class's coordinate vector in the
    space's form (``grammar.parse_alpha``); all terms must carry the same
    power of pi.
    """
    from . import grammar
    return grammar.parse_alpha(space, text)


# ---------------------------------------------------------------------------
# exact-value formatting
# ---------------------------------------------------------------------------


def _q_k(value):
    """``(q, k)`` of an exact number q * pi^k (an int, a Fraction or a
    PiScaled, not a bool), or None."""
    if isinstance(value, PiScaled):
        return value.q, value.k
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value, 0
    return None


def exact_str(value) -> str:
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
    and, with ``approx``, each exact number's label plus ``_approx`` to the
    float of its decimal text, written in one pass (with an indent
    ``json.dumps`` runs the standard library's pure-Python encoder).

    An exact number (an int, a Fraction or a PiScaled q * pi^k) is encoded
    as ``{"numerator", "denominator", "pi_exponent"}``, a list or tuple
    item by item, a string or a boolean as itself, anything else as its
    ``str``.  An ``_approx`` past the float range or a number past the digit
    limit raises ``ValueError``, as in ``json.dumps``.
    """
    # a JSON string literal, escaped to ASCII as ``json.dumps`` writes it
    from json.encoder import encode_basestring_ascii as string

    def text(value, indent):
        inner = indent + "  "
        number = _q_k(value)
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
        number = _q_k(value) if approx else None
        if number is not None:
            rounded = float(decimal_text(*number, approx))
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
            number = _q_k(value) if approx else None
            if number is not None:
                line += tail % decimal_text(*number, approx)
            text += line + "\n"
        return text
    except (ValueError, OverflowError):  # see ValueTooLarge
        raise ValueTooLarge(
            "a result is too large to print: more than %d digits, or past "
            "the float range of a JSON _approx field" % _digit_limit()) from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


#: --theorem choices that take a degree-2 class: the ``engine`` function of
#: its coordinate vector, looked up when called, and the label of its row
_ALPHA_SELECTORS = {
    "thm1.4": ("gromov_width_bound_at", "gromov_width_bound"),
    "thm1.8": ("volume_at", "volume"),
    "rbar": ("avg_scalar_curvature_at", "average_scalar_curvature"),
}


def _cmd_bound(node, args):
    from . import engine, grammar
    theorem = args.theorem
    if theorem in _ALPHA_SELECTORS:
        fn, label = _ALPHA_SELECTORS[theorem]
        space = node.build()
        if args.alpha:
            alpha, pi_exp = parse_alpha(space, args.alpha)
        else:
            alpha, pi_exp = grammar._default_alpha(space)
        value = getattr(engine, fn)(space, alpha, PiScaled(Fraction(1), pi_exp))
        return [("theorem", theorem), (label, value)]
    if isinstance(node, grammar.ProductNode):  # X * N: a two-space bound
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
    return [("alpha", args.alpha.strip()), ("phi", cones.phi_at(space, alpha))]


def _cmd_phi_sup(node, args):
    from . import cones
    result = cones.phi_sup(cones.cone_problem(node.build()))
    if isinstance(result, cones.Unbounded):
        return [("phi_sup", "UNBOUNDED"), ("witness", result.witness_text)]
    return [("phi_sup", result)]


def _cmd_contractions(node, args):
    from . import cones, grammar
    if not (isinstance(node, grammar.AtomNode) and node.name == "CI"):
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


#: each subcommand: its handler, whether it reads ``--space`` (and
#: ``--batch``), its help line, and its own arguments as ``(flag,
#: add_argument keywords)``, added ahead of ``--format`` and ``--approx``
_SUBCOMMANDS = {
    "bound": (_cmd_bound, True, "evaluate a closed-form bound", (
        ("--theorem", {"required": True,
                       "choices": SELECTORS + tuple(_ALPHA_SELECTORS)}),
        ("--alpha", {"help": "degree-2 class, e.g. 'pi*H' (thm1.4, thm1.8, "
                             "rbar)"}))),
    "index-poly": (_cmd_index_poly, True,
                   "twist polynomial of a b2 = 1 space", ()),
    "length": (_cmd_length, True, "minimal nonvanishing twist distance", ()),
    "todd": (_cmd_todd, True, "Todd genus", ()),
    "phi": (_cmd_phi, True, "volume functional at a class",
            (("--alpha", {"required": True}),)),
    "phi-sup": (_cmd_phi_sup, True, "supremum of the volume functional", ()),
    "contractions": (_cmd_contractions, True,
                     "projection report for a multiprojective CI", ()),
    "bundle-profile": (_cmd_bundle_profile, False,
                       "projective-bundle systole profile and supremum", (
        ("--n", {"type": int}),
        ("--degrees", {"help": "JSON list, e.g. '[0,2]'"}),
        ("--genus", {"type": int, "default": 0}),
        ("--a", {"default": "1"}),
        ("--b", {"default": "1"}))),
    "lattice": (_cmd_lattice, False,
                "minima, duals, reduction, transference", (
        ("--gram", {"help": "JSON matrix (entries int or 'p/q')"}),
        ("--vertices", {"help": "JSON list of unit-ball vertices"}),
        ("--basis", {"help": "JSON basis matrix (rows; default identity)"}),
        ("--sweep", {"type": int,
                     "help": "random sweep of this many lattices"}),
        ("--min-rank", {"type": int, "default": 2}),
        ("--max-rank", {"type": int, "default": 4}),
        ("--seed", {"type": int, "default": 0}))),
    "pushforward": (_cmd_pushforward, False,
                    "Grassmannian-bundle pushforward", (
        ("--k", {"type": int, "required": True}),
        ("--r", {"type": int, "required": True}),
        ("--j", {"type": int, "required": True}),
        ("--primitive", {"action": "store_true"}))),
    "catalog": (_cmd_catalog, False, "list the catalog families", ()),
}

#: one callable per subcommand: args -> stdout text, from parse to render
_DISPATCH = {name: _command(handler, space)
             for name, (handler, space, _, _) in _SUBCOMMANDS.items()}


def _build_parser(command=None):
    """The parser of every subcommand, or of ``command`` alone.

    The parser of one subcommand names every choice in its usage, as
    argparse writes them, so the usage printed with a top-level error
    (``unrecognized arguments``) reads as the full parser's.  Only the full
    parser can report a missing or unknown command; it keeps argparse's own
    name for the argument, ``command``, in those messages.
    """
    parser = argparse.ArgumentParser(
        prog="sysbound",
        description="Exact curvature-systole, volume, and width bounds on a "
                    "catalog of explicit manifolds.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(_DISPATCH))
    for name, (_, space, summary, arguments) in _SUBCOMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=summary)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        if space:
            p.add_argument("--space", required=False,
                           help="space descriptor, e.g. 'CP(3) * S1'")
            p.add_argument("--batch", action="store_true",
                           help="read one descriptor per line from stdin")
        p.add_argument("--format", choices=("table", "json", "csv"),
                       default="table")
        p.add_argument("--approx", type=int, default=None, metavar="DIGITS",
                       help="add decimal approximations (labeled approximate)")
    return parser


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
    command = argv[0] if argv and argv[0] in _DISPATCH else None
    try:
        args = _build_parser(command).parse_args(argv)
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
