"""Print every reply of a fixed set of CLI runs, for a byte-identity diff.

Run it once against each checkout and compare the two dumps::

    PYTHONPATH=<checkout>/src python tests/reply_dump.py > replies.txt
    diff parent.txt change.txt

The runs are every ``CLI_INVOCATIONS`` entry of the benchmark, and then,
over every ``BATCH_POOL`` descriptor, the five batch commands, ``phi`` with
each of ``ALPHA_TEXTS``, and the ``--alpha`` selectors with their default
class and with each of ``ALPHA_TEXTS``; every descriptor run is made in
table, CSV and JSON format, and each batch command also reads the whole pool
as one ``--batch`` run per format.  Then come ``todd`` and ``phi-sup`` on
the ``EXTRA_SPACES`` in each format.  Next, in each format, every
``SELECTORS`` bound runs over the pool and over X * N for every pool space
X and each of the ``SPHERES`` N, and on X * N ``phi`` and the volume bound
run with the class H, with N's generator, and (the volume bound) with the
default class.  Last, in each format, ``pushforward`` runs on every
``PUSHFORWARD_CASES`` entry, with and without ``--primitive`` (which refuses
j = 0 and j > r before the class is printed).  Each run prints its argv,
its exit code, its stdout and its stderr.  Runs are made in this process
through ``sysbound.cli.run_command``.  Standard library only.

With ``--digests`` it prints instead one line per block of runs: the
SHA-256 of the block's dump text, the block's subcommand, ``--theorem`` and
``--format`` (``-`` where a run gives none), and its number of runs, in the
order blocks first appear.  ``tests/golden_replies.txt`` is that output::

    PYTHONPATH=src python tests/reply_dump.py --digests > tests/golden_replies.txt
"""

import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from batch_pool import BATCH_COMMANDS, BATCH_POOL, CLI_INVOCATIONS  # noqa: E402

from sysbound.cli import run_command  # noqa: E402
from sysbound.values import SELECTORS  # noqa: E402

#: class texts for ``phi`` and the ``--alpha`` selectors: each names the
#: generators of some pool family and is refused on the others
ALPHA_TEXTS = ("H", "2*H - E", "3*H - E", "xi + 2*f", "2*xi + f",
               "H1 + 2*H2", "1/2*H", "pi*H", "pi^2*H1 + 3*pi^2*H2")

ALPHA_SELECTORS = ("thm1.4", "thm1.8", "rbar")

FORMATS = ("table", "csv", "json")

#: projective bundles of genus 0 to 3, a product of one with CP(1) and of
#: two, and complete intersections whose critical equations have large
#: coefficients
EXTRA_SPACES = tuple(
    "PB(degrees=%s; genus=%d)" % (degrees, genus) for genus in range(4)
    for degrees in ("[0,0]", "[0,1]", "[1,3]", "[-2,0,5]", "[0,1,2]",
                    "[1,1,1,1]")) + (
    "PB(degrees=[0,1]; genus=2) * CP(1)",
    "PB(degrees=[0,2,3]; genus=3) * PB(degrees=[1,1]; genus=2)",
    "CI(degrees=[[3,2],[4,7],[4,7],[7,4]]; ambient=[4,4])",
    "CI(degrees=[[3,2],[4,7],[4,7],[7,4],[9,5]]; ambient=[5,5])",
    "CI(degrees=[[31,2],[4,37],[4,7],[7,4]]; ambient=[4,4])")


#: the second factors N of the X * N runs, with the name of N's generator
SPHERES = (("S1", "t"), ("S(2)", "x"), ("S(3)", "v"), ("S(4)", "v"))

#: every (k, r, j) inside the pushforward caps r <= 6, j <= 6, and one past
#: each cap, which is refused
PUSHFORWARD_CASES = tuple((k, r, j) for r in range(2, 7) for k in range(1, r)
                          for j in range(7)) + ((1, 7, 1), (1, 6, 7))


def reply(argv, stdin=""):
    """``(exit code, stdout, stderr)`` of one run with ``stdin``."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        code = run_command(list(argv), out=out, err=err)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def runs():
    """Every ``(argv, stdin)`` of the dump, in order."""
    for argv in CLI_INVOCATIONS:
        yield argv, ""
    commands = list(BATCH_COMMANDS) + [("phi", "--alpha", text)
                                       for text in ALPHA_TEXTS]
    for theorem in ALPHA_SELECTORS:
        commands.append(("bound", "--theorem", theorem))
        commands += [("bound", "--theorem", theorem, "--alpha", text)
                     for text in ALPHA_TEXTS]
    for fmt in FORMATS:
        for command in BATCH_COMMANDS:
            yield (*command, "--batch", "--format", fmt), \
                "".join(desc + "\n" for desc in BATCH_POOL)
        for command in commands:
            for desc in BATCH_POOL:
                yield (*command, "--space", desc, "--format", fmt), ""
    for fmt in FORMATS:
        for command in ("todd", "phi-sup"):
            for desc in EXTRA_SPACES:
                yield (command, "--space", desc, "--format", fmt), ""
    for fmt in FORMATS:
        for theorem in SELECTORS:
            for desc in BATCH_POOL:
                yield ("bound", "--theorem", theorem, "--space", desc,
                       "--format", fmt), ""
        for sphere, generator in SPHERES:
            products = ["%s * %s" % (desc, sphere) for desc in BATCH_POOL]
            for theorem in SELECTORS:
                for desc in products:
                    yield ("bound", "--theorem", theorem, "--space", desc,
                           "--format", fmt), ""
            for command in [("phi", "--alpha", "H"),
                            ("phi", "--alpha", generator),
                            ("bound", "--theorem", "thm1.8"),
                            ("bound", "--theorem", "thm1.8", "--alpha", "H"),
                            ("bound", "--theorem", "thm1.8", "--alpha",
                             generator)]:
                for desc in products:
                    yield (*command, "--space", desc, "--format", fmt), ""
    for fmt in FORMATS:
        for k, r, j in PUSHFORWARD_CASES:
            for flags in ((), ("--primitive",)):
                yield ("pushforward", "--k", str(k), "--r", str(r), "--j",
                       str(j), *flags, "--format", fmt), ""


def dumped(argv, stdin=""):
    """The dump text of one run."""
    code, out, err = reply(argv, stdin)
    return "$ sysbound %s\nexit %d\n--- stdout\n%s--- stderr\n%s" % (
        " ".join(map(repr, argv)), code, out, err)


def block(argv) -> str:
    """The block of a run: its subcommand, ``--theorem`` and ``--format``
    values, ``-`` for one it does not give."""
    def value(flag):
        return argv[argv.index(flag) + 1] if flag in argv else "-"
    return "%s %s %s" % (argv[0], value("--theorem"), value("--format"))


def digests() -> dict:
    """block -> (SHA-256 hex digest of its runs' dump text, number of
    runs), blocks in the order they first appear."""
    hashes, counts = {}, {}
    for argv, stdin in runs():
        key = block(argv)
        hashes.setdefault(key, hashlib.sha256()).update(
            dumped(argv, stdin).encode())
        counts[key] = counts.get(key, 0) + 1
    return {key: (h.hexdigest(), counts[key]) for key, h in hashes.items()}


def main(args):
    write = sys.stdout.write
    if args == ["--digests"]:
        for key, (digest, count) in digests().items():
            write("%s %s %d\n" % (digest, key, count))
        return
    for argv, stdin in runs():
        write(dumped(argv, stdin))


if __name__ == "__main__":
    main(sys.argv[1:])
