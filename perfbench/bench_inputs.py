"""Seeded input generation for every workload.

Everything here is pure Python on the benchmark's own ``random.Random``: no
sysbound function is called, so a change to the program cannot change the
inputs.  The same seed always yields the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# cli-cold: one small representative invocation per subcommand
# ---------------------------------------------------------------------------

CLI_INVOCATIONS = (
    ("catalog",),
    ("bound", "--space", "CP(3)", "--theorem", "prop5.1"),
    ("length", "--space", "Q(4)"),
    ("index-poly", "--space", "CI(degrees=[[3]]; ambient=[4])"),
    ("todd", "--space", "CI(degrees=[[2],[3]]; ambient=[6])"),
    ("phi", "--space", "BlP(3)", "--alpha", "2*H - E"),
    ("phi-sup", "--space", "BlP(3)"),
    ("contractions", "--space", "CI(degrees=[[2,2]]; ambient=[3,3])"),
    ("bundle-profile", "--n", "3"),
    ("lattice", "--gram", "[[2,1],[1,2]]"),
    ("pushforward", "--k", "1", "--r", "2", "--j", "1"),
)


def cli_rounds(seed: int):
    """Endless rounds, each a seeded permutation of the 11 invocations."""
    rng = random.Random("cli-%d" % seed)
    while True:
        order = list(CLI_INVOCATIONS)
        rng.shuffle(order)
        yield order


def cost_bins(costs, bins):
    """Indices sorted by recorded cost, cut into ``bins`` near-equal bins."""
    order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    n = len(order)
    return [order[b * n // bins:(b + 1) * n // bins] for b in range(bins)]


# ---------------------------------------------------------------------------
# batch-spaces: descriptor streams for five space-taking commands
# ---------------------------------------------------------------------------

BATCH_COMMANDS = (
    ("length",),
    ("index-poly",),
    ("todd",),
    ("bound", "--theorem", "thm1.1"),
    ("phi-sup",),
)

BATCH_LINES = 120        # lines fed to one batch process
BATCH_REPEAT_SHARE = 0.7  # share of lines repeating an earlier descriptor
BATCH_ERROR_SHARE = 0.1   # share of lines that end in a domain error (exit 1)
BATCH_BINS = 8
ZIPF_S = 1.0

BATCH_POOL = tuple(
    ["CP(%d)" % n for n in range(1, 17)]
    + ["Q(%d)" % n for n in range(2, 15)]
    + ["CI(degrees=[[%d]]; ambient=[%d])" % (d, n)
       for n in (3, 4, 5, 6) for d in (2, 3, 4)]
    + ["CI(degrees=[[2],[2]]; ambient=[5])",
       "CI(degrees=[[2],[3]]; ambient=[6])",
       "CI(degrees=[[1,1]]; ambient=[2,2])",
       "CI(degrees=[[1,2]]; ambient=[2,3])",
       "CI(degrees=[[2,2]]; ambient=[3,3])",
       "CI(degrees=[[1,1],[1,1]]; ambient=[4,4])",
       # both nef rays big: phi-sup runs the Sturm-certified search
       "CI(degrees=[[1,1],[1,1],[1,1]]; ambient=[3,3])",
       "CI(degrees=[[1,1],[1,1],[2,1]]; ambient=[3,3])"]
    + ["PB(degrees=[0,%d]; genus=%d)" % (d, g) for d in (0, 1, 2) for g in (0, 1)]
    + ["PB(degrees=[0,1,2]; genus=0)", "PB(degrees=[1,1,1,1]; genus=2)"]
    + ["BlP(%d)" % n for n in range(2, 8)]
    + ["CP(%d) * S1" % n for n in (2, 3, 5)]
    + ["CP(2) * S(2)", "Q(3) * S(3)", "CP(1) * CP(1)", "CP(2) * CP(3)"]
    + ["CP(3).twist(1)", "CP(4).twist(-1)", "CP(9).twist(2)", "Q(4).twist(1)",
       "Q(11).twist(-1)"])


def batch_key(command) -> str:
    return " ".join(command)


def _zipf_stream(rng, costs, lines: int, distinct: int):
    """``lines`` lines over ``distinct`` descriptors, each used at least once.

    ``costs`` maps each candidate descriptor to its recorded cost.  Zipf rank
    i takes a seeded member of cost bin i mod BATCH_BINS, and gets a fixed
    Zipf share of the lines, so every seed puts the same share of its lines
    on cheap and on expensive descriptors.
    """
    names = sorted(costs)
    bins = [[names[i] for i in b] for b in
            cost_bins([costs[n] for n in names], min(BATCH_BINS, len(names)))]
    bins = [rng.sample(b, len(b)) for b in bins]
    chosen = []
    rank = 0
    while len(chosen) < distinct and any(bins):
        b = bins[rank % len(bins)]
        if b:
            chosen.append(b.pop())
        rank += 1
    # Zipf counts by largest-remainder apportionment: exact, not sampled
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(len(chosen))]
    extra = lines - len(chosen)
    quotas = [extra * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(chosen)), key=lambda r: counts[r] - quotas[r])
    for r in by_remainder[:extra - sum(counts)]:
        counts[r] += 1
    stream = list(chosen)
    for desc, n in zip(chosen, counts):
        stream += [desc] * n
    return stream


def batch_stream(rng, table):
    """One batch process's stdin lines.

    ``table`` maps each pool descriptor to its recorded outcome ("ok" or
    "err") and cost for this command.  Exactly
    round(BATCH_ERROR_SHARE * BATCH_LINES) lines are domain errors, and the
    repeat share is exact up to rounding.
    """
    err_lines = round(BATCH_LINES * BATCH_ERROR_SHARE)
    ok_lines = BATCH_LINES - err_lines
    keep = 1 - BATCH_REPEAT_SHARE
    stream = []
    for kind, lines in (("ok", ok_lines), ("err", err_lines)):
        costs = {d: table[d]["cost"] for d in BATCH_POOL
                 if table[d]["kind"] == kind}
        stream += _zipf_stream(rng, costs, lines, max(1, round(lines * keep)))
    rng.shuffle(stream)
    return stream


def batch_rounds(seed: int, golden_batch):
    """Endless rounds: the five commands in seeded order, each with a stream."""
    rng = random.Random("batch-%d" % seed)
    while True:
        order = list(BATCH_COMMANDS)
        rng.shuffle(order)
        round_ = []
        for command in order:
            round_.append((command, batch_stream(
                rng, golden_batch[batch_key(command)])))
        yield round_


# ---------------------------------------------------------------------------
# lattices: Euclidean bases at ranks 2-5 and two polytope norms
# ---------------------------------------------------------------------------

#: lattice kinds: Euclidean at ranks 2-5 (identity ambient form, so the
#: lattice Gram matrix is B B^T) and two polytope norms at ranks 2 and 3
LATTICE_KINDS = {"e2": ("euclidean", 2), "e3": ("euclidean", 3),
                 "e4": ("euclidean", 4), "e5": ("euclidean", 5),
                 "hexagon": ("hexagon", 2), "cross": ("cross", 3)}

#: a lattice round is one request of each kind: the Euclidean ranks 2-5
#: uniformly, as ``lattice --sweep`` draws its ranks, plus one lattice of
#: each polytope norm
LATTICE_ROUND_SIZE = len(LATTICE_KINDS)

#: the fixed pool every run draws from, per kind, and its cost bins; a
#: cycle of LATTICE_BINS rounds visits every bin of every kind once
LATTICE_POOL_SIZE = 48
LATTICE_BINS = 12

HEXAGON = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
CROSS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1))


def det(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def _basis(rng, rank, lo, hi):
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(rank)] for _ in range(rank)]
        if det(rows) != 0:
            return rows


def lattice_pool():
    """The fixed lattice pool: kind -> list of specs (kind, rank, basis...).

    Bases are random integer matrices from the benchmark's own generator
    with a fixed seed, entries in [-5, 5] (Euclidean) or [-2, 2] (polytope).
    """
    rng = random.Random("lattice-pool")
    pool = {}
    for kind, (norm, rank) in LATTICE_KINDS.items():
        specs = []
        for _ in range(LATTICE_POOL_SIZE):
            spec = {"kind": norm, "rank": rank}
            if norm == "euclidean":
                spec["basis"] = _basis(rng, rank, -5, 5)
            else:
                spec["basis"] = _basis(rng, rank, -2, 2)
                spec["vertices"] = [list(v) for v in
                                    (HEXAGON if norm == "hexagon" else CROSS)]
            specs.append(spec)
        pool[kind] = specs
    return pool


def lattice_rounds(seed: int, costs):
    """Endless rounds of (kind, pool index) requests.

    ``costs`` maps kind -> the reference cost of each pool lattice (recorded
    with the golden outputs).  Draws are stratified: each kind walks through
    its cost bins in seeded order, one bin per round, and takes a seeded
    member of that bin.  Every cycle of LATTICE_BINS rounds then has the
    same cost mix while the lattices themselves change with the seed.
    """
    rng = random.Random("lattices-%d" % seed)
    bins = {kind: cost_bins(costs[kind], LATTICE_BINS) for kind in LATTICE_KINDS}
    schedule = {kind: [] for kind in LATTICE_KINDS}
    while True:
        round_ = []
        for kind in LATTICE_KINDS:
            if not schedule[kind]:
                schedule[kind] = rng.sample(range(LATTICE_BINS), LATTICE_BINS)
            members = bins[kind][schedule[kind].pop()]
            round_.append((kind, rng.choice(members)))
        yield round_


# ---------------------------------------------------------------------------
# pushforward: the primitive-coefficient table for r <= 5
# ---------------------------------------------------------------------------

#: the 40 cases in table order.  The order is fixed, not seeded: the cases
#: share sympy's caches, so a case's cost depends on the cases before it.
PUSHFORWARD_CASES = tuple((k, r, b) for r in range(2, 6) for k in range(1, r)
                          for b in range(1, r + 1))
