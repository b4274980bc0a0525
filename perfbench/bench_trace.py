"""Spans recorded from outside the program, and the layer metrics built on them.

``install`` wraps every public function of the sysbound modules, in every
namespace where it is looked up (``catalog`` binds ``a_hat`` by name, so the
wrapper goes there too).  Each call becomes a span: id, parent id, layer,
name, operation id, start and end.  Spans stay in memory and are written out
once, when the traced process ends.  The program itself gains no tracing.

Self time is a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("cli", "catalog", "graded", "characteristic", "engine", "cones",
          "roots", "lattices", "pushforward")

#: class methods wrapped besides the public ones
_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__neg__", "__pow__", "__truediv__", "__call__")

#: catalog functions that construct a space; a build is an outermost call
CATALOG_BUILDERS = frozenset((
    "projective_space", "quadric", "circle", "sphere", "product",
    "proj_bundle_over_curve", "complete_intersection", "blowup_point",
    "twist_spin_c", "weighted_del_pezzo_x6", "weighted_del_pezzo_x4",
    "weighted_mukai_x6", "grassmann_section"))


class Recorder:
    """In-memory span store for one process."""

    def __init__(self):
        self.spans = []       # (id, parent, layer, name, op, start_ns, end_ns)
        self.keys = {}        # span id -> argument key, for repeat counting
        self.counters = {}
        #: names of spans whose self time is spent waiting for the client
        #: (a batch process's ``cli.run_command`` reading stdin); their self
        #: time is left out of the layer metrics
        self.waiting = set()
        self.op = -1
        self._stack = []
        self._next = 0

    def begin_op(self):
        self.op += 1

    def count(self, name):
        self.counters[name] = self.counters.get(name, 0) + 1

    def open(self, key=None):
        sid = self._next
        self._next += 1
        if key is not None:
            self.keys[sid] = key
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def close(self, sid, parent, layer, name, start, end):
        self._stack.pop()
        self.spans.append((sid, parent, layer, name, self.op, start, end))

    def add(self, layer, name, start, end):
        """A span measured by the caller, outside any other span."""
        sid, parent = self.open()
        self.close(sid, parent, layer, name, start, end)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "keys": {str(k): v for k, v in self.keys.items()},
                       "counters": self.counters,
                       "waiting": sorted(self.waiting)}, fh)


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------


def _space_name(value):
    name = getattr(value, "name", None)
    return name if isinstance(name, str) else repr(value)


def _is_keyed(layer, name):
    """Calls whose arguments are recorded, to count repeated work."""
    short = name.rsplit(".", 1)[-1]
    return (layer == "catalog" and short in CATALOG_BUILDERS) or \
        name == "lattices.successive_minima"


def _key_for(name, args):
    """A catalog build is keyed by its arguments' names, a minima call by the
    lattice's basis and form."""
    if name == "lattices.successive_minima":
        lat = args[0]
        form = lat.gram if lat.gram is not None else lat.vertices
        return [str(lat.basis), str(form)]
    return [name.rsplit(".", 1)[-1]] + [_space_name(a) for a in args]


def _wrap(rec, fn, layer, name):
    clock = time.perf_counter_ns
    counted = {"graded.GradedClass.__mul__": "graded.ring_products",
               "roots.sturm_sequence": "roots.sturm_calls"}.get(name)
    keyed = _is_keyed(layer, name)

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid, parent = rec.open()
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    rec.close(sid, parent, layer, name, start, clock())
                    return
                except BaseException:
                    rec.close(sid, parent, layer, name, start, clock())
                    raise
                rec.close(sid, parent, layer, name, start, clock())
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counted == "graded.ring_products":
            if len(args) > 1 and type(args[1]) is type(args[0]):
                rec.count(counted)
        elif counted:
            rec.count(counted)
        sid, parent = rec.open(_key_for(name, args) if keyed else None)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(sid, parent, layer, name, start, clock())
    return wrapper


def _is_public_callable(module, name, value):
    if name.startswith("_"):
        return False
    if inspect.isfunction(value):
        return value.__module__ == module.__name__
    # functools.lru_cache wrappers are not plain functions
    wrapped = getattr(value, "__wrapped__", None)
    return (inspect.isfunction(wrapped)
            and wrapped.__module__ == module.__name__)


def install(rec, package="sysbound"):
    """Wrap the public functions and methods of every layer module."""
    import importlib
    import sys

    modules = {layer: importlib.import_module("%s.%s" % (package, layer))
               for layer in LAYERS}
    replacements = {}   # id(original) -> wrapper
    originals = {}
    for layer, module in modules.items():
        for name, value in list(vars(module).items()):
            if _is_public_callable(module, name, value):
                w = _wrap(rec, value, layer, "%s.%s" % (layer, name))
                replacements[id(value)] = w
                originals[id(value)] = value
            elif inspect.isclass(value) and value.__module__ == module.__name__ \
                    and not name.startswith("_"):
                for attr, member in list(vars(value).items()):
                    if not inspect.isfunction(member):
                        continue
                    if attr.startswith("_") and attr not in _DUNDERS:
                        continue
                    setattr(value, attr, _wrap(
                        rec, member, layer, "%s.%s.%s" % (layer, name, attr)))
    # rebind in every namespace that looks the function up by name
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package
                                  or mod_name.startswith(package + ".")):
            continue
        for name, value in list(vars(module).items()):
            w = replacements.get(id(value))
            if w is not None and originals[id(value)] is value:
                setattr(module, name, w)
    # the CLI dispatches through a dict of subcommand handlers: each handler
    # call is one operation (one process, or one batch line)
    cli = modules["cli"]
    dispatch = getattr(cli, "_DISPATCH", None)
    if isinstance(dispatch, dict):
        for command, handler in list(dispatch.items()):
            dispatch[command] = _op_wrapper(rec, handler, "cli.command." + command)


def _op_wrapper(rec, fn, name):
    inner = _wrap(rec, fn, "cli", name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.begin_op()
        return inner(*args, **kwargs)
    return wrapper


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(spans):
    """Map span id -> self time (ns): duration minus the union of children.

    ``spans`` are tuples (id, parent, layer, name, op, start, end).
    """
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[5], s[6]))
    out = {}
    for sid, _, _, _, _, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def _repeats(spans, keys, per_op):
    """(spans, repeats): a span repeats when its argument key was seen
    earlier in the same process or, with ``per_op``, the same operation."""
    seen = set()
    repeats = 0
    for s in sorted(spans, key=lambda s: s[5]):
        tagged = (s[4] if per_op else None, json.dumps(keys.get(str(s[0]))))
        repeats += tagged in seen
        seen.add(tagged)
    return len(spans), repeats


def _outermost(spans, pred):
    """Spans matching ``pred`` with no matching ancestor."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        if not pred(s):
            continue
        p = by_id.get(s[1])
        while p is not None and not pred(p):
            p = by_id.get(p[1])
        if p is None:
            out.append(s)
    return out


def summarize(traces):
    """Layer metrics from a list of per-process trace dumps.

    Returns (metrics, self_ms_by_layer); times in milliseconds.
    """
    layer_self = {}
    fn_self = {}
    fn_total = {}
    fn_calls = {}
    counters = {}
    builds = build_repeats = 0
    minima_calls = minima_repeats = 0
    for tr in traces:
        spans = [tuple(s) for s in tr["spans"]]
        keys = tr["keys"]
        selfs = self_times(spans)
        waiting = set(tr.get("waiting", ()))
        for s in spans:
            _, _, layer, name, _, start, end = s
            if name not in waiting:
                layer_self[layer] = layer_self.get(layer, 0) + selfs[s[0]]
                fn_self[name] = fn_self.get(name, 0) + selfs[s[0]]
            fn_total[name] = fn_total.get(name, 0) + (end - start)
            fn_calls[name] = fn_calls.get(name, 0) + 1
        for k, v in tr["counters"].items():
            counters[k] = counters.get(k, 0) + v

        def is_build(s):
            return (s[2] == "catalog"
                    and s[3].split(".", 1)[1] in CATALOG_BUILDERS)
        n, r = _repeats(_outermost(spans, is_build), keys, per_op=False)
        builds += n
        build_repeats += r
        n, r = _repeats([s for s in spans
                         if s[3] == "lattices.successive_minima"],
                        keys, per_op=True)
        minima_calls += n
        minima_repeats += r

    def ms(ns):
        return ns / 1e6

    def layer_calls(layer):
        return sum(n for name, n in fn_calls.items()
                   if name.split(".", 1)[0] == layer)

    def fn_ms(table, *names):
        return ms(sum(table.get(n, 0) for n in names))

    metrics = {
        "cli.self_ms": ms(layer_self.get("cli", 0)),
        "cli.parse_space_ms": fn_ms(fn_total, "cli.parse_space"),
        "catalog.build_ms": ms(layer_self.get("catalog", 0)),
        "catalog.builds": builds,
        "catalog.build_repeat_ratio": build_repeats / builds if builds else 0.0,
        "graded.self_ms": ms(layer_self.get("graded", 0)),
        "graded.ring_products": counters.get("graded.ring_products", 0),
        "characteristic.self_ms": ms(layer_self.get("characteristic", 0)),
        "characteristic.calls": layer_calls("characteristic"),
        "engine.self_ms": ms(layer_self.get("engine", 0)),
        "engine.calls": layer_calls("engine"),
        "cones.self_ms": ms(layer_self.get("cones", 0)),
        "roots.self_ms": ms(layer_self.get("roots", 0)),
        "roots.sturm_calls": counters.get("roots.sturm_calls", 0),
        "lattices.self_ms": ms(layer_self.get("lattices", 0)),
        "lattices.lll_ms": fn_ms(fn_self, "lattices.lll_transform"),
        "lattices.kz_ms": fn_ms(fn_self, "lattices.kz_transform",
                                "lattices.shortest_vector"),
        "lattices.enum_ms": fn_ms(fn_self, "lattices.enumerate_short_vectors"),
        "lattices.ellipsoid_ms": fn_ms(fn_total,
                                       "lattices.NormedLattice.euclidean_form"),
        "lattices.minima_calls": minima_calls,
        "lattices.minima_repeat_ratio":
            minima_repeats / minima_calls if minima_calls else 0.0,
        "pushforward.self_ms": ms(layer_self.get("pushforward", 0)),
        "pushforward.localization_ms":
            fn_ms(fn_total, "pushforward.localization_pushforward"),
        "pushforward.power_sum_ms":
            fn_ms(fn_total, "pushforward.power_sum_expansion"),
        "pushforward.cases": fn_calls.get("pushforward.primitive_coefficient", 0),
    }
    return metrics, {k: ms(v) for k, v in layer_self.items()}


def parse_importtime(stderr_text, names=("sysbound", "sympy", "numpy")):
    """Cumulative import time (ms) of each named package from -X importtime.

    A package that was never imported reads 0.
    """
    out = {n: 0.0 for n in names}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        pkg = parts[2].strip()
        if pkg in out:
            out[pkg] = max(out[pkg], int(parts[1]) / 1000.0)
    return out
