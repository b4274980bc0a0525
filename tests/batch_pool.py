"""The benchmark's inputs and recorded outputs, as test input.

The modules under ``perfbench/`` are loaded from their files: ``bench_inputs``
is plain data and seeded generators, and ``bench_child.lattice_op`` is the
``lattice`` subcommand's call sequence on a module passed to it; neither
calls a sysbound function on import.  ``golden.json`` is only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """``perfbench/<name>.py``, kept in ``sys.modules`` under its own name so
    that the benchmark's modules import one another as they do when run."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(name,
                                                      _DIR / (name + ".py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


def bench_child():
    """``perfbench/bench_child.py``, after the benchmark modules it imports."""
    for name in ("bench_inputs", "bench_reference", "bench_trace"):
        _load(name)
    return _load("bench_child")


def _golden(section):
    with open(_DIR / "golden.json") as fh:
        return json.load(fh)[section]


def golden_lattices():
    """The recorded result of every pool lattice: kind -> results in pool
    order."""
    return {kind: [entry["result"] for entry in entries]
            for kind, entries in _golden("lattices").items()}


def golden_cli():
    """The recorded run of each CLI invocation, in order: its argv, exit
    code and stdout."""
    return _golden("cli")


def golden_batch():
    """The recorded reply of each batch command to each pool descriptor,
    in ``--format json``: batch key -> descriptor -> {"kind": "ok" (a JSON
    document on stdout) or "err" (one line on stderr), "out": its text}."""
    return _golden("batch")


def golden_pushforward():
    """The recorded primitive coefficient of each table case: "k,r,b" ->
    the value as ``str`` prints the Fraction."""
    return _golden("pushforward")


_module = _load("bench_inputs")
BATCH_POOL = _module.BATCH_POOL
BATCH_COMMANDS = _module.BATCH_COMMANDS
CLI_INVOCATIONS = _module.CLI_INVOCATIONS
batch_key = _module.batch_key
