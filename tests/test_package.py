"""The package's public names, loaded from their home modules on first use."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from batch_pool import BATCH_COMMANDS, BATCH_POOL, CLI_INVOCATIONS
from reply_dump import ALPHA_TEXTS
from test_cli import _PB_INVOCATIONS, _child_env

from sysbound.cli import _ALPHA_SELECTORS
from sysbound.values import SELECTORS

import sysbound

#: the 64 public names, by home module
_PUBLIC = {
    "catalog": ("Space", "blowup_point", "circle", "complete_intersection",
                "grassmann_section", "integrate", "product",
                "proj_bundle_over_curve", "projective_space", "quadric",
                "sphere", "twist_spin_c", "weighted_del_pezzo_x4",
                "weighted_del_pezzo_x6", "weighted_mukai_x6"),
    "characteristic": ("ChernData", "PowerSums", "a_hat", "chern_character",
                       "chern_from_power_sums", "newton_power_sums", "todd",
                       "whitney_quotient"),
    "cones": ("ConeProblem", "ContractionReport", "Unbounded",
              "bundle_profile_sup", "bundle_systole_profile", "cone_problem",
              "multiproj_contractions", "nef_threshold", "phi", "phi_sup",
              "s_alpha"),
    "engine": ("IndexPolynomial", "RationalPolynomial", "avg_scalar_curvature",
               "gromov_width_bound", "hilbert_polynomial", "index_polynomial",
               "length", "product_length_bound", "systolic_bound",
               "todd_genus", "volume"),
    "graded": ("GradedClass", "Generator", "Ring", "RingPresentation",
               "exp_class", "make_ring", "tensor_ring"),
    "lattices": ("NormedLattice", "ReducedDualBasis", "TransferenceReport",
                 "dual_lattice", "reduced_dual_basis", "successive_minima",
                 "transference_check"),
    "pushforward": ("SymmetricPolynomial", "localization_pushforward",
                    "primitive_coefficient", "segre_pushforward"),
    "values": ("PiScaled",),
}
_NAMES = [name for names in _PUBLIC.values() for name in names]


def test_the_public_names_are_pinned():
    assert len(_NAMES) == len(set(_NAMES)) == 64
    assert sorted(sysbound.__all__) == sorted(_NAMES)
    assert sysbound.__version__ == "0.1.0"


@pytest.mark.parametrize("home", sorted(_PUBLIC))
def test_each_name_is_its_home_module_attribute(home):
    module = importlib.import_module("sysbound." + home)
    for name in _PUBLIC[home]:
        assert getattr(sysbound, name) is getattr(module, name), name
        assert name in vars(sysbound), name  # kept after the first access


def test_dir_lists_every_name():
    listed = set(dir(sysbound))
    assert set(_NAMES) <= listed
    assert "__version__" in listed


def test_star_import_binds_every_name():
    namespace = {}
    exec("from sysbound import *", namespace)
    for name in _NAMES:
        assert namespace[name] is getattr(sysbound, name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sysbound.no_such_name
    assert not hasattr(sysbound, "SELECTORS")


def test_engine_re_exports_the_value_type():
    from sysbound import engine, values
    for name in ("PiScaled", "ONE", "PI", "SELECTORS"):
        assert getattr(engine, name) is getattr(values, name), name


def _absolute_imports(tree):
    """(enclosing scope, top-level module) for every absolute import in the
    tree, function-local ones included; relative imports are skipped."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from walk(child, scope + (child.name,))
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    yield ".".join(scope), alias.name.split(".")[0]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                yield ".".join(scope), child.module.split(".")[0]
            else:
                yield from walk(child, scope)
    return walk(tree, ())


def test_the_package_runs_on_the_standard_library_alone():
    outside = []
    for path in sorted(Path(sysbound.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for scope, module in _absolute_imports(tree):
            if module != "sysbound" and module not in sys.stdlib_module_names:
                outside.append((path.name, scope, module))
    assert outside == []


def test_no_module_imports_dataclasses_or_json_at_import():
    # a decorated dataclass execs generated source at import, and
    # ``dataclasses`` loads ``inspect``; ``json`` loads where JSON is read
    # or written
    found = []
    for path in sorted(Path(sysbound.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for scope, module in _absolute_imports(tree):
            if module == "dataclasses" or (module == "json" and not scope):
                found.append((path.name, scope, module))
    assert found == []


#: the benchmark's invocations that read and write no JSON
_NO_JSON = ("catalog", "bound", "length", "index-poly", "todd", "phi",
            "phi-sup", "contractions", "bundle-profile", "pushforward")
#: the benchmark's invocations that parse no descriptor or class expression
_NO_GRAMMAR = ("catalog", "lattice", "pushforward", "bundle-profile")
#: an odd pool space with no degree-1 class, refused before its A-hat class
#: is read, so no tangent is built and ``characteristic`` never loads
_NO_ODD_CLASS = tuple((command, "--space", "Q(3) * S(3)")
                      for command in ("length", "index-poly"))


def test_a_cold_process_imports_no_dataclasses_and_json_only_for_json():
    for argv in CLI_INVOCATIONS + _PB_INVOCATIONS + _NO_ODD_CLASS:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "sysbound", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=60)
        assert proc.returncode in (0, 1), (argv, proc.stderr)
        imported = {line.rsplit("|", 1)[1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "sysbound.cli" in imported, argv
        assert not imported & {"dataclasses", "inspect"}, argv
        if argv in CLI_INVOCATIONS and argv[0] in _NO_JSON:
            assert "json" not in imported, argv
        if argv[0] in _NO_GRAMMAR:
            assert "sysbound.grammar" not in imported, argv
        if argv in _NO_ODD_CLASS:
            assert proc.stderr.endswith(
                "\nerror: Q(3) * S(3) is odd-dimensional but carries no "
                "degree-1 class with xi * x^n nonzero\n"), argv
            assert "sysbound.characteristic" not in imported, argv


#: the batch scripts' preamble: a stdin whose binary layer yields ``lines``
#: as they are read, and an output stream with a binary layer
_STDIN = r'''
import io, sys, types
from sysbound.cli import run_command


def stdin(lines):
    return types.SimpleNamespace(buffer=lines, encoding="utf-8",
                                 errors="strict")


def stream():
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
'''

_BATCH = _STDIN + r'''
held = []


def lines():
    held.append("sysbound.grammar" in sys.modules)
    yield b"CP(1)\n"
    held.append("sysbound.grammar" in sys.modules)
    yield b"Q(3)\n"


sys.stdin = stdin(lines())
run_command(["length", "--batch"], out=stream())
print(held)
'''


def test_a_batch_compiles_the_grammar_with_its_first_line():
    # an empty batch parses nothing; the first line imports what the later
    # ones use, so they do not compile it
    proc = subprocess.run([sys.executable, "-c", _BATCH], capture_output=True,
                          text=True, env=_child_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[False, True]\n"), \
        proc.stderr


_LATE_IMPORTS = _STDIN + r'''
import json


def loaded():
    return {m for m in sys.modules if m.startswith("sysbound.")}


def lines(descriptors, late):
    yield b"CP(1)\n"  # the benchmark's prime line
    for desc in descriptors:
        before = loaded()
        yield desc.encode() + b"\n"
        late[desc] = sorted(loaded() - before)  # read with the next line


command, descriptors = json.loads(sys.argv[1])
late = {}
sys.stdin = stdin(lines(descriptors, late))
run_command(command + ["--batch"], out=stream(), err=stream())
print(json.dumps({desc: mods for desc, mods in late.items() if mods}))
'''


@pytest.mark.parametrize("command", BATCH_COMMANDS, ids=" ".join)
def test_no_batch_line_after_the_prime_line_imports_a_module(command):
    # after the CP(1) line every pool line finds what it runs loaded, so no
    # timed line of a batch compiles a module
    proc = subprocess.run(
        [sys.executable, "-c", _LATE_IMPORTS,
         json.dumps([list(command), list(BATCH_POOL)])],
        capture_output=True, text=True, env=_child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {}


_EVERY_REPLY = r'''
import io, json, sys
from sysbound.cli import run_command

commands, descriptors = json.loads(sys.argv[1])
codes = set()
for command in commands:
    for desc in descriptors:
        codes.add(run_command(command + ["--space", desc], out=io.StringIO(),
                              err=io.StringIO()))
print(json.dumps([sorted(codes), sorted(m for m in sys.modules
                                        if m.startswith("sysbound."))]))
'''


def test_no_reply_on_a_pool_descriptor_loads_graded_or_characteristic():
    # every subcommand on every pool descriptor, phi and the volume bound
    # with each ALPHA_TEXTS entry, and the --alpha selectors with the
    # default class, in one fresh interpreter: the rings and characteristic
    # classes never load
    commands = [list(command) for command in BATCH_COMMANDS] + [
        ["phi-sup"], ["contractions"]] + [
        ["bound", "--theorem", theorem] for theorem in SELECTORS
        + tuple(_ALPHA_SELECTORS)] + [
        [*command, "--alpha", text] for text in ALPHA_TEXTS
        for command in (["phi"], ["bound", "--theorem", "thm1.8"])]
    proc = subprocess.run(
        [sys.executable, "-c", _EVERY_REPLY,
         json.dumps([commands, list(BATCH_POOL)])],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0, 1, 2]
    assert "sysbound.cones" in loaded and "sysbound.engine" in loaded
    assert not {"sysbound.graded", "sysbound.characteristic"} & set(loaded)


_EMPTY_BATCH = _STDIN + r'''
sys.stdin = stdin(iter(()))
run_command(sys.argv[1:] + ["--batch"], out=stream())
print(" ".join(sorted(m for m in sys.modules if m.startswith("sysbound."))))
'''


@pytest.mark.parametrize("command", BATCH_COMMANDS, ids=" ".join)
def test_an_empty_batch_loads_no_catalog(command):
    proc = subprocess.run([sys.executable, "-c", _EMPTY_BATCH, *command],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["sysbound.cli", "sysbound.errors",
                                   "sysbound.values"]


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["dependencies"] == []


def test_the_package_holds_no_assert_statement():
    # certificates raise typed errors, so they still run under python -O
    found = []
    for path in sorted(Path(sysbound.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
