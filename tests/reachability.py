"""List the functions of ``src/sysbound`` that no run of the reply dump calls.

Run it from the root of a checkout::

    PYTHONPATH=src python tests/reachability.py

It runs every ``tests/reply_dump.py`` run under ``sys.setprofile`` and
records each Python function of the package that is entered, from the
package's import on.  Then it prints each function the source defines (every
``def``, nested ones included, as ``module:line qualified.name``) that was
never entered, module by module, and a count.  A function listed here is
reached by no CLI path the dump covers: it is left to the library API and
the tests, or it is dead.  Standard library only; it is not part of the test
suite, and the profile hook makes the dump several times slower.
"""

import ast
import sys
from pathlib import Path

_TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(_TESTS))


def defined(package: Path) -> dict:
    """(file, first line) -> ``module:line qualified.name`` of every
    function in the package's modules.  The first line is the one
    ``co_firstlineno`` gives: the first decorator's, if there is one."""
    found = {}

    def visit(node, prefix, path, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                name = prefix + child.name
                found[str(path), first] = "%s:%d %s" % (module, child.lineno,
                                                        name)
                visit(child, name + ".", path, module)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path, module)
            else:
                visit(child, prefix, path, module)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "",
              path.resolve(), path.stem)
    return found


def main():
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        import reply_dump
        for argv, stdin, _ in reply_dump.runs():
            reply_dump.reply(argv, stdin)
    finally:
        sys.setprofile(None)
    import sysbound
    package = Path(sysbound.__file__).resolve().parent
    entered = {(str(Path(name).resolve()), line) for name, line in entered}
    functions = defined(package)
    missed = [label for key, label in functions.items() if key not in entered]
    write = sys.stdout.write
    for label in missed:
        write(label + "\n")
    write("%d of %d functions are called by no dump run\n"
          % (len(missed), len(functions)))


if __name__ == "__main__":
    main()
