"""
Line coverage of chosen dvahunter functions over a pytest run, with the
standard library alone (``sys.settrace``): for finding verdict branches
that no test runs.

    PYTHONPATH=src python tools/linecov.py takeover._validate_path scan._phase_takeover -- -q tests/
    PYTHONPATH=src python tools/linecov.py simnet -- -q tests/
    PYTHONPATH=src python tools/linecov.py simnet.NameTable -- -q tests/

Run it from the repository root, as Tier-1 runs pytest. Each function is
named ``module.qualname`` under ``dvahunter``; a bare module name stands
for every function and method defined in that module, and a class for
every method defined in it. A property is reported by its getter, a
cached property by its function, and a decorated function by the
function it wraps. For each one the tool prints how many of its code
lines (nested functions and comprehensions included) ran, and the
numbers of those that never ran. Everything after ``--`` goes to pytest. The trace slows the suite about
threefold, so this is a tool to run by hand, not a CI step. Exits with
pytest's exit code.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
from functools import cached_property
from pathlib import Path
from types import CodeType, ModuleType

PACKAGE = str(Path(__file__).resolve().parents[1] / "src" / "dvahunter")


def code_lines(code: CodeType) -> set[int]:
    """The lines that hold instructions of ``code`` and of the code
    objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def _code_of(obj: object) -> CodeType | None:
    """The code of a function, method or property getter, through any
    decorator that keeps ``__wrapped__``; None for anything else."""
    if isinstance(obj, property):
        obj = obj.fget
    if isinstance(obj, cached_property):
        obj = obj.func
    # staticmethod and classmethod keep __wrapped__ too
    return getattr(inspect.unwrap(obj), "__code__", None)  # type: ignore[arg-type]


def _named(spec: str) -> tuple[ModuleType, object]:
    """The module of ``module.qualname`` under dvahunter, and what it names."""
    module_name, _, qualname = spec.partition(".")
    module = importlib.import_module(f"dvahunter.{module_name}")
    obj: object = module
    for part in filter(None, qualname.split(".")):
        obj = getattr(obj, part)
    return module, obj


def function_code(spec: str) -> CodeType | None:
    """The code object of ``module.qualname`` under dvahunter; None when
    it names a module or a class."""
    return _code_of(_named(spec)[1])


def module_codes(spec: str) -> dict[str, CodeType]:
    """``module.qualname`` -> code of every function and method defined
    in the module or class ``spec`` names, in source order."""
    module, scope = _named(spec)
    found: dict[str, CodeType] = {}

    def visit(prefix: str, namespace: dict) -> None:
        for name, obj in namespace.items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                visit(f"{prefix}{name}.", vars(obj))
            code = _code_of(obj)
            if code is not None and code.co_filename == module.__file__:
                found[prefix + name] = code

    visit(f"{spec}.", vars(scope))
    return dict(sorted(found.items(), key=lambda item: item[1].co_firstlineno))


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code and every (file, line) of the package that ran."""
    import pytest

    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PACKAGE):
            return None
        ran.add((filename, frame.f_lineno))
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    return int(code), ran


def main(argv: list[str]) -> int:
    if "--" in argv:
        split = argv.index("--")
        specs, pytest_args = argv[:split], argv[split + 1:]
    else:
        specs, pytest_args = argv, ["-q", "tests"]
    if not specs:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    # as ``python -m pytest`` does: the tests import ``tests.conftest``
    sys.path.insert(0, str(Path.cwd()))
    codes = {}
    for spec in specs:
        code = function_code(spec)
        codes.update(module_codes(spec) if code is None else {spec: code})
    status, ran = run_traced(pytest_args)
    for spec, code in codes.items():
        lines = code_lines(code)
        never = sorted(line for line in lines if (code.co_filename, line) not in ran)
        listed = ", ".join(map(str, never)) if never else "none"
        print(f"{spec}: {len(lines) - len(never)}/{len(lines)} lines ran; never ran: {listed}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
