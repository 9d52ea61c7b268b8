"""
Line coverage of chosen dvahunter functions over a pytest run, with the
standard library alone (``sys.settrace``): for finding verdict branches
that no test runs.

    PYTHONPATH=src python tools/linecov.py takeover._validate_path scan._phase_takeover -- -q tests/

Run it from the repository root, as Tier-1 runs pytest. Each function is named ``module.qualname`` under ``dvahunter``. For each
one the tool prints how many of its code lines (nested functions and
comprehensions included) ran, and the numbers of those that never ran.
Everything after ``--`` goes to pytest. The trace slows the suite about
threefold, so this is a tool to run by hand, not a CI step. Exits with
pytest's exit code.
"""

from __future__ import annotations

import importlib
import sys
import threading
from pathlib import Path
from types import CodeType

PACKAGE = str(Path(__file__).resolve().parents[1] / "src" / "dvahunter")


def code_lines(code: CodeType) -> set[int]:
    """The lines that hold instructions of ``code`` and of the code
    objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def function_code(spec: str) -> CodeType:
    """The code object of ``module.qualname`` under dvahunter; of its
    getter when it names a property."""
    module_name, _, qualname = spec.partition(".")
    obj = importlib.import_module(f"dvahunter.{module_name}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if isinstance(obj, property):
        obj = obj.fget
    return obj.__code__


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
    codes = {spec: function_code(spec) for spec in specs}
    status, ran = run_traced(pytest_args)
    for spec, code in codes.items():
        lines = code_lines(code)
        never = sorted(line for line in lines if (code.co_filename, line) not in ran)
        listed = ", ".join(map(str, never)) if never else "none"
        print(f"{spec}: {len(lines) - len(never)}/{len(lines)} lines ran; never ran: {listed}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
