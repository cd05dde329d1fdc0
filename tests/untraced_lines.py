"""List the lines of the package that a test run never executes.

Run by hand from any directory:

    python tests/untraced_lines.py [pytest arguments]

It runs pytest in this process (on all of ``tests/`` unless arguments name
other targets) under ``sys.settrace`` and ``threading.settrace``. Only frames
whose code lies in ``src/delpezzo`` get a line trace, so the run takes about
twice as long as a plain one. Afterwards it prints ``file:line: text`` for
every line of the package that compiles to bytecode and never ran, a count,
and exits with pytest's exit code. It uses the standard library and pytest
only.

Lines reached only in child processes are listed as unreached, since a
child interpreter is not traced: the CLI's stdio edges, for one, run only
in the tests that start ``python -m delpezzo`` in a fresh process. A test
with a wall-clock budget for in-process work (the 70 000-point ``verify``)
can fail under the trace; the listing still counts every line that ran.
"""

import os
import sys
import threading
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delpezzo"


def code_lines(code) -> set[int]:
    """The lines that carry bytecode in a code object and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const)
    return lines


def main(argv: list[str]) -> int:
    if "delpezzo" in sys.modules:
        raise SystemExit("delpezzo is already imported, so its import would go untraced")
    ran: dict[str, set[int]] = {}

    @lru_cache(maxsize=None)
    def package_file(filename: str) -> str | None:
        path = os.path.realpath(filename)
        return path if os.path.dirname(path) == str(PACKAGE) else None

    def trace(frame, event, arg):
        path = package_file(frame.f_code.co_filename)
        if path is None:
            return None  # no line events in this frame
        lines = ran.setdefault(path, set())
        lines.add(frame.f_lineno)

        def line_trace(frame, event, arg):
            lines.add(frame.f_lineno)
            return line_trace

        return line_trace

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        missing = code_lines(compile(source, str(path), "exec")) - ran.get(str(path), set())
        for line in sorted(missing):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        unreached += len(missing)
    print(f"{unreached} lines of {PACKAGE.relative_to(ROOT)} never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
