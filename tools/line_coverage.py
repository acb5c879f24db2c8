"""The lines of ``src/patil`` that no test reaches, with the standard library.

Usage, from the root of a source tree::

    python3 tools/line_coverage.py [PYTEST_ARG ...]

Runs pytest on ``tests/`` in this process under ``sys.settrace`` and
``threading.settrace``, records each line of ``src/patil`` that runs,
and prints ``file:line: text`` for every executable line (a line of some
code object's ``co_lines()``) that none reached, then their count.
Extra arguments go to pytest, e.g. ``-k contour`` or ``-x``.

Child processes are not traced, so the lines that only the subprocess
tests run are listed too: ``cli.run``, ``_write``'s branch for a stdout
that is closed, and the ``__main__`` guard of ``patil.cli``.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "patil"


def executable_lines(code):
    """The line numbers of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def main(args):
    prefix = str(PACKAGE)
    reached = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            reached.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        # co_filename is the path the module was imported from
        name = str(path)
        todo = executable_lines(compile(source, name, "exec"))
        for line in sorted(todo - {line for file, line in reached if file == name}):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines not reached (pytest exit {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
