"""List the executable lines of ``src/twoview`` that the test suite never runs.

Run from the repository root:

    python tests/line_trace.py [extra pytest arguments]

It puts ``src`` and the repository root first on ``sys.path``, as the
tier-1 command (``PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors``) does, and runs that suite in this
process under ``sys.settrace`` and ``threading.settrace``.  It records
each line executed in a frame whose code lives in ``src/twoview`` and
prints every executable line (one that a code object's ``co_lines()``
names) that never ran, as ``file:line``, then their count.  Standard
library and pytest only; expect about twice the untraced suite's time.
Code run in child processes is not traced.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twoview"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """Every line number that a code object compiled from ``path`` names
    (a module's line 0 is its entry, not a line of the file)."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - {0}


def main(argv: list[str]) -> int:
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(TIER1_ARGS + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name, path in files.items():
        rel = path.relative_to(ROOT)
        for line in sorted(executable_lines(path) - ran[name]):
            print(f"{rel}:{line}")
            missed += 1
    print(f"{missed} executable line(s) never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
