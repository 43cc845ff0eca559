"""List the ``raise`` statements of ``src/hybridiq`` that no tier-1 test reaches.

Runs tier-1 without the acceptance module under ``sys.settrace`` (standard
library only) and prints, per module, each ``raise`` whose first line never
ran.  It is a report, not a gate: the exit status is pytest's, whatever the
list holds.  From the repository root, with any extra pytest arguments:

    python tests/raise_reach.py
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hybridiq"


def raise_lines(path: Path) -> dict[int, str]:
    """{line: stripped source} of the first line of every ``raise`` statement in ``path``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    return {
        node.lineno: lines[node.lineno - 1].strip()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
    }


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    raises = {str(path): raise_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    reached: dict[str, set[int]] = {name: set() for name in raises}
    files: dict[str, set[int] | None] = {}  # co_filename -> its reached lines, None outside

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            files[name] = reached.get(str(Path(name).resolve()))
        lines = files[name]
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main([
            "-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
            "--ignore", str(ROOT / "tests" / "test_acceptance.py"), *argv,
        ])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for name, lines in raises.items():
        if not lines:
            continue
        missed = sorted(set(lines) - reached[name])
        module = Path(name).relative_to(PACKAGE.parent)
        print(f"{module}: {len(lines) - len(missed)} of {len(lines)} raise lines reached")
        for number in missed:
            print(f"    {number}: {lines[number]}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
