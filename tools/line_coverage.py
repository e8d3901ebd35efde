"""Line coverage of src/minivla under the tier-1 tests, standard library only.

Runs the tier-1 suite in this process through pytest.main with a line
tracer installed on every thread (sys.settrace and threading.settrace),
then prints each executable line of src/minivla that did not run. A
line is executable when the compiler attributes bytecode to it.

Exits 1 when an unrun line is not in EXPECTED_UNRUN or when the tests
fail. An EXPECTED_UNRUN entry that ran is only reported, since each
names a line that runs by chance. Run from the repository root:

    python tools/line_coverage.py [extra pytest arguments]
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minivla"

# (file name, stripped source line) -> why tier-1 cannot run it.
EXPECTED_UNRUN = {
    ("encoders.py", "os.sched_yield()"):
        "runs only while a joined thread is still listed in /proc, a race the "
        "tests cannot force",
}


def executable_lines(path: Path) -> set[int]:
    """Lines of path to which some code object attributes bytecode."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename in hits:
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    if "minivla" in sys.modules:
        raise SystemExit("minivla is already imported; its import lines would go unseen")
    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        import pytest
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unexpected = []
    expected_seen = set()
    for name, path in files.items():
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hits[name]):
            key = (path.name, source[line - 1].strip())
            if key in EXPECTED_UNRUN:
                expected_seen.add(key)
                print(f"unrun (expected) {path.name}:{line}: {key[1]}")
            else:
                unexpected.append(f"{path.name}:{line}: {key[1]}")
    for entry in unexpected:
        print(f"unrun {entry}")
    for file_name, text in EXPECTED_UNRUN.keys() - expected_seen:
        print(f"expected unrun but ran: {file_name}: {text}")
    print(f"{len(unexpected)} unexpected unrun line(s) in src/minivla, "
          f"{len(expected_seen)} expected")
    if status != 0:
        print(f"the tests failed (pytest exit status {int(status)})")
    return 1 if unexpected or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
