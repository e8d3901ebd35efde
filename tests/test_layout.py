"""Repository layout: Python code lives in the package, its tests, its tools
and its benchmark. A diagnostic arm is a config value or a command option
of the package, not a script beside it that re-builds the pipeline by
hand."""

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = {"src", "tests", "tools", "perfbench"}


def _python_files(root: Path) -> list[Path]:
    """Every *.py file under root, skipping dot-directories, build/ and
    *.egg-info directories, which hold no source of the repository."""
    found = []
    for here, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if not (d.startswith(".") or d == "build"
                                           or d.endswith(".egg-info"))]
        found += [Path(here, f) for f in files if f.endswith(".py")]
    return found


def test_python_files_lie_under_the_code_directories():
    stray = sorted(str(p.relative_to(ROOT)) for p in _python_files(ROOT)
                   if p.relative_to(ROOT).parts[0] not in CODE_DIRS)
    assert stray == []
