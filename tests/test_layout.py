"""Repository layout: Python code lives in the package, its tests, its tools
and its benchmark. A diagnostic arm is a config value or a command option
of the package, not a script beside it that re-builds the pipeline by
hand. The claim ledger, REPRODUCTION.md, names only code and tests that
exist."""

import ast
import importlib
import os
import re
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


def test_the_claim_ledger_names_only_code_and_tests_that_exist():
    ledger = (ROOT / "REPRODUCTION.md").read_text()
    names = re.findall(r"`(minivla(?:\.\w+)+)`", ledger)
    tests = re.findall(r"`(tests/\w+\.py)((?:::\w+)*)`", ledger)
    assert names and tests
    for name in names:
        module, *attrs = name.split(".")[1:]
        found = importlib.import_module(f"minivla.{module}")
        for attr in attrs:
            assert hasattr(found, attr), name
            found = getattr(found, attr)
    for path, nodes in tests:
        tree = ast.parse((ROOT / path).read_text())
        defined = {n.name for n in ast.walk(tree)
                   if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
        assert set(nodes.split("::")[1:]) <= defined, path + nodes
