"""Size counts of src/minivla, printed as one JSON line.

    lines              every line of every module
    executable_lines   lines the compiler attributes bytecode to, as
                       tools/line_coverage.py counts them
    parameters         parameters of every def, async def and lambda,
                       *args and **kwargs included
    defaults           those parameters that have a default
    defined_names      def, async def and class statements
    config_fields      the fields a run may set: those of config.ModelConfig,
                       TrainConfig and EnvConfig

A report, not a gate. Run from any directory:

    python tools/src_counts.py
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from line_coverage import PACKAGE, executable_lines  # noqa: E402

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CONFIG_SECTIONS = ("ModelConfig", "TrainConfig", "EnvConfig")  # RunConfig only nests them


def counts() -> dict[str, int]:
    total = dict.fromkeys(("lines", "executable_lines", "parameters", "defaults",
                           "defined_names", "config_fields"), 0)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        total["lines"] += len(source.splitlines())
        total["executable_lines"] += len(executable_lines(path))
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, DEFINITIONS):
                total["defined_names"] += 1
            if isinstance(node, FUNCTIONS):
                a = node.args
                total["parameters"] += (len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
                                        + (a.vararg is not None) + (a.kwarg is not None))
                total["defaults"] += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
            if (path.name == "config.py" and isinstance(node, ast.ClassDef)
                    and node.name in CONFIG_SECTIONS):
                total["config_fields"] += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return total


if __name__ == "__main__":
    print(json.dumps(counts()))
