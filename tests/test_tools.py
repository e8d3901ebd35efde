"""The report tools under tools/ run as their READMEs say."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import line_coverage  # noqa: E402


def test_src_counts_prints_the_five_counts_as_one_json_line():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_counts.py")],
                         capture_output=True, text=True, check=True).stdout
    (line,) = out.splitlines()
    counts = json.loads(line)
    assert list(counts) == ["lines", "executable_lines", "parameters", "defaults",
                            "defined_names"]
    modules = sorted(line_coverage.PACKAGE.glob("*.py"))
    assert counts["executable_lines"] == sum(len(line_coverage.executable_lines(p))
                                             for p in modules)
    assert counts["lines"] == sum(len(p.read_text().splitlines()) for p in modules)
    assert 0 < counts["defaults"] < counts["parameters"]


def test_frame_counts_prints_one_json_line_of_the_workloads_named():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "frame_counts.py"), "ablate"],
                         capture_output=True, text=True, check=True).stdout
    (line,) = out.splitlines()
    counts = json.loads(line)
    assert list(counts) == ["ablate"]
    assert isinstance(counts["ablate"], int) and counts["ablate"] > 0
