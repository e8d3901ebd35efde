"""Frames the frozen encoder runs on in one perfbench repetition, as one JSON line.

For each named perfbench workload (all three by default), this generates
the workload's seed-0 inputs in a temporary directory, then runs its
timed command once with encoders.vit_encode_image wrapped to count the
frames of every batch it is given. It prints {workload: frames}, keys
sorted. The wrapper lives only in this process; BLAS is pinned to one
thread, as perfbench/run.py pins it. A report, not a gate. Run from any
directory:

    python tools/frame_counts.py [train] [rollout] [ablate]
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

sys.path.insert(0, str(run.SRC))
import workloads as wl  # noqa: E402
from minivla import encoders as enc  # noqa: E402

SEED = 0


def frames_encoded(name: str) -> int:
    """Frames passed to vit_encode_image by one run of the workload's timed command."""
    workload = wl.WORKLOADS[name]
    frames = 0
    real = enc.vit_encode_image

    def counting(img, *args, **kwargs):
        nonlocal frames
        frames += len(img)
        return real(img, *args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        inputs, generated = workload.setup(Path(tmp) / "setup", workload.plan(SEED))
        inputs = workload.describe(inputs, generated)
        enc.vit_encode_image = counting
        try:
            workload.run(inputs, Path(tmp) / "run")
        finally:
            enc.vit_encode_image = real
    return frames


def main(argv: list[str]) -> int:
    names = argv or list(run.WORKLOAD_NAMES)
    unknown = sorted(set(names) - set(run.WORKLOAD_NAMES))
    if unknown:
        print(f"unknown workloads {unknown}; choose from {list(run.WORKLOAD_NAMES)}",
              file=sys.stderr)
        return 2
    print(json.dumps({name: frames_encoded(name) for name in sorted(set(names))}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
