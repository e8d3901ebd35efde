"""Frames painted and encoded in one perfbench repetition, as one JSON line.

For each named perfbench workload (all three by default), this generates
the workload's seed-0 inputs in a temporary directory, then runs its
timed command once with sim.render_observation and
encoders.vit_encode_image wrapped to count their calls and the states or
frames each is given. It prints {workload: {"frames_encoded": ...,
"paint_calls": ..., "states_painted": ...}}, keys sorted. The wrappers
live only in this process; BLAS is pinned to one thread, as
perfbench/run.py pins it. The tool only reports; CI's step fails when
train's count is not 571, which BLAS does not change. Run from any
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
from minivla import sim  # noqa: E402

SEED = 0


def counts(name: str) -> dict[str, int]:
    """Frames passed to vit_encode_image, render_observation calls and the
    states passed to them, in one run of the workload's timed command."""
    workload = wl.WORKLOADS[name]
    seen = {"frames_encoded": 0, "paint_calls": 0, "states_painted": 0}
    encode, render = enc.vit_encode_image, sim.render_observation

    def encoding(img, *args, **kwargs):
        seen["frames_encoded"] += len(img)
        return encode(img, *args, **kwargs)

    def painting(states):
        seen["paint_calls"] += 1
        seen["states_painted"] += len(states)
        return render(states)

    with tempfile.TemporaryDirectory() as tmp:
        inputs, generated = workload.setup(Path(tmp) / "setup", workload.plan(SEED))
        inputs = workload.describe(inputs, generated)
        enc.vit_encode_image, sim.render_observation = encoding, painting
        try:
            workload.run(inputs, Path(tmp) / "run")
        finally:
            enc.vit_encode_image, sim.render_observation = encode, render
    return seen


def main(argv: list[str]) -> int:
    names = argv or list(run.WORKLOAD_NAMES)
    unknown = sorted(set(names) - set(run.WORKLOAD_NAMES))
    if unknown:
        print(f"unknown workloads {unknown}; choose from {list(run.WORKLOAD_NAMES)}",
              file=sys.stderr)
        return 2
    print(json.dumps({name: counts(name) for name in sorted(set(names))}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
