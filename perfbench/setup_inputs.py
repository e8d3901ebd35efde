"""Generate one workload's inputs in a fresh interpreter, and time it.

    echo '{"workload": "train", "plan": {...}, "dir": "..."}' | python3 perfbench/setup_inputs.py

run.py starts this script once per set-up repetition, so each one pays
the imports as a user's process would, and the set-up's memory never
counts in the benchmark process's peak. It reads the workload name, the
scene plan (``workloads.Plan``) and the directory to write to as JSON on
standard input. It prints one JSON object: ``import_s`` (interpreter
start to the last import), ``inputs_s`` (``Workload.setup``) and
``inputs``, the fields of the workload's ``INPUTS`` after
``Workload.describe``, which is not timed.
"""

import time

_START = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

sys.path.insert(0, str(run.SRC))
import workloads as wl  # noqa: E402

import_s = time.perf_counter() - _START


def main() -> int:
    request = json.load(sys.stdin)
    workload = wl.WORKLOADS[request["workload"]]
    plan = wl.Plan.from_json(request["plan"])
    t0 = time.perf_counter()
    inputs, generated = workload.setup(Path(request["dir"]), plan)
    inputs_s = time.perf_counter() - t0
    inputs = workload.describe(inputs, generated)
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s,
                      "inputs": dataclasses.asdict(inputs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
