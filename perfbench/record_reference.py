"""Record the outputs the benchmark checks seed-fixed runs against.

    python3 perfbench/record_reference.py

Runs each workload once on DEFAULT_SEED and HELDOUT_SEED and overwrites
perfbench/reference.json with the outcome keys each workload compares
(``Workload.REFERENCE_KEYS``). Record only from code whose outputs are
known good: every later run on those seeds must reproduce them.
"""

import json
import shutil
import sys

import run  # pins BLAS threads before numpy is imported
from hostspeed import Probe


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads as wl

    references: dict = {}
    for name, workload in wl.WORKLOADS.items():
        for seed in (wl.DEFAULT_SEED, wl.HELDOUT_SEED):
            work_dir = run.WORK / f"reference-{name}-{seed}"
            shutil.rmtree(work_dir, ignore_errors=True)
            try:
                inputs = workload.prepare(work_dir / "setup", workload.plan(seed))
                outcome = run.timed_rep(workload, inputs, work_dir / "rep", False,
                                        Probe()).outcome
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            references.setdefault(name, {})[str(seed)] = {
                key: outcome[key] for key in workload.REFERENCE_KEYS}
            print(f"{name} seed {seed}: recorded {', '.join(workload.REFERENCE_KEYS)}")
    run.REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
