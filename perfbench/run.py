"""minivla benchmark: run one workload for a fixed time, check it, report.

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` at set-up, then its
timed command repeats until ``--seconds`` have passed (at least twice).
Every repetition's outputs are checked. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. The lines before it are a readable report,
and the full record, with the environment, is written under
``perfbench/results/``. See perfbench/README.md.

minivla (and ``workloads``, which imports it) is imported only once the
checkout's ``src/minivla`` is known to exist, so the functions below
import ``workloads`` where they use it.
"""

import os

# BLAS threads are pinned before numpy can be imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import Probe, slowdown  # noqa: E402
from spans import Ledger, Tracer, summarize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 60
MIN_REPS = 2
WORKLOAD_NAMES = ("train", "rollout", "ablate")


def parse_args(argv=None):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --- environment ---------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(load_at_start: float) -> dict:
    import numpy as np

    blas = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: dep.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    nproc = len(os.sched_getaffinity(0))
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_start": load_at_start,
        "load_above_nproc": load_at_start > nproc,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def thread_count() -> int:
    """Threads of this process, native ones included (Linux)."""
    return len(os.listdir("/proc/self/task"))


# --- set-up ----------------------------------------------------------------------


class SetUp:
    """Set-ups of one workload, each in a fresh interpreter (setup_inputs.py).

    The first one writes the inputs the repetitions use. The others only
    time set-up again: ``sample`` spreads them over the timed repetitions,
    so that ``setup_s`` is a median over the same minutes of host load as
    the timings, not over one moment. Their inputs are deleted at once.
    Each reply also holds the host's ``slowdown`` over that set-up, from
    probes run just before and just after it.
    """

    def __init__(self, workload, plan, work_dir: Path, probe: Probe):
        self.workload = workload
        self.plan = plan
        self.work_dir = work_dir
        self.probe = probe
        self.replies: list[dict] = []
        self.inputs = workload.INPUTS(**self._run(work_dir / "setup")["inputs"])

    def _run(self, out_dir: Path) -> dict:
        request = {"workload": self.workload.name, "plan": dataclasses.asdict(self.plan),
                   "dir": str(out_dir)}
        before = self.probe()
        proc = subprocess.run([sys.executable, str(HERE / "setup_inputs.py")],
                              input=json.dumps(request), capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        after = self.probe()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up {len(self.replies)} exited with {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        reply = json.loads(proc.stdout.splitlines()[-1])
        reply["slowdown"] = slowdown(before, after)
        self.replies.append(reply)
        return reply

    def sample(self, progress: float) -> None:
        """Catch up to an even share of SETUP_REPEATS at ``progress`` (0 to 1) of the run."""
        while len(self.replies) < 1 + round(min(progress, 1.0) * (SETUP_REPEATS - 1)):
            out_dir = self.work_dir / f"setup{len(self.replies)}"
            try:
                self._run(out_dir)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)


# --- one repetition ------------------------------------------------------------


@dataclasses.dataclass
class Timed:
    """One run of the timed command: its wall time, the host's slowdown, spans and outputs.

    ``threads_left`` counts the threads it left running. One would run
    during the probe after the command and pass for a slow host.
    """

    wall: float
    slowdown: float
    threads_left: int
    tracer: Tracer
    result: object
    outcome: dict


class Rep:
    """Timings and span statistics of one repetition of the timed command.

    ``peak_rss_mb`` is the process's peak so far, read once the repetition
    and its checks are done. ``slowdown`` is the host's over the timed
    command (hostspeed.py); ``norm_wall`` is the wall time divided by it.
    """

    def __init__(self, traced: bool, timed, tf_steps: int):
        self.traced = traced
        self.wall = timed.wall
        self.slowdown = timed.slowdown
        self.norm_wall = timed.wall / timed.slowdown
        self.stats = timed.tracer.stats
        self.counters = dict(timed.tracer.counters)
        self.tf_steps = tf_steps
        self.peak_rss_mb = peak_rss_mb()

    def total(self, name: str) -> float:
        return self.stats[name].total_s if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0


def timed_rep(workload, inputs, out_dir: Path, traced: bool, probe: Probe) -> Timed:
    """Run the timed command once, between two probes of the host's speed."""
    import workloads as wl

    actions = wl.ActionLog()
    tracer = Tracer(wl.LAYER_SPANS if traced else wl.E2E_SPANS, wl.span_hooks(actions))
    out_dir.mkdir(parents=True)
    threads = thread_count()
    before = probe()
    with tracer:
        t0 = time.perf_counter()
        result = workload.run(inputs, out_dir)
        wall = time.perf_counter() - t0
    threads_left = thread_count() - threads
    after = probe()
    outcome = wl.as_json(workload.outcome(
        result, tracer.stats["policy.PolicyAgent.act"].calls, actions))
    return Timed(wall, slowdown(before, after), threads_left, tracer, result, outcome)


def checked_rep(workload, inputs, out_dir: Path, traced: bool, ledger, probe: Probe) -> Timed:
    """timed_rep, then the workload's own checks.

    The result is dropped before return, so no repetition runs next to the
    previous one's outputs and ``peak_rss_mb`` is the program's own.
    """
    try:
        timed = timed_rep(workload, inputs, out_dir, traced, probe)
        ledger.check("no thread left running", timed.threads_left <= 0,
                     f"{timed.threads_left} more threads after the timed command than before")
        workload.check(inputs, timed.result, ledger)
        timed.result = None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return timed


def run_reps(workload, inputs, seconds, trace, work_dir, ledger, reference, probe,
             setup=None):
    """Repeat the timed command for ``seconds`` (at least MIN_REPS times), checking each.

    With ``trace`` every second repetition is traced. ``probe`` times the
    host's speed around each repetition. Between repetitions, ``setup`` (a
    SetUp) takes its set-up samples. Returns the completed repetitions, the
    first outcome and the spans that were not found.
    """
    import workloads as wl

    reps = []
    first_outcome = None
    missing = set()
    start = time.perf_counter()
    i = 0
    while i < MIN_REPS or time.perf_counter() - start < seconds:
        if setup is not None and i:
            setup.sample((time.perf_counter() - start) / seconds if seconds > 0 else 1.0)
        traced = bool(trace) and i % 2 == 1
        out_dir = work_dir / f"rep{i}"
        planned = workload.planned_ops(inputs)
        i += 1
        try:
            timed = checked_rep(workload, inputs, out_dir, traced, ledger, probe)
            ledger.ops(planned)
        except Exception as e:  # a failed repetition is counted, and the run goes on
            ledger.ops(planned, planned, f"repetition {i - 1}: {type(e).__name__}: {e}")
            continue
        outcome = timed.outcome
        missing.update(timed.tracer.missing)
        if reference is not None:
            diffs = wl.reference_diff(workload, reference, outcome)
            ledger.check("matches the recorded reference", not diffs, "; ".join(diffs[:3]))
        if first_outcome is None:
            first_outcome = outcome
        else:
            diffs = wl.diff(first_outcome, outcome)
            ledger.check("repeats bitwise", not diffs, "; ".join(diffs[:3]))
        reps.append(Rep(traced, timed, workload.teacher_forced_steps(inputs)))
    if setup is not None:
        setup.sample(1.0)
    return reps, first_outcome, sorted(missing)


# --- metrics ---------------------------------------------------------------------


def end_to_end(reps, setups) -> tuple[dict, dict]:
    """(metrics BENCHMARK.json declares, the full per-workload report).

    Times and rates are normalised by the host's slowdown over each set-up
    or repetition (hostspeed.py). The report also gives the declared ones
    as measured, under ``raw_``, and the median slowdown of the repetitions.
    """
    median = statistics.median
    untraced = [r for r in reps if not r.traced]
    train_s = [r.total("training.train_run") for r in untraced]
    eval_s = [r.total("analysis.run_chain_eval") for r in untraced]
    eval_steps = [r.calls("policy.PolicyAgent.act") for r in untraced]
    steps_per_s = [(r.tf_steps + n) / (t + e)
                   for r, n, t, e in zip(untraced, eval_steps, train_s, eval_s)]
    setup_s = [r["import_s"] + r["inputs_s"] for r in setups]
    metrics = {
        "setup_s": (median(t / r["slowdown"] for t, r in zip(setup_s, setups)), "s"),
        "wall_s": (median(r.norm_wall for r in untraced), "s"),
        "steps_per_s": (median(v * r.slowdown for v, r in zip(steps_per_s, untraced)),
                        "steps/s"),
        # Through the first repetition only: the heap a one-shot user process
        # would have. Later repetitions reuse a fragmented heap and creep up.
        "peak_rss_mb": (untraced[0].peak_rss_mb, "MB"),
    }
    report = dict(metrics)
    report["raw_setup_s"] = (median(setup_s), "s")
    report["raw_wall_s"] = (median(r.wall for r in untraced), "s")
    report["raw_steps_per_s"] = (median(steps_per_s), "steps/s")
    report["host_slowdown"] = (median(r.slowdown for r in untraced), "ratio")
    for part in ("import_s", "inputs_s"):
        report[f"setup_{part}"] = (median(r[part] / r["slowdown"] for r in setups), "s")
    if any(train_s):
        report["train_steps_per_s"] = (median(
            r.tf_steps / t * r.slowdown for r, t in zip(untraced, train_s)), "steps/s")
    if any(eval_s):
        report["eval_steps_per_s"] = (median(
            n / e * r.slowdown for r, n, e in zip(untraced, eval_steps, eval_s)), "steps/s")
        act = summarize(1e3 * d for r in untraced
                        for d in r.stats["policy.PolicyAgent.act"].durations)
        for key, value in act.items():
            if key != "n":
                report[f"act_ms_{key}"] = (value, "ms")
        report["act_samples"] = (act["n"], "count")
    return metrics, report


def per_layer(reps) -> dict:
    import workloads as wl

    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    out = {}
    for name in wl.LAYER_SPANS:
        out[f"{name}.calls"] = (statistics.median_low(r.calls(name) for r in traced), "count")
        out[f"{name}.self_s"] = (statistics.median(r.stats[name].self_s for r in traced), "s")
        if name in wl.PER_STEP_SPANS:
            samples = [d for r in traced for d in r.stats[name].self_durations]
            out[f"{name}.self_ms_p50"] = (
                1e3 * statistics.median(samples) if samples else 0.0, "ms")

    def per_step(r, value):
        return value / r.tf_steps if r.tf_steps else 0.0

    instr = out["policy.Model.instruction.calls"][0]
    out["policy.instruction_miss_ratio"] = (
        out["decoder.tokenize.calls"][0] / instr if instr else 0.0, "ratio")
    out["numerics.tape_nodes_per_step"] = (statistics.median(
        per_step(r, r.counters.get("tape_nodes", 0)) for r in traced), "nodes/step")
    split = {
        "forward": lambda r: (r.total("training.train_run") - r.total("training.encode_dataset")
                              - r.total("numerics.backward") - r.total("training.Adam.step")),
        "backward": lambda r: r.total("numerics.backward"),
        "optimizer": lambda r: r.total("training.Adam.step"),
    }
    for part, seconds in split.items():
        out[f"training.{part}_ms_per_step"] = (statistics.median(
            1e3 * per_step(r, seconds(r)) for r in traced), "ms/step")
    for key in ("bytes_read", "bytes_written"):
        out[f"persist.{key}"] = (statistics.median_low(
            r.counters.get(key, 0) for r in traced), "bytes")
    out["trace.overhead"] = (statistics.median(r.norm_wall for r in traced)
                             / statistics.median(r.norm_wall for r in untraced) - 1.0, "ratio")
    return out


def as_metrics(table: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()}


# --- main --------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minivla" / "__init__.py").is_file():
        print(f"error: the minivla sources are missing: no {SRC / 'minivla'}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()[0]
    sys.path.insert(0, str(SRC))
    import minivla
    import workloads as wl

    if Path(minivla.__file__).resolve().parent != SRC / "minivla":
        print(f"error: imported minivla from {minivla.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(load_at_start)
    if env["load_above_nproc"]:
        print(f"warning: load average {load_at_start:.2f} above nproc {env['nproc']} "
              "at start; timings are suspect", file=sys.stderr)

    workload = wl.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())[workload.name].get(str(args.seed))
    work_dir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    ledger = Ledger()
    try:
        probe = Probe()
        setup = SetUp(workload, workload.plan(args.seed), work_dir, probe)
        reps, outcome, missing = run_reps(workload, setup.inputs, args.seconds, args.trace,
                                          work_dir, ledger, reference, probe, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if missing:
        print(f"warning: spans not found, reported as zero: {', '.join(missing)}",
              file=sys.stderr)
    if not reps or (args.trace and not any(r.traced for r in reps)):
        print("error: no repetition of the workload completed", file=sys.stderr)
        return 1

    metrics, report = end_to_end(reps, setup.replies)
    report["failed_frac"] = (ledger.failed_frac, "ratio")
    layers = per_layer(reps) if args.trace else {}
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(reps),
        "repetition_walls": [r.wall for r in reps],
        "repetition_slowdowns": [r.slowdown for r in reps],
        "repetition_peak_rss_mb": [r.peak_rss_mb for r in reps],
        "setups": [{k: r[k] for k in ("import_s", "inputs_s", "slowdown")}
                   for r in setup.replies],
        "reference_checked": reference is not None, "environment": env,
        "attempted": ledger.attempted, "failed": ledger.failed, "problems": ledger.problems,
        "end_to_end": as_metrics(report), "per_layer": as_metrics(layers),
        "outcome": outcome, "missing_spans": missing,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  repetitions {len(reps)}  "
          f"reference {'checked' if reference is not None else 'none (bitwise repeats only)'}")
    print(f"  {workload.why}")
    for name, (value, unit) in {**report, **layers}.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  env: git {env['git_sha']}  python {env['python']}  numpy {env['numpy']}  "
          f"blas {env['blas'].get('name')} {env['blas'].get('version')}  nproc {env['nproc']}  "
          f"load {load_at_start:.2f}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": as_metrics(layers if args.trace else metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
