"""The benchmark's workloads: generated inputs, the timed command, its checks.

Each workload mirrors one CLI path of minivla and calls the package's
public functions with inputs generated from the workload seed:

- ``train``: ``minivla train`` on a five-family dataset read from disk.
  The taped forward, ``backward`` and Adam dominate; ``sim`` is absent.
- ``rollout``: ``minivla eval`` of a seed-fixed checkpoint on palette D.
  The no-grad path: encoder, resampler, decoder, head, and ``sim``
  render/step. No tape, no ``backward``, no Adam.
- ``ablate``: the shared-vs-separate resampler ablation with
  ``batch_size`` > 1. It encodes the same dataset twice, uses the
  separate-resampler parameters and the batch-loss path, and interleaves
  training with evaluation in one process.

Importing this module imports minivla, so ``src`` must be on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from minivla import analysis as an
from minivla import depth as dp
from minivla import persist
from minivla import policy as pol
from minivla import sim
from minivla import training as tr
from minivla.config import EnvConfig, ModelConfig, TrainConfig

from spans import Ledger

DEFAULT_SEED = 0
# Perf claims are developed on DEFAULT_SEED and must also hold on this one.
HELDOUT_SEED = 1

TRAIN_PALETTES = ("A", "B", "C")
EVAL_PALETTE = "D"

# --- spans -------------------------------------------------------------------------

# The untraced run wraps only these three boundaries, which the end-to-end
# metrics are defined on; everything inside them runs unwrapped.
E2E_SPANS = ("training.train_run", "analysis.run_chain_eval", "policy.PolicyAgent.act")

# Spans of the traced run, grouped by minivla module (the layers).
LAYER_SPANS = (
    "sim.make_env", "sim.render_observation", "sim.step_env", "sim.success",
    "depth.compute_stats", "depth.preprocess_depth",
    "encoders.vit_encode_pair", "encoders.resample",
    "decoder.decode", "decoder.tokenize",
    "policy.init_model", "policy.encode_observation", "policy.policy_core",
    "policy.lstm_step", "policy.action_heads", "policy.Model.instruction",
    "policy.PolicyAgent.act",
    "numerics.backward",
    "training.train_run", "training.encode_dataset", "training.Adam.step",
    "analysis.run_chain_eval", "analysis.aggregate_chain_metrics",
    "analysis.run_sep_resampler_ablation",
    "persist.load_dataset", "persist.save_checkpoint", "persist.load_checkpoint",
    "persist.write_metrics",
)

# Called once per policy step (or per update): these also report a per-call median.
PER_STEP_SPANS = frozenset({
    "sim.render_observation", "sim.step_env", "sim.success",
    "depth.preprocess_depth", "encoders.vit_encode_pair", "encoders.resample",
    "decoder.decode", "policy.encode_observation", "policy.policy_core",
    "policy.lstm_step", "policy.action_heads", "policy.PolicyAgent.act",
    "numerics.backward", "training.Adam.step",
})

PERSIST_SPANS = tuple(s for s in LAYER_SPANS if s.startswith("persist."))


def _read_io() -> tuple[int, int, int] | None:
    """(rchar, wchar, bytes this read added to rchar) of this process, or None."""
    try:
        with open("/proc/self/io") as f:
            text = f.read()
    except OSError:
        return None
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    return int(fields["rchar"]), int(fields["wchar"]), len(text)


def _io_pre(_args, _kwargs):
    return _read_io()


def _io_post(counters, before, _result) -> None:
    after = _read_io()
    if before is None or after is None:
        return
    counters["bytes_read"] = counters.get("bytes_read", 0) + after[0] - before[0] - before[2]
    counters["bytes_written"] = counters.get("bytes_written", 0) + after[1] - before[1]


def tape_nodes(loss) -> int:
    """Recorded operations reachable from a loss (leaves excluded)."""
    seen: set[int] = set()
    stack = [loss]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        parents = getattr(node, "_parents", ())
        if parents:
            count += 1
            stack.extend(parents)
    return count


def _loss_arg(args, kwargs):
    return args[0] if args else kwargs["loss"]


def _tape_post(counters, loss, _result) -> None:
    counters["tape_nodes"] = counters.get("tape_nodes", 0) + tape_nodes(loss)


class ActionLog:
    """Every action an agent returned: a SHA-256 in order, and float summaries.

    The digest is compared bitwise between repetitions of one run. The
    summaries are compared with the recorded reference to a relative
    tolerance, which a change in float summation order passes and a change
    of any action by more than rounding does not.
    """

    def __init__(self):
        self._h = hashlib.sha256()
        self.pose_sum = np.zeros(6)
        self.pose_abs_sum = np.zeros(6)
        self.gripper_closed = 0

    def __call__(self, _counters, _state, action) -> None:
        pose = np.asarray(action.pose, dtype=np.float64)
        self._h.update(pose.tobytes())
        self._h.update(b"1" if action.gripper_closed else b"0")
        self.pose_sum += pose
        self.pose_abs_sum += np.abs(pose)
        self.gripper_closed += bool(action.gripper_closed)

    def summary(self) -> dict:
        return {"action_digest": self._h.hexdigest(),
                "action_pose_sum": self.pose_sum.tolist(),
                "action_pose_abs_sum": self.pose_abs_sum.tolist(),
                "action_gripper_closed": self.gripper_closed}


# Outcome keys ActionLog.summary gives that the reference pins, with their tolerance.
ACTION_REFERENCE_KEYS = ("action_pose_sum", "action_pose_abs_sum", "action_gripper_closed")
ACTION_REFERENCE_REL = {"action_pose_sum": 1e-9, "action_pose_abs_sum": 1e-9}


def span_hooks(actions: ActionLog) -> dict:
    hooks = {name: (_io_pre, _io_post) for name in PERSIST_SPANS}
    hooks["policy.PolicyAgent.act"] = (None, actions)
    hooks["numerics.backward"] = (_loss_arg, _tape_post)
    return hooks


# --- inputs --------------------------------------------------------------------------


# The most common demonstration length of each family. Every seed yields
# datasets of the same shape, so timings and memory do not vary with the
# lengths of the scenes a seed happens to draw.
DEMO_STEPS = {"lift": 10, "push": 9, "press": 6, "place": 12, "slide": 15}


@dataclasses.dataclass(frozen=True)
class Plan:
    """The workload seed and the demonstration scenes: (scene seed, family, palette)."""

    seed: int
    scenes: tuple[tuple[int, str, str], ...]

    @staticmethod
    def from_json(value: dict) -> "Plan":
        return Plan(value["seed"], tuple(tuple(scene) for scene in value["scenes"]))


def plan_scenes(seed: int, per_family: int) -> Plan:
    """per_family scenes of each family whose expert demonstration has DEMO_STEPS steps.

    Candidate scenes of family f have seeds seed * 100_000 + f * 10_000 + i,
    tried in order of i; palettes cycle A/B/C over the kept ones. The search
    is not part of set-up time: set-up generates only the kept scenes.
    """
    scenes = []
    for f, family in enumerate(sim.FAMILIES):
        base = seed * 100_000 + f * 10_000
        kept = 0
        for scene in range(base, base + 10_000):
            palette = TRAIN_PALETTES[kept % len(TRAIN_PALETTES)]
            (demo,) = sim.generate_dataset(1, scene, [palette], families=[family])
            if len(demo.steps) == DEMO_STEPS[family]:
                scenes.append((scene, family, palette))
                kept += 1
                if kept == per_family:
                    break
        else:
            raise RuntimeError(f"too few {family} scenes of {DEMO_STEPS[family]} steps")
    return Plan(seed, tuple(scenes))


def demo_set(plan: Plan) -> list[sim.Trajectory]:
    return [sim.generate_dataset(1, scene, [palette], families=[family])[0]
            for scene, family, palette in plan.scenes]


def chain_seed(seed: int) -> int:
    """First chain seed; above every scene seed plan_scenes can draw for this seed."""
    return seed * 100_000 + 50_000


PLANES = ("rgb_static", "rgb_gripper", "depth_static", "depth_gripper")


def dataset_digest(data: list[sim.Trajectory]) -> str:
    """SHA-256 of a dataset as stored on disk: headers, float32 planes and actions."""
    h = hashlib.sha256()
    for t in data:
        h.update(json.dumps([t.instruction, t.family, t.palette, int(t.seed), t.variant,
                             len(t.steps)]).encode())
        for obs, action in t.steps:
            for plane in PLANES:
                h.update(np.ascontiguousarray(getattr(obs, plane), dtype=np.float32).tobytes())
            h.update(np.asarray(action.pose, dtype=np.float32).tobytes())
            h.update(b"1" if action.gripper_closed else b"0")
    return h.hexdigest()


def checkpoint_roundtrip_mismatch(path: Path) -> str:
    """'' when save(load(path)) reproduces path byte for byte."""
    again = path.with_name(path.stem + ".roundtrip" + path.suffix)
    persist.save_checkpoint(persist.load_checkpoint(path), again)
    same = again.read_bytes() == path.read_bytes()
    again.unlink()
    return "" if same else "save(load(checkpoint)) differs from checkpoint"


def dataset_steps(data) -> int:
    return sum(len(t.steps) for t in data)


# --- workloads -------------------------------------------------------------------------


class Workload:
    """One benchmark workload.

    ``plan`` picks the inputs' scenes from the seed; ``setup`` generates
    them and writes them under a directory (this is what set-up time
    measures) and returns ``(inputs, generated)``: an ``INPUTS``, a
    dataclass of JSON values that locates them, and what was generated.
    ``describe`` adds to the inputs what the checks need to know about
    what was generated, outside set-up time; ``prepare`` does both
    steps. ``run`` is the timed
    command; ``outcome`` gives its outputs as JSON values; ``check`` tests
    the invariants that need no reference. ``REFERENCE_KEYS`` are the
    outcome keys compared with the recorded reference, ``REFERENCE_REL``
    the relative tolerance per key (exact otherwise).
    """

    name = ""
    why = ""
    INPUTS: type
    REFERENCE_KEYS: tuple[str, ...] = ()
    REFERENCE_REL: dict[str, float] = {}
    PER_FAMILY = 1

    def plan(self, seed: int) -> Plan:
        return plan_scenes(seed, self.PER_FAMILY)

    def setup(self, work_dir: Path, plan: Plan):
        raise NotImplementedError

    def describe(self, inputs, generated):
        return inputs

    def prepare(self, work_dir: Path, plan: Plan):
        return self.describe(*self.setup(work_dir, plan))

    def run(self, inputs, out_dir: Path):
        raise NotImplementedError

    def planned_ops(self, inputs) -> int:
        raise NotImplementedError

    def teacher_forced_steps(self, inputs) -> int:
        return 0

    def outcome(self, result, eval_steps: int, actions: ActionLog) -> dict:
        raise NotImplementedError

    def check(self, inputs, result, ledger: Ledger) -> None:
        pass


@dataclasses.dataclass
class DatasetInputs:
    """A dataset written at set-up: where it is, and what reading it back must give."""

    seed: int
    data_dir: str
    digest: str
    trajectories: int
    steps: int


class DatasetWorkload(Workload):
    """A workload whose input is a demonstration dataset on disk."""

    INPUTS = DatasetInputs

    def setup(self, work_dir, plan):
        data = demo_set(plan)
        persist.save_dataset(data, work_dir / "data", meta={"seed": plan.seed})
        return DatasetInputs(plan.seed, str(work_dir / "data"), "", len(data),
                             dataset_steps(data)), data

    def describe(self, inputs, generated):
        return dataclasses.replace(inputs, digest=dataset_digest(generated))

    def check(self, inputs, result, ledger):
        ledger.check("dataset round-trip", dataset_digest(result["data"]) == inputs.digest,
                     "the dataset read back differs from the one written at set-up")


class TrainWorkload(DatasetWorkload):
    name = "train"
    why = ("minivla train on five families: taped forward, backward and Adam "
           "dominate; sim is absent")
    PER_FAMILY = 3
    EPOCHS = 2
    REFERENCE_KEYS = ("losses", "frozen_checksum")
    REFERENCE_REL = {"losses": 1e-9}

    def run(self, inputs, out_dir):
        data = persist.load_dataset(inputs.data_dir)
        stats = dp.compute_stats(persist.dataset_depth_frames(data))
        model = pol.init_model(ModelConfig(seed=inputs.seed), stats)
        report = tr.train_run(data, model, TrainConfig(epochs=self.EPOCHS, batch_size=1,
                                                       seed=inputs.seed))
        checkpoint = persist.save_checkpoint(model, out_dir / "checkpoint.rfpx")
        return {"data": data, "stats": stats, "model": model, "report": report,
                "checkpoint": checkpoint}

    def planned_ops(self, inputs):
        return self.EPOCHS * inputs.trajectories  # one update per trajectory

    def teacher_forced_steps(self, inputs):
        return self.EPOCHS * inputs.steps

    def outcome(self, result, eval_steps, actions):
        return {"losses": [e.loss for e in result["report"].epochs],
                "mse": [e.mse for e in result["report"].epochs],
                "bce": [e.bce for e in result["report"].epochs],
                "frozen_checksum": list(tr.frozen_checksum(result["model"]))}

    def check(self, inputs, result, ledger):
        fresh = pol.init_model(result["model"].cfg, result["stats"])
        ledger.check("frozen_checksum unchanged by training",
                     tr.frozen_checksum(fresh) == tr.frozen_checksum(result["model"]))
        mismatch = checkpoint_roundtrip_mismatch(result["checkpoint"])
        ledger.check("checkpoint round-trip", not mismatch, mismatch)
        super().check(inputs, result, ledger)


@dataclasses.dataclass
class RolloutInputs:
    seed: int
    checkpoint: str


class RolloutWorkload(Workload):
    name = "rollout"
    why = ("minivla eval on held-out palette D: the no-grad policy step plus sim "
           "render and step; no tape, backward or Adam")
    INPUTS = RolloutInputs
    CHAINS = 4
    HORIZON = 64
    REFERENCE_KEYS = ("successes", "steps") + ACTION_REFERENCE_KEYS
    REFERENCE_REL = ACTION_REFERENCE_REL

    def setup(self, work_dir, plan):
        stats = dp.compute_stats(persist.dataset_depth_frames(demo_set(plan)))
        model = pol.init_model(ModelConfig(seed=plan.seed), stats)
        return RolloutInputs(plan.seed,
                             str(persist.save_checkpoint(model, work_dir / "model.rfpx"))), None

    def run(self, inputs, out_dir):
        model = persist.load_checkpoint(inputs.checkpoint)
        results = an.run_chain_eval(pol.PolicyAgent(model), self.CHAINS, EVAL_PALETTE,
                                    chain_seed(inputs.seed), horizon=self.HORIZON)
        table = an.aggregate_chain_metrics(results, model_label="bench",
                                           train_split="".join(TRAIN_PALETTES),
                                           test_split=EVAL_PALETTE)
        persist.write_metrics(table, out_dir)
        return {"results": results, "table": table}

    def planned_ops(self, inputs):
        return self.CHAINS

    def outcome(self, result, eval_steps, actions):
        return {"successes": [list(map(bool, r.successes)) for r in result["results"]],
                "steps": eval_steps, "table": result["table"].to_dict(),
                **actions.summary()}


class AblateWorkload(DatasetWorkload):
    name = "ablate"
    why = ("shared vs separate resampler with batch_size > 1: encodes one dataset "
           "twice and interleaves training with evaluation")
    PER_FAMILY = 1
    EPOCHS = 1
    BATCH = 4
    CHAINS = 1
    HORIZON = 32
    REFERENCE_KEYS = ("init_evaluations_identical", "tables") + ACTION_REFERENCE_KEYS
    REFERENCE_REL = ACTION_REFERENCE_REL

    def env_config(self):
        return EnvConfig(palettes=list(TRAIN_PALETTES), eval_palette=EVAL_PALETTE,
                         n_chains=self.CHAINS, horizon=self.HORIZON)

    def run(self, inputs, out_dir):
        data = persist.load_dataset(inputs.data_dir)
        stats = dp.compute_stats(persist.dataset_depth_frames(data))
        report = an.run_sep_resampler_ablation(
            ModelConfig(seed=inputs.seed), stats, data,
            TrainConfig(epochs=self.EPOCHS, batch_size=self.BATCH, seed=inputs.seed),
            self.env_config())
        for table in report.tables.values():
            persist.write_metrics(table, out_dir)
        return {"data": data, "report": report}

    def planned_ops(self, inputs):
        updates = 2 * self.EPOCHS * math.ceil(inputs.trajectories / self.BATCH)
        chains = 2 * min(self.CHAINS, 5) + 2 * self.CHAINS
        return updates + chains

    def teacher_forced_steps(self, inputs):
        return 2 * self.EPOCHS * inputs.steps

    def outcome(self, result, eval_steps, actions):
        report = result["report"]
        return {"init_evaluations_identical": report.extras["init_evaluations_identical"],
                "tables": {k: t.to_dict() for k, t in report.tables.items()},
                "resampler_param_counts": report.extras["resampler_param_counts"],
                "steps": eval_steps, **actions.summary()}

    def check(self, inputs, result, ledger):
        ledger.check("init_evaluations_identical",
                     bool(result["report"].extras["init_evaluations_identical"]))
        super().check(inputs, result, ledger)


WORKLOADS = {w.name: w for w in (TrainWorkload(), RolloutWorkload(), AblateWorkload())}


# --- output comparison -------------------------------------------------------------------


def as_json(value):
    """The value as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def diff(expected, got, rel: float = 0.0, path: str = "") -> list[str]:
    """Differences between two JSON values; floats equal bitwise, or within rel."""
    if isinstance(expected, dict) and isinstance(got, dict):
        if expected.keys() != got.keys():
            return [f"{path or '.'}: keys {sorted(got)} != {sorted(expected)}"]
        out = []
        for key in expected:
            out += diff(expected[key], got[key], rel, f"{path}.{key}")
        return out
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{path}: length {len(got)} != {len(expected)}"]
        out = []
        for i, (a, b) in enumerate(zip(expected, got)):
            out += diff(a, b, rel, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and isinstance(got, float):
        if rel > 0.0:
            ok = abs(expected - got) <= rel * max(abs(expected), abs(got))
        else:
            ok = expected.hex() == got.hex()
        return [] if ok else [f"{path}: {got!r} != {expected!r}"]
    if type(expected) is not type(got) or expected != got:
        return [f"{path}: {got!r} != {expected!r}"]
    return []


def reference_diff(workload: Workload, reference: dict, outcome: dict) -> list[str]:
    out = []
    for key in workload.REFERENCE_KEYS:
        out += diff(reference[key], outcome[key], workload.REFERENCE_REL.get(key, 0.0), key)
    return out
