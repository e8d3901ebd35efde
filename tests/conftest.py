import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import minivla
from minivla import depth as dp
from minivla import encoders as enc
from minivla import persist
from minivla import sim
from minivla.config import ModelConfig


def tiny_config(**overrides) -> ModelConfig:
    """Smallest full-composition model; used wherever finite differences run."""
    base = dict(patch=16, d_model=16, vit_blocks=1, resampler_k=2,
                decoder_layers=2, lstm_layers=2, lstm_width=8, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def synthetic_obs(rng: np.random.Generator) -> sim.Observation:
    """Random but well-formed observation of sim.IMAGE_HW frames."""
    hw = sim.IMAGE_HW
    return sim.Observation(
        rgb_static=rng.random((hw, hw, 3)).astype(np.float32),
        rgb_gripper=rng.random((hw, hw, 3)).astype(np.float32),
        depth_static=(0.6 + 0.4 * rng.random((hw, hw))).astype(np.float32),
        depth_gripper=(0.6 + 0.4 * rng.random((hw, hw))).astype(np.float32),
    )


def synthetic_stats() -> dp.DepthStats:
    return dp.DepthStats(0.6, 1.0, 0.5, 0.29)


def count_encodes(monkeypatch) -> list[int]:
    """Record the camera slot of every frame the frozen encoder runs on,
    one entry per frame of a batch."""
    cameras = []
    real = enc.vit_encode_image

    def counting(img, vit, patch, blocks, camera):
        cameras.extend([camera] * len(img))
        return real(img, vit, patch, blocks, camera=camera)

    monkeypatch.setattr(enc, "vit_encode_image", counting)
    return cameras


class Recording:
    """An agent that logs (its name, each action it returns) to log; each
    agent it gives for a chain (for_chain) logs to a list of its own,
    appended to chain_logs. It is no PolicyAgent, so an evaluation's
    rounds never step what it wraps, and a PolicyAgent it wraps steps
    alone on each act, a round of one. Evaluations therefore wrap only
    agents without a model (expert, random) and log a PolicyAgent's
    actions by patching PolicyAgent.act (test_analysis.acted)."""

    def __init__(self, agent, log, name=""):
        self.agent, self.log, self.name = agent, log, name
        self.reads_pixels = agent.reads_pixels
        self.chain_logs = []

    def for_chain(self):
        log = []
        self.chain_logs.append(log)
        return Recording(self.agent.for_chain(), log, self.name)

    def reset(self):
        self.agent.reset()

    def begin_task(self, task, instruction):
        self.agent.begin_task(task, instruction)

    def act(self, obs, instruction, state=None):
        action = self.agent.act(obs, instruction, state=state)
        self.log.append((self.name, action))
        return action


def run_chain(agent, chain, max_steps_per_task=64, enrich=False) -> sim.ChainResult:
    """One agent through a stepped chain to its end: sim.lockstep of one."""
    (result,) = sim.lockstep([sim.chain_steps(agent, chain, max_steps_per_task, enrich)])
    return result


def action_bytes(log) -> list:
    """A Recording log with each action as its pose bytes and gripper bit."""
    return [(name, a.pose.tobytes(), a.gripper_closed) for name, a in log]


def header_span(raw: bytes) -> tuple[int, int]:
    """Start and end of the header bytes of a framed file, a checkpoint or
    a dataset (both magics have the same length)."""
    head = len(persist.MAGIC) + 8
    (hlen,) = struct.unpack_from("<Q", raw, len(persist.MAGIC))
    return head, head + hlen


def read_header(path) -> dict:
    """The JSON header of the framed file at path."""
    raw = path.read_bytes()
    start, end = header_span(raw)
    return json.loads(raw[start:end])


def rewrite_header(src, dst, edit) -> None:
    """Copy the framed file at src, a checkpoint or a dataset, to dst with
    its header bytes replaced by edit(header bytes), framed again with a
    valid CRC; the magic and the payload are kept. The copy then fails
    only the header checks, as a file from another build would."""
    raw = src.read_bytes()
    start, end = header_span(raw)
    header = edit(raw[start:end])
    body = raw[:len(persist.MAGIC)] + struct.pack("<Q", len(header)) + header + raw[end:-4]
    dst.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def rewrite_checkpoint_header(src, dst, edit) -> None:
    """Copy the checkpoint at src to dst with its header JSON replaced by
    edit(header), framed again with a valid CRC."""
    rewrite_header(src, dst, lambda text: json.dumps(edit(json.loads(text))).encode())


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        return "unknown"


def on_another_openblas_core(code: str) -> str:
    """The last line code prints, run by Python with the tests' modules
    importable under OpenBLAS's Prescott kernel, one every x86-64 CPU can
    run."""
    path = os.pathsep.join([str(Path(minivla.__file__).parent.parent),
                            str(Path(__file__).parent)])
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads through /proc")


needs_openblas = pytest.mark.skipif(
    "openblas" not in blas_name().lower(),
    reason=f"the BLAS is {blas_name()}, not OpenBLAS, so OPENBLAS_CORETYPE cannot "
           f"select another kernel")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
