"""Imitation objective, Adam, train loop.

The objective per trajectory sums over timesteps: mean squared error
over the six pose dims (mean over dims keeps the gripper weight
scale-free) plus lambda times logit-form binary cross-entropy on the
gripper bit. Training is teacher-forced behavior cloning: observations
come from the demonstration, hidden state carries across its steps, and
one Adam update runs per batch of trajectories (batch size 1 by
default). Only the resampler(s), the cross-attention sublayers with
their gates, and the policy head ever receive updates; the encoder,
self-attention blocks, and embedding table stay frozen. That split has
one owner, the trainable flags policy.init_model gives each entry of
model.params: Adam takes the flagged entries once when it is built,
zero_grads and backward fill their gradients, and nothing here selects
the parameters to train by name. Only frozen_checksum reads parameters
by name, the frozen groups by their prefixes (vit., embed. and each
decoder layer's self.), to fingerprint what training must not change.

Building Adam builds the ParamSet's flat layout (numerics.FlatLayout):
the trainable tensors become views into one data vector and one
gradient vector, in name order, and Adam keeps both moments as two more
vectors of that length. A step is a few in-place whole-vector ops,
chunk by chunk; each element sees the same ops in the same order as a
per-tensor update, so parameters are bitwise those of one. A tensor
whose .data or .grad is rebound after that makes the next step raise
ContractError instead of updating a detached copy.

Under teacher forcing every stage but the LSTM depends only on its own
step's frames, so a trajectory's loss is recorded with time as a batch
axis: the frozen tokens are encoded once per dataset and stored stacked,
(T, 2N, d) per modality; resampler -> decoder -> max-pool, the action
heads and the imitation loss each run once over all T steps, and the
LSTM recurrence is one tape op per layer over all T steps, not a
per-step loop (see policy.policy_core and numerics.lstm_layer).

encode_dataset is one enc.vit_encode_pair call over all four camera
slots of the whole dataset, which encodes on every usable CPU and joins its threads
before returning. Its tokens are bitwise those of each frame encoded
alone, so seed-fixed training stays bitwise reproducible; everything
after it (forward, backward, Adam) runs on the calling thread.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import decoder as dec
from . import numerics as nm
from . import policy as pol
from . import sim
from .config import TrainConfig
from .errors import ContractError, DivergedTrainingError, NumericInputError
from .numerics import ParamSet, Tensor

Array = np.ndarray

def frozen_checksum(model: pol.Model) -> tuple[float, ...]:
    """Fingerprint of every frozen group; unchanged by any training run."""
    p = model.params
    return (p.checksum("vit."), p.checksum("embed."),
            sum(p.checksum(f"decoder.{l}.self.") for l in range(dec.DECODER_LAYERS)))


def imitation_loss(preds, demo, lam: float) -> tuple[Tensor, Tensor, Tensor]:
    """(total, pose_mse_sum, gripper_bce_sum) over one trajectory.

    preds: (pose (T,6) Tensor, gripper logit (T,1) Tensor), one row per step.
    demo: per-step expert sim.Action. lam is TrainConfig.lambda_gripper,
    which TrainConfig.validate keeps non-negative.
    """
    pose, logit = preds
    if pose.shape[0] != len(demo):
        raise ContractError(
            f"prediction/demonstration length mismatch: {pose.shape[0]} vs {len(demo)}"
        )
    target = Tensor(np.stack([np.asarray(a.pose, dtype=np.float64) for a in demo]))
    labels = Tensor([[1.0 if a.gripper_closed else 0.0] for a in demo])
    err = nm.sub(pose, target)
    # Per step the mean over the pose dims, summed over steps.
    mse_sum = nm.mul(nm.sum_all(nm.mul(err, err)), Tensor(1.0 / pose.shape[1]))
    bce_sum = nm.bce_with_logits(logit, labels)
    total = nm.add(mse_sum, nm.mul(Tensor(lam), bce_sum))
    return total, mse_sum, bce_sum


# Elements per in-place pass of Adam.step: each pass touches six chunks
# (data, gradient, both moments, two scratch buffers) that stay in cache.
ADAM_CHUNK = 16384


class Adam:
    """Bias-corrected adaptive-moment updates, with the moment decays and
    epsilon of the Adam paper (arXiv 1412.6980).

    The optimizer owns its parameter list: the trainable entries of the
    ParamSet it is built over, in that set's name order, read once here
    through the set's flat layout, with both moments as flat vectors
    beside it. step() updates them from their gradients, which
    ParamSet.zero_grads and backward fill, after scaling them all down to
    a global norm of at most CLIP_NORM. A step allocates no array.
    """

    BETAS = (0.9, 0.999)
    EPS = 1e-8
    CLIP_NORM = 1.0

    def __init__(self, cfg: TrainConfig, params: ParamSet):
        self.lr = cfg.learning_rate
        self.b1, self.b2 = self.BETAS
        self.eps = self.EPS
        self.t = 0
        self._layout = params.flat_layout()
        size = self._layout.data.size
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        # Two scratch buffers, each as long as a chunk or the largest tensor.
        # A gradient's squares go to the first, shaped like the gradient so
        # that their sum is the per-tensor one.
        width = max([min(size, ADAM_CHUNK)] + [t.size for t in self._layout.tensors])
        self._a, self._b = np.empty(width), np.empty(width)
        self._squares = [self._a[:t.size].reshape(t.shape) for t in self._layout.tensors]

    def step(self) -> None:
        layout = self._layout
        layout.check_bound()
        sq = 0.0
        # Squares of a finite gradient may overflow to inf; the step then
        # goes on with every gradient scaled to zero, so that is no warning.
        with np.errstate(over="ignore"):
            for t, squares in zip(layout.tensors, self._squares):
                np.multiply(t.grad, t.grad, out=squares)
                sq += float(squares.sum())
        if not math.isfinite(sq):
            for t in layout.tensors:
                if not np.isfinite(t.grad).all():
                    raise DivergedTrainingError(f"non-finite gradient in {t.name}")
        norm = np.sqrt(sq)
        scale = self.CLIP_NORM / norm if norm > self.CLIP_NORM else 1.0

        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for start in range(0, layout.data.size, ADAM_CHUNK):
            stop = start + ADAM_CHUNK
            p, g = layout.data[start:stop], layout.grad[start:stop]
            m, v = self.m[start:stop], self.v[start:stop]
            a, b = self._a[:p.size], self._b[:p.size]
            if scale != 1.0:  # x * 1.0 is x
                g = np.multiply(g, scale, out=a)
            m *= self.b1
            m += np.multiply(g, 1.0 - self.b1, out=b)
            v *= self.b2
            np.multiply(g, 1.0 - self.b2, out=b)
            b *= g
            v += b
            # data -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            np.divide(m, c1, out=a)
            a *= self.lr
            a /= b
            p -= a


@dataclass
class EpochStats:
    epoch: int
    loss: float
    mse: float
    bce: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)


def encode_dataset(model: pol.Model, dataset: list[sim.Trajectory]):
    """Precompute the frozen token sequences once; they never change
    under teacher forcing.

    Per trajectory: (instruction, (X_rgb, X_depth) each (T, 2N, d),
    expert actions). Instructions are resolved first, so bad text fails
    before any encode; then one encode_trajectory call, whose memo carries
    across trajectories as across steps and lasts for this call, is
    sliced per trajectory; nothing is left on the model. Models
    with equal frozen_checksum, depth statistics and depth_input encode a
    dataset identically and may share the result.
    """
    instructions = [model.instruction(traj.instruction) for traj in dataset]
    x_rgb, x_depth = pol.encode_trajectory(
        model, [obs for traj in dataset for obs, _ in traj.steps])
    encoded = []
    start = 0
    for instr, traj in zip(instructions, dataset):
        stop = start + len(traj.steps)
        encoded.append((instr, (x_rgb[start:stop], x_depth[start:stop]),
                        [action for _, action in traj.steps]))
        start = stop
    return encoded


def _trajectory_loss(model: pol.Model, instr, tokens, actions, lam: float):
    pose, logit, _ = pol.policy_core(model, tokens, instr, pol.reset_hidden(model))
    return imitation_loss((pose, logit), actions, lam)


def train_run(dataset: list[sim.Trajectory], model: pol.Model, cfg: TrainConfig,
              on_epoch=None, encoded=None) -> TrainReport:
    """Seed-fixed shuffled epochs of per-batch updates; deterministic.

    A batch's gradient is the mean of its trajectories' gradients, since
    only the LSTM carries state and it restarts per trajectory. Each
    trajectory's loss graph is therefore backpropagated, scaled by
    1 / batch size, as soon as it is built and then freed; leaf gradients
    accumulate across the batch and one Adam step follows it.

    on_epoch(epoch_index, EpochStats) fires after each epoch (checkpoint
    hooks plug in there). encoded, when given, is encode_dataset's result
    for this dataset under an encoder identical to this model's; it is
    computed here otherwise. Raises DivergedTrainingError (with the epoch
    index) if the loss goes non-finite, or if a forward after an update
    raises NumericInputError, naming the epoch and the update.
    """
    if not dataset:
        raise ContractError("training needs a nonempty dataset")
    cfg.validate()
    shuffle_rng = np.random.default_rng(cfg.seed)
    if encoded is None:
        encoded = encode_dataset(model, dataset)
    elif len(encoded) != len(dataset):
        raise ContractError(
            f"encoded dataset has {len(encoded)} trajectories, dataset {len(dataset)}"
        )
    # Built after the encode, so its moments do not add to the encode's peak memory.
    optimizer = Adam(cfg, model.params)

    report = TrainReport()
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(encoded))
        loss_sum = mse_sum = bce_sum = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            model.params.zero_grads()
            weight = Tensor(1.0 / len(batch))
            for idx in batch:
                instr, tokens, actions = encoded[idx]
                try:
                    total, mse_t, bce_t = _trajectory_loss(
                        model, instr, tokens, actions, cfg.lambda_gripper)
                except NumericInputError as e:
                    if not optimizer.t:  # the input, not an update, is at fault
                        raise
                    raise DivergedTrainingError(
                        f"training diverged at epoch {epoch}: the parameters that "
                        f"update {optimizer.t} left fail the forward: {e}") from e
                if not np.isfinite(total.data):
                    raise DivergedTrainingError(f"loss diverged at epoch {epoch}")
                loss_sum += total.item()
                mse_sum += mse_t.item()
                bce_sum += bce_t.item()
                nm.backward(nm.mul(total, weight))
                del total, mse_t, bce_t  # free this graph before the next is built
            optimizer.step()
        n = len(encoded)
        stats = EpochStats(epoch, loss_sum / n, mse_sum / n, bce_sum / n,
                           time.perf_counter() - t0)
        report.epochs.append(stats)
        if on_epoch is not None:
            on_epoch(epoch, stats)
    return report


def full_model_gradcheck() -> nm.GradCheckResult:
    """Finite differences over every trainable entry of a complete policy.

    Exercises the whole composition (depth pipeline, frozen encoder,
    resampler, 2-layer fusion stack, recurrent head, loss) on a 2-step
    synthetic batch drawn from seed 7, with step nm.GRAD_CHECK_EPS (1e-5).
    Dims are the smallest that keep every stage present (4 patches per
    frame), so the check finishes in well under a minute.
    """
    from . import depth as dp
    from .config import ModelConfig

    seed = 7
    cfg = ModelConfig(patch=16, d_model=16, resampler_k=2, lstm_width=8, seed=seed)
    rng = np.random.default_rng(seed)
    hw = sim.IMAGE_HW

    def synth_obs():
        return sim.Observation(
            rgb_static=rng.random((hw, hw, 3)).astype(np.float32),
            rgb_gripper=rng.random((hw, hw, 3)).astype(np.float32),
            depth_static=(0.6 + 0.4 * rng.random((hw, hw))).astype(np.float32),
            depth_gripper=(0.6 + 0.4 * rng.random((hw, hw))).astype(np.float32),
        )

    observations = [synth_obs(), synth_obs()]
    stats = dp.compute_stats(
        [o.depth_static for o in observations] + [o.depth_gripper for o in observations])
    model = pol.init_model(cfg, stats)
    for layer in model.decoder:
        layer["cross.alpha"].data = np.asarray(0.3)

    actions = []
    for _ in range(2):
        pose = np.zeros(6)
        pose[:3] = rng.uniform(-0.06, 0.06, size=3)
        actions.append(sim.Action(pose, bool(rng.random() < 0.5)))
    instr = model.instruction("lift the red block")
    tokens = pol.encode_trajectory(model, observations)

    def f(params):
        total, _, _ = _trajectory_loss(model, instr, tokens, actions, 1.0)
        return total

    return nm.grad_check(f, model.params)
