"""Model assembly and the policy head: max-pool, LSTM stack, action heads.

A Model bundles every parameter (frozen encoder/backbone entries plus
the trainable resampler, cross-attention, and head entries) in one
ParamSet with the depth statistics the pipeline normalizes against,
which every model is built with, and groups each stage's parameters once
for the stages to read. Every model tokenizes against VOCAB_INDEX.
The policy composes:

    depth preprocessing -> frozen patch encoder -> resampler ->
    fused tokens -> gated cross-attention stack -> token max-pool ->
    LSTM -> pose / gripper MLP heads

Only the LSTM carries state from step to step. policy_core therefore
takes a trajectory's frozen tokens stacked over time, (T, 2N, d), and
runs resampler -> decoder -> max-pool and the action heads once over
all T steps. The LSTM is one nm.lstm_layer op per layer over all T
steps, whose recurrence loops inside the op, not on the tape. The state
it carries is data, not graph: one (h, c) pair of (1, r) arrays per
layer. Nothing reads a gradient for it, since every trajectory starts
from reset_hidden's zeros and rollouts run under no_grad.

Rollout steps take the same call with a leading chain axis in place of
time: one step of each of C chains, tokens (C, 2N, d), instructions
(C, M, d) and state (C, 1, r), each chain's LSTM a sequence of one
step. Every product keeps each chain's slice at the shape of that
chain's own call, never a padded instruction or one flattened GEMM over
chains, so each chain's action and state are bitwise those of stepping
it alone. act_round is the one way a PolicyAgent steps: it encodes a
lockstep round, then makes one step_agents call, and so one
policy_core call, per group of the round's agents whose models share
one ParamSet and whose instructions have the same token count; each
agent's act then returns its precomputed action. An act outside a round
(a chain run on its own, a lone step) is a round of one.

The frozen encode is one enc.vit_encode_pair call over all four camera
slots, for a round of rollout steps (encode_round, T = 1) and a
teacher-forced trajectory (encode_trajectory) alike, which decides
reuse, batching and threads. This module checks and preprocesses the
frames and supplies the model's memo, one entry per slot, so reuse
spans steps and trajectories. Each Model has a memo of its own: a chain
evaluation gives every chain its own Model over the same parameters
(PolicyAgent.for_chain), and encode_round encodes one lockstep round of
those models in one call, grouped by chain and checking and
preprocessing each frame once; each model's next encode_observation
takes its tokens from that call, its only source. Within a chain, a
model's step reuses the tokens of a frame another model of the chain
encodes in the same call. A memo stays valid because the frozen
weights never change once a model is built; the depth slots hold
preprocessed frames, so the depth statistics are part of what it
compares, and models that differ only in them share the RGB slots
exactly.

Relative pose output is tanh-squashed and scaled to the environment's
per-step clip bound, sim.STEP_CLIP; the gripper logit binarizes at
probability 0.5 with ties resolving to open.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import decoder as dec
from . import depth as dp
from . import encoders as enc
from . import numerics as nm
from . import sim
from .config import ModelConfig
from .errors import ContractError, DimensionError, MinivlaError
from .numerics import ParamSet, Tensor

Array = np.ndarray

LSTM_GATES = 4  # input, forget, cell, output; concatenated in that order

# Word -> id of the closed vocabulary: every instruction template's words.
VOCAB_INDEX = {w: i for i, w in enumerate(dec.build_vocab(sim.vocabulary_words()))}


@contextlib.contextmanager
def _stage(name: str):
    """Tag sub-module errors with the pipeline stage they came from."""
    try:
        yield
    except MinivlaError as e:
        raise type(e)(f"[stage={name}] {e}") from e


class Model:
    """Parameters and depth statistics for one policy, each stage's
    parameters grouped once: vit (name -> frozen array) and embed (the
    frozen table) as arrays, which load_checkpoint writes in place;
    resampler["rgb"] and ["depth"] (one dict unless cfg.sep_resampler),
    decoder[l], lstm[i] = (wx, wh, b) and pose_head, gripper_head =
    (w1, b1, w2, b2) as Tensors, whose data FlatLayout may rebind."""

    def __init__(self, cfg: ModelConfig, params: ParamSet, depth_stats: dp.DepthStats):
        self.cfg = cfg
        self.params = params
        self.depth_stats = depth_stats
        # The frozen-encoder memo (see enc.vit_encode_pair); its tokens stay
        # valid because the frozen weights are never changed after
        # init_model or load_checkpoint sets them.
        self._frame_memo: enc.FrameMemo = {}
        # The observation object encode_round encoded for this model's next
        # step, with its tokens, until encode_observation takes them.
        self._ready: tuple[sim.Observation, tuple[Array, Array]] | None = None

        def group(prefix: str) -> dict[str, Tensor]:
            return {name[len(prefix):]: t for name, t in params.items()
                    if name.startswith(prefix)}

        self.vit = {key: t.data for key, t in group("vit.").items()}
        self.embed = params["embed.table"].data
        if cfg.sep_resampler:
            self.resampler = {m: group(f"resampler.{m}.") for m in ("rgb", "depth")}
        else:
            shared = group("resampler.shared.")
            self.resampler = {"rgb": shared, "depth": shared}
        self.decoder = [group(f"decoder.{l}.") for l in range(cfg.decoder_layers)]
        self.lstm = [tuple(params[f"head.lstm.{i}.{key}"] for key in ("wx", "wh", "b"))
                     for i in range(cfg.lstm_layers)]
        self.pose_head, self.gripper_head = (
            tuple(params[f"head.{head}.{key}"] for key in ("w1", "b1", "w2", "b2"))
            for head in ("pose", "gripper"))

    def instruction(self, text: str) -> Array:
        """The instruction's (M, d) rows of the frozen table, tokenized
        afresh on every call."""
        return dec.embed_ids(self.embed, dec.tokenize(text, VOCAB_INDEX))


def same_frozen_encoder(first: Model, second: Model) -> bool:
    """Whether every vit.* array of the two models is equal in dtype, shape
    and bytes, so that either's frozen tokens are the other's."""
    return first.vit.keys() == second.vit.keys() and all(
        enc._same_frame(first.vit[key], second.vit[key]) for key in first.vit)


def init_model(cfg: ModelConfig, depth_stats: dp.DepthStats) -> Model:
    """Seed-fixed initialization.

    The trainable= flag of each entry is the one statement of which
    parameters train (the resampler(s), the cross-attention sublayers
    with their gates, and the head); the optimizer, grad_check and
    load_checkpoint read it from the ParamSet and nothing assigns it
    later. Separate-resampler models clone one proto resampler into both
    modalities, so shared and separate variants start out functionally
    identical.
    """
    cfg.validate()
    ss = np.random.SeedSequence(cfg.seed)
    rng_vit, rng_embed, rng_res, rng_dec, rng_head = [
        np.random.default_rng(s) for s in ss.spawn(5)
    ]
    params = ParamSet()

    for name, arr in enc.init_encoder_arrays(sim.IMAGE_HW, cfg.patch, cfg.d_model,
                                             cfg.vit_blocks, rng_vit).items():
        params.add(f"vit.{name}", arr, trainable=False)

    params.add("embed.table",
               dec.init_embedding_array(len(VOCAB_INDEX), cfg.d_model, rng_embed),
               trainable=False)

    proto = enc.init_resampler_arrays(cfg.resampler_k, cfg.d_model, rng_res,
                                      params["vit.pos_embed"].data)
    if cfg.sep_resampler:
        for modality in ("rgb", "depth"):
            for key, arr in proto.items():
                params.add(f"resampler.{modality}.{key}", arr.copy(), trainable=True)
    else:
        for key, arr in proto.items():
            params.add(f"resampler.shared.{key}", arr, trainable=True)

    for l in range(cfg.decoder_layers):
        for key, arr in dec.init_decoder_layer_arrays(cfg.d_model, rng_dec).items():
            params.add(f"decoder.{l}.{key}", arr, trainable=key.startswith("cross."))

    d, r = cfg.d_model, cfg.lstm_width
    for i in range(cfg.lstm_layers):
        d_in = d if i == 0 else r
        params.add(f"head.lstm.{i}.wx",
                   rng_head.normal(0.0, d_in ** -0.5, size=(d_in, LSTM_GATES * r)),
                   trainable=True)
        params.add(f"head.lstm.{i}.wh",
                   rng_head.normal(0.0, r ** -0.5, size=(r, LSTM_GATES * r)),
                   trainable=True)
        # Input and output gates start open and the forget gate mildly
        # retentive, so early hidden states track the current features and
        # the encoder path gets usable gradients from step one.
        bias = np.zeros(LSTM_GATES * r)
        bias[:r] = 1.5
        bias[r:2 * r] = 1.0
        bias[3 * r:] = 1.5
        params.add(f"head.lstm.{i}.b", bias, trainable=True)
    for head, width in (("pose", 6), ("gripper", 1)):
        params.add(f"head.{head}.w1", rng_head.normal(0.0, r ** -0.5, size=(r, r)),
                   trainable=True)
        params.add(f"head.{head}.b1", np.zeros(r), trainable=True)
        params.add(f"head.{head}.w2", rng_head.normal(0.0, 0.1 * r ** -0.5, size=(r, width)),
                   trainable=True)
        params.add(f"head.{head}.b2", np.zeros(width), trainable=True)

    return Model(cfg, params, depth_stats)


# --- policy-head primitives ---------------------------------------------------


def lstm_step(x: Tensor, prev: list[tuple[Array, Array]], model: Model
              ) -> tuple[Tensor, list[tuple[Array, Array]]]:
    """Standard stacked LSTM over the T rows of x (T, d), one nm.lstm_layer
    node per layer; returns (top h (T, r), the state after row T as one
    (h, c) pair of (1, r) arrays per layer)."""
    if len(prev) != model.cfg.lstm_layers:
        raise DimensionError(
            f"hidden state has {len(prev)} layers, model expects {model.cfg.lstm_layers}"
        )
    new_state: list[tuple[Array, Array]] = []
    h = x
    for (h0, c0), (wx, wh, b) in zip(prev, model.lstm):
        h, state = nm.lstm_layer(h, h0, c0, wx, wh, b)
        new_state.append(state)
    return h, new_state


def action_heads(h_top: Tensor, model: Model) -> tuple[Tensor, Tensor]:
    """(pose (T,6) scaled into the environment's step bound sim.STEP_CLIP,
    raw gripper logit (T,1)) from the stacked top hidden states (T, r)."""
    pose = nm.mul(nm.tanh(nm.mlp2(h_top, *model.pose_head)), Tensor(sim.STEP_CLIP))
    return pose, nm.mlp2(h_top, *model.gripper_head)


def reset_hidden(model: Model) -> list[tuple[Array, Array]]:
    """The LSTM state every trajectory and rollout starts from: zeros."""
    r = model.cfg.lstm_width
    return [(np.zeros((1, r)), np.zeros((1, r))) for _ in range(model.cfg.lstm_layers)]


# --- observation encoding (frozen; numpy only) ---------------------------------


def _camera_frames(model: Model, obs: sim.Observation) -> tuple[Array, Array, Array, Array]:
    """The frames the frozen encoder sees, in slot order: RGB static, RGB
    gripper, depth static, depth gripper.

    Checks every frame's shape first (sim.check_observation). Depth frames
    are preprocessed against the model's depth statistics.
    """
    sim.check_observation(obs, "observation")
    with _stage("depth_pipeline"):
        if model.cfg.depth_input == "constant":
            flat = np.full((sim.IMAGE_HW, sim.IMAGE_HW), sim.Z_CAM)
            d_static = d_gripper = flat
        else:
            d_static = np.asarray(obs.depth_static, dtype=np.float64)
            d_gripper = np.asarray(obs.depth_gripper, dtype=np.float64)
        depth_a = dp.preprocess_depth(d_static, model.depth_stats)
        depth_b = dp.preprocess_depth(d_gripper, model.depth_stats)
    return np.asarray(obs.rgb_static), np.asarray(obs.rgb_gripper), depth_a, depth_b


def encode_observation(model: Model, obs: sim.Observation) -> tuple[Array, Array]:
    """Frozen token sequences (X_rgb, X_depth), each (2N, d) float64, of
    one policy step: the tokens encode_round left for this observation
    object, which this takes. Every step is encoded in a round
    (act_round), so a model with no round tokens for obs raises
    ContractError; encode_trajectory encodes steps outside one."""
    ready, model._ready = model._ready, None
    if ready is None or ready[0] is not obs:
        raise ContractError("no round encoded this observation for this model")
    return ready[1]


def encode_trajectory(model: Model, observations) -> tuple[Array, Array]:
    """Frozen token sequences of T steps, (X_rgb, X_depth), each (T, 2N, d).

    Every frame is checked before any is encoded. Then one
    enc.vit_encode_pair call encodes all T steps of the four camera slots
    against the model's memo, and a failed call leaves the memo as it
    was; its (T, 4N, d) tokens split into the RGB and depth halves.
    """
    steps = [_camera_frames(model, obs) for obs in observations]
    slots = [[frames[s] for frames in steps] for s in range(4)]
    with _stage("encoder"):
        (tokens,) = enc.vit_encode_pair([[(model._frame_memo, slots)]],
                                        model.vit, model.cfg.patch, model.cfg.vit_blocks)
    half = tokens.shape[1] // 2
    return tokens[:, :half], tokens[:, half:]


def encode_round(chains: list[list[tuple[Model, sim.Observation]]]) -> None:
    """Encode one lockstep round: chains holds, per evaluated chain, the
    (model, observation) pairs of the models that step in it, each one
    step of its model; the models' frozen encoders are all equal (see
    same_frozen_encoder). Every frame is checked and preprocessed once,
    then one enc.vit_encode_pair call, with one chain per chain and one
    group per model, encodes the round's new frames; each model's next
    encode_observation of that observation object returns its tokens.
    """
    groups = [[(model._frame_memo, [[f] for f in _camera_frames(model, obs)])
               for model, obs in chain] for chain in chains]
    steps = [step for chain in chains for step in chain]
    if not steps:
        return
    first = steps[0][0]
    with _stage("encoder"):
        tokens = enc.vit_encode_pair(groups, first.vit, first.cfg.patch,
                                     first.cfg.vit_blocks)
    for (model, obs), x in zip(steps, tokens):
        half = x.shape[1] // 2
        model._ready = (obs, (x[0, :half], x[0, half:]))


# --- the policy over a trajectory ------------------------------------------------


def fused_tokens(model: Model, encoded: tuple[Array, Array]) -> Tensor:
    """Resample both modalities and concatenate (RGB first, per step)."""
    x_rgb, x_depth = encoded
    return nm.concat_rows([enc.resample(x_rgb, **model.resampler["rgb"]),
                           enc.resample(x_depth, **model.resampler["depth"])])


def policy_core(model: Model, encoded: tuple[Array, Array], instr: Array,
                hidden: list[tuple[Array, Array]]
                ) -> tuple[Tensor, Tensor, list[tuple[Array, Array]]]:
    """Differentiable pass over T consecutive steps of one trajectory, or
    over one step of each of C chains.

    One trajectory: encoded is (X_rgb, X_depth), each (T, 2N, d), whose
    rank enc.resample checks; instr is the (M, d) instruction embedding
    (Model.instruction); hidden holds one (h, c) pair of (1, r) arrays per
    layer. Returns (pose (T, 6), gripper logit (T, 1), the LSTM state
    after step T). Every stage is recorded once for all T steps.

    C chains (step_agents): instr is (C, M, d), one instruction of M
    tokens per chain, the tokens are (C, 2N, d) and the state arrays
    (C, 1, r); the pose comes back (C, 1, 6), the logit (C, 1, 1) and the
    state (C, 1, r). Every product keeps each chain's slice at the shape
    of that chain's call with C = 1, so each chain's outputs are bitwise
    those of stepping it alone.
    """
    with _stage("resampler"):
        xvde = fused_tokens(model, encoded)
    with _stage("fusion_decoder"):
        x = dec.decode(Tensor(instr), xvde, model.decoder)
    with _stage("policy_head"):
        pooled = nm.max_over_rows(x)
        if instr.ndim == 3:  # one step per chain: a time axis of one
            pooled = nm.reshape(pooled, (len(instr), 1, pooled.shape[-1]))
        h_top, hidden = lstm_step(pooled, hidden, model)
        pose, logit = action_heads(h_top, model)
    return pose, logit, hidden


def act_round(chains: list[list[tuple["PolicyAgent", sim.Observation]]]) -> None:
    """Step one lockstep round, the one way a PolicyAgent steps: chains
    holds, per evaluated chain, the (PolicyAgent, observation) pairs of
    the agents that act in it, their models over one frozen encoder (see
    encode_round). A lone act is a round of one: [[(agent, obs)]].

    One encode_round call encodes the round's new frames. Then the agents
    step in groups, one step_agents call per group: the agents whose
    models share one ParamSet and whose task instructions have the same
    token count. Each agent's next act on that observation returns the
    action computed here.
    """
    encode_round([[(agent.model, obs) for agent, obs in chain] for chain in chains])
    groups: dict[tuple[int, int], list[tuple[PolicyAgent, sim.Observation]]] = {}
    for chain in chains:
        for agent, obs in chain:
            key = (id(agent.model.params), len(agent._instruction[1]))
            groups.setdefault(key, []).append((agent, obs))
    for steps in groups.values():
        step_agents(steps)


def step_agents(steps: list[tuple["PolicyAgent", sim.Observation]]) -> None:
    """One policy step of each agent, as one policy_core call with a
    leading chain axis: the agents' models share one ParamSet and their
    instructions have one token count. Each agent's tokens are those its
    round's encode_round left (encode_observation); each agent keeps its
    action (gripper binarized) and next LSTM state for its act on obs."""
    model = steps[0][0].model
    x_rgb, x_depth = zip(*(encode_observation(agent.model, obs) for agent, obs in steps))
    instr = np.stack([agent._instruction[1] for agent, _ in steps])
    hidden = [tuple(map(np.stack, zip(*layer)))
              for layer in zip(*(agent._hidden for agent, _ in steps))]
    with nm.no_grad():
        pose, logit, hidden = policy_core(model, (np.stack(x_rgb), np.stack(x_depth)),
                                          instr, hidden)
    for k, (agent, obs) in enumerate(steps):
        closed = float(logit.data[k, 0, 0]) > 0.0  # p > 0.5; an exact tie stays open
        agent._next = (obs, sim.Action(pose.data[k].reshape(6).copy(), closed),
                       [(h[k], c[k]) for h, c in hidden])


class PolicyAgent:
    """Pixels-only rollout adapter around a Model (no world-state access).

    Its LSTM state and the task's instruction embedding are its own. It
    steps only through act_round (see act).
    """

    reads_pixels = True

    def __init__(self, model: Model):
        self.model = model
        self._hidden = reset_hidden(model)
        # (text, its (M, d) embedding), resolved once per task.
        self._instruction: tuple[str | None, Array | None] = (None, None)
        # (observation, action, next LSTM state) from act_round, until act.
        self._next: tuple[sim.Observation, sim.Action, list] | None = None

    def for_chain(self) -> "PolicyAgent":
        """An agent for one chain of an evaluation: a Model over the same
        parameters and depth statistics, with a memo and LSTM state of its
        own."""
        model = self.model
        return PolicyAgent(Model(model.cfg, model.params, model.depth_stats))

    def reset(self):
        self._hidden = reset_hidden(self.model)
        self._next = None

    def begin_task(self, task, instruction: str):
        """Resolve the instruction's embedding once, for every step of the task."""
        self._instruction = (instruction, self.model.instruction(instruction))
        self._next = None

    def act(self, obs: sim.Observation, instruction: str, state=None) -> sim.Action:
        """The action act_round computed for obs in this agent's round; an
        act on an observation no round stepped (outside an evaluation) runs
        act_round([[(self, obs)]]), a round of one, first."""
        if self._instruction[0] != instruction:  # a step outside a begun task
            self.begin_task(None, instruction)
        if self._next is None or self._next[0] is not obs:
            act_round([[(self, obs)]])
        (_, action, self._hidden), self._next = self._next, None
        return action
