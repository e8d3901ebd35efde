import dataclasses
import concurrent.futures
import sys
import threading

import numpy as np
import pytest

from conftest import (count_encodes, needs_proc, run_chain, synthetic_obs, synthetic_stats,
                      thread_count, tiny_config)

from minivla import analysis as an
from minivla import depth as dp
from minivla import encoders as enc
from minivla import numerics as nm
from minivla import policy as pol
from minivla import sim
from minivla import training as tr
from minivla.errors import ContractError, DimensionError, EmptyInstructionError
from minivla.numerics import Tensor


def tiny_model(**overrides):
    return pol.init_model(tiny_config(**overrides), synthetic_stats())


def policy_step(model, obs, instruction, hidden):
    """One step of a PolicyAgent over model from the LSTM state hidden, a
    round of one: (its action, its next state)."""
    agent = pol.PolicyAgent(model)
    agent.begin_task(None, instruction)
    agent._hidden = hidden
    return agent.act(obs, instruction), agent._hidden


class TestLstmStep:
    def test_zero_weights_zero_state_fixed_point(self):
        model = tiny_model()
        for name, t in model.params.items():
            if name.startswith("head.lstm."):
                t.data[:] = 0.0
        x = Tensor(np.zeros((1, model.cfg.d_model)))
        h, state = pol.lstm_step(x, pol.reset_hidden(model), model)
        for h_i, c_i in state:
            np.testing.assert_array_equal(h_i, 0.0)
            np.testing.assert_array_equal(c_i, 0.0)

    def test_hand_computed_scalar_cell(self):
        # Width-1 cell; only the first input channel is wired, so every
        # gate is a scalar we can do by hand.
        model = tiny_model(d_model=4, lstm_width=1)
        wx_row = np.array([0.5, 0.3, 0.8, -0.2])
        wh = np.array([[0.1, -0.1, 0.2, 0.4]])
        b = np.array([0.05, 1.0, -0.3, 0.2])
        model.params["head.lstm.0.wx"].data[:] = 0.0
        model.params["head.lstm.0.wx"].data[0] = wx_row
        model.params["head.lstm.0.wh"].data[:] = wh
        model.params["head.lstm.0.b"].data[:] = b
        x, h0, c0 = 0.7, 0.2, -0.4

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        z = x * wx_row + h0 * wh[0] + b
        i, f, g, o = sig(z[0]), sig(z[1]), np.tanh(z[2]), sig(z[3])
        c1 = f * c0 + i * g
        h1 = o * np.tanh(c1)

        prev = pol.reset_hidden(model)
        prev[0] = (np.array([[h0]]), np.array([[c0]]))
        _, state = pol.lstm_step(Tensor([[x, 0.0, 0.0, 0.0]]), prev, model)
        np.testing.assert_allclose(state[0][0], [[h1]], atol=1e-12)  # the first layer's
        np.testing.assert_allclose(state[0][1], [[c1]], atol=1e-12)

    def test_state_stays_finite_over_many_steps(self, rng):
        model = tiny_model(d_model=4, lstm_width=4)
        x = Tensor(rng.normal(size=(1, 4)))
        state = pol.reset_hidden(model)
        with nm.no_grad():
            for _ in range(10_000):
                _, state = pol.lstm_step(x, state, model)
        for h, c in state:
            assert np.isfinite(h).all() and np.isfinite(c).all()
            assert np.abs(h).max() <= 1.0  # o * tanh(c) is bounded

    def test_width_mismatch_rejected(self):
        model = tiny_model()
        bad = [(np.zeros((1, 3)), np.zeros((1, 3)))
               for _ in range(pol.LSTM_LAYERS)]
        with pytest.raises(DimensionError):
            pol.lstm_step(Tensor(np.zeros((1, model.cfg.d_model))), bad, model)

    def test_layer_count_mismatch_rejected(self):
        model = tiny_model()
        state = pol.reset_hidden(model)[:1]
        with pytest.raises(DimensionError, match="hidden state has 1 layers, model expects 2"):
            pol.lstm_step(Tensor(np.zeros((1, model.cfg.d_model))), state, model)


class TestActionHeads:
    def test_zero_weights_give_neutral_outputs(self):
        model = tiny_model()
        for name, t in model.params.items():
            if name.startswith(("head.pose.", "head.gripper.")):
                t.data[:] = 0.0
        pose, logit = pol.action_heads(Tensor(np.ones((1, model.cfg.lstm_width))), model)
        np.testing.assert_array_equal(pose.data, np.zeros((1, 6)))
        np.testing.assert_array_equal(logit.data, [[0.0]])

    def test_pose_within_clip_bound(self, rng):
        model = tiny_model()
        for _ in range(20):
            h = Tensor(rng.normal(size=(1, model.cfg.lstm_width)) * 10)
            pose, _ = pol.action_heads(h, model)
            assert np.abs(pose.data).max() <= sim.STEP_CLIP

    def test_matches_direct_formula(self, rng):
        model = tiny_model()
        h = rng.normal(size=(1, model.cfg.lstm_width))
        pose, logit = pol.action_heads(Tensor(h), model)
        p = model.params
        hid = np.tanh(h @ p["head.pose.w1"].data + p["head.pose.b1"].data)
        expect_pose = np.tanh(hid @ p["head.pose.w2"].data + p["head.pose.b2"].data) * 0.1
        hid_g = np.tanh(h @ p["head.gripper.w1"].data + p["head.gripper.b1"].data)
        expect_logit = hid_g @ p["head.gripper.w2"].data + p["head.gripper.b2"].data
        np.testing.assert_allclose(pose.data, expect_pose, atol=1e-12)
        np.testing.assert_allclose(logit.data, expect_logit, atol=1e-12)


class TestResetHidden:
    def test_shape_and_zeros(self):
        model = tiny_model()
        state = pol.reset_hidden(model)
        assert len(state) == pol.LSTM_LAYERS
        for h, c in state:
            assert h.shape == (1, model.cfg.lstm_width)
            np.testing.assert_array_equal(h, 0.0)
            np.testing.assert_array_equal(c, 0.0)

    def test_two_resets_equal(self):
        model = tiny_model()
        a = pol.reset_hidden(model)
        b = pol.reset_hidden(model)
        for (ha, ca), (hb, cb) in zip(a, b):
            assert np.array_equal(ha, hb)
            assert np.array_equal(ca, cb)


class TestPolicyStep:
    def test_determinism(self, rng):
        model = tiny_model()
        obs = synthetic_obs(rng)
        a1, s1 = policy_step(model, obs, "lift the red block", pol.reset_hidden(model))
        a2, s2 = policy_step(model, obs, "lift the red block", pol.reset_hidden(model))
        assert np.array_equal(a1.pose, a2.pose)
        assert a1.gripper_closed == a2.gripper_closed
        for (h1, c1), (h2, c2) in zip(s1, s2):
            assert np.array_equal(h1.data, h2.data)

    def test_alpha_zero_makes_action_frame_invariant(self, rng):
        # With every gate at zero the cameras must not matter, while the
        # instruction still reaches the frozen language path.
        model = tiny_model()
        for layer in model.decoder:
            layer["cross.alpha"].data = np.asarray(0.0)
        obs_a = synthetic_obs(rng)
        obs_b = synthetic_obs(rng)
        act_a, _ = policy_step(model, obs_a, "lift the red block", pol.reset_hidden(model))
        act_b, _ = policy_step(model, obs_b, "lift the red block", pol.reset_hidden(model))
        assert np.array_equal(act_a.pose, act_b.pose)
        assert act_a.gripper_closed == act_b.gripper_closed
        act_c, _ = policy_step(model, obs_a, "press the red button", pol.reset_hidden(model))
        assert not np.array_equal(act_a.pose, act_c.pose)

    def test_tokens_without_a_time_axis_rejected(self, rng):
        model = tiny_model()
        tokens = pol.encode_trajectory(model, [synthetic_obs(rng)])
        with pytest.raises(DimensionError,
                           match=r"\[stage=resampler\] resample expects \(T, N, d_in\)"):
            pol.policy_core(model, tuple(x[0] for x in tokens),
                            model.instruction("lift the red block"), pol.reset_hidden(model))

    def test_negative_depth_frame_tagged_with_stage(self, rng):
        model = tiny_model()
        obs = synthetic_obs(rng)
        obs.depth_gripper[3, 5] = -0.25
        with pytest.raises(ContractError,
                           match=r"\[stage=depth_pipeline\] depth values must be finite "
                                 r"and non-negative"):
            policy_step(model, obs, "lift the red block", pol.reset_hidden(model))

    def test_episode_isolation(self, rng):
        model = tiny_model()
        model.params["decoder.0.cross.alpha"].data = np.asarray(0.5)
        obs = synthetic_obs(rng)
        first, _ = policy_step(model, obs, "lift the red block", pol.reset_hidden(model))
        # Run some unrelated steps, then reset: same action again.
        hidden = pol.reset_hidden(model)
        for _ in range(3):
            _, hidden = policy_step(model, synthetic_obs(rng), "press the red button", hidden)
        again, _ = policy_step(model, obs, "lift the red block", pol.reset_hidden(model))
        assert np.array_equal(first.pose, again.pose)

    def test_full_step_grad_check(self, rng):
        # Finite differences across the whole composition on one step.
        model = tiny_model(d_model=8, resampler_k=2, lstm_width=4)
        for layer in model.decoder:
            layer["cross.alpha"].data = np.asarray(0.3)
        obs = synthetic_obs(rng)
        encoded = pol.encode_trajectory(model, [obs])
        instr = model.instruction("lift the red block")
        target_pose = Tensor(rng.uniform(-0.05, 0.05, size=(1, 6)))
        label = Tensor([[1.0]])

        def f(params):
            pose, logit, _ = pol.policy_core(model, encoded, instr,
                                             pol.reset_hidden(model))
            err = nm.sub(pose, target_pose)
            return nm.add(nm.sum_all(nm.mul(err, err)), nm.bce_with_logits(logit, label))

        res = nm.grad_check(f, model.params)
        assert res.max_rel_error < 1e-4


class TestFrozenContract:
    def test_frozen_entries_get_no_gradients(self, rng):
        model = tiny_model()
        for layer in model.decoder:
            layer["cross.alpha"].data = np.asarray(0.4)
        obs = synthetic_obs(rng)
        encoded = pol.encode_trajectory(model, [obs])
        instr = model.instruction("lift the red block")
        pose, logit, _ = pol.policy_core(model, encoded, instr, pol.reset_hidden(model))
        model.params.zero_grads()
        nm.backward(nm.sum_all(nm.add(pose, nm.mul(logit, logit))))
        for name, t in model.params.items():
            frozen = name.startswith(("vit.", "embed.")) or ".self." in name
            if frozen:
                assert t.grad is None or not np.any(t.grad), name
            elif name.startswith("resampler.") or ".cross." in name or name.startswith("head."):
                assert t.grad is not None, name

    def test_trainable_partition_by_name(self):
        model = tiny_model()
        for name, t in model.params.items():
            expect = (name.startswith(("resampler.", "head."))
                      or ".cross." in name)
            assert t.requires_grad is expect, name


class TestObservationBoundary:
    def test_frame_size_must_match_image_hw(self, rng, monkeypatch):
        model = tiny_model()

        def never(*a, **kw):
            raise AssertionError("reached depth preprocessing or the encoder")

        monkeypatch.setattr(pol.dp, "preprocess_depth", never)
        monkeypatch.setattr(pol.enc, "vit_encode_pair", never)
        obs = dataclasses.replace(synthetic_obs(rng), rgb_gripper=np.zeros((64, 64, 3)))
        with pytest.raises(DimensionError,
                           match=r"rgb_gripper has shape \(64, 64, 3\), expected \(32, 32, 3\)"):
            pol.encode_trajectory(model, [obs])


@pytest.fixture
def encodes(monkeypatch):
    return count_encodes(monkeypatch)


ENCODE_IMAGE = enc.vit_encode_image  # the reference; tests may wrap the module's


def encoded_alone(model, obs) -> tuple[np.ndarray, np.ndarray]:
    """The reference (X_rgb, X_depth) of one step, each (2N, d): every frame
    preprocessed and encoded on its own, with no memo."""
    cfg, vit = model.cfg, model.vit
    rgb = (obs.rgb_static, obs.rgb_gripper)
    depth = tuple(dp.preprocess_depth(d, model.depth_stats)
                  for d in (obs.depth_static, obs.depth_gripper))
    return tuple(np.concatenate([ENCODE_IMAGE(frame[None], vit, cfg.patch, camera=camera)[0]
                                 for camera, frame in enumerate(pair)])
                 for pair in (rgb, depth))


def assert_rows_encoded_alone(model, encoded, observations):
    x_rgb, x_depth = encoded
    assert len(x_rgb) == len(x_depth) == len(observations)
    for t, obs in enumerate(observations):
        alone_rgb, alone_depth = encoded_alone(model, obs)
        assert x_rgb[t].tobytes() == alone_rgb.tobytes()
        assert x_depth[t].tobytes() == alone_depth.tobytes()


class TestFrameMemo:
    """Frozen tokens are reused for frames byte-equal to their slot's last
    one; a chain's memo lives on its PolicyAgent."""

    @staticmethod
    def rollout_model(**overrides):
        model = pol.init_model(tiny_config(patch=8, **overrides),
                               synthetic_stats())
        for layer in model.decoder:
            layer["cross.alpha"].data = np.asarray(0.5)
        return model

    def test_agent_matches_an_agent_without_reuse(self, encodes):
        model = self.rollout_model()
        agent = pol.PolicyAgent(model)
        hidden = pol.reset_hidden(model)
        state = sim.make_env(0, "D")
        text = "lift the red block"
        agent.begin_task(None, text)
        n_steps = 12
        for _ in range(n_steps):
            (obs,) = sim.render_observation([state])
            action = agent.act(obs, text)
            encoded = tuple(x[None] for x in encoded_alone(model, obs))
            with nm.no_grad():
                pose, logit, hidden = pol.policy_core(model, encoded,
                                                      model.instruction(text), hidden)
            assert action.pose.tobytes() == pose.data.reshape(6).tobytes()
            assert action.gripper_closed == (logit.item() > 0.0)
            state = sim.step_env(state, action)
        assert len(encodes) < 4 * n_steps

    def test_trajectory_matches_steps_encoded_alone(self, rng, encodes):
        model = tiny_model()
        o1, o2 = synthetic_obs(rng), synthetic_obs(rng)
        mixed = sim.Observation(o1.rgb_static, o2.rgb_gripper, o2.depth_static,
                                o1.depth_gripper)
        observations = [o1, o1, o2, mixed, mixed, o1]
        encoded = pol.encode_trajectory(model, observations)
        assert len(encodes) < 4 * len(observations)
        assert_rows_encoded_alone(model, encoded, observations)

    def test_a_shared_memo_reuses_the_frame_another_model_encoded(self, rng, encodes):
        # Two agents that step in one chain of a round: the second encodes
        # nothing and adopts the first's entries.
        first, second = pol.PolicyAgent(tiny_model()), pol.PolicyAgent(tiny_model())
        obs = synthetic_obs(rng)
        pol.encode_round([[(first, obs), (second, obs)]])
        got_first = pol.encode_observation(first, obs)
        got_second = pol.encode_observation(second, obs)
        assert len(encodes) == 4  # the second agent encoded nothing
        assert [x.tobytes() for x in got_first] == [x.tobytes() for x in got_second]
        assert_rows_encoded_alone(second.model, tuple(x[None] for x in got_second), [obs])
        assert first._frame_memo.keys() == second._frame_memo.keys() == {0, 1, 2, 3}
        for slot, entry in first._frame_memo.items():  # the same arrays, not copies
            assert second._frame_memo[slot] is entry

    def test_a_step_takes_the_tokens_its_round_left_once(self, rng, encodes):
        # encode_observation encodes nothing: its one source is the tokens
        # encode_round left on the agent for that observation object, which
        # it takes.
        agent = pol.PolicyAgent(tiny_model())
        obs = synthetic_obs(rng)
        with pytest.raises(ContractError, match="no round encoded this observation"):
            pol.encode_observation(agent, obs)
        pol.encode_round([[(agent, obs)]])
        with pytest.raises(ContractError, match="no round encoded this observation"):
            pol.encode_observation(agent, copy_obs(obs))  # equal frames, another object
        pol.encode_round([[(agent, obs)]])
        got = pol.encode_observation(agent, obs)
        with pytest.raises(ContractError, match="no round encoded this observation"):
            pol.encode_observation(agent, obs)  # already taken
        assert len(encodes) == 4
        assert_rows_encoded_alone(agent.model, tuple(x[None] for x in got), [obs])

    def test_sharing_models_whose_frames_differ_each_reuse_their_own(self, rng, encodes):
        # Lockstepped arms that have diverged: each repeats its own last
        # frames, which the other's memo does not hold. One memo entry per
        # slot for both would encode every step again.
        first, second = pol.PolicyAgent(tiny_model()), pol.PolicyAgent(tiny_model())
        obs_first, obs_second = synthetic_obs(rng), synthetic_obs(rng)
        for _ in range(3):
            pol.encode_round([[(first, obs_first), (second, obs_second)]])
        got = pol.encode_observation(second, obs_second)
        assert len(encodes) == 8
        assert_rows_encoded_alone(second.model, tuple(x[None] for x in got), [obs_second])

    def test_models_that_differ_in_depth_stats_share_the_rgb_slots(self, rng, encodes):
        model = tiny_model()
        first = pol.PolicyAgent(model)
        second = pol.PolicyAgent(pol.init_model(model.cfg, dp.DepthStats(0.0, 2.0, 0.5, 0.3)))
        obs = synthetic_obs(rng)
        pol.encode_round([[(first, obs), (second, obs)]])
        got = pol.encode_observation(second, obs)
        assert sorted(encodes) == [0, 0, 0, 1, 1, 1]  # RGB once, depth once per arm
        assert_rows_encoded_alone(second.model, tuple(x[None] for x in got), [obs])
        assert [second._frame_memo[s] is first._frame_memo[s] for s in range(4)] == [
            True, True, False, False]

    def test_sharing_across_different_frozen_weights_is_refused(self, encodes):
        # Agents share frames only within an evaluation's chains, and an
        # evaluation whose models' frozen encoders differ does not start.
        first, second, other = tiny_model(seed=0), tiny_model(seed=0), tiny_model(seed=1)
        assert pol.same_frozen_encoder(first, second)
        assert not pol.same_frozen_encoder(first, other)
        assert not pol.same_frozen_encoder(other, second)
        agents = tuple(pol.PolicyAgent(m) for m in (first, second, other))
        with pytest.raises(ContractError, match="different frozen encoders"):
            an.run_chain_eval(agents, 1, "D", 0, horizon=4)
        assert encodes == [] and all(a._frame_memo == {} for a in agents)

    def test_models_of_other_chains_share_nothing(self, rng, encodes):
        first, second = pol.PolicyAgent(tiny_model()), pol.PolicyAgent(tiny_model())
        obs = synthetic_obs(rng)
        pol.encode_round([[(first, obs)], [(second, obs)]])
        got = pol.encode_observation(second, obs)
        assert len(encodes) == 8
        assert_rows_encoded_alone(second.model, tuple(x[None] for x in got), [obs])
        assert all(second._frame_memo[s] is not entry
                   for s, entry in first._frame_memo.items())

    def test_constant_depth_is_encoded_once_per_agent(self, rng, encodes):
        model = tiny_model(depth_input="constant")
        n_steps = 5
        for agent in (pol.PolicyAgent(model), pol.PolicyAgent(model)):
            agent.begin_task(None, "lift the red block")
            for _ in range(n_steps):
                agent.act(synthetic_obs(rng), "lift the red block")
        # Every RGB frame is new; each agent encodes the two flat depth
        # frames once.
        assert len(encodes) == 2 * 2 * n_steps + 2 * 2


def copy_obs(obs: sim.Observation) -> sim.Observation:
    return sim.Observation(obs.rgb_static.copy(), obs.rgb_gripper.copy(),
                           obs.depth_static.copy(), obs.depth_gripper.copy())


def varied_observations(rng, n_fresh: int = 8) -> list[sim.Observation]:
    """8x8 steps with repeats, a -0.0 swap, one-byte changes and mixed steps."""
    fresh = [synthetic_obs(rng) for _ in range(n_fresh)]
    o1, o2 = fresh[0], fresh[1]
    zero = copy_obs(o1)
    zero.rgb_static[0, 0, 0] = 0.0
    neg_zero = copy_obs(zero)
    neg_zero.rgb_static[0, 0, 0] = -0.0  # equal values, other bytes
    nudged = copy_obs(o2)
    nudged.depth_gripper.reshape(-1).view(np.uint8)[5] ^= 1
    nudged.rgb_static.reshape(-1).view(np.uint8)[9] ^= 1
    mixed = sim.Observation(o1.rgb_static, o2.rgb_gripper, o2.depth_static,
                            o1.depth_gripper)
    return [o1, o1, o2, zero, neg_zero, zero, nudged, o2, mixed, mixed,
            *fresh[2:], o1, *fresh[2:4], fresh[-1]]


def memo_state(agent) -> dict:
    return {slot: (frame.dtype, frame.shape, frame.tobytes(), tokens.tobytes())
            for slot, (frame, tokens) in agent._frame_memo.items()}


def step_by_step(observations) -> None:
    """Encode each observation in a round of its own, one agent's step at a
    time, against the agent's memo: the serial reference for reuse."""
    agent = pol.PolicyAgent(tiny_model())
    for obs in observations:
        pol.encode_round([[(agent, obs)]])


def trajectories(observations, *cuts) -> list[sim.Trajectory]:
    action = sim.Action(np.zeros(6), False)
    bounds = [0, *cuts, len(observations)]
    return [sim.Trajectory("lift the red block", "lift", "A", i,
                           [(obs, action) for obs in observations[start:stop]])
            for i, (start, stop) in enumerate(zip(bounds, bounds[1:]))]


class TestParallelTrajectoryEncode:
    """encode_trajectory encodes on worker threads; every row is that of
    its frames encoded alone."""

    def test_trajectory_equals_steps_encoded_alone(self, rng, encodes):
        model = tiny_model()
        observations = varied_observations(rng)
        encoded = pol.encode_trajectory(model, observations)
        parallel_encodes = len(encodes)
        del encodes[:]
        step_by_step(observations)
        assert parallel_encodes == len(encodes) < 4 * len(observations)
        assert_rows_encoded_alone(model, encoded, observations)

    def test_dataset_equals_steps_encoded_alone(self, rng, encodes):
        model = tiny_model()
        observations = varied_observations(rng)
        encoded = tr.encode_dataset(model, trajectories(observations, 7))
        parallel_encodes = len(encodes)
        del encodes[:]
        step_by_step(observations)
        assert parallel_encodes == len(encodes)
        steps = tuple(np.concatenate(xs) for xs in zip(*(x for _, x, _ in encoded)))
        assert_rows_encoded_alone(model, steps, observations)

    def test_two_dataset_encodes_are_equal_and_encode_alike(self, rng, encodes):
        # A dataset encode's memo lasts for that call: the second encode of
        # a dataset on one model starts from nothing, as the first did.
        model = tiny_model()
        dataset = trajectories(varied_observations(rng), 7)
        first = tr.encode_dataset(model, dataset)
        first_encodes = len(encodes)
        second = tr.encode_dataset(model, dataset)
        assert 0 < first_encodes == len(encodes) - first_encodes
        for (_, a, _), (_, b, _) in zip(first, second, strict=True):
            assert [x.tobytes() for x in a] == [x.tobytes() for x in b]

    def test_dataset_is_one_encode_call(self, rng, monkeypatch):
        model, per_trajectory = tiny_model(), tiny_model()
        observations = varied_observations(rng)
        dataset = trajectories(observations, 3, 7, 7, 12)  # one trajectory is empty
        calls = []
        real = enc.vit_encode_pair

        def counting(groups, *args, **kwargs):
            calls.append([[[len(frames) for frames in slots] for _, slots in chain]
                          for chain in groups])
            return real(groups, *args, **kwargs)

        monkeypatch.setattr(enc, "vit_encode_pair", counting)
        held = {key: id(value) for key, value in vars(model).items()}
        encoded = tr.encode_dataset(model, dataset)
        # One chain of one group: all four camera slots at once.
        assert calls == [[[[len(observations)] * 4]]]
        assert {key: id(value) for key, value in vars(model).items()} == held
        for (instr, tokens, actions), traj in zip(encoded, dataset, strict=True):
            expect = pol.encode_trajectory(per_trajectory, [obs for obs, _ in traj.steps])
            assert [x.tobytes() for x in tokens] == [x.tobytes() for x in expect]
            assert [x.shape for x in tokens] == [x.shape for x in expect]
            assert instr.tobytes() == per_trajectory.instruction(traj.instruction).tobytes()
            assert all(a is b for a, (_, b) in zip(actions, traj.steps, strict=True))

    def test_bad_instruction_fails_before_any_encode(self, rng, encodes):
        dataset = trajectories([synthetic_obs(rng) for _ in range(4)], 2)
        dataset[1].instruction = " "
        with pytest.raises(EmptyInstructionError):
            tr.encode_dataset(tiny_model(), dataset)
        assert encodes == []

    def test_no_steps_give_empty_tokens_and_keep_the_memos(self, rng):
        model = tiny_model()
        encoded = pol.encode_trajectory(model, [])
        n_tokens = 2 * (8 // 4) ** 2
        assert [x.shape for x in encoded] == [(0, n_tokens, 16)] * 2
        agent = pol.PolicyAgent(model)
        pol.encode_round([[(agent, synthetic_obs(rng))]])
        memos, ready = memo_state(agent), agent._ready
        pol.encode_round([[]])  # a round in which no agent steps
        assert memo_state(agent) == memos and agent._ready is ready

    def test_memos_end_as_after_a_serial_pass(self, rng):
        agent = pol.PolicyAgent(tiny_model())
        observations = varied_observations(rng)
        for obs in observations:
            pol.encode_round([[(agent, obs)]])
            x_rgb, x_depth = pol.encode_observation(agent, obs)
            for frame, tokens in agent._frame_memo.values():  # copies, not views
                assert not any(np.shares_memory(frame, getattr(obs, plane))
                               for plane in ("rgb_static", "rgb_gripper"))
                assert not np.shares_memory(tokens, x_rgb)
                assert not np.shares_memory(tokens, x_depth)
        # The pass ends holding the last step's frames and tokens, as a
        # round of that step alone leaves them.
        last = pol.PolicyAgent(tiny_model())
        pol.encode_round([[(last, observations[-1])]])
        assert memo_state(agent) == memo_state(last)

    @pytest.mark.skipif(enc.usable_cpus() < 2, reason="needs two CPUs")
    def test_encodes_run_on_several_threads(self, rng, monkeypatch):
        threads = []
        meet = threading.Barrier(2, timeout=10.0)
        real = enc.vit_encode_image

        def meeting(img, vit, patch, camera):
            threads.append(threading.get_ident())
            if len(threads) <= 2:
                meet.wait()  # the first two encoder calls must run at once
            return real(img, vit, patch, camera=camera)

        monkeypatch.setattr(enc, "vit_encode_image", meeting)
        pol.encode_trajectory(tiny_model(), [synthetic_obs(rng) for _ in range(12)])
        assert len(set(threads)) >= 2

    def test_more_workers_than_cores_with_a_short_switch_interval(self, rng, monkeypatch):
        monkeypatch.setattr(enc, "usable_cpus", lambda: 8)
        model = tiny_model()
        observations = [synthetic_obs(rng) for _ in range(24)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            x_rgb, x_depth = pol.encode_trajectory(model, observations)
        finally:
            sys.setswitchinterval(interval)
        assert_rows_encoded_alone(model, (x_rgb, x_depth), observations)

    def test_threads_start_only_at_two_batches_of_new_frames(self, rng, monkeypatch):
        monkeypatch.setattr(enc, "usable_cpus", lambda: 8)
        pools = []  # per pool: the helper tasks submitted to it
        real = concurrent.futures.ThreadPoolExecutor

        class Recording(real):
            def __init__(self, workers, **kwargs):
                assert workers == 7  # one thread per usable CPU but the caller's
                pools.append(0)
                super().__init__(workers, **kwargs)

            def submit(self, *args, **kwargs):
                pools[-1] += 1
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        model = tiny_model()
        pol.encode_trajectory(model, [synthetic_obs(rng)])  # one step: 4 new frames
        first, second = synthetic_obs(rng), synthetic_obs(rng)
        second.rgb_gripper = first.rgb_gripper  # 4 + 3 new frames
        pol.encode_trajectory(model, [first, second])
        assert pools == []
        # 2 * FRAMES_PER_JOB new frames: one batch per camera, so one helper.
        pol.encode_trajectory(model, [synthetic_obs(rng) for _ in range(2)])
        assert pools == [1]
        # A round of three chain agents: 12 new frames in batches of 4 and 2
        # per camera, so three helpers.
        agents = [pol.PolicyAgent(model) for _ in range(3)]
        pol.encode_round([[(a, synthetic_obs(rng))] for a in agents])
        assert pools == [1, 3]

    @needs_proc
    def test_no_thread_outlives_the_call(self, rng):
        model = tiny_model()
        before = thread_count()
        for _ in range(20):
            pol.encode_trajectory(model, [synthetic_obs(rng) for _ in range(6)])
            assert thread_count() == before

    @needs_proc
    def test_kept_helpers_serve_many_calls_and_end_with_the_block(self, rng, monkeypatch):
        monkeypatch.setattr(enc, "usable_cpus", lambda: 3)
        pools = []
        real = concurrent.futures.ThreadPoolExecutor

        class Recording(real):
            def __init__(self, workers, **kwargs):
                pools.append(workers)
                super().__init__(workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        model, serial = tiny_model(), tiny_model()
        observations = [synthetic_obs(rng) for _ in range(9)]
        before = thread_count()
        with enc.kept_helpers() as pool:
            got = [pol.encode_trajectory(model, observations[i:i + 3]) for i in (0, 3, 6)]
            with enc.kept_helpers() as inner:  # a nested block uses the same threads
                assert inner is pool
            assert thread_count() > before  # the helpers wait for the next call
        assert thread_count() == before
        assert pools == [2]
        encoded = tuple(np.concatenate(xs) for xs in zip(*got))
        assert_rows_encoded_alone(serial, encoded, observations)

    @needs_proc
    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_encoder_error_reaches_the_caller(self, rng, monkeypatch, where):
        if where == "helper" and enc.usable_cpus() < 2:
            pytest.skip("needs two CPUs for a helper thread")
        model = tiny_model()
        agents = [pol.PolicyAgent(model) for _ in range(8)]  # one per chain
        pol.encode_round([[(a, synthetic_obs(rng))] for a in agents])
        memos, readies = [memo_state(a) for a in agents], [a._ready for a in agents]
        caller = threading.get_ident()
        helper_started = threading.Event()
        cropped = []
        real = enc.vit_encode_image

        def cropping(img, vit, patch, camera):
            on_caller = threading.get_ident() == caller
            if where == "helper" and on_caller:
                assert helper_started.wait(10.0)  # a helper takes a job first
            elif where == "helper":
                helper_started.set()
            if on_caller == (where == "caller") and not cropped:
                cropped.append(camera)
                img = img[..., :-1, :, :]  # a frame one row short reaches the encoder
            return real(img, vit, patch, camera=camera)

        monkeypatch.setattr(enc, "vit_encode_image", cropping)
        before = thread_count()
        with pytest.raises(DimensionError, match="not divisible by patch") as err:
            pol.encode_round([[(a, synthetic_obs(rng))] for a in agents])
        assert type(err.value) is DimensionError and cropped
        assert thread_count() == before
        # A failed round changes no agent's memo or round tokens.
        assert [memo_state(a) for a in agents] == memos
        assert all(a._ready is ready for a, ready in zip(agents, readies))

    def test_failed_call_keeps_every_slot_entry(self, rng, monkeypatch):
        # The static camera's slots are encoded before the gripper camera's
        # batch fails; their memo entries must stay as they were too.
        agent = pol.PolicyAgent(tiny_model())
        pol.encode_round([[(agent, synthetic_obs(rng))]])
        memos = memo_state(agent)
        assert memos.keys() == {0, 1, 2, 3}
        real = enc.vit_encode_image
        batches = []

        def failing_on_gripper(img, vit, patch, camera):
            if camera == 1:
                raise DimensionError("gripper frame rejected")
            batches.append((camera, len(img)))
            return real(img, vit, patch, camera=camera)

        monkeypatch.setattr(enc, "vit_encode_image", failing_on_gripper)
        with pytest.raises(DimensionError, match="gripper frame rejected"):
            pol.encode_round([[(agent, synthetic_obs(rng))]])
        assert batches == [(0, 2)]  # RGB static and depth static in one batch
        assert memo_state(agent) == memos

    @pytest.mark.parametrize("plane,shape", [("rgb_gripper", (8, 8, 4)),
                                             ("depth_static", (8, 8, 1))])
    def test_frame_shape_is_checked_before_encoding(self, rng, encodes, plane, shape):
        bad = synthetic_obs(rng)
        setattr(bad, plane, np.zeros(shape, dtype=np.float32))
        with pytest.raises(DimensionError, match=rf"{plane} has shape"):
            pol.encode_trajectory(tiny_model(), [synthetic_obs(rng), bad])
        assert encodes == []


class TestAgents:
    def test_policy_agent_runs_a_chain(self):
        model = pol.init_model(tiny_config(patch=8), synthetic_stats())
        chain = sim.sample_chain(0, "D", families=["lift"])
        result = run_chain(pol.PolicyAgent(model), chain, max_steps_per_task=8)
        assert len(result.successes) == 5

    def test_a_lone_act_is_a_round_of_one(self, rng, monkeypatch):
        rounds = []
        real = pol.act_round

        def recording(chains):
            rounds.append(chains)
            real(chains)

        monkeypatch.setattr(pol, "act_round", recording)
        agent = pol.PolicyAgent(tiny_model())
        agent.begin_task(None, "lift the red block")
        observations = [synthetic_obs(rng) for _ in range(2)]
        for obs in observations:
            agent.act(obs, "lift the red block")
        assert len(rounds) == len(observations)
        for (chain,), obs in zip(rounds, observations):
            (step,) = chain
            assert step[0] is agent and step[1] is obs
