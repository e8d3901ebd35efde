"""Time-batched ops and the time-batched trajectory loss.

Teacher forcing records resampler -> decoder -> max-pool, the action
heads and the loss once per trajectory with time as a leading batch
axis. These tests pin that down: every batched op's VJP against finite
differences, its forward bitwise against the 2-D op on each batch entry,
the batched loss against a per-step loop, and the tape size per step.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import tiny_config

from minivla import depth as dp
from minivla import numerics as nm
from minivla import policy as pol
from minivla import sim
from minivla import training as tr
from minivla.numerics import ParamSet, Tensor

dims = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)
property_settings = settings(max_examples=20, deadline=None)


def fd_check(op, arrays, seed, eps=1e-6):
    """VJP of sum(op(*inputs) * W) against central differences, every input."""
    rng = np.random.default_rng(seed)
    params = ParamSet()
    inputs = [params.add(f"x{i}", a, trainable=True) for i, a in enumerate(arrays)]
    out = op(*inputs)
    w = rng.normal(size=out.shape)
    nm.backward(nm.sum_all(nm.mul(out, Tensor(w))), params)

    def f():
        with nm.no_grad():
            return float((op(*inputs).data * w).sum())

    for t in inputs:
        flat = t.data.reshape(-1)
        numeric = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f()
            flat[i] = orig - eps
            fm = f()
            flat[i] = orig
            numeric[i] = (fp - fm) / (2 * eps)
        np.testing.assert_allclose(t.grad.reshape(-1), numeric, rtol=1e-5, atol=1e-7)


def assert_stacks_per_entry(op, batched, shared=()):
    """op on batched inputs equals, bitwise, op on each entry's 2-D slices.

    ``batched`` inputs carry the leading axis; ``shared`` 2-D inputs are
    passed as they are (after the batched ones) to every call.
    """
    with nm.no_grad():
        whole = op(*map(Tensor, batched), *map(Tensor, shared)).data
        steps = [op(*(Tensor(b[t]) for b in batched), *map(Tensor, shared)).data
                 for t in range(batched[0].shape[0])]
    assert np.array_equal(whole, np.stack(steps))


def distinct_rows(rng, t, m, d):
    """Random (t, m, d) whose column entries differ by far more than eps."""
    order = np.argsort(rng.random((t, m, d)), axis=1)
    return order * 0.5 + rng.normal(0.0, 0.01, size=(t, m, d))


class TestBatchedVjp:
    @property_settings
    @given(t=dims, m=dims, k=dims, n=dims, seed=seeds)
    def test_matmul_batch_times_shared(self, t, m, k, n, seed):
        rng = np.random.default_rng(seed)
        fd_check(nm.matmul, [rng.normal(size=(t, m, k)), rng.normal(size=(k, n))], seed)

    @property_settings
    @given(t=dims, m=dims, k=dims, n=dims, seed=seeds)
    def test_matmul_shared_times_batch(self, t, m, k, n, seed):
        rng = np.random.default_rng(seed)
        fd_check(nm.matmul, [rng.normal(size=(m, k)), rng.normal(size=(t, k, n))], seed)

    @property_settings
    @given(t=dims, m=dims, k=dims, n=dims, seed=seeds)
    def test_matmul_batch_times_batch(self, t, m, k, n, seed):
        rng = np.random.default_rng(seed)
        fd_check(nm.matmul, [rng.normal(size=(t, m, k)), rng.normal(size=(t, k, n))], seed)

    @property_settings
    @given(t=dims, m=dims, n=dims, seed=seeds)
    def test_transpose_and_reshape(self, t, m, n, seed):
        rng = np.random.default_rng(seed)
        fd_check(nm.transpose, [rng.normal(size=(t, m, n))], seed)
        fd_check(lambda x: nm.reshape(x, (-1, n)), [rng.normal(size=(t, m, n))], seed)

    @property_settings
    @given(t=dims, m=dims, n=dims, seed=seeds)
    def test_softmax_rows(self, t, m, n, seed):
        rng = np.random.default_rng(seed)
        fd_check(nm.softmax_rows, [rng.normal(size=(t, m, n))], seed)

    @property_settings
    @given(t=dims, m=dims, n=dims, d=dims, shared_q=st.booleans(), seed=seeds)
    def test_scaled_dot_attention(self, t, m, n, d, shared_q, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(m, d) if shared_q else (t, m, d))
        fd_check(nm.scaled_dot_attention,
                 [q, rng.normal(size=(t, n, d)), rng.normal(size=(t, n, d))], seed)

    @property_settings
    @given(t=dims, m1=dims, m2=dims, d=dims, seed=seeds)
    def test_concat_rows(self, t, m1, m2, d, seed):
        rng = np.random.default_rng(seed)
        fd_check(lambda a, b: nm.concat_rows([a, b]),
                 [rng.normal(size=(t, m1, d)), rng.normal(size=(t, m2, d))], seed)

    @property_settings
    @given(t=dims, m=dims, d=dims, seed=seeds)
    def test_max_over_rows(self, t, m, d, seed):
        rng = np.random.default_rng(seed)
        fd_check(nm.max_over_rows, [distinct_rows(rng, t, m, d)], seed)

    @property_settings
    @given(t=dims, m=dims, d=dims, h=dims, seed=seeds)
    def test_mlp2(self, t, m, d, h, seed):
        rng = np.random.default_rng(seed)
        fd_check(nm.mlp2, [rng.normal(size=(t, m, d)), rng.normal(size=(d, h)),
                           rng.normal(size=h), rng.normal(size=(h, d)),
                           rng.normal(size=d)], seed)


class TestBatchedForwardIsStackedSteps:
    @property_settings
    @given(t=dims, m=dims, k=dims, n=dims, seed=seeds)
    def test_matmul(self, t, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(t, m, k)), rng.normal(size=(t, k, n))
        assert_stacks_per_entry(nm.matmul, [a, b])
        assert_stacks_per_entry(nm.matmul, [a], shared=[b[0]])
        assert_stacks_per_entry(lambda y, x: nm.matmul(x, y), [b], shared=[a[0]])

    @property_settings
    @given(t=dims, m=dims, n=dims, seed=seeds)
    def test_elementwise_shape_ops(self, t, m, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(t, m, n))
        assert_stacks_per_entry(nm.transpose, [x])
        assert_stacks_per_entry(nm.softmax_rows, [x])
        assert_stacks_per_entry(nm.max_over_rows, [x])
        assert_stacks_per_entry(lambda a, b: nm.concat_rows([a, b]),
                                [x, rng.normal(size=(t, 2, n))])

    @property_settings
    @given(t=dims, m=dims, n=dims, d=dims, seed=seeds)
    def test_attention_and_mlp2(self, t, m, n, d, seed):
        rng = np.random.default_rng(seed)
        q, k, v = (rng.normal(size=(t, m, d)), rng.normal(size=(t, n, d)),
                   rng.normal(size=(t, n, d)))
        assert_stacks_per_entry(nm.scaled_dot_attention, [q, k, v])
        assert_stacks_per_entry(lambda kk, vv, qq: nm.scaled_dot_attention(qq, kk, vv),
                                [k, v], shared=[q[0]])
        weights = [rng.normal(size=(d, 3)), rng.normal(size=3),
                   rng.normal(size=(3, d)), rng.normal(size=d)]
        assert_stacks_per_entry(nm.mlp2, [q], shared=weights)


# --- the trajectory loss ---------------------------------------------------------


def lift_model(**overrides):
    (traj,) = sim.generate_dataset(1, 3, ["A"], families=["lift"])
    stats = dp.compute_stats([f for obs, _ in traj.steps
                              for f in (obs.depth_static, obs.depth_gripper)])
    model = pol.init_model(tiny_config(image_hw=32, patch=8, **overrides), stats)
    return model, traj


def per_step_loss(model, instr, tokens, actions, lam):
    """The loss as one policy_core call per step; the reference for the batched one."""
    hidden = pol.reset_hidden(model)
    mse_sum = bce_sum = None
    for t, action in enumerate(actions):
        step_tokens = tuple(x[t:t + 1] for x in tokens)
        pose, logit, hidden = pol.policy_core(model, step_tokens, instr, hidden)
        step_mse = nm.mse(pose, Tensor(action.pose.reshape(1, 6)))
        step_bce = nm.bce_with_logits(logit, Tensor([[float(action.gripper_closed)]]))
        mse_sum = step_mse if mse_sum is None else nm.add(mse_sum, step_mse)
        bce_sum = step_bce if bce_sum is None else nm.add(bce_sum, step_bce)
    return nm.add(mse_sum, nm.mul(nm.as_tensor(lam), bce_sum))


def loss_and_grads(loss_fn, model, instr, tokens, actions):
    trainables = tr.trainable_parameter_set(model)
    trainables.zero_grads()
    loss = loss_fn(model, instr, tokens, actions, 0.7)
    nm.backward(loss, trainables)
    return loss.item(), {name: t.grad.copy() for name, t in trainables.items()}


def batched_loss(model, instr, tokens, actions, lam):
    total, _, _ = tr._trajectory_loss(model, instr, tokens, actions, lam)
    return total


class TestBatchedTrajectoryLoss:
    def test_matches_per_step_loop(self):
        for sep in (False, True):
            model, traj = lift_model(sep_resampler=sep)
            for layer in model.decoder_layers():
                layer["cross.alpha"].data = np.asarray(0.4)
            instr, tokens, actions = tr.encode_dataset(model, [traj])[0]
            assert len(actions) > 3
            got_loss, got = loss_and_grads(batched_loss, model, instr, tokens, actions)
            want_loss, want = loss_and_grads(per_step_loss, model, instr, tokens, actions)
            assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
            assert got.keys() == want.keys()
            for name in want:
                scale = np.abs(want[name]).max()
                assert scale > 0, name
                np.testing.assert_allclose(got[name], want[name], rtol=0,
                                           atol=1e-12 * scale, err_msg=name)


def tape_nodes(root) -> int:
    """Recorded operations reachable from root (leaves excluded)."""
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents:
            count += 1
            stack.extend(node._parents)
    return count


class TestTapeSize:
    def test_per_step_nodes_are_the_recurrence_only(self):
        # The per-step share of the tape is one lstm_step plus the slice
        # that feeds it; resampler, decoder, max-pool, heads and loss are
        # a constant per trajectory, whatever its length.
        model, traj = lift_model()
        instr, tokens, actions = tr.encode_dataset(model, [traj])[0]
        x = Tensor(np.zeros((1, model.cfg.d_model)), requires_grad=True)
        h_top, _ = pol.lstm_step(x, pol.reset_hidden(model), model)
        per_step = tape_nodes(h_top) + 1

        def nodes(t):
            total, _, _ = tr._trajectory_loss(model, instr, tuple(a[:t] for a in tokens),
                                              actions[:t], 1.0)
            return tape_nodes(total)

        counts = [nodes(t) for t in (1, 2, 3)]
        assert counts[1] - counts[0] == per_step
        assert counts[2] - counts[1] == per_step
