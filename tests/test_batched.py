"""Time-batched ops and the time-batched trajectory loss.

Teacher forcing records resampler -> decoder -> max-pool, the action
heads and the loss once per trajectory with time as a leading batch
axis, and the LSTM as one lstm_layer op per layer. These tests pin that
down: every batched op's VJP against finite differences, its forward
bitwise against the 2-D op on each batch entry, lstm_layer against the
per-step cell and against chained one-row calls, the reassociated
resampler against the key/value formula, the batched loss against a
per-step loop, and a tape size that does not grow with T.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tiny_config

from minivla import decoder as dec
from minivla import depth as dp
from minivla import encoders as enc
from minivla import numerics as nm
from minivla import policy as pol
from minivla import sim
from minivla import training as tr
from minivla.errors import DimensionError
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
    params.zero_grads()
    nm.backward(nm.sum_all(nm.mul(out, Tensor(w))))

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
    def test_transpose(self, t, m, n, seed):
        rng = np.random.default_rng(seed)
        fd_check(nm.transpose, [rng.normal(size=(t, m, n))], seed)

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


# --- the LSTM layer and the resampler association ---------------------------------


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic function as a tape op; the package's LSTM
    applies nm._sigmoid inside lstm_layer and needs no such op."""
    y = nm._sigmoid(a.data)
    return nm._result(y, (a,), lambda g: (g * y * (1.0 - y),))


def slice_cols(a: Tensor, j0: int, j1: int) -> Tensor:
    """Columns j0:j1 of a 2-D tensor as a tape op."""
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape)
        full[:, j0:j1] = g
        return (full,)

    return nm._result(a.data[:, j0:j1].copy(), (a,), vjp)


def lstm_cell(x, h, c, wx, wh, b):
    """One step of the LSTM as separate tape ops; the reference for lstm_layer."""
    r = h.shape[1]
    z = nm.add(nm.add(nm.matmul(x, wx), nm.matmul(h, wh)), b)
    i_gate = sigmoid(slice_cols(z, 0, r))
    f_gate = sigmoid(slice_cols(z, r, 2 * r))
    g_cell = nm.tanh(slice_cols(z, 2 * r, 3 * r))
    o_gate = sigmoid(slice_cols(z, 3 * r, 4 * r))
    c_new = nm.add(nm.mul(f_gate, c), nm.mul(i_gate, g_cell))
    return nm.mul(o_gate, nm.tanh(c_new)), c_new


def lstm_arrays(rng, t, d_in, r):
    """x, h0, c0, wx, wh, b for one layer of width r over t rows."""
    return [rng.normal(size=(t, d_in)), rng.normal(size=(1, r)), rng.normal(size=(1, r)),
            rng.normal(0.0, d_in ** -0.5, size=(d_in, 4 * r)),
            rng.normal(0.0, r ** -0.5, size=(r, 4 * r)), rng.normal(size=4 * r)]


class TestLstmLayer:
    @property_settings
    @given(t=dims, d_in=dims, r=dims, seed=seeds)
    def test_vjp(self, t, d_in, r, seed):
        x, h0, c0, wx, wh, b = lstm_arrays(np.random.default_rng(seed), t, d_in, r)
        fd_check(lambda xt, wxt, wht, bt: nm.lstm_layer(xt, h0, c0, wxt, wht, bt)[0],
                 [x, wx, wh, b], seed)

    @property_settings
    @given(d_in=dims, r=dims, seed=seeds)
    def test_one_row_is_the_cell_bitwise(self, d_in, r, seed):
        arrays = lstm_arrays(np.random.default_rng(seed), 1, d_in, r)
        x, h0, c0, wx, wh, b = arrays
        with nm.no_grad():
            h, (h_last, c_last) = nm.lstm_layer(Tensor(x), h0, c0, Tensor(wx),
                                                Tensor(wh), Tensor(b))
            h_ref, c_ref = lstm_cell(*map(Tensor, arrays))
        assert np.array_equal(h.data, h_ref.data)
        assert np.array_equal(h_last, h_ref.data) and np.array_equal(c_last, c_ref.data)

    @pytest.mark.parametrize("which", ["h0", "c0"])
    def test_state_that_is_not_an_array_is_a_dimension_error(self, which):
        x, h0, c0, wx, wh, b = lstm_arrays(np.random.default_rng(0), 3, 2, 4)
        state = {"h0": h0, "c0": c0}
        state[which] = Tensor(state[which])  # the right shape, but graph, not data
        with pytest.raises(DimensionError, match=r"h0 and c0 as \(1, r\) arrays"):
            nm.lstm_layer(Tensor(x), state["h0"], state["c0"], Tensor(wx), Tensor(wh),
                          Tensor(b))

    @property_settings
    @given(t=st.integers(1, 6), layers=st.integers(1, 2), seed=seeds)
    def test_rows_at_once_equal_chained_rows(self, t, layers, seed):
        model = pol.init_model(tiny_config(lstm_layers=layers))
        rng = np.random.default_rng(seed)
        r = model.cfg.lstm_width
        x = rng.normal(size=(t, model.cfg.d_model))
        start = [(rng.normal(size=(1, r)), rng.normal(size=(1, r))) for _ in range(layers)]
        whole, state = pol.lstm_step(Tensor(x), start, model)
        rows, chained = [], start
        for k in range(t):
            h_top, chained = pol.lstm_step(Tensor(x[k:k + 1]), chained, model)
            rows.append(h_top.data)
        assert whole.shape == (t, r)
        np.testing.assert_allclose(whole.data, np.concatenate(rows), rtol=0, atol=1e-12)
        for (h, c), (h_ref, c_ref) in zip(state, chained):
            np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-12)


def resample_by_keys_and_values(x, latents, wk, wv):
    """Attention over the projected tokens x wk and x wv; the reference for
    enc.resample's association."""
    return nm.scaled_dot_attention(latents, nm.matmul(x, wk), nm.matmul(x, wv))


class TestResampleAssociation:
    @property_settings
    @given(t=dims, n=dims, k=dims, d_in=dims, d=dims, batched=st.booleans(), seed=seeds)
    def test_matches_keys_and_values(self, t, n, k, d_in, d, batched, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(t, n, d_in) if batched else (n, d_in)))
        arrays = {"latents": rng.normal(size=(k, d)), "wk": rng.normal(size=(d_in, d)),
                  "wv": rng.normal(size=(d_in, d))}
        w = rng.normal(size=(t, k, d) if batched else (k, d))

        def run(resample):
            params = ParamSet()
            p = {name: params.add(name, a, trainable=True) for name, a in arrays.items()}
            out = resample(x, p["latents"], p["wk"], p["wv"])
            params.zero_grads()
            nm.backward(nm.sum_all(nm.mul(out, Tensor(w))))
            return out.data, {name: t.grad for name, t in p.items()}

        got, got_grads = run(enc.resample)
        want, want_grads = run(resample_by_keys_and_values)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        for name, g in want_grads.items():
            np.testing.assert_allclose(got_grads[name], g, rtol=0,
                                       atol=1e-12 * np.abs(g).max(), err_msg=name)


# --- the trajectory loss ---------------------------------------------------------


def lift_model(**overrides):
    (traj,) = sim.generate_dataset(1, 3, ["A"], families=["lift"])
    stats = dp.compute_stats([f for obs, _ in traj.steps
                              for f in (obs.depth_static, obs.depth_gripper)])
    model = pol.init_model(tiny_config(patch=8, **overrides), stats)
    return model, traj


def per_step_loss(model, instr, tokens, actions, lam):
    """The loss one step at a time, with the LSTM as lstm_cell and its state
    on the tape, so gradients run back through the steps; the reference for
    the batched one."""
    p = model.params
    hidden = [tuple(map(Tensor, state)) for state in pol.reset_hidden(model)]
    mse_sum = bce_sum = None
    for t, action in enumerate(actions):
        step_tokens = tuple(x[t:t + 1] for x in tokens)
        x = dec.decode(Tensor(instr), pol.fused_tokens(model, step_tokens),
                       model.decoder_layers())
        h = nm.max_over_rows(x)
        for i, (h0, c0) in enumerate(hidden):
            layer = f"head.lstm.{i}."
            h, c = lstm_cell(h, h0, c0, p[layer + "wx"], p[layer + "wh"], p[layer + "b"])
            hidden[i] = (h, c)
        pose, logit = pol.action_heads(h, model)
        err = nm.sub(pose, Tensor(action.pose.reshape(1, 6)))
        step_mse = nm.mul(nm.sum_all(nm.mul(err, err)), Tensor(1.0 / 6))
        step_bce = nm.bce_with_logits(logit, Tensor([[float(action.gripper_closed)]]))
        mse_sum = step_mse if mse_sum is None else nm.add(mse_sum, step_mse)
        bce_sum = step_bce if bce_sum is None else nm.add(bce_sum, step_bce)
    return nm.add(mse_sum, nm.mul(Tensor(lam), bce_sum))


def loss_and_grads(loss_fn, model, instr, tokens, actions):
    model.params.zero_grads()
    loss = loss_fn(model, instr, tokens, actions, 0.7)
    nm.backward(loss)
    return loss.item(), {name: t.grad.copy() for name, t in model.params.trainable_items()}


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
        # The recurrence is one lstm_layer op per layer, recorded once for
        # all T steps like resampler, decoder, max-pool, heads and loss, so
        # the tape of a trajectory's loss does not grow with its length.
        model, traj = lift_model()
        instr, tokens, actions = tr.encode_dataset(model, [traj])[0]

        def nodes(t):
            total, _, _ = tr._trajectory_loss(model, instr, tuple(a[:t] for a in tokens),
                                              actions[:t], 1.0)
            return tape_nodes(total)

        assert nodes(1) == nodes(2) == nodes(3)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_lstm_step_records_one_node_per_layer(self, layers):
        # The carried state is data: no node gives the state back out.
        model = pol.init_model(tiny_config(lstm_layers=layers))
        r = model.cfg.lstm_width
        x = Tensor(np.random.default_rng(0).normal(size=(3, model.cfg.d_model)),
                   requires_grad=True)
        h_top, state = pol.lstm_step(x, pol.reset_hidden(model), model)
        assert tape_nodes(h_top) == layers
        assert len(h_top._parents) == 4  # x, wx, wh, b
        for h, c in state:
            assert type(h) is np.ndarray and type(c) is np.ndarray
            assert h.shape == c.shape == (1, r)
