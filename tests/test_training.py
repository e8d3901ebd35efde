import numpy as np
import pytest

from conftest import synthetic_stats, tiny_config

from minivla import numerics as nm
from minivla import policy as pol
from minivla import sim
from minivla import training as tr
from minivla.config import TrainConfig
from minivla.errors import ContractError, DivergedTrainingError, NumericInputError
from minivla.numerics import ParamSet, Tensor


def fake_preds(poses, logits):
    """Stacked per-step predictions: pose (T, 6), gripper logit (T, 1)."""
    return (Tensor(np.asarray(poses, dtype=float).reshape(-1, 6)),
            Tensor(np.asarray(logits, dtype=float).reshape(-1, 1)))


def fake_action(pose, closed):
    return sim.Action(np.asarray(pose, dtype=float), closed)


ZERO6 = np.zeros(6)


class TestImitationLoss:
    def test_perfect_pose_lambda_zero(self):
        preds = fake_preds([ZERO6], [3.0])
        demo = [fake_action(ZERO6, True)]
        total, mse, bce = tr.imitation_loss(preds, demo, 0.0)
        assert total.item() == 0.0
        assert mse.item() == 0.0

    def test_single_pose_error_mean_over_dims(self):
        # error (0.1, 0, 0, 0, 0, 0): mse = 0.01 / 6.
        pose = np.array([0.1, 0, 0, 0, 0, 0])
        preds = fake_preds([pose], [50.0])  # near-certain correct gripper
        demo = [fake_action(ZERO6, True)]
        total, mse, bce = tr.imitation_loss(preds, demo, 1.0)
        np.testing.assert_allclose(mse.item(), 0.01 / 6, atol=1e-12)
        np.testing.assert_allclose(mse.item(), 0.0016667, atol=1e-6)
        assert bce.item() < 1e-20

    def test_uncertain_gripper_costs_ln2(self):
        preds = fake_preds([ZERO6], [0.0])
        demo = [fake_action(ZERO6, True)]
        total, mse, bce = tr.imitation_loss(preds, demo, 1.0)
        np.testing.assert_allclose(total.item(), np.log(2.0), atol=1e-12)

    def test_sums_over_time(self):
        preds = fake_preds([ZERO6] * 3, [0.0] * 3)
        demo = [fake_action(ZERO6, False)] * 3
        total, mse, bce = tr.imitation_loss(preds, demo, 2.0)
        np.testing.assert_allclose(bce.item(), 3 * np.log(2.0), atol=1e-12)
        np.testing.assert_allclose(total.item(), mse.item() + 2.0 * bce.item(), atol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            tr.imitation_loss(fake_preds([ZERO6], [0.0]), [], 1.0)


class TestTrainableParameterSet:
    def test_exact_partition(self):
        model = pol.init_model(tiny_config(), synthetic_stats())
        names = {name for name, _ in model.params.trainable_items()}
        for name in model.params.names():
            in_set = name in names
            expected = (name.startswith(("resampler.", "head."))
                        or ".cross." in name)
            assert in_set is expected, name
        assert not any(n.startswith(("vit.", "embed.")) for n in names)
        assert any(n.endswith("cross.alpha") for n in names)

    def test_deterministic_across_constructions(self):
        a = pol.init_model(tiny_config(), synthetic_stats())
        b = pol.init_model(tiny_config(), synthetic_stats())
        assert ([n for n, _ in a.params.trainable_items()]
                == [n for n, _ in b.params.trainable_items()])


class TestAdam:
    def _single(self, lr=1e-3):
        params = ParamSet()
        t = params.add("w", [1.0], trainable=True)
        cfg = TrainConfig(learning_rate=lr, clip_norm=1e9)
        return t, tr.Adam(cfg, params)

    def test_zero_gradient_fixed_point(self):
        t, opt = self._single()
        t.grad = np.zeros(1)
        opt.step()
        np.testing.assert_array_equal(t.data, [1.0])

    def test_first_step_magnitude_is_learning_rate(self):
        # Constant gradient g: after bias correction the first update is
        # lr * g / (|g| + eps) which is lr to within eps.
        t, opt = self._single(lr=1e-3)
        t.grad = np.array([0.5])
        opt.step()
        np.testing.assert_allclose(1.0 - t.data[0], 1e-3, rtol=1e-6)

    def test_gradient_clipping_bounds_norm(self):
        params = ParamSet()
        t = params.add("w", np.zeros(4), trainable=True)
        cfg = TrainConfig(learning_rate=1.0, clip_norm=1.0)
        opt = tr.Adam(cfg, params)
        t.grad = np.full(4, 100.0)
        opt.step()
        # Direction preserved, magnitude as if the gradient had unit norm.
        assert np.all(t.data < 0)

    def test_nan_gradient_aborts(self):
        t, opt = self._single()
        t.grad = np.array([np.nan])
        with pytest.raises(DivergedTrainingError):
            opt.step()

    def test_frozen_entries_untouched(self):
        params = ParamSet()
        w = params.add("w", [1.0], trainable=True)
        f = params.add("frozen", [2.0], trainable=False)
        opt = tr.Adam(TrainConfig(), params)
        w.grad = np.array([1.0])
        opt.step()
        np.testing.assert_array_equal(f.data, [2.0])
        assert w.data[0] != 1.0


    def test_updates_match_the_formula_bitwise(self):
        rng = np.random.default_rng(3)
        params = ParamSet()
        tensors = [params.add("a", rng.normal(size=(3, 2)), trainable=True),
                   params.add("b", rng.normal(size=4), trainable=True)]
        cfg = TrainConfig(learning_rate=1e-2, clip_norm=0.5)
        opt = tr.Adam(cfg, params)
        b1, b2, eps = 0.9, 0.999, 1e-8  # Adam's constants, as published
        expect = [t.data.copy() for t in tensors]
        m = [np.zeros_like(e) for e in expect]
        v = [np.zeros_like(e) for e in expect]
        for step in range(1, 5):
            grads = [rng.normal(size=t.shape) for t in tensors]
            for t, g in zip(tensors, grads):
                t.grad = g.copy()
            opt.step()
            norm = np.sqrt(sum(float((g * g).sum()) for g in grads))
            scale = cfg.clip_norm / norm if norm > cfg.clip_norm else 1.0
            for i, g in enumerate(grads):
                g = g * scale
                m[i] *= b1
                m[i] += (1.0 - b1) * g
                v[i] *= b2
                v[i] += (1.0 - b2) * g * g
                expect[i] -= cfg.learning_rate * (m[i] / (1.0 - b1 ** step)) / (
                    np.sqrt(v[i] / (1.0 - b2 ** step)) + eps)
            for t, e in zip(tensors, expect):
                assert t.data.tobytes() == e.tobytes()

    def test_moments_are_allocated_once_at_construction(self, monkeypatch):
        params = ParamSet()
        for name in ("a", "b", "c"):
            params.add(name, np.ones(3), trainable=True).grad = np.full(3, 0.1)
        params.add("frozen", np.ones(3), trainable=False)
        calls = []
        real = np.zeros_like
        monkeypatch.setattr(np, "zeros_like", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        opt = tr.Adam(TrainConfig(), params)
        assert len(calls) == 6  # m and v of each trainable entry
        opt.step()
        opt.step()
        assert len(calls) == 6

    def test_parameters_are_read_once_at_construction(self):
        # A tensor flagged trainable after the optimizer was built is not its.
        params = ParamSet()
        w = params.add("w", [1.0], trainable=True)
        late = params.add("late", [1.0], trainable=False)
        opt = tr.Adam(TrainConfig(), params)
        late.requires_grad = True
        w.grad, late.grad = np.array([1.0]), np.array([1.0])
        opt.step()
        assert w.data[0] != 1.0 and late.data[0] == 1.0


def lift_dataset(n=4, seed=0, palettes=("A",)):
    return sim.generate_dataset(n, seed, list(palettes), families=["lift"])


def small_model(seed=0, **kw):
    data = lift_dataset()
    frames = [t for traj in data for obs, _ in traj.steps
              for t in (obs.depth_static, obs.depth_gripper)]
    from minivla import depth as dp
    stats = dp.compute_stats(frames)
    cfg = tiny_config(patch=8, seed=seed, **kw)
    return pol.init_model(cfg, stats), data


class TestTrainRun:
    def test_zero_epochs_is_noop(self):
        model, data = small_model()
        before = {n: t.data.copy() for n, t in model.params.items()}
        report = tr.train_run(data, model, TrainConfig(epochs=0))
        assert report.epochs == []
        for n, t in model.params.items():
            assert np.array_equal(t.data, before[n])

    def test_lr_zero_keeps_loss_constant(self):
        model, data = small_model()
        report = tr.train_run(data[:1], model, TrainConfig(epochs=3, learning_rate=0.0))
        losses = [e.loss for e in report.epochs]
        assert losses[0] == losses[1] == losses[2]

    def test_loss_decreases(self):
        model, data = small_model()
        report = tr.train_run(data, model, TrainConfig(epochs=8, learning_rate=3e-3, seed=1))
        assert report.epochs[-1].loss < report.epochs[0].loss

    def test_loss_decomposition(self):
        model, data = small_model()
        lam = 0.7
        report = tr.train_run(data, model,
                              TrainConfig(epochs=2, lambda_gripper=lam, seed=2))
        for e in report.epochs:
            np.testing.assert_allclose(e.loss, e.mse + lam * e.bce, atol=1e-10)

    def test_freeze_contract(self):
        model, data = small_model()
        before = tr.frozen_checksum(model)
        tr.train_run(data, model, TrainConfig(epochs=3, seed=3))
        assert tr.frozen_checksum(model) == before

    def test_determinism_bitwise(self):
        def run():
            model, data = small_model(seed=5)
            tr.train_run(data, model, TrainConfig(epochs=2, seed=5))
            return {n: t.data.copy() for n, t in model.params.items()}

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_lambda_zero_ignores_gripper_labels(self):
        def run(flip):
            model, data = small_model(seed=6)
            if flip:
                data = [sim.Trajectory(t.instruction, t.family, t.palette, t.seed,
                                       [(o, sim.Action(a.pose, not a.gripper_closed))
                                        for o, a in t.steps], t.variant)
                        for t in data]
            tr.train_run(data, model, TrainConfig(epochs=2, lambda_gripper=0.0, seed=6))
            return np.concatenate([t.data.reshape(-1)
                                   for n, t in model.params.items()
                                   if n.startswith("head.pose.")])

        np.testing.assert_array_equal(run(False), run(True))

    def test_batch_update_is_adam_step_on_mean_gradient(self):
        # No clipping: a clipped update hardly depends on the gradient's
        # scale, so it would not tell the mean from the sum.
        cfg = TrainConfig(epochs=1, batch_size=3, seed=4, clip_norm=1e9)
        model, data = small_model(seed=4)
        data = data[:3]
        reference, _ = small_model(seed=4)
        trainables = reference.params
        grads = []
        for instr, tokens, actions in tr.encode_dataset(reference, data):
            trainables.zero_grads()
            total, _, _ = tr._trajectory_loss(reference, instr, tokens, actions,
                                              cfg.lambda_gripper)
            nm.backward(total)
            grads.append({n: t.grad.copy() for n, t in trainables.trainable_items()})
        for name, t in trainables.trainable_items():
            t.grad = (grads[0][name] + grads[1][name] + grads[2][name]) / 3
        tr.Adam(cfg, trainables).step()

        start = {n: t.data.copy() for n, t in model.params.items()}
        tr.train_run(data, model, cfg)
        moved = 0
        for name, t in model.params.items():
            np.testing.assert_allclose(t.data, reference.params[name].data,
                                       rtol=0, atol=1e-12, err_msg=name)
            moved += not np.array_equal(t.data, start[name])
        assert moved == len(list(trainables.trainable_items()))

    def test_a_forward_that_fails_after_an_update_is_divergence(self):
        model, data = small_model()
        with pytest.raises(DivergedTrainingError,
                           match=r"epoch 0: the parameters that update 1 left fail the "
                                 r"forward: \[stage=resampler\] softmax_rows") as err:
            with np.errstate(all="ignore"):
                tr.train_run(data[:2], model, TrainConfig(epochs=1, learning_rate=1e300))
        assert type(err.value.__cause__) is NumericInputError

    def test_a_forward_that_fails_before_any_update_stays_a_numeric_input_error(
            self, monkeypatch):
        model, data = small_model()

        def failing(*args):
            raise NumericInputError("softmax_rows: input contains non-finite values")

        monkeypatch.setattr(tr, "_trajectory_loss", failing)
        with pytest.raises(NumericInputError) as err:
            tr.train_run(data[:2], model, TrainConfig(epochs=1))
        assert type(err.value) is NumericInputError

    def test_empty_dataset_rejected(self):
        model, _ = small_model()
        with pytest.raises(ContractError):
            tr.train_run([], model, TrainConfig(epochs=1))

    def test_full_model_grad_check_two_step(self):
        # Finite differences over every trainable entry on a 2-step batch.
        model, data = small_model(d_model=8, resampler_k=2, decoder_layers=2,
                                  lstm_layers=1, lstm_width=4)
        for layer in model.decoder_layers():
            layer["cross.alpha"].data = np.asarray(0.25)
        traj = data[0]
        instr, tokens, actions = tr.encode_dataset(model, [traj])[0]
        tokens, actions = tuple(x[:2] for x in tokens), actions[:2]

        def f(params):
            total, _, _ = tr._trajectory_loss(model, instr, tokens, actions, 1.0)
            return total

        res = nm.grad_check(f, model.params)
        assert res.max_rel_error < 1e-4
