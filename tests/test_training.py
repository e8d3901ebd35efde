import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import synthetic_stats, tiny_config

import minivla
from minivla import depth as dp
from minivla import numerics as nm
from minivla import persist
from minivla import policy as pol
from minivla import sim
from minivla import training as tr
from minivla.config import ModelConfig, TrainConfig
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


def reference_adam(start, grads_per_step, lr, clip_norm):
    """Per-tensor Adam, written from the paper's formula: per step the
    parameters and both moments of each tensor."""
    b1, b2, eps = 0.9, 0.999, 1e-8  # Adam's constants, as published
    expect = [np.array(x, dtype=np.float64) for x in start]
    m = [np.zeros_like(e) for e in expect]
    v = [np.zeros_like(e) for e in expect]
    states = []
    for step, grads in enumerate(grads_per_step, start=1):
        with np.errstate(over="ignore"):
            norm = np.sqrt(sum(float((g * g).sum()) for g in grads))
        scale = clip_norm / norm if norm > clip_norm else 1.0
        for i, g in enumerate(grads):
            g = g * scale
            m[i] *= b1
            m[i] += (1.0 - b1) * g
            v[i] *= b2
            v[i] += (1.0 - b2) * g * g
            expect[i] -= lr * (m[i] / (1.0 - b1 ** step)) / (
                np.sqrt(v[i] / (1.0 - b2 ** step)) + eps)
        states.append(([e.copy() for e in expect], [x.copy() for x in m],
                       [x.copy() for x in v]))
    return states


def flat_bytes(arrays):
    return np.concatenate([a.reshape(-1) for a in arrays]).tobytes()


def check_steps(params, opt, grads_per_step, clip_norm):
    """Run opt over grads_per_step (in name order) and assert that the
    parameters and moments are bitwise the reference's after every step."""
    tensors = [t for _, t in params.trainable_items()]
    states = reference_adam([t.data.copy() for t in tensors], grads_per_step,
                            opt.lr, clip_norm)
    opt.CLIP_NORM = clip_norm
    for grads, (expect, m, v) in zip(grads_per_step, states):
        params.zero_grads()
        for t, g in zip(tensors, grads):
            t.grad += g
        opt.step()
        for t, e in zip(tensors, expect):
            assert t.data.tobytes() == e.tobytes()
        assert opt.m.tobytes() == flat_bytes(m)
        assert opt.v.tobytes() == flat_bytes(v)


SHAPES = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 20)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    # Sizes around one chunk, so tensors straddle a chunk boundary.
    st.tuples(st.sampled_from([tr.ADAM_CHUNK - 1, tr.ADAM_CHUNK + 3])),
)


class TestAdam:
    def _single(self, lr=1e-3):
        params = ParamSet()
        t = params.add("w", [1.0], trainable=True)
        opt = tr.Adam(TrainConfig(learning_rate=lr), params)
        opt.CLIP_NORM = 1e9
        return t, opt

    def test_zero_gradient_fixed_point(self):
        t, opt = self._single()
        t.grad[:] = 0.0
        opt.step()
        np.testing.assert_array_equal(t.data, [1.0])

    def test_first_step_magnitude_is_learning_rate(self):
        # Constant gradient g: after bias correction the first update is
        # lr * g / (|g| + eps) which is lr to within eps.
        t, opt = self._single(lr=1e-3)
        t.grad[:] = 0.5
        opt.step()
        np.testing.assert_allclose(1.0 - t.data[0], 1e-3, rtol=1e-6)

    def test_gradient_clipping_bounds_norm(self):
        params = ParamSet()
        t = params.add("w", np.zeros(4), trainable=True)
        opt = tr.Adam(TrainConfig(learning_rate=1.0), params)
        assert opt.CLIP_NORM == 1.0
        t.grad[:] = 100.0
        opt.step()
        # Direction preserved, magnitude as if the gradient had unit norm.
        assert np.all(t.data < 0)

    def test_nan_gradient_aborts(self):
        t, opt = self._single()
        t.grad[:] = np.nan
        with pytest.raises(DivergedTrainingError):
            opt.step()

    def test_non_finite_error_names_the_first_bad_tensor_in_name_order(self):
        params = ParamSet()
        tensors = {name: params.add(name, np.ones(3), trainable=True)
                   for name in ("d", "c", "b", "a")}
        opt = tr.Adam(TrainConfig(), params)
        tensors["d"].grad[1] = np.nan
        tensors["b"].grad[2] = -np.inf
        before = params.flat_layout().data.copy()
        with pytest.raises(DivergedTrainingError, match=r"non-finite gradient in b$"):
            opt.step()
        assert params.flat_layout().data.tobytes() == before.tobytes()
        assert opt.t == 0

    def test_finite_gradients_whose_squares_overflow_do_not_raise(self):
        rng = np.random.default_rng(5)
        params = ParamSet()
        params.add("a", rng.normal(size=(2, 3)), trainable=True)
        params.add("b", rng.normal(size=4), trainable=True)
        opt = tr.Adam(TrainConfig(learning_rate=1e-2), params)
        grads = [[rng.normal(size=(2, 3)), rng.normal(size=4)],
                 [np.full((2, 3), 1e200), np.full(4, -1e200)],
                 [rng.normal(size=(2, 3)), rng.normal(size=4)]]
        # The squares overflow inside step(): that must be no warning either,
        # as under python -W error::RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_steps(params, opt, grads, clip_norm=1.0)

    def test_frozen_entries_untouched(self):
        params = ParamSet()
        w = params.add("w", [1.0], trainable=True)
        f = params.add("frozen", [2.0], trainable=False)
        opt = tr.Adam(TrainConfig(), params)
        w.grad[:] = 1.0
        opt.step()
        np.testing.assert_array_equal(f.data, [2.0])
        assert w.data[0] != 1.0

    def test_updates_match_the_formula_bitwise(self):
        rng = np.random.default_rng(3)
        params = ParamSet()
        params.add("a", rng.normal(size=(3, 2)), trainable=True)
        params.add("b", rng.normal(size=4), trainable=True)
        opt = tr.Adam(TrainConfig(learning_rate=1e-2), params)
        grads = [[rng.normal(size=(3, 2)), rng.normal(size=4)] for _ in range(4)]
        check_steps(params, opt, grads, clip_norm=0.5)

    @settings(max_examples=40, deadline=None)
    @given(shapes=st.lists(SHAPES, min_size=1, max_size=4),
           grad_scale=st.sampled_from([1e-3, 1.0, 1e3]),
           clip_norm=st.sampled_from([0.5, 1.0, 1e9]),
           seed=st.integers(0, 2 ** 16))
    def test_flat_update_matches_the_per_tensor_reference(self, shapes, grad_scale,
                                                          clip_norm, seed):
        # Gradient norms on both sides of clip_norm: some steps scale the
        # gradient down and some leave it as it is.
        rng = np.random.default_rng(seed)
        params = ParamSet()
        # Added in reverse, so name order is not insertion order.
        for i, shape in reversed(list(enumerate(shapes))):
            params.add(f"t{i}", rng.normal(size=shape), trainable=True)
        params.add("frozen", np.ones(3), trainable=False)
        opt = tr.Adam(TrainConfig(learning_rate=1e-2), params)
        grads = [[grad_scale * rng.normal(size=shape) for shape in shapes]
                 for _ in range(3)]
        check_steps(params, opt, grads, clip_norm)

    @pytest.mark.parametrize("attr", ["data", "grad"])
    def test_rebinding_a_laid_out_tensor_raises(self, attr):
        params = ParamSet()
        w = params.add("w", np.ones(3), trainable=True)
        opt = tr.Adam(TrainConfig(), params)
        setattr(w, attr, np.ones(3))
        with pytest.raises(ContractError, match=r"^w: .*rebound.*in place"):
            opt.step()
        with pytest.raises(ContractError, match="rebound"):
            params.zero_grads()

    def test_a_step_allocates_no_array(self):
        params = ParamSet()
        tensors = [params.add(name, np.ones(4000), trainable=True) for name in "abc"]
        params.add("frozen", np.ones(4000), trainable=False)
        opt = tr.Adam(TrainConfig(), params)

        def update():
            params.zero_grads()
            for t in tensors:
                t.grad += 0.1  # a norm of about 11: the clipped path
            opt.step()

        update()
        tracemalloc.start()
        try:
            for _ in range(3):
                update()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One tensor's array is 32000 bytes; a step's views and scalars are
        # a few hundred.
        assert peak < 8000, peak
        assert current < 8000, current

    def test_parameters_are_read_once_at_construction(self):
        # A tensor flagged trainable after the optimizer was built is not its.
        params = ParamSet()
        w = params.add("w", [1.0], trainable=True)
        late = params.add("late", [1.0], trainable=False)
        opt = tr.Adam(TrainConfig(), params)
        late.requires_grad = True
        w.grad[:] = 1.0
        late.grad = np.array([1.0])  # not laid out, so its own array
        opt.step()
        assert w.data[0] != 1.0 and late.data[0] == 1.0


def lift_dataset(n=4, seed=0, palettes=("A",)):
    return sim.generate_dataset(n, seed, list(palettes), families=["lift"])


def small_model(seed=0, **kw):
    data = lift_dataset()
    frames = [t for traj in data for obs, _ in traj.steps
              for t in (obs.depth_static, obs.depth_gripper)]
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

    def test_batch_update_is_adam_step_on_mean_gradient(self, monkeypatch):
        # No clipping: a clipped update hardly depends on the gradient's
        # scale, so it would not tell the mean from the sum.
        monkeypatch.setattr(tr.Adam, "CLIP_NORM", 1e9)
        cfg = TrainConfig(epochs=1, batch_size=3, seed=4)
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
            t.grad[...] = (grads[0][name] + grads[1][name] + grads[2][name]) / 3
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

    def test_a_non_finite_loss_is_divergence(self, monkeypatch):
        model, data = small_model()
        real = tr._trajectory_loss

        def nan_loss(*args):
            total, mse, bce = real(*args)
            return nm.mul(total, Tensor(np.nan)), mse, bce

        monkeypatch.setattr(tr, "_trajectory_loss", nan_loss)
        with pytest.raises(DivergedTrainingError, match="loss diverged at epoch 0"):
            tr.train_run(data[:1], model, TrainConfig(epochs=1))

    def test_empty_dataset_rejected(self):
        model, _ = small_model()
        with pytest.raises(ContractError):
            tr.train_run([], model, TrainConfig(epochs=1))

    def test_an_encoding_of_another_dataset_is_rejected(self):
        model, data = small_model()
        encoded = tr.encode_dataset(model, data[:2])
        with pytest.raises(ContractError, match="encoded dataset has 2 trajectories, "
                                                "dataset 3"):
            tr.train_run(data[:3], model, TrainConfig(epochs=1), encoded=encoded)


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        return "unknown"


def two_demo_epoch() -> list[float]:
    """Loss, pose MSE and gripper BCE of one epoch over two lift demos.

    Seed 3's losses differ between OpenBLAS's SkylakeX and Prescott
    kernels in the last one or two bits (seed 0's do not), so the
    cross-core test below compares values that really differ.
    """
    data = sim.generate_dataset(2, 3, ["A"], families=["lift"])
    stats = dp.compute_stats(persist.dataset_depth_frames(data))
    model = pol.init_model(ModelConfig(seed=3), stats)
    (epoch,) = tr.train_run(data, model, TrainConfig(epochs=1, seed=3)).epochs
    return [epoch.loss, epoch.mse, epoch.bce]


@pytest.mark.skipif("openblas" not in blas_name().lower(),
                    reason=f"the BLAS is {blas_name()}, not OpenBLAS, so "
                           f"OPENBLAS_CORETYPE cannot select another kernel")
def test_training_on_another_openblas_core_agrees_to_1e_9():
    # Bitwise holds per BLAS kernel; across kernels the promise is 1e-9
    # relative on losses. Prescott is a kernel every x86-64 CPU can run.
    path = os.pathsep.join([str(Path(minivla.__file__).parent.parent),
                            str(Path(__file__).parent)])
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c",
         "import json, test_training; print(json.dumps(test_training.two_demo_epoch()))"],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    other = json.loads(run.stdout.splitlines()[-1])
    np.testing.assert_allclose(other, two_demo_epoch(), rtol=1e-9, atol=0)
