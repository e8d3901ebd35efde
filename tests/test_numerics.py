import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from minivla import numerics as nm
from minivla.errors import (
    ContractError,
    DeterminismError,
    DimensionError,
    NumericInputError,
)
from minivla.numerics import ParamSet, Tensor
from test_batched import lstm_arrays, sigmoid, slice_cols


def finite_diff(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Independent central-difference gradient of a scalar f over array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = nm.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_forced_arithmetic(self):
        out = nm.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_against_naive_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        # Oracle: naive triple loop.
        expect = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for t in range(4):
                    expect[i, j] += a[i, t] * b[t, j]
        out = nm.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradients_both_sides(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        params = ParamSet()
        ta = params.add("a", a, trainable=True)
        tb = params.add("b", b, trainable=True)
        loss = nm.sum_all(nm.mul(out := nm.matmul(ta, tb), out))
        params.zero_grads()
        nm.backward(loss)
        ga = finite_diff(lambda x: float(((x @ b) ** 2).sum()), a.copy())
        gb = finite_diff(lambda x: float(((a @ x) ** 2).sum()), b.copy())
        np.testing.assert_allclose(ta.grad, ga, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(tb.grad, gb, rtol=1e-6, atol=1e-8)


class TestSoftmaxRows:
    def test_symmetry(self):
        out = nm.softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_singleton(self):
        out = nm.softmax_rows(Tensor([[7.0]]))
        np.testing.assert_array_equal(out.data, [[1.0]])

    def test_large_values_need_max_subtraction(self):
        out = nm.softmax_rows(Tensor([[1000.0, 1001.0]]))
        assert np.isfinite(out.data).all()
        # High-precision oracle: softmax(0, 1) = (1, e) / (1 + e).
        e = np.exp(1.0)
        np.testing.assert_allclose(out.data, [[1 / (1 + e), e / (1 + e)]], atol=1e-6)
        np.testing.assert_allclose(out.data, [[0.2689, 0.7311]], atol=1e-4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for scale in (1.0, 50.0, 500.0):
            x = rng.normal(size=(5, 7)) * scale
            out = nm.softmax_rows(Tensor(x))
            np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-12)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        shifted = x + rng.normal(size=(4, 1))
        a = nm.softmax_rows(Tensor(x)).data
        b = nm.softmax_rows(Tensor(shifted)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_nan_input_rejected(self):
        with pytest.raises(NumericInputError):
            nm.softmax_rows(Tensor([[0.0, np.nan]]))

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 5))
        params = ParamSet()
        tx = params.add("x", x, trainable=True)
        loss = nm.sum_all(nm.mul(nm.softmax_rows(tx), Tensor(w)))
        params.zero_grads()
        nm.backward(loss)
        ref = finite_diff(
            lambda z: float(
                (np.exp(z - z.max(1, keepdims=True))
                 / np.exp(z - z.max(1, keepdims=True)).sum(1, keepdims=True) * w).sum()
            ),
            x.copy(),
        )
        np.testing.assert_allclose(tx.grad, ref, rtol=1e-6, atol=1e-9)


class TestScaledDotAttention:
    def test_single_key_returns_value_row(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(1, 4))
        v = rng.normal(size=(1, 4))
        out = nm.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
        for row in out.data:
            np.testing.assert_allclose(row, v[0], atol=1e-15)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        q, k, v = rng.normal(size=(2, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        # Oracle: direct recomputation of the formula.
        scores = q @ k.T / np.sqrt(4)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        expect = p @ v
        out = nm.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_joint_key_value_permutation_invariance(self):
        rng = np.random.default_rng(7)
        q, k, v = rng.normal(size=(2, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        perm = rng.permutation(5)
        a = nm.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).data
        b = nm.scaled_dot_attention(Tensor(q), Tensor(k[perm]), Tensor(v[perm])).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            nm.scaled_dot_attention(
                Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 2)))
            )
        with pytest.raises(DimensionError):
            nm.scaled_dot_attention(
                Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))), Tensor(np.zeros((5, 3)))
            )


class TestBackward:
    def test_sum_of_squares(self):
        params = ParamSet()
        x = params.add("x", [1.0, 2.0], trainable=True)
        loss = nm.sum_all(nm.mul(x, x))
        params.zero_grads()
        nm.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_unreachable_param_gets_zeros(self):
        params = ParamSet()
        x = params.add("x", [1.0, 2.0], trainable=True)
        y = params.add("y", [3.0], trainable=True)
        loss = nm.sum_all(nm.mul(x, x))
        params.zero_grads()
        nm.backward(loss)
        np.testing.assert_array_equal(y.grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            nm.backward(Tensor([1.0, 2.0]))

    def test_frozen_leaf_gets_no_grad(self):
        params = ParamSet()
        x = params.add("x", [1.0, 2.0], trainable=True)
        f = params.add("f", [5.0, 5.0], trainable=False)
        loss = nm.sum_all(nm.mul(x, f))
        params.zero_grads()
        nm.backward(loss)
        assert f.grad is None
        np.testing.assert_array_equal(x.grad, [5.0, 5.0])

    def test_composed_graph_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 4))
        params = ParamSet()
        ta = params.add("a", a, trainable=True)
        tb = params.add("b", b, trainable=True)

        def forward():
            return nm.sum_all(nm.softmax_rows(nm.matmul(ta, tb)))

        params.zero_grads()

        nm.backward(forward())

        def ref(which, x):
            aa, bb = (x, b) if which == "a" else (a, x)
            s = aa @ bb
            e = np.exp(s - s.max(1, keepdims=True))
            return float((e / e.sum(1, keepdims=True)).sum())

        ga = finite_diff(lambda x: ref("a", x), a.copy())
        gb = finite_diff(lambda x: ref("b", x), b.copy())
        ref_norm_a = np.abs(ga) + 1e-8
        ref_norm_b = np.abs(gb) + 1e-8
        assert (np.abs(ta.grad - ga) / np.maximum(1.0, ref_norm_a)).max() < 1e-6
        assert (np.abs(tb.grad - gb) / np.maximum(1.0, ref_norm_b)).max() < 1e-6

    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(4, 4))

        def run():
            params = ParamSet()
            t = params.add("a", a, trainable=True)
            h = nm.tanh(nm.matmul(t, t))
            loss = nm.sum_all(nm.mul(h, h))
            params.zero_grads()
            nm.backward(loss)
            return t.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)

    def test_grad_accumulates_across_calls(self):
        params = ParamSet()
        x = params.add("x", [1.0], trainable=True)
        params.zero_grads()
        for _ in range(2):
            nm.backward(nm.sum_all(nm.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_trainable_leaf_without_zeroed_grad_is_a_contract_error(self):
        params = ParamSet()
        x = params.add("x", [1.0], trainable=True)
        with pytest.raises(ContractError, match="'x'.*zero_grads"):
            nm.backward(nm.sum_all(nm.mul(x, x)))

    def test_reused_node_visited_once(self):
        # Diamond graph: y = x*x; loss = y + y. d/dx = 4x.
        params = ParamSet()
        x = params.add("x", [3.0], trainable=True)
        y = nm.mul(x, x)
        loss = nm.sum_all(nm.add(y, y))
        params.zero_grads()
        nm.backward(loss)
        np.testing.assert_array_equal(x.grad, [12.0])


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "op,ref",
        [
            (nm.tanh, lambda x: np.tanh(x)),
            (sigmoid, lambda x: 1 / (1 + np.exp(-x))),
        ],
    )
    def test_unary_ops(self, op, ref):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 3))
        params = ParamSet()
        t = params.add("x", x, trainable=True)
        params.zero_grads()
        nm.backward(nm.sum_all(op(t)))
        g = finite_diff(lambda z: float(ref(z).sum()), x.copy())
        np.testing.assert_allclose(t.grad, g, rtol=1e-6, atol=1e-9)

    def test_row_broadcast_add(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3))
        b = rng.normal(size=(3,))
        params = ParamSet()
        tb = params.add("b", b, trainable=True)
        loss = nm.sum_all(nm.mul(out := nm.add(Tensor(x), tb), out))
        params.zero_grads()
        nm.backward(loss)
        g = finite_diff(lambda z: float(((x + z) ** 2).sum()), b.copy())
        np.testing.assert_allclose(tb.grad, g, rtol=1e-6, atol=1e-8)

    def test_scalar_broadcast_mul(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        params = ParamSet()
        s = params.add("s", 2.0, trainable=True)
        params.zero_grads()
        nm.backward(nm.sum_all(nm.mul(s, Tensor(x))))
        np.testing.assert_allclose(s.grad, x.sum())

    def test_bce_with_logits_values_and_grad(self):
        # logit 0, label 1 -> ln 2.
        loss = nm.bce_with_logits(Tensor([[0.0]]), Tensor([[1.0]]))
        np.testing.assert_allclose(loss.data, np.log(2.0), atol=1e-12)
        # Large logits stay finite.
        big = nm.bce_with_logits(Tensor([[500.0]]), Tensor([[0.0]]))
        np.testing.assert_allclose(big.data, 500.0, atol=1e-9)
        rng = np.random.default_rng(12)
        z = rng.normal(size=(4, 1)) * 3
        y = (rng.random(size=(4, 1)) > 0.5).astype(float)
        params = ParamSet()
        tz = params.add("z", z, trainable=True)
        params.zero_grads()
        nm.backward(nm.bce_with_logits(tz, Tensor(y)))
        ref = finite_diff(
            lambda q: float(
                (np.maximum(q, 0) - q * y + np.log1p(np.exp(-np.abs(q)))).sum()
            ),
            z.copy(),
        )
        np.testing.assert_allclose(tz.grad, ref, rtol=1e-6, atol=1e-9)


def _two_mask_sigmoid(x: np.ndarray) -> np.ndarray:
    """The earlier nm._sigmoid: separate masked passes for each sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoidKernel:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=9),
                      elements=st.floats(allow_nan=False, allow_infinity=True)))
    def test_bitwise_equal_to_two_mask_formula(self, x):
        expect = _two_mask_sigmoid(x)
        got = nm._sigmoid(x)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()

    def test_edges(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, np.nan])
        got = nm._sigmoid(x)
        assert got[:6].tobytes() == _two_mask_sigmoid(x)[:6].tobytes()
        np.testing.assert_array_equal(got[:6], [0.5, 0.5, 1.0, 0.0, 1.0, 0.0])
        assert np.isnan(got[6])


def zeros(*shape):
    return Tensor(np.zeros(shape))


def lstm_over_no_steps():
    x, h0, c0, wx, wh, b = lstm_arrays(np.random.default_rng(0), 0, 2, 4)
    return nm.lstm_layer(Tensor(x), h0, c0, Tensor(wx), Tensor(wh), Tensor(b))


class TestShapeOps:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: nm.matmul(zeros(3), zeros(3, 2)), DimensionError, "matmul expects 2-D"),
        (lambda: nm.matmul(zeros(2, 2, 3), zeros(3, 3, 2)), DimensionError,
         "matmul batch sizes disagree"),
        (lambda: nm.scaled_dot_attention(zeros(3), zeros(4, 3), zeros(4, 3)),
         DimensionError, "attention expects 2-D"),
        (lambda: nm.concat_rows([]), ContractError, "empty part list"),
        (lambda: nm.concat_rows([zeros(2, 3), zeros(2, 4)]), DimensionError,
         r"incompatible part shape \(2, 4\), want \(\*, 3\)"),
        (lambda: nm.max_over_rows(zeros(3)), DimensionError, "max_over_rows expects 2-D"),
        (lstm_over_no_steps, DimensionError, r"lstm_layer expects x \(T, d_in\)"),
    ], ids=["matmul-rank", "matmul-batches", "attention-rank", "concat-empty",
            "concat-width", "max-rank", "lstm-no-steps"])
    def test_operands_of_the_wrong_shape_are_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_concat_and_slices(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(6.0, 12.0).reshape(2, 3)
        cat = nm.concat_rows([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(cat.data, np.vstack([a, b]))
        np.testing.assert_array_equal(slice_cols(cat, 1, 3).data, np.vstack([a, b])[:, 1:3])

    def test_concat_gradient_splits(self):
        params = ParamSet()
        a = params.add("a", np.ones((2, 2)), trainable=True)
        b = params.add("b", np.ones((1, 2)), trainable=True)
        cat = nm.concat_rows([a, b])
        w = Tensor(np.arange(6.0).reshape(3, 2))
        params.zero_grads()
        nm.backward(nm.sum_all(nm.mul(cat, w)))
        np.testing.assert_array_equal(a.grad, w.data[:2])
        np.testing.assert_array_equal(b.grad, w.data[2:])

    def test_max_over_rows_first_argmax_wins(self):
        x = np.array([[1.0, 5.0], [3.0, 2.0]])
        params = ParamSet()
        t = params.add("x", x, trainable=True)
        out = nm.max_over_rows(t)
        np.testing.assert_array_equal(out.data, [3.0, 5.0])
        params.zero_grads()
        nm.backward(nm.sum_all(out))
        np.testing.assert_array_equal(t.grad, [[0.0, 1.0], [1.0, 0.0]])
        # Tie: gradient goes to the first max row only.
        params2 = ParamSet()
        t2 = params2.add("x", np.array([[2.0], [2.0]]), trainable=True)
        params2.zero_grads()
        nm.backward(nm.sum_all(nm.max_over_rows(t2)))
        np.testing.assert_array_equal(t2.grad, [[1.0], [0.0]])

    def test_permuting_rows_leaves_max_unchanged(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        a = nm.max_over_rows(Tensor(x)).data
        b = nm.max_over_rows(Tensor(x[perm])).data
        np.testing.assert_array_equal(a, b)


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        params = ParamSet()
        params.add("x", [1.0, -2.0, 3.0], trainable=True)

        def f(p):
            return nm.sum_all(nm.mul(p["x"], p["x"]))

        res = nm.grad_check(f, params)
        assert res.max_rel_error < 1e-9
        assert res.n_checked == 3

    def test_all_frozen_returns_zero_with_none_checked(self):
        params = ParamSet()
        params.add("x", [1.0], trainable=False)

        def f(p):
            return nm.sum_all(nm.mul(p["x"], p["x"]))

        res = nm.grad_check(f, params)
        assert res.max_rel_error == 0.0
        assert res.n_checked == 0 and res.worst_param is None

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1e-5])
    def test_eps_must_be_positive_and_finite(self, eps):
        params = ParamSet()
        params.add("x", [1.0], trainable=True)
        with pytest.raises(ContractError, match="positive and finite"):
            nm.grad_check(lambda p: nm.sum_all(nm.mul(p["x"], p["x"])), params, eps=eps)

    def test_nan_analytic_derivative_is_an_infinite_error(self):
        # An op whose VJP is NaN: the relative error is NaN, which must not
        # be skipped as smaller than every other entry's.
        def nan_vjp(a):
            return nm._result(a.data.copy(), (a,), lambda g: (g * np.nan,))

        params = ParamSet()
        params.add("x", [1.0, 2.0], trainable=True)
        res = nm.grad_check(lambda p: nm.sum_all(nan_vjp(p["x"])), params)
        assert res.max_rel_error == np.inf
        assert res.worst_param == "x" and res.n_checked == 2

    def test_overflowing_derivatives_are_an_infinite_error(self):
        # f = 1e308 x^2: both derivatives overflow at x = 1.3, eps = 0.2.
        params = ParamSet()
        params.add("x", [1.3], trainable=True)

        def f(p):
            return nm.mul(nm.sum_all(nm.mul(p["x"], p["x"])), Tensor(1e308))

        with np.errstate(over="ignore", invalid="ignore"):
            res = nm.grad_check(f, params, eps=0.2)
        assert res.max_rel_error == np.inf and res.worst_param == "x"

    def test_nondeterministic_f_detected(self):
        params = ParamSet()
        params.add("x", [1.0], trainable=True)
        state = {"n": 0}

        def f(p):
            state["n"] += 1
            return nm.sum_all(nm.mul(p["x"], Tensor([float(state["n"])])))

        with pytest.raises(DeterminismError):
            nm.grad_check(f, params)

    def test_mixed_graph(self):
        rng = np.random.default_rng(14)
        params = ParamSet()
        params.add("w", rng.normal(size=(3, 3)), trainable=True)
        params.add("b", rng.normal(size=(3,)), trainable=True)
        x = Tensor(rng.normal(size=(2, 3)))

        def f(p):
            h = nm.tanh(nm.add(nm.matmul(x, p["w"]), p["b"]))
            return nm.sum_all(nm.mul(nm.softmax_rows(h), h))

        res = nm.grad_check(f, params)
        assert res.max_rel_error < 1e-6


class TestParamSet:
    def test_lexicographic_iteration(self):
        params = ParamSet()
        params.add("b.x", [1.0], trainable=True)
        params.add("a.y", [2.0], trainable=False)
        params.add("a.x", [3.0], trainable=True)
        assert [n for n, _ in params.items()] == ["a.x", "a.y", "b.x"]
        assert [n for n, _ in params.trainable_items()] == ["a.x", "b.x"]

    def test_duplicate_name_rejected(self):
        params = ParamSet()
        params.add("x", [1.0], trainable=True)
        with pytest.raises(ContractError):
            params.add("x", [2.0], trainable=True)

    def test_checksum_tracks_content(self):
        params = ParamSet()
        t = params.add("vit.w", [1.0, 2.0], trainable=False)
        c0 = params.checksum("vit.")
        t.data[0] = 5.0
        assert params.checksum("vit.") != c0
        t.data[0] = 1.0
        assert params.checksum("vit.") == c0


class TestFlatLayout:
    def test_trainable_entries_are_views_in_name_order(self):
        params = ParamSet()
        b = params.add("b", [[1.0, 2.0], [3.0, 4.0]], trainable=True)
        f = params.add("f", [9.0], trainable=False)
        a = params.add("a", 5.0, trainable=True)
        frozen = f.data
        layout = params.flat_layout()
        assert params.flat_layout() is layout
        assert [t.name for t in layout.tensors] == ["a", "b"]
        np.testing.assert_array_equal(layout.data, [5.0, 1.0, 2.0, 3.0, 4.0])
        assert a.shape == () and b.shape == (2, 2)
        assert np.shares_memory(a.data, layout.data) and np.shares_memory(b.grad, layout.grad)
        assert f.data is frozen and f.grad is None
        layout.data -= 1.0
        assert a.item() == 4.0 and b.data[1, 1] == 3.0

    def test_zero_grads_fills_the_views_in_place(self):
        params = ParamSet()
        x = params.add("x", [1.0, 2.0], trainable=True)
        params.zero_grads()
        grad = x.grad
        nm.backward(nm.sum_all(nm.mul(x, x)))
        assert params.flat_layout().grad.tolist() == [2.0, 4.0]
        params.zero_grads()
        assert x.grad is grad and x.grad.tolist() == [0.0, 0.0]

    def test_no_trainable_entry_after_the_layout(self):
        params = ParamSet()
        params.add("x", [1.0], trainable=True)
        params.flat_layout()
        params.add("frozen", [1.0], trainable=False)
        with pytest.raises(ContractError, match="'late'.*laid out"):
            params.add("late", [1.0], trainable=True)


class TestNoGrad:
    def test_no_graph_recorded(self):
        params = ParamSet()
        x = params.add("x", [1.0], trainable=True)
        with nm.no_grad():
            y = nm.mul(x, x)
        assert y.is_leaf and not y.requires_grad


# --- property tests: elementwise ops, slices and reductions vs finite differences ---

small_floats = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
matrices = hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=4),
                      elements=small_floats)


def weighted_fd_check(op, x: np.ndarray, seed: int) -> None:
    """d/dx of sum(w * op(x)) for random weights w: the tape against central
    differences of the same forward, run through numpy under no_grad."""
    with nm.no_grad():
        shape = op(Tensor(x)).shape
    w = np.random.default_rng(seed).normal(size=shape)
    params = ParamSet()
    leaf = params.add("x", x, trainable=True)
    params.zero_grads()
    nm.backward(nm.sum_all(nm.mul(op(leaf), Tensor(w))))

    def f(z):
        with nm.no_grad():
            return float((op(Tensor(z)).data * w).sum())

    np.testing.assert_allclose(leaf.grad, finite_diff(f, x.copy(), eps=1e-6),
                               rtol=1e-5, atol=1e-7)


class TestElementwiseProperties:
    """Each op's VJP against finite differences; binary ops take one constant."""

    @settings(max_examples=40, deadline=None)
    @given(x=matrices, data=st.data(), seed=st.integers(0, 2**16),
           op=st.sampled_from([nm.add, nm.sub, nm.mul]),
           constant_first=st.booleans(), broadcast=st.sampled_from(["full", "row", "scalar"]))
    def test_binary_op_with_one_constant(self, x, data, seed, op, constant_first, broadcast):
        shape = {"full": x.shape, "row": x.shape[1:], "scalar": ()}[broadcast]
        c = data.draw(hnp.arrays(np.float64, shape, elements=small_floats))
        const = Tensor(c)

        def apply(t):
            return op(const, t) if constant_first else op(t, const)

        weighted_fd_check(apply, x, seed)
        leaf = Tensor(x, requires_grad=True)
        out = apply(leaf)
        grads = out._vjp(np.ones(out.shape))
        const_slot, leaf_slot = (0, 1) if constant_first else (1, 0)
        assert grads[const_slot] is None  # nothing computed for the constant
        assert grads[leaf_slot].shape == x.shape

    @settings(max_examples=25, deadline=None)
    @given(x=matrices, seed=st.integers(0, 2**16), op=st.sampled_from([nm.tanh, sigmoid]))
    def test_unary(self, x, seed, op):
        weighted_fd_check(op, x, seed)

    @settings(max_examples=25, deadline=None)
    @given(x=matrices, data=st.data(), seed=st.integers(0, 2**16))
    def test_slices(self, x, data, seed):
        cols = x.shape[1]
        j0 = data.draw(st.integers(0, cols - 1))
        j1 = data.draw(st.integers(j0 + 1, cols))
        weighted_fd_check(lambda t: slice_cols(t, j0, j1), x, seed)

    @settings(max_examples=25, deadline=None)
    @given(x=matrices, seed=st.integers(0, 2**16))
    def test_reductions(self, x, seed):
        weighted_fd_check(nm.sum_all, x, seed)

    @settings(max_examples=25, deadline=None)
    @given(x=matrices, seed=st.integers(0, 2**16))
    def test_max_over_rows(self, x, seed):
        # Finite differences need a unique maximum per column that a 1e-6
        # step cannot overtake.
        top2 = np.sort(x, axis=0)[-2:] if x.shape[0] > 1 else None
        assume(top2 is None or np.all(top2[1] - top2[0] > 1e-3))
        weighted_fd_check(nm.max_over_rows, x, seed)


def broadcasts(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """numpy's broadcast rule: trailing axes agree or one of them is 1."""
    return all(m == n or 1 in (m, n) for m, n in zip(reversed(a), reversed(b)))


binary_ops = st.sampled_from([(nm.add, np.add, "add"), (nm.sub, np.subtract, "sub"),
                              (nm.mul, np.multiply, "mul")])


@st.composite
def non_broadcasting_pairs(draw):
    """Two shapes of 1-3 axes with sides 1-4 that do not broadcast: both
    are drawn freely, then one aligned trailing axis of each gets its own
    side of at least 2. Every such pair has an axis like that, so this
    draws from all of them without filtering."""
    a, b = (list(draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4)))
            for _ in range(2))
    k = draw(st.integers(1, min(len(a), len(b))))
    a[-k], b[-k] = draw(st.permutations([2, 3, 4]))[:2]
    return tuple(a), tuple(b)


class TestBroadcastCheck:
    """add, sub and mul check shapes once, through numpy's own broadcast."""

    @settings(max_examples=50, deadline=None)
    @given(pair=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4),
           data=st.data(), op=binary_ops)
    def test_broadcastable_pairs_give_numpy_result_bitwise(self, pair, data, op):
        ours, ref, _ = op
        a, b = (data.draw(hnp.arrays(np.float64, s, elements=small_floats))
                for s in pair.input_shapes)
        got = ours(Tensor(a), Tensor(b)).data
        want = np.asarray(ref(a, b))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(pair=non_broadcasting_pairs(), op=binary_ops)
    def test_other_pairs_raise_dimension_error(self, pair, op):
        a, b = pair
        assert not broadcasts(a, b)
        ours, _, name = op
        with pytest.raises(DimensionError) as err:
            ours(Tensor(np.zeros(a)), Tensor(np.zeros(b)))
        assert str(err.value) == f"{name}: shapes {a} and {b} do not broadcast"
