import numpy as np
import pytest

from minivla import decoder as dec
from minivla import numerics as nm
from minivla.errors import ContractError, DimensionError, EmptyInstructionError
from minivla.numerics import ParamSet, Tensor

VOCAB = dec.build_vocab(["lift", "the", "red", "block", "tall"])
INDEX = {w: i for i, w in enumerate(VOCAB)}


class TestTokenize:
    def test_basic(self):
        ids = dec.tokenize("Lift the red block", INDEX)
        assert ids == [VOCAB.index("lift"), VOCAB.index("the"),
                       VOCAB.index("red"), VOCAB.index("block")]

    def test_unknown_words_map_to_unk(self):
        ids = dec.tokenize("zzzq block", INDEX)
        assert ids == [dec.UNK_ID, VOCAB.index("block")]

    def test_round_trip_up_to_case(self):
        text = "Lift The RED block"
        ids = dec.tokenize(text, INDEX)
        assert " ".join(VOCAB[i] for i in ids) == text.lower()

    def test_empty_rejected(self):
        with pytest.raises(EmptyInstructionError):
            dec.tokenize("   ", INDEX)

    def test_unk_is_id_zero(self):
        assert VOCAB[0] == dec.UNK_TOKEN


class TestEmbedding:
    def test_shape_and_duplicates(self, rng):
        table = dec.init_embedding_array(len(VOCAB), 8, rng)
        ids = [1, 2, 1]
        out = dec.embed_ids(table, ids)
        assert out.shape == (3, 8)
        np.testing.assert_array_equal(out[0], out[2])

    def test_out_of_range_rejected(self, rng):
        table = dec.init_embedding_array(4, 8, rng)
        with pytest.raises(ContractError):
            dec.embed_ids(table, [5])

    def test_rows_match_table(self, rng):
        table = dec.init_embedding_array(len(VOCAB), 8, rng)
        out = dec.embed_ids(table, [3])
        np.testing.assert_array_equal(out[0], table[3])


def make_layer(rng, d=8, trainable_cross=True):
    params = ParamSet()
    arrays = dec.init_decoder_layer_arrays(d, rng)
    layer = {}
    for key, arr in arrays.items():
        layer[key] = params.add(f"decoder.0.{key}", arr,
                                trainable=trainable_cross and key.startswith("cross."))
    return layer, params


class TestGatedCrossAttention:
    def test_alpha_zero_is_identity(self, rng):
        layer, _ = make_layer(rng)
        layer["cross.alpha"].data = np.asarray(0.0)
        xl = Tensor(rng.normal(size=(3, 8)))
        xvde = Tensor(rng.normal(size=(4, 8)))
        out = dec.gated_cross_attention(xl, xvde, layer)
        np.testing.assert_array_equal(out.data, xl.data)

    def test_gate_bounded_by_tanh(self, rng):
        layer, _ = make_layer(rng)
        layer["cross.alpha"].data = np.asarray(1e6, dtype=np.float64)
        gate = np.tanh(layer["cross.alpha"].data)
        assert -1.0 < gate < 1.0 or gate == 1.0  # saturates, never exceeds
        assert abs(gate) <= 1.0

    def test_matches_direct_composition(self, rng):
        layer, _ = make_layer(rng)
        layer["cross.alpha"].data = np.asarray(0.7)
        xl = rng.normal(size=(3, 8))
        xvde = rng.normal(size=(5, 8))
        out = dec.gated_cross_attention(Tensor(xl), Tensor(xvde), layer).data

        # Oracle: recompute the printed composition step by step.
        def att(q, k, v):
            s = q @ k.T / np.sqrt(q.shape[1])
            e = np.exp(s - s.max(1, keepdims=True))
            return (e / e.sum(1, keepdims=True)) @ v

        a = att(xl @ layer["cross.wq"].data,
                xvde @ layer["cross.wk"].data,
                xvde @ layer["cross.wv"].data)
        h = np.tanh(a @ layer["cross.mlp_w1"].data + layer["cross.mlp_b1"].data)
        branch = h @ layer["cross.mlp_w2"].data + layer["cross.mlp_b2"].data
        expect = np.tanh(0.7) * branch + xl
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_dim_mismatch(self, rng):
        layer, _ = make_layer(rng, d=8)
        with pytest.raises(DimensionError):
            dec.gated_cross_attention(Tensor(rng.normal(size=(3, 4))),
                                      Tensor(rng.normal(size=(4, 8))), layer)

    def test_visual_width_mismatch(self, rng):
        layer, _ = make_layer(rng, d=8)
        with pytest.raises(DimensionError, match="matmul inner dimensions disagree"):
            dec.gated_cross_attention(Tensor(rng.normal(size=(3, 8))),
                                      Tensor(rng.normal(size=(4, 4))), layer)


class TestSelfAttentionBlock:
    def test_single_token_matches_formula(self, rng):
        layer, _ = make_layer(rng)
        x = rng.normal(size=(1, 8))
        out = dec.self_attention_block(Tensor(x), layer).data
        # With one token, attention returns its own value projection.
        a = x @ layer["self.wv"].data
        h = np.tanh(a @ layer["self.mlp_w1"].data + layer["self.mlp_b1"].data)
        expect = h @ layer["self.mlp_w2"].data + layer["self.mlp_b2"].data + x
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_zero_weights_is_residual_passthrough(self, rng):
        layer, _ = make_layer(rng)
        for key, t in layer.items():
            if key.startswith("self."):
                t.data = np.zeros_like(t.data)
        x = rng.normal(size=(4, 8))
        out = dec.self_attention_block(Tensor(x), layer).data
        np.testing.assert_array_equal(out, x)

    def test_output_shape(self, rng):
        layer, _ = make_layer(rng)
        for m in (1, 3, 7):
            out = dec.self_attention_block(Tensor(rng.normal(size=(m, 8))), layer)
            assert out.shape == (m, 8)


class TestDecode:
    def make_stack(self, rng, n_layers=2, d=8):
        params = ParamSet()
        layers = []
        for l in range(n_layers):
            arrays = dec.init_decoder_layer_arrays(d, rng)
            layer = {key: params.add(f"decoder.{l}.{key}", arr,
                                     trainable=key.startswith("cross."))
                     for key, arr in arrays.items()}
            layers.append(layer)
        return layers, params

    def test_empty_stack_rejected(self, rng):
        with pytest.raises(ContractError):
            dec.decode(Tensor(rng.normal(size=(2, 8))),
                       Tensor(rng.normal(size=(2, 8))), [])

    def test_two_layers_equal_manual_composition(self, rng):
        layers, _ = self.make_stack(rng)
        for layer in layers:
            layer["cross.alpha"].data = np.asarray(0.3)
        x = Tensor(rng.normal(size=(3, 8)))
        xvde = Tensor(rng.normal(size=(4, 8)))
        got = dec.decode(x, xvde, layers).data
        step = dec.self_attention_block(dec.gated_cross_attention(x, xvde, layers[0]),
                                        layers[0])
        expect = dec.self_attention_block(
            dec.gated_cross_attention(step, xvde, layers[1]), layers[1]).data
        np.testing.assert_array_equal(got, expect)

    def test_gate_identity_kills_visual_path(self, rng):
        # All gates at zero: swapping the visual tokens changes nothing.
        layers, _ = self.make_stack(rng)
        for layer in layers:
            layer["cross.alpha"].data = np.asarray(0.0)
        x = Tensor(rng.normal(size=(3, 8)))
        a = dec.decode(x, Tensor(rng.normal(size=(6, 8))), layers).data
        b = dec.decode(x, Tensor(rng.normal(size=(6, 8))), layers).data
        np.testing.assert_array_equal(a, b)

    def test_open_gate_uses_visual_path(self, rng):
        layers, _ = self.make_stack(rng)
        for layer in layers:
            layer["cross.alpha"].data = np.asarray(0.5)
        x = Tensor(rng.normal(size=(3, 8)))
        a = dec.decode(x, Tensor(rng.normal(size=(6, 8))), layers).data
        b = dec.decode(x, Tensor(rng.normal(size=(6, 8))), layers).data
        assert not np.array_equal(a, b)

    def test_trainable_paths_pass_grad_check(self, rng):
        layers, params = self.make_stack(rng, n_layers=1, d=4)
        layers[0]["cross.alpha"].data = np.asarray(0.2)
        x = Tensor(rng.normal(size=(2, 4)))
        xvde = Tensor(rng.normal(size=(3, 4)))

        def f(p):
            out = dec.decode(x, xvde, layers)
            return nm.sum_all(nm.mul(out, out))

        res = nm.grad_check(f, params)
        assert res.max_rel_error < 1e-4
        assert res.n_checked > 0

    def test_frozen_paths_receive_no_grads(self, rng):
        layers, params = self.make_stack(rng, n_layers=1)
        layers[0]["cross.alpha"].data = np.asarray(0.4)
        out = dec.decode(Tensor(rng.normal(size=(2, 8))),
                         Tensor(rng.normal(size=(3, 8))), layers)
        params.zero_grads()
        nm.backward(nm.sum_all(out))
        for key, t in layers[0].items():
            if key.startswith("self."):
                assert t.grad is None
            else:
                assert t.grad is not None
