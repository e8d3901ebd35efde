import tracemalloc

import numpy as np
import pytest

from conftest import count_encodes, synthetic_stats, tiny_config

from minivla import encoders as enc
from minivla import numerics as nm
from minivla import policy as pol
from minivla.errors import DimensionError
from minivla.numerics import ParamSet, Tensor


def small_vit(rng, hw=32, patch=8, d=16, blocks=2):
    return enc.init_vit_arrays(hw, patch, d, blocks, rng), patch, blocks


def encode_step(a, b, vit, patch, blocks, memo):
    """vit_encode_pair of one step of two camera slots: (2N, d)."""
    return enc.vit_encode_pair([[a], [b]], vit, patch, blocks, memo)[0]


ENCODE_IMAGE = enc.vit_encode_image  # the reference; tests may wrap the module's


def encoded_alone(a, b, vit, patch, blocks):
    """The reference for one step: each camera's frame encoded on its own."""
    return np.concatenate([ENCODE_IMAGE(a, vit, patch, blocks, camera=0),
                           ENCODE_IMAGE(b, vit, patch, blocks, camera=1)])


class TestPatchify:
    def test_token_count_32x32_p8(self, rng):
        vit, patch, _ = small_vit(rng)
        img = rng.random((32, 32, 3))
        out = enc.patchify(img, patch, vit["patch_proj"], vit["pos_embed"][:16])
        assert out.shape == (16, 16)

    def test_degenerate_grid(self, rng):
        vit, _, _ = small_vit(rng, hw=8, patch=8)
        out = enc.patchify(rng.random((8, 8, 3)), 8, vit["patch_proj"],
                           vit["pos_embed"][:1])
        assert out.shape == (1, 16)

    def test_constant_image_zero_pos_gives_identical_tokens(self, rng):
        vit, patch, _ = small_vit(rng)
        img = np.full((32, 32, 3), 0.4)
        zero_pos = np.zeros_like(vit["pos_embed"][:16])
        out = enc.patchify(img, patch, vit["patch_proj"], zero_pos)
        assert np.allclose(out, out[0])

    def test_non_divisible_extent_rejected(self, rng):
        vit, _, _ = small_vit(rng)
        with pytest.raises(DimensionError):
            enc.patchify(rng.random((30, 32, 3)), 8, vit["patch_proj"],
                         vit["pos_embed"][:16])

    @pytest.mark.parametrize("img_shape, proj_rows, pos_rows, message", [
        ((32, 32), 192, 16, r"expects an \(H, W, 3\) image"),
        ((32, 32, 3), 100, 16, "patch width 192 does not match projection"),
        ((32, 32, 3), 192, 15, "positional rows 15 do not match 16 patches"),
    ], ids=["rank", "projection", "positions"])
    def test_operands_that_do_not_fit_are_rejected(self, rng, img_shape, proj_rows,
                                                   pos_rows, message):
        with pytest.raises(DimensionError, match=message):
            enc.patchify(rng.random(img_shape), 8, np.zeros((proj_rows, 12)),
                         np.zeros((pos_rows, 4)))

    def test_patch_layout_matches_manual_extraction(self, rng):
        # First token must be the top-left patch, flattened row-major,
        # with the positional band appended.
        img = rng.random((16, 16, 3))
        proj = np.eye(3 * 8 * 8)
        pos = np.arange(8.0).reshape(4, 2)
        out = enc.patchify(img, 8, proj, pos)
        np.testing.assert_array_equal(out[0, :192], img[:8, :8, :].reshape(-1))
        np.testing.assert_array_equal(out[1, :192], img[:8, 8:, :].reshape(-1))
        np.testing.assert_array_equal(out[2, :192], img[8:, :8, :].reshape(-1))
        np.testing.assert_array_equal(out[:, 192:], pos)


class TestVitEncode:
    def test_pair_token_count(self, rng):
        vit, patch, blocks = small_vit(rng)
        a = rng.random((32, 32, 3))
        b = rng.random((32, 32, 3))
        out = encode_step(a, b, vit, patch, blocks, {})
        assert out.shape == (32, 16)

    def test_pair_is_independent_encoding(self, rng):
        vit, patch, blocks = small_vit(rng)
        a = rng.random((32, 32, 3))
        b = rng.random((32, 32, 3))
        pair = encode_step(a, b, vit, patch, blocks, {})
        solo_a = enc.vit_encode_image(a, vit, patch, blocks, camera=0)
        solo_b = enc.vit_encode_image(b, vit, patch, blocks, camera=1)
        np.testing.assert_array_equal(pair[:16], solo_a)
        np.testing.assert_array_equal(pair[16:], solo_b)

    def test_camera_slots_have_distinct_positions(self, rng):
        vit, patch, blocks = small_vit(rng)
        a = rng.random((32, 32, 3))
        one = enc.vit_encode_image(a, vit, patch, blocks, camera=0)
        two = enc.vit_encode_image(a, vit, patch, blocks, camera=1)
        assert not np.array_equal(one, two)

    def test_deterministic(self, rng):
        vit, patch, blocks = small_vit(rng)
        a = rng.random((32, 32, 3))
        b = rng.random((32, 32, 3))
        one = encode_step(a, b, vit, patch, blocks, {})
        two = encode_step(a, b, vit, patch, blocks, {})
        assert np.array_equal(one, two)

    def test_extent_mismatch_rejected(self, rng):
        vit, patch, blocks = small_vit(rng)
        with pytest.raises(DimensionError):
            encode_step(rng.random((32, 32, 3)), rng.random((16, 16, 3)),
                        vit, patch, blocks, {})

    def test_slots_of_unequal_length_rejected(self, rng):
        vit, patch, blocks = small_vit(rng)
        a = rng.random((32, 32, 3))
        with pytest.raises(DimensionError, match=r"camera slots hold \[2, 2, 1, 2\] frames"):
            enc.vit_encode_pair([[a, a], [a, a], [a], [a, a]], vit, patch, blocks, {})

    def test_four_slots_alternate_cameras(self, rng):
        # A policy step's slots: RGB static, RGB gripper, depth static,
        # depth gripper. Slot s's rows are its frames encoded by camera s % 2.
        vit, patch, blocks = small_vit(rng)
        slots = [[rng.random((32, 32, 3)) for _ in range(3)] for _ in range(3)]
        slots.append([frame.copy() for frame in slots[0]])  # the other camera's view
        memo = {}
        got = enc.vit_encode_pair(slots, vit, patch, blocks, memo)
        assert got.shape == (3, 4 * 16, 16)
        assert memo.keys() == {0, 1, 2, 3}
        assert all(entries.keys() == {0} for entries in memo.values())  # stream 0's only
        for s, frames in enumerate(slots):
            for t, frame in enumerate(frames):
                alone = ENCODE_IMAGE(frame, vit, patch, blocks, camera=s % 2)
                assert got[t, s * 16:(s + 1) * 16].tobytes() == alone.tobytes()


class TestFrameMemo:
    def test_repeated_pair_reuses_tokens(self, rng, monkeypatch):
        vit, patch, blocks = small_vit(rng)
        a, b = rng.random((32, 32, 3)), rng.random((32, 32, 3))
        expect = encoded_alone(a, b, vit, patch, blocks)
        cameras = count_encodes(monkeypatch)
        memo = {}
        for _ in range(3):
            got = encode_step(a.copy(), b.copy(), vit, patch, blocks, memo)
            assert got.tobytes() == expect.tobytes()
        assert cameras == [0, 1]

    @pytest.mark.parametrize("change", ["one byte", "negative zero", "dtype"])
    def test_changed_frame_is_encoded_again(self, rng, monkeypatch, change):
        vit, patch, blocks = small_vit(rng)
        a, b = rng.random((32, 32, 3)), rng.random((32, 32, 3))
        a[5, 5, 1] = 0.0
        if change == "one byte":
            a2 = a.copy()
            a2.reshape(-1).view(np.uint8)[1000] ^= 1  # the low byte of one value
        elif change == "negative zero":
            a2 = a.copy()
            a2[5, 5, 1] = -0.0
            assert np.array_equal(a2, a)  # equal as numbers, not as bytes
        else:
            a = np.zeros((32, 32, 3))
            a2 = np.zeros((32, 32, 3), dtype=np.int64)  # the same bytes
            assert a2.tobytes() == a.tobytes()
        cameras = count_encodes(monkeypatch)
        memo = {}
        encode_step(a, b, vit, patch, blocks, memo)
        got = encode_step(a2, b, vit, patch, blocks, memo)
        assert cameras == [0, 1, 0]
        assert got.tobytes() == encoded_alone(a2, b, vit, patch, blocks).tobytes()

    def test_slots_are_remembered_separately(self, rng, monkeypatch):
        vit, patch, blocks = small_vit(rng)
        a, b = rng.random((32, 32, 3)), rng.random((32, 32, 3))
        cameras = count_encodes(monkeypatch)
        memo = {}
        steps = [(a, b), (a, a), (b, a), (b, a)]
        got = [encode_step(x, y, vit, patch, blocks, memo) for x, y in steps]
        # (a, a): slot 0 repeats, slot 1 changed and must not borrow slot 0's
        # tokens; (b, a): only slot 0 changed; the last step repeats both.
        assert cameras == [0, 1, 1, 0]
        for (x, y), tokens in zip(steps, got):
            assert tokens.tobytes() == encoded_alone(x, y, vit, patch, blocks).tobytes()

    def test_memo_holds_a_copy_of_the_frame(self, rng, monkeypatch):
        vit, patch, blocks = small_vit(rng)
        a, b = rng.random((32, 32, 3)), rng.random((32, 32, 3))
        cameras = count_encodes(monkeypatch)
        memo = {}
        encode_step(a, b, vit, patch, blocks, memo)
        a[0, 0, 0] += 1.0  # the caller reuses its buffer for the next frame
        got = encode_step(a, b, vit, patch, blocks, memo)
        assert cameras == [0, 1, 0]
        assert got.tobytes() == encoded_alone(a, b, vit, patch, blocks).tobytes()

    def test_repeats_inside_one_call_are_encoded_once(self, rng, monkeypatch):
        vit, patch, blocks = small_vit(rng)
        a, b = rng.random((32, 32, 3)), rng.random((32, 32, 3))
        slot0 = [a, a.copy(), b, b.copy()]
        slot1 = [b, b.copy(), a, a.copy()]  # the same frames, the other camera
        cameras = count_encodes(monkeypatch)
        memo = {}
        got = enc.vit_encode_pair([slot0, slot1], vit, patch, blocks, memo)
        assert sorted(cameras) == [0, 0, 1, 1]
        for t, (x, y) in enumerate(zip(slot0, slot1)):
            assert got[t].tobytes() == encoded_alone(x, y, vit, patch, blocks).tobytes()
        stepwise = {}
        for x, y in zip(slot0, slot1):
            encode_step(x, y, vit, patch, blocks, stepwise)
        assert memo.keys() == stepwise.keys() == {0, 1}
        for camera in (0, 1):
            assert memo[camera].keys() == stepwise[camera].keys() == {0}  # stream 0's only
            frame, tokens = memo[camera][0]
            assert frame.tobytes() == stepwise[camera][0][0].tobytes()
            assert tokens.tobytes() == stepwise[camera][0][1].tobytes()
            assert not np.shares_memory(tokens, got)


class TestMemoStreams:
    def test_a_stream_reuses_another_streams_entry_without_copying_it(self, rng, monkeypatch):
        vit, patch, blocks = small_vit(rng)
        a, b = rng.random((32, 32, 3)), rng.random((32, 32, 3))
        cameras = count_encodes(monkeypatch)
        memo = {}
        first = enc.vit_encode_pair([[a], [b]], vit, patch, blocks, memo, stream=0)
        second = enc.vit_encode_pair([[a.copy()], [b.copy()]], vit, patch, blocks, memo,
                                     stream=1)
        assert cameras == [0, 1]
        assert second.tobytes() == first.tobytes()
        for slot in (0, 1):
            assert memo[slot].keys() == {0, 1}
            assert memo[slot][0] is memo[slot][1]

    def test_a_stream_writes_only_its_own_entries(self, rng, monkeypatch):
        vit, patch, blocks = small_vit(rng)
        a, b, c = (rng.random((32, 32, 3)) for _ in range(3))
        cameras = count_encodes(monkeypatch)
        memo = {}
        enc.vit_encode_pair([[a], [b]], vit, patch, blocks, memo, stream=0)
        before = {slot: entries[0] for slot, entries in memo.items()}
        got = enc.vit_encode_pair([[a, c], [c, c]], vit, patch, blocks, memo, stream=1)
        # Slot 0 starts on stream 0's frame, then changes; slot 1's c is new,
        # then repeats.
        assert cameras == [0, 1, 0, 1]
        assert {slot: entries[0] for slot, entries in memo.items()} == before
        assert memo[0][1][0].tobytes() == memo[1][1][0].tobytes() == c.tobytes()
        for t, (x, y) in enumerate([(a, c), (c, c)]):
            assert got[t].tobytes() == encoded_alone(x, y, vit, patch, blocks).tobytes()

    def test_the_own_entry_is_looked_at_first(self, rng, monkeypatch):
        vit, patch, blocks = small_vit(rng)
        a, b = rng.random((32, 32, 3)), rng.random((32, 32, 3))
        memo = {}
        enc.vit_encode_pair([[a], [b]], vit, patch, blocks, memo, stream=0)
        enc.vit_encode_pair([[a], [b]], vit, patch, blocks, memo, stream=1)
        own = {slot: entries[1] for slot, entries in memo.items()}
        looked = []
        real = enc._same_frame
        monkeypatch.setattr(enc, "_same_frame",
                            lambda prev, frame: looked.append(prev) or real(prev, frame))
        enc.vit_encode_pair([[a], [b]], vit, patch, blocks, memo, stream=1)
        assert [id(f) for f in looked] == [id(own[0][0]), id(own[1][0])]


class TestSameFrame:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8, np.complex128])
    def test_equal_bytes_are_the_same_frame(self, rng, dtype):
        a = (rng.random((32, 32, 3)) * 200).astype(dtype)
        assert enc._same_frame(a, a.copy())
        b = a.copy()
        b.reshape(-1).view(np.uint8)[77] ^= 1
        assert not enc._same_frame(a, b)

    def test_negative_zero_and_nan_payloads_differ(self):
        zero, neg_zero = np.zeros((4, 4, 3)), np.zeros((4, 4, 3))
        neg_zero[1, 2, 0] = -0.0
        assert not enc._same_frame(zero, neg_zero)
        quiet = np.full((4, 4, 3), np.nan)
        payload = quiet.copy()
        payload.view(np.uint64)[0, 0, 0] |= 1  # another NaN
        assert np.isnan(payload).all()
        assert enc._same_frame(quiet, quiet.copy())
        assert not enc._same_frame(quiet, payload)

    def test_dtype_and_shape_count(self):
        a = np.zeros((8, 8, 3))
        assert not enc._same_frame(a, np.zeros((8, 8, 3), dtype=np.int64))
        assert not enc._same_frame(a, np.zeros((8, 24)))

    def test_strided_frames_compare_their_values_bytes(self, rng):
        big = rng.random((64, 64, 3))
        view = big[::2, ::2]
        assert enc._same_frame(view, np.ascontiguousarray(view))
        assert not enc._same_frame(view, big[1::2, ::2])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_comparing_copies_no_frame(self, rng, dtype):
        a = rng.random((32, 32, 3)).astype(dtype)
        b = a.copy()
        enc._same_frame(a, b)
        tracemalloc.start()
        try:
            assert enc._same_frame(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes  # two tobytes() copies would be 2 * a.nbytes


def make_resampler(rng, k=4, d_in=16, d=16, trainable=True):
    arrays = {"latents": rng.normal(0.0, 0.5, size=(k, d)),
              "wk": rng.normal(0.0, d_in ** -0.5, size=(d_in, d)),
              "wv": rng.normal(0.0, d_in ** -0.5, size=(d_in, d))}
    params = ParamSet()
    tensors = {key: params.add(f"resampler.shared.{key}", arr, trainable)
               for key, arr in arrays.items()}
    return tensors, params


class TestResample:
    def test_single_token_output_is_projected_value(self, rng):
        tensors, _ = make_resampler(rng, k=3)
        token = rng.normal(size=(1, 16))
        out = enc.resample(token, tensors["latents"], tensors["wk"], tensors["wv"])
        expect = token @ tensors["wv"].data
        for row in out.data:
            np.testing.assert_allclose(row, expect[0], atol=1e-12)

    def test_output_shape(self, rng):
        tensors, _ = make_resampler(rng, k=4, d_in=8, d=8)
        tokens = rng.normal(size=(16, 8))
        out = enc.resample(tokens, tensors["latents"], tensors["wk"], tensors["wv"])
        assert out.shape == (4, 8)

    def test_permutation_invariance(self, rng):
        tensors, _ = make_resampler(rng)
        tokens = rng.normal(size=(10, 16))
        perm = rng.permutation(10)
        a = enc.resample(tokens, tensors["latents"], tensors["wk"], tensors["wv"]).data
        b = enc.resample(tokens[perm], tensors["latents"], tensors["wk"], tensors["wv"]).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_dim_mismatch(self, rng):
        tensors, _ = make_resampler(rng, d_in=16)
        with pytest.raises(DimensionError):
            enc.resample(rng.normal(size=(4, 8)), tensors["latents"],
                         tensors["wk"], tensors["wv"])

    def test_tokens_of_another_rank_rejected(self, rng):
        tensors, _ = make_resampler(rng)
        with pytest.raises(DimensionError, match=r"resample expects \(N, d_in\)"):
            enc.resample(rng.normal(size=16), tensors["latents"], tensors["wk"],
                         tensors["wv"])

    @pytest.mark.parametrize("k", [2, 7, 8])
    def test_initial_tiles_cover_both_camera_grids(self, k):
        n = 16  # a 4 x 4 patch grid per camera
        tiles = enc._square_tiles(2 * n, k)
        assert len(tiles) == k
        even = 2 * (k // 2)
        np.testing.assert_array_equal(np.sort(np.concatenate(tiles[:even])), np.arange(2 * n))
        for extra in tiles[even:]:  # odd k: the first camera's whole grid once more
            np.testing.assert_array_equal(extra, np.arange(n))

    def test_gradients_reach_all_resampler_params(self, rng):
        tensors, params = make_resampler(rng)
        tokens = rng.normal(size=(6, 16))
        out = enc.resample(tokens, tensors["latents"], tensors["wk"], tensors["wv"])
        params.zero_grads()
        nm.backward(nm.sum_all(nm.mul(out, out)))
        for key in ("latents", "wk", "wv"):
            assert tensors[key].grad is not None
            assert np.abs(tensors[key].grad).max() > 0

    def test_grad_check(self, rng):
        tensors, params = make_resampler(rng, k=2, d_in=5, d=5)
        tokens = Tensor(rng.normal(size=(4, 5)))

        def f(p):
            out = enc.resample(tokens, p["resampler.shared.latents"],
                               p["resampler.shared.wk"], p["resampler.shared.wv"])
            return nm.sum_all(nm.mul(out, out))

        res = nm.grad_check(f, params)
        assert res.max_rel_error < 1e-6


class TestFuseConcat:
    """policy.fused_tokens: both modalities resampled, concatenated per
    step, RGB first."""

    def test_counts_and_order(self, rng):
        model = pol.init_model(tiny_config(), synthetic_stats())
        k, d = model.cfg.resampler_k, model.cfg.d_model
        x_rgb, x_depth = rng.normal(size=(2, 3, 4, d))
        out = pol.fused_tokens(model, (x_rgb, x_depth))
        assert out.shape == (3, 2 * k, d)
        for x, modality, rows in ((x_rgb, "rgb", slice(0, k)),
                                  (x_depth, "depth", slice(k, 2 * k))):
            rs = model.resampler_tensors(modality)
            alone = enc.resample(x, rs["latents"], rs["wk"], rs["wv"])
            np.testing.assert_array_equal(out.data[:, rows], alone.data)

    def test_order_matters(self, rng):
        model = pol.init_model(tiny_config(), synthetic_stats())
        x_rgb, x_depth = rng.normal(size=(2, 1, 4, model.cfg.d_model))
        ab = pol.fused_tokens(model, (x_rgb, x_depth)).data
        ba = pol.fused_tokens(model, (x_depth, x_rgb)).data
        assert not np.array_equal(ab, ba)

    def test_dim_mismatch(self, rng):
        model = pol.init_model(tiny_config(), synthetic_stats())
        d = model.cfg.d_model
        with pytest.raises(DimensionError):
            pol.fused_tokens(model, (rng.normal(size=(1, 4, d)),
                                     rng.normal(size=(1, 4, d + 1))))
