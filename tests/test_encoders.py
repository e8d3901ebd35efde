import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import count_encodes, synthetic_stats, tiny_config

from minivla import encoders as enc
from minivla import numerics as nm
from minivla import policy as pol
from minivla.errors import DimensionError
from minivla.numerics import ParamSet, Tensor


def small_vit(rng, hw=32, patch=8, d=16, blocks=2):
    return enc.init_encoder_arrays(hw, patch, d, blocks, rng), patch, blocks


def encode_step(a, b, vit, patch, blocks, memo):
    """vit_encode_pair of one chain of one group, one step of two camera
    slots: (2N, d)."""
    (tokens,) = enc.vit_encode_pair([[(memo, [[a], [b]])]], vit, patch, blocks)
    return tokens[0]


def looked_at(monkeypatch) -> list:
    """Record the memo-side frame of every _same_frame comparison."""
    looked = []
    real = enc._same_frame
    monkeypatch.setattr(enc, "_same_frame",
                        lambda prev, frame: looked.append(prev) or real(prev, frame))
    return looked


ENCODE_IMAGE = enc.vit_encode_image  # the reference; tests may wrap the module's


def alone(frame, vit, patch, blocks, camera):
    """One frame's tokens, (N, d), encoded as a batch of its own."""
    return ENCODE_IMAGE(frame[None], vit, patch, blocks, camera=camera)[0]


def encoded_alone(a, b, vit, patch, blocks):
    """The reference for one step: each camera's frame encoded on its own."""
    return np.concatenate([alone(a, vit, patch, blocks, camera=0),
                           alone(b, vit, patch, blocks, camera=1)])


class TestPatchify:
    def test_token_count_32x32_p8(self, rng):
        vit, patch, _ = small_vit(rng)
        img = rng.random((2, 32, 32, 3))
        out = enc.patchify(img, patch, vit["patch_proj"], vit["pos_embed"][:16])
        assert out.shape == (2, 16, 16)

    def test_degenerate_grid(self, rng):
        vit, _, _ = small_vit(rng, hw=8, patch=8)
        out = enc.patchify(rng.random((1, 8, 8, 3)), 8, vit["patch_proj"],
                           vit["pos_embed"][:1])
        assert out.shape == (1, 1, 16)

    def test_constant_image_zero_pos_gives_identical_tokens(self, rng):
        vit, patch, _ = small_vit(rng)
        img = np.full((1, 32, 32, 3), 0.4)
        zero_pos = np.zeros_like(vit["pos_embed"][:16])
        out = enc.patchify(img, patch, vit["patch_proj"], zero_pos)
        assert np.allclose(out, out[0, 0])

    def test_non_divisible_extent_rejected(self, rng):
        vit, _, _ = small_vit(rng)
        with pytest.raises(DimensionError):
            enc.patchify(rng.random((1, 30, 32, 3)), 8, vit["patch_proj"],
                         vit["pos_embed"][:16])

    @pytest.mark.parametrize("img_shape, proj_rows, pos_rows, message", [
        ((32, 32, 3), 192, 16, r"expects a \(B, H, W, 3\) batch of frames"),
        ((1, 32, 32, 3), 100, 16, "patch width 192 does not match projection"),
        ((1, 32, 32, 3), 192, 15, "positional rows 15 do not match 16 patches"),
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
        (out,) = enc.patchify(img[None], 8, proj, pos)
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
        solo_a = alone(a, vit, patch, blocks, camera=0)
        solo_b = alone(b, vit, patch, blocks, camera=1)
        np.testing.assert_array_equal(pair[:16], solo_a)
        np.testing.assert_array_equal(pair[16:], solo_b)

    def test_camera_slots_have_distinct_positions(self, rng):
        vit, patch, blocks = small_vit(rng)
        a = rng.random((32, 32, 3))
        one = alone(a, vit, patch, blocks, camera=0)
        two = alone(a, vit, patch, blocks, camera=1)
        assert not np.array_equal(one, two)

    def test_deterministic(self, rng):
        vit, patch, blocks = small_vit(rng)
        a = rng.random((32, 32, 3))
        b = rng.random((32, 32, 3))
        one = encode_step(a, b, vit, patch, blocks, {})
        two = encode_step(a, b, vit, patch, blocks, {})
        assert np.array_equal(one, two)

    def test_extent_mismatch_rejected(self, rng):
        # patchify checks each frame's extent where it is encoded, and the
        # failed call leaves the memo as it was.
        vit, patch, blocks = small_vit(rng)
        memo = {}
        with pytest.raises(DimensionError, match="positional rows 16 do not match 4 patches"):
            encode_step(rng.random((32, 32, 3)), rng.random((16, 16, 3)),
                        vit, patch, blocks, memo)
        assert memo == {}

    def test_slots_of_unequal_length_rejected(self, rng):
        vit, patch, blocks = small_vit(rng)
        a = rng.random((32, 32, 3))
        with pytest.raises(DimensionError, match=r"camera slots hold \[2, 2, 1, 2\] frames"):
            enc.vit_encode_pair([[({}, [[a, a], [a, a], [a], [a, a]])]], vit, patch, blocks)

    def test_four_slots_alternate_cameras(self, rng):
        # A policy step's slots: RGB static, RGB gripper, depth static,
        # depth gripper. Slot s's rows are its frames encoded by camera s % 2.
        vit, patch, blocks = small_vit(rng)
        slots = [[rng.random((32, 32, 3)) for _ in range(3)] for _ in range(3)]
        slots.append([frame.copy() for frame in slots[0]])  # the other camera's view
        memo = {}
        (got,) = enc.vit_encode_pair([[(memo, slots)]], vit, patch, blocks)
        assert got.shape == (3, 4 * 16, 16)
        assert memo.keys() == {0, 1, 2, 3}
        for s, frames in enumerate(slots):
            assert memo[s][0].tobytes() == frames[-1].tobytes()  # the slot's last frame
            for t, frame in enumerate(frames):
                expect = alone(frame, vit, patch, blocks, camera=s % 2)
                assert got[t, s * 16:(s + 1) * 16].tobytes() == expect.tobytes()


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
        (got,) = enc.vit_encode_pair([[(memo, [slot0, slot1])]], vit, patch, blocks)
        assert sorted(cameras) == [0, 0, 1, 1]
        for t, (x, y) in enumerate(zip(slot0, slot1)):
            assert got[t].tobytes() == encoded_alone(x, y, vit, patch, blocks).tobytes()
        stepwise = {}
        for x, y in zip(slot0, slot1):
            encode_step(x, y, vit, patch, blocks, stepwise)
        assert memo.keys() == stepwise.keys() == {0, 1}
        for camera in (0, 1):
            frame, tokens = memo[camera]
            assert frame.tobytes() == stepwise[camera][0].tobytes()
            assert tokens.tobytes() == stepwise[camera][1].tobytes()
            assert not np.shares_memory(tokens, got)


class TestMemoPeers:
    """The groups of one chain in one call, as the arms of a paired
    evaluation in a lockstep round: a group whose step-0 frame misses its
    own memo reuses the step-0 entry of an earlier group of the chain."""

    def test_a_peers_entry_is_reused_without_a_copy(self, rng, monkeypatch):
        vit, patch, blocks = small_vit(rng)
        a, b = rng.random((32, 32, 3)), rng.random((32, 32, 3))
        cameras = count_encodes(monkeypatch)
        mine, theirs = {}, {}
        got = enc.vit_encode_pair([[(theirs, [[a], [b]]),
                                    (mine, [[a.copy()], [b.copy()]])]], vit, patch, blocks)
        assert cameras == [0, 1]
        expect = encoded_alone(a, b, vit, patch, blocks)
        assert [x[0].tobytes() for x in got] == [expect.tobytes()] * 2
        for slot, frame in enumerate((a, b)):
            assert mine[slot] is theirs[slot]  # the same tuple: one copy for both
            assert not np.shares_memory(mine[slot][0], frame)
            assert not any(np.shares_memory(mine[slot][1], x) for x in got)

    def test_a_model_writes_only_its_own_memo(self, rng, monkeypatch):
        vit, patch, blocks = small_vit(rng)
        a, b, c = (rng.random((32, 32, 3)) for _ in range(3))
        cameras = count_encodes(monkeypatch)
        mine, theirs = {}, {}
        encode_step(a, b, vit, patch, blocks, theirs)
        before = dict(theirs)
        _, got = enc.vit_encode_pair([[(theirs, [[a], [b]]), (mine, [[a, c], [c, c]])]],
                                     vit, patch, blocks)
        # Slot 0 starts on the earlier group's frame, then changes; slot 1's
        # c is new, then repeats.
        assert cameras == [0, 1, 0, 1]
        assert theirs == before and all(theirs[s] is before[s] for s in before)
        assert mine[0][0].tobytes() == mine[1][0].tobytes() == c.tobytes()
        for t, (x, y) in enumerate([(a, c), (c, c)]):
            assert got[t].tobytes() == encoded_alone(x, y, vit, patch, blocks).tobytes()

    def test_the_own_memo_is_looked_at_first(self, rng, monkeypatch):
        vit, patch, blocks = small_vit(rng)
        a, b = rng.random((32, 32, 3)), rng.random((32, 32, 3))
        mine, theirs = {}, {}
        encode_step(a, b, vit, patch, blocks, theirs)
        encode_step(a.copy(), b.copy(), vit, patch, blocks, mine)
        order = [theirs[0][0], theirs[1][0], mine[0][0], mine[1][0]]
        looked = looked_at(monkeypatch)
        enc.vit_encode_pair([[(theirs, [[a], [b]]), (mine, [[a], [b]])]], vit, patch, blocks)
        assert [id(f) for f in looked] == [id(f) for f in order]

    def test_a_peer_entry_already_compared_is_skipped(self, rng, monkeypatch):
        # Once mine has adopted the other group's entries, both memos hold
        # the same tuples: a frame that misses its own memo's entry does not
        # compare it again as the earlier group's step-0 entry.
        vit, patch, blocks = small_vit(rng)
        a, b, c, d = (rng.random((32, 32, 3)) for _ in range(4))
        mine, theirs = {}, {}
        enc.vit_encode_pair([[(theirs, [[a], [b]]), (mine, [[a.copy()], [b.copy()]])]],
                            vit, patch, blocks)
        entries = [theirs[0], theirs[1]]
        cameras = count_encodes(monkeypatch)
        looked = looked_at(monkeypatch)
        enc.vit_encode_pair([[(theirs, [[a], [b]]), (mine, [[c], [d]])]], vit, patch, blocks)
        assert cameras == [0, 1]
        assert [id(f) for f in looked] == [id(entry[0]) for entry in entries * 2]


class TestGroups:
    """Several chains of (memo, slots) groups in one call, as a lockstep round."""

    def test_a_later_group_reuses_what_an_earlier_peer_encodes(self, rng, monkeypatch):
        vit, patch, blocks = small_vit(rng)
        a, b, c = (rng.random((32, 32, 3)) for _ in range(3))
        first, second = {}, {}
        cameras = count_encodes(monkeypatch)
        got = enc.vit_encode_pair([[(first, [[a], [b]]), (second, [[a.copy()], [c]])]],
                                  vit, patch, blocks)
        # The second group's slot 0 repeats the first group's new frame, as
        # if the first had run before it; its slot 1 is new.
        assert sorted(cameras) == [0, 1, 1]
        assert second[0] is first[0]
        assert second[1] is not first[1]
        for tokens, (x, y) in zip(got, [(a, b), (a, c)]):
            assert tokens[0].tobytes() == encoded_alone(x, y, vit, patch, blocks).tobytes()

    def test_an_entry_adopted_in_the_call_is_shared_along(self, rng, monkeypatch):
        vit, patch, blocks = small_vit(rng)
        a, b = rng.random((32, 32, 3)), rng.random((32, 32, 3))
        older, first, second = {}, {}, {}
        encode_step(a, b, vit, patch, blocks, older)
        entries = dict(older)
        cameras = count_encodes(monkeypatch)
        got = enc.vit_encode_pair([[(older, [[a.copy()], [b.copy()]]),
                                    (first, [[a.copy()], [b.copy()]]),
                                    (second, [[a.copy()], [b.copy()]])]],
                                  vit, patch, blocks)
        assert cameras == []
        for slot in (0, 1):
            assert first[slot] is second[slot] is older[slot] is entries[slot]
        for tokens in got:
            assert tokens[0].tobytes() == encoded_alone(a, b, vit, patch, blocks).tobytes()

    def test_a_frame_of_another_chain_is_encoded_again(self, rng, monkeypatch):
        # Reuse is scoped to a chain: the same frames in two chains are
        # encoded once per chain, and no frame is compared with the other
        # chain's.
        vit, patch, blocks = small_vit(rng)
        a, b = rng.random((32, 32, 3)), rng.random((32, 32, 3))
        memos = [{}, {}]
        for memo in memos:
            encode_step(rng.random((32, 32, 3)), rng.random((32, 32, 3)),
                        vit, patch, blocks, memo)
        own = [memo[slot][0] for memo in memos for slot in (0, 1)]
        cameras = count_encodes(monkeypatch)
        looked = looked_at(monkeypatch)
        got = enc.vit_encode_pair([[(memo, [[a.copy()], [b.copy()]])] for memo in memos],
                                  vit, patch, blocks)
        assert sorted(cameras) == [0, 0, 1, 1]
        assert [id(f) for f in looked] == [id(f) for f in own]
        assert memos[0][0] is not memos[1][0] and memos[0][1] is not memos[1][1]
        for tokens in got:
            assert tokens[0].tobytes() == encoded_alone(a, b, vit, patch, blocks).tobytes()

    def test_batches_hold_one_camera_across_slots_and_groups(self, rng, monkeypatch):
        vit, patch, blocks = small_vit(rng)
        steps = [[rng.random((32, 32, 3)) for _ in range(4)] for _ in range(3)]
        steps[1][2] = steps[1][2].astype(np.float32)  # dtypes may mix in a batch
        batches = []
        real = enc.vit_encode_image

        def recording(img, vit, patch, blocks, camera):
            batches.append((camera, len(img)))
            return real(img, vit, patch, blocks, camera=camera)

        monkeypatch.setattr(enc, "vit_encode_image", recording)
        memos = [{} for _ in steps]
        got = enc.vit_encode_pair([[(memo, [[f] for f in step])]
                                   for memo, step in zip(memos, steps)], vit, patch, blocks)
        # Six frames per camera: slots 0 and 2 (or 1 and 3) of three chains.
        assert sorted(batches) == [(0, 2), (0, 4), (1, 2), (1, 4)]
        for tokens, step in zip(got, steps):
            for s, frame in enumerate(step):
                expect = alone(frame, vit, patch, blocks, camera=s % 2)
                assert tokens[0, s * 16:(s + 1) * 16].tobytes() == expect.tobytes()

    def test_frames_of_other_extents_are_batched_apart(self, rng):
        # patchify checks each batch's extents, so a frame of the wrong size
        # fails as it would alone, not in np.stack.
        vit, patch, blocks = small_vit(rng)
        a = rng.random((32, 32, 3))
        memo = {}
        with pytest.raises(DimensionError, match="positional rows 16 do not match 4 patches"):
            enc.vit_encode_pair([[(memo, [[a], [a], [rng.random((16, 16, 3))], [a]])]],
                                vit, patch, blocks)
        assert memo == {}


class TestUsableCpus:
    def test_the_affinity_set_where_the_os_has_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert enc.usable_cpus() == 3

    def test_the_cpu_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert enc.usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert enc.usable_cpus() == 1

    def test_the_cli_imports_without_an_affinity_call(self):
        # As on macOS and Windows, whose os module has no sched_getaffinity.
        src = str(Path(enc.__file__).resolve().parent.parent)
        code = ("import os\n"
                "if hasattr(os, 'sched_getaffinity'):\n"
                "    del os.sched_getaffinity\n"
                "import minivla.cli\n"
                "from minivla import analysis\n"
                "print(analysis.CHAINS_PER_WAVE, os.cpu_count() or 1)\n")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert run.returncode == 0, run.stderr
        wave, cpus = run.stdout.split()
        assert int(wave) == enc.FRAMES_PER_JOB * max(2, int(cpus))


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
        token = rng.normal(size=(1, 1, 16))
        out = enc.resample(token, tensors["latents"], tensors["wk"], tensors["wv"])
        expect = token[0] @ tensors["wv"].data
        for row in out.data[0]:
            np.testing.assert_allclose(row, expect[0], atol=1e-12)

    def test_output_shape(self, rng):
        tensors, _ = make_resampler(rng, k=4, d_in=8, d=8)
        tokens = rng.normal(size=(1, 16, 8))
        out = enc.resample(tokens, tensors["latents"], tensors["wk"], tensors["wv"])
        assert out.shape == (1, 4, 8)

    def test_permutation_invariance(self, rng):
        tensors, _ = make_resampler(rng)
        tokens = rng.normal(size=(1, 10, 16))
        perm = rng.permutation(10)
        a = enc.resample(tokens, tensors["latents"], tensors["wk"], tensors["wv"]).data
        b = enc.resample(tokens[:, perm], tensors["latents"], tensors["wk"],
                         tensors["wv"]).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_dim_mismatch(self, rng):
        tensors, _ = make_resampler(rng, d_in=16)
        with pytest.raises(DimensionError):
            enc.resample(rng.normal(size=(1, 4, 8)), tensors["latents"],
                         tensors["wk"], tensors["wv"])

    def test_tokens_of_another_rank_rejected(self, rng):
        tensors, _ = make_resampler(rng)
        for shape in (16, (4, 16)):
            with pytest.raises(DimensionError, match=r"resample expects \(T, N, d_in\)"):
                enc.resample(rng.normal(size=shape), tensors["latents"], tensors["wk"],
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
        tokens = rng.normal(size=(1, 6, 16))
        out = enc.resample(tokens, tensors["latents"], tensors["wk"], tensors["wv"])
        params.zero_grads()
        nm.backward(nm.sum_all(nm.mul(out, out)))
        for key in ("latents", "wk", "wv"):
            assert tensors[key].grad is not None
            assert np.abs(tensors[key].grad).max() > 0

    def test_grad_check(self, rng):
        tensors, params = make_resampler(rng, k=2, d_in=5, d=5)
        tokens = Tensor(rng.normal(size=(1, 4, 5)))

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
            rs = model.resampler[modality]
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
