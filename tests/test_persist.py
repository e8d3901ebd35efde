import dataclasses
import json
import os
import re
import stat
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (header_span, read_header, rewrite_checkpoint_header, rewrite_header,
                      synthetic_stats, tiny_config)

from minivla import persist
from minivla import policy as pol
from minivla import sim
from minivla import training as tr
from minivla.analysis import SuccessTable
from minivla.config import TrainConfig
from minivla.errors import (CompatibilityError, ContractError, CorruptionError, DimensionError,
                            NumericInputError)


def small_model(**kw):
    return pol.init_model(tiny_config(**kw), synthetic_stats())


def fail_writes_from_chunk(monkeypatch, n):
    """Make every file persist opens raise OSError on its n-th write and
    every later one."""
    real_open = open

    class FailingFile:
        def __init__(self, f):
            self.f, self.chunks = f, 0

        def write(self, data):
            self.chunks += 1
            if self.chunks >= n:
                raise OSError("disk full")
            return self.f.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    monkeypatch.setattr(persist, "open", lambda *a, **kw: FailingFile(real_open(*a, **kw)),
                        raising=False)


def fail_writes_from_third_chunk(monkeypatch):
    fail_writes_from_chunk(monkeypatch, 3)


def dataset_bytes(data) -> list[bytes]:
    """Every frame and action of a dataset, as bytes, for exact comparison."""
    out = []
    for traj in data:
        out.append(repr((traj.instruction, traj.family, traj.palette, traj.seed,
                         traj.variant)).encode())
        for obs, action in traj.steps:
            out += [np.asarray(f).tobytes() for f in
                    (obs.rgb_static, obs.rgb_gripper, obs.depth_static, obs.depth_gripper,
                     action.pose)]
            out.append(bytes([action.gripper_closed]))
    return out


class TestCheckpoint:
    def test_round_trip_to_f32_precision(self, tmp_path):
        model = small_model()
        path = persist.save_checkpoint(model, tmp_path / "ck.rfpx")
        again = persist.load_checkpoint(path)
        assert again.cfg == model.cfg
        assert again.depth_stats == model.depth_stats
        for name, t in model.params.items():
            expect = t.data.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(again.params[name].data, expect, err_msg=name)
            assert again.params[name].requires_grad == t.requires_grad

    def test_save_load_save_byte_identical(self, tmp_path):
        model = small_model()
        p1 = persist.save_checkpoint(model, tmp_path / "a.rfpx")
        again = persist.load_checkpoint(p1)
        p2 = persist.save_checkpoint(again, tmp_path / "b.rfpx")
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_present(self, tmp_path):
        model = small_model()
        path = persist.save_checkpoint(model, tmp_path / "ck.rfpx")
        assert path.read_bytes()[:5] == b"RFPX2"

    def test_truncated_file_is_corruption_error(self, tmp_path):
        model = small_model()
        path = persist.save_checkpoint(model, tmp_path / "ck.rfpx")
        raw = path.read_bytes()
        for cut in (3, 10, len(raw) // 2, len(raw) - 2):
            bad = tmp_path / f"cut{cut}.rfpx"
            bad.write_bytes(raw[:cut])
            with pytest.raises(CorruptionError):
                persist.load_checkpoint(bad)

    def test_flipped_payload_bit_fails_crc(self, tmp_path):
        model = small_model()
        path = persist.save_checkpoint(model, tmp_path / "ck.rfpx")
        raw = bytearray(path.read_bytes())
        raw[-20] ^= 0x40  # inside the payload
        bad = tmp_path / "bad.rfpx"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match="CRC"):
            persist.load_checkpoint(bad)

    def test_trailing_byte_is_corruption_error(self, tmp_path):
        model = small_model()
        path = persist.save_checkpoint(model, tmp_path / "ck.rfpx")
        bad = tmp_path / "long.rfpx"
        bad.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptionError, match="CRC mismatch"):
            persist.load_checkpoint(bad)

    def test_not_a_checkpoint(self, tmp_path):
        p = tmp_path / "junk.rfpx"
        p.write_bytes(b"PNG...............")
        with pytest.raises(CorruptionError, match="magic"):
            persist.load_checkpoint(p)

    @pytest.mark.parametrize("edit", [
        lambda h: {k: v for k, v in h.items() if k != "entries"},
        lambda h: [],
        lambda h: {**h, "entries": 3},
        lambda h: {**h, "entries": [{"name": "head.pose.b2", "shape": [6]}]},
        lambda h: {**h, "meta": []},
        lambda h: {**h, "meta": "x"},
        lambda h: {**h, "entries": [{k: v for k, v in e.items() if k != "name"}
                                    for e in h["entries"]]},
        lambda h: {**h, "entries": [{k: v for k, v in e.items() if k != "trainable"}
                                    for e in h["entries"]]},
        lambda h: {**h, "entries": [{**h["entries"][0], "name": 5}, *h["entries"][1:]]},
        lambda h: {**h, "entries": [{**e, "trainable": int(e["trainable"])}
                                    for e in h["entries"]]},
        # Equal to 1 in Python, so the shape and the payload length would fit.
        lambda h: {**h, "entries": [{**e, "shape": [True if n == 1 else n for n in e["shape"]]}
                                    for e in h["entries"]]},
    ], ids=["no-entries", "not-an-object", "entries-not-a-list", "entry-without-offset",
            "meta-a-list", "meta-a-string", "entry-without-name", "entry-without-trainable",
            "name-int", "trainable-int", "shape-bool"])
    def test_malformed_header_is_corruption_error(self, tmp_path, edit):
        path = persist.save_checkpoint(small_model(), tmp_path / "m.rfpx")
        rewrite_checkpoint_header(path, tmp_path / "bad.rfpx", edit)
        with pytest.raises(CorruptionError, match="unreadable checkpoint header"):
            persist.load_checkpoint(tmp_path / "bad.rfpx")

    # Checkpoints written while a constant was a ModelConfig field hold it in
    # the embedded config; they must be rebuilt with minivla train.
    @pytest.mark.parametrize("extra, key", [
        (dict(image_hw=32), r"unknown config key: model\.image_hw"),
        (dict(sep_resampler="false"), r"model\.sep_resampler must be of type bool"),
        (dict(vit_blocks=2), r"unknown config key: model\.vit_blocks"),
        (dict(decoder_layers=2), r"unknown config key: model\.decoder_layers"),
        (dict(lstm_layers=2), r"unknown config key: model\.lstm_layers"),
    ], ids=["removed-fields", "wrong-type", "vit_blocks", "decoder_layers", "lstm_layers"])
    def test_embedded_config_goes_through_the_config_parser(self, tmp_path, extra, key):
        path = persist.save_checkpoint(small_model(), tmp_path / "m.rfpx")

        def edit(header):
            header["meta"]["model_config"].update(extra)
            return header

        rewrite_checkpoint_header(path, tmp_path / "old.rfpx", edit)
        with pytest.raises(CompatibilityError, match=key):
            persist.load_checkpoint(tmp_path / "old.rfpx")

    @pytest.mark.parametrize("name, stored", [("decoder.0.self.wq", True),
                                              ("head.pose.b2", False)])
    def test_a_trainable_flag_that_differs_is_a_compatibility_error(self, tmp_path, name,
                                                                     stored):
        # The flags come from init_model; a header that says otherwise, even
        # with a valid CRC, is refused, not obeyed.
        path = persist.save_checkpoint(small_model(), tmp_path / "m.rfpx")

        def flip(header):
            for e in header["entries"]:
                if e["name"] == name:
                    e["trainable"] = stored
            return header

        rewrite_checkpoint_header(path, tmp_path / "flipped.rfpx", flip)
        with pytest.raises(CompatibilityError, match=rf"trainable flag mismatch for {name}"):
            persist.load_checkpoint(tmp_path / "flipped.rfpx")

    def test_a_transposed_shape_is_a_compatibility_error(self, tmp_path):
        # Same element count, so the payload length still fits the header.
        path = persist.save_checkpoint(small_model(), tmp_path / "m.rfpx")
        transposed = []

        def transpose_first_matrix(header):
            entry = next(e for e in header["entries"]
                         if len(e["shape"]) == 2 and e["shape"][0] != e["shape"][1])
            entry["shape"].reverse()
            transposed.append(entry["name"])
            return header

        rewrite_checkpoint_header(path, tmp_path / "t.rfpx", transpose_first_matrix)
        with pytest.raises(CompatibilityError, match=rf"shape mismatch for {transposed[0]}"):
            persist.load_checkpoint(tmp_path / "t.rfpx")

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39], ids=["nan", "inf", "f32-overflow"])
    def test_a_value_not_finite_in_f32_is_refused_before_writing(self, tmp_path, value):
        model = small_model()
        path = persist.save_checkpoint(model, tmp_path / "ck.rfpx")
        before = path.read_bytes()
        model.params["decoder.0.cross.wq"].data[0, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from the cast either
            with pytest.raises(NumericInputError, match=r"parameter decoder\.0\.cross\.wq"):
                persist.save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.rfpx"]

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        model = small_model()
        path = persist.save_checkpoint(model, tmp_path / "ck.rfpx")
        before = path.read_bytes()
        model.params["head.pose.b2"].data += 1.0
        fail_writes_from_third_chunk(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            persist.save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.rfpx"]

    def test_sep_checkpoint_into_shared_config_names_prefix(self, tmp_path):
        # Separate-resampler entries under an embedded config that says shared.
        sep_model = pol.init_model(
            dataclasses.replace(tiny_config(), sep_resampler=True), synthetic_stats())
        path = persist.save_checkpoint(sep_model, tmp_path / "sep.rfpx")

        def shared_config(header):
            header["meta"]["model_config"]["sep_resampler"] = False
            return header

        rewrite_checkpoint_header(path, tmp_path / "bad.rfpx", shared_config)
        with pytest.raises(CompatibilityError, match=r"prefix 'resampler\.depth\.'"):
            persist.load_checkpoint(tmp_path / "bad.rfpx")

    def test_loaded_config_is_the_embedded_config(self, tmp_path):
        model = small_model(sep_resampler=True)
        path = persist.save_checkpoint(model, tmp_path / "ck.rfpx")
        again = persist.load_checkpoint(path)
        assert again.cfg == model.cfg and again.cfg.sep_resampler is True

    @pytest.mark.parametrize("stats, field", [
        ({}, "d_min"),
        ({"d_min": 0.6, "d_max": 1.0, "mu": 0.5, "sigma": 0.29, "scale": 2.0}, "scale"),
        ({"d_min": "0.6", "d_max": 1.0, "mu": 0.5, "sigma": 0.29}, "d_min"),
        ({"d_min": 0.6, "d_max": 1.0, "mu": True, "sigma": 0.29}, "mu"),
        ({"d_min": 0.6, "d_max": 1.0, "mu": float("nan"), "sigma": 0.29}, "mu"),
        ({"d_min": 0.6, "d_max": None, "mu": 0.5, "sigma": 0.29}, "d_max"),
        ([0.6, 1.0, 0.5, 0.29], "JSON object"),
        (None, "JSON object"),
        ({"d_min": 0.8, "d_max": 0.8, "mu": 0.5, "sigma": 0.29}, "d_max must be above d_min"),
        ({"d_min": 0.6, "d_max": 1.0, "mu": 0.5, "sigma": -0.1}, "sigma must be positive"),
    ], ids=["empty", "extra-key", "string", "bool", "nan", "null", "list", "stats-null",
            "empty-range", "negative-sigma"])
    def test_malformed_depth_stats_are_corruption_error(self, tmp_path, stats, field):
        path = persist.save_checkpoint(small_model(), tmp_path / "m.rfpx")

        def edit(header):
            header["meta"]["depth_stats"] = stats
            return header

        rewrite_checkpoint_header(path, tmp_path / "bad.rfpx", edit)
        with pytest.raises(CorruptionError, match=f"unusable depth statistics: .*{field}"):
            persist.load_checkpoint(tmp_path / "bad.rfpx")

    def test_loaded_groups_hold_the_stored_values(self, tmp_path):
        # Every stored value differs from what init_model gives, so a group
        # still holding an array that init_model built would show.
        model = small_model(sep_resampler=True)
        for _, tensor in model.params.items():
            tensor.data += 0.5
        again = persist.load_checkpoint(persist.save_checkpoint(model, tmp_path / "ck.rfpx"))
        groups = {"embed.table": again.embed}
        groups.update({f"vit.{key}": values for key, values in again.vit.items()})
        for modality, group in again.resampler.items():
            groups.update({f"resampler.{modality}.{key}": t.data for key, t in group.items()})
        for l, layer in enumerate(again.decoder):
            groups.update({f"decoder.{l}.{key}": t.data for key, t in layer.items()})
        for i, layer in enumerate(again.lstm):
            groups.update({f"head.lstm.{i}.{key}": t.data
                           for key, t in zip(("wx", "wh", "b"), layer)})
        for head, group in (("pose", again.pose_head), ("gripper", again.gripper_head)):
            groups.update({f"head.{head}.{key}": t.data
                           for key, t in zip(("w1", "b1", "w2", "b2"), group)})
        assert sorted(groups) == again.params.names()
        for name, values in groups.items():
            np.testing.assert_array_equal(values, model.params[name].data.astype(np.float32))

    def test_entries_are_name_shape_and_flag_in_payload_order(self, tmp_path):
        model = small_model()
        path = persist.save_checkpoint(model, tmp_path / "ck.rfpx")
        header = read_header(path)
        assert sorted(header) == ["entries", "meta"]
        assert header["entries"] == [
            {"name": name, "shape": list(t.data.shape), "trainable": t.requires_grad}
            for name, t in model.params.items()]
        names = [e["name"] for e in header["entries"]]
        assert names == sorted(names)
        # The payload holds the slabs in that order, back to back.
        payload = b"".join(t.data.astype("<f4").tobytes() for _, t in model.params.items())
        raw = path.read_bytes()
        assert raw[-4 - len(payload):-4] == payload

    def test_trained_model_survives_round_trip(self, tmp_path):
        model = small_model(patch=8)
        data = sim.generate_dataset(2, 0, ["A"], families=["lift"])
        import minivla.depth as dp
        model.depth_stats = dp.compute_stats(
            [f for t in data for o, _ in t.steps for f in (o.depth_static, o.depth_gripper)])
        tr.train_run(data, model, TrainConfig(epochs=1))
        path = persist.save_checkpoint(model, tmp_path / "ck.rfpx")
        again = persist.load_checkpoint(path)
        gate = again.params["decoder.0.cross.alpha"].data
        np.testing.assert_array_equal(
            gate, model.params["decoder.0.cross.alpha"].data.astype(np.float32))


def lift_demos(n, seed=0, palette="A", family="lift"):
    return sim.generate_dataset(n, seed, [palette], families=[family])


class TestDatasetContainer:
    def test_round_trip(self, tmp_path):
        data = sim.generate_dataset(3, 7, ["A", "B"], families=["lift", "press"])
        persist.save_dataset(data, tmp_path / "ds")
        again = persist.load_dataset(tmp_path / "ds")
        assert len(again) == 3
        for a, b in zip(data, again):
            assert a.instruction == b.instruction
            assert a.palette == b.palette
            assert a.seed == b.seed
            assert len(a.steps) == len(b.steps)
            for (oa, aa), (ob, ab) in zip(a.steps, b.steps):
                np.testing.assert_array_equal(oa.rgb_static, ob.rgb_static)
                np.testing.assert_array_equal(oa.depth_gripper, ob.depth_gripper)
                np.testing.assert_allclose(aa.pose, ab.pose, atol=1e-7)
                assert aa.gripper_closed == ab.gripper_closed

    def test_regeneration_byte_identical(self, tmp_path):
        for name in ("one", "two"):
            persist.save_dataset(sim.generate_dataset(1, 11, ["C"], families=["lift"]),
                                 tmp_path / name)
        assert (tmp_path / "one").read_bytes() == (tmp_path / "two").read_bytes()

    def test_truncated_trajectory_detected(self, tmp_path):
        f = persist.save_dataset(lift_demos(1), tmp_path / "ds")
        f.write_bytes(f.read_bytes()[:-8])
        with pytest.raises(CorruptionError, match=re.escape(f"CRC mismatch in dataset {f}")):
            persist.load_dataset(f)

    def test_failed_save_leaves_no_index_and_no_temp_file(self, tmp_path, monkeypatch):
        fail_writes_from_third_chunk(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            persist.save_dataset(lift_demos(1), tmp_path / "ds")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(CorruptionError):
            persist.load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("where", ["header", "trajectory"])
    def test_failed_resave_keeps_previous_dataset(self, tmp_path, monkeypatch, where):
        f = persist.save_dataset(lift_demos(2), tmp_path / "ds")
        before, files = f.read_bytes(), sorted(tmp_path.iterdir())
        newer = lift_demos(3, 5, "B", "press")
        # Writes: magic, header length, header, then five per step; the
        # trajectory case fails on the second trajectory's first depth frame.
        fail_writes_from_chunk(monkeypatch, 3 if where == "header"
                               else 3 + 5 * len(newer[0].steps) + 3)
        with pytest.raises(OSError, match="disk full"):
            persist.save_dataset(newer, f)
        monkeypatch.undo()
        assert f.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("plane,shape", [("depth_gripper", (8, 8)),
                                             ("rgb_static", (32, 32, 4))])
    def test_frames_of_another_extent_are_rejected_before_writing(self, tmp_path,
                                                                  plane, shape):
        f = persist.save_dataset(lift_demos(2), tmp_path / "ds")
        before, files = f.read_bytes(), sorted(tmp_path.iterdir())
        newer = lift_demos(2, 5, "B", "press")
        obs, _ = newer[1].steps[3]
        setattr(obs, plane, np.zeros(shape, dtype=np.float32))
        with pytest.raises(DimensionError,
                           match=rf"trajectory 1, step 3: {plane} has shape"):
            persist.save_dataset(newer, f)
        assert sorted(tmp_path.iterdir()) == files
        assert f.read_bytes() == before

    def test_resaves_replace_the_whole_dataset(self, tmp_path):
        (tmp_path / "notes.txt").write_text("keep me")
        persist.save_dataset(lift_demos(3), tmp_path / "ds")
        newer = lift_demos(1, 5, "B", "press")
        fresh = persist.save_dataset(newer, tmp_path / "fresh").read_bytes()
        for _ in range(2):
            persist.save_dataset(newer, tmp_path / "ds")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["ds", "fresh", "notes.txt"]
            assert (tmp_path / "ds").read_bytes() == fresh
        assert (tmp_path / "notes.txt").read_text() == "keep me"

    def test_flipped_byte_fails_the_crc_naming_the_file(self, tmp_path):
        f = persist.save_dataset(lift_demos(2), tmp_path / "ds")
        raw = bytearray(f.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        f.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError, match=re.escape(f"CRC mismatch in dataset {f}")):
            persist.load_dataset(f)

    @pytest.mark.parametrize("rewrite", [
        lambda index: "{not json",
        lambda index: "[]",
        lambda index: json.dumps({k: v for k, v in index.items() if k != "trajectories"}),
        lambda index: json.dumps({**index, "image_hw": 16}),
        lambda index: json.dumps({**index, "trajectories": [1]}),
        lambda index: json.dumps({**index, "trajectories": [
            {k: v for k, v in rec.items() if k != "n_steps"} for rec in index["trajectories"]]}),
        lambda index: json.dumps({**index, "trajectories": [
            {**rec, "n_steps": float(rec["n_steps"])} for rec in index["trajectories"]]}),
        lambda index: json.dumps({**index, "trajectories": [
            *index["trajectories"], {**index["trajectories"][0], "n_steps": 0}]}),
        lambda index: json.dumps({**index, "trajectories": [
            {**rec, "seed": True} for rec in index["trajectories"]]}),
        lambda index: json.dumps({**index, "trajectories": [
            {**rec, "n_steps": True} for rec in index["trajectories"]]}),
    ], ids=["not-json", "not-an-object", "no-trajectories", "another-extent",
            "records-not-objects", "record-without-n_steps", "n_steps-not-an-int",
            "a-record-of-no-steps", "seed-bool", "n_steps-bool"])
    def test_corrupt_index_is_rejected_before_any_file_is_read(self, tmp_path, monkeypatch,
                                                               rewrite):
        # The header is the dataset's index; it must fail before any step is decoded.
        f = persist.save_dataset(lift_demos(1), tmp_path / "ds")
        rewrite_header(f, f, lambda text: rewrite(json.loads(text)).encode())
        monkeypatch.setattr(sim, "Observation", None)  # decoding a step would raise TypeError
        with pytest.raises(CorruptionError,
                           match=re.escape(f"unreadable dataset header in {f}")):
            persist.load_dataset(f)

    def test_a_trajectory_without_steps_is_refused_before_writing(self, tmp_path):
        data = lift_demos(2)
        data[1].steps = []
        with pytest.raises(ContractError, match="trajectory 1 has no steps"):
            persist.save_dataset(data, tmp_path / "ds")
        assert list(tmp_path.iterdir()) == []

    def test_missing_index(self, tmp_path):
        with pytest.raises(CorruptionError):
            persist.load_dataset(tmp_path / "nothing")

    def test_a_directory_is_no_dataset(self, tmp_path):
        (tmp_path / "ds").mkdir()
        (tmp_path / "ds" / "index.json").write_text("{}")
        with pytest.raises(CorruptionError, match="no dataset at"):
            persist.load_dataset(tmp_path / "ds")


SAVES = pytest.mark.parametrize("save", [
    lambda path: persist.save_checkpoint(small_model(), path),
    lambda path: persist.save_dataset(lift_demos(1), path),
    lambda path: persist.write_json(path, {"a": [1, 2]}),
], ids=["checkpoint", "dataset", "json"])

FRAMED = pytest.mark.parametrize("kind", ["checkpoint", "dataset"])


class Framed:
    """A small saved file and its loader."""

    def __init__(self, raw: bytes, load):
        self.raw, self.load = raw, load

    def __repr__(self):  # hypothesis prints the fixture; the bytes would flood it
        return f"Framed({len(self.raw)} bytes, {self.load.__name__})"


@pytest.fixture(scope="module")
def framed(tmp_path_factory):
    """kind -> a small saved file of that kind."""
    d = tmp_path_factory.mktemp("framed")
    return {
        "checkpoint": Framed(persist.save_checkpoint(small_model(), d / "ck").read_bytes(),
                             persist.load_checkpoint),
        "dataset": Framed(persist.save_dataset(lift_demos(1), d / "ds").read_bytes(),
                          persist.load_dataset),
    }


@FRAMED
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_single_byte_change_is_refused(framed, tmp_path_factory, kind, data):
    # The CRC covers the magic, the header and the payload. Header bytes are
    # a small share of the file, so half the draws land among them.
    f = framed[kind]
    at = data.draw(st.one_of(st.integers(0, header_span(f.raw)[1] - 1),
                             st.integers(0, len(f.raw) - 1)), label="at")
    changed = bytearray(f.raw)
    changed[at] ^= data.draw(st.integers(1, 255), label="xor")
    path = tmp_path_factory.getbasetemp() / f"changed-{kind}"
    path.write_bytes(changed)
    with pytest.raises(CorruptionError):
        f.load(path)


@FRAMED
def test_a_file_of_the_other_kind_is_bad_magic(framed, tmp_path, kind):
    other = "dataset" if kind == "checkpoint" else "checkpoint"
    path = tmp_path / "other"
    path.write_bytes(framed[other].raw)
    with pytest.raises(CorruptionError, match=f"bad magic in .*; not a {kind}"):
        framed[kind].load(path)


@pytest.mark.parametrize("kind, edit", [
    ("checkpoint", lambda h: {**h, "entries": h["entries"][:-1]}),
    ("dataset", lambda h: {**h, "trajectories": [
        {**rec, "n_steps": rec["n_steps"] + 1} for rec in h["trajectories"]]}),
], ids=["checkpoint", "dataset"])
def test_a_header_that_implies_another_payload_length_is_corruption(framed, tmp_path,
                                                                     kind, edit):
    # The CRC holds, but the header does not describe the payload.
    (tmp_path / "src").write_bytes(framed[kind].raw)
    rewrite_header(tmp_path / "src", tmp_path / "bad",
                   lambda text: json.dumps(edit(json.loads(text))).encode())
    with pytest.raises(CorruptionError, match=f"{kind} header in .* implies .* payload bytes"):
        framed[kind].load(tmp_path / "bad")


def test_a_json_write_whose_rename_fails_keeps_the_previous_file(tmp_path, monkeypatch):
    path = persist.write_json(tmp_path / "doc.json", {"b": 1, "a": [2]})
    before = path.read_bytes()
    assert before == b'{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        persist.write_json(path, {"a": 3})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


@SAVES
def test_a_save_fsyncs_the_file_then_its_directory(tmp_path, monkeypatch, save):
    synced = []  # (is a directory, target exists) per fsync
    real_fsync = os.fsync

    def fsync(fd):
        synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), (tmp_path / "out").exists()))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    save(tmp_path / "out")
    assert synced == [(False, False), (True, True)]


@SAVES
def test_a_save_over_a_directory_is_refused_before_writing(tmp_path, save):
    target = tmp_path / "out"
    target.mkdir()
    (target / "index.json").write_text("{}")
    (target / "traj_00000.bin").write_bytes(b"old")
    with pytest.raises(CompatibilityError, match=f"{re.escape(str(target))} is .*directory"):
        save(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert (target / "index.json").read_text() == "{}"
    assert (target / "traj_00000.bin").read_bytes() == b"old"
    assert sorted(p.name for p in target.iterdir()) == ["index.json", "traj_00000.bin"]


class TestMetrics:
    TABLE = SuccessTable((0.8, 0.6, 0.4, 0.2, 0.1), 2.1, 50, "ours", "ABC", "D", False)

    def rows(self, tmp_path):
        return [json.loads(line)
                for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]

    @pytest.mark.parametrize("label", ["a,b", '"quoted"', "two\nlines"],
                             ids=["comma", "quote", "newline"])
    def test_a_label_with_a_comma_or_quote_reads_back_as_one_field(self, tmp_path, label):
        persist.write_metrics(dataclasses.replace(self.TABLE, model_label=label), tmp_path)
        assert self.rows(tmp_path) == [{**self.TABLE.to_dict(), "model": label}]

    def test_enriched_label(self, tmp_path):
        persist.write_metrics(dataclasses.replace(self.TABLE, enriched=True), tmp_path)
        [row] = self.rows(tmp_path)
        assert row["enriched"] is True and row["test"] == "D"

    def test_appends_never_rewrite(self, tmp_path):
        persist.write_metrics(self.TABLE, tmp_path)
        first = (tmp_path / "metrics.jsonl").read_text()
        persist.write_metrics(self.TABLE, tmp_path)
        second = (tmp_path / "metrics.jsonl").read_text()
        assert second.startswith(first)
        assert second.count("\n") == 2

    def test_json_round_trip(self, tmp_path):
        persist.write_metrics(self.TABLE, tmp_path)
        persist.write_metrics(self.TABLE, tmp_path, {"horizon": 4})
        assert self.rows(tmp_path) == [self.TABLE.to_dict(),
                                       {**self.TABLE.to_dict(), "run": {"horizon": 4}}]
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.jsonl"]

    def test_chain_results_jsonl(self, tmp_path):
        results = [sim.ChainResult([True, False, False, False, False], 3, "D", 0)]
        persist.write_chain_results(results, tmp_path / "chains.jsonl", {"n_chains": 1})
        rec = json.loads((tmp_path / "chains.jsonl").read_text())
        assert rec == {"chain_id": 0, "seed": 3, "palette": "D",
                       "successes": [True, False, False, False, False],
                       "run": {"n_chains": 1}}
