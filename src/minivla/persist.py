"""Binary checkpoints, the dataset container, and metrics files.

Checkpoint layout (all integers little-endian):

    magic   b"RFPX1"
    u64     header length in bytes
    header  canonical JSON: {"format": 1, "entries": [...], "meta": {...}}
            entries sorted by name, each {name, shape, dtype: "f32",
            offset, trainable}; offsets ascend contiguously from 0
    payload raw float32 values, one slab per entry at its offset
    u32     CRC32 of the payload

Parameters are float64 in memory and float32 on disk, so save->load
round-trips exactly to f32 precision and save->load->save is
byte-identical. Datasets are a directory with an index.json plus one
raw-f32 binary per trajectory (frame planes, then the 7-float action
row per step); the index stores the frame edge, each binary's length in
steps and its CRC32, and loading verifies all three. The frame edge must
equal sim.IMAGE_HW, the one extent the cameras render; an index of any
other extent, or one that is not valid JSON or lacks a field, is
rejected before any trajectory file is read. Checkpoints, trajectory
files and the index are each written to a sibling temporary file and
renamed over the target, so a failed write leaves the previous file
intact. A dataset save writes its trajectory files under names the
current index does not list and the index last, then deletes the files
only the old index listed, so a failed save leaves the previous dataset
whole. No fsync is done, so a power loss can still lose the newest save.
Metrics append to a CSV with the evaluation-table column layout and to a
JSONL stream; appends never rewrite history.

A checkpoint's embedded model configuration is parsed by
config.parse_config, like a config file, so a key that names no
ModelConfig field is a CompatibilityError. Checkpoints whose embedded
config still holds a value that is now a constant (the frame edge, for
one: see the config module) are therefore rejected, naming the key, and
must be rebuilt with `minivla train`. Its depth statistics go through
depth.DepthStats.from_dict, like a stats file; a header whose statistics
fail that check is a CorruptionError.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from . import sim
from .analysis import SuccessTable
from .config import parse_config
from .depth import DepthStats
from .errors import CompatibilityError, ConfigError, CorruptionError, ValidationError
from .policy import Model, init_model
from .training import TrainReport

MAGIC = b"RFPX1"
FORMAT_VERSION = 1
DATASET_VERSION = 2  # version 1 stored no CRC32 per trajectory file

CSV_HEADER = "model,train,test,task1,task2,task3,task4,task5,avg\n"


def _write_atomic(path: Path, chunks) -> None:
    """Write the byte chunks to a temporary file beside path, then rename it
    over path; on any failure the temporary file is removed and path keeps
    its previous contents."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# --- checkpoints ---------------------------------------------------------------


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def save_checkpoint(model: Model, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    blobs = []
    offset = 0
    for name, tensor in model.params.items():  # lexicographic
        blob = tensor.data.astype("<f4").tobytes()
        entries.append({
            "name": name,
            "shape": list(tensor.data.shape),
            "dtype": "f32",
            "offset": offset,
            "trainable": bool(tensor.requires_grad),
        })
        blobs.append(blob)
        offset += len(blob)
    payload = b"".join(blobs)
    header = _canonical_json({
        "format": FORMAT_VERSION,
        "entries": entries,
        "meta": {
            "model_config": dataclasses.asdict(model.cfg),
            "depth_stats": dataclasses.asdict(model.depth_stats)
            if model.depth_stats else None,
        },
    })
    _write_atomic(path, [MAGIC, struct.pack("<Q", len(header)), header, payload,
                         struct.pack("<I", zlib.crc32(payload))])
    return path


def _parse_checkpoint(raw: bytes, path) -> tuple[dict, bytes]:
    """(header, payload) of a checkpoint's bytes, after checking the magic,
    the header fields load_checkpoint reads, the exact file length and the
    payload CRC."""
    head = len(MAGIC) + 8
    if len(raw) < head:
        raise CorruptionError(f"checkpoint {path} truncated: {len(raw)} bytes")
    if raw[:len(MAGIC)] != MAGIC:
        raise CorruptionError(f"bad magic in {path}; not a checkpoint")
    (hlen,) = struct.unpack_from("<Q", raw, len(MAGIC))
    if len(raw) < head + hlen:
        raise CorruptionError(f"checkpoint {path} truncated inside its header")
    try:
        header = json.loads(raw[head:head + hlen])
        payload_len = max((e["offset"] + 4 * int(np.prod(e["shape"] or [1]))
                           for e in header["entries"]), default=0)
        for e in header["entries"]:
            missing = [key for key in ("name", "trainable") if key not in e]
            if missing:
                raise KeyError(f"entry without {missing[0]!r}")
        if not isinstance(header.get("meta", {}), dict):
            raise TypeError(f"meta is a {type(header['meta']).__name__}, not an object")
    except (ValueError, KeyError, TypeError) as e:
        raise CorruptionError(f"unreadable checkpoint header in {path}: {e!r}") from e
    end = head + hlen + payload_len
    if len(raw) < end + 4:
        raise CorruptionError(f"checkpoint {path} truncated: {len(raw)} of {end + 4} bytes")
    if len(raw) > end + 4:
        raise CorruptionError(f"trailing bytes after the checksum in {path}")
    payload = raw[head + hlen:end]
    if zlib.crc32(payload) != struct.unpack_from("<I", raw, end)[0]:
        raise CorruptionError(f"payload CRC mismatch in {path}")
    return header, payload


def read_checkpoint_header(path: str | Path) -> dict:
    return _parse_checkpoint(Path(path).read_bytes(), path)[0]


def load_checkpoint(path: str | Path) -> Model:
    """Rebuild a model from a checkpoint; verifies the CRC, the embedded
    configuration and depth statistics, and that the stored parameter
    names are those the embedded configuration creates."""
    header, payload = _parse_checkpoint(Path(path).read_bytes(), path)
    meta = header.get("meta", {})
    try:
        cfg = parse_config(overrides={"model": meta.get("model_config")}).model
    except ConfigError as e:
        raise CompatibilityError(f"checkpoint {path} has an unusable model "
                                 f"config: {e}") from e
    try:
        stats = (None if meta.get("depth_stats") is None
                 else DepthStats.from_dict(meta["depth_stats"]))
    except ValidationError as e:
        raise CorruptionError(f"checkpoint {path} has unusable depth statistics: {e}") from e
    model = init_model(cfg, stats)

    stored = {e["name"]: e for e in header["entries"]}
    model_names = set(model.params.names())
    if set(stored) != model_names:
        missing = sorted(model_names - set(stored))
        extra = sorted(set(stored) - model_names)
        prefix = min(missing + extra).rsplit(".", 1)[0] + "."
        raise CompatibilityError(
            f"checkpoint does not match the model config: prefix {prefix!r} "
            f"(missing {missing[:3]}, unexpected {extra[:3]})"
        )
    for name, tensor in model.params.items():
        e = stored[name]
        if list(tensor.data.shape) != e["shape"]:
            raise CompatibilityError(
                f"shape mismatch for {name}: stored {e['shape']}, model {list(tensor.data.shape)}"
            )
        count = int(np.prod(e["shape"] or [1]))
        arr = np.frombuffer(payload, dtype="<f4", count=count,
                            offset=e["offset"]).astype(np.float64)
        tensor.data = arr.reshape(tensor.data.shape)
        tensor.requires_grad = bool(e["trainable"])
    return model


# --- dataset container -----------------------------------------------------------


def _traj_filename(i: int, generation: int = 0) -> str:
    return f"traj_{i:05d}.bin" if generation == 0 else f"traj_{i:05d}_{generation}.bin"


def _trajectory_chunks(traj: sim.Trajectory):
    """A trajectory file's bytes, step by step: both RGB frames as planes,
    both depth frames, then the 7-float action row."""
    for obs, action in traj.steps:
        yield np.ascontiguousarray(obs.rgb_static.transpose(2, 0, 1), dtype="<f4").tobytes()
        yield np.ascontiguousarray(obs.rgb_gripper.transpose(2, 0, 1), dtype="<f4").tobytes()
        yield np.asarray(obs.depth_static, dtype="<f4").tobytes()
        yield np.asarray(obs.depth_gripper, dtype="<f4").tobytes()
        row = np.empty(7, dtype="<f4")
        row[:6] = action.pose
        row[6] = 1.0 if action.gripper_closed else 0.0
        yield row.tobytes()


def _with_crc(chunks, record: dict):
    """Pass the byte chunks through, then store their CRC32 in record["crc32"]."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
        yield chunk
    record["crc32"] = crc


def _listed_files(out_dir: Path) -> set[str]:
    """The trajectory files the dataset in out_dir lists; none without a
    readable index, since then there is no dataset to keep."""
    try:
        index = json.loads((out_dir / "index.json").read_text())
        return {rec["file"] for rec in index["trajectories"]}
    except (OSError, ValueError, KeyError, TypeError):
        return set()


def save_dataset(trajectories: list[sim.Trajectory], out_dir: str | Path,
                 meta: dict | None = None) -> Path:
    """Write a dataset; a failed save leaves the previous one in out_dir whole.

    The trajectory files take names the current index does not list, and
    the index, written last, is what switches to the new dataset. Every
    frame is checked against sim's frame contract first.
    """
    for i, traj in enumerate(trajectories):
        for t, (obs, _) in enumerate(traj.steps):
            sim.check_observation(obs, f"trajectory {i}, step {t}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    old_files = _listed_files(out_dir)
    generation = 0
    while any(_traj_filename(i, generation) in old_files for i in range(len(trajectories))):
        generation += 1
    index = {
        "version": DATASET_VERSION,
        "image_hw": sim.IMAGE_HW,
        "meta": meta or {},
        "trajectories": [],
    }
    written = []
    try:
        for i, traj in enumerate(trajectories):
            fname = _traj_filename(i, generation)
            record = {
                "file": fname,
                "instruction": traj.instruction,
                "family": traj.family,
                "palette": traj.palette,
                "seed": traj.seed,
                "variant": traj.variant,
                "n_steps": len(traj.steps),
            }
            _write_atomic(out_dir / fname, _with_crc(_trajectory_chunks(traj), record))
            written.append(fname)
            index["trajectories"].append(record)
        _write_atomic(out_dir / "index.json",
                      [(json.dumps(index, indent=2, sort_keys=True) + "\n").encode()])
    except BaseException:
        for fname in written:
            (out_dir / fname).unlink(missing_ok=True)
        raise
    for fname in old_files:  # now unlisted; only plain trajectory names in out_dir
        if fname.startswith("traj_") and Path(fname).name == fname:
            (out_dir / fname).unlink(missing_ok=True)
    return out_dir


# Field -> type of every trajectory record field load_dataset reads.
_RECORD_FIELDS = {"file": str, "instruction": str, "family": str, "palette": str,
                  "seed": int, "n_steps": int, "crc32": int}


def _read_index(index_path: Path) -> list[dict]:
    """The trajectory records of a dataset index. Raises CorruptionError
    unless it is a JSON object of this build's frame edge whose records
    all carry the fields load_dataset reads, with their types."""
    try:
        index = json.loads(index_path.read_text())
        hw, records = index["image_hw"], index["trajectories"]
    except (ValueError, KeyError, TypeError) as e:
        raise CorruptionError(f"{index_path} is not a readable dataset index: {e!r}") from e
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise CorruptionError(f"{index_path}: trajectories is not a list of records")
    if hw != sim.IMAGE_HW:
        raise CorruptionError(f"{index_path} holds {hw}-pixel frames; this build "
                              f"renders only {sim.IMAGE_HW}-pixel frames")
    for rec in records:
        if "crc32" not in rec:
            raise CorruptionError(
                f"{index_path} stores no CRC32 for {rec.get('file')} (dataset version "
                f"{index.get('version')}); a dataset without CRCs cannot be verified, "
                f"so regenerate it"
            )
        bad = [key for key, kind in _RECORD_FIELDS.items() if not isinstance(rec.get(key), kind)]
        if bad:
            raise CorruptionError(f"{index_path}: a trajectory record lacks a valid {bad}")
    return records


def load_dataset(in_dir: str | Path) -> list[sim.Trajectory]:
    in_dir = Path(in_dir)
    index_path = in_dir / "index.json"
    if not index_path.exists():
        raise CorruptionError(f"no index.json under {in_dir}")
    hw = sim.IMAGE_HW
    step_floats = 2 * 3 * hw * hw + 2 * hw * hw + 7
    out = []
    for rec in _read_index(index_path):
        raw = (in_dir / rec["file"]).read_bytes()
        expect = rec["n_steps"] * step_floats * 4
        if len(raw) != expect:
            raise CorruptionError(
                f"{rec['file']}: {len(raw)} bytes, expected {expect}"
            )
        if zlib.crc32(raw) != rec["crc32"]:
            raise CorruptionError(f"{rec['file']}: CRC32 mismatch, the file is corrupt")
        flat = np.frombuffer(raw, dtype="<f4")
        steps = []
        pos = 0

        def take(n):
            nonlocal pos
            chunk = flat[pos:pos + n]
            pos += n
            return chunk

        for _ in range(rec["n_steps"]):
            rgb_s = take(3 * hw * hw).reshape(3, hw, hw).transpose(1, 2, 0).copy()
            rgb_g = take(3 * hw * hw).reshape(3, hw, hw).transpose(1, 2, 0).copy()
            d_s = take(hw * hw).reshape(hw, hw).copy()
            d_g = take(hw * hw).reshape(hw, hw).copy()
            row = take(7)
            obs = sim.Observation(rgb_s, rgb_g, d_s, d_g)
            action = sim.Action(row[:6].astype(np.float64), bool(row[6] > 0.5))
            steps.append((obs, action))
        out.append(sim.Trajectory(rec["instruction"], rec["family"], rec["palette"],
                                  rec["seed"], steps, rec.get("variant", "standard")))
    return out


def dataset_depth_frames(trajectories: list[sim.Trajectory]):
    """Every depth frame of both cameras, for statistics computation."""
    for traj in trajectories:
        for obs, _ in traj.steps:
            yield np.asarray(obs.depth_static, dtype=np.float64)
            yield np.asarray(obs.depth_gripper, dtype=np.float64)


# --- metrics -----------------------------------------------------------------------


def write_metrics(table: SuccessTable, out_dir: str | Path) -> None:
    """Append one evaluation row to metrics.csv and metrics.jsonl."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "metrics.csv"
    new = not csv_path.exists()
    with open(csv_path, "a") as f:
        if new:
            f.write(CSV_HEADER)
        r = table.rates
        test = f"{table.test_split}(Enriched)" if table.enriched else table.test_split
        f.write(f"{table.model_label},{table.train_split},{test},"
                f"{r[0]:.6g},{r[1]:.6g},{r[2]:.6g},{r[3]:.6g},{r[4]:.6g},"
                f"{table.avg:.6g}\n")
    with open(out_dir / "metrics.jsonl", "a") as f:
        f.write(json.dumps(table.to_dict(), sort_keys=True) + "\n")


def read_metrics_jsonl(path: str | Path) -> list[SuccessTable]:
    tables = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            tables.append(SuccessTable.from_dict(json.loads(line)))
    return tables


def write_chain_results(results: list[sim.ChainResult], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as f:
        for r in results:
            f.write(json.dumps({
                "chain_id": r.chain_id,
                "seed": r.seed,
                "palette": r.palette,
                "successes": list(map(bool, r.successes)),
            }, sort_keys=True) + "\n")


def write_train_log(report: TrainReport, out_dir: str | Path) -> None:
    """Training curve with wall time; kept separate from the metrics files
    because timings are not reproducible."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log = out_dir / "train_log.csv"
    new = not log.exists()
    with open(log, "a") as f:
        if new:
            f.write("epoch,loss,mse,bce,seconds\n")
        for e in report.epochs:
            f.write(f"{e.epoch},{e.loss:.10g},{e.mse:.10g},{e.bce:.10g},{e.seconds:.3f}\n")
    summary = {
        "epochs": len(report.epochs),
        "loss": [e.loss for e in report.epochs],
        "mse": [e.mse for e in report.epochs],
        "bce": [e.bce for e in report.epochs],
    }
    (out_dir / "train_summary.json").write_text(
        json.dumps(summary, sort_keys=True) + "\n")
