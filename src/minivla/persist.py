"""Binary checkpoints, the dataset container, and metrics files.

Checkpoints and datasets share one framing (integers little-endian):

    magic   b"RFPX1" for a checkpoint, b"RFPD1" for a dataset
    u64     header length in bytes
    header  canonical JSON
    payload raw float32 values
    u32     CRC32 of the payload

A checkpoint's header is {"format": 1, "entries": [...], "meta": {...}},
entries sorted by name, each {name, shape, dtype: "f32", offset,
trainable}; offsets ascend contiguously from 0 and each entry's slab sits
at its offset. Parameters are float64 in memory and float32 on disk, so
save->load round-trips exactly to f32 precision and save->load->save is
byte-identical.

A dataset's header is its index: {"image_hw", "meta", "trajectories"},
one record per trajectory {instruction, family, palette, seed, variant,
n_steps}. The payload holds the trajectories in order, each step as its
frame planes and then the 7-float action row. The frame edge must equal
sim.IMAGE_HW, the one extent the cameras render; a header of any other
extent, one that is not valid JSON, or a record that lacks a field is
rejected before any step is decoded. Datasets of the older layout, a
directory of index.json and one file per trajectory, are rejected and
must be regenerated with `minivla gen-data`.

Both loaders check the framing in one place: the magic, the header, the
exact payload length their header implies, and the CRC. Every save
writes a sibling temporary file, fsyncs it, renames it over the target
and fsyncs the directory, so a failed save leaves the previous file
whole and a finished one survives a power loss. A save whose target is
a directory (for a dataset, the older layout) is refused with
CompatibilityError before anything is written.
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

Which parameters train is not a checkpoint's to say: the flags come from
policy.init_model under the embedded configuration, as for a new model.
A stored trainable flag is only checked against them, and a flag that
differs is a CompatibilityError (the header is not under the CRC, so
this also catches a header edited by hand).
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
DATASET_MAGIC = b"RFPD1"
FORMAT_VERSION = 1

CSV_HEADER = "model,train,test,task1,task2,task3,task4,task5,avg\n"


def _write_atomic(path: Path, chunks, if_directory: str) -> None:
    """Write the byte chunks to a temporary file beside path, fsync it,
    rename it over path and fsync the directory; on any failure the
    temporary file is removed and path keeps its previous contents. A
    directory at path is left untouched: CompatibilityError
    "<path> is <if_directory>" is raised before anything is written."""
    if path.is_dir():
        raise CompatibilityError(f"{path} is {if_directory}")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# --- framing -------------------------------------------------------------------


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _frame(magic: bytes, header: dict, payload_chunks):
    """A framed file's bytes: magic, header length, canonical JSON header,
    the payload chunks, then the CRC32 computed as they stream past."""
    header = _canonical_json(header)
    yield magic
    yield struct.pack("<Q", len(header))
    yield header
    crc = 0
    for chunk in payload_chunks:
        crc = zlib.crc32(chunk, crc)
        yield chunk
    yield struct.pack("<I", crc)


def _read_frame(raw: bytes, path, magic: bytes, kind: str, payload_len):
    """(header, payload) of a framed file's bytes. Checks the magic, that
    the header is JSON, that the payload has exactly payload_len(header)
    bytes, and its CRC. payload_len holds the loader's own header checks;
    a ValueError, KeyError or TypeError from it is a CorruptionError."""
    head = len(magic) + 8
    if len(raw) < head:
        raise CorruptionError(f"{kind} {path} truncated: {len(raw)} bytes")
    if raw[:len(magic)] != magic:
        raise CorruptionError(f"bad magic in {path}; not a {kind}")
    (hlen,) = struct.unpack_from("<Q", raw, len(magic))
    if len(raw) < head + hlen:
        raise CorruptionError(f"{kind} {path} truncated inside its header")
    try:
        header = json.loads(raw[head:head + hlen])
        end = head + hlen + payload_len(header)
    except (ValueError, KeyError, TypeError) as e:
        raise CorruptionError(f"unreadable {kind} header in {path}: {e!r}") from e
    if len(raw) < end + 4:
        raise CorruptionError(f"{kind} {path} truncated: {len(raw)} of {end + 4} bytes")
    if len(raw) > end + 4:
        raise CorruptionError(f"trailing bytes after the checksum in {path}")
    payload = memoryview(raw)[head + hlen:end]
    if zlib.crc32(payload) != struct.unpack_from("<I", raw, end)[0]:
        raise CorruptionError(f"payload CRC mismatch in {path}")
    return header, payload


# --- checkpoints ---------------------------------------------------------------


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
    header = {
        "format": FORMAT_VERSION,
        "entries": entries,
        "meta": {
            "model_config": dataclasses.asdict(model.cfg),
            "depth_stats": dataclasses.asdict(model.depth_stats)
            if model.depth_stats else None,
        },
    }
    _write_atomic(path, _frame(MAGIC, header, blobs),
                  "a directory; remove it or write the checkpoint somewhere else")
    return path


def _checkpoint_payload_len(header: dict) -> int:
    """The payload length a checkpoint header implies, after checking the
    header fields load_checkpoint reads."""
    for e in header["entries"]:
        missing = [key for key in ("name", "trainable") if key not in e]
        if missing:
            raise KeyError(f"entry without {missing[0]!r}")
    if not isinstance(header.get("meta", {}), dict):
        raise TypeError(f"meta is a {type(header['meta']).__name__}, not an object")
    return max((e["offset"] + 4 * int(np.prod(e["shape"] or [1]))
                for e in header["entries"]), default=0)


def load_checkpoint(path: str | Path) -> Model:
    """Rebuild a model from a checkpoint; verifies the CRC, the embedded
    configuration and depth statistics, and that the stored parameter
    names, shapes and trainable flags are those the embedded
    configuration creates."""
    header, payload = _read_frame(Path(path).read_bytes(), path, MAGIC, "checkpoint",
                                  _checkpoint_payload_len)
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
        if e["trainable"] is not tensor.requires_grad:
            raise CompatibilityError(
                f"trainable flag mismatch for {name}: stored {e['trainable']}, "
                f"model {tensor.requires_grad}"
            )
        count = int(np.prod(e["shape"] or [1]))
        arr = np.frombuffer(payload, dtype="<f4", count=count,
                            offset=e["offset"]).astype(np.float64)
        tensor.data = arr.reshape(tensor.data.shape)
    return model


# --- dataset container -----------------------------------------------------------

# float32 values per step: both RGB frames, both depth frames, the action row.
_STEP_FLOATS = 2 * 3 * sim.IMAGE_HW ** 2 + 2 * sim.IMAGE_HW ** 2 + 7


def _trajectory_chunks(traj: sim.Trajectory):
    """A trajectory's payload bytes, step by step: both RGB frames as
    planes, both depth frames, then the 7-float action row."""
    for obs, action in traj.steps:
        yield np.ascontiguousarray(obs.rgb_static.transpose(2, 0, 1), dtype="<f4").tobytes()
        yield np.ascontiguousarray(obs.rgb_gripper.transpose(2, 0, 1), dtype="<f4").tobytes()
        yield np.asarray(obs.depth_static, dtype="<f4").tobytes()
        yield np.asarray(obs.depth_gripper, dtype="<f4").tobytes()
        row = np.empty(7, dtype="<f4")
        row[:6] = action.pose
        row[6] = 1.0 if action.gripper_closed else 0.0
        yield row.tobytes()


# A directory where a dataset file belongs.
_OLD_LAYOUT = "a dataset directory of an older layout"


def save_dataset(trajectories: list[sim.Trajectory], path: str | Path,
                 meta: dict | None = None) -> Path:
    """Write a dataset as one file; a failed save leaves the previous one
    at path whole. Every frame is checked against sim's frame contract
    first."""
    for i, traj in enumerate(trajectories):
        for t, (obs, _) in enumerate(traj.steps):
            sim.check_observation(obs, f"trajectory {i}, step {t}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "image_hw": sim.IMAGE_HW,
        "meta": meta or {},
        "trajectories": [{
            "instruction": traj.instruction,
            "family": traj.family,
            "palette": traj.palette,
            "seed": traj.seed,
            "variant": traj.variant,
            "n_steps": len(traj.steps),
        } for traj in trajectories],
    }
    _write_atomic(path, _frame(DATASET_MAGIC, header,
                               (chunk for traj in trajectories
                                for chunk in _trajectory_chunks(traj))),
                  f"{_OLD_LAYOUT}; remove it or write the dataset somewhere else")
    return path


# Field -> type of every trajectory record field load_dataset reads.
_RECORD_FIELDS = {"instruction": str, "family": str, "palette": str, "seed": int,
                  "variant": str, "n_steps": int}


def _dataset_payload_len(header: dict) -> int:
    """The payload length a dataset header implies, after checking that it
    is of this build's frame edge and that every record carries the fields
    load_dataset reads, with their types."""
    hw, records = header["image_hw"], header["trajectories"]
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise TypeError("trajectories is not a list of records")
    if hw != sim.IMAGE_HW:
        raise ValueError(f"image_hw is {hw}; this build renders only "
                         f"{sim.IMAGE_HW}-pixel frames")
    for rec in records:
        bad = [key for key, kind in _RECORD_FIELDS.items() if not isinstance(rec.get(key), kind)]
        if bad or rec["n_steps"] < 0:
            raise TypeError(f"a trajectory record lacks a valid {bad or ['n_steps']}")
    return sum(rec["n_steps"] for rec in records) * _STEP_FLOATS * 4


def load_dataset(path: str | Path) -> list[sim.Trajectory]:
    path = Path(path)
    if path.is_dir():
        raise CompatibilityError(f"{path} is {_OLD_LAYOUT}; "
                                 f"regenerate it with `minivla gen-data`")
    if not path.is_file():
        raise CorruptionError(f"no dataset at {path}")
    header, payload = _read_frame(path.read_bytes(), path, DATASET_MAGIC, "dataset",
                                  _dataset_payload_len)
    hw = sim.IMAGE_HW
    flat = np.frombuffer(payload, dtype="<f4")
    pos = 0

    def take(n):
        nonlocal pos
        chunk = flat[pos:pos + n]
        pos += n
        return chunk

    out = []
    for rec in header["trajectories"]:
        steps = []
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
                                  rec["seed"], steps, rec["variant"]))
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
