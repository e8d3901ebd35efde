"""Every file minivla writes: checkpoints, datasets, JSON documents and logs.

Only this module writes files, each kind in one format. A whole file --
a framed checkpoint or dataset, or a JSON document (write_json) -- goes
to a sibling temporary file that is fsynced, renamed over the target and
followed by an fsync of the directory, so a failed write leaves the
previous file whole and a finished one survives a power loss. A write
whose target is a directory is refused with CompatibilityError before
anything is written. A log (metrics.jsonl, chains.jsonl) is JSON lines,
one key-sorted object per line and no header, and is only appended to;
appends never rewrite history.

Checkpoints and datasets share one framing (integers little-endian):

    magic   b"RFPX2" for a checkpoint, b"RFPD2" for a dataset
    u64     header length in bytes
    header  canonical JSON
    payload raw float32 values
    u32     CRC32 of every byte before it

The loaders check the framing in one place. The magic says what the file
is; any other is a CorruptionError. The CRC is checked next, before the
header is read, so a truncated file, trailing bytes and an edited header
or payload all fail as one CRC mismatch. A file whose CRC holds may
still come from another build, so the header's meaning is checked
after: the payload length it implies, and each loader's fields.

A checkpoint's header is {"entries": [...], "meta": {...}}, entries
sorted by name, each {name, shape, trainable} of a str, a list of ints
>= 0 and a bool, else a CorruptionError; the payload holds each
entry's values in that order, so an entry's place follows from the names
and shapes before it. Parameters are float64 in memory and float32 on
disk, so save->load round-trips exactly to f32 precision and
save->load->save is byte-identical. A parameter with a value that is not
finite in float32 (NaN, an infinity, or a float64 beyond the float32
range) is refused with NumericInputError before anything is written.

A dataset's header is its index: {"image_hw", "meta", "trajectories"},
one record per trajectory {instruction, family, palette, seed, variant,
n_steps}. The payload holds the trajectories in order, each step as its
frame planes and then the 7-float action row. The frame edge must equal
sim.IMAGE_HW, the one extent the cameras render; a header of any other
extent, one that is not valid JSON, or a record that lacks a field or
holds one of another type is rejected before any step is decoded, as
is a trajectory of no steps, which save_dataset refuses to write. A
path that is not a file, a directory among them, holds no dataset: a
CorruptionError.

A checkpoint's embedded model configuration is parsed by
config.parse_config, like a config file, so a key that names no
ModelConfig field is a CompatibilityError. Checkpoints whose embedded
config still holds a value that is now a constant (the frame edge, and
the encoder, fusion and LSTM depths: see the config module) are
therefore rejected, naming the key, and must be rebuilt with `minivla
train`. Every checkpoint holds its
model's depth statistics, which go through depth.DepthStats.from_dict,
like a stats file; missing, null or malformed ones are a CorruptionError.
Loading writes the stored values into the arrays of a new model in place.

Which parameters train is not a checkpoint's to say: the flags come from
policy.init_model under the embedded configuration, as for a new model.
A stored trainable flag is only checked against them, and a flag that
differs is a CompatibilityError.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import sim
from .analysis import SuccessTable
from .config import parse_config
from .depth import DepthStats
from .errors import (CompatibilityError, ConfigError, ContractError, CorruptionError,
                     NumericInputError, ValidationError)
from .policy import Model, init_model

MAGIC = b"RFPX2"
DATASET_MAGIC = b"RFPD2"

_KINDS = {MAGIC: "checkpoint", DATASET_MAGIC: "dataset"}


def _write_atomic(path: Path, chunks) -> None:
    """Write the byte chunks to a temporary file beside path, fsync it,
    rename it over path and fsync the directory; on any failure the
    temporary file is removed and path keeps its previous contents. A
    directory at path is left untouched: CompatibilityError is raised
    before anything is written."""
    if path.is_dir():
        raise CompatibilityError(f"{path} is a directory; remove it or write somewhere else")
    path.parent.mkdir(parents=True, exist_ok=True)
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


def write_json(path: str | Path, obj) -> Path:
    """Write obj to path as indented, key-sorted JSON, atomically."""
    path = Path(path)
    _write_atomic(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()])
    return path


@contextmanager
def _appending(path: Path):
    """A text file open for appending to the log at path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as f:
        yield f


# --- framing -------------------------------------------------------------------


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _frame(magic: bytes, header: dict, payload_chunks):
    """A framed file's bytes: magic, header length, canonical JSON header,
    the payload chunks, then the CRC32 of all of them, computed as they
    stream past."""
    header = _canonical_json(header)
    crc = 0
    for chunk in itertools.chain((magic, struct.pack("<Q", len(header)), header),
                                 payload_chunks):
        crc = zlib.crc32(chunk, crc)
        yield chunk
    yield struct.pack("<I", crc)


def _read_frame(raw: bytes, path, magic: bytes, payload_len):
    """(header, payload) of a framed file's bytes. Checks the magic, the
    CRC over every byte before it, that the header is JSON, and that the
    payload has exactly payload_len(header) bytes. payload_len holds the
    loader's own header checks; a ValueError, KeyError or TypeError from
    it is a CorruptionError."""
    kind = _KINDS[magic]
    if not raw.startswith(magic):
        raise CorruptionError(f"bad magic in {path}; not a {kind}")
    head = len(magic) + 8
    body = memoryview(raw)[:-4]
    if len(body) < head or zlib.crc32(body) != struct.unpack_from("<I", raw, len(body))[0]:
        raise CorruptionError(f"CRC mismatch in {kind} {path}")
    end = head + struct.unpack_from("<Q", raw, len(magic))[0]
    try:
        header = json.loads(bytes(body[head:end]))
        expected = payload_len(header)
    except (ValueError, KeyError, TypeError) as e:
        raise CorruptionError(f"unreadable {kind} header in {path}: {e!r}") from e
    payload = body[end:]
    if len(payload) != expected:
        raise CorruptionError(f"{kind} header in {path} implies {expected} payload bytes; "
                              f"the file holds {len(payload)}")
    return header, payload


# --- checkpoints ---------------------------------------------------------------


def save_checkpoint(model: Model, path: str | Path) -> Path:
    """Write a checkpoint; a parameter with a value that is not finite in
    float32 raises NumericInputError naming it, before anything is
    written."""
    path = Path(path)
    entries = []
    blobs = []
    with np.errstate(over="ignore"):  # an overflowing cast is refused below
        for name, tensor in model.params.items():  # lexicographic
            values = tensor.data.astype("<f4")
            if not np.isfinite(values).all():
                raise NumericInputError(f"checkpoint {path}: parameter {name} has a value "
                                        f"that is not finite in float32")
            entries.append({"name": name, "shape": list(values.shape),
                            "trainable": bool(tensor.requires_grad)})
            blobs.append(values.tobytes())
    header = {
        "entries": entries,
        "meta": {
            "model_config": dataclasses.asdict(model.cfg),
            "depth_stats": dataclasses.asdict(model.depth_stats),
        },
    }
    _write_atomic(path, _frame(MAGIC, header, blobs))
    return path


def _checkpoint_payload_len(header: dict) -> int:
    """The payload length a checkpoint header implies, after checking the
    header fields load_checkpoint reads: each entry an object of a str
    name, a shape of ints >= 0 and a bool trainable flag (a JSON bool is
    no int here, although Python makes it one)."""
    for e in header["entries"]:
        if not (isinstance(e, dict) and type(e.get("name")) is str
                and type(e.get("trainable")) is bool and type(e.get("shape")) is list
                and all(type(n) is int and n >= 0 for n in e["shape"])):
            raise TypeError(f"an entry is not a name, shape and trainable flag: {e!r}")
    if not isinstance(header.get("meta", {}), dict):
        raise TypeError(f"meta is a {type(header['meta']).__name__}, not an object")
    return sum(4 * math.prod(e["shape"]) for e in header["entries"])


def load_checkpoint(path: str | Path) -> Model:
    """Rebuild a model from a checkpoint; verifies the CRC, the embedded
    configuration and depth statistics, and that the stored parameter
    names, shapes and trainable flags are those the embedded
    configuration creates. Values are written into the model's arrays."""
    header, payload = _read_frame(Path(path).read_bytes(), path, MAGIC,
                                  _checkpoint_payload_len)
    meta = header.get("meta", {})
    try:
        cfg = parse_config(overrides={"model": meta.get("model_config")}).model
    except ConfigError as e:
        raise CompatibilityError(f"checkpoint {path} has an unusable model "
                                 f"config: {e}") from e
    try:
        stats = DepthStats.from_dict(meta.get("depth_stats"))
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
    offset = 0
    for name, tensor in model.params.items():  # the saved order
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
        arr = np.frombuffer(payload, dtype="<f4", count=tensor.data.size, offset=offset)
        np.copyto(tensor.data, arr.reshape(tensor.data.shape))
        offset += arr.nbytes
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


def save_dataset(trajectories: list[sim.Trajectory], path: str | Path,
                 meta: dict | None = None) -> Path:
    """Write a dataset as one file; a failed save leaves the previous one
    at path whole. Every trajectory must have a step, and every frame is
    checked against sim's frame contract, before anything is written."""
    for i, traj in enumerate(trajectories):
        if not traj.steps:
            raise ContractError(f"trajectory {i} has no steps")
        for t, (obs, _) in enumerate(traj.steps):
            sim.check_observation(obs, f"trajectory {i}, step {t}")
    path = Path(path)
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
                                for chunk in _trajectory_chunks(traj))))
    return path


# Field -> type of every trajectory record field load_dataset reads; the
# exact type, so a JSON bool is no int.
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
        bad = [key for key, kind in _RECORD_FIELDS.items() if type(rec.get(key)) is not kind]
        if bad or rec["n_steps"] < 1:
            raise TypeError(f"a trajectory record lacks a valid {bad or ['n_steps']}")
    return sum(rec["n_steps"] for rec in records) * _STEP_FLOATS * 4


def load_dataset(path: str | Path) -> list[sim.Trajectory]:
    path = Path(path)
    if not path.is_file():
        raise CorruptionError(f"no dataset at {path}")
    header, payload = _read_frame(path.read_bytes(), path, DATASET_MAGIC, _dataset_payload_len)
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


# --- logs ---------------------------------------------------------------------------


def write_metrics(table: SuccessTable, out_dir: str | Path, run: dict | None = None) -> None:
    """Append one evaluation row to metrics.jsonl: the table's fields,
    and under "run" the evaluation's settings when given."""
    row = table.to_dict()
    if run is not None:
        row["run"] = run
    with _appending(Path(out_dir) / "metrics.jsonl") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")


def write_chain_results(results: list[sim.ChainResult], path: str | Path, run: dict) -> None:
    """Append one line per chain to the log at path, each with the
    evaluation's settings under "run", so lines of several evaluations
    in one log stay apart."""
    with _appending(Path(path)) as f:
        for r in results:
            f.write(json.dumps({
                "chain_id": r.chain_id,
                "seed": r.seed,
                "palette": r.palette,
                "successes": list(map(bool, r.successes)),
                "run": run,
            }, sort_keys=True) + "\n")
