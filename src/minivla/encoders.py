"""Frozen patch encoders and the latent-query resampler.

One shared frozen patch transformer (random but seed-fixed, standing in
for a pretrained backbone) encodes both RGB frames and replicated
standardized depth frames. Because its weights never receive gradients,
the whole encoder runs as plain numpy; the trainable resampler is where
the autodiff tape starts.

vit_encode_pair runs it on T steps of all four camera slots against one
memo, for a rollout step (T = 1) and a whole dataset alike, and alone
decides reuse, writes the memo, forms batches and starts threads. The
memo keeps, per camera slot, the last frame each stream encoded there,
with its tokens; a stream is one model's sequence of calls. A model
alone is the one stream of its memo, so it holds one entry per slot.
Models with equal frozen weights may share one memo (see
policy.share_frame_memo), as paired ablation arms stepped in lockstep
do. A frame byte-equal to the previous frame of its slot, or at a
call's first step to any stream's entry for the slot (its own first),
reuses that frame's tokens. That is exact because tokens depend only on
the frame and the frozen weights, which every stream of a memo shares.
The other frames are encoded in batches of up to FRAMES_PER_JOB frames
of one slot, bitwise equal to each frame encoded alone; only a call
with at least two full batches starts helper threads, which end before
it returns. A failed call leaves the memo as it was.

The resampler holds K learnable latent query tokens and compresses an
N-token sequence to K tokens via single-head scaled dot-product
attention, so its output is invariant to input-token order.
policy.fused_tokens concatenates the RGB and depth resamples, RGB first.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from . import numerics as nm
from .errors import DimensionError
from .numerics import Tensor

Array = np.ndarray
# Camera slot -> stream -> (the last frame that stream encoded in the slot, its tokens).
FrameMemo = dict[int, dict[int, tuple[Array, Array]]]


# --- frozen patch transformer (numpy only) -----------------------------------


def pos_band(d: int) -> int:
    """Width of the positional channel band at the top of each token."""
    return max(d // 4, 2)


def init_vit_arrays(image_hw: int, patch: int, d: int, blocks: int,
                    rng: np.random.Generator) -> dict[str, Array]:
    in_dim = 3 * patch * patch
    n_tokens = (image_hw // patch) ** 2
    pd = pos_band(d)
    arrays: dict[str, Array] = {
        # Content occupies the lower channels, position the reserved top
        # band. Keeping the bands separate lets attention select by
        # position without content interference (and vice versa). The
        # positional table covers both camera slots, so a token's
        # embedding identifies (camera, patch), not just the patch.
        "patch_proj": rng.normal(0.0, in_dim ** -0.5, size=(in_dim, d - pd)),
        "pos_embed": rng.normal(0.0, 1.0, size=(2 * n_tokens, pd)),
    }
    for b in range(blocks):
        arrays[f"block{b}.wq"] = rng.normal(0.0, d ** -0.5, size=(d, d))
        arrays[f"block{b}.wk"] = rng.normal(0.0, d ** -0.5, size=(d, d))
        arrays[f"block{b}.wv"] = rng.normal(0.0, d ** -0.5, size=(d, d))
        arrays[f"block{b}.mlp_w1"] = rng.normal(0.0, d ** -0.5, size=(d, 4 * d))
        arrays[f"block{b}.mlp_b1"] = np.zeros(4 * d)
        # Half-scale output projection keeps the frozen blocks close to
        # identity, so patch identity and position survive the mixing.
        arrays[f"block{b}.mlp_w2"] = rng.normal(0.0, 0.5 * (4 * d) ** -0.5, size=(4 * d, d))
        arrays[f"block{b}.mlp_b2"] = np.zeros(d)
    return arrays


def patchify(img, patch: int, proj: Array, pos: Array) -> Array:
    """Non-overlapping patches, flattened, projected, with the positional
    embedding in the reserved top channel band.

    img is one (H, W, 3) frame, (N, d) tokens out, or a batch of frames
    (B, H, W, 3), (B, N, d) tokens out.
    """
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim not in (3, 4) or arr.shape[-1] != 3:
        raise DimensionError(
            f"patchify expects an (H, W, 3) image or a batch of them, got {arr.shape}")
    *lead, h, w, _ = arr.shape
    if h % patch or w % patch:
        raise DimensionError(f"image extents {h}x{w} are not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    flat = (arr.reshape(*lead, gh, patch, gw, patch, 3)
            .swapaxes(-4, -3)
            .reshape(*lead, gh * gw, 3 * patch * patch))
    if flat.shape[-1] != proj.shape[0]:
        raise DimensionError(
            f"patch width {flat.shape[-1]} does not match projection {proj.shape}"
        )
    if pos.shape[0] != gh * gw:
        raise DimensionError(
            f"positional rows {pos.shape[0]} do not match {gh * gw} patches"
        )
    return np.concatenate([flat @ proj, np.broadcast_to(pos, (*lead, *pos.shape))],
                          axis=-1)


# The frozen forward updates its own temporaries in place: fewer arrays
# allocated per frame, and the same elementwise ops in the same order, so
# the same bits.


def _np_softmax_rows_in_place(x: Array) -> Array:
    """Softmax over the last axis, computed in x."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _np_attention(q: Array, k: Array, v: Array) -> Array:
    scores = q @ k.swapaxes(-1, -2)
    scores /= np.sqrt(q.shape[-1])
    return _np_softmax_rows_in_place(scores) @ v


def _np_block(x: Array, vit: dict[str, Array], b: int) -> Array:
    att = _np_attention(x @ vit[f"block{b}.wq"], x @ vit[f"block{b}.wk"],
                        x @ vit[f"block{b}.wv"])
    h = att @ vit[f"block{b}.mlp_w1"]
    h += vit[f"block{b}.mlp_b1"]
    np.tanh(h, out=h)
    out = h @ vit[f"block{b}.mlp_w2"]
    out += vit[f"block{b}.mlp_b2"]
    out += x
    return out


def vit_encode_image(img, vit: dict[str, Array], patch: int, blocks: int,
                     camera: int = 0) -> Array:
    """Frozen tokens of one (H, W, 3) frame, (N, d), or of a batch of
    frames from one camera slot, (B, H, W, 3) -> (B, N, d).

    A batch runs every numpy op once over all B frames: each matmul is one
    BLAS call per frame on that frame's operands, and the softmax, tanh
    and sums work along rows, so every frame's tokens are bitwise those of
    encoding it alone. Batches make each op longer, which lets frames on
    several threads overlap (numpy releases the GIL inside each op).
    """
    pos = vit["pos_embed"]
    n = pos.shape[0] // 2
    x = patchify(img, patch, vit["patch_proj"], pos[camera * n:(camera + 1) * n])
    for b in range(blocks):
        x = _np_block(x, vit, b)
    return x


def vit_encode_pair(slots, vit: dict[str, Array], patch: int, blocks: int,
                    memo: FrameMemo, stream: int = 0) -> Array:
    """Frozen tokens of T steps of S camera slots, (T, S·N, d): slot s gives
    tokens s·N to (s + 1)·N of each step and is seen by camera s % 2, so a
    policy step passes RGB static, RGB gripper, depth static, depth gripper.

    Each slot holds T frames, as a list or a (T, H, W, 3) array. A frame
    byte-equal to the previous frame of its slot copies that frame's
    tokens; before step 0, the previous frame is the first memo entry of
    the slot that matches, looking at this stream's entry first and then
    at the other streams' (see _same_frame). The rest are encoded (see
    _run_jobs). Only then does this stream's entry of each slot take its
    last frame and that frame's tokens: copies if any step of the slot was
    encoded, else the entry step 0 matched, shared, not copied.
    """
    slots = [[np.asarray(f) for f in frames] for frames in slots]
    lengths = [len(frames) for frames in slots]
    if len(set(lengths)) > 1:
        raise DimensionError(f"camera slots hold {lengths} frames")
    shapes = {frame.shape for frames in slots for frame in frames}
    if len(shapes) > 1:
        raise DimensionError(f"camera frames differ in extent: {sorted(shapes)}")
    pos = vit["pos_embed"]
    n = pos.shape[0] // 2  # tokens per frame
    out = np.empty((len(slots[0]), len(slots) * n, vit["patch_proj"].shape[1] + pos.shape[1]))
    fresh = [[] for _ in slots]   # per slot: the steps to encode
    reused = [[] for _ in slots]  # and the steps that repeat
    matched = [None] * len(slots)  # per slot: the memo entry step 0 repeats
    for slot, frames in enumerate(slots):
        for t, frame in enumerate(frames):
            if t:
                hit = _same_frame(frames[t - 1], frame)
            else:
                matched[slot] = _matching_entry(memo.get(slot, {}), stream, frame)
                hit = matched[slot] is not None
            (reused if hit else fresh)[slot].append(t)
    jobs = [(slot, steps[i:i + FRAMES_PER_JOB])
            for slot, steps in enumerate(fresh)
            for i in range(0, len(steps), FRAMES_PER_JOB)]

    def encode(job):
        slot, steps = job
        frames = slots[slot]
        batch = (frames[steps[0]][None] if len(steps) == 1
                 else np.stack([frames[t] for t in steps]))
        out[steps, slot * n:(slot + 1) * n] = vit_encode_image(
            batch, vit, patch, blocks, camera=slot % 2)

    _run_jobs(jobs, encode)
    for slot, (steps, repeats) in enumerate(zip(fresh, reused)):
        rows = slice(slot * n, (slot + 1) * n)
        for t in repeats:  # in step order, so step t - 1 is filled already
            out[t, rows] = out[t - 1, rows] if t else matched[slot][1]
        if steps:
            memo.setdefault(slot, {})[stream] = (slots[slot][-1].copy(), out[-1, rows].copy())
        elif matched[slot] is not None:
            memo[slot][stream] = matched[slot]
    return out


def _matching_entry(entries: dict[int, tuple[Array, Array]], stream: int,
                    frame: Array) -> tuple[Array, Array] | None:
    """The first (frame, tokens) entry whose frame is frame's bytes: the
    stream's own entry first, then the other streams' in memo order."""
    own = entries.get(stream)
    if own is not None and _same_frame(own[0], frame):
        return own
    for entry in entries.values():
        if entry is not own and _same_frame(entry[0], frame):
            return entry
    return None


# Unsigned integers by item size: a frame viewed as these compares its bytes.
_BYTE_VIEWS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _same_frame(prev: Array, frame: Array) -> bool:
    """The reuse rule: the same dtype, shape and bytes, so -0.0 and 0.0
    differ and NaN payloads count. Frames of 1, 2, 4 or 8-byte items are
    compared in place as unsigned integers of their item size, whatever
    their strides; other item sizes compare their bytes as copies."""
    if prev.dtype != frame.dtype or prev.shape != frame.shape:
        return False
    view = _BYTE_VIEWS.get(frame.itemsize)
    if view is None:
        return prev.tobytes() == frame.tobytes()
    return bool((prev.view(view) == frame.view(view)).all())


# Frames per encoder call: long enough numpy ops that two threads overlap
# instead of trading the GIL, short enough to balance the threads' shares.
FRAMES_PER_JOB = 4


def _run_jobs(jobs: list, work) -> None:
    """Run work(job) for every (slot, steps) job: on the calling thread,
    and with at least two full batches also on helper threads, one thread
    per usable CPU in all. numpy releases the GIL inside BLAS and ufunc
    loops, so the threads overlap. The caller works instead of waiting;
    the helpers end before this returns, and a job's exception reaches
    the caller as raised.
    """
    full = sum(len(steps) == FRAMES_PER_JOB for _, steps in jobs)
    helpers = min(len(os.sched_getaffinity(0)), len(jobs)) - 1 if full >= 2 else 0
    if helpers < 1:
        for job in jobs:
            work(job)
        return
    # Imported here: concurrent.futures loads logging (about 10 ms), which a
    # process that never encodes a batch on helpers should not pay on import.
    from concurrent.futures import ThreadPoolExecutor

    pending = iter(jobs[1:])  # jobs[0] is the caller's, so the caller always works
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                job = next(pending, None)
            if job is None:
                return
            work(job)

    native_ids: list[int] = []
    try:
        with ThreadPoolExecutor(
                helpers, initializer=lambda: native_ids.append(threading.get_native_id())
        ) as pool:
            futures = [pool.submit(drain) for _ in range(helpers)]
            work(jobs[0])
            drain()
        for future in futures:
            future.result()
    finally:
        _await_thread_exit(native_ids)


def _await_thread_exit(native_ids: list[int]) -> None:
    """Wait until the joined threads have left the process.

    Before Python 3.13, joining a thread returns when it has finished its
    Python work, a moment before the OS thread exits; until then it is
    still listed in /proc/self/task. Without /proc this returns at once.
    """
    for tid in native_ids:
        while os.path.exists(f"/proc/self/task/{tid}"):
            os.sched_yield()


# --- trainable resampler (on the tape) ---------------------------------------


def init_resampler_arrays(k: int, d: int, rng: np.random.Generator,
                          pos_embed: Array) -> dict[str, Array]:
    """Latent queries, key/value projections, for tokens of width d.

    The start is a spatial pooler over the encoder's positional table:
    keys project onto the positional band, values pass tokens through,
    and latent j is the scaled mean of the j-th positional tile.
    Attention then tiles the token sequence at initialization, preserving
    coarse content-position binding; training sharpens it from there.
    """
    pd = pos_embed.shape[1]
    wk = rng.normal(0.0, 0.02, size=(d, d))
    wk[d - pd:, d - pd:] += np.eye(pd)
    wv = np.eye(d) + rng.normal(0.0, 0.02, size=(d, d))
    latents = rng.normal(0.0, 0.02, size=(k, d))
    for j, rows in enumerate(_square_tiles(pos_embed.shape[0], k)):
        tile = pos_embed[rows].mean(axis=0)
        norm = float(np.linalg.norm(tile)) + 1e-9
        latents[j, d - pd:] += 3.0 * np.sqrt(d) * tile / norm
    return {"latents": latents, "wk": wk, "wv": wv}


def _square_tiles(n_rows: int, k: int) -> list[np.ndarray]:
    """Partition the two camera slots' patch grids into k near-square tiles."""
    n = n_rows // 2
    g = int(round(np.sqrt(n)))
    per_cam = max(k // 2, 1)
    a = max(int(round(np.sqrt(per_cam))), 1)
    while per_cam % a:
        a -= 1
    b = per_cam // a  # a tiles along y, b along x
    tiles = []
    for cam in (0, 1):
        for ty in range(a):
            for tx in range(b):
                ys = range(ty * g // a, (ty + 1) * g // a)
                xs = range(tx * g // b, (tx + 1) * g // b)
                rows = [cam * n + y * g + x for y in ys for x in xs]
                tiles.append(np.asarray(rows if rows else [cam * n], dtype=np.intp))
    while len(tiles) < k:  # odd k: duplicate coarse camera tiles
        tiles.append(np.arange(n, dtype=np.intp))
    return tiles[:k]


def resample(tokens, latents: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Compress N input tokens to the K latent queries' attention readout.

    (N, d_in) -> (K, d); a leading time axis, (T, N, d_in) -> (T, K, d),
    resamples every step of a trajectory in one pass. The products are
    associated so that the projections meet the K latents instead of the
    N tokens: softmax((latents wkᵀ) xᵀ / sqrt(d)) x wv. That equals
    attention over keys x wk and values x wv, but the projections cost
    K·d_in·d per step instead of 2·N·d_in·d. The token width is checked
    by the matmul of the queries with xᵀ.
    """
    x = tokens if isinstance(tokens, Tensor) else Tensor(tokens)
    if x.data.ndim not in (2, 3):
        raise DimensionError(f"resample expects (N, d_in) or (T, N, d_in) tokens, got {x.shape}")
    queries = nm.matmul(latents, nm.transpose(wk))  # (K, d_in), shared by every step
    scale = Tensor(1.0 / np.sqrt(latents.shape[-1]))
    weights = nm.softmax_rows(nm.mul(nm.matmul(queries, nm.transpose(x)), scale))
    return nm.matmul(nm.matmul(weights, x), wv)

