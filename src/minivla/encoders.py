"""Frozen patch encoders and the latent-query resampler.

One shared frozen patch transformer (random but seed-fixed, standing in
for a pretrained backbone) encodes both RGB frames and replicated
standardized depth frames. Because its weights never receive gradients,
the whole encoder runs as plain numpy; the trainable resampler is where
the autodiff tape starts.

vit_encode_pair runs it on chains of groups of four camera slots of T
steps, each group against a memo: one chain of one group for a whole
dataset, against a memo that lasts for that call, and for a lockstep
round one chain per evaluated chain, one group per arm (T = 1), each
against the memo of the policy agent that steps it. It alone decides
reuse, writes the memos, forms batches and starts threads. A memo keeps,
per camera slot, the last frame encoded there, with its tokens. A frame
byte-equal to the previous frame of its slot reuses that frame's tokens;
at a call's first step, the previous frame is the slot's entry in the
group's memo or, failing that, the first-step frame of an earlier group
of the same chain, whose entry the later group's memo then adopts. That
is exact because tokens depend only on the frame and the frozen
weights, which every group of a call shares. The other frames are
encoded in batches of up to FRAMES_PER_JOB frames of one camera, across
slots, groups and chains, since a camera's RGB and depth frames share
its positional rows; every frame's tokens are bitwise those of encoding
it alone. Only a call with at least 2 * FRAMES_PER_JOB new frames uses
helper threads, so a single step stays on the calling thread while a
round of several chains does not; kept_helpers keeps the threads over
many calls and ends them with its block. A failed call leaves every
memo as it was.

The resampler holds K learnable latent query tokens and compresses an
N-token sequence to K tokens via single-head scaled dot-product
attention, so its output is invariant to input-token order.
policy.fused_tokens concatenates the RGB and depth resamples, RGB first.
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np

from . import numerics as nm
from .errors import DimensionError
from .numerics import Tensor

Array = np.ndarray
# Camera slot -> (the last frame encoded in the slot, its tokens).
FrameMemo = dict[int, tuple[Array, Array]]


# --- frozen patch transformer (numpy only) -----------------------------------

VIT_BLOCKS = 2  # frozen transformer blocks after the patch projection


def pos_band(d: int) -> int:
    """Width of the positional channel band at the top of each token."""
    return max(d // 4, 2)


def init_encoder_arrays(image_hw: int, patch: int, d: int,
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
    for b in range(VIT_BLOCKS):
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
    """Non-overlapping patches of a batch of frames (B, H, W, 3),
    flattened, projected, with the positional embedding in the reserved
    top channel band: (B, N, d).
    """
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[-1] != 3:
        raise DimensionError(
            f"patchify expects a (B, H, W, 3) batch of frames, got {arr.shape}")
    b, h, w, _ = arr.shape
    if h % patch or w % patch:
        raise DimensionError(f"image extents {h}x{w} are not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    flat = (arr.reshape(b, gh, patch, gw, patch, 3)
            .swapaxes(2, 3)
            .reshape(b, gh * gw, 3 * patch * patch))
    if flat.shape[-1] != proj.shape[0]:
        raise DimensionError(
            f"patch width {flat.shape[-1]} does not match projection {proj.shape}"
        )
    if pos.shape[0] != gh * gw:
        raise DimensionError(
            f"positional rows {pos.shape[0]} do not match {gh * gw} patches"
        )
    return np.concatenate([flat @ proj, np.broadcast_to(pos, (b, *pos.shape))], axis=-1)


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


def vit_encode_image(img, vit: dict[str, Array], patch: int, camera: int) -> Array:
    """Frozen tokens of a batch of frames from one camera slot,
    (B, H, W, 3) -> (B, N, d).

    A batch runs every numpy op once over all B frames: each matmul is one
    BLAS call per frame on that frame's operands, and the softmax, tanh
    and sums work along rows, so every frame's tokens are bitwise those of
    encoding it alone. Batches make each op longer, which lets frames on
    several threads overlap (numpy releases the GIL inside each op).
    """
    pos = vit["pos_embed"]
    n = pos.shape[0] // 2
    x = patchify(img, patch, vit["patch_proj"], pos[camera * n:(camera + 1) * n])
    for b in range(VIT_BLOCKS):
        x = _np_block(x, vit, b)
    return x


def vit_encode_pair(chains, vit: dict[str, Array], patch: int) -> list[Array]:
    """Frozen tokens of several groups of camera slots, one (T, S·N, d)
    array per group, chain by chain, in order.

    chains is a list of chains, each a list of (memo, slots) groups:
    S camera slots of T frames each, as lists or (T, H, W, 3) arrays.
    Slot s gives tokens s·N to (s + 1)·N of each step and is seen by
    camera s % 2, so a policy step passes RGB static, RGB gripper, depth
    static, depth gripper. A rollout step or a trajectory is one chain of
    one group; a lockstep round is one chain per evaluated chain, one
    group per arm that steps in it.

    A frame byte-equal to the previous frame of its slot reuses that
    frame's tokens. Before step 0, the previous frame is the slot's entry
    in the group's memo if it matches, else the slot's step-0 entry of
    the first earlier group of the same chain that matches (see
    _same_frame); an entry that is one already compared is skipped, and
    no frame is compared with another chain's. The rest are encoded in
    batches by camera, across slots, groups and chains (see _run_jobs).
    Only then does each memo take each slot's last entry: an entry the
    call made holds copies of its frame and tokens, made once and taken
    by every memo that adopts it, so no memo holds a view of a caller's
    frame or of a returned array. Frame extents are checked where frames
    are encoded (patchify); a reused frame has the bytes and shape of a
    frame already checked.
    """
    pos = vit["pos_embed"]
    n = pos.shape[0] // 2  # tokens per frame
    width = vit["patch_proj"].shape[1] + pos.shape[1]
    frames_of, outs, fills = [], [], []
    batches: dict[tuple, list] = {}  # (camera, extents) -> (group, slot, step) to encode
    ends = []  # per group: (its memo, slot -> the entry of the slot's last frame)
    # id(an entry of a frame this call encodes, which views the frame and
    # an output) -> that entry, then the copies the memos take.
    made: dict[int, tuple[Array, Array]] = {}
    for chain in chains:
        firsts: dict[int, list] = {}  # slot -> the step-0 entries of the chain's groups
        for memo, slots in chain:
            slots = [[np.asarray(f) for f in frames] for frames in slots]
            lengths = [len(frames) for frames in slots]
            if len(set(lengths)) > 1:
                raise DimensionError(f"camera slots hold {lengths} frames")
            out = np.empty((lengths[0], len(slots) * n, width))
            end = {}
            for slot, frames in enumerate(slots):
                rows = slice(slot * n, (slot + 1) * n)
                earlier = firsts.setdefault(slot, [])
                for t, frame in enumerate(frames):
                    if t:
                        entry = end[slot] if _same_frame(frames[t - 1], frame) else None
                    else:
                        entry = _first_match(frame, [memo.get(slot), *earlier])
                    if entry is None:
                        batches.setdefault((slot % 2, frame.shape), []).append(
                            (len(outs), slot, t))
                        entry = (frame, out[t, rows])
                        made[id(entry)] = entry
                    else:
                        fills.append((out[t, rows], entry[1]))
                    if not t:
                        earlier.append(entry)
                    end[slot] = entry
            frames_of.append(slots)
            outs.append(out)
            ends.append((memo, end))
    jobs = [(camera, steps[i:i + FRAMES_PER_JOB])
            for (camera, _), steps in batches.items()
            for i in range(0, len(steps), FRAMES_PER_JOB)]

    def encode(job):
        camera, steps = job
        frames = [frames_of[g][slot][t] for g, slot, t in steps]
        batch = frames[0][None] if len(frames) == 1 else np.stack(frames)
        tokens = vit_encode_image(batch, vit, patch, camera=camera)
        for (g, slot, t), x in zip(steps, tokens):
            outs[g][t, slot * n:(slot + 1) * n] = x

    _run_jobs(jobs, encode)
    for target, source in fills:  # each source is encoded or a memo's already
        target[...] = source
    for memo, end in ends:
        for slot, entry in end.items():
            if made.get(id(entry)) is entry:  # the first memo to take it copies it
                made[id(entry)] = (entry[0].copy(), entry[1].copy())
            memo[slot] = made.get(id(entry), entry)
    return outs


def _first_match(frame: Array, entries) -> tuple[Array, Array] | None:
    """The first of entries (None is no entry) whose frame is the same as
    frame; an entry that is one already compared is skipped."""
    compared = []
    for entry in entries:
        if entry is None or any(entry is seen for seen in compared):
            continue
        if _same_frame(entry[0], frame):
            return entry
        compared.append(entry)
    return None


def _same_frame(prev: Array, frame: Array) -> bool:
    """The reuse rule: the same dtype, shape and bytes, so -0.0 and 0.0
    differ and NaN payloads count."""
    return (prev.dtype == frame.dtype and prev.shape == frame.shape
            and prev.tobytes() == frame.tobytes())


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one
    (Linux), else os.cpu_count() (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Frames per encoder call: long enough numpy ops that two threads overlap
# instead of trading the GIL, short enough to balance the threads' shares.
FRAMES_PER_JOB = 4


def _run_jobs(jobs: list, work) -> None:
    """Run work(job) for every (camera, steps) job: on the calling thread,
    and once the jobs hold at least 2 * FRAMES_PER_JOB frames also on
    helper threads (kept_helpers), one thread per usable CPU in all. numpy
    releases the GIL inside BLAS and ufunc loops, so the threads overlap.
    Below that count, only per-step batches of at most 4 frames were
    measured: with a helper they ran at 0.96x serial speed. Rounds of 5-7
    frames are unmeasured. The caller works instead of waiting, which
    takes one thread fewer: with a waiting caller (Executor.map over the
    jobs), the perfbench train workload read 1.8 MB more peak_rss_mb on a
    2-CPU host. Every job has ended when this returns, and a job's
    exception reaches the caller as raised.
    """
    frames = sum(len(steps) for _, steps in jobs)
    helpers = (min(usable_cpus(), len(jobs)) - 1
               if frames >= 2 * FRAMES_PER_JOB else 0)
    if helpers < 1:
        for job in jobs:
            work(job)
        return
    pending = iter(jobs[1:])  # jobs[0] is the caller's, so the caller always works
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                job = next(pending, None)
            if job is None:
                return
            work(job)

    with kept_helpers() as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        try:
            work(jobs[0])
            drain()
        finally:
            for future in futures:
                future.exception()  # waits
        for future in futures:
            future.result()


# Per calling thread: the pool of its outermost open kept_helpers block.
_kept = threading.local()


@contextlib.contextmanager
def kept_helpers():
    """Yield a pool of helper threads, one per usable CPU but one, that
    _run_jobs on this thread uses until the outermost block ends; then
    they have left the process. Outside a block, each _run_jobs call that
    needs helpers is a block of its own; a block around many small calls
    (a chain evaluation's rounds) starts the threads once, not per call.
    """
    pool = getattr(_kept, "pool", None)
    if pool is not None:
        yield pool
        return
    # Imported here: concurrent.futures loads logging (about 10 ms), which a
    # process that neither evaluates chains nor encodes a batch on helpers
    # should not pay on import.
    from concurrent.futures import ThreadPoolExecutor

    native_ids: list[int] = []
    _kept.pool = pool = ThreadPoolExecutor(
        max(usable_cpus() - 1, 1),
        initializer=lambda: native_ids.append(threading.get_native_id()))
    try:
        yield pool
    finally:
        _kept.pool = None
        try:
            pool.shutdown()
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
    """Compress each step's N input tokens to the K latent queries'
    attention readout: (T, N, d_in) -> (T, K, d), every step of a
    trajectory in one pass (T = 1 for a rollout step).

    The products are associated so that the projections meet the K
    latents instead of the N tokens: softmax((latents wkᵀ) xᵀ / sqrt(d))
    x wv. That equals attention over keys x wk and values x wv, but the
    projections cost K·d_in·d per step instead of 2·N·d_in·d. The token
    width is checked by the matmul of the queries with xᵀ.
    """
    x = tokens if isinstance(tokens, Tensor) else Tensor(tokens)
    if x.data.ndim != 3:
        raise DimensionError(f"resample expects (T, N, d_in) tokens, got {x.shape}")
    queries = nm.matmul(latents, nm.transpose(wk))  # (K, d_in), shared by every step
    scale = Tensor(1.0 / np.sqrt(latents.shape[-1]))
    weights = nm.softmax_rows(nm.mul(nm.matmul(queries, nm.transpose(x)), scale))
    return nm.matmul(nm.matmul(weights, x), wv)

