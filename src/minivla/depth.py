"""Depth-map preprocessing: normalize, standardize, replicate, quantize.

Raw depth frames arrive in meters. Normalization maps them through the
global extremes of a reference dataset (clamping anything outside),
standardization re-centers by the dataset moments of the normalized
values, and the result is replicated to three identical channels for
the patch encoder. The 8-bit quantizer and pixel-change counter back
the sensitivity analysis of narrow vs wide depth ranges.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import is_finite_number
from .errors import ContractError, DegenerateRangeError, DimensionError, ValidationError

Array = np.ndarray


def _as_depth(values) -> Array:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"depth map must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all() or (arr < 0).any():
        raise ContractError("depth values must be finite and non-negative")
    return arr


@dataclass(frozen=True)
class DepthStats:
    """Dataset-wide depth extremes plus moments of the normalized values."""

    d_min: float
    d_max: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.d_max > self.d_min:
            raise DegenerateRangeError(
                f"d_max must be above d_min, got d_min={self.d_min}, d_max={self.d_max}"
            )
        if not self.sigma > 0:
            raise DegenerateRangeError(f"sigma must be positive, got {self.sigma}")

    @classmethod
    def from_dict(cls, obj) -> "DepthStats":
        """The one checked construction from parsed JSON: an object with
        exactly the fields d_min, d_max, mu and sigma, each a finite number
        and not a bool, with d_max above d_min and sigma positive. Anything
        else raises ValidationError naming the field."""
        names = [f.name for f in dataclasses.fields(cls)]
        if not isinstance(obj, dict):
            raise ValidationError(f"depth statistics must be a JSON object with the "
                                  f"fields {names}, got {type(obj).__name__}")
        for key in obj:
            if key not in names:
                raise ValidationError(f"unknown depth statistics field {key!r}")
        for name in names:
            if not is_finite_number(obj.get(name)):
                raise ValidationError(f"depth statistics field {name!r} must be a "
                                      f"finite number, got {obj.get(name)!r}")
        try:
            return cls(**{name: float(obj[name]) for name in names})
        except DegenerateRangeError as e:
            raise ValidationError(f"degenerate depth statistics: {e}") from e

    @classmethod
    def from_json(cls, text: str) -> "DepthStats":
        try:
            obj = json.loads(text)
        except ValueError as e:
            raise ValidationError(f"depth statistics are not valid JSON: {e}") from e
        return cls.from_dict(obj)


def compute_stats(dataset: Iterable) -> DepthStats:
    """Global extremes, then population moments of the normalized pixels.

    The extremes and moments are taken jointly over every pixel of every
    frame supplied (both cameras, all timesteps).
    """
    maps = [_as_depth(d) for d in dataset]
    if not maps:
        raise ContractError("compute_stats needs a nonempty dataset")
    flat = np.concatenate([m.reshape(-1) for m in maps])
    d_min = float(flat.min())
    d_max = float(flat.max())
    if d_max == d_min:
        raise DegenerateRangeError(f"all depth pixels equal ({d_min}); range is empty")
    norm = (flat - d_min) / (d_max - d_min)
    mu = float(norm.mean())
    sigma = float(norm.std())  # population std keeps tiny datasets well-defined
    return DepthStats(d_min, d_max, mu, sigma)


def normalize_depth(depth, stats: DepthStats) -> Array:
    """(d - d_min) / (d_max - d_min), clamped into [0, 1]."""
    d = _as_depth(depth)
    out = (d - stats.d_min) / (stats.d_max - stats.d_min)
    return np.clip(out, 0.0, 1.0)


def standardize_depth(normalized, stats: DepthStats) -> Array:
    """(d' - mu) / sigma, then replicated to three identical channels.
    normalized is 2-D, as normalize_depth's result is."""
    arr = np.asarray(normalized, dtype=np.float64)
    std = (arr - stats.mu) / stats.sigma
    return np.repeat(std[:, :, None], 3, axis=2)


def preprocess_depth(depth, stats: DepthStats) -> Array:
    """Full chain: normalize, standardize, replicate to (H, W, 3)."""
    return standardize_depth(normalize_depth(depth, stats), stats)


def quantize_u8(normalized) -> Array:
    """round(255 * d') with half-up rounding, as uint8.

    Rejects values outside [0, 1]: normalize first.
    """
    arr = np.asarray(normalized, dtype=np.float64)
    if (arr < 0).any() or (arr > 1).any():
        raise ContractError("quantize_u8 expects values in [0, 1]; normalize first")
    # numpy's round is banker's; counts must use half-up.
    return np.floor(arr * 255.0 + 0.5).astype(np.uint8)


def pixel_change_count(a, b) -> int:
    """Number of positions where two 8-bit grids disagree."""
    qa = np.asarray(a)
    qb = np.asarray(b)
    if qa.shape != qb.shape:
        raise DimensionError(f"grids differ in extent: {qa.shape} vs {qb.shape}")
    return int((qa != qb).sum())


def change_count_for_pair(frame_a, frame_b, stats: DepthStats) -> int:
    """Quantized pixel-change count of a raw depth-frame pair under stats."""
    qa = quantize_u8(normalize_depth(frame_a, stats))
    qb = quantize_u8(normalize_depth(frame_b, stats))
    return pixel_change_count(qa, qb)
