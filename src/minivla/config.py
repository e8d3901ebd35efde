"""Run configuration: dataclasses, JSON parsing, validation.

Only values a run may choose are fields here. Values with one possible
setting are constants of the module that uses them: the frame edge is
sim.IMAGE_HW (the cameras render nothing else), the pose output scale is
sim.STEP_CLIP (the environment's per-step bound), the cross-attention
gate start is decoder.GATE_INIT, and Adam's moment decays and epsilon
are training.Adam.BETAS and Adam.EPS.

parse_config is the one way from a dict to a RunConfig, for config files
and checkpoint metadata alike: every key must name a field, and every
value must have its field's type.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import sim
from .errors import ConfigError, ConfigRangeError


@dataclass
class ModelConfig:
    patch: int = 4               # patch edge; sim.IMAGE_HW must divide by it
    d_model: int = 64            # token width everywhere
    vit_blocks: int = 2
    resampler_k: int = 8         # latent token count
    decoder_layers: int = 2
    lstm_layers: int = 2
    lstm_width: int = 64
    sep_resampler: bool = False
    depth_input: str = "sensor"  # "sensor" | "constant" (RGB-only ablation)
    seed: int = 0

    def validate(self):
        for name in ("patch", "d_model", "vit_blocks",
                     "resampler_k", "decoder_layers", "lstm_layers", "lstm_width"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigRangeError(f"model.{name} must be a positive integer, got {v!r}")
        if sim.IMAGE_HW % self.patch != 0:
            raise ConfigRangeError(
                f"model.patch {self.patch} must divide the frame edge {sim.IMAGE_HW}"
            )
        if self.d_model < 4:
            raise ConfigRangeError(
                f"model.d_model must be at least 4 (positional band), got {self.d_model}"
            )
        if self.depth_input not in ("sensor", "constant"):
            raise ConfigError(f"model.depth_input must be 'sensor' or 'constant'")
        if self.seed < 0:
            raise ConfigRangeError(f"model.seed must be >= 0, got {self.seed}")


@dataclass
class TrainConfig:
    lambda_gripper: float = 1.0
    learning_rate: float = 2e-3
    epochs: int = 20
    batch_size: int = 1
    clip_norm: float = 1.0       # global gradient-norm bound
    seed: int = 0
    ckpt_every: int = 0          # 0 = final checkpoint only

    def validate(self):
        if self.lambda_gripper < 0:
            raise ConfigRangeError(f"train.lambda_gripper must be >= 0, got {self.lambda_gripper}")
        if self.learning_rate < 0:
            raise ConfigRangeError(f"train.learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigRangeError(f"train.epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigRangeError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if self.clip_norm <= 0:
            raise ConfigRangeError(f"train.clip_norm must be positive, got {self.clip_norm}")
        for name in ("seed", "ckpt_every"):
            if getattr(self, name) < 0:
                raise ConfigRangeError(f"train.{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class EnvConfig:
    palettes: list[str] = field(default_factory=lambda: ["A", "B", "C"])
    eval_palette: str = "D"
    families: list[str] | None = None
    variant: str = "standard"
    n_chains: int = 20           # chains per evaluation or ablation arm
    horizon: int = 64            # per-task step budget
    enrich: bool = False

    def validate(self):
        for p in self.palettes + [self.eval_palette]:
            if p not in sim.PALETTES:
                raise ConfigRangeError(f"env palette {p!r} not one of {sorted(sim.PALETTES)}")
        if self.families is not None:
            for f in self.families:
                if f not in sim.FAMILIES:
                    raise ConfigRangeError(f"env.families entry {f!r} not one of {sim.FAMILIES}")
        if self.variant not in ("standard", "tall_short"):
            raise ConfigRangeError(f"env.variant must be standard or tall_short")
        if self.n_chains < 1 or self.horizon < 1:
            raise ConfigRangeError("env counts must be positive")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    env: EnvConfig = field(default_factory=EnvConfig)

    def validate(self):
        self.model.validate()
        self.train.validate()
        self.env.validate()


def _is_str_list(v) -> bool:
    return isinstance(v, list) and all(isinstance(s, str) for s in v)


def is_finite_number(v) -> bool:
    """Whether a JSON value is a finite number: an int or float, not a bool,
    inside the float range (Python's json reads NaN, Infinity and ints of
    any size)."""
    try:
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v))
    except OverflowError:  # an int beyond the float range
        return False


# Field annotation -> whether a JSON value may set such a field. A bool is
# no int here, although Python makes it one.
_TYPE_CHECKS = {
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": is_finite_number,
    "str": lambda v: isinstance(v, str),
    "list[str]": _is_str_list,
    "list[str] | None": lambda v: v is None or _is_str_list(v),
}


def _apply_section(obj, section: str, data):
    if not isinstance(data, dict):
        raise ConfigError(f"config section {section} must be a JSON object, "
                          f"got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(obj)}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"unknown config key: {section}.{key}")
        annotation = fields[key].type
        if not _TYPE_CHECKS[annotation](value):
            raise ConfigError(f"config key {section}.{key} must be of type {annotation}, "
                              f"got {value!r}")
        setattr(obj, key, float(value) if annotation == "float" else value)


def parse_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus override sections.

    An empty file means all defaults. A file that is not a JSON object, an
    unknown key or a value of the wrong type raises ConfigError naming
    the key; out-of-range values raise ConfigRangeError.
    """
    cfg = RunConfig()
    sources = []
    if path is not None:
        text = Path(path).read_text().strip()
        try:
            sources.append(json.loads(text) if text else {})
        except ValueError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    if overrides:
        sources.append(overrides)
    for source in sources:
        if not isinstance(source, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(source).__name__}")
        for section, data in source.items():
            if section not in ("model", "train", "env"):
                raise ConfigError(f"unknown config key: {section}")
            _apply_section(getattr(cfg, section), section, data)
    cfg.validate()
    return cfg


def resolve_out(path: str | Path) -> Path:
    """Resolve a path flag, input or output; MINIVLA_RUN_DIR overrides the
    root for relative paths."""
    p = Path(path)
    if p.is_absolute():
        return p
    root = os.environ.get("MINIVLA_RUN_DIR")
    return (Path(root) / p) if root else p
