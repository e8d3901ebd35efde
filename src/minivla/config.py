"""Run configuration: dataclasses, JSON parsing, validation.

Only values a run may choose are fields here. A value with one possible
setting, or one every caller sets alike, is a constant of the module
that uses it: the frame edge sim.IMAGE_HW, the pose output scale
sim.STEP_CLIP, the encoder, fusion and LSTM depths encoders.VIT_BLOCKS,
decoder.DECODER_LAYERS and policy.LSTM_LAYERS, the cross-attention gate
start decoder.GATE_INIT, and Adam's BETAS, EPS and CLIP_NORM in
training.Adam. A config naming a retired field fails as an unknown key.

parse_config is the one way from a dict to a RunConfig, for config files
and checkpoint metadata alike: every key must name a field, and every
value must have its field's type.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import sim
from .errors import ConfigError, ConfigRangeError

DEPTH_INPUTS = ("sensor", "constant")  # "constant": the RGB-only ablation


@dataclass
class ModelConfig:
    patch: int = 4               # patch edge; sim.IMAGE_HW must divide by it
    d_model: int = 64            # token width everywhere
    resampler_k: int = 8         # latent token count
    lstm_width: int = 64
    sep_resampler: bool = False
    depth_input: str = "sensor"  # one of DEPTH_INPUTS
    seed: int = 0

    def validate(self):
        for name in ("patch", "d_model", "resampler_k", "lstm_width"):
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
        if self.depth_input not in DEPTH_INPUTS:
            raise ConfigError(f"model.depth_input must be one of {DEPTH_INPUTS}")
        if self.seed < 0:
            raise ConfigRangeError(f"model.seed must be >= 0, got {self.seed}")


@dataclass
class TrainConfig:
    lambda_gripper: float = 1.0
    learning_rate: float = 2e-3
    epochs: int = 20
    batch_size: int = 1
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
        if self.variant not in sim.VARIANTS:
            raise ConfigRangeError(f"env.variant must be {' or '.join(sim.VARIANTS)}")
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

