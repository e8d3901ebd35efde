"""Chain-success aggregation and the two ablation harnesses.

A SuccessTable holds the five prefix success rates of 5-task chains:
rate[i] is the fraction of chains whose first i+1 tasks all succeeded,
so rates are non-increasing by construction, and the average column is
their sum (the mean number of consecutively completed tasks). The
ablation harnesses pair two model variants on bitwise-identical chain
seeds: shared vs separate resamplers (initialized identically), and
narrow vs wide depth-normalization ranges (plus the quantized
pixel-change sensitivity counts).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import depth as dp
from . import policy as pol
from . import sim
from . import training as tr
from .config import EnvConfig, ModelConfig, TrainConfig
from .errors import ContractError

Array = np.ndarray


@dataclass
class SuccessTable:
    rates: tuple[float, float, float, float, float]
    avg: float
    n_chains: int
    model_label: str = "ours"
    train_split: str = ""
    test_split: str = ""
    enriched: bool = False

    def validate(self):
        for a, b in zip(self.rates, self.rates[1:]):
            if b > a + 1e-12:
                raise ContractError(f"success rates must be non-increasing: {self.rates}")
        if abs(self.avg - sum(self.rates)) > 1e-9:
            raise ContractError(f"avg {self.avg} != sum of rates {sum(self.rates)}")

    def to_dict(self) -> dict:
        return {
            "model": self.model_label,
            "train": self.train_split,
            "test": self.test_split,
            "enriched": self.enriched,
            "rates": list(self.rates),
            "avg": self.avg,
            "n_chains": self.n_chains,
        }


def aggregate_chain_metrics(results: list[sim.ChainResult], model_label: str = "ours",
                            train_split: str = "", test_split: str = "",
                            enriched: bool = False) -> SuccessTable:
    """Prefix success rates over chains; avg is their sum."""
    if not results:
        raise ContractError("cannot aggregate an empty result list")
    n = len(results)
    rates = []
    for i in range(5):
        rates.append(sum(all(r.successes[:i + 1]) for r in results) / n)
    table = SuccessTable(tuple(rates), float(sum(rates)), n, model_label,
                         train_split, test_split, enriched)
    table.validate()
    return table


def run_chain_eval(agent, n_chains: int, palette: str, seed: int,
                   families=None, variant: str = "standard",
                   enrich: bool = False, horizon: int = 64) -> list[sim.ChainResult]:
    """Deterministic chain batch: chain i uses seed + i; results sorted by index."""
    results = []
    for i in range(n_chains):
        chain = sim.sample_chain(seed + i, palette, families=families, variant=variant)
        result = sim.rollout_chain(agent, chain, max_steps_per_task=horizon,
                                   enrich=enrich)
        result.chain_id = i
        results.append(result)
    return results


@dataclass
class AblationReport:
    name: str
    tables: dict[str, SuccessTable]
    config_digest: str
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tables": {k: t.to_dict() for k, t in self.tables.items()},
            "config_digest": self.config_digest,
            "extras": self.extras,
        }


def _digest(*objs) -> str:
    payload = json.dumps([getattr(o, "__dict__", o) for o in objs],
                         sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _eval_seed(env_cfg: EnvConfig) -> int:
    """First chain seed of every evaluation in an ablation."""
    return env_cfg.n_chains * 100 + 17


def _train_and_eval(model: pol.Model, dataset: list[sim.Trajectory],
                    train_cfg: TrainConfig, env_cfg: EnvConfig, label: str,
                    encoded=None) -> SuccessTable:
    tr.train_run(dataset, model, train_cfg, encoded=encoded)
    results = run_chain_eval(pol.PolicyAgent(model), env_cfg.n_chains,
                             env_cfg.eval_palette, _eval_seed(env_cfg),
                             families=env_cfg.families, variant=env_cfg.variant,
                             enrich=env_cfg.enrich, horizon=env_cfg.horizon)
    table = aggregate_chain_metrics(results, model_label=label,
                                    train_split="".join(env_cfg.palettes),
                                    test_split=env_cfg.eval_palette,
                                    enriched=env_cfg.enrich)
    return table


def run_sep_resampler_ablation(model_cfg: ModelConfig, stats: dp.DepthStats,
                               dataset: list[sim.Trajectory],
                               train_cfg: TrainConfig, env_cfg: EnvConfig
                               ) -> AblationReport:
    """Shared vs separate resamplers from identical initialization.

    Both variants see the same data order and the same chain seeds; the
    report records that their evaluations agree before any update. They
    share the frozen encoder, so the dataset is encoded once for both.
    """
    import dataclasses

    models = {label: pol.init_model(dataclasses.replace(model_cfg, sep_resampler=sep), stats)
              for label, sep in (("shared", False), ("separate", True))}

    eval_seed = _eval_seed(env_cfg)
    init_results = {}
    for label, model in models.items():
        results = run_chain_eval(pol.PolicyAgent(model), min(env_cfg.n_chains, 5),
                                 env_cfg.eval_palette, eval_seed,
                                 families=env_cfg.families, variant=env_cfg.variant,
                                 horizon=env_cfg.horizon)
        init_results[label] = [r.successes for r in results]
    init_identical = init_results["shared"] == init_results["separate"]

    shared, separate = models.values()
    if (tr.frozen_checksum(shared) != tr.frozen_checksum(separate)
            or shared.depth_stats != separate.depth_stats):
        raise ContractError("ablation arms differ in frozen weights or depth statistics; "
                            "they cannot share one encoding of the dataset")
    encoded = tr.encode_dataset(shared, dataset)
    tables = {}
    param_counts = {}
    for label, model in models.items():
        tables[label] = _train_and_eval(model, dataset, train_cfg, env_cfg, label, encoded)
        param_counts[label] = sum(
            t.size for n, t in model.params.items() if n.startswith("resampler."))

    return AblationReport(
        "sep_resampler", tables, _digest(model_cfg, train_cfg, env_cfg),
        extras={
            "init_evaluations_identical": init_identical,
            "resampler_param_counts": param_counts,
            "eval_seed": eval_seed,
        },
    )


def run_depth_extremes_ablation(model_cfg: ModelConfig,
                                stats_narrow: dp.DepthStats,
                                stats_wide: dp.DepthStats,
                                dataset: list[sim.Trajectory],
                                train_cfg: TrainConfig, env_cfg: EnvConfig
                                ) -> AblationReport:
    """Identical models whose depth pipelines normalize by different ranges."""
    if not (stats_wide.d_min <= stats_narrow.d_min
            and stats_wide.d_max >= stats_narrow.d_max
            and (stats_wide.d_max - stats_wide.d_min)
            > (stats_narrow.d_max - stats_narrow.d_min)):
        raise ContractError(
            f"wide range [{stats_wide.d_min}, {stats_wide.d_max}] must strictly "
            f"contain narrow range [{stats_narrow.d_min}, {stats_narrow.d_max}]"
        )
    tables = {}
    for label, stats in (("narrow", stats_narrow), ("wide", stats_wide)):
        tables[label] = _train_and_eval(pol.init_model(model_cfg, stats), dataset,
                                        train_cfg, env_cfg, label)

    pairs = consecutive_depth_pairs(dataset, limit=20)
    sensitivity = depth_sensitivity_report(
        pairs, {"narrow": stats_narrow, "wide": stats_wide})
    return AblationReport(
        "depth_extremes", tables, _digest(model_cfg, train_cfg, env_cfg),
        extras={"sensitivity_counts": sensitivity},
    )


def consecutive_depth_pairs(dataset: list[sim.Trajectory], limit: int | None = None
                            ) -> list[tuple[Array, Array]]:
    """(t, t+1) static-camera depth pairs drawn from demonstrations, at
    most limit of them; limit must be at least 1."""
    if limit is not None and limit < 1:
        raise ContractError(f"a pair limit must be at least 1, got {limit}")
    pairs = []
    for traj in dataset:
        for (obs_a, _), (obs_b, _) in zip(traj.steps, traj.steps[1:]):
            pairs.append((np.asarray(obs_a.depth_static, dtype=np.float64),
                          np.asarray(obs_b.depth_static, dtype=np.float64)))
            if limit is not None and len(pairs) >= limit:
                return pairs
    return pairs


def depth_sensitivity_report(pairs, stats_by_label: dict[str, dp.DepthStats]
                             ) -> dict[str, list[int]]:
    """Per-stats quantized change counts for each consecutive frame pair."""
    if not pairs:
        raise ContractError("sensitivity report needs at least one frame pair")
    out: dict[str, list[int]] = {}
    for label, stats in stats_by_label.items():
        out[label] = [dp.change_count_for_pair(a, b, stats) for a, b in pairs]
    return out
