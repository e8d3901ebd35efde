"""Chain-success aggregation and the two ablation harnesses.

A SuccessTable holds the five prefix success rates of 5-task chains:
rate[i] is the fraction of chains whose first i+1 tasks all succeeded,
so rates are non-increasing by construction, and the average column is
their sum (the mean number of consecutively completed tasks). The
ablation harnesses pair two model variants on bitwise-identical chain
seeds: shared vs separate resamplers (initialized identically), and
narrow vs wide depth-normalization ranges (plus the quantized
pixel-change sensitivity counts). run_chain_eval evaluates one agent or
a tuple of agents over one frozen encoder: every chain of every agent
runs with an agent of its own, which holds the chain's frame memo,
round tokens and LSTM state over the same Model, and the chains are
stepped together in lockstep rounds. A round paints the states of its
pixel-reading chains in one sim.render_observation call (sim.lockstep);
then, before any agent of the round acts, one pol.act_round call, the
one step path of a pol.PolicyAgent, encodes the round's new frames
together and steps the round's PolicyAgents with one policy_core call
per group that shares a ParamSet and an instruction length, a leading
chain axis in that call; each chain's actions stay bitwise those of
evaluating it alone, where each act is a round of one. Other agents
(expert, random) act on their own. Each harness evaluates its two arms
with one such call after training, the resampler harness also at
initialization; the arms' ParamSets differ, so they never share a
policy_core call, but within a chain an arm reuses the tokens of each
frame the other arm encodes in the same round.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import depth as dp
from . import encoders as enc
from . import policy as pol
from . import sim
from . import training as tr
from .config import EnvConfig, ModelConfig, TrainConfig
from .errors import ContractError, ValidationError

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


def aggregate_chain_metrics(results: list[sim.ChainResult], model_label: str,
                            train_split: str, test_split: str,
                            enriched: bool = False) -> SuccessTable:
    """Prefix success rates over chains; avg is their sum."""
    if not results:
        raise ContractError("cannot aggregate an empty result list")
    n = len(results)
    rates = []
    for i in range(5):
        rates.append(sum(all(r.successes[:i + 1]) for r in results) / n)
    return SuccessTable(tuple(rates), float(sum(rates)), n, model_label,
                        train_split, test_split, enriched)


# Chains stepped together in one evaluation: enough that a round fills a
# batch of enc.FRAMES_PER_JOB frames on every usable CPU even when each
# chain adds one new frame (a step adds up to four). Further chains wait
# for the next wave, so memory does not grow with n_chains.
CHAINS_PER_WAVE = enc.FRAMES_PER_JOB * max(2, enc.usable_cpus())


def run_chain_eval(agent, n_chains: int, palette: str, seed: int,
                   families=None, variant: str = "standard",
                   enrich: bool = False, *, horizon: int
                   ) -> list[sim.ChainResult] | list[list[sim.ChainResult]]:
    """Deterministic chain batch: chain i uses seed + i; results in chain
    order, each with chain_id i.

    agent is one agent, which gets a list of ChainResults, or a tuple of
    agents, which get one such list each. The pol.PolicyAgents among them
    must have the same frozen encoder (pol.same_frozen_encoder), else
    this raises ContractError before any chain is sampled. Every chain of
    every agent runs with an agent of its own, agent.for_chain(): a
    policy agent's chain shares its Model, parameters and all, and has
    its own frame memo, round tokens and LSTM state. The
    chains run in waves of CHAINS_PER_WAVE, all runs of a wave stepped in
    lockstep (sim.lockstep), which paints each round's frames in one
    sim.render_observation call. Before each round's acts, one
    pol.act_round call encodes those frames, grouped by chain, and steps
    the round's PolicyAgents in groups, one policy_core call per group
    that shares a ParamSet and an instruction length; each act then
    returns its agent's action from that call. A chain's results and
    actions do not depend on the others, on the wave size or on the
    usable CPUs, so they are those of evaluating it alone.
    """
    paired = isinstance(agent, tuple)
    agents = agent if paired else (agent,)
    models = [a.model for a in agents if isinstance(a, pol.PolicyAgent)]
    if not all(pol.same_frozen_encoder(models[0], m) for m in models[1:]):
        raise ContractError("the agents' models have different frozen encoders")
    results: list[list[sim.ChainResult]] = [[] for _ in agents]
    with enc.kept_helpers():
        for first in range(0, n_chains, CHAINS_PER_WAVE):
            wave = range(first, min(first + CHAINS_PER_WAVE, n_chains))
            chains = [sim.sample_chain(seed + i, palette, families=families, variant=variant)
                      for i in wave]
            for i, per_agent in zip(wave, _run_wave(agents, chains, horizon, enrich)):
                for arm, result in zip(results, per_agent):
                    result.chain_id = i
                    arm.append(result)
    return results if paired else results[0]


def _run_wave(agents, chains: list[sim.ChainSpec], horizon: int, enrich: bool
              ) -> list[list[sim.ChainResult]]:
    """Every agent through every chain, all stepped in lockstep; per chain,
    each agent's ChainResult."""
    players = [a.for_chain() for _ in chains for a in agents]  # chain by chain
    runs = [sim.chain_steps(a, chains[r // len(agents)], max_steps_per_task=horizon,
                            enrich=enrich)
            for r, a in enumerate(players)]

    def act_round(observations):
        steps = [[] for _ in chains]
        for r, obs in observations.items():
            if isinstance(players[r], pol.PolicyAgent):
                steps[r // len(agents)].append((players[r], obs))
        pol.act_round(steps)

    results = sim.lockstep(runs, act_round)
    return [results[c:c + len(agents)] for c in range(0, len(results), len(agents))]


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


def _evaluate(models: dict[str, pol.Model], env_cfg: EnvConfig, n_chains: int,
              enrich: bool = False) -> dict[str, list[sim.ChainResult]]:
    """One paired run_chain_eval of every model on the ablation's chains."""
    results = run_chain_eval(tuple(pol.PolicyAgent(m) for m in models.values()),
                             n_chains, env_cfg.eval_palette, _eval_seed(env_cfg),
                             families=env_cfg.families, variant=env_cfg.variant,
                             enrich=enrich, horizon=env_cfg.horizon)
    return dict(zip(models, results))


def _train_and_eval(models: dict[str, pol.Model], dataset: list[sim.Trajectory],
                    train_cfg: TrainConfig, env_cfg: EnvConfig,
                    encoded=None) -> dict[str, SuccessTable]:
    """Train every model, then evaluate them as one pair."""
    for model in models.values():
        tr.train_run(dataset, model, train_cfg, encoded=encoded)
    results = _evaluate(models, env_cfg, env_cfg.n_chains, enrich=env_cfg.enrich)
    return {label: aggregate_chain_metrics(arm, model_label=label,
                                           train_split="".join(env_cfg.palettes),
                                           test_split=env_cfg.eval_palette,
                                           enriched=env_cfg.enrich)
            for label, arm in results.items()}


def run_sep_resampler_ablation(model_cfg: ModelConfig, stats: dp.DepthStats,
                               dataset: list[sim.Trajectory],
                               train_cfg: TrainConfig, env_cfg: EnvConfig
                               ) -> AblationReport:
    """Shared vs separate resamplers from identical initialization.

    Both variants see the same data order and the same chain seeds; the
    report records that their evaluations agree before any update. They
    share the frozen encoder and the depth statistics, so the dataset is
    encoded once for both, and in each evaluation the separate arm's
    chain reuses the tokens of each frame byte-equal to one the shared
    arm's chain encodes in the same round (at initialization, every
    frame).
    """
    import dataclasses

    models = {label: pol.init_model(dataclasses.replace(model_cfg, sep_resampler=sep), stats)
              for label, sep in (("shared", False), ("separate", True))}
    init = _evaluate(models, env_cfg, min(env_cfg.n_chains, 5))
    init_identical = ([r.successes for r in init["shared"]]
                      == [r.successes for r in init["separate"]])

    encoded = tr.encode_dataset(models["shared"], dataset)
    tables = _train_and_eval(models, dataset, train_cfg, env_cfg, encoded)
    param_counts = {label: sum(t.size for n, t in model.params.items()
                               if n.startswith("resampler."))
                    for label, model in models.items()}

    return AblationReport(
        "sep_resampler", tables, _digest(model_cfg, train_cfg, env_cfg),
        extras={
            "init_evaluations_identical": init_identical,
            "resampler_param_counts": param_counts,
            "eval_seed": _eval_seed(env_cfg),
        },
    )


def check_depth_extremes(stats_narrow: dp.DepthStats, stats_wide: dp.DepthStats) -> None:
    """Raise ValidationError unless the wide range strictly contains the
    narrow one: it reaches at least as far on both sides and is longer."""
    if not (stats_wide.d_min <= stats_narrow.d_min
            and stats_wide.d_max >= stats_narrow.d_max
            and (stats_wide.d_max - stats_wide.d_min)
            > (stats_narrow.d_max - stats_narrow.d_min)):
        raise ValidationError(
            f"wide range [{stats_wide.d_min}, {stats_wide.d_max}] must strictly "
            f"contain narrow range [{stats_narrow.d_min}, {stats_narrow.d_max}]"
        )


def run_depth_extremes_ablation(model_cfg: ModelConfig,
                                stats_narrow: dp.DepthStats,
                                stats_wide: dp.DepthStats,
                                dataset: list[sim.Trajectory],
                                train_cfg: TrainConfig, env_cfg: EnvConfig
                                ) -> AblationReport:
    """Identical models whose depth pipelines normalize by different ranges.

    Their frozen encoders are the same, so after training, within each
    chain, an arm reuses the tokens of each frame the other arm encodes
    in the same round; the depth slots hold preprocessed frames, so only
    frames equal after each arm's own normalization reuse tokens. The ranges must pass check_depth_extremes.
    """
    check_depth_extremes(stats_narrow, stats_wide)
    models = {label: pol.init_model(model_cfg, stats)
              for label, stats in (("narrow", stats_narrow), ("wide", stats_wide))}
    tables = _train_and_eval(models, dataset, train_cfg, env_cfg)

    pairs = consecutive_depth_pairs(dataset, limit=20)
    sensitivity = depth_sensitivity_report(
        pairs, {"narrow": stats_narrow, "wide": stats_wide})
    return AblationReport(
        "depth_extremes", tables, _digest(model_cfg, train_cfg, env_cfg),
        extras={"sensitivity_counts": sensitivity},
    )


def consecutive_depth_pairs(dataset: list[sim.Trajectory], limit: int
                            ) -> list[tuple[Array, Array]]:
    """(t, t+1) static-camera depth pairs drawn from demonstrations, at
    most limit of them; limit must be at least 1."""
    if limit < 1:
        raise ContractError(f"a pair limit must be at least 1, got {limit}")
    pairs = []
    for traj in dataset:
        for (obs_a, _), (obs_b, _) in zip(traj.steps, traj.steps[1:]):
            pairs.append((np.asarray(obs_a.depth_static, dtype=np.float64),
                          np.asarray(obs_b.depth_static, dtype=np.float64)))
            if len(pairs) >= limit:
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
