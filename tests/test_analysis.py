import numpy as np
import pytest

from conftest import (Recording, action_bytes, count_encodes, synthetic_stats,
                      tiny_config)

from minivla import analysis as an
from minivla import depth as dp
from minivla import policy as pol
from minivla import sim
from minivla import training as tr
from minivla.config import EnvConfig, TrainConfig
from minivla.errors import ContractError, ValidationError


def chains_with_prefix_counts(counts, n):
    """Build n ChainResults where counts[i] chains complete tasks 0..i."""
    results = []
    for j in range(n):
        successes = [j < counts[i] for i in range(5)]
        results.append(sim.ChainResult(successes, seed=j, palette="D"))
    return results


class TestAggregateChainMetrics:
    def test_published_row_abcd(self):
        # rates (0.96, 0.87, 0.78, 0.705, 0.625) over 200 chains -> avg 3.94
        counts = [192, 174, 156, 141, 125]
        table = an.aggregate_chain_metrics(chains_with_prefix_counts(counts, 200))
        np.testing.assert_allclose(table.rates, (0.96, 0.87, 0.78, 0.705, 0.625),
                                   atol=1e-12)
        assert abs(table.avg - 3.94) < 1e-9

    def test_published_row_enriched(self):
        # rates (0.46, 0.205, 0.095, 0.055, 0.015) -> avg 0.83
        counts = [92, 41, 19, 11, 3]
        table = an.aggregate_chain_metrics(chains_with_prefix_counts(counts, 200))
        np.testing.assert_allclose(table.rates, (0.46, 0.205, 0.095, 0.055, 0.015),
                                   atol=1e-12)
        assert abs(table.avg - 0.83) < 1e-9

    def test_all_fail(self):
        table = an.aggregate_chain_metrics(chains_with_prefix_counts([0] * 5, 50))
        assert table.rates == (0.0,) * 5
        assert table.avg == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            an.aggregate_chain_metrics([])

    def test_prefix_monotonicity_enforced_and_satisfied(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            results = []
            for j in range(40):
                k = int(rng.integers(0, 6))
                results.append(sim.ChainResult([i < k for i in range(5)], j, "D"))
            table = an.aggregate_chain_metrics(results)
            for a, b in zip(table.rates, table.rates[1:]):
                assert a >= b
            assert table.avg == sum(table.rates)

    def test_non_prefix_successes_counted_by_prefix(self):
        # A chain recorded as [False, True, ...] contributes to no rate.
        results = [sim.ChainResult([False, True, True, True, True], 0, "D"),
                   sim.ChainResult([True, False, False, False, False], 1, "D")]
        table = an.aggregate_chain_metrics(results)
        assert table.rates == (0.5, 0.0, 0.0, 0.0, 0.0)


def quick_dataset(variant="standard", n=6):
    return sim.generate_dataset(n, 40, ["A"], families=["lift"], variant=variant)


def quick_setup(variant="standard"):
    data = quick_dataset(variant)
    stats = dp.compute_stats([f for t in data for o, _ in t.steps
                              for f in (o.depth_static, o.depth_gripper)])
    model_cfg = tiny_config(patch=8)
    train_cfg = TrainConfig(epochs=1, seed=0)
    env_cfg = EnvConfig(palettes=["A"], eval_palette="D", families=["lift"],
                        variant=variant, n_chains=3, horizon=16)
    return data, stats, model_cfg, train_cfg, env_cfg


def policy_model(seed=0, sep_resampler=False):
    model = pol.init_model(tiny_config(patch=8, seed=seed, sep_resampler=sep_resampler),
                           synthetic_stats())
    for layer in model.decoder:
        layer["cross.alpha"].data = np.asarray(0.5)  # instructions reach the actions
    return model


def evaluate(agent):
    return an.run_chain_eval(agent, 2, "D", 11, families=["lift"], horizon=16)


def pair_of(kind):
    if kind == "clones":
        models = [policy_model(), policy_model()]
        pol.share_frame_memo(*models)
        return [pol.PolicyAgent(m) for m in models]
    if kind == "different-seeds":
        return [pol.PolicyAgent(policy_model(0)), pol.PolicyAgent(policy_model(1))]
    return [pol.PolicyAgent(policy_model()), sim.ExpertAgent()]  # chains of other lengths


class TestPairedChainEval:
    @pytest.mark.parametrize("kind", ["clones", "different-seeds", "policy-and-expert"])
    def test_each_agent_gets_what_it_gets_alone(self, kind):
        logs = ([], [])
        paired = evaluate(tuple(Recording(a, log) for a, log in zip(pair_of(kind), logs)))
        assert len(paired) == 2
        for k, agent in enumerate(pair_of(kind)):
            log = []
            alone = evaluate(Recording(agent, log))
            assert [r.chain_id for r in alone] == [0, 1]
            assert paired[k] == alone
            assert action_bytes(logs[k]) == action_bytes(log)

    def test_init_arms_as_a_pair_encode_as_many_frames_as_the_shared_arm_alone(
            self, monkeypatch):
        cameras = count_encodes(monkeypatch)
        arms = [policy_model(), policy_model(sep_resampler=True)]
        pol.share_frame_memo(*arms)
        paired = evaluate(tuple(pol.PolicyAgent(m) for m in arms))
        paired_frames = len(cameras)
        del cameras[:]
        alone = evaluate(pol.PolicyAgent(policy_model()))
        assert paired_frames == len(cameras) > 0
        assert paired[0] == paired[1] == alone


class TestSepResamplerAblation:
    def test_harness_pairs_variants(self, monkeypatch):
        encoded_for = []
        encode_dataset = tr.encode_dataset

        def counting_encode(model, dataset):
            encoded_for.append(model.cfg.sep_resampler)
            return encode_dataset(model, dataset)

        monkeypatch.setattr(tr, "encode_dataset", counting_encode)
        data, stats, model_cfg, train_cfg, env_cfg = quick_setup()
        report = an.run_sep_resampler_ablation(model_cfg, stats, data,
                                               train_cfg, env_cfg)
        assert len(encoded_for) == 1  # one encoding serves both arms
        assert set(report.tables) == {"shared", "separate"}
        assert report.extras["init_evaluations_identical"] is True
        counts = report.extras["resampler_param_counts"]
        assert counts["separate"] == 2 * counts["shared"]
        for table in report.tables.values():
            assert list(table.rates) == sorted(table.rates, reverse=True)
            assert table.avg == sum(table.rates)
            assert table.n_chains == 3

    def test_shared_and_separate_identical_at_init(self):
        cfg = tiny_config()
        shared = pol.init_model(cfg, synthetic_stats())
        import dataclasses
        sep = pol.init_model(dataclasses.replace(cfg, sep_resampler=True),
                             synthetic_stats())
        for key in ("latents", "wk", "wv"):
            base = shared.params[f"resampler.shared.{key}"].data
            assert np.array_equal(base, sep.params[f"resampler.rgb.{key}"].data)
            assert np.array_equal(base, sep.params[f"resampler.depth.{key}"].data)


@pytest.mark.parametrize("harness", ["sep-resampler", "depth-extremes"])
def test_harness_evaluates_both_arms_with_one_paired_call(monkeypatch, harness):
    calls = []
    real = an.run_chain_eval

    def recording(agent, *args, **kwargs):
        models = [a.model for a in agent]
        calls.append(all(m._frame_memo is models[0]._frame_memo for m in models))
        return real(agent, *args, **kwargs)

    monkeypatch.setattr(an, "run_chain_eval", recording)
    data, stats, model_cfg, train_cfg, env_cfg = quick_setup()
    if harness == "sep-resampler":
        an.run_sep_resampler_ablation(model_cfg, stats, data, train_cfg, env_cfg)
    else:
        an.run_depth_extremes_ablation(model_cfg, dp.DepthStats(0.0, 2.0, 0.5, 0.3),
                                       dp.DepthStats(0.0, 20.0, 0.5, 0.3), data,
                                       train_cfg, env_cfg)
    # At initialization (sep-resampler only) and after training; one memo each time.
    assert calls == [True] * (2 if harness == "sep-resampler" else 1)


class TestDepthExtremesAblation:
    def test_containment_precondition(self):
        data, stats, model_cfg, train_cfg, env_cfg = quick_setup()
        narrow = dp.DepthStats(0.0, 2.0, 0.5, 0.3)
        not_wide = dp.DepthStats(0.5, 1.5, 0.5, 0.3)
        with pytest.raises(ValidationError, match="must strictly contain"):
            an.run_depth_extremes_ablation(model_cfg, narrow, not_wide, data,
                                           train_cfg, env_cfg)

    def test_reference_toy_run(self):
        data, stats, model_cfg, train_cfg, env_cfg = quick_setup()
        narrow = dp.DepthStats(0.0, 2.0, 0.5, 0.3)
        wide = dp.DepthStats(0.0, 20.0, 0.5, 0.3)
        report = an.run_depth_extremes_ablation(model_cfg, narrow, wide, data,
                                                train_cfg, env_cfg)
        assert set(report.tables) == {"narrow", "wide"}
        counts = report.extras["sensitivity_counts"]
        for n, w in zip(counts["narrow"], counts["wide"]):
            assert n >= w


class TestConsecutiveDepthPairs:
    def test_limit_caps_the_pairs(self):
        data = quick_dataset(n=2)
        every = sum(len(t.steps) - 1 for t in data)
        assert len(an.consecutive_depth_pairs(data, limit=every + 1)) == every
        assert len(an.consecutive_depth_pairs(data, limit=3)) == 3

    @pytest.mark.parametrize("limit", [0, -4])
    def test_a_limit_below_one_is_rejected(self, limit):
        with pytest.raises(ContractError, match=f"at least 1, got {limit}"):
            an.consecutive_depth_pairs(quick_dataset(n=1), limit=limit)


class TestSensitivityReport:
    def test_identical_pair_counts_zero(self):
        frame = np.full((4, 4), 1.0)
        stats = {"narrow": dp.DepthStats(0.0, 2.0, 0.5, 0.3),
                 "wide": dp.DepthStats(0.0, 20.0, 0.5, 0.3)}
        out = an.depth_sensitivity_report([(frame, frame.copy())], stats)
        assert out == {"narrow": [0], "wide": [0]}

    def test_centimeter_change_narrow_counts_wide_does_not(self):
        a = np.full((2, 2), 0.50)
        b = a.copy()
        b[0, 0] = 0.51
        stats = {"narrow": dp.DepthStats(0.0, 1.0, 0.5, 0.3),
                 "wide": dp.DepthStats(0.0, 10.0, 0.5, 0.3)}
        out = an.depth_sensitivity_report([(a, b)], stats)
        assert out["narrow"] == [1]
        assert out["wide"] == [0]

    def test_counts_bounded(self, rng):
        pairs = [(rng.random((8, 8)), rng.random((8, 8))) for _ in range(3)]
        out = an.depth_sensitivity_report(
            pairs, {"s": dp.DepthStats(0.0, 1.0, 0.5, 0.3)})
        for c in out["s"]:
            assert 0 <= c <= 64

    def test_empty_pairs_rejected(self):
        with pytest.raises(ContractError):
            an.depth_sensitivity_report([], {"s": dp.DepthStats(0.0, 1.0, 0.5, 0.3)})
