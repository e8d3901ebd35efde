import concurrent.futures
import json
import threading

import numpy as np
import pytest

from conftest import (Recording, action_bytes, count_encodes, needs_openblas, needs_proc,
                      on_another_openblas_core, run_chain, synthetic_stats, thread_count,
                      tiny_config)

from minivla import analysis as an
from minivla import depth as dp
from minivla import policy as pol
from minivla import sim
from minivla import training as tr
from minivla.config import EnvConfig, TrainConfig
from minivla.errors import ContractError, DimensionError, ValidationError


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


def over_frozen_encoder_of(model, seed):
    """A model of another seed that has model's frozen encoder weights,
    as when several seeds are trained over one frozen encoder."""
    other = policy_model(seed)
    for key, arr in other.vit.items():
        arr[...] = model.vit[key]
    assert pol.same_frozen_encoder(model, other)
    return other


N_CHAINS = 3


def evaluate(agent, families=("lift",)):
    return an.run_chain_eval(agent, N_CHAINS, "D", 11, families=list(families), horizon=16)


class Steered(pol.PolicyAgent):
    """A policy agent that steps its policy on every observation but
    returns the expert's action, so its chains succeed now and then and
    end at different steps."""

    def __init__(self, model):
        super().__init__(model)
        self.expert = sim.ExpertAgent()

    def for_chain(self):
        return Steered(super().for_chain().model)

    def reset(self):
        super().reset()
        self.expert.reset()

    def begin_task(self, task, instruction):
        super().begin_task(task, instruction)
        self.expert.begin_task(task, instruction)

    def act(self, obs, instruction, state=None):
        super().act(obs, instruction, state=state)
        return self.expert.act(obs, instruction, state=state)


def agents_of(kind) -> tuple:
    """Fresh agents of one kind of evaluation: one agent, or two arms."""
    if kind == "one-policy":
        return (pol.PolicyAgent(policy_model()),)
    if kind == "clones":
        models = [policy_model(), policy_model()]
        return tuple(pol.PolicyAgent(m) for m in models)
    if kind == "different-seeds":  # other trainable weights over one frozen encoder
        model = policy_model(0)
        return pol.PolicyAgent(model), pol.PolicyAgent(over_frozen_encoder_of(model, 1))
    if kind == "steered-and-clone":  # chains of other lengths, sharing memos
        return Steered(policy_model()), pol.PolicyAgent(policy_model())
    return pol.PolicyAgent(policy_model()), sim.ExpertAgent()  # policy-and-expert


def acted(evaluate) -> list[list[str]]:
    """Per PolicyAgent that acts in evaluate(), in the order they first act,
    each action as the hex of its pose bytes and its gripper bit. The
    policy's action, for a Steered agent."""
    logs: dict[int, tuple[pol.PolicyAgent, list[str]]] = {}
    real = pol.PolicyAgent.act

    def act(self, obs, instruction, state=None):
        action = real(self, obs, instruction, state=state)
        # The agent is kept, so no later agent of evaluate() reuses its id.
        logs.setdefault(id(self), (self, []))[1].append(
            action.pose.tobytes().hex() + "01"[action.gripper_closed])
        return action

    pol.PolicyAgent.act = act
    try:
        evaluate()
    finally:
        pol.PolicyAgent.act = real
    return [log for _, log in logs.values()]


def logged(agents: tuple) -> tuple:
    """agents with every agent that is no PolicyAgent (an expert) wrapped
    to log its actions; acted logs the PolicyAgents'."""
    return tuple(a if isinstance(a, pol.PolicyAgent) else Recording(a, []) for a in agents)


def as_evaluated(agents: tuple):
    """What run_chain_eval is given: a lone agent, or a tuple of arms."""
    return agents if len(agents) > 1 else agents[0]


class TestPairedChainEval:
    KINDS = ["one-policy", "clones", "different-seeds", "policy-and-expert",
             "steered-and-clone"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_agent_gets_what_it_gets_alone(self, monkeypatch, kind):
        """Every chain of every agent, stepped with the others in rounds,
        gets the result and actions it gets evaluated alone, sequentially;
        the rounds step PolicyAgents together."""
        sizes = []  # agents per step_agents call
        real_step = pol.step_agents

        def step_agents(steps):
            sizes.append(len(steps))
            real_step(steps)

        monkeypatch.setattr(pol, "step_agents", step_agents)
        arms = logged(agents_of(kind))
        evaluated = []
        policy_logs = acted(lambda: evaluated.append(
            evaluate(as_evaluated(arms), families=sim.FAMILIES)))
        results = evaluated[0] if len(arms) > 1 else evaluated
        assert max(sizes) >= 2  # a grouped step_agents call
        # Every chain's agents act in the first round, chain by chain, so
        # the logs are those of each chain's PolicyAgents in arm order.
        policies = [k for k, a in enumerate(arms) if isinstance(a, pol.PolicyAgent)]
        assert len(policy_logs) == N_CHAINS * len(policies)
        for k, arm in enumerate(arms):
            got = results[k]
            assert [r.chain_id for r in got] == list(range(N_CHAINS))
            for i in range(N_CHAINS):
                alone = logged(agents_of(kind))[k]
                chain = sim.sample_chain(11 + i, "D", families=sim.FAMILIES)
                wanted = []
                alone_logs = acted(lambda: wanted.append(
                    run_chain(alone, chain, max_steps_per_task=16)))
                want = wanted[0]
                want.chain_id = i
                assert got[i] == want
                if k in policies:
                    (alone_log,) = alone_logs
                    assert policy_logs[i * len(policies) + policies.index(k)] == alone_log
                else:
                    assert action_bytes(arm.chain_logs[i]) == action_bytes(alone.log)
        if kind == "different-seeds":  # the seeds act differently on the same chains
            assert policy_logs[0] != policy_logs[1]
        if kind == "steered-and-clone":
            steps = [len(log) for log in policy_logs[0::2]]  # the Steered arm's chains
            assert len(set(steps)) > 1 and max(steps) > 16  # chains end at different steps

    @pytest.mark.parametrize("kind", ["one-policy", "clones", "steered-and-clone"])
    def test_lockstep_encodes_as_many_frames_as_a_sequential_evaluation(
            self, monkeypatch, kind):
        # Reuse is scoped to a chain, so the chains of one evaluation encode
        # as many frames as the same chains evaluated one at a time.
        cameras = count_encodes(monkeypatch)
        evaluate(as_evaluated(agents_of(kind)), families=sim.FAMILIES)
        lockstepped = len(cameras)
        del cameras[:]
        agents = as_evaluated(agents_of(kind))
        for i in range(N_CHAINS):
            an.run_chain_eval(agents, 1, "D", 11 + i, families=sim.FAMILIES, horizon=16)
        assert lockstepped == len(cameras) > 0

    @pytest.mark.parametrize("other", ["policy", "steered"])
    def test_different_frozen_encoders_are_refused(self, monkeypatch, other):
        cameras = count_encodes(monkeypatch)
        sampled = []
        monkeypatch.setattr(an.sim, "sample_chain",
                            lambda *args, **kwargs: sampled.append(args))
        second = policy_model(1)
        agents = (pol.PolicyAgent(policy_model(0)),
                  pol.PolicyAgent(second) if other == "policy" else Steered(second))
        with pytest.raises(ContractError, match="different frozen encoders"):
            evaluate(agents)
        assert cameras == [] and sampled == []

    def test_each_step_checks_and_preprocesses_its_frames_once(self, monkeypatch):
        calls = {"act": 0, "preprocess_depth": 0, "check_observation": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)

        counted(pol.PolicyAgent, "act")
        counted(pol.dp, "preprocess_depth")
        counted(pol.sim, "check_observation")
        evaluate(as_evaluated(agents_of("one-policy")))
        assert calls["act"] > 0
        assert calls == {"act": calls["act"], "preprocess_depth": 2 * calls["act"],
                         "check_observation": calls["act"]}

    def test_init_arms_as_a_pair_encode_as_many_frames_as_the_shared_arm_alone(
            self, monkeypatch):
        cameras = count_encodes(monkeypatch)
        arms = [policy_model(), policy_model(sep_resampler=True)]
        paired = evaluate(tuple(pol.PolicyAgent(m) for m in arms))
        paired_frames = len(cameras)
        del cameras[:]
        alone = evaluate(pol.PolicyAgent(policy_model()))
        assert paired_frames == len(cameras) > 0
        assert paired[0] == paired[1] == alone

    def test_random_agent_chains_do_not_depend_on_the_wave(self, monkeypatch):
        def chain_actions():
            agent = Recording(sim.RandomAgent(3), [])
            results = evaluate(agent, families=sim.FAMILIES)
            return results, [action_bytes(log) for log in agent.chain_logs]

        whole = chain_actions()
        monkeypatch.setattr(an, "CHAINS_PER_WAVE", 1)
        assert chain_actions() == whole
        source = sim.RandomAgent(3)
        for i, (result, actions) in enumerate(zip(*whole)):  # the i-th chain agent
            log = []
            chain = sim.sample_chain(11 + i, "D", families=sim.FAMILIES)
            want = run_chain(Recording(source.for_chain(), log), chain, max_steps_per_task=16)
            want.chain_id = i
            assert result == want and actions == action_bytes(log)

    def test_policy_chains_do_not_depend_on_cpus_or_waves(self, monkeypatch):
        runs = {}
        for cpus in (1, 8):
            monkeypatch.setattr(an.enc, "usable_cpus", lambda n=cpus: n)
            for wave in (1, 2, an.CHAINS_PER_WAVE):
                with monkeypatch.context() as patch:
                    patch.setattr(an, "CHAINS_PER_WAVE", wave)
                    runs[cpus, wave] = policy_chain_actions()
        results, logs = runs[1, 1]
        assert [r.chain_id for r in results] == list(range(POLICY_CHAINS))
        assert len(logs) == POLICY_CHAINS and all(logs)
        assert all(run == (results, logs) for run in runs.values())

    def test_live_chains_never_exceed_a_wave(self, monkeypatch):
        agents = agents_of("steered-and-clone")
        whole = evaluate(agents, families=sim.FAMILIES)
        monkeypatch.setattr(an, "CHAINS_PER_WAVE", 2)
        live = []
        real = pol.encode_round

        def counting(chains):
            live.append([len(chain) for chain in chains])
            return real(chains)

        monkeypatch.setattr(pol, "encode_round", counting)
        assert evaluate(agents, families=sim.FAMILIES) == whole
        assert max(map(len, live)) == 2  # two chains, each of both twins
        assert max(n for chains in live for n in chains) == len(agents)


POLICY_CHAINS = 4


def painted(monkeypatch) -> list[int]:
    """The number of states of each sim.render_observation call from here on."""
    calls = []
    render = sim.render_observation
    monkeypatch.setattr(sim, "render_observation",
                        lambda states: calls.append(len(states)) or render(states))
    return calls


class TestPaintedRounds:
    def test_one_painter_call_per_round_and_one_state_per_policy_step(self, monkeypatch):
        """A 4-chain evaluation of a policy arm and an expert arm paints each
        round in one call, one state per PolicyAgent step; the rounds after
        every policy chain has ended, expert steps only, paint nothing."""
        calls = painted(monkeypatch)
        rounds = []  # PolicyAgent steps per round
        act_round = pol.act_round
        monkeypatch.setattr(pol, "act_round", lambda chains: rounds.append(
            sum(map(len, chains))) or act_round(chains))
        policy_logs = acted(lambda: an.run_chain_eval(
            (pol.PolicyAgent(policy_model()), sim.ExpertAgent()), 4, "D", 11,
            families=["lift"], horizon=6))
        assert len(policy_logs) == 4 and max(calls) == 4
        assert calls == [n for n in rounds if n]
        assert sum(calls) == sum(map(len, policy_logs))
        assert 0 in rounds  # rounds of expert steps only

    @pytest.mark.parametrize("make_agent", [sim.ExpertAgent, lambda: sim.RandomAgent(2)],
                             ids=["expert", "random"])
    def test_agents_that_read_no_pixels_paint_nothing(self, monkeypatch, make_agent):
        calls = painted(monkeypatch)
        results = an.run_chain_eval(make_agent(), 4, "D", 11, horizon=6)
        assert len(results) == 4 and calls == []


def policy_chain_actions() -> tuple[list[sim.ChainResult], list[list[str]]]:
    """The results of evaluating one policy on POLICY_CHAINS chains over
    every family, and each chain's actions (acted), in chain order."""
    agent = pol.PolicyAgent(policy_model())
    evaluated = []
    logs = acted(lambda: evaluated.append(an.run_chain_eval(
        agent, POLICY_CHAINS, "D", 11, families=sim.FAMILIES, horizon=16)))
    return evaluated[0], logs


class TestEvaluationThreads:
    """The helper threads of an evaluation whose rounds use them: two
    usable CPUs and waves of two chains, so the POLICY_CHAINS chains run
    in two waves, and each wave's first round has 8 new frames, one batch
    per camera: one job for the calling thread and one for a helper."""

    @staticmethod
    def pools(monkeypatch) -> list[int]:
        """Set up the evaluation above; per ThreadPoolExecutor built, the
        helper tasks submitted to it."""
        monkeypatch.setattr(an.enc, "usable_cpus", lambda: 2)
        monkeypatch.setattr(an, "CHAINS_PER_WAVE", 2)
        pools = []
        real = concurrent.futures.ThreadPoolExecutor

        class Counting(real):
            def __init__(self, workers, **kwargs):
                pools.append(0)
                super().__init__(workers, **kwargs)

            def submit(self, *args, **kwargs):
                pools[-1] += 1
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
        return pools

    @needs_proc
    def test_one_pool_serves_every_wave_and_ends_with_the_evaluation(self, monkeypatch):
        pools = self.pools(monkeypatch)
        submitted = []  # per wave: the helper tasks its rounds submitted
        real_wave = an._run_wave

        def wave(agents, chains, *args):
            first = sum(pools)
            results = real_wave(agents, chains, *args)
            submitted.append(sum(pools) - first)
            return results

        monkeypatch.setattr(an, "_run_wave", wave)
        before = thread_count()
        results, logs = policy_chain_actions()
        assert thread_count() == before
        assert len(pools) == 1 and len(submitted) == 2 and min(submitted) > 0
        assert len(results) == len(logs) == POLICY_CHAINS

    @needs_proc
    def test_an_encoder_error_on_a_helper_ends_the_evaluation(self, monkeypatch):
        pools = self.pools(monkeypatch)
        caller = threading.get_ident()
        helper_started = threading.Event()
        raised = []
        real = an.enc.vit_encode_image

        def failing_on_a_helper(img, vit, patch, blocks, camera):
            if threading.get_ident() == caller:
                assert helper_started.wait(10.0)  # a helper takes a job first
                return real(img, vit, patch, blocks, camera=camera)
            helper_started.set()
            raised.append(DimensionError("a frame rejected on a helper thread"))
            raise raised[-1]

        monkeypatch.setattr(an.enc, "vit_encode_image", failing_on_a_helper)
        before = thread_count()
        with pytest.raises(DimensionError, match="rejected on a helper thread") as err:
            policy_chain_actions()
        assert len(raised) == 1 and err.value.__cause__ is raised[0]
        assert thread_count() == before
        assert pools == [1]  # the first round's one helper task; no second wave


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
    evaluations, rounds = [], []  # rounds: per evaluation, each round's groups per chain
    real_eval, real_round = an.run_chain_eval, pol.encode_round

    def recording(agent, n_chains, *args, **kwargs):
        evaluations.append((tuple(a.model.params for a in agent), n_chains))
        rounds.append([])
        return real_eval(agent, n_chains, *args, **kwargs)

    def grouping(chains):
        rounds[-1].append([[model.params for model, _ in chain] for chain in chains])
        real_round(chains)

    monkeypatch.setattr(an, "run_chain_eval", recording)
    monkeypatch.setattr(pol, "encode_round", grouping)
    data, stats, model_cfg, train_cfg, env_cfg = quick_setup()
    if harness == "sep-resampler":
        an.run_sep_resampler_ablation(model_cfg, stats, data, train_cfg, env_cfg)
    else:
        an.run_depth_extremes_ablation(model_cfg, dp.DepthStats(0.0, 2.0, 0.5, 0.3),
                                       dp.DepthStats(0.0, 20.0, 0.5, 0.3), data,
                                       train_cfg, env_cfg)
    # At initialization (sep-resampler only) and after training, one call
    # with both arms; each round is one encode_round call with one group
    # per chain and arm still stepping, both arms at the first round.
    assert len(evaluations) == (2 if harness == "sep-resampler" else 1)
    for (arms, n_chains), shapes in zip(evaluations, rounds):
        assert len(arms) == 2
        assert shapes[0] == [list(arms)] * n_chains
        for chains in shapes:
            assert len(chains) == n_chains
            assert all(0 < len(chain) <= 2 and set(map(id, chain)) <= set(map(id, arms))
                       for chain in chains)


# Chains 9-12 on D, drawn from every family, begin with instructions of 4,
# 4, 7 and 5 tokens: a round of their first tasks makes three groups per
# ParamSet. None succeeds within the horizon, so every round is like that.
GROUPED_SEED, GROUPED_CHAINS, GROUPED_HORIZON = 9, 4, 3
GROUPED_KINDS = ("one-policy", "two-arms")


def grouped_arms(kind) -> tuple:
    """The agents of one evaluation: one policy, or two arms whose
    ParamSets differ, over one frozen encoder."""
    model = policy_model(0)
    if kind == "one-policy":
        return (pol.PolicyAgent(model),)
    return pol.PolicyAgent(model), pol.PolicyAgent(over_frozen_encoder_of(model, 1))


def round_and_alone_actions(kind) -> dict[str, list[list[str]]]:
    """Every chain's actions, per chain and arm: stepped in lockstep rounds
    of one evaluation ("rounds"), and each chain run on its own ("alone")."""
    arms = grouped_arms(kind)
    rounds = acted(lambda: an.run_chain_eval(arms if len(arms) > 1 else arms[0],
                                             GROUPED_CHAINS, "D", GROUPED_SEED,
                                             horizon=GROUPED_HORIZON))
    alone = []
    for i in range(GROUPED_CHAINS):
        chain = sim.sample_chain(GROUPED_SEED + i, "D")
        for arm in grouped_arms(kind):
            alone += acted(lambda: run_chain(arm.for_chain(), chain,
                                             max_steps_per_task=GROUPED_HORIZON))
    return {"rounds": rounds, "alone": alone}


class TestRoundGroups:
    """A round steps the PolicyAgents that share a ParamSet and an
    instruction length with one policy_core call, each chain bitwise as if
    it ran alone."""

    @pytest.mark.parametrize("kind", GROUPED_KINDS)
    def test_each_chain_acts_as_it_does_alone(self, kind):
        got = round_and_alone_actions(kind)
        assert len(got["rounds"]) == GROUPED_CHAINS * len(grouped_arms(kind))
        assert all(len(log) == GROUPED_HORIZON for log in got["rounds"])
        assert got["rounds"] == got["alone"]

    @needs_openblas
    def test_each_chain_acts_as_it_does_alone_on_another_openblas_core(self):
        other = json.loads(on_another_openblas_core(
            "import json, test_analysis as t; "
            "print(json.dumps([t.round_and_alone_actions(k) for k in t.GROUPED_KINDS]))"))
        for got in other:
            assert len(got["rounds"]) > 0 and got["rounds"] == got["alone"]

    @pytest.mark.parametrize("kind", GROUPED_KINDS)
    def test_one_policy_core_call_per_group(self, monkeypatch, kind):
        calls = []  # per round, per policy_core call: (ParamSet, chains, tokens)
        real_core, real_round = pol.policy_core, pol.act_round

        def core(model, encoded, instr, hidden):
            calls[-1].append((id(model.params), len(instr), instr.shape[1]))
            return real_core(model, encoded, instr, hidden)

        def act_round(chains):
            calls.append([])
            real_round(chains)

        monkeypatch.setattr(pol, "policy_core", core)
        monkeypatch.setattr(pol, "act_round", act_round)
        arms = grouped_arms(kind)
        results = an.run_chain_eval(arms if len(arms) > 1 else arms[0], GROUPED_CHAINS,
                                    "D", GROUPED_SEED, horizon=GROUPED_HORIZON)
        assert not any(r.successes[0] for arm in (results if len(arms) > 1 else [results])
                       for r in arm)
        # Token counts {4, 4, 5, 7}: three calls per ParamSet, the two
        # four-token chains in one; arms of other ParamSets never share one.
        per_params = [(2, 4), (1, 5), (1, 7)]
        want = sorted((id(a.model.params), *group) for a in arms for group in per_params)
        assert len(calls) == GROUPED_HORIZON
        assert all(sorted(round_calls) == want for round_calls in calls)


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
