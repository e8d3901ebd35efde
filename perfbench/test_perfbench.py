"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import json
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

import run  # pins BLAS threads before numpy work starts

sys.path.insert(0, str(run.SRC))

import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Ledger, Tracer, percentile, summarize, tail_percentile  # noqa: E402


def nominal_probe():
    """A probe of a host running at its nominal speed, without running the probe's work."""
    return hostspeed.NOMINAL_S


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("minivla._fake")
    exec(
        "def inner(clock):\n"
        "    clock.advance(2.0)\n"
        "def outer(clock):\n"
        "    clock.advance(1.0)\n"
        "    inner(clock)\n"
        "    inner(clock)\n"
        "    clock.advance(0.5)\n",
        mod.__dict__,
    )
    monkeypatch.setitem(sys.modules, "minivla._fake", mod)
    return mod


def test_self_time_is_span_time_minus_child_spans(fake_module):
    clock = FakeClock()
    # A hook that takes time must not count towards any span.
    hooks = {"_fake.inner": (None, lambda counters, state, result: clock.advance(10.0))}
    with Tracer(["_fake.outer", "_fake.inner"], hooks, clock=clock) as tracer:
        fake_module.outer(clock)
    outer, inner = tracer.stats["_fake.outer"], tracer.stats["_fake.inner"]
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 5.5, 1.5)
    assert (inner.calls, inner.total_s, inner.self_s) == (2, 4.0, 4.0)
    assert inner.self_durations == [2.0, 2.0]


def test_tracer_restores_every_wrapped_attribute():
    import minivla.policy as pol

    def snapshot():
        owners = [m for name, m in sys.modules.items()
                  if m is not None and name.startswith("minivla")]
        owners += [pol.Model, pol.PolicyAgent, sys.modules["minivla.training"].Adam]
        return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    before = snapshot()
    original_step = pol.encode_observation
    with pytest.raises(RuntimeError):
        with Tracer(wl.LAYER_SPANS) as tracer:
            assert tracer.missing == []
            assert pol.encode_observation is not original_step
            assert pol.PolicyAgent.act is not before[(id(pol.PolicyAgent), "act")]
            raise RuntimeError("leave the block by an exception")
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9
    samples = list(range(1, 1001))
    s = summarize(samples)
    assert s == {"n": 1000, "p50": 500.5, "p99": 990}
    assert sum(x > s["p99"] for x in samples) == 10
    assert summarize(range(50)) == {"n": 50, "p50": 24.5}
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_ledger_counts_failures_against_attempts():
    ledger = Ledger()
    ledger.ops(5)
    assert ledger.check("passes", True)
    assert not ledger.check("fails", False, "wrong output")
    ledger.ops(3, 3, "repetition 1: ValueError: boom")
    assert (ledger.attempted, ledger.failed) == (10, 4)
    assert ledger.failed_frac == 0.4
    assert ledger.problems == ["fails: wrong output", "repetition 1: ValueError: boom"]


def test_diff_catches_a_one_ulp_perturbation():
    outcome = {"losses": [5.2, 5.1], "steps": 256, "ok": True}
    assert wl.diff(outcome, wl.as_json(outcome)) == []
    nudged = {**outcome, "losses": [5.2, float(np.nextafter(5.1, 6.0))]}
    assert wl.diff(outcome, nudged) == [f".losses[1]: {nudged['losses'][1]!r} != 5.1"]
    assert wl.diff(outcome, nudged, rel=1e-9) == []
    assert wl.diff(outcome, {**outcome, "ok": 1}) != []
    assert wl.diff(outcome, {**outcome, "steps": 255}) != []


class TinyRollout(wl.RolloutWorkload):
    CHAINS = 1
    HORIZON = 3


class Exploding(TinyRollout):
    def run(self, inputs, out_dir):
        raise ValueError("boom")


class Lingering(TinyRollout):
    """Leaves a thread running after the timed command, which would slow the probe."""

    def run(self, inputs, out_dir):
        self.thread = threading.Thread(target=time.sleep, args=(0.5,))
        self.thread.start()
        return super().run(inputs, out_dir)


@pytest.fixture
def tiny(tmp_path):
    workload = TinyRollout()
    return workload, workload.prepare(tmp_path / "setup", workload.plan(0)), tmp_path


def test_run_reps_counts_a_perturbed_output_and_an_exception(tiny):
    workload, inputs, tmp = tiny
    outcome = run.timed_rep(workload, inputs, tmp / "rep", False, nominal_probe).outcome
    assert outcome["steps"] == 3

    ledger = Ledger()
    good = {k: outcome[k] for k in workload.REFERENCE_KEYS}
    reps, first, _ = run.run_reps(workload, inputs, 0, 0, tmp / "a", ledger, good,
                                  nominal_probe)
    assert len(reps) == run.MIN_REPS and first == outcome
    assert ledger.failed == 0

    bad = {**good, "successes": [[True] + good["successes"][0][1:]]}
    ledger = Ledger()
    run.run_reps(workload, inputs, 0, 0, tmp / "b", ledger, bad, nominal_probe)
    assert ledger.failed == run.MIN_REPS  # every repetition misses the reference
    assert all(p.startswith("matches the recorded reference") for p in ledger.problems)

    ledger = Ledger()
    reps, _, _ = run.run_reps(Exploding(), inputs, 0, 0, tmp / "c", ledger, None,
                              nominal_probe)
    assert reps == []
    assert ledger.attempted == ledger.failed == run.MIN_REPS * workload.CHAINS


def test_reference_check_fails_on_a_perturbed_policy(tiny, monkeypatch):
    import minivla.policy as pol

    workload, inputs, tmp = tiny
    outcome = run.timed_rep(workload, inputs, tmp / "rep", False, nominal_probe).outcome
    good = {k: outcome[k] for k in workload.REFERENCE_KEYS}
    assert any(good["action_pose_abs_sum"])

    original = pol.encode_observation

    def perturbed(model, obs):
        return tuple(a * (1.0 + 1e-6) for a in original(model, obs))

    monkeypatch.setattr(pol, "encode_observation", perturbed)
    ledger = Ledger()
    _, changed, _ = run.run_reps(workload, inputs, 0, 0, tmp / "a", ledger, good,
                                 nominal_probe)
    assert changed["successes"] == good["successes"] and changed["steps"] == good["steps"]
    assert ledger.failed == run.MIN_REPS  # the action summaries miss the reference
    assert all(p.startswith("matches the recorded reference: action_pose")
               for p in ledger.problems)


def test_dataset_digest_matches_the_round_trip_and_nothing_else(tmp_path):
    import minivla.persist as persist

    data = wl.demo_set(wl.Plan(0, ((0, "press", "A"),)))
    persist.save_dataset(data, tmp_path / "data")
    loaded = persist.load_dataset(tmp_path / "data")
    assert wl.dataset_digest(loaded) == wl.dataset_digest(data)
    loaded[0].steps[-1][0].depth_gripper[0, 0] += 1e-3
    assert wl.dataset_digest(loaded) != wl.dataset_digest(data)


def test_set_up_runs_in_fresh_interpreters_spread_over_the_run(tmp_path):
    workload = wl.WORKLOADS["rollout"]
    plan = workload.plan(0)
    setup = run.SetUp(workload, plan, tmp_path, nominal_probe)
    assert isinstance(setup.inputs, wl.RolloutInputs) and len(setup.replies) == 1
    here = workload.prepare(tmp_path / "here", plan)
    assert Path(setup.inputs.checkpoint).read_bytes() == Path(here.checkpoint).read_bytes()
    setup.sample(0.5)
    assert len(setup.replies) == 1 + round(0.5 * (run.SETUP_REPEATS - 1))
    setup.sample(1.0)
    assert len(setup.replies) == run.SETUP_REPEATS
    assert all(r["import_s"] > 0 and r["inputs_s"] > 0 and r["slowdown"] == 1.0
               for r in setup.replies)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["here", "setup"]


def test_printed_metrics_are_the_declared_ones(tiny):
    workload, inputs, tmp = tiny
    reps, _, _ = run.run_reps(workload, inputs, 0, 1, tmp / "a", Ledger(), None,
                              nominal_probe)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert (run.WORKLOAD_NAMES == tuple(wl.WORKLOADS)
            == tuple(w["name"] for w in declared["workloads"]))
    metrics, _ = run.end_to_end(reps, [{"import_s": 0.5, "inputs_s": 0.5, "slowdown": 1.0}])
    assert list(metrics) == [m["name"] for m in declared["end_to_end"]]
    layers = run.per_layer(reps)
    assert list(layers) == [m["name"] for m in declared["per_layer"]]
    assert all(unit == m["unit"] for (_, unit), m in zip(layers.values(), declared["per_layer"]))
    assert layers["numerics.backward.calls"][0] == 0
    assert layers["numerics.tape_nodes_per_step"][0] == 0
    assert layers["sim.render_observation.calls"][0] == 3


def test_times_are_normalised_by_the_host_slowdown_around_them(tiny):
    assert hostspeed.slowdown(hostspeed.NOMINAL_S, hostspeed.NOMINAL_S) == 1.0
    assert hostspeed.slowdown(hostspeed.NOMINAL_S, 4 * hostspeed.NOMINAL_S) == 2.0

    workload, inputs, tmp = tiny
    reps, _, _ = run.run_reps(workload, inputs, 0, 0, tmp / "a", Ledger(), None,
                              lambda: 2 * hostspeed.NOMINAL_S)
    assert all(r.slowdown == 2.0 and r.norm_wall == r.wall / 2 for r in reps)
    setups = [{"import_s": 0.5, "inputs_s": 0.5, "slowdown": 2.0},
              {"import_s": 0.5, "inputs_s": 1.5, "slowdown": 1.0}]
    metrics, report = run.end_to_end(reps, setups)
    assert metrics["wall_s"][0] == report["raw_wall_s"][0] / 2
    assert metrics["steps_per_s"][0] == report["raw_steps_per_s"][0] * 2
    assert report["host_slowdown"][0] == 2.0
    assert metrics["setup_s"][0] == (0.5 + 2.0) / 2 and report["raw_setup_s"][0] == 1.5


def test_the_probe_is_fixed_work_outside_minivla():
    probe = hostspeed.Probe()
    with Tracer(wl.LAYER_SPANS) as tracer:
        assert probe() > 0
    assert all(stats.calls == 0 for stats in tracer.stats.values())
    assert probe._arrays() == hostspeed.Probe()._arrays()


def test_a_thread_left_running_fails_the_repetition(tiny):
    _, inputs, tmp = tiny
    workload = Lingering()
    ledger = Ledger()
    try:
        timed = run.checked_rep(workload, inputs, tmp / "rep", False, ledger, nominal_probe)
    finally:
        workload.thread.join(timeout=5)
    assert not workload.thread.is_alive()
    assert timed.threads_left == 1 and timed.result is None
    assert ledger.problems == [
        "no thread left running: 1 more threads after the timed command than before"]
