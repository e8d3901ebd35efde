import dataclasses
import json
import runpy
import sys

import pytest

from conftest import rewrite_checkpoint_header, synthetic_stats

from minivla import cli, persist, sim
from minivla import policy as pol
from minivla.config import EnvConfig, ModelConfig, parse_config
from minivla.depth import DepthStats
from minivla.errors import ConfigError, ConfigRangeError

TINY_MODEL = dict(patch=8, d_model=16, resampler_k=2, lstm_width=8)


def write_config(tmp_path, **sections):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(sections))
    return str(path)


@pytest.fixture
def run_dir(tmp_path, monkeypatch):
    """The working directory, tmp_path/runs: every relative path flag below
    resolves against it."""
    root = tmp_path / "runs"
    root.mkdir()
    monkeypatch.chdir(root)
    return root


@pytest.fixture
def dataset(run_dir):
    assert cli.dispatch(["gen-data", "--out", "data", "--n", "2", "--families", "lift",
                         "--palettes", "A", "--seed", "3"]) == 0
    return run_dir / "data"


def cli_config(tmp_path, **env):
    return write_config(tmp_path, model=TINY_MODEL, train={"epochs": 1},
                        env={"palettes": ["A"], "families": ["lift"], "horizon": 4, **env})


def test_pipeline_writes_every_artifact(tmp_path, run_dir, dataset):
    assert dataset.is_file() and [p.name for p in run_dir.iterdir()] == ["data"]

    assert cli.dispatch(["stats", "--data", "data", "--out", "stats.json"]) == 0
    assert (run_dir / "stats.json").is_file()

    config = cli_config(tmp_path)
    assert cli.dispatch(["train", "--data", "data", "--out", "train", "--config", config,
                         "--stats", "stats.json", "--seed", "5"]) == 0
    train = run_dir / "train"
    assert sorted(p.name for p in train.iterdir()) == [
        "checkpoint.rfpx", "config_echo.json", "stats.json", "train_summary.json"]
    summary = json.loads((train / "train_summary.json").read_text())
    assert [sorted(e) for e in summary["epochs"]] == [["bce", "epoch", "loss", "mse", "seconds"]]
    echo = json.loads((train / "config_echo.json").read_text())
    assert echo["model"]["seed"] == echo["train"]["seed"] == 5
    assert "seed" not in echo
    assert parse_config(train / "config_echo.json") == \
        parse_config(config, {"model": {"seed": 5}, "train": {"seed": 5}})

    assert cli.dispatch(["eval", "--checkpoint", "train/checkpoint.rfpx", "--out", "eval",
                         "--chains", "1", "--horizon", "4"]) == 0
    assert sorted(p.name for p in (run_dir / "eval").iterdir()) == [
        "chains.jsonl", "metrics.jsonl"]

    assert cli.dispatch(["ablate", "sep-resampler", "--data", "data", "--out", "ablate",
                         "--config", config, "--chains", "1"]) == 0
    report = json.loads((run_dir / "ablate" / "ablation_sep_resampler.json").read_text())
    assert set(report["tables"]) == {"shared", "separate"}
    assert sorted(p.name for p in (run_dir / "ablate").iterdir()) == [
        "ablation_sep_resampler.json", "metrics.jsonl"]


@pytest.mark.parametrize("flag, expected", [([], 2), (["--chains", "1"], 1)])
def test_ablate_chains_flag_overrides_config_only_when_given(tmp_path, dataset, run_dir,
                                                             flag, expected):
    config = cli_config(tmp_path, n_chains=2)
    assert cli.dispatch(["ablate", "sep-resampler", "--data", "data", "--out", "ablate",
                         "--config", config, *flag]) == 0
    report = json.loads((run_dir / "ablate" / "ablation_sep_resampler.json").read_text())
    assert {t["n_chains"] for t in report["tables"].values()} == {expected}


def test_eval_without_chains_evaluates_the_config_default(tmp_path, run_dir):
    # EnvConfig.n_chains is the one default of the chain count.
    model = pol.init_model(ModelConfig(**TINY_MODEL), synthetic_stats())
    persist.save_checkpoint(model, run_dir / "model.rfpx")
    assert cli.dispatch(["eval", "--checkpoint", "model.rfpx", "--out", "eval",
                         "--families", "lift", "--horizon", "1"]) == 0
    (row,) = [json.loads(line) for line in
              (run_dir / "eval" / "metrics.jsonl").read_text().splitlines()]
    assert row["n_chains"] == EnvConfig().n_chains
    chains = (run_dir / "eval" / "chains.jsonl").read_text().splitlines()
    assert [json.loads(line)["chain_id"] for line in chains] == list(range(EnvConfig().n_chains))


def test_two_evals_into_one_out_are_told_apart_by_their_run(run_dir):
    model = pol.init_model(ModelConfig(**TINY_MODEL), synthetic_stats())
    persist.save_checkpoint(model, run_dir / "model.rfpx")
    runs = [["--chains", "2", "--horizon", "2", "--seed", "1"],
            ["--chains", "1", "--horizon", "3", "--seed", "7", "--palette", "A",
             "--families", "lift,press", "--train-label", "A"]]
    for flags in runs:
        assert cli.dispatch(["eval", "--checkpoint", "model.rfpx", "--out", "eval",
                             *flags]) == 0
    rows = [json.loads(line) for line in
            (run_dir / "eval" / "metrics.jsonl").read_text().splitlines()]
    chains = [json.loads(line) for line in
              (run_dir / "eval" / "chains.jsonl").read_text().splitlines()]
    first = {"checkpoint": "model.rfpx", "chain_seed": 1, "n_chains": 2, "horizon": 2,
             "palette": "D", "families": list(sim.FAMILIES), "variant": "standard",
             "enrich": False}
    second = {**first, "chain_seed": 7, "n_chains": 1, "horizon": 3, "palette": "A",
              "families": ["lift", "press"]}
    assert [row["run"] for row in rows] == [first, second]
    assert [{k: v for k, v in row.items() if k != "run"} for row in rows] == [
        {"model": "ours", "train": train, "test": palette, "enriched": False,
         "rates": row["rates"], "avg": row["avg"], "n_chains": n}
        for row, train, palette, n in zip(rows, ("", "A"), "DA", (2, 1))]
    assert [(c["chain_id"], c["seed"], c["run"]) for c in chains] == [
        (0, 1, first), (1, 2, first), (0, 7, second)]


@pytest.mark.parametrize("sections", [
    {"model": {"bogus": 1}}, {"seed": 3},
    {"model": {"sep_resampler": "false"}}, {"train": {"epochs": "3"}},
    {"train": {"learning_rate": "0.1"}}, {"train": {"epochs": True}},
    {"train": {"learning_rate": float("nan")}},
    {"env": {"palettes": "AB"}}, {"env": {"n_chains": 2.5}},
    {"model": []}, [], "model", {"train": {"learning_rate": 10 ** 400}}])
def test_unknown_config_key_exits_1(tmp_path, dataset, sections, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(sections))
    assert cli.dispatch(["train", "--data", "data", "--out", "train",
                         "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("key", ["vit_blocks", "decoder_layers", "lstm_layers"])
def test_a_config_naming_a_retired_depth_exits_1_through_the_console_script(
        tmp_path, dataset, key, monkeypatch, capsys):
    # encoders.VIT_BLOCKS, decoder.DECODER_LAYERS and policy.LSTM_LAYERS fix
    # the depths; a config that sets one, even to its value, is refused.
    config = write_config(tmp_path, model={key: 2})
    monkeypatch.setattr(sys, "argv", ["minivla", "train", "--data", "data", "--out", "train",
                                      "--config", config])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == 1
    assert f"unknown config key: model.{key}" in capsys.readouterr().err
    assert not (dataset.parent / "train").exists()


def test_eval_of_a_checkpoint_with_a_removed_config_key_exits_2(tmp_path, run_dir, capsys):
    model = pol.init_model(ModelConfig(**TINY_MODEL), synthetic_stats())
    path = persist.save_checkpoint(model, tmp_path / "new.rfpx")

    def with_removed_key(header):
        header["meta"]["model_config"]["image_hw"] = 32
        return header

    rewrite_checkpoint_header(path, tmp_path / "old.rfpx", with_removed_key)
    assert cli.dispatch(["eval", "--checkpoint", str(tmp_path / "old.rfpx"), "--out", "eval",
                         "--chains", "1", "--horizon", "4"]) == 2
    assert "unknown config key: model.image_hw" in capsys.readouterr().err


def test_eval_of_a_checkpoint_with_an_ill_typed_entry_exits_2(tmp_path, run_dir, capsys):
    model = pol.init_model(ModelConfig(**TINY_MODEL), synthetic_stats())
    path = persist.save_checkpoint(model, tmp_path / "new.rfpx")

    def with_a_numbered_entry(header):
        header["entries"][0]["name"] = 5
        return header

    rewrite_checkpoint_header(path, tmp_path / "bad.rfpx", with_a_numbered_entry)
    assert cli.dispatch(["eval", "--checkpoint", str(tmp_path / "bad.rfpx"), "--out", "eval",
                         "--chains", "1", "--horizon", "4"]) == 2
    assert "unreadable checkpoint header" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--chains", "0"], ["--horizon", "0"], ["--palette", "Z"],
                                  ["--families", "fly"]])
def test_eval_rejects_bad_flags_before_loading(run_dir, flag):
    # The checkpoint does not exist: validation must fail first, with exit 1.
    assert cli.dispatch(["eval", "--checkpoint", "missing.rfpx", "--out", "eval",
                         *flag]) == 1
    assert not (run_dir / "eval").exists()


STATS = '"d_min": 0.6, "d_max": 1.0, "mu": 0.5'


@pytest.mark.parametrize("body, field", [
    ('{"d_min": 0.5', "not valid JSON"),
    ('{"d_min": 0.5}', "'d_max'"),
    ("{" + STATS + ', "sigma": 0.29, "scale": 2}', "'scale'"),
    ("{" + STATS + ', "sigma": "0.29"}', "'sigma'"),
    ("{" + STATS + ', "sigma": true}', "'sigma'"),
    ("{" + STATS + ', "sigma": NaN}', "'sigma'"),
    ("{" + STATS + ', "sigma": 1' + "0" * 400 + "}", "'sigma'"),
    ("[0.6, 1.0, 0.5, 0.29]", "JSON object"),
    ('{"d_min": 0.8, "d_max": 0.8, "mu": 0.5, "sigma": 0.29}', "d_max must be above d_min"),
    ("{" + STATS + ', "sigma": 0.0}', "sigma must be positive"),
], ids=["truncated", "missing-field", "extra-field", "string", "bool", "nan", "huge-int",
        "list", "empty-range", "zero-sigma"])
def test_malformed_stats_file_exits_1(run_dir, capsys, body, field):
    # The stats files are read first: --data is not a dataset, which would exit 2.
    (run_dir / "stats.json").write_text(body)
    write_stats(run_dir, "good.json", 0.3, 1.5)
    (run_dir / "data").write_bytes(b"not a dataset")
    for command in (["train", "--stats", "stats.json"],
                    ["ablate", "sep-resampler", "--stats", "stats.json"],
                    ["ablate", "depth-extremes", "--narrow", "stats.json", "--wide", "good.json"],
                    ["ablate", "depth-extremes", "--narrow", "good.json", "--wide", "stats.json"],
                    ["sensitivity", "--stats", "stats.json"]):
        assert cli.dispatch([*command, "--data", "data", "--out", "out"]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (run_dir / "out").exists()


def test_an_unreadable_input_exits_2_before_writing(run_dir, dataset, capsys):
    assert cli.dispatch(["train", "--data", "data", "--out", "train",
                         "--stats", "missing.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and "missing.json" in err
    assert not (run_dir / "train").exists()


@pytest.mark.parametrize("argv, code", [([], 1), (["--help"], 0), (["train", "--help"], 0),
                                        (["ablate"], 1)],
                         ids=["no-args", "help", "command-help", "no-ablation"])
def test_usage_exit_codes(capsys, argv, code):
    assert cli.dispatch(argv) == code
    out = capsys.readouterr()
    assert "usage: minivla" in out.out + out.err


def test_running_the_module_exits_with_the_dispatch_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["minivla", "ablate"])
    # Run as a fresh module, as `python -m minivla.cli` does.
    monkeypatch.delitem(sys.modules, "minivla.cli")
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("minivla.cli", run_name="__main__")
    assert exit_.value.code == 1
    assert "usage: minivla" in capsys.readouterr().err


def test_depth_extremes_has_no_stats_flag(run_dir, capsys):
    assert cli.dispatch(["ablate", "depth-extremes", "--data", "data", "--out", "ablate",
                         "--narrow", "narrow.json", "--wide", "wide.json",
                         "--stats", "does/not/exist.json"]) == 1
    assert "unrecognized arguments: --stats" in capsys.readouterr().err


def consecutive_pairs(dataset) -> int:
    return sum(len(t.steps) - 1 for t in persist.load_dataset(dataset))


def write_stats(run_dir, name, d_min, d_max):
    stats = DepthStats(d_min, d_max, 0.5, 0.29)
    (run_dir / name).write_text(json.dumps(dataclasses.asdict(stats)))


def test_sensitivity_counts_pairs_per_stats_file(run_dir, dataset):
    write_stats(run_dir, "narrow.json", 0.6, 1.0)
    write_stats(run_dir, "wide.json", 0.3, 1.5)
    assert consecutive_pairs(dataset) > 5
    assert cli.dispatch(["sensitivity", "--data", "data", "--stats", "narrow.json",
                         "wide.json", "--out", "sens.json", "--pairs", "5"]) == 0
    counts = json.loads((run_dir / "sens.json").read_text())
    assert sorted(counts) == ["narrow", "wide"]
    assert [len(values) for values in counts.values()] == [5, 5]
    assert all(isinstance(v, int) and v >= 0 for values in counts.values() for v in values)


def test_depth_extremes_writes_its_report(tmp_path, run_dir, dataset):
    write_stats(run_dir, "narrow.json", 0.6, 1.0)
    write_stats(run_dir, "wide.json", 0.3, 1.5)
    assert cli.dispatch(["ablate", "depth-extremes", "--data", "data", "--out", "ablate",
                         "--config", cli_config(tmp_path), "--narrow", "narrow.json",
                         "--wide", "wide.json", "--chains", "1"]) == 0
    out = run_dir / "ablate"
    assert sorted(p.name for p in out.iterdir()) == [
        "ablation_depth_extremes.json", "metrics.jsonl"]
    report = json.loads((out / "ablation_depth_extremes.json").read_text())
    assert set(report["tables"]) == {"narrow", "wide"}
    assert {t["n_chains"] for t in report["tables"].values()} == {1}
    counts = report["extras"]["sensitivity_counts"]
    assert sorted(counts) == ["narrow", "wide"]
    # Every consecutive pair of the two demonstrations, up to the harness's 20.
    expected = min(20, consecutive_pairs(dataset))
    assert [len(values) for values in counts.values()] == [expected, expected]
    assert len((out / "metrics.jsonl").read_text().splitlines()) == 2


@pytest.mark.parametrize("argv, key", [
    (["gen-data", "--out", "data", "--families", "lift,bogus"], "'bogus'"),
    (["gen-data", "--out", "data", "--palettes", "A,Z"], "'Z'"),
    (["eval", "--checkpoint", "ck.rfpx", "--out", "eval", "--palette", "Z"], "'Z'"),
    (["eval", "--checkpoint", "ck.rfpx", "--out", "eval", "--families", "bogus"], "'bogus'"),
    (["ablate", "sep-resampler", "--data", "data", "--out", "ablate",
      "--families", "bogus"], "env.families entry 'bogus'"),
    (["ablate", "depth-extremes", "--data", "data", "--out", "ablate",
      "--narrow", "n.json", "--wide", "w.json", "--families", "bogus"],
     "env.families entry 'bogus'"),
    (["eval", "--checkpoint", "ck.rfpx", "--out", "eval", "--families", "press,slide"],
     "cannot build a 5-task chain"),
    (["ablate", "sep-resampler", "--data", "data", "--out", "ablate",
      "--families", "slide"], "cannot build a 5-task chain"),
    (["eval", "--checkpoint", "ck.rfpx", "--out", "eval", "--variant", "tall_short",
      "--families", "press"], "tall_short chain is five lifts"),
], ids=["gen-data-families", "gen-data-palettes", "eval-palette", "eval-families",
        "sep-resampler-families", "depth-extremes-families", "eval-no-chain",
        "sep-resampler-no-chain", "eval-tall-short-families"])
def test_a_bad_env_flag_exits_1_before_any_file(run_dir, capsys, argv, key):
    # No input file exists: reading one would fail with exit 2 instead.
    assert cli.dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not any(run_dir.iterdir())


@pytest.mark.parametrize("argv", [
    ["gen-data", "--out", "data", "--n", "0"],
    ["sensitivity", "--data", "data", "--stats", "s.json", "--out", "o.json",
     "--pairs", "0"],
    ["sensitivity", "--data", "data", "--stats", "s.json", "--out", "o.json",
     "--pairs", "-4"],
], ids=["n-0", "pairs-0", "pairs-negative"])
def test_counts_must_be_positive(run_dir, capsys, argv):
    assert cli.dispatch(argv) == 1
    assert "must be a positive integer" in capsys.readouterr().err
    assert not any(run_dir.iterdir())


def test_gen_data_over_a_dataset_directory_is_refused(run_dir, capsys):
    old = run_dir / "data"
    old.mkdir()
    (old / "index.json").write_text("{}")
    assert cli.dispatch(["gen-data", "--out", "data", "--n", "1", "--families", "lift"]) == 2
    err = capsys.readouterr().err
    assert "data is a directory; remove it or write somewhere else" in err
    assert sorted(p.name for p in run_dir.iterdir()) == ["data"]
    assert [p.name for p in old.iterdir()] == ["index.json"]


@pytest.mark.parametrize("argv, message", [
    (["gen-data", "--out", "data", "--seed", "-1"], "must be a non-negative integer"),
    (["eval", "--checkpoint", "ck.rfpx", "--out", "eval", "--seed", "-2"],
     "must be a non-negative integer"),
    (["gradcheck", "--seed", "-1"], "unrecognized arguments: --seed"),
    (["train", "--data", "data", "--out", "train", "--seed", "-3"], "model.seed must be >= 0"),
    (["ablate", "sep-resampler", "--data", "data", "--out", "ablate", "--seed", "-3"],
     "model.seed must be >= 0"),
    (["train", "--data", "data", "--out", "train", "--ckpt-every", "-1"],
     "train.ckpt_every must be >= 0"),
], ids=["gen-data-seed", "eval-seed", "gradcheck-seed", "train-seed", "ablate-seed",
        "ckpt-every"])
def test_a_bad_seed_or_tolerance_exits_1_before_any_file(run_dir, capsys, argv, message):
    assert cli.dispatch(argv) == 1
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert not any(run_dir.iterdir())


def test_gradcheck_passes_on_the_full_model(capsys):
    assert cli.dispatch(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "over 7889 entries" in out and out.rstrip().endswith("-> OK")


@pytest.mark.parametrize("body, message", [
    ({"model": {"patch": 0}}, "model.patch must be a positive integer"),
    ({"model": {"patch": 5}}, "model.patch 5 must divide the frame edge"),
    ({"model": {"d_model": 3}}, "model.d_model must be at least 4"),
    ({"model": {"depth_input": "rgb"}}, "model.depth_input must be"),
    ({"train": {"lambda_gripper": -1.0}}, "train.lambda_gripper must be >= 0"),
    ({"train": {"learning_rate": -1.0}}, "train.learning_rate must be >= 0"),
    ({"train": {"batch_size": 0}}, "train.batch_size must be >= 1"),
    ({"env": {"variant": "tall"}}, "env.variant must be standard or tall_short"),
    ("{not json", "is not valid JSON"),
], ids=["patch-0", "patch-5", "d_model-3", "depth_input", "lambda_gripper", "learning_rate",
        "batch_size", "variant", "not-json"])
def test_a_bad_config_file_is_a_config_error(tmp_path, body, message):
    path = tmp_path / "config.json"
    path.write_text(body if isinstance(body, str) else json.dumps(body))
    with pytest.raises(ConfigError, match=message):
        parse_config(path)


def test_config_file_seeds_must_not_be_negative(tmp_path):
    for section in ("model", "train"):
        with pytest.raises(ConfigRangeError, match=rf"{section}\.seed must be >= 0"):
            parse_config(write_config(tmp_path, **{section: {"seed": -1}}))


def test_sensitivity_refuses_two_stats_files_with_one_label(run_dir, capsys):
    # Both would be labelled "s"; no dataset exists, so reading it would exit 2.
    for sub, d_min in (("a", 0.6), ("b", 0.3)):
        (run_dir / sub).mkdir(parents=True)
        write_stats(run_dir, f"{sub}/s.json", d_min, 1.0)
    assert cli.dispatch(["sensitivity", "--data", "data", "--stats", "a/s.json", "b/s.json",
                         "--out", "sens.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "--stats a/s.json and b/s.json share the label 's'" in err
    assert not (run_dir / "sens.json").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--data", "data", "--out", "train"],
    ["ablate", "sep-resampler", "--data", "data", "--out", "ablate"],
    ["ablate", "depth-extremes", "--data", "data", "--out", "ablate",
     "--narrow", "n.json", "--wide", "w.json"],
], ids=["train", "sep-resampler", "depth-extremes"])
def test_a_relative_config_is_read_under_the_run_dir(run_dir, capsys, argv):
    # Found in the working directory, the file is read and its range error
    # exits 1; looked for elsewhere, it would be missing (exit 2).
    (run_dir / "config.json").write_text(json.dumps({"train": {"epochs": -1}}))
    assert cli.dispatch([*argv, "--config", "config.json"]) == 1
    assert "train.epochs must be >= 0" in capsys.readouterr().err


def test_train_that_overflows_float32_exits_2_without_a_checkpoint(tmp_path, run_dir, capsys):
    assert cli.dispatch(["gen-data", "--out", "data", "--n", "1", "--families", "lift",
                         "--palettes", "A"]) == 0
    assert cli.dispatch(["train", "--data", "data", "--out", "train",
                         "--config", cli_config(tmp_path), "--learning-rate", "1e300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and "not finite in float32" in err
    # Nothing is left behind, so a retry into the same --out runs.
    assert not (run_dir / "train").exists()
    assert cli.dispatch(["train", "--data", "data", "--out", "train",
                         "--config", cli_config(tmp_path)]) == 0


def test_periodic_checkpoints(tmp_path, run_dir, dataset):
    assert cli.dispatch(["train", "--data", "data", "--out", "train", "--config",
                         cli_config(tmp_path), "--epochs", "2", "--ckpt-every", "1"]) == 0
    out = run_dir / "train"
    assert sorted(p.name for p in out.glob("*.rfpx")) == [
        "checkpoint.rfpx", "checkpoint_ep0001.rfpx", "checkpoint_ep0002.rfpx"]
    assert (out / "checkpoint_ep0002.rfpx").read_bytes() == (out / "checkpoint.rfpx").read_bytes()
    first = persist.load_checkpoint(out / "checkpoint_ep0001.rfpx")
    assert first.cfg == ModelConfig(**TINY_MODEL)
    assert first.params.checksum("head.") != \
        persist.load_checkpoint(out / "checkpoint.rfpx").params.checksum("head.")


def test_depth_extremes_refuses_ranges_before_reading_the_dataset(run_dir, capsys):
    write_stats(run_dir, "narrow.json", 0.6, 1.0)
    write_stats(run_dir, "wide.json", 0.7, 1.5)
    # No dataset exists: reading it would exit 2.
    assert cli.dispatch(["ablate", "depth-extremes", "--data", "data", "--out", "ablate",
                         "--narrow", "narrow.json", "--wide", "wide.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must strictly contain narrow range" in err
    assert sorted(p.name for p in run_dir.iterdir()) == ["narrow.json", "wide.json"]


@pytest.mark.parametrize("leftover", ["train_log.csv", "checkpoint.rfpx"])
def test_train_into_a_non_empty_out_exits_1_before_writing(tmp_path, run_dir, dataset,
                                                           capsys, leftover):
    out = run_dir / "train"
    out.mkdir()
    (out / leftover).write_text("a previous run")
    assert cli.dispatch(["train", "--data", "data", "--out", "train",
                         "--config", cli_config(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not an empty directory" in err
    assert [p.name for p in out.iterdir()] == [leftover]
    assert (out / leftover).read_text() == "a previous run"


def test_train_into_an_empty_out_runs(tmp_path, run_dir, dataset):
    (run_dir / "train").mkdir()
    assert cli.dispatch(["train", "--data", "data", "--out", "train",
                         "--config", cli_config(tmp_path)]) == 0
    assert (run_dir / "train" / "checkpoint.rfpx").is_file()
