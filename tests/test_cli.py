import dataclasses
import json

import pytest

from conftest import rewrite_checkpoint_header, synthetic_stats

from minivla import cli, persist
from minivla import policy as pol
from minivla.config import ModelConfig, parse_config
from minivla.depth import DepthStats
from minivla.errors import ConfigRangeError

TINY_MODEL = dict(patch=8, d_model=16, vit_blocks=1, resampler_k=2,
                  decoder_layers=1, lstm_layers=1, lstm_width=8)


def write_config(tmp_path, **sections):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(sections))
    return str(path)


@pytest.fixture
def run_dir(tmp_path, monkeypatch):
    """MINIVLA_RUN_DIR roots every relative path below at tmp_path/runs."""
    root = tmp_path / "runs"
    monkeypatch.setenv("MINIVLA_RUN_DIR", str(root))
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
    for name in ("config_echo.json", "stats.json", "train_log.csv",
                 "train_summary.json", "checkpoint.rfpx"):
        assert (train / name).is_file(), name
    echo = json.loads((train / "config_echo.json").read_text())
    assert echo["model"]["seed"] == echo["train"]["seed"] == 5
    assert "seed" not in echo
    assert parse_config(train / "config_echo.json") == \
        parse_config(config, {"model": {"seed": 5}, "train": {"seed": 5}})

    assert cli.dispatch(["eval", "--checkpoint", "train/checkpoint.rfpx", "--out", "eval",
                         "--chains", "1", "--horizon", "4"]) == 0
    for name in ("chains.jsonl", "metrics.csv", "metrics.jsonl"):
        assert (run_dir / "eval" / name).is_file(), name

    assert cli.dispatch(["ablate", "sep-resampler", "--data", "data", "--out", "ablate",
                         "--config", config, "--chains", "1"]) == 0
    report = json.loads((run_dir / "ablate" / "ablation_sep_resampler.json").read_text())
    assert set(report["tables"]) == {"shared", "separate"}
    assert (run_dir / "ablate" / "metrics.csv").is_file()


@pytest.mark.parametrize("flag, expected", [([], 2), (["--chains", "1"], 1)])
def test_ablate_chains_flag_overrides_config_only_when_given(tmp_path, dataset, run_dir,
                                                             flag, expected):
    config = cli_config(tmp_path, n_chains=2)
    assert cli.dispatch(["ablate", "sep-resampler", "--data", "data", "--out", "ablate",
                         "--config", config, *flag]) == 0
    report = json.loads((run_dir / "ablate" / "ablation_sep_resampler.json").read_text())
    assert {t["n_chains"] for t in report["tables"].values()} == {expected}


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
], ids=["truncated", "missing-field", "extra-field", "string", "bool", "nan", "huge-int",
        "list"])
def test_malformed_stats_file_exits_1(run_dir, dataset, capsys, body, field):
    (run_dir / "stats.json").write_text(body)
    assert cli.dispatch(["train", "--data", "data", "--out", "train",
                         "--stats", "stats.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (run_dir / "train" / "checkpoint.rfpx").exists()


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
        "ablation_depth_extremes.json", "metrics.csv", "metrics.jsonl"]
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
], ids=["gen-data-families", "gen-data-palettes", "eval-palette", "eval-families",
        "sep-resampler-families", "depth-extremes-families"])
def test_a_bad_env_flag_exits_1_before_any_file(run_dir, capsys, argv, key):
    # No input file exists: reading one would fail with exit 2 instead.
    assert cli.dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not run_dir.exists() or not any(run_dir.iterdir())


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
    assert not run_dir.exists()


def test_gen_data_over_a_dataset_directory_is_refused(run_dir, capsys):
    old = run_dir / "data"
    old.mkdir(parents=True)
    (old / "index.json").write_text("{}")
    assert cli.dispatch(["gen-data", "--out", "data", "--n", "1", "--families", "lift"]) == 2
    err = capsys.readouterr().err
    assert f"{old} is a dataset directory of an older layout; remove it" in err
    assert sorted(p.name for p in run_dir.iterdir()) == ["data"]
    assert [p.name for p in old.iterdir()] == ["index.json"]


@pytest.mark.parametrize("argv, message", [
    (["gen-data", "--out", "data", "--seed", "-1"], "must be a non-negative integer"),
    (["eval", "--checkpoint", "ck.rfpx", "--out", "eval", "--seed", "-2"],
     "must be a non-negative integer"),
    (["gradcheck", "--seed", "-1"], "must be a non-negative integer"),
    (["train", "--data", "data", "--out", "train", "--seed", "-3"], "model.seed must be >= 0"),
    (["ablate", "sep-resampler", "--data", "data", "--out", "ablate", "--seed", "-3"],
     "model.seed must be >= 0"),
    (["train", "--data", "data", "--out", "train", "--ckpt-every", "-1"],
     "train.ckpt_every must be >= 0"),
    (["gradcheck", "--eps", "nan"], "must be a positive finite number"),
    (["gradcheck", "--eps", "0"], "must be a positive finite number"),
    (["gradcheck", "--tol", "inf"], "must be a positive finite number"),
    (["gradcheck", "--tol=-1e-4"], "must be a positive finite number"),
], ids=["gen-data-seed", "eval-seed", "gradcheck-seed", "train-seed", "ablate-seed",
        "ckpt-every", "eps-nan", "eps-0", "tol-inf", "tol-negative"])
def test_a_bad_seed_or_tolerance_exits_1_before_any_file(run_dir, capsys, argv, message):
    assert cli.dispatch(argv) == 1
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert not run_dir.exists()


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
    assert str(run_dir / "a" / "s.json") in err and str(run_dir / "b" / "s.json") in err
    assert not (run_dir / "sens.json").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--data", "data", "--out", "train"],
    ["ablate", "sep-resampler", "--data", "data", "--out", "ablate"],
    ["ablate", "depth-extremes", "--data", "data", "--out", "ablate",
     "--narrow", "n.json", "--wide", "w.json"],
], ids=["train", "sep-resampler", "depth-extremes"])
def test_a_relative_config_is_read_under_the_run_dir(run_dir, capsys, argv):
    # Found under MINIVLA_RUN_DIR, the file is read and its range error
    # exits 1; looked for elsewhere, it would be missing (exit 2).
    run_dir.mkdir()
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
    assert not list((run_dir / "train").glob("*.rfpx"))


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
