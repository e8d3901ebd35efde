import json

import pytest

from conftest import rewrite_checkpoint_header, synthetic_stats

from minivla import cli, persist
from minivla import policy as pol
from minivla.config import ModelConfig, parse_config

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
