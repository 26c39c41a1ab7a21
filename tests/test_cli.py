"""Config parsing, command flows, exit codes, and artifact round trips."""

import json
from pathlib import Path

import pytest

from gcum import __version__
from gcum.cli import (
    EXIT_CHECKPOINT,
    EXIT_CONFIG,
    EXIT_GRADCHECK,
    EXIT_IO,
    EXIT_OK,
    RunConfig,
    main,
    run_grad_checks,
)
from gcum.encoders import load_checkpoint, load_checkpoint_meta
from gcum.synthdata import load_dataset

_SMALL = {
    "seed": 5,
    "dim": 8,
    "d_a": 6,
    "M0": 3,
    "K": 3,
    "tokens_per_identity": 2,
    "data": {
        "n_group_identities": 6,
        "appearance_noise_std": 0.05,
        "camera_bias_std": 0.05,
    },
    "train": {
        "warmup_epochs": 1,
        "decay_epochs": [],
        "total_epochs": 2,
        "batch_size": 4,
        "p_groups": 2,
        "q_views": 2,
        "scale_factor": 1.0,
    },
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_SMALL))
    return str(path)


def _gen(tmp_path, small_config):
    data = str(tmp_path / "data.json")
    assert main(["gen-data", "--config", small_config, "--out", data]) == EXIT_OK
    return data


# --------------------------------------------------------------------------
# RunConfig


def test_config_defaults_round_trip():
    cfg = RunConfig()
    cfg.validate()
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


_DEFAULT_ECHO = (
    '{"seed":0,"dim":48,"d_a":32,"M0":6,"K":6,"tokens_per_identity":4,'
    '"mvs":{"enabled":true,"mu":0.2,"sigma":0.1,"p0":0.0,"pmax":0.5},'
    '"gla":{"enabled":true},"losses":{"alpha":0.3,"epsilon":0.1},'
    '"train":{"batch_size":8,"decay_epochs":[30,50],"decay_factor":0.1,'
    '"lr_peak":0.03,"lr_start":0.001,"momentum":0.8,"p_groups":4,"q_views":2,'
    '"scale_factor":0.25,"total_epochs":80,"warmup_epochs":10,"weight_decay":0.0001},'
    '"data":{"n_group_identities":40,"members_min":2,"n_cameras":2,'
    '"views_per_group_per_camera":2,"membership_dropout_prob":0.3,'
    '"layout_permutation":true,"appearance_noise_std":0.1,"camera_bias_std":0.2,'
    '"train_fraction":0.7}}'
)


def test_config_echo_text_is_pinned():
    # datasets, checkpoint sidecars and log headers embed this exact text
    assert json.dumps(RunConfig().to_dict(), separators=(",", ":")) == _DEFAULT_ECHO


def test_readme_documents_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Run configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert RunConfig.from_dict(json.loads(block)) == RunConfig()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"sneed": 3})
    with pytest.raises(ValueError, match="config.mvs"):
        RunConfig.from_dict({"mvs": {"mu": 0.2, "rate": 1}})
    with pytest.raises(ValueError, match="config.train"):
        RunConfig.from_dict({"train": {"lr": 0.1}})
    with pytest.raises(ValueError, match="config.data"):
        RunConfig.from_dict({"data": {"members_max": 4}})  # set via M0 instead


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="M0"):
        RunConfig.from_dict({"M0": 1, "K": 1})
    with pytest.raises(ValueError, match="K"):
        RunConfig.from_dict({"M0": 5, "K": 4})
    with pytest.raises(ValueError):
        RunConfig.from_dict({"data": {"train_fraction": 1.0}})


@pytest.mark.parametrize("doc, key", [
    ({"train": {"batch_size": 4.0, "p_groups": 2, "q_views": 2}}, "batch_size"),
    ({"data": {"layout_permutation": "false"}}, "layout_permutation"),
    ({"mvs": {"enabled": "no"}}, "enabled"),
    ({"seed": 1.9}, "seed"),
    ({"train": {"decay_epochs": [30.0, 50]}}, "decay_epochs"),
])
def test_config_rejects_mistyped_values(tmp_path, capsys, doc, key):
    with pytest.raises(ValueError, match=key):
        RunConfig.from_dict(doc)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code = main(["train", "--stage", "1", "--config", str(path),
                 "--data", str(tmp_path / "d.json"), "--out", str(tmp_path / "x.ckpt")])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_config_float_keys_take_integers():
    cfg = RunConfig.from_dict({"train": {"scale_factor": 1}, "losses": {"alpha": 0}})
    assert type(cfg.train.scale_factor) is float and cfg.train.scale_factor == 1.0
    assert type(cfg.alpha) is float and cfg.alpha == 0.0


def test_config_sections_reach_components():
    cfg = RunConfig.from_dict(_SMALL)
    assert cfg.gen_config().members_max == 3
    assert cfg.gen_config().d_a == 6
    assert cfg.model_base().group_slots == 3
    assert cfg.train_config(2).stage == 2
    assert cfg.train_config(1).seed == 5
    assert cfg.train_config(1).total_epochs == 2


# --------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_loadable_dataset(tmp_path, small_config, capsys):
    data = _gen(tmp_path, small_config)
    ds = load_dataset(data)
    assert len(ds.group_ids()) == 6
    out = capsys.readouterr().out
    assert "6 groups" in out and "2 cameras" in out
    doc = json.loads(open(data).read())
    assert doc["tool_version"] == __version__
    assert doc["run_config"]["seed"] == 5


def test_gen_data_is_byte_deterministic(tmp_path, small_config):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["gen-data", "--config", small_config, "--out", a]) == EXIT_OK
    assert main(["gen-data", "--config", small_config, "--out", b]) == EXIT_OK
    assert open(a, "rb").read() == open(b, "rb").read()


def test_gen_data_rejects_single_member_groups(tmp_path, capsys):
    cfg = dict(_SMALL)
    cfg["M0"] = 1
    cfg["K"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d.json")])
    assert code == EXIT_CONFIG
    assert "M0" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path):
    code = main(["gen-data", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d.json")])
    assert code == EXIT_IO


def test_malformed_config_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d.json")])
    assert code == EXIT_CONFIG


# --------------------------------------------------------------------------
# train


def test_train_both_stages_and_artifacts(tmp_path, small_config):
    data = _gen(tmp_path, small_config)
    s1 = str(tmp_path / "s1.ckpt")
    s2 = str(tmp_path / "s2.ckpt")
    assert main(["train", "--stage", "1", "--config", small_config,
                 "--data", data, "--out", s1]) == EXIT_OK
    assert main(["train", "--stage", "2", "--config", small_config,
                 "--data", data, "--init-checkpoint", s1, "--out", s2]) == EXIT_OK

    meta1 = load_checkpoint_meta(s1)
    assert meta1["stage"] == 1
    assert meta1["modules"] == {"gla": True, "mvs": True, "grce": False}
    assert meta1["run"]["seed"] == 5
    assert meta1["tool_version"] == __version__
    meta2 = load_checkpoint_meta(s2)
    assert meta2["stage"] == 2
    assert meta2["modules"]["grce"] is True

    log_lines = open(s1 + ".log.jsonl").read().splitlines()
    header = json.loads(log_lines[0])
    assert header["format"] == "gcum-train-log"
    assert header["config"]["seed"] == 5
    assert len(log_lines) == 1 + 2  # header + one record per epoch
    assert json.loads(log_lines[1])["epoch"] == 0


def test_train_same_seed_gives_identical_checkpoints(tmp_path, small_config):
    data = _gen(tmp_path, small_config)
    a = str(tmp_path / "a.ckpt")
    b = str(tmp_path / "b.ckpt")
    for out in (a, b):
        assert main(["train", "--stage", "1", "--config", small_config,
                     "--data", data, "--out", out]) == EXIT_OK
    assert open(a, "rb").read() == open(b, "rb").read()


def test_stage2_without_init_checkpoint_exits_4(tmp_path, small_config, capsys):
    data = _gen(tmp_path, small_config)
    code = main(["train", "--stage", "2", "--config", small_config,
                 "--data", data, "--out", str(tmp_path / "x.ckpt")])
    assert code == EXIT_CHECKPOINT
    assert "init-checkpoint" in capsys.readouterr().err


def test_stage2_with_missing_checkpoint_exits_4(tmp_path, small_config):
    data = _gen(tmp_path, small_config)
    code = main(["train", "--stage", "2", "--config", small_config, "--data", data,
                 "--init-checkpoint", str(tmp_path / "ghost.ckpt"),
                 "--out", str(tmp_path / "x.ckpt")])
    assert code == EXIT_CHECKPOINT


def test_train_missing_data_exits_3(tmp_path, small_config):
    code = main(["train", "--stage", "1", "--config", small_config,
                 "--data", str(tmp_path / "ghost.json"), "--out", str(tmp_path / "x.ckpt")])
    assert code == EXIT_IO


def test_train_rejects_mismatched_dataset(tmp_path, small_config):
    data = _gen(tmp_path, small_config)
    other = dict(_SMALL)
    other["d_a"] = 9
    path = tmp_path / "other.json"
    path.write_text(json.dumps(other))
    code = main(["train", "--stage", "1", "--config", str(path),
                 "--data", data, "--out", str(tmp_path / "x.ckpt")])
    assert code == EXIT_CONFIG


# --------------------------------------------------------------------------
# eval


def test_eval_prints_report_and_writes_artifact(tmp_path, small_config, capsys):
    data = _gen(tmp_path, small_config)
    s1 = str(tmp_path / "s1.ckpt")
    main(["train", "--stage", "1", "--config", small_config, "--data", data, "--out", s1])
    capsys.readouterr()
    out_path = str(tmp_path / "report.json")
    assert main(["eval", "--checkpoint", s1, "--data", data, "--out", out_path]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == {"rank1", "rank5", "rank10", "mAP", "n_query", "n_gallery"}
    artifact = json.loads(open(out_path).read())
    assert artifact["format"] == "gcum-eval-report"
    assert artifact["report"] == printed
    assert artifact["config"]["seed"] == 5
    assert artifact["tool_version"] == __version__


def test_eval_is_deterministic(tmp_path, small_config, capsys):
    data = _gen(tmp_path, small_config)
    s1 = str(tmp_path / "s1.ckpt")
    main(["train", "--stage", "1", "--config", small_config, "--data", data, "--out", s1])
    capsys.readouterr()
    main(["eval", "--checkpoint", s1, "--data", data])
    first = capsys.readouterr().out
    main(["eval", "--checkpoint", s1, "--data", data])
    assert capsys.readouterr().out == first


def test_eval_missing_checkpoint_exits_4(tmp_path, small_config):
    data = _gen(tmp_path, small_config)
    assert main(["eval", "--checkpoint", str(tmp_path / "ghost.ckpt"),
                 "--data", data]) == EXIT_CHECKPOINT


# --------------------------------------------------------------------------
# grad-check


def test_grad_check_command_passes(capsys):
    assert main(["grad-check", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count(" ok") == 5
    assert "stage1_contrastive" in out and "stage2_total" in out


def test_grad_check_fails_under_impossible_tolerance(capsys):
    code = main(["grad-check", "--seed", "1", "--tolerance", "1e-12"])
    assert code == EXIT_GRADCHECK
    assert "FAIL" in capsys.readouterr().out


def test_run_grad_checks_reports_all_losses():
    reports = run_grad_checks(1)
    assert set(reports) == {
        "stage1_contrastive", "identity", "triplet", "image_text", "stage2_total"
    }
    assert all(r.ok for r in reports.values())
    assert all(r.max_rel_error < 1e-4 for r in reports.values())


# --------------------------------------------------------------------------
# ablate


def test_ablate_prints_six_rows_and_writes_json(tmp_path, capsys):
    cfg = dict(_SMALL)
    cfg["train"] = dict(_SMALL["train"], total_epochs=1, warmup_epochs=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_path = str(tmp_path / "ablation.json")
    assert main(["ablate", "--config", str(path), "--seeds", "3",
                 "--out", out_path]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8  # header + rule + six configurations
    assert lines[2].startswith("Base")
    assert lines[-1].startswith("Full")
    doc = json.loads(open(out_path).read())
    assert doc["format"] == "gcum-ablation"
    assert [r["name"] for r in doc["rows"]] == ["Base", "+GLA", "+MVS", "+GRCE", "+GLA+MVS", "Full"]
    assert doc["seeds"] == [5, 6, 7]
    assert doc["config"]["M0"] == 3


def test_ablate_needs_three_seeds(tmp_path, small_config, capsys):
    code = main(["ablate", "--config", small_config, "--seeds", "2"])
    assert code == EXIT_CONFIG
    assert "seeds" in capsys.readouterr().err
