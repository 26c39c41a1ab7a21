"""Config parsing, command flows, exit codes, and artifact round trips."""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcum
from gcum import __version__, grce
from gcum import diffcore as dc
from gcum.cli import (
    EXIT_CHECKPOINT,
    EXIT_CONFIG,
    EXIT_GRADCHECK,
    EXIT_IO,
    EXIT_NONFINITE,
    EXIT_OK,
    RunConfig,
    main,
    run_grad_checks,
)
from gcum.encoders import (
    STAGE1_TRAINABLE,
    ModelConfig,
    ModelState,
    init_model_state,
    load_checkpoint,
    load_checkpoint_meta,
    save_checkpoint,
)
from gcum.gla import stage1_batch_loss
from gcum.mvs import Mask
from gcum.synthdata import GenConfig, dataset_to_doc, generate_dataset, load_dataset

import tape_ops as ops

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
    # validate() runs when the config is built, replace included
    with pytest.raises(ValueError, match="M0"):
        RunConfig(m0=1, k_slots=1)
    with pytest.raises(ValueError, match="K"):
        replace(RunConfig(), k_slots=5)
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


@pytest.mark.parametrize("literal", ["NaN", "Infinity", pytest.param("1" + "0" * 400, id="huge-integer")])
@pytest.mark.parametrize("section, key", [
    ("data", "appearance_noise_std"),
    ("train", "lr_peak"),
    ("mvs", "mu"),
    ("losses", "alpha"),
])
def test_config_rejects_non_finite_floats(tmp_path, capsys, section, key, literal):
    text = f'{{"{section}": {{"{key}": {literal}}}}}'
    with pytest.raises(ValueError, match=f"{section}.{key} must be finite"):
        RunConfig.from_dict(json.loads(text))
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    out = tmp_path / "d.json"
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert f"{section}.{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["gen-data", "--out", "{tmp}/d.json"],
    ["train", "--stage", "1", "--data", "{tmp}/d.json", "--out", "{tmp}/s1.ckpt"],
    ["ablate"],
])
def test_a_negative_config_seed_exits_2_naming_it(tmp_path, capsys, command):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"seed": -1}))
    argv = [arg.format(tmp=tmp_path) for arg in command] + ["--config", str(path)]
    assert main(argv) == EXIT_CONFIG
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "d.json").exists()


def test_a_negative_grad_check_seed_exits_2_naming_it(capsys):
    assert main(["grad-check", "--seed", "-3"]) == EXIT_CONFIG
    assert "--seed must be non-negative, got -3" in capsys.readouterr().err


def test_config_float_keys_take_integers():
    cfg = RunConfig.from_dict({"train": {"scale_factor": 1}, "losses": {"alpha": 0}})
    assert type(cfg.train.scale_factor) is float and cfg.train.scale_factor == 1.0
    assert type(cfg.alpha) is float and cfg.alpha == 0.0


def test_config_mvs_section_takes_integers_for_floats_and_nothing_else():
    cfg = RunConfig.from_dict({"mvs": {"mu": 0, "sigma": 0, "p0": 0, "pmax": 0}})
    assert all(type(v) is float and v == 0.0 for v in cfg.mvs.to_dict().values())
    with pytest.raises(ValueError, match="config.mvs.mu must be float"):
        RunConfig.from_dict({"mvs": {"mu": "0.2"}})


def test_complete_config_needs_every_key():
    # artifacts echo the whole config; a run config file may leave keys out
    echo = RunConfig().to_dict()
    assert RunConfig.from_dict(echo, complete=True) == RunConfig()
    del echo["mvs"]["pmax"]
    assert RunConfig.from_dict(echo) == RunConfig()
    with pytest.raises(ValueError, match="config.mvs.pmax is missing"):
        RunConfig.from_dict(echo, complete=True)


def test_config_sections_reach_components():
    cfg = RunConfig.from_dict(_SMALL)
    assert cfg.gen_config().members_max == 3
    assert cfg.gen_config().d_a == 6
    assert cfg.model_base().group_slots == 3
    assert cfg.train_config(2).stage == 2
    assert cfg.train_config(1).seed == 5
    assert cfg.train_config(1).total_epochs == 2


def test_the_run_config_takes_its_model_defaults_from_model_config():
    assert RunConfig().model_base() == ModelConfig()


# parameters that carry a recipe value or a module switch
_RECIPE_PARAMETERS = {"alpha", "epsilon", "train_fraction", "query_camera", "mvs", "mvs_cfg", "use_text",
                      "quantity", "refined", "step", "tolerance"}
# the run config holds their defaults; the other two are kept on purpose (see their comments)
_DEFAULTS_KEPT = {
    "gcum.cli.RunConfig.__init__": {"alpha", "epsilon", "train_fraction", "mvs"},
    "gcum.evaluation.run_ablation": {"query_camera"},
    "gcum.diffcore.grad_check": {"step", "tolerance"},
}


def _gcum_functions():
    """(qualified name, function) of every function and method the gcum modules define."""
    for info in pkgutil.iter_modules(gcum.__path__):
        mod = importlib.import_module(f"gcum.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)  # static and class methods
                    if inspect.isfunction(fn):
                        yield f"{mod.__name__}.{name}.{attr}", fn


def test_no_library_function_defaults_a_recipe_value_or_module_switch():
    defaulted: dict[str, set[str]] = {}
    for name, fn in _gcum_functions():
        for param in inspect.signature(fn).parameters.values():
            if param.name in _RECIPE_PARAMETERS and param.default is not param.empty:
                defaulted.setdefault(name, set()).add(param.name)
    assert defaulted == _DEFAULTS_KEPT


# --------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_loadable_dataset(tmp_path, small_config, capsys):
    data = _gen(tmp_path, small_config)
    ds = load_dataset(data)
    assert len(ds.group_ids()) == 6
    out = capsys.readouterr().out
    assert "6 groups" in out and "2 cameras" in out
    doc = json.loads(Path(data).read_text())
    assert doc["tool_version"] == __version__
    assert doc["run_config"]["seed"] == 5


def test_gen_data_is_byte_deterministic(tmp_path, small_config):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["gen-data", "--config", small_config, "--out", a]) == EXIT_OK
    assert main(["gen-data", "--config", small_config, "--out", b]) == EXIT_OK
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_gen_data_rejects_single_member_groups(tmp_path, capsys):
    cfg = dict(_SMALL)
    cfg["M0"] = 1
    cfg["K"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d.json")])
    assert code == EXIT_CONFIG
    assert "M0" in capsys.readouterr().err


@pytest.mark.parametrize("scale_factor", [0.01, 0.02, 0.03])
def test_gen_data_rejects_a_scale_factor_that_collapses_the_schedule(tmp_path, capsys, scale_factor):
    # the user's decay epochs are valid; compressed, they collide or reach the end
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({"train": {"scale_factor": scale_factor}}))
    out = tmp_path / "d.json"
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert f"train.scale_factor {scale_factor} collapses the schedule" in capsys.readouterr().err
    assert not out.exists()
    path.write_text(json.dumps({"train": {"scale_factor": 0.05}}))
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == EXIT_OK


def test_missing_config_file_is_io_error(tmp_path):
    code = main(["gen-data", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d.json")])
    assert code == EXIT_IO


def test_malformed_config_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d.json")])
    assert code == EXIT_CONFIG


def test_a_config_that_is_not_utf8_is_a_config_error_naming_it(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    blob = bytearray(json.dumps(_SMALL).encode())
    blob[10] = 0xFF
    path.write_bytes(bytes(blob))
    code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d.json")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err.startswith(f"error: bad config {path}: 'utf-8' codec can't decode byte 0xff in position 10"), err


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

    log_lines = Path(s1 + ".log.jsonl").read_text().splitlines()
    header = json.loads(log_lines[0])
    assert header["format"] == "gcum-train-log"
    assert header["config"]["seed"] == 5
    assert len(log_lines) == 1 + 2  # header + one record per epoch
    assert json.loads(log_lines[1])["epoch"] == 0


@pytest.mark.parametrize("lr_peak", [1.0, 3.0, 10.0])
def test_stage1_at_large_rates_finishes_or_reports_divergence(tmp_path, capsys, lr_peak):
    # a large step used to drive the inverse temperature to zero or below,
    # which surfaced as "bad config" (exit 2)
    doc = json.loads(json.dumps(_SMALL))
    doc["train"]["lr_peak"] = lr_peak
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    data = _gen(tmp_path, str(config))
    out = str(tmp_path / "s1.ckpt")
    code = main(["train", "--stage", "1", "--config", str(config), "--data", data, "--out", out])
    assert code in (EXIT_OK, EXIT_NONFINITE), capsys.readouterr().err
    if code == EXIT_OK:
        records = [json.loads(line) for line in Path(out + ".log.jsonl").read_text().splitlines()[1:]]
        assert all(np.isfinite(v) for r in records for k, v in r.items() if k.startswith("loss"))


def test_stage1_at_lr_peak_1e8_reports_the_norm_that_overflows(tmp_path, capsys):
    # a finite row whose squared norm overflowed used to become a zero row,
    # and the unit-norm check then exited 2 as if the config were bad
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 1, "train": {"lr_peak": 1e8}}))
    data = _gen(tmp_path, str(config))
    with np.errstate(all="ignore"):
        code = main(["train", "--stage", "1", "--config", str(config), "--data", data,
                     "--out", str(tmp_path / "s1.ckpt")])
    err = capsys.readouterr().err
    assert code == EXIT_NONFINITE, err
    assert "training diverged: stage 1, epoch 3, step 12: l2_normalize" in err, err


@pytest.fixture(scope="module")
def default_stage1(tmp_path_factory):
    """``{"seed": 1}`` default data and a stage-1 checkpoint at the default rates, made once."""
    root = tmp_path_factory.mktemp("default_stage1")
    config = root / "cfg.json"
    config.write_text(json.dumps({"seed": 1}))
    run = SimpleNamespace(data=str(root / "data.json"), s1=str(root / "s1.ckpt"))
    assert main(["gen-data", "--config", str(config), "--out", run.data]) == EXIT_OK
    assert main(["train", "--stage", "1", "--config", str(config), "--data", run.data, "--out", run.s1]) == EXIT_OK
    return run


# On {"seed": 1} data both stages finish at 3, 300 and 1e5 (stage 2 at 1e5 with
# a loss near 3.5e36, a finite loss that is not called divergence) and exit 5 at
# 1e8, 1e10 and 1e12.
@pytest.mark.parametrize("lr_peak", [3, 300, 1e5, 1e8, 1e10, 1e12])
@pytest.mark.parametrize("stage", [1, 2])
def test_any_finite_rate_finishes_or_names_where_it_diverged(default_stage1, tmp_path, capsys, stage, lr_peak):
    # the divergence contract: exit 0 or 5, an exit 5 names the stage, epoch,
    # step and op, and no numpy warning escapes
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 1, "train": {"lr_peak": lr_peak}}))
    argv = ["train", "--stage", str(stage), "--config", str(config), "--data", default_stage1.data,
            "--out", str(tmp_path / "out.ckpt")]
    if stage == 2:
        argv += ["--init-checkpoint", default_stage1.s1]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_NONFINITE), err
    assert "RuntimeWarning" not in err and not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == EXIT_NONFINITE:
        assert re.match(rf"error: training diverged: stage {stage}, epoch \d+, step \d+: [a-z_0-9]+: ", err), err
    if lr_peak >= 1e8:
        assert code == EXIT_NONFINITE, err


def test_divergence_names_the_op_stage_epoch_and_step(tmp_path, small_config, capsys, monkeypatch):
    from gcum import gla, trainer
    from gcum.encoders import STAGE1_TRAINABLE

    data = _gen(tmp_path, small_config)
    args = ["train", "--stage", "1", "--config", small_config, "--data", data,
            "--out", str(tmp_path / "s1.ckpt")]
    real = gla.stage1_batch_loss
    calls = []

    def counted(*a, **kw):
        calls.append(None)
        return real(*a, **kw)

    monkeypatch.setattr(gla, "stage1_batch_loss", counted)
    assert main(args) == EXIT_OK
    per_epoch = len(calls) // _SMALL["train"]["total_epochs"]
    assert per_epoch >= 2
    calls.clear()
    capsys.readouterr()

    fail_at = per_epoch + 2  # the second step of the second epoch

    def overflowing(*a, **kw):
        loss, parts = counted(*a, **kw)
        return (ops.exp(ops.scale(loss, 1e4)) if len(calls) == fail_at else loss), parts

    steps = []
    real_step = trainer.sgd_step

    def recorded(state, grads, velocity, lr, cfg):
        steps.append((velocity, lr))
        return real_step(state, grads, velocity, lr, cfg)

    monkeypatch.setattr(gla, "stage1_batch_loss", overflowing)
    monkeypatch.setattr(trainer, "sgd_step", recorded)
    assert main(args) == EXIT_NONFINITE
    err = capsys.readouterr().err
    assert "training diverged: stage 1, epoch 1, step 1: exp: tensor contains NaN" in err, err
    # the update of the last step, lr * velocity, names the parameter that moved most
    velocity, lr = steps[-1]
    moved = {n: lr * np.linalg.norm(velocity[n]) for n in STAGE1_TRAINABLE}
    largest = max(moved, key=moved.get)
    assert moved[largest] > 0 and all(v < moved[largest] for n, v in moved.items() if n != largest)
    assert f"largest last update: {largest}, L2 norm {moved[largest]:.3g}" in err, err

    calls.clear()
    fail_at = 1  # before any update
    assert main(args) == EXIT_NONFINITE
    err = capsys.readouterr().err
    assert "training diverged: stage 1, epoch 0, step 0: exp" in err and "no SGD step has run yet" in err, err


def test_train_same_seed_gives_identical_checkpoints(tmp_path, small_config):
    data = _gen(tmp_path, small_config)
    a = str(tmp_path / "a.ckpt")
    b = str(tmp_path / "b.ckpt")
    for out in (a, b):
        assert main(["train", "--stage", "1", "--config", small_config,
                     "--data", data, "--out", out]) == EXIT_OK
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_stage2_without_init_checkpoint_exits_4(tmp_path, small_config, capsys):
    data = _gen(tmp_path, small_config)
    code = main(["train", "--stage", "2", "--config", small_config,
                 "--data", data, "--out", str(tmp_path / "x.ckpt")])
    assert code == EXIT_CHECKPOINT
    assert "init-checkpoint" in capsys.readouterr().err


def test_stage1_with_init_checkpoint_exits_2(tmp_path, small_config, capsys):
    # stage 1 trains from the seed, so the flag would be ignored: refuse it
    data = _gen(tmp_path, small_config)
    out = tmp_path / "x.ckpt"
    code = main(["train", "--stage", "1", "--config", small_config, "--data", data,
                 "--init-checkpoint", str(tmp_path / "does-not-exist.ckpt"), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--init-checkpoint is for stage 2 only" in err
    assert not out.exists()


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


def test_train_rejects_a_dataset_with_a_non_finite_appearance(tmp_path, small_config, capsys):
    data = _gen(tmp_path, small_config)
    doc = json.loads(Path(data).read_text())
    doc["samples"][3]["members"][0]["appearance"][1] = float("nan")
    Path(data).write_text(json.dumps(doc))
    out = tmp_path / "x.ckpt"
    code = main(["train", "--stage", "1", "--config", small_config, "--data", data, "--out", str(out)])
    assert code == EXIT_IO
    assert "sample 3 member" in capsys.readouterr().err
    assert not out.exists()


def _renumber(doc, pid):
    """Catalog entry 1 and every member of that identity become identity ``pid``."""
    for sample in doc["samples"]:
        for member in sample["members"]:
            if member["identity_id"] == doc["catalog"][1]["identity_id"]:
                member["identity_id"] = pid
    doc["catalog"][1]["identity_id"] = pid


_DATASET_DAMAGE = {
    "catalog-not-a-list": (lambda d: d.update(catalog=5), "dataset catalog must be a non-empty list"),
    "member-range-not-a-pair": (lambda d: d["config"].update(members_per_group=5), "dataset config"),
    "member-range-of-three": (lambda d: d["config"].update(members_per_group=[2, 3, 4]),
                              "config.members_per_group must be two integers"),
    "member-range-of-one": (lambda d: d["config"].update(members_per_group=[2]),
                            "config.members_per_group must be two integers"),
    "config-without-n_cameras": (lambda d: d["config"].pop("n_cameras"), "dataset config"),
    "n_cameras-not-a-number": (lambda d: d["config"].update(n_cameras="two"), "dataset config"),
    "config-fails-its-checks": (lambda d: d["config"].update(n_cameras=1), "dataset config"),
    "identity-not-an-integer": (lambda d: d["samples"][2]["members"][0].update(identity_id={}),
                                "sample 2 member identity_id is malformed"),
    "sample-not-an-object": (lambda d: d["samples"].__setitem__(2, 5), "sample 2 must be a JSON object"),
    "appearance-not-numbers": (lambda d: d["catalog"][1].update(appearance="dark"),
                               "catalog entry for identity 1 appearance is malformed"),
    # a fresh identity would also widen its group's roster past K
    "identity-outside-the-catalog": (lambda d: d["samples"][2]["members"][0].update(identity_id=9999),
                                     "sample 2 member identity 9999 is not in the catalog"),
    # ids are JSON integers: no string, float or bool is converted
    "group-id-a-string": (lambda d: d["samples"][2].update(group_id="0"), "sample 2 group_id is malformed"),
    "identity-id-a-float": (lambda d: d["samples"][2]["members"][0].update(identity_id=2.7),
                            "sample 2 member identity_id is malformed"),
    "camera-id-a-float": (lambda d: d["samples"][2].update(camera_id=1.5), "sample 2 camera_id is malformed"),
    "group-id-a-bool": (lambda d: d["samples"][2].update(group_id=True), "sample 2 group_id is malformed"),
    "catalog-id-a-bool": (lambda d: d["catalog"][1].update(identity_id=True),
                          "catalog entry 1 identity_id is malformed"),
    "seed-a-float": (lambda d: d.update(seed=5.0), "dataset seed is malformed"),
    "d_a-a-bool": (lambda d: d.update(d_a=True), "dataset d_a is malformed"),
    "catalog-repeats-an-identity": (lambda d: d["catalog"][1].update(identity_id=d["catalog"][0]["identity_id"]),
                                    "catalog entry 1 repeats identity"),
    # catalog entry i is identity i: the model keeps a token row per identity up to the largest
    "catalog-id-sparse": (lambda d: _renumber(d, 10**7), "catalog entry 1 is identity 10000000, not identity 1"),
    "catalog-id-negative": (lambda d: _renumber(d, -5), "catalog entry 1 is identity -5, not identity 1"),
    # an appearance holds JSON numbers: no string or bool is converted, and each fits a float
    "appearance-holds-a-string": (lambda d: d["samples"][2]["members"][0]["appearance"].__setitem__(1, "0.5"),
                                  "sample 2 member 1 appearance is malformed"),
    "appearance-holds-a-bool": (lambda d: d["catalog"][1]["appearance"].__setitem__(0, True),
                                "catalog entry for identity 1 appearance is malformed"),
    "appearance-int-too-large": (lambda d: d["samples"][2]["members"][0]["appearance"].__setitem__(1, 10**400),
                                 "sample 2 member 1 appearance is not finite"),
    "appearance-of-the-wrong-length": (lambda d: d["samples"][2]["members"][0]["appearance"].pop(),
                                       "sample 2 member 1 appearance has shape (5,)"),
    "d_a-disagrees-with-config": (lambda d: d.update(d_a=d["d_a"] + 1), "top-level d_a disagrees with config d_a"),
    # the config section is read as a run config is: each key has its JSON type, none is unknown
    "n_cameras-a-float": (lambda d: d["config"].update(n_cameras=2.7), "config.n_cameras must be int"),
    "layout_permutation-a-string": (lambda d: d["config"].update(layout_permutation="no"),
                                    "config.layout_permutation must be bool"),
    "dropout-prob-a-string": (lambda d: d["config"].update(membership_dropout_prob="0.3"),
                              "config.membership_dropout_prob must be float"),
    "config-with-an-unknown-key": (lambda d: d["config"].update(colour=1), "unknown config keys: colour"),
    "version-a-bool": (lambda d: d.update(version=True), "dataset version is malformed"),
    # group identities own disjoint rosters, and a view lists each member once
    "view-lists-an-identity-twice": (lambda d: d["samples"][2]["members"].append(d["samples"][2]["members"][0]),
                                     "sample 2 lists member identity 1 twice"),
    "identity-of-another-group": (lambda d: d["samples"][23]["members"][0].update(identity_id=0),
                                  "sample 23 member identity 0 belongs to group 0, not to group 5"),
}


@pytest.mark.parametrize("damage", sorted(_DATASET_DAMAGE))
def test_train_rejects_a_malformed_dataset(tmp_path, small_config, capsys, damage):
    data = _gen(tmp_path, small_config)
    doc = json.loads(Path(data).read_text())
    breaks, where = _DATASET_DAMAGE[damage]
    breaks(doc)
    Path(data).write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "x.ckpt"
    code = main(["train", "--stage", "1", "--config", small_config, "--data", data, "--out", str(out)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert not out.exists()


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
    artifact = json.loads(Path(out_path).read_text())
    assert artifact["format"] == "gcum-eval-report"
    assert artifact["report"] == printed
    assert artifact["config"]["seed"] == 5
    assert artifact["tool_version"] == __version__


def test_eval_report_adds_the_data_config_only_where_it_differs_from_the_run(tmp_path, small_config, capsys):
    # trained on full groups, evaluated on the default data, where members go missing
    full = tmp_path / "full.json"
    full.write_text(json.dumps({**_SMALL, "data": {**_SMALL["data"], "membership_dropout_prob": 0.0}}))
    full_data, dropped_data = str(tmp_path / "full-data.json"), _gen(tmp_path, small_config)
    assert main(["gen-data", "--config", str(full), "--out", full_data]) == EXIT_OK
    s1 = str(tmp_path / "s1.ckpt")
    assert main(["train", "--stage", "1", "--config", str(full), "--data", full_data, "--out", s1]) == EXIT_OK
    reports = {}
    for name, data in (("same", full_data), ("other", dropped_data)):
        reports[name] = str(tmp_path / f"{name}.json")
        assert main(["eval", "--checkpoint", s1, "--data", data, "--out", reports[name]]) == EXIT_OK
    capsys.readouterr()
    same, other = (json.loads(Path(reports[k]).read_text()) for k in ("same", "other"))
    keys = ["format", "version", "tool_version", "config", "query_camera", "modules", "report"]
    assert list(same) == keys
    assert list(other) == keys[:4] + ["data_config"] + keys[4:]
    assert other["config"] == same["config"] and other["config"]["data"]["membership_dropout_prob"] == 0.0
    assert other["data_config"] == json.loads(Path(dropped_data).read_text())["config"]
    assert other["data_config"]["membership_dropout_prob"] == 0.3


def test_eval_report_adds_the_data_seed_only_where_it_differs_from_the_run(tmp_path, small_config, capsys):
    # the run's config at another seed makes another catalog and split
    s1 = str(tmp_path / "s1.ckpt")
    assert main(["train", "--stage", "1", "--config", small_config, "--data", _gen(tmp_path, small_config),
                 "--out", s1]) == EXIT_OK
    datasets = {}
    for name, data in (("seed", {}), ("both", {"membership_dropout_prob": 0.0})):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({**_SMALL, "seed": 6, "data": {**_SMALL["data"], **data}}))
        datasets[name] = str(tmp_path / f"{name}-data.json")
        assert main(["gen-data", "--config", str(config), "--out", datasets[name]]) == EXIT_OK
    reports = {}
    for name, data in (("same", str(tmp_path / "data.json")), *datasets.items()):
        path = tmp_path / f"{name}-report.json"
        assert main(["eval", "--checkpoint", s1, "--data", data, "--out", str(path)]) == EXIT_OK
        reports[name] = json.loads(path.read_text())
    capsys.readouterr()
    keys = ["format", "version", "tool_version", "config", "query_camera", "modules", "report"]
    assert list(reports["same"]) == keys
    assert list(reports["seed"]) == keys[:4] + ["data_seed"] + keys[4:]
    assert list(reports["both"]) == keys[:4] + ["data_config", "data_seed"] + keys[4:]
    assert reports["seed"]["config"]["seed"] == 5
    assert reports["seed"]["data_seed"] == reports["both"]["data_seed"] == 6
    assert reports["seed"]["report"] != reports["same"]["report"]


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


@pytest.mark.parametrize("data, message", [
    ({"M0": 6, "K": 6}, "-member views but config M0=3"),
    ({"d_a": 9}, "config d_a=6 but dataset has d_a=9"),
])
def test_eval_rejects_data_the_checkpoint_cannot_read(tmp_path, small_config, capsys, data, message):
    s1 = str(tmp_path / "s1.ckpt")
    main(["train", "--stage", "1", "--config", small_config, "--data", _gen(tmp_path, small_config),
          "--out", s1])
    path = tmp_path / "other.json"
    path.write_text(json.dumps({**_SMALL, **data, "data": {"n_group_identities": 20}}))
    other = str(tmp_path / "other-data.json")
    assert main(["gen-data", "--config", str(path), "--out", other]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--checkpoint", s1, "--data", other]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_eval_reads_rosters_wider_than_k(tmp_path, small_config, capsys):
    # eval encodes no group prompt, so a roster wider than K is no error
    data = _gen(tmp_path, small_config)
    s1 = str(tmp_path / "s1.ckpt")
    main(["train", "--stage", "1", "--config", small_config, "--data", data, "--out", s1])
    doc = json.loads(Path(data).read_text())
    fresh = iter(range(len(doc["catalog"]), 10000))
    for sample in doc["samples"]:
        for member in sample["members"]:
            member["identity_id"] = next(fresh)
            doc["catalog"].append(dict(member))  # the fresh identity joins the catalog
    # the document's own member range must cover its widest roster
    doc["config"]["members_per_group"][1] = max(
        sum(len(s["members"]) for s in doc["samples"] if s["group_id"] == gid) for gid in range(6))
    wide = str(tmp_path / "wide.json")
    Path(wide).write_text(json.dumps(doc))
    assert main(["train", "--stage", "1", "--config", small_config, "--data", wide,
                 "--out", str(tmp_path / "x.ckpt")]) == EXIT_CONFIG
    assert "rosters but config K=3" in capsys.readouterr().err
    assert main(["eval", "--checkpoint", s1, "--data", wide]) == EXIT_OK


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Data and both stages' checkpoints of the small config, made once."""
    root = tmp_path_factory.mktemp("trained")
    config = root / "cfg.json"
    config.write_text(json.dumps(_SMALL))
    run = SimpleNamespace(config=str(config), data=str(root / "data.json"),
                          s1=str(root / "s1.ckpt"), s2=str(root / "s2.ckpt"))
    assert main(["gen-data", "--config", run.config, "--out", run.data]) == EXIT_OK
    assert main(["train", "--stage", "1", "--config", run.config, "--data", run.data, "--out", run.s1]) == EXIT_OK
    assert main(["train", "--stage", "2", "--config", run.config, "--data", run.data,
                 "--init-checkpoint", run.s1, "--out", run.s2]) == EXIT_OK
    return run


def _copy_checkpoint(src: str, dest) -> str:
    shutil.copy(src, dest)
    shutil.copy(src + ".meta.json", str(dest) + ".meta.json")
    return str(dest)


_SIDECAR_DAMAGE = {
    # name: (change to the sidecar document, what the error names)
    "not-json": (None, "is not valid JSON"),
    "no-run-data": (lambda m: m["run"].pop("data"), "config.data is missing"),
    "no-model": (lambda m: m.pop("model"), "missing required key 'model'"),
    "no-grce-module": (lambda m: m["modules"].pop("grce"), "modules.grce is missing"),
    "modules-list": (lambda m: m.update(modules=[]), "modules must be a JSON object"),
    "model-dim-a-float": (lambda m: m["model"].update(dim=8.5), "model.dim must be int"),
    "model-with-an-extra-key": (lambda m: m["model"].update(depth=2), "unknown model keys: depth"),
    "grce-module-a-string": (lambda m: m["modules"].update(grce="no"), "modules.grce must be bool"),
    "stage-a-string": (lambda m: m.update(stage="two"), "stage is malformed"),
    "stage-3": (lambda m: m.update(stage=3), "stage must be 1 or 2"),
    "no-format": (lambda m: m.pop("format"), "missing required key 'format'"),
    "version-7": (lambda m: m.update(version=7), "version 7"),
    "train_fraction-a-string": (lambda m: m["run"]["data"].update(train_fraction="0.7"),
                                "config.data.train_fraction must be float"),
    "train_fraction-out-of-range": (lambda m: m["run"]["data"].update(train_fraction=1.5),
                                    "train_fraction must lie strictly between 0 and 1"),
}


def _damage_sidecar(path: str, damage: str) -> None:
    sidecar = Path(path + ".meta.json")
    if damage == "not-json":
        sidecar.write_text("{\"model\": ")
        return
    meta = json.loads(sidecar.read_text())
    _SIDECAR_DAMAGE[damage][0](meta)
    sidecar.write_text(json.dumps(meta))


def _set_tensor(name: str, value: float):
    def damage(path):
        tensors = dict(load_checkpoint(path))
        tensors[name] = np.full(tensors[name].shape, value)
        save_checkpoint(path, tensors)  # the sidecar stays
    return damage


def _rename_first_tensor(path: str) -> None:
    blob = bytearray(Path(path).read_bytes())
    blob[16] = 0xFF  # after magic, version, count and the name length: no UTF-8 starts so
    Path(path).write_bytes(bytes(blob))


_CHECKPOINT_DAMAGE = {
    # name: (change to the checkpoint file, what the error names)
    "nan-in-prompt.x": (_set_tensor("prompt.x", np.nan), "tensor 'prompt.x' holds values that are not finite"),
    "name-not-utf8": (_rename_first_tensor, "tensor 0 has a name that is not UTF-8"),
    "temp.inv-below-its-range": (_set_tensor("temp.inv", -5.0), "tensor 'temp.inv' is -5.0, outside [1.0, 100.0]"),
    # eval trains nothing, so weights that overflow there are the checkpoint's fault
    "weights-overflow-in-eval": (_set_tensor("member.w2", 1e300), "overflows in eval: l2_normalize"),
    # finite weights that the reader takes, though their sum overflows: the product that overflows is named
    "weights-whose-sum-overflows": (_set_tensor("member.w1", 1e308), "overflows in eval: matmul"),
    "rank-3-tensor": (lambda path: save_checkpoint(path, {**load_checkpoint(path), "prompt.x": np.zeros((1, 1, 1))}),
                      "tensor 'prompt.x' has unsupported rank 3"),
}


@pytest.mark.parametrize("damage, check_stage2", [
    ("no-run-data", False),
    ("no-model", True),
    ("no-grce-module", False),
    ("not-json", True),
    ("modules-list", True),
    ("model-dim-a-float", True),
    ("model-with-an-extra-key", True),
    ("grce-module-a-string", True),
    ("stage-a-string", True),
    ("stage-3", True),
    ("no-format", True),
    ("version-7", True),
    ("train_fraction-a-string", True),
    ("train_fraction-out-of-range", True),
    ("nan-in-prompt.x", True),
    ("name-not-utf8", True),
    ("temp.inv-below-its-range", True),
    ("weights-overflow-in-eval", False),  # stage 2 names its frozen pass: see the next test
    ("weights-whose-sum-overflows", False),
    ("rank-3-tensor", True),
])
def test_damaged_checkpoint_sidecar_exits_3(trained, tmp_path, capsys, damage, check_stage2):
    # eval and stage 2 read a checkpoint through one checked reader
    ckpt = _copy_checkpoint(trained.s1, tmp_path / "s1.ckpt")
    if damage in _CHECKPOINT_DAMAGE:
        _CHECKPOINT_DAMAGE[damage][0](ckpt)
    else:
        _damage_sidecar(ckpt, damage)
    where = {**_SIDECAR_DAMAGE, **_CHECKPOINT_DAMAGE}[damage][1]
    capsys.readouterr()
    out = tmp_path / "s2.ckpt"
    commands = [["eval", "--checkpoint", ckpt, "--data", trained.data]]
    if check_stage2:
        commands.append(["train", "--stage", "2", "--config", trained.config, "--data", trained.data,
                         "--init-checkpoint", ckpt, "--out", str(out)])
    for argv in commands:
        assert main(argv) == EXIT_IO, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err, err
    assert not out.exists()


def test_a_checkpoint_without_its_sidecar_exits_3_naming_the_sidecar(trained, tmp_path, capsys):
    # the checkpoint is there, so a missing sidecar is a damaged artifact; a
    # missing checkpoint file still exits 4, whether its sidecar is there or not
    ckpt = _copy_checkpoint(trained.s1, tmp_path / "s1.ckpt")
    Path(ckpt + ".meta.json").unlink()
    out = tmp_path / "s2.ckpt"
    capsys.readouterr()
    for argv in (["eval", "--checkpoint", ckpt, "--data", trained.data],
                 ["train", "--stage", "2", "--config", trained.config, "--data", trained.data,
                  "--init-checkpoint", ckpt, "--out", str(out)]):
        assert main(argv) == EXIT_IO, argv[0]
        assert capsys.readouterr().err == f"error: checkpoint sidecar {ckpt}.meta.json not found\n"
    assert not out.exists()
    ghost = _copy_checkpoint(trained.s1, tmp_path / "ghost.ckpt")
    Path(ghost).unlink()
    assert main(["eval", "--checkpoint", ghost, "--data", trained.data]) == EXIT_CHECKPOINT
    assert capsys.readouterr().err == f"error: checkpoint not found: {ghost}\n"


def test_stage2_exits_3_when_the_init_checkpoint_overflows_its_frozen_pass(trained, tmp_path, capsys):
    # the frozen pass reads only the checkpoint's frozen weights and the data, so no step diverged
    ckpt = _copy_checkpoint(trained.s1, tmp_path / "s1.ckpt")
    _set_tensor("member.w2", 1e300)(ckpt)
    capsys.readouterr()
    out = tmp_path / "s2.ckpt"
    code = main(["train", "--stage", "2", "--config", trained.config, "--data", trained.data,
                 "--init-checkpoint", ckpt, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_IO, err
    assert err.startswith(f"error: init checkpoint {ckpt} overflows in stage 2, epoch 0, "
                          "frozen visual pass: l2_normalize: "), err
    assert "diverged" not in err and not out.exists()


def test_stage2_from_a_checkpoint_of_another_model_config_exits_2(trained, tmp_path, capsys):
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({**_SMALL, "dim": 12}))
    s1 = str(tmp_path / "s1.ckpt")
    assert main(["train", "--stage", "1", "--config", str(wide), "--data", trained.data, "--out", s1]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "s2.ckpt"
    assert main(["train", "--stage", "2", "--config", trained.config, "--data", trained.data,
                 "--init-checkpoint", s1, "--out", str(out)]) == EXIT_CONFIG
    assert "init checkpoint was trained under a different model config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_an_out_path_in_a_missing_directory_exits_3(trained, tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "out")
    argv = {"train": ["train", "--stage", "1", "--config", trained.config, "--data", trained.data, "--out", out],
            "eval": ["eval", "--checkpoint", trained.s2, "--data", trained.data, "--out", out]}[command]
    capsys.readouterr()
    assert main(argv) == EXIT_IO
    assert f"cannot write {'checkpoint ' if command == 'train' else ''}{out}" in capsys.readouterr().err


def test_stage1_with_gla_disabled_exits_2(trained, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**_SMALL, "gla": {"enabled": False}}))
    out = tmp_path / "s1.ckpt"
    capsys.readouterr()
    assert main(["train", "--stage", "1", "--config", str(config), "--data", trained.data,
                 "--out", str(out)]) == EXIT_CONFIG
    assert "gla.enabled is false" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_stage2_with_one_view_per_group_exits_2_naming_q_views(trained, tmp_path, capsys, command):
    # stage 1 reads no q_views and trains; stage 2's triplet anchors would have no positive in their batch
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**_SMALL, "train": {**_SMALL["train"], "p_groups": 4, "q_views": 1}}))
    out, s1 = tmp_path / "out", str(tmp_path / "s1.ckpt")
    if command == "train":
        assert main(["train", "--stage", "1", "--config", str(config), "--data", trained.data, "--out", s1]) == EXIT_OK
        argv = ["train", "--stage", "2", "--config", str(config), "--data", trained.data, "--init-checkpoint", s1]
    else:
        argv = ["ablate", "--config", str(config), "--seeds", "3"]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert "error: stage 2 needs train.q_views of at least 2, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_appearances_whose_sum_overflows_are_finite_data(trained, tmp_path, capsys):
    # 1e308 is finite and the reader takes it; only a sum of two overflows
    doc = json.loads(Path(trained.data).read_text())
    for sample in doc["samples"]:
        for member in sample["members"]:
            member["appearance"] = [1e308] * len(member["appearance"])
    data = str(tmp_path / "data.json")
    Path(data).write_text(json.dumps(doc))
    for argv in (["eval", "--checkpoint", trained.s2, "--data", data],
                 ["train", "--stage", "1", "--config", trained.config, "--data", data,
                  "--out", str(tmp_path / "s1.ckpt")]):
        assert main(argv) == EXIT_OK, capsys.readouterr().err


def test_no_numpy_warning_escapes_a_command(trained, tmp_path):
    # each run is a fresh interpreter in which a RuntimeWarning is an error (exit 1, a traceback)
    doc = json.loads(json.dumps(_SMALL))
    doc["train"].update(lr_peak=1e12, total_epochs=6)  # the diverging run of tests/console_flow.sh
    diverge = tmp_path / "diverge.json"
    diverge.write_text(json.dumps(doc))
    ckpt = _copy_checkpoint(trained.s1, tmp_path / "s1.ckpt")
    _set_tensor("member.w2", 1e300)(ckpt)
    runs = [
        (EXIT_NONFINITE, ["train", "--stage", "1", "--config", str(diverge), "--data", trained.data,
                          "--out", str(tmp_path / "diverge.ckpt")]),
        (EXIT_IO, ["train", "--stage", "2", "--config", trained.config, "--data", trained.data,
                   "--init-checkpoint", ckpt, "--out", str(tmp_path / "s2.ckpt")]),
        (EXIT_IO, ["eval", "--checkpoint", ckpt, "--data", trained.data]),
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    for code, argv in runs:
        run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "gcum.cli", *argv],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == code, run.stderr
        assert run.stderr.startswith("error: ") and "Warning" not in run.stderr, run.stderr


_FLOW = """
import json, sys
from gcum.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(code)
"""


def test_artifacts_keep_their_bytes_at_any_blas_thread_count(tmp_path):
    # the README flow in a fresh interpreter per BLAS thread count, as the
    # BLAS reads its thread count when numpy loads; the explicit variables
    # win over GCUM_THREADS, which only fills unset ones.  OpenBLAS caps
    # its thread count at the host's cores, so on a one-core host both runs
    # use one thread and this test cannot fail there.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 1, "train": {"scale_factor": 0.05}}))
    flow = [["gen-data", "--config", str(config), "--out", "data.json"],
            ["train", "--stage", "1", "--config", str(config), "--data", "data.json", "--out", "s1.ckpt"],
            ["train", "--stage", "2", "--config", str(config), "--data", "data.json",
             "--init-checkpoint", "s1.ckpt", "--out", "s2.ckpt"],
            ["eval", "--checkpoint", "s2.ckpt", "--data", "data.json", "--out", "report.json"]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = {}
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", _FLOW, json.dumps(flow)], cwd=cwd, env=env,
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        runs[threads] = run.stdout, {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    (out1, files1), (out2, files2) = runs["1"], runs["2"]
    assert sorted(files1) == ["data.json", "report.json", "s1.ckpt", "s1.ckpt.log.jsonl", "s1.ckpt.meta.json",
                              "s2.ckpt", "s2.ckpt.log.jsonl", "s2.ckpt.meta.json"]
    assert files1.keys() == files2.keys()
    assert [name for name in files1 if files1[name] != files2[name]] == []
    assert out1 == out2


@settings(max_examples=100, deadline=None)
@given(suffix=st.sampled_from(["", ".meta.json"]), at=st.integers(min_value=0),
       byte=st.none() | st.integers(0, 255))
@example(suffix="", at=16, byte=0xFF)  # the first tensor name's first byte
def test_a_truncated_or_changed_checkpoint_evals_or_exits_3(trained, suffix, at, byte):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = _copy_checkpoint(trained.s2, Path(tmp) / "s2.ckpt")
        path = Path(ckpt + suffix)
        blob = bytearray(path.read_bytes())
        at %= len(blob)
        if byte is None:
            del blob[at:]
        else:
            blob[at] = byte
        path.write_bytes(bytes(blob))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = main(["eval", "--checkpoint", ckpt, "--data", trained.data])
    assert code in (EXIT_OK, EXIT_IO), err.getvalue()
    assert code == EXIT_OK or err.getvalue().startswith("error: ")


def _commands_reading(trained, data: str, tmp: str) -> list[list[str]]:
    """The eval and stage-2 train commands of the trained run, reading ``data``."""
    return [
        ["eval", "--checkpoint", trained.s2, "--data", data],
        ["train", "--stage", "2", "--config", trained.config, "--data", data,
         "--init-checkpoint", trained.s1, "--out", os.path.join(tmp, "s2.ckpt")],
    ]


def test_a_dataset_that_is_not_utf8_exits_3_naming_it_and_the_byte(trained, tmp_path, capsys):
    data = tmp_path / "data.json"
    blob = bytearray(Path(trained.data).read_bytes())
    blob[100] = 0xFF
    data.write_bytes(bytes(blob))
    for argv in _commands_reading(trained, str(data), str(tmp_path)):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_IO, (argv[0], err)
        assert err.startswith(f"error: dataset {data} is not UTF-8 at byte 100: invalid start byte"), err


@settings(max_examples=100, deadline=None)
@given(at=st.integers(min_value=0), byte=st.none() | st.integers(0, 255))
@example(at=100, byte=0xFF)  # no UTF-8 sequence starts so
def test_a_truncated_or_changed_dataset_runs_or_exits_3(trained, at, byte):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.json"
        blob = bytearray(Path(trained.data).read_bytes())
        at %= len(blob)
        if byte is None:
            del blob[at:]
        else:
            blob[at] = byte
        data.write_bytes(bytes(blob))
        for argv in _commands_reading(trained, str(data), tmp):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                    np.errstate(all="ignore"):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_IO), (argv[0], err.getvalue())
            assert code == EXIT_OK or err.getvalue().startswith("error: ")


_CONFIG_EDITS = ("one-group-more-in-config", "a-group-left-out", "narrower-member-range", "camera-past-the-count",
                 "negative-camera", "one-camera-more-in-config", "view-moved-to-another-camera",
                 "one-view-more-in-config", "a-view-left-out")


def _break_config_agreement(doc, edit: str, at: int) -> str:
    """Edit a gen-data ``doc`` so it is no longer what its config section describes.

    ``at`` picks a sample.  Returns what the reader's error must name.
    """
    config, samples = doc["config"], doc["samples"]
    at %= len(samples)
    sample = samples[at]
    if edit == "one-group-more-in-config":
        config["n_group_identities"] += 1
        return "config.n_group_identities"
    if edit == "a-group-left-out":
        doc["samples"] = [s for s in samples if s["group_id"] != sample["group_id"]]
        return "config.n_group_identities"
    if edit == "narrower-member-range":
        rosters: dict = {}
        for s in samples:
            rosters.setdefault(s["group_id"], set()).update(m["identity_id"] for m in s["members"])
        widest = max(map(len, rosters.values()))
        config["members_per_group"] = [2, widest - 1]
        # a range below two members fails the config's own checks
        return "config.members_per_group" if widest > 2 else "dataset config is malformed"
    if edit == "camera-past-the-count":
        sample["camera_id"] = config["n_cameras"]
        return "config.n_cameras"
    if edit == "negative-camera":
        sample["camera_id"] = -1
        return "config.n_cameras"
    if edit == "one-camera-more-in-config":
        config["n_cameras"] += 1
    elif edit == "view-moved-to-another-camera":
        sample["camera_id"] = (sample["camera_id"] + 1) % config["n_cameras"]
    elif edit == "one-view-more-in-config":
        config["views_per_group_per_camera"] += 1
    else:
        assert edit == "a-view-left-out"
        del samples[at]
    return "config.views_per_group_per_camera"


@settings(max_examples=60, deadline=None)
@given(groups=st.integers(2, 8), members=st.tuples(st.integers(2, 3), st.integers(2, 3)).map(sorted),
       cameras=st.integers(2, 3), views=st.integers(1, 3), dropout=st.floats(0.0, 0.9),
       permute=st.booleans(), seed=st.integers(0, 2**16), edit=st.sampled_from(_CONFIG_EDITS),
       at=st.integers(0, 10**6))
def test_every_generated_dataset_loads_and_one_at_odds_with_its_config_exits_3(
        trained, groups, members, cameras, views, dropout, permute, seed, edit, at):
    config = GenConfig(n_group_identities=groups, members_min=members[0], members_max=members[1],
                       n_cameras=cameras, views_per_group_per_camera=views, membership_dropout_prob=dropout,
                       layout_permutation=permute, d_a=_SMALL["d_a"])
    doc = dataset_to_doc(generate_dataset(config, seed))
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.json"
        for damaged in (False, True):
            where = _break_config_agreement(doc, edit, at) if damaged else None
            data.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["eval", "--checkpoint", trained.s2, "--data", str(data)])
            if damaged:
                assert code == EXIT_IO and err.getvalue().startswith("error: ") and where in err.getvalue(), \
                    err.getvalue()
            else:
                assert code == EXIT_OK, err.getvalue()


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


@pytest.mark.parametrize("flag, value", [
    ("--step", "0"), ("--step", "-1e-5"), ("--step", "nan"), ("--step", "inf"),
    ("--tolerance", "0"), ("--tolerance", "nan"),
])
def test_grad_check_rejects_a_step_or_tolerance_that_is_not_finite_and_positive(capsys, flag, value):
    assert main(["grad-check", f"{flag}={value}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{flag} must be finite and positive" in err
    assert "diverged" not in err


def test_a_grad_check_step_that_overflows_exits_5_naming_the_check_and_the_step(capsys):
    # grad-check trains nothing, so an overflow at a huge step is no divergence
    assert main(["grad-check", "--seed", "0", "--step", "1e300"]) == EXIT_NONFINITE
    err = capsys.readouterr().err
    assert err.startswith("error: grad-check stage1_contrastive is not finite at --step 1e+300: "), err
    assert "diverged" not in err


def test_run_grad_checks_reports_all_losses():
    reports = run_grad_checks(1, step=1e-5, tolerance=1e-4)
    assert set(reports) == {
        "stage1_contrastive", "identity", "triplet", "image_text", "stage2_total"
    }
    assert all(r.ok for r in reports.values())
    assert all(r.max_rel_error < 1e-4 for r in reports.values())


@pytest.mark.parametrize("seed", range(3))
def test_stage1_loss_over_padded_group_prompts_passes_grad_check(seed):
    # run_grad_checks' instance with a spare slot and rosters of 2 to 3 members, so every group
    # prompt pads and prompt.pad gets a checked gradient
    cfg = RunConfig(seed=seed, dim=4, d_a=4, m0=3, k_slots=4, tokens_per_identity=2,
                    alpha=0.5, n_group_identities=3, members_min=2, membership_dropout_prob=0.0,
                    appearance_noise_std=0.2, camera_bias_std=0.1)
    ds = generate_dataset(cfg.gen_config(), cfg.seed)
    state = init_model_state(cfg.model_config(ds, n_group_classes=len(ds.group_ids())), seed=seed + 1)
    rosters = ds.group_rosters()
    gids = sorted(rosters)[:2]
    samples = [s for g in gids for s in [s for s in ds.samples if s.group_id == g][:2]]
    masks = [None if i % 2 else Mask(tuple([1] * (len(s.identity_ids) - 1) + [0])) for i, s in enumerate(samples)]
    params = state.with_trainable(STAGE1_TRAINABLE).params
    frozen = grce.FrozenPass(samples, masks, ModelState(state.config, params), quantity=True)

    def loss_fn(ps):
        st = ModelState(state.config, ps)
        return stage1_batch_loss(samples, *frozen(range(len(samples)), st, refined=False), st, rosters)[0]

    report = dc.grad_check(loss_fn, params, step=1e-5, tolerance=1e-4)
    assert report.ok, report.failures[:3]
    assert set(report.per_param) == set(STAGE1_TRAINABLE)
    with dc.Graph() as g:
        loss = loss_fn(params)
    assert np.any(g.backward(loss)[params["prompt.pad"]])


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
    doc = json.loads(Path(out_path).read_text())
    assert doc["format"] == "gcum-ablation"
    assert [r["name"] for r in doc["rows"]] == ["Base", "+GLA", "+MVS", "+GRCE", "+GLA+MVS", "Full"]
    assert doc["seeds"] == [5, 6, 7]
    assert doc["config"]["M0"] == 3


def test_ablate_needs_three_seeds(tmp_path, small_config, capsys):
    code = main(["ablate", "--config", small_config, "--seeds", "2"])
    assert code == EXIT_CONFIG
    assert "seeds" in capsys.readouterr().err
