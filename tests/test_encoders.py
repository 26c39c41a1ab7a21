"""Encoder forward passes, parameter init, and checkpoint round trips."""

import struct

import numpy as np
import pytest

from gcum import diffcore as dc
from gcum.diffcore import ShapeError, Tensor
from gcum.encoders import (
    CHECKPOINT_MAGIC,
    STAGE1_TRAINABLE,
    STAGE2_TRAINABLE,
    CheckpointError,
    ModelConfig,
    attention_block,
    encode_group_prefix,
    encode_group_suffix,
    encode_members,
    encode_text,
    init_model_state,
    load_checkpoint,
    load_checkpoint_meta,
    save_checkpoint,
    state_from_checkpoint,
)


def small_config(**overrides) -> ModelConfig:
    base = dict(
        dim=8,
        d_a=5,
        max_members=3,
        group_slots=3,
        tokens_per_identity=2,
        n_person_ids=4,
        n_group_classes=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def test_init_is_deterministic():
    a = init_model_state(small_config(), seed=7)
    b = init_model_state(small_config(), seed=7)
    assert set(a.params) == set(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name].values, b.params[name].values), name


def test_init_seed_changes_values():
    a = init_model_state(small_config(), seed=7)
    b = init_model_state(small_config(), seed=8)
    assert not np.array_equal(a.params["member.w1"].values, b.params["member.w1"].values)


def test_parameter_shapes():
    cfg = small_config()
    state = init_model_state(cfg, seed=0)
    p = state.params
    assert p["member.w1"].shape == (cfg.d_a, cfg.hidden)
    assert p["member.w2"].shape == (cfg.hidden, cfg.dim)
    assert p["group.cls"].shape == (cfg.dim,)
    assert p["prompt.x"].shape == (cfg.n_person_ids * cfg.tokens_per_identity, cfg.dim)
    assert p["prompt.pad"].shape == (cfg.tokens_per_identity, cfg.dim)
    assert p["quantity.em"].shape == (cfg.max_members, cfg.dim)
    assert np.all(p["quantity.em"].values == 0.0)
    assert p["text.pos"].shape == (cfg.max_prompt_len, cfg.dim)
    assert p["grce.classifier"].shape == (cfg.n_group_classes, cfg.dim)
    assert p["temp.inv"].shape == ()
    assert p["temp.inv"].item() == pytest.approx(1.0 / 0.07)


def test_config_rejects_slots_below_max_members():
    with pytest.raises(ValueError):
        small_config(group_slots=2, max_members=3).validate()


def test_config_round_trip():
    cfg = small_config(dim=10, temperature_init=5.0)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_prompt_length_properties():
    cfg = small_config()
    assert cfg.member_prompt_len == 4 + 2 + 1
    assert cfg.group_prompt_len == 3 + 3 * 2 + 1
    assert cfg.max_prompt_len == cfg.group_prompt_len


def test_attention_block_identity_with_zero_output_projection():
    rng = np.random.default_rng(0)
    x = dc.constant(rng.normal(size=(4, 8)))
    w = lambda: dc.constant(rng.normal(size=(8, 8)))
    out = attention_block(x, w(), w(), w(), dc.constant(np.zeros((8, 8))))
    assert np.array_equal(out.values, x.values)


def test_member_features_are_unit_norm():
    state = init_model_state(small_config(), seed=1)
    app = dc.constant(np.random.default_rng(2).normal(size=(3, 5)))
    feats = encode_members(app, state)
    assert feats.shape == (3, 8)
    assert np.allclose(np.linalg.norm(feats.values, axis=1), 1.0, atol=1e-12)


def test_member_encoder_is_rowwise():
    state = init_model_state(small_config(), seed=1)
    rows = np.random.default_rng(3).normal(size=(3, 5))
    straight = encode_members(dc.constant(rows), state)
    flipped = encode_members(dc.constant(rows[::-1]), state)
    assert np.array_equal(straight.values, flipped.values[::-1])


def test_group_prefix_shapes_and_member_limit():
    state = init_model_state(small_config(), seed=1)
    feats = dc.constant(np.random.default_rng(5).normal(size=(3, 8)))
    cls, members = encode_group_prefix(feats, state)
    assert cls.shape == (8,)
    assert members.shape == (3, 8)
    too_many = dc.constant(np.zeros((4, 8)))
    with pytest.raises(ShapeError):
        encode_group_prefix(too_many, state)


def test_group_suffix_requires_class_plus_member():
    state = init_model_state(small_config(), seed=1)
    with pytest.raises(ShapeError):
        encode_group_suffix(dc.constant(np.ones((1, 8))), state)
    out = encode_group_suffix(dc.constant(np.random.default_rng(6).normal(size=(3, 8))), state)
    assert out.shape == (8,)
    assert np.linalg.norm(out.values) == pytest.approx(1.0, abs=1e-12)


def test_text_feature_unit_norm_and_length_limit():
    cfg = small_config()
    state = init_model_state(cfg, seed=1)
    tokens = dc.constant(np.random.default_rng(7).normal(size=(cfg.max_prompt_len, cfg.dim)))
    out = encode_text(tokens, state)
    assert out.shape == (cfg.dim,)
    assert np.linalg.norm(out.values) == pytest.approx(1.0, abs=1e-12)
    over = dc.constant(np.zeros((cfg.max_prompt_len + 1, cfg.dim)))
    with pytest.raises(ShapeError):
        encode_text(over, state)


def test_text_positions_beyond_length_are_inert():
    cfg = small_config()
    state = init_model_state(cfg, seed=1)
    length = cfg.member_prompt_len  # shorter than the positional table
    tokens = dc.constant(np.random.default_rng(8).normal(size=(length, cfg.dim)))
    before = encode_text(tokens, state)

    bumped = np.array(state.params["text.pos"].values)
    bumped[length:] += 100.0
    other = state.with_param("text.pos", Tensor(bumped, requires_grad=True))
    after = encode_text(tokens, other)
    assert np.array_equal(before.values, after.values)


def test_set_trainable_narrows_gradient_flags():
    state = init_model_state(small_config(), seed=0)
    state.set_trainable(STAGE1_TRAINABLE)
    assert state.trainable_names() == sorted(STAGE1_TRAINABLE)
    state.set_trainable(STAGE2_TRAINABLE)
    assert state.trainable_names() == sorted(STAGE2_TRAINABLE)
    with pytest.raises(KeyError):
        state.set_trainable(["no.such.param"])


def test_checkpoint_round_trip_bit_exact(tmp_path):
    state = init_model_state(small_config(), seed=9)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, state.params)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(state.params)
    for name, arr in loaded.items():
        assert arr.dtype == np.float64
        assert np.array_equal(arr, state.params[name].values), name


def test_checkpoint_sidecar_meta_and_state_rebuild(tmp_path):
    cfg = small_config()
    state = init_model_state(cfg, seed=9)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, state.params, meta={"model": cfg.to_dict(), "note": "x"})
    meta = load_checkpoint_meta(path)
    assert meta["format"] == "gcum-checkpoint-meta"
    assert meta["note"] == "x"

    rebuilt, meta2 = state_from_checkpoint(path)
    assert rebuilt.config == cfg
    assert meta2 == meta
    for name in state.params:
        assert np.array_equal(rebuilt.params[name].values, state.params[name].values)
        assert rebuilt.params[name].requires_grad


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_wrong_version(tmp_path):
    path = tmp_path / "v2.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 2, 0))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_truncation_with_offset(tmp_path):
    state = init_model_state(small_config(), seed=9)
    path = tmp_path / "cut.ckpt"
    save_checkpoint(str(path), state.params)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(CheckpointError, match="truncated at byte"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    state = init_model_state(small_config(), seed=9)
    path = tmp_path / "extra.ckpt"
    save_checkpoint(str(path), state.params)
    path.write_bytes(path.read_bytes() + b"!")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(str(path))


def test_state_from_checkpoint_rejects_missing_param(tmp_path):
    cfg = small_config()
    state = init_model_state(cfg, seed=9)
    partial = dict(state.params)
    partial.pop("grce.wq")
    path = str(tmp_path / "partial.ckpt")
    save_checkpoint(path, partial, meta={"model": cfg.to_dict()})
    with pytest.raises(CheckpointError, match="mismatch"):
        state_from_checkpoint(path)
