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
    encode_group_prefix,
    encode_group_suffix,
    encode_members,
    encode_text,
    init_model_state,
    load_checkpoint,
    load_checkpoint_meta,
    parameter_shapes,
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
    # one table of names and shapes, in draw order, for init and the checkpoint reader
    assert [(name, t.shape) for name, t in p.items()] == list(parameter_shapes(cfg).items())


def test_config_rejects_slots_below_max_members():
    # a config checks itself when built
    with pytest.raises(ValueError):
        small_config(group_slots=2, max_members=3)
    with pytest.raises(ValueError):
        ModelConfig(dim=1)


def test_config_round_trip():
    cfg = small_config(dim=10, temperature_init=5.0)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    # the checkpoint sidecar writes the keys in this order
    assert list(cfg.to_dict()) == ["dim", "d_a", "max_members", "group_slots", "tokens_per_identity",
                                   "n_person_ids", "n_group_classes", "temperature_init", "init_std"]
    # a float key takes a JSON integer; nothing else is converted
    back = ModelConfig.from_dict(dict(cfg.to_dict(), temperature_init=5))
    assert type(back.temperature_init) is float and back == cfg
    for key, value in (("dim", 10.0), ("dim", "10"), ("dim", True), ("init_std", "0.02")):
        with pytest.raises(ValueError, match=f"model.{key} must be"):
            ModelConfig.from_dict(dict(cfg.to_dict(), **{key: value}))
    # a sidecar holds every key and no other
    doc = cfg.to_dict()
    del doc["init_std"]
    with pytest.raises(ValueError, match="model.init_std is missing"):
        ModelConfig.from_dict(doc)
    with pytest.raises(ValueError, match="unknown model keys: depth"):
        ModelConfig.from_dict(dict(cfg.to_dict(), depth=2))


def test_prompt_length_properties():
    cfg = small_config()
    assert cfg.member_prompt_len == 4 + 2 + 1
    assert cfg.group_prompt_len == 3 + 3 * 2 + 1
    assert cfg.max_prompt_len == cfg.group_prompt_len


def test_attention_block_identity_with_zero_output_projection():
    rng = np.random.default_rng(0)
    x = dc.constant(rng.normal(size=(4, 8)))
    w = lambda: dc.constant(rng.normal(size=(8, 8)))
    for length in (4, 2):
        out = dc.attention_block(x, w(), w(), w(), dc.constant(np.zeros((8, 8))), length)
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
    feats = np.random.default_rng(5).normal(size=(6, 8))
    out = encode_group_prefix(dc.constant(feats[:3]), state, [3], 3)
    assert out.shape == (4, 8)
    # two views of three members: class token then members, view after view
    both = encode_group_prefix(dc.constant(feats), state, [3, 3], 3)
    assert both.shape == (8, 8)
    assert np.array_equal(both.values[:4], out.values)
    assert np.array_equal(both.values[4:], encode_group_prefix(dc.constant(feats[3:]), state, [3], 3).values)
    # views of one and two members: each block is padded with zero rows to max_members + 1
    mixed = encode_group_prefix(dc.constant(feats[:3]), state, [1, 2], 3)
    assert mixed.shape == (8, 8)
    assert not np.any(mixed.values[[2, 3, 7]])
    assert np.array_equal(mixed.values[:4], encode_group_prefix(dc.constant(feats[:1]), state, [1], 3).values)
    assert np.array_equal(mixed.values[4:], encode_group_prefix(dc.constant(feats[1:3]), state, [2], 3).values)
    too_many = dc.constant(np.zeros((4, 8)))
    with pytest.raises(ShapeError):
        encode_group_prefix(too_many, state, [4], 3)
    with pytest.raises(ShapeError):
        encode_group_prefix(dc.constant(feats[:5]), state, [3], 3)


def test_group_blocks_at_fewer_slots_keep_the_live_rows():
    state = init_model_state(small_config(), seed=1)
    feats = dc.constant(np.random.default_rng(5).normal(size=(3, 8)))
    full = encode_group_prefix(feats, state, [1, 2], 3)
    narrow = encode_group_prefix(feats, state, [1, 2], 2)
    assert narrow.shape == (6, 8)
    assert np.allclose(narrow.values, full.values[[0, 1, 2, 4, 5, 6]], rtol=0, atol=1e-14)
    assert not np.any(full.values[[3, 7]])
    assert np.allclose(encode_group_suffix(narrow, state, [1, 2], 2).values,
                       encode_group_suffix(full, state, [1, 2], 3).values, rtol=0, atol=1e-14)
    for slots in (0, 4):  # outside [1, max_members]
        with pytest.raises(ShapeError):
            encode_group_prefix(feats, state, [1, 2], slots)
    with pytest.raises(ShapeError):
        encode_group_prefix(feats, state, [3], 2)  # more members than slots
    with pytest.raises(ShapeError):
        encode_group_suffix(full, state, [1, 2], 2)  # blocks of another width


def test_group_prefix_has_the_bits_of_gather_then_block():
    state = init_model_state(small_config(), seed=1)
    p = state.params
    feats = Tensor(np.random.default_rng(6).normal(size=(4, 8)), requires_grad=True)
    with dc.Graph() as g:
        out = encode_group_prefix(feats, state, [3, 1], 3)
        loss = dc.reduce_mean(dc.mul(out, out))
    grads = g.backward(loss)
    # the class token, a zero row and the members, laid into [cls; members; zero rows] blocks
    order = [0, 2, 3, 4, 0, 5, 1, 1]
    with dc.Graph() as g:
        rows = dc.gather_rows([p["group.cls"], dc.constant(np.zeros((1, 8))), feats], order)
        composed = dc.attention_block(rows, p["group.blk1.wq"], p["group.blk1.wk"], p["group.blk1.wv"],
                                      p["group.blk1.wo"], 4, [4, 2])
        composed_loss = dc.reduce_mean(dc.mul(composed, composed))
    want = g.backward(composed_loss)
    assert out.values.tobytes() == composed.values.tobytes()
    assert set(grads) == set(want)
    assert all(grads[t].tobytes() == want[t].tobytes() for t in want)


def test_group_suffix_requires_class_plus_member():
    state = init_model_state(small_config(), seed=1)
    with pytest.raises(ShapeError):
        encode_group_suffix(dc.constant(np.ones((4, 8))), state, [0], 3)
    with pytest.raises(ShapeError):
        encode_group_suffix(dc.constant(np.ones((3, 8))), state, [2], 3)  # not max_members + 1 rows
    out = encode_group_suffix(dc.constant(np.random.default_rng(6).normal(size=(4, 8))), state, [2], 3)
    assert out.shape == (1, 8)
    assert np.linalg.norm(out.values) == pytest.approx(1.0, abs=1e-12)


def test_text_feature_unit_norm_and_length_limit():
    cfg = small_config()
    state = init_model_state(cfg, seed=1)
    tokens = dc.constant(np.random.default_rng(7).normal(size=(cfg.max_prompt_len, cfg.dim)))
    out = encode_text(tokens, state, cfg.max_prompt_len)
    assert out.shape == (1, cfg.dim)
    assert np.linalg.norm(out.values) == pytest.approx(1.0, abs=1e-12)
    over = dc.constant(np.zeros((cfg.max_prompt_len + 1, cfg.dim)))
    with pytest.raises(ShapeError):
        encode_text(over, state, cfg.max_prompt_len + 1)
    with pytest.raises(ShapeError):
        encode_text(tokens, state, cfg.max_prompt_len - 1)  # rows do not split evenly


def test_batched_text_rows_match_one_prompt_encodes():
    # a text feature has the same bits in a stack of any size; at dim 48 a
    # mean over the stack's rows as one dense product did not keep them
    rng = np.random.default_rng(9)
    for cfg in (small_config(), ModelConfig()):
        state = init_model_state(cfg, seed=2)
        for length in (cfg.member_prompt_len, cfg.group_prompt_len):
            for n in (2, 5, 28, 64):
                prompts = rng.normal(size=(n, length, cfg.dim))
                batched = encode_text(dc.constant(prompts.reshape(-1, cfg.dim)), state, length).values
                assert batched.shape == (n, cfg.dim)
                for i, prompt in enumerate(prompts):
                    alone = encode_text(dc.constant(prompt), state, length).values[0]
                    assert np.array_equal(batched[i], alone), (cfg.dim, length, n, i)


def test_text_positions_beyond_length_are_inert():
    cfg = small_config()
    state = init_model_state(cfg, seed=1)
    length = cfg.member_prompt_len  # shorter than the positional table
    tokens = dc.constant(np.random.default_rng(8).normal(size=(2 * length, cfg.dim)))
    before = encode_text(tokens, state, length)

    bumped = np.array(state.params["text.pos"].values)
    bumped[length:] += 100.0
    other = state.with_params({"text.pos": Tensor(bumped, requires_grad=True)})
    after = encode_text(tokens, other, length)
    assert np.array_equal(before.values, after.values)


def test_with_trainable_narrows_gradient_flags():
    state = init_model_state(small_config(), seed=0)
    for names in (STAGE1_TRAINABLE, STAGE2_TRAINABLE):
        state = state.with_trainable(names)
        assert {n for n, p in state.params.items() if p.requires_grad} == set(names)
    with pytest.raises(KeyError):
        state.with_trainable(["no.such.param"])


def test_with_trainable_leaves_its_source_as_it_was():
    # stage 1 and stage 2 start from one shared state in the ablation, so a
    # stage's trainable set must not reach the state it started from
    source = init_model_state(small_config(), seed=0)
    before = {n: (p, p.requires_grad) for n, p in source.params.items()}
    stage2 = source.with_trainable(STAGE2_TRAINABLE)
    assert {n: (p, p.requires_grad) for n, p in source.params.items()} == before
    assert all(p.requires_grad for p in source.params.values())
    for name, p in stage2.params.items():
        assert p is not source.params[name] and p.values is source.params[name].values
        assert p.requires_grad == (name in STAGE2_TRAINABLE)


def test_with_trainable_shares_the_arrays_and_changes_only_the_flags(monkeypatch):
    # the arrays were checked finite when they were made; a new flag set is
    # not a reason to scan them again (eval sets one per call)
    source = init_model_state(small_config(), seed=0).with_trainable(STAGE1_TRAINABLE)
    scans = []
    monkeypatch.setattr(dc, "_finite", lambda arr: scans.append(arr) or True)
    frozen = source.with_trainable(())
    assert not scans
    assert frozen.config is source.config and list(frozen.params) == list(source.params)
    for name, p in frozen.params.items():
        assert p.values is source.params[name].values and not p.requires_grad
        assert source.params[name].requires_grad == (name in STAGE1_TRAINABLE)


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


def test_state_from_checkpoint_draws_no_model(tmp_path, monkeypatch):
    cfg = small_config()
    state = init_model_state(cfg, seed=9)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, state.params, meta={"model": cfg.to_dict()})

    def no_draws(*args, **kwargs):
        raise AssertionError("reading a checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    rebuilt, _ = state_from_checkpoint(path)
    assert list(rebuilt.params) == list(state.params)


def test_state_from_checkpoint_rejects_a_tensor_of_another_shape(tmp_path):
    cfg = small_config()
    params = dict(init_model_state(cfg, seed=9).params)
    params["quantity.em"] = Tensor(np.zeros((cfg.max_members + 1, cfg.dim)))
    path = str(tmp_path / "wide.ckpt")
    save_checkpoint(path, params, meta={"model": cfg.to_dict()})
    with pytest.raises(CheckpointError, match=r"'quantity.em' has shape \(4, 8\), expected \(3, 8\)"):
        state_from_checkpoint(path)
