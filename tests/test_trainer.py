"""Schedule arithmetic, SGD semantics, and the two training stages."""

import numpy as np
import pytest

from gcum.diffcore import Tensor
from gcum.encoders import (
    STAGE1_TRAINABLE,
    STAGE2_TRAINABLE,
    ModelConfig,
    init_model_state,
)
from gcum.mvs import MvsConfig
from gcum.synthdata import GenConfig, generate_dataset
from gcum.trainer import (
    FreezeViolation,
    OptimizerState,
    TrainConfig,
    _collect_grads,
    init_optimizer,
    lr_at_epoch,
    sgd_step,
    train_stage1,
    train_stage2,
)


def test_config_validation():
    TrainConfig().validate()
    with pytest.raises(ValueError):
        TrainConfig(lr_start=5e-6, lr_peak=5e-7).validate()
    with pytest.raises(ValueError):
        TrainConfig(decay_epochs=(50, 30)).validate()
    with pytest.raises(ValueError):
        TrainConfig(decay_epochs=(30, 90)).validate()
    with pytest.raises(ValueError):
        TrainConfig(batch_size=6).validate()  # p_groups * q_views mismatch
    with pytest.raises(ValueError):
        TrainConfig(stage=3).validate()


def test_scaled_schedule_keeps_the_shape():
    half = TrainConfig(scale_factor=0.5).scaled()
    assert half.warmup_epochs == 5
    assert half.decay_epochs == (15, 25)
    assert half.total_epochs == 40

    quarter = TrainConfig(scale_factor=0.25).scaled()
    assert quarter.warmup_epochs == 3
    assert quarter.decay_epochs == (8, 13)
    assert quarter.total_epochs == 20

    assert TrainConfig().scaled() is not None  # identity path

    # the floor of 1 applies to non-zero counts only
    empty = TrainConfig(warmup_epochs=0, decay_epochs=(), total_epochs=0, scale_factor=0.5).scaled()
    assert (empty.warmup_epochs, empty.total_epochs) == (0, 0)
    assert TrainConfig(warmup_epochs=0, scale_factor=0.5).scaled().warmup_epochs == 0
    tiny = TrainConfig(warmup_epochs=1, decay_epochs=(), total_epochs=3, scale_factor=0.1).scaled()
    assert (tiny.warmup_epochs, tiny.total_epochs) == (1, 1)


def test_lr_schedule_reference_points():
    cfg = TrainConfig()
    assert lr_at_epoch(cfg, 0) == pytest.approx(5e-7)
    assert lr_at_epoch(cfg, 10) == pytest.approx(5e-6)
    assert lr_at_epoch(cfg, 30) == pytest.approx(5e-7)
    assert lr_at_epoch(cfg, 50) == pytest.approx(5e-8)
    # halfway through warmup sits halfway between the endpoints
    assert lr_at_epoch(cfg, 5) == pytest.approx(5e-7 + (5e-6 - 5e-7) * 0.5)


def test_lr_schedule_is_monotone_through_warmup_and_decays():
    cfg = TrainConfig()
    lrs = [lr_at_epoch(cfg, e) for e in range(cfg.total_epochs)]
    assert all(b >= a for a, b in zip(lrs[:10], lrs[1:11]))  # warmup rises
    assert all(b <= a for a, b in zip(lrs[10:], lrs[11:]))  # then never rises


def test_lr_schedule_rejects_out_of_range_epochs():
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        lr_at_epoch(cfg, -1)
    with pytest.raises(ValueError):
        lr_at_epoch(cfg, 80)


def _one_param_state():
    cfg = ModelConfig(dim=4, d_a=3, max_members=2, group_slots=2, n_person_ids=2, n_group_classes=2)
    return init_model_state(cfg, seed=0)


def test_sgd_plain_gradient_descent():
    state = _one_param_state()
    opt = init_optimizer(state)
    cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
    g = np.ones_like(state.params["group.cls"].values)
    before = state.params["group.cls"].values
    after = sgd_step(state, {"group.cls": g}, opt, 0.5, cfg)
    assert np.array_equal(after.params["group.cls"].values, before - 0.5)


def test_sgd_zero_gradient_leaves_params_alone():
    state = _one_param_state()
    opt = init_optimizer(state)
    cfg = TrainConfig(momentum=0.8, weight_decay=0.0)
    g = np.zeros_like(state.params["group.cls"].values)
    after = sgd_step(state, {"group.cls": g}, opt, 0.5, cfg)
    assert np.array_equal(after.params["group.cls"].values, state.params["group.cls"].values)


def test_sgd_two_steps_displace_by_lr_g_times_two_plus_momentum():
    state = _one_param_state()
    opt = init_optimizer(state)
    m, lr = 0.8, 0.1
    cfg = TrainConfig(momentum=m, weight_decay=0.0)
    g = np.full_like(state.params["group.cls"].values, 2.0)
    start = state.params["group.cls"].values
    state = sgd_step(state, {"group.cls": g}, opt, lr, cfg)
    state = sgd_step(state, {"group.cls": g}, opt, lr, cfg)
    expected = start - lr * g * (2.0 + m)
    assert np.allclose(state.params["group.cls"].values, expected, atol=1e-15)


def test_sgd_weight_decay_skips_the_temperature():
    state = _one_param_state()
    opt = init_optimizer(state)
    cfg = TrainConfig(momentum=0.0, weight_decay=0.5)
    zeros = {
        "temp.inv": np.zeros(()),
        "group.cls": np.zeros_like(state.params["group.cls"].values),
    }
    after = sgd_step(state, zeros, opt, 0.1, cfg)
    assert after.params["temp.inv"].item() == state.params["temp.inv"].item()
    shrunk = state.params["group.cls"].values * (1.0 - 0.1 * 0.5)
    assert np.allclose(after.params["group.cls"].values, shrunk, atol=1e-15)


def test_collect_grads_flags_leaks():
    state = _one_param_state()
    state.params["member.w1"].grad = np.ones(state.params["member.w1"].shape)
    with pytest.raises(FreezeViolation):
        _collect_grads(state, STAGE1_TRAINABLE)
    assert _collect_grads(state, ["member.w1"]) .keys() == {"member.w1"}


def _training_setup(seed=2, noise=0.1):
    gen = GenConfig(
        n_group_identities=4,
        d_a=6,
        members_min=2,
        members_max=3,
        appearance_noise_std=noise,
        camera_bias_std=noise,
    )
    ds = generate_dataset(gen, seed=seed)
    state = init_model_state(
        ModelConfig(
            dim=8,
            d_a=6,
            max_members=3,
            group_slots=3,
            tokens_per_identity=2,
            n_person_ids=max(ds.person_ids()) + 1,
            n_group_classes=len(ds.group_ids()),
        ),
        seed=0,
    )
    return ds, state


def _short_cfg(stage, epochs=3, **overrides):
    base = dict(
        warmup_epochs=1,
        decay_epochs=(),
        total_epochs=epochs,
        batch_size=8,
        p_groups=4,
        q_views=2,
        seed=9,
        stage=stage,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_stage1_moves_only_its_parameters():
    ds, state = _training_setup()
    init_values = {n: p.values.copy() for n, p in state.params.items()}
    out, history = train_stage1(
        state, ds.samples, ds.group_rosters(), _short_cfg(1), mvs=MvsConfig()
    )
    assert len(history) == 3
    assert {"epoch", "stage", "lr", "loss_total", "loss_i2t", "loss_t2i"} <= set(history[0])
    moved = {n for n, p in out.params.items() if not np.array_equal(p.values, init_values[n])}
    assert moved == set(STAGE1_TRAINABLE)


def test_stage1_is_deterministic():
    ds, state = _training_setup()
    cfg = _short_cfg(1, epochs=2)
    out1, hist1 = train_stage1(state, ds.samples, ds.group_rosters(), cfg, mvs=MvsConfig())
    ds2, state2 = _training_setup()
    out2, hist2 = train_stage1(state2, ds2.samples, ds2.group_rosters(), cfg, mvs=MvsConfig())
    assert hist1 == hist2
    for n in out1.params:
        assert np.array_equal(out1.params[n].values, out2.params[n].values), n


def test_stage1_zero_epochs_returns_initialization():
    ds, state = _training_setup()
    out, history = train_stage1(
        state, ds.samples, ds.group_rosters(), _short_cfg(1, epochs=0), mvs=None
    )
    assert history == []
    for n, p in out.params.items():
        assert np.array_equal(p.values, state.params[n].values)


def test_stage1_loss_decreases_on_easy_data():
    ds, state = _training_setup(noise=0.0)
    cfg = _short_cfg(1, epochs=12, lr_start=1e-3, lr_peak=5e-2, warmup_epochs=2)
    _, history = train_stage1(state, ds.samples, ds.group_rosters(), cfg, mvs=None)
    assert history[-1]["loss_total"] < history[0]["loss_total"]


def test_stage1_requires_stage_one_config():
    ds, state = _training_setup()
    with pytest.raises(ValueError):
        train_stage1(state, ds.samples, ds.group_rosters(), _short_cfg(2), mvs=None)


def test_stage2_moves_only_the_refinement_head():
    ds, state = _training_setup()
    init_values = {n: p.values.copy() for n, p in state.params.items()}
    out, history = train_stage2(
        state, ds.samples, ds.group_rosters(), _short_cfg(2), mvs=MvsConfig()
    )
    assert history and history[0]["stage"] == 2
    assert {"loss_id", "loss_tri", "loss_i2tce"} <= set(history[0])
    moved = {n for n, p in out.params.items() if not np.array_equal(p.values, init_values[n])}
    assert moved == set(STAGE2_TRAINABLE)


def test_stage2_without_text_drops_the_alignment_term():
    ds, state = _training_setup()
    _, history = train_stage2(
        state, ds.samples, ds.group_rosters(), _short_cfg(2, epochs=1), use_text=False
    )
    assert history
    assert "loss_i2tce" not in history[0]
    assert {"loss_id", "loss_tri"} <= set(history[0])


def test_stage2_is_deterministic():
    ds, state = _training_setup()
    cfg = _short_cfg(2, epochs=2)
    out1, hist1 = train_stage2(state, ds.samples, ds.group_rosters(), cfg)
    ds2, state2 = _training_setup()
    out2, hist2 = train_stage2(state2, ds2.samples, ds2.group_rosters(), cfg)
    assert hist1 == hist2
    for n in out1.params:
        assert np.array_equal(out1.params[n].values, out2.params[n].values), n


def test_stage2_loss_decreases_on_easy_data():
    ds, state = _training_setup(noise=0.0)
    cfg = _short_cfg(2, epochs=12, lr_start=1e-3, lr_peak=5e-2, warmup_epochs=2)
    _, history = train_stage2(state, ds.samples, ds.group_rosters(), cfg)
    assert history[-1]["loss_total"] < history[0]["loss_total"]
