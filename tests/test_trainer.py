"""Schedule arithmetic, SGD semantics, and the two training stages."""

import hashlib
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gcum.cli import RunConfig
from gcum.diffcore import NonFiniteError, Tensor
from gcum.encoders import (
    STAGE1_TRAINABLE,
    STAGE2_TRAINABLE,
    ModelConfig,
    init_model_state,
    save_checkpoint,
)
from gcum import diffcore as dc
from gcum import grce, trainer
from gcum.mvs import MvsConfig, sample_drop_prob, sample_mask
from gcum.synthdata import GenConfig, GroupSample, generate_dataset
from gcum.trainer import (
    TEMP_INV_RANGE,
    FreezeViolation,
    TrainConfig,
    _collect_grads,
    lr_at_epoch,
    sgd_step,
    train_stage1,
    train_stage2,
)

import tape_ops as ops

_RUN = RunConfig()
# stage 2's recipe keywords at the run config's defaults, the text term on
_STAGE2 = dict(use_text=True, alpha=_RUN.alpha, epsilon=_RUN.epsilon)


def _recipe(stage: int) -> dict:
    return {} if stage == 1 else _STAGE2


def test_config_validation():
    # a config checks itself when built, and again when replace builds a copy
    TrainConfig()
    with pytest.raises(ValueError):
        TrainConfig(lr_start=5e-6, lr_peak=5e-7)
    with pytest.raises(ValueError):
        TrainConfig(decay_epochs=(50, 30))
    with pytest.raises(ValueError):
        TrainConfig(decay_epochs=(30, 90))
    with pytest.raises(ValueError):
        TrainConfig(batch_size=6)  # p_groups * q_views mismatch
    with pytest.raises(ValueError):
        replace(TrainConfig(), batch_size=6)
    with pytest.raises(ValueError):
        TrainConfig(stage=3)
    with pytest.raises(ValueError, match="ascending"):
        TrainConfig(warmup_epochs=0, decay_epochs=(1, 2), total_epochs=3, scale_factor=0.1).scaled()


def test_scaled_schedule_keeps_the_shape():
    half = TrainConfig(scale_factor=0.5).scaled()
    assert half.warmup_epochs == 5
    assert half.decay_epochs == (15, 25)
    assert half.total_epochs == 40

    quarter = TrainConfig(scale_factor=0.25).scaled()
    assert quarter.warmup_epochs == 3
    assert quarter.decay_epochs == (8, 13)
    assert quarter.total_epochs == 20

    # at factor 1 every count keeps its value
    assert TrainConfig(scale_factor=1.0).scaled() == TrainConfig(scale_factor=1.0)
    odd = TrainConfig(warmup_epochs=1, decay_epochs=(2, 7), total_epochs=9, scale_factor=1.0)
    assert odd.scaled() == odd

    # the floor of 1 applies to non-zero counts only
    empty = TrainConfig(warmup_epochs=0, decay_epochs=(), total_epochs=0, scale_factor=0.5).scaled()
    assert (empty.warmup_epochs, empty.total_epochs) == (0, 0)
    assert TrainConfig(warmup_epochs=0, scale_factor=0.5).scaled().warmup_epochs == 0
    tiny = TrainConfig(warmup_epochs=1, decay_epochs=(), total_epochs=3, scale_factor=0.1).scaled()
    assert (tiny.warmup_epochs, tiny.total_epochs) == (1, 1)


def _reference_cfg(**overrides):
    """The paper's reference rates and schedule, uncompressed."""
    return TrainConfig(**{"lr_start": 5e-7, "lr_peak": 5e-6, "scale_factor": 1.0, **overrides})


def test_lr_schedule_reference_points():
    cfg = _reference_cfg()
    assert lr_at_epoch(cfg, 0) == pytest.approx(5e-7)
    assert lr_at_epoch(cfg, 10) == pytest.approx(5e-6)
    assert lr_at_epoch(cfg, 30) == pytest.approx(5e-7)
    assert lr_at_epoch(cfg, 50) == pytest.approx(5e-8)
    # halfway through warmup sits halfway between the endpoints
    assert lr_at_epoch(cfg, 5) == pytest.approx(5e-7 + (5e-6 - 5e-7) * 0.5)


def test_lr_schedule_is_monotone_through_warmup_and_decays():
    cfg = _reference_cfg()
    lrs = [lr_at_epoch(cfg, e) for e in range(cfg.total_epochs)]
    assert all(b >= a for a, b in zip(lrs[:10], lrs[1:11]))  # warmup rises
    assert all(b <= a for a, b in zip(lrs[10:], lrs[11:]))  # then never rises


def test_lr_schedule_rejects_out_of_range_epochs():
    cfg = _reference_cfg()
    with pytest.raises(ValueError):
        lr_at_epoch(cfg, -1)
    with pytest.raises(ValueError):
        lr_at_epoch(cfg, 80)


def _one_param_state():
    cfg = ModelConfig(dim=4, d_a=3, max_members=2, group_slots=2, n_person_ids=2, n_group_classes=2)
    return init_model_state(cfg, seed=0)


def _velocity(state):
    """Zero momentum for every parameter, a superset of what a training run starts with."""
    return {name: np.zeros(p.shape) for name, p in state.params.items()}


def test_sgd_plain_gradient_descent():
    state = _one_param_state()
    velocity = _velocity(state)
    cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
    g = np.ones_like(state.params["group.cls"].values)
    before = state.params["group.cls"].values
    after = sgd_step(state, {"group.cls": g}, velocity, 0.5, cfg)
    assert np.array_equal(after.params["group.cls"].values, before - 0.5)


def test_sgd_zero_gradient_leaves_params_alone():
    state = _one_param_state()
    velocity = _velocity(state)
    cfg = TrainConfig(momentum=0.8, weight_decay=0.0)
    g = np.zeros_like(state.params["group.cls"].values)
    after = sgd_step(state, {"group.cls": g}, velocity, 0.5, cfg)
    assert np.array_equal(after.params["group.cls"].values, state.params["group.cls"].values)


def test_sgd_two_steps_displace_by_lr_g_times_two_plus_momentum():
    state = _one_param_state()
    velocity = _velocity(state)
    m, lr = 0.8, 0.1
    cfg = TrainConfig(momentum=m, weight_decay=0.0)
    g = np.full_like(state.params["group.cls"].values, 2.0)
    start = state.params["group.cls"].values
    state = sgd_step(state, {"group.cls": g}, velocity, lr, cfg)
    state = sgd_step(state, {"group.cls": g}, velocity, lr, cfg)
    expected = start - lr * g * (2.0 + m)
    assert np.allclose(state.params["group.cls"].values, expected, atol=1e-15)


def test_sgd_weight_decay_skips_the_temperature():
    state = _one_param_state()
    velocity = _velocity(state)
    cfg = TrainConfig(momentum=0.0, weight_decay=0.5)
    zeros = {
        "temp.inv": np.zeros(()),
        "group.cls": np.zeros_like(state.params["group.cls"].values),
    }
    after = sgd_step(state, zeros, velocity, 0.1, cfg)
    assert after.params["temp.inv"].item() == state.params["temp.inv"].item()
    shrunk = state.params["group.cls"].values * (1.0 - 0.1 * 0.5)
    assert np.allclose(after.params["group.cls"].values, shrunk, atol=1e-15)


def test_sgd_keeps_the_temperature_in_range():
    state = _one_param_state()
    cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
    low, high = TEMP_INV_RANGE
    for grad, bound in ((1e6, low), (-1e6, high)):
        after = sgd_step(state, {"temp.inv": np.asarray(grad)}, _velocity(state), 1.0, cfg)
        assert after.params["temp.inv"].item() == bound
    inside = sgd_step(state, {"temp.inv": np.asarray(0.5)}, _velocity(state), 1.0, cfg)
    assert inside.params["temp.inv"].item() == state.params["temp.inv"].item() - 0.5


def test_sgd_updates_each_velocity_in_place_with_the_bits_of_the_formula():
    state = _one_param_state()
    names = ["group.cls", "prompt.x", "temp.inv"]  # temp.inv is 0-d and takes no weight decay
    cfg, lr = TrainConfig(), 0.05
    velocity = _velocity(state)
    arrays = dict(velocity)
    want_v = {n: np.zeros(state.params[n].shape) for n in names}
    rng = np.random.default_rng(6)
    for _ in range(4):
        grads = {n: rng.normal(size=state.params[n].shape) for n in names}
        before = {n: (p.values, p.values.copy()) for n, p in state.params.items()}
        after = sgd_step(state, grads, velocity, lr, cfg)
        for n in names:
            p = state.params[n].values
            want_v[n] = cfg.momentum * want_v[n] + grads[n] + (0.0 if n == "temp.inv" else cfg.weight_decay) * p
            want_p = p - lr * want_v[n]
            if n == "temp.inv":
                want_p = np.clip(want_p, *TEMP_INV_RANGE)
            assert velocity[n] is arrays[n] and velocity[n].tobytes() == want_v[n].tobytes(), n
            assert after.params[n].values.tobytes() == want_p.tobytes(), n
            assert not np.shares_memory(after.params[n].values, velocity[n])
        # no parameter array was written, the updated ones included
        assert all(values.tobytes() == copy.tobytes() for values, copy in before.values())
        state = after


def test_sgd_names_a_non_finite_update():
    state = _one_param_state()
    cfg = TrainConfig(momentum=0.0, weight_decay=0.0)
    grad = np.full(state.params["group.cls"].shape, 1e300)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="^sgd_step on group.cls: "):
        sgd_step(state, {"group.cls": grad}, _velocity(state), 1e10, cfg)


def test_collect_grads_flags_leaks():
    state = _one_param_state()
    grads = {state.params["member.w1"]: np.ones(state.params["member.w1"].shape)}
    with pytest.raises(FreezeViolation):
        _collect_grads(state, grads, STAGE1_TRAINABLE)
    assert _collect_grads(state, grads, ["member.w1"]).keys() == {"member.w1"}


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
            n_person_ids=len(ds.catalog),
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
    return _reference_cfg(**base)


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


def _scope_run(which: str) -> str:
    """Digest of a stage-1 run over sample list "a" or "b".

    "b" is "a" with one appearance of its first view garbled: frozen
    visual work kept past run "a" would hand run "b" stale features for
    that view.
    """
    ds, state = _training_setup()
    samples = list(ds.samples)
    if which == "b":
        first = samples[0]
        garbled = first.appearances.copy()
        garbled[0] += 41.5
        samples[0] = GroupSample(first.group_id, first.camera_id, first.identity_ids, garbled)
    out, history = train_stage1(state, samples, ds.group_rosters(), _short_cfg(1, epochs=2),
                                mvs=MvsConfig())
    digest = hashlib.sha256(json.dumps(history).encode())
    for name in sorted(out.params):
        digest.update(out.params[name].values.tobytes())
    return digest.hexdigest()


def test_stage1_runs_back_to_back_match_runs_alone():
    together = [_scope_run("a"), _scope_run("b")]
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here), str(here.parent / "src")]))
    alone = [
        subprocess.run(
            [sys.executable, "-c", f"import test_trainer; print(test_trainer._scope_run({w!r}))"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        for w in ("a", "b")
    ]
    assert together == alone
    assert together[0] != together[1]


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
        state, ds.samples, ds.group_rosters(), _short_cfg(2), mvs=MvsConfig(), **_STAGE2
    )
    assert history and history[0]["stage"] == 2
    assert {"loss_id", "loss_tri", "loss_i2tce"} <= set(history[0])
    moved = {n for n, p in out.params.items() if not np.array_equal(p.values, init_values[n])}
    assert moved == set(STAGE2_TRAINABLE)


def test_stage2_without_text_drops_the_alignment_term():
    ds, state = _training_setup()
    _, history = train_stage2(
        state, ds.samples, ds.group_rosters(), _short_cfg(2, epochs=1), mvs=None,
        use_text=False, alpha=_RUN.alpha, epsilon=_RUN.epsilon,
    )
    assert history
    assert "loss_i2tce" not in history[0]
    assert {"loss_id", "loss_tri"} <= set(history[0])


def test_stage2_is_deterministic():
    ds, state = _training_setup()
    cfg = _short_cfg(2, epochs=2)
    out1, hist1 = train_stage2(state, ds.samples, ds.group_rosters(), cfg, mvs=None, **_STAGE2)
    ds2, state2 = _training_setup()
    out2, hist2 = train_stage2(state2, ds2.samples, ds2.group_rosters(), cfg, mvs=None, **_STAGE2)
    assert hist1 == hist2
    for n in out1.params:
        assert np.array_equal(out1.params[n].values, out2.params[n].values), n


def test_stage2_loss_decreases_on_easy_data():
    ds, state = _training_setup(noise=0.0)
    cfg = _short_cfg(2, epochs=12, lr_start=1e-3, lr_peak=5e-2, warmup_epochs=2)
    _, history = train_stage2(state, ds.samples, ds.group_rosters(), cfg, mvs=None, **_STAGE2)
    assert history[-1]["loss_total"] < history[0]["loss_total"]


def _reference_steps(samples, cfg, mvs):
    """(indices, mask bits) per step as a step-by-step loop draws them; None bits when MVS is off.

    Each batch is drawn, then its masks, from the stage's stream, before
    the next batch; stage 2 draws each batch's views from the same stream.
    """
    run = cfg.scaled()
    stream = trainer._STAGE1_STREAM if cfg.stage == 1 else trainer._STAGE2_STREAM
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(stream,)))
    views: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        views.setdefault(s.group_id, []).append(i)
    gids = sorted(views)
    steps = []
    for _ in range(run.total_epochs):
        if cfg.stage == 1:
            order = rng.permutation(len(samples))
            batches = (order[at:at + cfg.batch_size] for at in range(0, len(order), cfg.batch_size))
        else:
            p_eff = min(cfg.p_groups, len(gids))
            group_order = rng.permutation(len(gids))
            chunks = (group_order[at:at + p_eff] for at in range(0, len(gids), p_eff))
            batches = ([views[gids[gi]][j] for gi in chunk for j in rng.choice(
                len(views[gids[gi]]), size=cfg.q_views, replace=len(views[gids[gi]]) < cfg.q_views)]
                for chunk in chunks if len(chunk) >= 2)
        for idx in batches:
            if len(idx) < 2:
                continue
            bits = []
            for i in idx:
                n = len(samples[i].identity_ids)
                bits.append(None if mvs is None else sample_mask(n, sample_drop_prob(mvs, rng), rng).bits)
            steps.append(([int(i) for i in idx], bits))
    return steps


def _recorded_steps(monkeypatch, samples):
    """Record the (indices into ``samples``, mask bits or None) of every step's views in its run's pass."""
    calls = []
    index = {id(s): i for i, s in enumerate(samples)}
    real_init, real_call = grce.FrozenPass.__init__, grce.FrozenPass.__call__

    def init(frozen, views, masks, state, **kw):
        frozen.recorded = [index[id(s)] for s in views], [m and m.bits for m in masks]
        real_init(frozen, views, masks, state, **kw)

    def call(frozen, views, state, **kw):
        indices, bits = frozen.recorded
        calls.append(([indices[v] for v in views], [bits[v] for v in views]))
        return real_call(frozen, views, state, **kw)

    monkeypatch.setattr(grce.FrozenPass, "__init__", init)
    monkeypatch.setattr(grce.FrozenPass, "__call__", call)
    return calls


@pytest.mark.parametrize("stage, epochs, p_groups, q_views", [
    (1, 3, 2, 3),
    (2, 3, 2, 3),
    (2, 4, 3, 2),  # the 4 groups in chunks of 3 leave a lone group each epoch, which stage 2 skips
])
@pytest.mark.parametrize("mvs", [MvsConfig(), None])
def test_planned_epochs_give_each_step_the_reference_draws(monkeypatch, stage, epochs, p_groups, q_views, mvs):
    ds, state = _training_setup()
    calls = _recorded_steps(monkeypatch, ds.samples)
    cfg = _short_cfg(stage, epochs=epochs, batch_size=6, p_groups=p_groups, q_views=q_views)
    train = train_stage1 if stage == 1 else train_stage2
    train(state, ds.samples, ds.group_rosters(), cfg, mvs=mvs, **_recipe(stage))
    want = _reference_steps(ds.samples, cfg, mvs)
    assert len(want) > 3
    assert calls == want


@pytest.mark.parametrize("stage", [1, 2])
def test_training_encodes_each_distinct_view_once_per_run(monkeypatch, stage):
    ds, state = _training_setup()
    calls = _recorded_steps(monkeypatch, ds.samples)
    encoded = Counter()
    real = grce.encode_members

    def counted(appearances, *a, **kw):
        encoded.update(row.tobytes() for row in appearances.values)
        return real(appearances, *a, **kw)

    monkeypatch.setattr(grce, "encode_members", counted)
    train = train_stage1 if stage == 1 else train_stage2
    cfg = _short_cfg(stage, epochs=4, batch_size=4, p_groups=2)
    train(state, ds.samples, ds.group_rosters(), cfg, mvs=MvsConfig(), **_recipe(stage))
    drawn = [(i, b) for indices, bits in calls for i, b in zip(indices, bits)]
    distinct = set(drawn)
    assert len(distinct) < len(drawn)  # views come back under the same mask within a run
    # the retained rows of each distinct (view, mask) pair, each once
    want = Counter(row.tobytes() for i, b in distinct
                   for row in ds.samples[i].appearances[np.array(b, dtype=bool)])
    assert encoded == want


def test_a_run_builds_one_frozen_pass_and_keeps_no_mask_past_it(monkeypatch):
    ds, state = _training_setup()
    passes, masks, dead = [], [], []
    real_init, real_call, real_mask = grce.FrozenPass.__init__, grce.FrozenPass.__call__, trainer.sample_mask

    def init(frozen, *a, **kw):
        passes.append(weakref.ref(frozen))
        real_init(frozen, *a, **kw)

    def call(frozen, *a, **kw):
        # the pass is built: the loop holds only sample indices and positions in it
        dead.append(all(ref() is None for ref in masks))
        return real_call(frozen, *a, **kw)

    def mask(*a, **kw):
        out = real_mask(*a, **kw)
        masks.append(weakref.ref(out))
        return out

    monkeypatch.setattr(grce.FrozenPass, "__init__", init)
    monkeypatch.setattr(grce.FrozenPass, "__call__", call)
    monkeypatch.setattr(trainer, "sample_mask", mask)
    train_stage1(state, ds.samples, ds.group_rosters(), _short_cfg(1, epochs=6), mvs=MvsConfig())
    assert len(passes) == 1 and passes[0]() is None  # one pass for six epochs, gone with the run
    assert masks and dead and all(dead)


def test_a_stage2_step_runs_neither_the_count_term_nor_block_2(monkeypatch):
    ds, state = _training_setup()
    events = []
    for name in ("apply_mvs", "encode_group_suffix"):
        real = getattr(grce, name)

        def counted(*a, _real=real, _name=name, **kw):
            events.append(_name)
            return _real(*a, **kw)

        monkeypatch.setattr(grce, name, counted)
    real_call = grce.FrozenPass.__call__

    def step_call(frozen, *a, **kw):
        events.append("step")
        out = real_call(frozen, *a, **kw)
        events.append("step end")
        return out

    monkeypatch.setattr(grce.FrozenPass, "__call__", step_call)
    classes, inits = [], []
    real_init = grce.FrozenPass.__init__

    def init(frozen, views, masks, st, **kw):
        inits.append(len(views))
        # a view keeping at most half the members (rounded up) is pooled in the narrow class
        half = (st.config.max_members + 1) // 2
        counts = np.array([m.retained for m in masks])
        for at in range(0, len(counts), grce.VIEWS_PER_CHUNK):
            chunk = counts[at:at + grce.VIEWS_PER_CHUNK]
            classes.append(int((chunk <= half).any()) + int((chunk > half).any()))
        real_init(frozen, views, masks, st, **kw)

    monkeypatch.setattr(grce.FrozenPass, "__init__", init)
    cfg = _short_cfg(2, epochs=3, batch_size=4, p_groups=2)
    train_stage2(state, ds.samples, ds.group_rosters(), cfg, mvs=MvsConfig(), **_STAGE2)
    assert events.count("step") > 3
    # the one frozen pass, before the run's first step, pools the run's
    # distinct views, one call per non-empty width class of each chunk
    assert len(inits) == 1 and classes
    assert events.count("encode_group_suffix") == events.count("apply_mvs") == sum(classes)
    # nothing runs inside a step's call on the pass
    assert all(after == "step end" for e, after in zip(events, events[1:]) if e == "step")


def test_a_failure_in_the_frozen_pass_names_its_stage_and_epoch(monkeypatch):
    ds, state = _training_setup()

    def overflowing(*a, **kw):
        raise NonFiniteError("tanh: tensor contains NaN or infinite values")

    monkeypatch.setattr(grce, "encode_members", overflowing)
    with pytest.raises(NonFiniteError, match="stage 1, epoch 0, frozen visual pass: tanh: .*"
                                             "no SGD step has run yet"):
        train_stage1(state, ds.samples, ds.group_rosters(), _short_cfg(1), mvs=MvsConfig())


def test_stage1_through_the_fused_objective_writes_the_checkpoint_of_the_composed_ops(monkeypatch, tmp_path):
    # the default model widths on a small dataset, with the count matrix training through MVS
    run = RunConfig(n_group_identities=8)
    ds = generate_dataset(run.gen_config(), run.seed)
    state = init_model_state(run.model_config(ds, len(ds.group_ids())), seed=0)
    cfg = TrainConfig(warmup_epochs=1, decay_epochs=(3,), total_epochs=5, stage=1, seed=4, scale_factor=1.0)
    composed = []

    def composed_objective(kinds, inv_temp):
        composed.append(len(kinds))
        return ops.contrastive_loss(kinds, inv_temp)

    runs = []
    for objective in (dc.contrastive_loss, composed_objective):
        monkeypatch.setattr(dc, "contrastive_loss", objective)
        out, history = train_stage1(state, ds.samples, ds.group_rosters(), cfg, mvs=MvsConfig())
        path = tmp_path / f"{len(runs)}.ckpt"
        save_checkpoint(str(path), out.params)
        runs.append((path.read_bytes(), history))
        assert all(not np.array_equal(out.params[n].values, state.params[n].values) for n in STAGE1_TRAINABLE)
    assert composed and set(composed) == {2}  # the second run took the composed ops at every step
    assert runs[0] == runs[1]
