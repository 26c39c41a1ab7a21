"""Prompt assembly and the supervised contrastive alignment losses."""

import math

import numpy as np
import pytest

from gcum import diffcore as dc
from gcum.diffcore import Tensor
from gcum.encoders import ModelConfig, init_model_state
from gcum.gla import (
    ContrastiveBatch,
    build_group_prompt,
    build_member_prompt,
    class_text_features,
    contrastive_i2t,
    contrastive_t2i,
    group_text_feature,
    stage1_batch_loss,
)
from gcum.mvs import Mask, full_mask
from gcum.synthdata import GenConfig, GroupSample, Member, generate_dataset


def small_state(seed=0, **overrides):
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
    return init_model_state(ModelConfig(**base), seed=seed)


# --------------------------------------------------------------------------
# Prompt assembly


def test_member_prompt_layout():
    state = small_state()
    seq = build_member_prompt(2, state)
    m = state.config.tokens_per_identity
    p = state.params
    expected = np.concatenate([
        p["prompt.member_prefix"].values,           # "a photo of a"
        p["prompt.x"].values[2 * m : 3 * m],        # identity 2's block
        p["prompt.member_suffix"].values,           # "person"
    ])
    assert seq.tokens.shape == (state.config.member_prompt_len, state.config.dim)
    assert np.array_equal(seq.tokens.values, expected)


def test_member_prompt_rejects_unknown_identity():
    state = small_state()
    with pytest.raises(ValueError):
        build_member_prompt(4, state)
    with pytest.raises(ValueError):
        build_member_prompt(-1, state)


def test_group_prompt_is_order_invariant():
    state = small_state()
    a = build_group_prompt([3, 1], state)
    b = build_group_prompt([1, 3], state)
    assert np.array_equal(a.tokens.values, b.tokens.values)


def test_group_prompt_layout_and_padding():
    state = small_state()
    seq = build_group_prompt([3, 1], state)
    cfg = state.config
    m = cfg.tokens_per_identity
    p = state.params
    x = p["prompt.x"].values
    expected = np.concatenate([
        p["prompt.group_prefix"].values,            # "a group of"
        x[1 * m : 2 * m],                           # identity 1 fills slot 0
        x[3 * m : 4 * m],                           # identity 3 fills slot 1
        p["prompt.pad"].values,                     # slot 2 is padding
        p["prompt.group_suffix"].values,            # "persons"
    ])
    assert seq.tokens.shape == (cfg.group_prompt_len, cfg.dim)
    assert np.array_equal(seq.tokens.values, expected)


def test_group_prompt_rejects_bad_rosters():
    state = small_state()
    with pytest.raises(ValueError):
        build_group_prompt([], state)
    with pytest.raises(ValueError):
        build_group_prompt([1, 1], state)
    with pytest.raises(ValueError):
        build_group_prompt([0, 1, 2, 3], state)


def test_prompt_gradient_lands_on_the_right_rows():
    state = small_state()
    m = state.config.tokens_per_identity
    with dc.Graph() as g:
        seq = build_group_prompt([2], state)  # slots 3: one identity, two pads
        loss = dc.reduce_sum(seq.tokens)
    g.backward(loss)
    gx = state.params["prompt.x"].grad
    expected = np.zeros_like(gx)
    expected[2 * m : 3 * m] = 1.0
    assert np.array_equal(gx, expected)
    assert np.array_equal(
        state.params["prompt.pad"].grad, np.full((m, state.config.dim), 2.0)
    )
    assert state.params["prompt.member_prefix"].grad is None


def test_text_features_are_unit_and_deterministic():
    state = small_state()
    t1 = group_text_feature([0, 2], state)
    t2 = group_text_feature([2, 0], state)
    assert np.array_equal(t1.values, t2.values)
    assert np.linalg.norm(t1.values) == pytest.approx(1.0, abs=1e-12)
    stackd = class_text_features(state, [1], {1: (0, 2)})
    assert stackd.shape == (1, state.config.dim)


# --------------------------------------------------------------------------
# Contrastive losses


def _unit_rows(cosines):
    """2-D unit vectors whose first coordinates are the given cosines."""
    c = np.asarray(cosines)
    return np.stack([c, np.sqrt(1.0 - c * c)], axis=1)


def _batch(visual, labels, class_labels, text, inv_temp=1.0):
    return ContrastiveBatch(
        visual=Tensor(visual),
        labels=tuple(labels),
        class_labels=tuple(class_labels),
        text=Tensor(text),
        inv_temp=Tensor(np.asarray(inv_temp)),
    )


def test_batch_validation():
    ok_vis = _unit_rows([0.9, 0.7])
    ok_text = np.eye(2)
    with pytest.raises(ValueError):
        _batch(ok_vis * 2.0, [0, 1], [0, 1], ok_text)  # visual not unit
    with pytest.raises(ValueError):
        _batch(ok_vis, [0, 2], [0, 1], ok_text)  # label without text
    with pytest.raises(ValueError):
        _batch(ok_vis[:1], [0], [0, 1], ok_text)  # batch too small
    with pytest.raises(ValueError):
        _batch(ok_vis, [0, 1], [0, 1], ok_text, inv_temp=0.0)


def test_t2i_matches_scalar_oracle():
    # three images with cosines [0.9, 0.7, 0.1] to the class-0 text,
    # labels [0, 0, 1], unit temperature
    visual = _unit_rows([0.9, 0.7, 0.1])
    text = np.eye(2)
    batch = _batch(visual, [0, 0, 1], [0, 1], text)
    loss = contrastive_t2i(batch, 0)
    assert loss.item() == pytest.approx(0.9189247158518508, abs=1e-10)


def test_i2t_matches_scalar_oracle():
    # one image with cosines [0.9, 0.7, 0.1] to three class texts, true class 0
    text = np.zeros((3, 3))
    for row, c in enumerate([0.9, 0.7, 0.1]):
        text[row, 0] = c
        text[row, 1] = math.sqrt(1.0 - c * c)
    visual = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    batch = _batch(visual, [0, 1], [0, 1, 2], text)
    loss = contrastive_i2t(batch, 0)
    assert loss.item() == pytest.approx(0.8189247158518508, abs=1e-10)


def test_equal_similarity_gives_log_batch_size():
    visual = np.tile(np.array([[1.0, 0.0]]), (5, 1))
    batch = _batch(visual, [0, 0, 0, 0, 1], [0, 1], np.eye(2))
    loss = contrastive_t2i(batch, 0)
    assert abs(loss.item() - math.log(5)) < 1e-10


def test_equal_similarity_gives_log_class_count():
    s = 1.0 / math.sqrt(2.0)
    visual = np.array([[s, s], [s, s]])
    batch = _batch(visual, [0, 1], [0, 1], np.eye(2))
    for i in range(2):
        assert abs(contrastive_i2t(batch, i).item() - math.log(2)) < 1e-10
    assert abs(contrastive_t2i(batch, 0).item() - math.log(2)) < 1e-10


def test_temperature_scales_the_logits():
    visual = _unit_rows([0.9, 0.7, 0.1])
    batch = _batch(visual, [0, 0, 1], [0, 1], np.eye(2), inv_temp=2.0)
    z = math.exp(1.8) + math.exp(1.4) + math.exp(0.2)
    assert contrastive_t2i(batch, 0).item() == pytest.approx(math.log(z) - 1.6, abs=1e-10)


def test_t2i_requires_a_positive_sample():
    visual = _unit_rows([0.9, 0.7])
    batch = _batch(visual, [0, 0], [0, 1], np.eye(2))
    with pytest.raises(ValueError):
        contrastive_t2i(batch, 1)


# --------------------------------------------------------------------------
# Stage-1 batch objective


def _tiny_setup(seed=3):
    gen = GenConfig(
        n_group_identities=5, d_a=6, members_min=2, members_max=3, n_cameras=2
    )
    ds = generate_dataset(gen, seed=seed)
    pids = ds.person_ids()
    state = init_model_state(
        ModelConfig(
            dim=8,
            d_a=6,
            max_members=3,
            group_slots=4,  # one spare slot so every group prompt uses padding
            tokens_per_identity=2,
            n_person_ids=max(pids) + 1,
            n_group_classes=5,
        ),
        seed=0,
    )
    return ds, state


def test_stage1_loss_runs_and_routes_gradients():
    ds, state = _tiny_setup()
    batch = ds.samples[:4]
    masks = [full_mask(len(s.members)) for s in batch]
    rosters = ds.group_rosters()
    with dc.Graph() as g:
        loss, parts = stage1_batch_loss(batch, masks, state, rosters)
    g.backward(loss)
    assert loss.item() == pytest.approx(parts["loss_i2t"] + parts["loss_t2i"], abs=1e-12)
    assert loss.item() > 0
    p = state.params
    assert np.any(p["prompt.x"].grad)
    assert np.any(p["prompt.pad"].grad)
    assert p["temp.inv"].grad is not None
    assert p["quantity.em"].grad is not None
    assert p["grce.wq"].grad is None


def test_stage1_loss_without_count_term_skips_em():
    ds, state = _tiny_setup()
    batch = ds.samples[:4]
    masks = [full_mask(len(s.members)) for s in batch]
    with dc.Graph() as g:
        loss, _ = stage1_batch_loss(batch, masks, state, ds.group_rosters(), mvs_enabled=False)
    g.backward(loss)
    assert state.params["quantity.em"].grad is None


def test_stage1_loss_ignores_dropped_members():
    ds, state = _tiny_setup()
    batch = list(ds.samples[:4])
    target = batch[0]
    assert len(target.members) >= 2
    masks = [Mask((0,) + (1,) * (len(target.members) - 1))]
    masks += [full_mask(len(s.members)) for s in batch[1:]]
    rosters = ds.group_rosters()

    baseline, _ = stage1_batch_loss(batch, masks, state, rosters)

    garbled = Member(
        identity_id=target.members[0].identity_id,
        appearance=target.members[0].appearance + 41.5,
    )
    batch[0] = GroupSample(
        group_id=target.group_id,
        camera_id=target.camera_id,
        members=(garbled,) + target.members[1:],
    )
    perturbed, _ = stage1_batch_loss(batch, masks, state, rosters)
    assert baseline.item() == perturbed.item()


def test_stage1_needs_matching_masks():
    ds, state = _tiny_setup()
    batch = ds.samples[:3]
    with pytest.raises(ValueError):
        stage1_batch_loss(batch, [full_mask(2)], state, ds.group_rosters())
