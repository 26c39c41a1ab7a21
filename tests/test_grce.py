"""Cross-attention refinement and the end-to-end group feature pipeline."""

import numpy as np
import pytest

from gcum import diffcore as dc
from gcum.diffcore import ShapeError, Tensor
from gcum.encoders import ModelConfig, init_model_state
from gcum.grce import (
    VisualMemo,
    canonical_order,
    group_forward,
    group_visual,
    group_visual_from_matrix,
    refine,
)
from gcum.mvs import Mask, full_mask
from gcum.synthdata import GenConfig, GroupSample, Member, generate_dataset


def small_state(seed=0, **overrides):
    base = dict(
        dim=8,
        d_a=5,
        max_members=4,
        group_slots=4,
        tokens_per_identity=2,
        n_person_ids=6,
        n_group_classes=3,
    )
    base.update(overrides)
    return init_model_state(ModelConfig(**base), seed=seed)


def unit(v):
    arr = np.asarray(v, dtype=np.float64)
    return arr / np.linalg.norm(arr)


def test_canonical_order_sorts_rows_lexicographically():
    rows = np.array([[2.0, 0.0], [1.0, 5.0], [1.0, 3.0]])
    assert canonical_order(rows) == [2, 1, 0]


def test_refine_output_is_unit_norm():
    state = small_state()
    rng = np.random.default_rng(0)
    v = Tensor(unit(rng.normal(size=8)))
    feats = Tensor(rng.normal(size=(3, 8)))
    out = refine(v, feats, state)
    assert out.shape == (8,)
    assert np.linalg.norm(out.values) == pytest.approx(1.0, abs=1e-12)


def test_refine_is_exactly_permutation_invariant():
    state = small_state()
    rng = np.random.default_rng(1)
    v = Tensor(unit(rng.normal(size=8)))
    feats = rng.normal(size=(4, 8))
    base = refine(v, Tensor(feats), state)
    for perm_seed in range(5):
        perm = np.random.default_rng(perm_seed).permutation(4)
        out = refine(v, Tensor(feats[perm]), state)
        assert np.array_equal(out.values, base.values)


def test_refine_with_zero_weights_is_the_identity():
    state = small_state()
    zeros = Tensor(np.zeros((8, 8)))
    state = state.with_params({"grce.wq": zeros, "grce.wk": zeros, "grce.wv": zeros})
    v = Tensor(unit([1.0, 2.0, 0.5, -1.0, 0.0, 3.0, -2.0, 1.0]))
    feats = Tensor(np.random.default_rng(2).normal(size=(3, 8)))
    out = refine(v, feats, state)
    assert np.allclose(out.values, v.values, rtol=0.0, atol=1e-14)


def test_refine_shape_errors():
    state = small_state()
    with pytest.raises(ShapeError):
        refine(Tensor(np.ones((2, 8))), Tensor(np.ones((3, 8))), state)
    with pytest.raises(ShapeError):
        refine(Tensor(unit(np.ones(8))), Tensor(np.ones((3, 7))), state)


def _sample_from(ds):
    for s in ds.samples:
        if len(s.members) >= 3:
            return s
    raise AssertionError("expected a group with at least 3 members")


def _dataset(seed=11):
    gen = GenConfig(n_group_identities=4, d_a=5, members_min=3, members_max=4)
    return generate_dataset(gen, seed=seed)


def test_group_visual_is_permutation_invariant():
    ds = _dataset()
    state = small_state()
    sample = _sample_from(ds)
    n = len(sample.members)
    mask = Mask((0,) + (1,) * (n - 1))
    v, feats, ids = group_visual(sample, state, mask)

    perm = [n - 1] + list(range(n - 1))  # rotate members, mask follows
    shuffled = GroupSample(
        group_id=sample.group_id,
        camera_id=sample.camera_id,
        members=tuple(sample.members[i] for i in perm),
    )
    pmask = Mask(tuple(mask.bits[i] for i in perm))
    v2, feats2, ids2 = group_visual(shuffled, state, pmask)
    assert ids == ids2
    assert np.array_equal(v.values, v2.values)
    assert np.array_equal(feats.values, feats2.values)


@pytest.mark.parametrize("quantity", [True, False])
def test_visual_memo_matches_group_visual(quantity):
    ds = _dataset()
    state = small_state()
    # a non-zero count matrix, so the count term shows in the pooled feature
    em = np.random.default_rng(4).normal(scale=0.5, size=(4, 8))
    state = state.with_param("quantity.em", Tensor(em))
    memo = VisualMemo(ds.samples, quantity=quantity)
    # one memo serves every trainable set, as in the gradient check;
    # repeated keys are memo hits, some under another set than their miss
    trains = (True, True, False, False, True, True, False)
    for em_trains, i in zip(trains, (0, 1, 0, 2, 2, 1, 0)):
        state.set_trainable(["quantity.em"] if em_trains else ["grce.wq"])
        n = len(ds.samples[i].members)
        for mask in (full_mask(n), Mask((1, 0) + (1,) * (n - 2))):
            with dc.Graph() as g:
                v, feats, ids = memo(i, mask, state)
                loss = dc.reduce_sum(dc.mul(v, dc.constant(np.arange(8.0))))
            if v.requires_grad:
                g.backward(loss)
            got_grad = state.params["quantity.em"].grad
            state.params["quantity.em"].grad = None
            with dc.Graph() as g:
                v2, feats2, ids2 = group_visual(ds.samples[i], state, mask, quantity=quantity)
                loss2 = dc.reduce_sum(dc.mul(v2, dc.constant(np.arange(8.0))))
            if v2.requires_grad:
                g.backward(loss2)
            assert ids == ids2
            assert np.array_equal(v.values, v2.values)
            assert np.array_equal(feats.values, feats2.values)
            assert v.requires_grad == v2.requires_grad == (quantity and em_trains)
            want = state.params["quantity.em"].grad
            assert (got_grad is None and want is None) or np.array_equal(got_grad, want)
            state.params["quantity.em"].grad = None


def test_visual_memo_needs_frozen_encoders():
    ds = _dataset()
    state = small_state()
    state.set_trainable(["quantity.em", "group.blk2.wq"])
    with pytest.raises(ValueError):
        VisualMemo(ds.samples, quantity=True)(0, full_mask(len(ds.samples[0].members)), state)


def test_group_visual_row_ids_follow_canonical_order():
    ds = _dataset()
    state = small_state()
    sample = _sample_from(ds)
    app = np.stack([m.appearance for m in sample.members])
    order = canonical_order(app)
    _, _, ids = group_visual(sample, state)
    assert list(ids) == [sample.members[i].identity_id for i in order]


def test_dropped_member_cannot_influence_anything():
    state = small_state()
    rng = np.random.default_rng(3)
    app = rng.normal(size=(3, 5))
    ids = [0, 1, 2]
    mask = Mask((1, 0, 1))

    base_in = Tensor(app, requires_grad=True)
    with dc.Graph() as g:
        v, feats, row_ids = group_visual_from_matrix(base_in, ids, state, mask)
        refined = refine(v, feats, state)
        loss = dc.reduce_sum(refined)
    g.backward(loss)
    assert np.array_equal(base_in.grad[1], np.zeros(5))
    assert np.any(base_in.grad[0]) and np.any(base_in.grad[2])

    poked = app.copy()
    poked[1] += 17.0
    v2, feats2, row_ids2 = group_visual_from_matrix(Tensor(poked), ids, state, mask)
    refined2 = refine(v2, feats2, state)
    assert row_ids == row_ids2
    assert np.array_equal(v.values, v2.values)
    assert np.array_equal(feats.values, feats2.values)
    assert np.array_equal(refined.values, refined2.values)


def test_zero_count_matrix_is_neutral():
    ds = _dataset()
    state = small_state()  # quantity.em initializes to zero
    sample = _sample_from(ds)
    with_term, _, _ = group_visual(sample, state, quantity=True)
    without, _, _ = group_visual(sample, state, quantity=False)
    assert np.array_equal(with_term.values, without.values)


def test_nonzero_count_matrix_changes_the_feature():
    ds = _dataset()
    state = small_state()
    em = np.zeros((4, 8))
    em[:2] = 0.3
    state = state.with_param("quantity.em", Tensor(em, requires_grad=True))
    sample = _sample_from(ds)
    with_term, _, _ = group_visual(sample, state, quantity=True)
    without, _, _ = group_visual(sample, state, quantity=False)
    assert not np.array_equal(with_term.values, without.values)


def test_group_forward_composes_the_pipeline():
    ds = _dataset()
    state = small_state()
    sample = _sample_from(ds)
    v, feats, _ = group_visual(sample, state)
    assert np.array_equal(group_forward(sample, state, refined=False).values, v.values)
    assert np.array_equal(
        group_forward(sample, state).values, refine(v, feats, state).values
    )


def test_single_retained_member_works():
    ds = _dataset()
    state = small_state()
    sample = _sample_from(ds)
    mask = Mask((1,) + (0,) * (len(sample.members) - 1))
    v, feats, ids = group_visual(sample, state, mask)
    assert feats.shape[0] == 1
    assert len(ids) == 1
    assert np.linalg.norm(v.values) == pytest.approx(1.0, abs=1e-12)


def test_mask_length_must_match_member_count():
    ds = _dataset()
    state = small_state()
    sample = _sample_from(ds)
    with pytest.raises(ValueError):
        group_visual(sample, state, full_mask(len(sample.members) + 1))
