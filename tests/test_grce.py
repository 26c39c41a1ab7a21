"""Cross-attention refinement and the end-to-end group feature pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcum import diffcore as dc
from gcum.diffcore import ShapeError, Tensor
from gcum.encoders import STAGE1_TRAINABLE, STAGE2_TRAINABLE, ModelConfig, ModelState, init_model_state
from gcum.gla import class_text_features, stage1_batch_loss
from gcum.grce import (
    VisualMemo,
    canonical_order,
    group_features,
    refine,
)
from gcum.losses import stage2_batch_loss
from gcum.mvs import Mask, full_mask
from gcum.synthdata import GenConfig, GroupSample, generate_dataset

import tape_ops as ops


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
    assert canonical_order(rows, [0, 0, 0]) == [2, 1, 0]
    assert canonical_order(rows, [1, 0, 0]) == [2, 1, 0]
    assert canonical_order(rows, [0, 1, 1]) == [0, 2, 1]


def full_lexsort(rows, segments):
    """The lexsort over every column: segment id first, then column 0, 1, ..."""
    return np.lexsort(list(rows.T[::-1]) + [np.asarray(segments)]).tolist()


@st.composite
def tie_heavy_rows(draw):
    width = draw(st.integers(1, 4))
    values = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), min_size=width, max_size=width)
    rows = np.array(draw(st.lists(values, max_size=8)), dtype=np.float64).reshape(-1, width)
    if len(rows):
        rows = np.concatenate([rows, rows[draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))]])
    segments = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
    return rows, segments


@settings(max_examples=300, deadline=None)
@given(tie_heavy_rows())
def test_canonical_order_is_the_full_lexsort(case):
    rows, segments = case
    assert canonical_order(rows, segments) == full_lexsort(rows, segments)


def test_refine_output_is_unit_norm():
    state = small_state()
    rng = np.random.default_rng(0)
    v = Tensor(unit(rng.normal(size=8))[None])
    feats = Tensor(rng.normal(size=(3, 8)))
    out = refine(v, feats, state, [3])
    assert out.shape == (1, 8)
    assert np.linalg.norm(out.values) == pytest.approx(1.0, abs=1e-12)


def test_refine_is_exactly_permutation_invariant():
    state = small_state()
    rng = np.random.default_rng(1)
    v = Tensor(unit(rng.normal(size=8))[None])
    feats = rng.normal(size=(4, 8))
    base = refine(v, Tensor(feats), state, [4])
    for perm_seed in range(5):
        perm = np.random.default_rng(perm_seed).permutation(4)
        out = refine(v, Tensor(feats[perm]), state, [4])
        assert np.array_equal(out.values, base.values)


def test_refine_with_zero_weights_is_the_identity():
    state = small_state()
    zeros = Tensor(np.zeros((8, 8)))
    state = state.with_params({"grce.wq": zeros, "grce.wk": zeros, "grce.wv": zeros})
    v = Tensor(unit([1.0, 2.0, 0.5, -1.0, 0.0, 3.0, -2.0, 1.0])[None])
    feats = Tensor(np.random.default_rng(2).normal(size=(3, 8)))
    out = refine(v, feats, state, [3])
    assert np.allclose(out.values, v.values, rtol=0.0, atol=1e-14)


def test_refine_shape_errors():
    state = small_state()
    with pytest.raises(ShapeError):
        refine(Tensor(np.ones((2, 8))), Tensor(np.ones((3, 8))), state, [1, 1])
    with pytest.raises(ShapeError):
        refine(Tensor(unit(np.ones(8))), Tensor(np.ones((3, 7))), state, [3])


def _sample_from(ds):
    for s in ds.samples:
        if len(s.identity_ids) >= 3:
            return s
    raise AssertionError("expected a group with at least 3 members")


def _dataset(seed=11):
    gen = GenConfig(n_group_identities=4, d_a=5, members_min=3, members_max=4)
    return generate_dataset(gen, seed=seed)


def test_group_visual_is_permutation_invariant():
    ds = _dataset()
    state = small_state()
    sample = _sample_from(ds)
    n = len(sample.identity_ids)
    mask = Mask((0,) + (1,) * (n - 1))
    v, feats, (ids,) = group_features([sample], state, [mask], quantity=True, refined=False)

    perm = [n - 1] + list(range(n - 1))  # rotate members, mask follows
    shuffled = GroupSample(
        group_id=sample.group_id,
        camera_id=sample.camera_id,
        identity_ids=tuple(sample.identity_ids[i] for i in perm),
        appearances=sample.appearances[perm],
    )
    pmask = Mask(tuple(mask.bits[i] for i in perm))
    v2, feats2, (ids2,) = group_features([shuffled], state, [pmask], quantity=True, refined=False)
    assert ids == ids2
    assert np.array_equal(v.values, v2.values)
    assert np.array_equal(feats.values, feats2.values)


@pytest.mark.parametrize("quantity", [True, False])
def test_visual_memo_matches_group_visual(quantity):
    ds = _dataset()
    state = small_state()
    # a non-zero count matrix, so the count term shows in the pooled feature
    em = np.random.default_rng(4).normal(scale=0.5, size=(4, 8))
    state = state.with_params({"quantity.em": Tensor(em)})
    memo = VisualMemo(ds.samples, quantity=quantity)
    probe = dc.constant(np.arange(8.0))

    def features_and_grad(fn, st):
        with dc.Graph() as g:
            v, feats, ids = fn()
            loss = ops.reduce_sum(dc.mul(v, probe))
        grads = g.backward(loss) if v.requires_grad else {}
        return v, feats, ids, grads.get(st.params["quantity.em"])

    # one memo serves every trainable set, as in the gradient check;
    # repeated keys are memo hits, some under another set than their miss,
    # and some calls mix hits with misses
    calls = ([0, 1], [0, 2, 2], [2], [1, 0, 3], [3, 1])
    trains = (True, False, False, True, True)
    states = {em_trains: state.with_trainable(["quantity.em"] if em_trains else ["grce.wq"])
              for em_trains in (True, False)}
    for em_trains, indices in zip(trains, calls):
        state = states[em_trains]
        for drop in (False, True):
            masks = [Mask((1, 0) + (1,) * (len(ds.samples[i].identity_ids) - 2)) if drop and j % 2 == 0
                     else full_mask(len(ds.samples[i].identity_ids)) for j, i in enumerate(indices)]
            for refined in (False, True):
                got = features_and_grad(lambda: memo(indices, masks, state, refined=refined), state)
                want = features_and_grad(lambda: group_features(
                    [ds.samples[i] for i in indices], state, masks, quantity=quantity, refined=refined), state)
                assert got[2] == want[2]
                assert np.array_equal(got[0].values, want[0].values)
                assert np.array_equal(got[1].values, want[1].values)
                assert got[0].requires_grad == want[0].requires_grad == (
                    (quantity and em_trains) or (refined and not em_trains))
                assert (got[3] is None and want[3] is None) or np.array_equal(got[3], want[3])


def test_visual_memo_needs_frozen_encoders():
    ds = _dataset()
    state = small_state()
    state = state.with_trainable(["quantity.em", "group.blk2.wq"])
    with pytest.raises(ValueError):
        memo = VisualMemo(ds.samples, quantity=True)
        memo([0], [full_mask(len(ds.samples[0].identity_ids))], state, refined=False)


def test_visual_memo_audits_the_encoders_on_an_all_hits_call():
    ds = _dataset()
    state = small_state()
    state = state.with_trainable(["quantity.em"])
    memo = VisualMemo(ds.samples, quantity=True)
    masks = [full_mask(len(ds.samples[i].identity_ids)) for i in (0, 1)]
    memo([0, 1], masks, state, refined=False)
    # the same keys again: every entry is a hit, but block 2 now trains
    state = state.with_trainable(["quantity.em", "group.blk2.wq"])
    with pytest.raises(ValueError, match="group.blk2.wq"):
        memo([0, 1], masks, state, refined=False)


@pytest.mark.parametrize("name", ["quantity.em", "group.blk2.wv", "group.proj"])
def test_visual_memo_drops_pooled_features_when_a_frozen_input_is_swapped(name):
    ds = _dataset()
    state = small_state()
    state = state.with_trainable(STAGE2_TRAINABLE)
    memo = VisualMemo(ds.samples, quantity=True)
    indices = [0, 2, 3]
    masks = [Mask((1, 0) + (1,) * (len(ds.samples[i].identity_ids) - 2)) for i in indices]
    views = [ds.samples[i] for i in indices]
    first = memo(indices, masks, state, refined=False)[0].values
    swapped = np.random.default_rng(8).normal(scale=0.5, size=state.params[name].shape)
    state = state.with_params({name: Tensor(swapped)})  # a new frozen tensor
    assert not state.params[name].requires_grad
    for refined in (False, True):
        got = memo(indices, masks, state, refined=refined)[0].values
        want = group_features(views, state, masks, quantity=True, refined=refined)[0].values
        assert np.array_equal(got, want)
    assert not np.array_equal(first, memo(indices, masks, state, refined=False)[0].values)


def test_group_visual_row_ids_follow_canonical_order():
    ds = _dataset()
    state = small_state()
    sample = _sample_from(ds)
    order = canonical_order(sample.appearances, np.zeros(len(sample.appearances)))
    _, _, (ids,) = group_features([sample], state, quantity=True, refined=False)
    assert list(ids) == [sample.identity_ids[i] for i in order]


def test_dropped_member_cannot_influence_anything():
    state = small_state()
    rng = np.random.default_rng(3)
    appearances = rng.normal(size=(3, 5))
    mask = Mask((1, 0, 1))

    def garbled(i):
        out = appearances.copy()
        out[i] += 17.0
        return out

    # every parameter trains, the frozen encoders too
    state = state.with_trainable(state.params)
    probe = dc.constant(np.linspace(-1.0, 1.0, 8))

    def run(appearances):
        with dc.Graph() as g:
            v, feats, row_ids = group_features([GroupSample(0, 0, (0, 1, 2), appearances)], state, [mask],
                                              quantity=True, refined=True)
            loss = ops.reduce_sum(dc.mul(v, probe))
        grads = g.backward(loss)
        return v.values, feats.values, row_ids, {n: grads.get(p) for n, p in state.params.items()}

    base = run(appearances)
    assert all(g is not None and np.any(g) for n, g in base[3].items() if n.startswith(("member.", "group.")))
    poked = run(garbled(1))
    assert poked[2] == base[2]
    assert np.array_equal(poked[0], base[0]) and np.array_equal(poked[1], base[1])
    for name, grad in base[3].items():
        assert (grad is None) == (poked[3][name] is None), name
        assert grad is None or grad.tobytes() == poked[3][name].tobytes(), name
    # a retained member moves the encoder gradients
    kept = run(garbled(0))
    assert not np.array_equal(kept[3]["member.w1"], base[3]["member.w1"])


def test_zero_count_matrix_is_neutral():
    ds = _dataset()
    state = small_state()  # quantity.em initializes to zero
    sample = _sample_from(ds)
    with_term, _, _ = group_features([sample], state, quantity=True, refined=False)
    without, _, _ = group_features([sample], state, quantity=False, refined=False)
    assert np.array_equal(with_term.values, without.values)


def test_nonzero_count_matrix_changes_the_feature():
    ds = _dataset()
    state = small_state()
    em = np.zeros((4, 8))
    em[:2] = 0.3
    state = state.with_params({"quantity.em": Tensor(em, requires_grad=True)})
    sample = _sample_from(ds)
    with_term, _, _ = group_features([sample], state, quantity=True, refined=False)
    without, _, _ = group_features([sample], state, quantity=False, refined=False)
    assert not np.array_equal(with_term.values, without.values)


def test_single_retained_member_works():
    ds = _dataset()
    state = small_state()
    sample = _sample_from(ds)
    mask = Mask((1,) + (0,) * (len(sample.identity_ids) - 1))
    v, feats, (ids,) = group_features([sample], state, [mask], quantity=True, refined=False)
    assert feats.shape[0] == 1
    assert len(ids) == 1
    assert np.linalg.norm(v.values) == pytest.approx(1.0, abs=1e-12)


def test_mask_length_must_match_member_count():
    ds = _dataset()
    state = small_state()
    sample = _sample_from(ds)
    with pytest.raises(ValueError):
        group_features([sample], state, [full_mask(len(sample.identity_ids) + 1)], quantity=True, refined=False)


def _mixed_views(n_groups=60, seed=21):
    """Views with every retained count from 1 to 4, and a state whose count term is live."""
    gen = GenConfig(n_group_identities=n_groups, d_a=5, members_min=2, members_max=4)
    ds = generate_dataset(gen, seed=seed)
    rng = np.random.default_rng(seed)
    masks = []
    for s in ds.samples:
        bits = (rng.random(len(s.identity_ids)) < 0.6).astype(int)
        bits[rng.integers(len(bits))] = 1
        masks.append(Mask(tuple(int(b) for b in bits)))
    state = small_state(seed=3)
    state = state.with_params({
        "quantity.em": Tensor(rng.normal(scale=0.5, size=(4, 8))),
        "grce.wq": Tensor(rng.normal(scale=0.5, size=(8, 8))),
        "grce.wk": Tensor(rng.normal(scale=0.5, size=(8, 8))),
    })
    return ds.samples, masks, state


@pytest.mark.parametrize("refined", [False, True])
@pytest.mark.parametrize("quantity", [False, True])
def test_view_features_do_not_depend_on_the_stack(quantity, refined):
    samples, masks, state = _mixed_views()
    counts = [m.retained for m in masks]
    assert set(counts) == {1, 2, 3, 4}

    def features(idx):
        return group_features([samples[i] for i in idx], state, [masks[i] for i in idx],
                              quantity=quantity, refined=refined)[0].values

    n = len(samples)
    whole = features(range(n))
    rng = np.random.default_rng(5)
    for _ in range(3):
        perm = rng.permutation(n)
        assert np.array_equal(features(perm), whole[perm])
        subset = rng.choice(n, size=int(rng.integers(2, n)), replace=False)
        assert np.array_equal(features(subset), whole[subset])
    # a 1-member view beside a 3-member view and a full view, and each alone
    one = counts.index(1)
    three = counts.index(3)
    full = counts.index(state.config.max_members)
    assert np.array_equal(features([one, three]), whole[[one, three]])
    assert np.array_equal(features([full, one]), whole[[full, one]])
    for i in rng.choice(n, size=40, replace=False).tolist() + [one, three, full]:
        assert np.array_equal(features([i]), whole[[i]])


@pytest.mark.parametrize("refined", [False, True])
def test_view_features_do_not_depend_on_the_stack_width(refined):
    # At the shipped width (dim 48, six members) with live attention weights,
    # padding a block to another width changes the rounding; every view must
    # be padded to max_members + 1 whatever counts share its stack.
    gen = GenConfig(n_group_identities=30, d_a=5, members_min=2, members_max=6)
    ds = generate_dataset(gen, seed=21)
    rng = np.random.default_rng(0)
    masks = []
    for s in ds.samples:
        bits = (rng.random(len(s.identity_ids)) < 0.5).astype(int)
        bits[rng.integers(len(bits))] = 1
        masks.append(Mask(tuple(int(b) for b in bits)))
    state = small_state(seed=3, dim=48, max_members=6, group_slots=6)
    state = state.with_params({n: Tensor(rng.normal(scale=0.5, size=p.shape)) for n, p in state.params.items()
                               if n.startswith(("group.blk", "quantity.", "grce."))})
    counts = np.array([m.retained for m in masks])
    whole = group_features(ds.samples, state, masks, quantity=True, refined=refined)[0].values
    for c in np.unique(counts):
        idx = np.flatnonzero(counts == c)
        same = group_features([ds.samples[i] for i in idx], state, [masks[i] for i in idx],
                              quantity=True, refined=refined)
        assert np.array_equal(same[0].values, whole[idx])


def _per_view_reference(sample, mask, state, *, quantity, refined):
    """One view through the pipeline in plain numpy, composed as the per-view code did."""
    p = {name: t.values for name, t in state.params.items()}
    app = sample.appearances[np.flatnonzero(mask.bits)]
    app = app[np.lexsort(app.T[::-1])]
    hidden = np.tanh(app @ p["member.w1"] + p["member.b1"])
    feats = hidden @ p["member.w2"] + p["member.b2"]
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)

    def attend(q, keys, values):
        scores = q @ keys.T / np.sqrt(q.shape[-1])
        w = np.exp(scores - scores.max(axis=-1, keepdims=True))
        return (w / w.sum(axis=-1, keepdims=True)) @ values

    def block(x, name):
        ctx = attend(x @ p[f"{name}.wq"], x @ p[f"{name}.wk"], x @ p[f"{name}.wv"])
        return x + ctx @ p[f"{name}.wo"]

    seq = block(np.vstack([p["group.cls"], feats]), "group.blk1")
    if quantity:
        seq[0] += np.mean(p["quantity.em"][: len(feats)] * seq[1:], axis=0)
    v = block(seq, "group.blk2")[0] @ p["group.proj"]
    v /= np.linalg.norm(v)
    if refined:
        ordered = feats[np.lexsort(feats.T[::-1])]
        v = v + attend(v @ p["grce.wq"], ordered @ p["grce.wk"], ordered @ p["grce.wv"])
        v /= np.linalg.norm(v)
    return v


@pytest.mark.parametrize("refined", [False, True])
@pytest.mark.parametrize("quantity", [False, True])
def test_stacked_features_match_the_per_view_composition(quantity, refined):
    samples, masks, state = _mixed_views(n_groups=15)
    got = group_features(samples, state, masks, quantity=quantity, refined=refined)[0].values
    want = np.stack([_per_view_reference(s, m, state, quantity=quantity, refined=refined)
                     for s, m in zip(samples, masks)])
    assert np.max(np.abs(got - want)) < 1e-12


def _grad_check_setup():
    """Two groups of two 3-member views, masked to 1, 2, 3 and 2 members:
    the k = 1 and k = 3 stacks each hold a single view."""
    gen = GenConfig(n_group_identities=3, members_min=3, members_max=3,
                    membership_dropout_prob=0.0, appearance_noise_std=0.2, d_a=4)
    ds = generate_dataset(gen, seed=6)
    cfg = ModelConfig(dim=4, d_a=4, max_members=3, group_slots=3, tokens_per_identity=2,
                      n_person_ids=len(ds.catalog), n_group_classes=2)
    state = init_model_state(cfg, seed=7)
    bump = np.random.default_rng(8)
    state = state.with_params({
        name: Tensor(bump.normal(scale=0.5, size=state.params[name].shape))
        for name in ("quantity.em", "grce.wq", "grce.wk", "grce.wv", "grce.classifier")
    })
    gids = ds.group_ids()[:2]
    samples = [[s for s in ds.samples if s.group_id == g][v] for g in gids for v in range(2)]
    masks = [Mask(b) for b in ((1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1))]
    return ds, samples, masks, state, gids


def test_stage1_loss_grad_check_over_mixed_member_counts():
    ds, samples, masks, state, _ = _grad_check_setup()
    rosters = ds.group_rosters()
    memo = VisualMemo(samples, quantity=True)
    state = state.with_trainable(STAGE1_TRAINABLE)

    def loss_fn(st):
        return stage1_batch_loss(samples, *memo(range(4), masks, st, refined=False), st, rosters)[0]

    report = dc.grad_check(lambda ps: loss_fn(ModelState(state.config, ps)), state.params,
                           step=1e-5, tolerance=1e-4)
    assert report.ok, report.failures[:3]
    assert set(report.per_param) == set(STAGE1_TRAINABLE)


def test_stage2_loss_grad_check_over_mixed_member_counts():
    ds, samples, masks, state, gids = _grad_check_setup()
    class_index = {g: i for i, g in enumerate(gids)}
    text = dc.constant(class_text_features(state, gids, ds.group_rosters()).values)
    memo = VisualMemo(samples, quantity=True)
    state = state.with_trainable(STAGE2_TRAINABLE)

    def loss_fn(st):
        features = memo(range(4), masks, st, refined=True)[0]
        return stage2_batch_loss(samples, features, st, class_index, text, alpha=0.5, epsilon=0.1)[0]

    report = dc.grad_check(lambda ps: loss_fn(ModelState(state.config, ps)), state.params,
                           step=1e-5, tolerance=1e-4)
    assert report.ok, report.failures[:3]
    assert set(report.per_param) == set(STAGE2_TRAINABLE)


def test_a_step_records_one_stack_whatever_the_member_counts():
    gen = GenConfig(n_group_identities=4, d_a=5, members_min=4, members_max=4,
                    membership_dropout_prob=0.0)
    ds = generate_dataset(gen, seed=9)
    state = small_state(n_person_ids=len(ds.catalog))
    state = state.with_trainable(STAGE1_TRAINABLE)
    samples = ds.samples[:8]
    rosters = ds.group_rosters()

    def nodes(retained):
        masks = [Mask((1,) * k + (0,) * (4 - k)) for k in retained]
        memo = VisualMemo(samples, quantity=True)
        with dc.Graph() as g:
            stage1_batch_loss(samples, *memo(range(8), masks, state, refined=False), state, rosters)
        return len(g._nodes)

    assert state.config.max_members == 4
    assert nodes([1, 2, 3, 4, 4, 3, 2, 1]) == nodes([1] * 8) == nodes([4] * 8)
