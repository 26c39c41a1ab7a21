"""Cross-attention refinement and the end-to-end group feature pipeline."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcum import diffcore as dc
from gcum import grce
from gcum.diffcore import ShapeError, Tensor
from gcum.encoders import STAGE1_TRAINABLE, STAGE2_TRAINABLE, ModelConfig, ModelState, init_model_state
from gcum.gla import class_text_features, stage1_batch_loss
from gcum.grce import VIEWS_PER_CHUNK, FrozenPass, canonical_order, refine
from gcum.losses import stage2_batch_loss
from gcum.mvs import Mask, MvsConfig
from gcum.synthdata import GenConfig, GroupSample, generate_dataset
from gcum.trainer import TrainConfig, train_stage1, train_stage2

import tape_ops as ops
from passes import whole_run


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
    state = small_state().with_trainable(())
    sample = _sample_from(ds)
    n = len(sample.identity_ids)
    mask = Mask((0,) + (1,) * (n - 1))
    v, feats, (ids,) = whole_run([sample], state, [mask], quantity=True, refined=False)

    perm = [n - 1] + list(range(n - 1))  # rotate members, mask follows
    shuffled = GroupSample(
        group_id=sample.group_id,
        camera_id=sample.camera_id,
        identity_ids=tuple(sample.identity_ids[i] for i in perm),
        appearances=sample.appearances[perm],
    )
    pmask = Mask(tuple(mask.bits[i] for i in perm))
    v2, feats2, (ids2,) = whole_run([shuffled], state, [pmask], quantity=True, refined=False)
    assert ids == ids2
    assert np.array_equal(v.values, v2.values)
    assert np.array_equal(feats.values, feats2.values)


@pytest.mark.parametrize("quantity", [True, False])
def test_frozen_pass_runs_match_a_pass_over_each_run(quantity):
    ds = _dataset()
    state = small_state()
    # a non-zero count matrix, so the count term shows in the pooled feature
    em = np.random.default_rng(4).normal(scale=0.5, size=(4, 8))
    state = state.with_params({"quantity.em": Tensor(em)})
    probe = dc.constant(np.arange(8.0))

    def features_and_grad(fn, st):
        with dc.Graph() as g:
            v, feats, ids = fn()
            loss = ops.reduce_sum(dc.mul(v, probe))
        grads = g.backward(loss) if v.requires_grad else {}
        return v, feats, ids, grads.get(st.params["quantity.em"])

    # a pass over repeated views, as an epoch plans them; every run of it
    # matches a pass over just that run's views, whether the count matrix
    # trains (the pass keeps block 1) or not (it keeps the pooled features)
    indices = [0, 1, 0, 2, 2, 2, 1, 0, 3, 3, 1]
    for em_trains in (True, False):
        state = state.with_trainable(["quantity.em"] if em_trains else ["grce.wq"])
        for drop in (False, True):
            masks = [Mask((1, 0) + (1,) * (len(ds.samples[i].identity_ids) - 2)) if drop and j % 2 == 0
                     else None for j, i in enumerate(indices)]
            frozen = FrozenPass([ds.samples[i] for i in indices], masks, state, quantity=quantity)
            for start in range(len(indices)):
                for stop in range(start + 1, len(indices) + 1):
                    for refined in (False, True):
                        got = features_and_grad(lambda: frozen(start, stop, state, refined=refined), state)
                        want = features_and_grad(lambda: whole_run(
                            [ds.samples[i] for i in indices[start:stop]], state, masks[start:stop],
                            quantity=quantity, refined=refined), state)
                        assert got[2] == want[2]
                        assert np.array_equal(got[0].values, want[0].values)
                        assert np.array_equal(got[1].values, want[1].values)
                        assert got[0].requires_grad == want[0].requires_grad == (
                            (quantity and em_trains) or (refined and not em_trains))
                        assert (got[3] is None and want[3] is None) or np.array_equal(got[3], want[3])


def test_frozen_pass_over_several_chunks_is_one_stack(monkeypatch):
    # 600 views: two full chunks and a ragged one, against a pass whose one
    # chunk holds every view of the run
    samples, masks, state = _mixed_views(n_groups=150)
    assert len(samples) == 600 and VIEWS_PER_CHUNK == 256
    runs = [(0, 600), (250, 262), (255, 257), (256, 257), (500, 520), (511, 600), (0, 513)]
    for trainable in (["quantity.em"], ["grce.wq"]):
        st = state.with_trainable(trainable)
        frozen = FrozenPass(samples, masks, st, quantity=True)
        for start, stop in runs:
            for refined in (False, True):
                got = frozen(start, stop, st, refined=refined)
                with monkeypatch.context() as m:
                    m.setattr(grce, "VIEWS_PER_CHUNK", len(samples))
                    want = whole_run(samples[start:stop], st, masks[start:stop], quantity=True, refined=refined)
                assert got[0].values.tobytes() == want[0].values.tobytes(), (start, stop)
                assert got[1].values.tobytes() == want[1].values.tobytes(), (start, stop)
                assert got[2] == want[2]


def test_frozen_pass_takes_a_run_of_its_views():
    ds = _dataset()
    state = small_state().with_trainable(STAGE2_TRAINABLE)
    frozen = FrozenPass(ds.samples[:3], [None] * 3, state, quantity=True)
    for start, stop in ((0, 0), (2, 1), (-1, 2), (1, 4)):
        with pytest.raises(IndexError):
            frozen(start, stop, state, refined=False)


def test_frozen_pass_needs_frozen_encoders():
    ds = _dataset()
    state = small_state()
    state = state.with_trainable(["quantity.em", "group.blk2.wq"])
    with pytest.raises(ValueError):
        FrozenPass(ds.samples, [None] * len(ds.samples), state, quantity=True)


def test_frozen_pass_audits_the_encoders_on_every_call():
    ds = _dataset()
    state = small_state()
    state = state.with_trainable(["quantity.em"])
    frozen = FrozenPass(ds.samples[:2], [None, None], state, quantity=True)
    frozen(0, 2, state, refined=False)
    # the same views again, but block 2 now trains
    state = state.with_trainable(["quantity.em", "group.blk2.wq"])
    with pytest.raises(ValueError, match="group.blk2.wq"):
        frozen(0, 2, state, refined=False)


@pytest.mark.parametrize("name", ["quantity.em", "group.blk2.wv", "group.proj"])
def test_frozen_pass_raises_naming_a_frozen_input_that_was_swapped(name):
    ds = _dataset()
    state = small_state()
    state = state.with_trainable(STAGE2_TRAINABLE)
    indices = [0, 2, 3]
    masks = [Mask((1, 0) + (1,) * (len(ds.samples[i].identity_ids) - 2)) for i in indices]
    frozen = FrozenPass([ds.samples[i] for i in indices], masks, state, quantity=True)
    frozen(0, 3, state, refined=False)
    swapped = np.random.default_rng(8).normal(scale=0.5, size=state.params[name].shape)
    state = state.with_params({name: Tensor(swapped)})  # a new frozen tensor
    assert not state.params[name].requires_grad
    for refined in (False, True):
        with pytest.raises(ValueError, match=name):
            frozen(0, 3, state, refined=refined)


def test_group_visual_row_ids_follow_canonical_order():
    ds = _dataset()
    state = small_state().with_trainable(())
    sample = _sample_from(ds)
    order = canonical_order(sample.appearances, np.zeros(len(sample.appearances)))
    _, _, (ids,) = whole_run([sample], state, quantity=True, refined=False)
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

    # every parameter downstream of the frozen encoders trains
    trainable = ("quantity.em", "grce.wq", "grce.wk", "grce.wv")
    state = state.with_trainable(trainable)
    probe = dc.constant(np.linspace(-1.0, 1.0, 8))

    def run(appearances):
        with dc.Graph() as g:
            v, feats, row_ids = whole_run([GroupSample(0, 0, (0, 1, 2), appearances)], state, [mask],
                                          quantity=True, refined=True)
            loss = ops.reduce_sum(dc.mul(v, probe))
        grads = g.backward(loss)
        return v.values, feats.values, row_ids, {n: grads.get(p) for n, p in state.params.items()}

    base = run(appearances)
    assert all(base[3][n] is not None and np.any(base[3][n]) for n in trainable)
    poked = run(garbled(1))
    assert poked[2] == base[2]
    assert np.array_equal(poked[0], base[0]) and np.array_equal(poked[1], base[1])
    for name, grad in base[3].items():
        assert (grad is None) == (poked[3][name] is None), name
        assert grad is None or grad.tobytes() == poked[3][name].tobytes(), name
    # a retained member moves the gradients
    kept = run(garbled(0))
    assert all(not np.array_equal(kept[3][n], base[3][n]) for n in trainable)


def test_zero_count_matrix_is_neutral():
    ds = _dataset()
    state = small_state().with_trainable(())  # quantity.em initializes to zero
    sample = _sample_from(ds)
    with_term, _, _ = whole_run([sample], state, quantity=True, refined=False)
    without, _, _ = whole_run([sample], state, quantity=False, refined=False)
    assert np.array_equal(with_term.values, without.values)


def test_nonzero_count_matrix_changes_the_feature():
    ds = _dataset()
    state = small_state()
    em = np.zeros((4, 8))
    em[:2] = 0.3
    state = state.with_params({"quantity.em": Tensor(em)}).with_trainable(["quantity.em"])
    sample = _sample_from(ds)
    with_term, _, _ = whole_run([sample], state, quantity=True, refined=False)
    without, _, _ = whole_run([sample], state, quantity=False, refined=False)
    assert not np.array_equal(with_term.values, without.values)


def test_single_retained_member_works():
    ds = _dataset()
    state = small_state().with_trainable(())
    sample = _sample_from(ds)
    mask = Mask((1,) + (0,) * (len(sample.identity_ids) - 1))
    v, feats, (ids,) = whole_run([sample], state, [mask], quantity=True, refined=False)
    assert feats.shape[0] == 1
    assert len(ids) == 1
    assert np.linalg.norm(v.values) == pytest.approx(1.0, abs=1e-12)


def test_mask_length_must_match_member_count():
    ds = _dataset()
    state = small_state().with_trainable(())
    sample = _sample_from(ds)
    with pytest.raises(ValueError, match="mask covers"):
        whole_run([sample], state, [Mask((1,) * (len(sample.identity_ids) + 1))], quantity=True, refined=False)


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
    return ds.samples, masks, state.with_trainable(())


@pytest.mark.parametrize("refined", [False, True])
@pytest.mark.parametrize("quantity", [False, True])
def test_view_features_do_not_depend_on_the_stack(quantity, refined):
    samples, masks, state = _mixed_views()
    counts = [m.retained for m in masks]
    assert set(counts) == {1, 2, 3, 4}

    def features(idx):
        return whole_run([samples[i] for i in idx], state, [masks[i] for i in idx],
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


def _shipped_width_views():
    """Views with every retained count from 1 to 6, at dim 48, and a state whose attention weights are live."""
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
                               if n.startswith(("group.blk", "quantity.", "grce."))}).with_trainable(())
    return ds.samples, masks, state


@pytest.mark.parametrize("refined", [False, True])
def test_view_features_do_not_depend_on_the_stack_width(refined):
    # At the shipped width (dim 48, six members) with live attention weights,
    # padding a block to some other width changes the rounding.  So a view's
    # width follows its own count alone, whatever counts share its stack: a
    # view keeping at most three of six members takes four rows, any other seven.
    samples, masks, state = _shipped_width_views()
    counts = np.array([m.retained for m in masks])
    whole = whole_run(samples, state, masks, quantity=True, refined=refined)[0].values
    for c in np.unique(counts):
        idx = np.flatnonzero(counts == c)
        same = whole_run([samples[i] for i in idx], state, [masks[i] for i in idx],
                         quantity=True, refined=refined)
        assert np.array_equal(same[0].values, whole[idx])


def test_a_chunk_runs_block_1_at_two_widths_each_view_in_its_own_class(monkeypatch):
    samples, masks, state = _shipped_width_views()
    samples, masks = samples[:40], masks[:40]
    counts = [m.retained for m in masks]
    assert min(counts) <= 3 < max(counts)
    calls = []
    real = grce.encode_group_prefix

    def recorded(feats, st, k, slots=None):
        calls.append((list(k), slots))
        return real(feats, st, k, slots)

    monkeypatch.setattr(grce, "encode_group_prefix", recorded)
    whole_run(samples, state, masks, quantity=True, refined=False)
    assert calls == [([k for k in counts if k <= 3], 3), ([k for k in counts if k > 3], 6)]


@pytest.mark.parametrize("trainable", [(), ("quantity.em",)])
def test_two_widths_give_the_bits_of_one_full_width(monkeypatch, trainable):
    # the narrow blocks' live rows, pooled or zero-padded into the layout a
    # step reads, have the bits they have when every view takes seven rows
    samples, masks, state = _shipped_width_views()
    state = state.with_trainable(trainable)

    def features():
        return [whole_run(samples, state, masks, quantity=quantity, refined=refined)[0].values.tobytes()
                for quantity in (False, True) for refined in (False, True)]

    two = features()
    monkeypatch.setattr(grce, "_width_classes", lambda k, slots: [(slots, np.ones(k.shape, dtype=bool))])
    assert two == features()


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
    got = whole_run(samples, state, masks, quantity=quantity, refined=refined)[0].values
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


def _grad_check_stage(stage, ds, samples, masks, state, gids):
    """``grad_check`` of the stage's batch loss over ``samples`` under ``masks``, on its trainable set."""
    rosters = ds.group_rosters()
    st = state.with_trainable(STAGE1_TRAINABLE if stage == 1 else STAGE2_TRAINABLE)
    frozen = FrozenPass(samples, masks, st, quantity=True)
    class_index = {g: i for i, g in enumerate(gids)}
    text = class_text_features(st, gids, rosters)

    def loss_fn(params):
        s = ModelState(st.config, params)
        if stage == 1:
            return stage1_batch_loss(samples, *frozen(0, len(samples), s, refined=False), s, rosters)[0]
        features = frozen(0, len(samples), s, refined=True)[0]
        return stage2_batch_loss(samples, features, s, class_index, text, alpha=0.5, epsilon=0.1)[0]

    return dc.grad_check(loss_fn, st.params, step=1e-5, tolerance=1e-4)


def test_stage1_loss_grad_check_over_mixed_member_counts():
    report = _grad_check_stage(1, *_grad_check_setup())
    assert report.ok, report.failures[:3]
    assert set(report.per_param) == set(STAGE1_TRAINABLE)


def test_stage2_loss_grad_check_over_mixed_member_counts():
    report = _grad_check_stage(2, *_grad_check_setup())
    assert report.ok, report.failures[:3]
    assert set(report.per_param) == set(STAGE2_TRAINABLE)


def test_both_stage_losses_grad_check_where_training_goes():
    # the instance trained by both stages at the default rates, MVS on, and
    # checked after each stage, not only at its initial state
    ds, samples, masks, initial, gids = _grad_check_setup()
    views = [s for s in ds.samples if s.group_id in gids]
    rosters = ds.group_rosters()
    cfg = TrainConfig(warmup_epochs=1, lr_peak=0.03, decay_epochs=(), total_epochs=20, batch_size=4,
                      p_groups=2, q_views=2, scale_factor=1.0)
    stage1, _ = train_stage1(initial, views, rosters, cfg, mvs=MvsConfig())
    stage2, _ = train_stage2(stage1, views, rosters, replace(cfg, stage=2), mvs=MvsConfig(),
                             use_text=True, alpha=0.5, epsilon=0.1)
    for name, before, after in (("quantity.em", initial, stage1), ("grce.wv", stage1, stage2)):
        assert not np.array_equal(before.params[name].values, after.params[name].values), name
    for state in (stage1, stage2):
        for stage in (1, 2):
            report = _grad_check_stage(stage, ds, samples, masks, state, gids)
            assert report.ok, (stage, report.max_rel_error, report.failures[:3])


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
        frozen = FrozenPass(samples, masks, state, quantity=True)
        with dc.Graph() as g:
            stage1_batch_loss(samples, *frozen(0, 8, state, refined=False), state, rosters)
        return len(g._nodes)

    assert state.config.max_members == 4
    assert nodes([1, 2, 3, 4, 4, 3, 2, 1]) == nodes([1] * 8) == nodes([4] * 8)
