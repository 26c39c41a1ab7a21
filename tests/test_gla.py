"""Prompt assembly and the supervised contrastive alignment losses."""

import math

import numpy as np
import pytest

from gcum import diffcore as dc
from gcum.diffcore import Tensor
from gcum.encoders import ModelConfig, init_model_state
from gcum.gla import (
    build_group_prompts,
    build_member_prompts,
    class_text_features,
    contrastive_losses,
    member_text_features,
    stage1_batch_loss,
)
from gcum.mvs import Mask
from gcum.synthdata import GenConfig, GroupSample, generate_dataset

import tape_ops as ops
from passes import whole_run


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
    seq = build_member_prompts([2, 0], state)
    m = state.config.tokens_per_identity
    p = state.params

    def prompt(identity):
        return [
            p["prompt.member_prefix"].values,                       # "a photo of a"
            p["prompt.x"].values[identity * m : (identity + 1) * m],  # the identity's block
            p["prompt.member_suffix"].values,                       # "person"
        ]

    expected = np.concatenate(prompt(2) + prompt(0))
    assert seq.shape == (2 * state.config.member_prompt_len, state.config.dim)
    assert np.array_equal(seq.values, expected)


def test_member_prompt_rejects_unknown_identity():
    state = small_state()
    with pytest.raises(ValueError):
        build_member_prompts([4], state)
    with pytest.raises(ValueError):
        build_member_prompts([0, -1], state)


def test_group_prompt_is_order_invariant():
    state = small_state()
    a = build_group_prompts([[3, 1]], state)
    b = build_group_prompts([[1, 3]], state)
    assert np.array_equal(a.values, b.values)


def test_group_prompt_layout_and_padding():
    state = small_state()
    seq = build_group_prompts([[3, 1], [2]], state)
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
        p["prompt.group_prefix"].values,            # the second prompt:
        x[2 * m : 3 * m],                           # identity 2 fills slot 0
        p["prompt.pad"].values,                     # slots 1 and 2 are padding
        p["prompt.pad"].values,
        p["prompt.group_suffix"].values,
    ])
    assert seq.shape == (2 * cfg.group_prompt_len, cfg.dim)
    assert np.array_equal(seq.values, expected)


def test_group_prompt_rejects_bad_rosters():
    state = small_state()
    with pytest.raises(ValueError):
        build_group_prompts([[]], state)
    with pytest.raises(ValueError):
        build_group_prompts([[0], [1, 1]], state)
    with pytest.raises(ValueError):
        build_group_prompts([[0, 1, 2, 3]], state)


def test_prompt_gradient_lands_on_the_right_rows():
    state = small_state()
    m = state.config.tokens_per_identity
    with dc.Graph() as g:
        seq = build_group_prompts([[2]], state)  # slots 3: one identity, two pads
        loss = ops.reduce_sum(seq)
    grads = g.backward(loss)
    gx = grads[state.params["prompt.x"]]
    expected = np.zeros_like(gx)
    expected[2 * m : 3 * m] = 1.0
    assert np.array_equal(gx, expected)
    assert np.array_equal(
        grads[state.params["prompt.pad"]], np.full((m, state.config.dim), 2.0)
    )
    assert state.params["prompt.member_prefix"] not in grads


def test_full_rosters_leave_the_padding_without_gradient():
    # a parameter with a gradient, even a zero one, takes a momentum and
    # weight-decay step, so prompts that do not pad must not reach the padding
    state = small_state()
    with dc.Graph() as g:
        loss = ops.reduce_sum(build_group_prompts([[0, 1, 2], [3, 1, 0]], state))
    grads = g.backward(loss)
    assert state.params["prompt.pad"] not in grads
    assert np.any(grads[state.params["prompt.x"]])


def _table_prompts(state, names, prompts):
    """The composition the prompt assembler replaced: one token table, then one gather.

    The table holds the template parameters ``names``, then the blocks of
    the distinct identities the prompts name, gathered from ``prompt.x``.
    """
    p = state.params
    m = state.config.tokens_per_identity
    used = sorted({part for prompt in prompts for part in prompt if not isinstance(part, str)})
    blocks = dc.gather_rows(p["prompt.x"], [pid * m + j for pid in used for j in range(m)])
    rows, at = {}, 0
    for key, size in [(name, p[name].shape[0]) for name in names] + [(pid, m) for pid in used]:
        rows[key] = np.arange(at, at + size)
        at += size
    table = ops.concat([p[name] for name in names] + [blocks])
    return dc.gather_rows(table, np.concatenate([rows[part] for prompt in prompts for part in prompt]))


def _old_member_prompts(identity_ids, state):
    return _table_prompts(state, ("prompt.member_prefix", "prompt.member_suffix"),
                          [("prompt.member_prefix", int(i), "prompt.member_suffix") for i in identity_ids])


def _old_group_prompts(rosters, state):
    slots = state.config.group_slots
    names = ("prompt.group_prefix", "prompt.group_suffix")
    if any(len(ids) < slots for ids in rosters):
        names += ("prompt.pad",)
    return _table_prompts(state, names, [("prompt.group_prefix", *sorted(ids),
                                          *["prompt.pad"] * (slots - len(ids)), "prompt.group_suffix")
                                         for ids in rosters])


@pytest.mark.parametrize("seed", range(8))
def test_assembled_prompts_are_the_table_and_gather_composition_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    state = small_state(seed, max_members=4, group_slots=5, n_person_ids=9)
    slots = state.config.group_slots
    full = seed % 2 == 0  # even seeds draw full rosters, odd ones short rosters that read the padding
    rosters = [rng.choice(9, size=slots if full else rng.integers(1, slots), replace=False).tolist()
               for _ in range(rng.integers(1, 5))]
    identities = rng.choice(9, size=rng.integers(1, 6), replace=False).tolist()
    for build, old, arg, reads_pad in ((build_group_prompts, _old_group_prompts, rosters, not full),
                                       (build_member_prompts, _old_member_prompts, identities, False)):
        runs = []
        for fn in (build, old):
            with dc.Graph() as g:
                out = fn(arg, state)
                upstream = np.random.default_rng(seed).normal(size=out.shape)
                loss = ops.reduce_sum(dc.mul(out, dc.constant(upstream)))
            runs.append((out.values, g.backward(loss)))
        (got, got_grads), (want, want_grads) = runs
        assert got.tobytes() == want.tobytes()
        assert got_grads.keys() == want_grads.keys()
        assert all(got_grads[t].tobytes() == want_grads[t].tobytes() for t in want_grads)
        assert state.params["prompt.x"] in got_grads
        assert (state.params["prompt.pad"] in got_grads) == reads_pad


def test_text_features_are_unit_and_deterministic():
    state = small_state()
    t1 = class_text_features(state, [0, 1], {0: (0, 2), 1: (3, 1, 2)})
    t2 = class_text_features(state, [0, 1], {0: (2, 0), 1: (1, 2, 3)})
    assert np.array_equal(t1.values, t2.values)
    assert np.allclose(np.linalg.norm(t1.values, axis=1), 1.0, atol=1e-12)
    stackd = class_text_features(state, [1], {1: (0, 2)})
    assert stackd.shape == (1, state.config.dim)


def test_batched_text_features_match_one_prompt_each():
    state = small_state()
    members = member_text_features([3, 0, 2], state).values
    for row, pid in zip(members, [3, 0, 2]):
        assert np.array_equal(row, member_text_features([pid], state).values[0])
    rosters = {0: (0, 2), 1: (3,), 2: (1, 2, 3)}
    groups = class_text_features(state, [2, 0, 1], rosters).values
    for row, c in zip(groups, [2, 0, 1]):
        assert np.array_equal(row, class_text_features(state, [c], rosters).values[0])


# --------------------------------------------------------------------------
# Contrastive losses


def _unit_rows(cosines):
    """2-D unit vectors whose first coordinates are the given cosines."""
    c = np.asarray(cosines)
    return np.stack([c, np.sqrt(1.0 - c * c)], axis=1)


def _losses(visual, labels, class_labels, text, inv_temp=1.0):
    return contrastive_losses(Tensor(visual), labels, class_labels, Tensor(text),
                              Tensor(np.asarray(inv_temp)))


def test_batch_validation():
    ok_vis = _unit_rows([0.9, 0.7])
    ok_text = np.eye(2)
    with pytest.raises(ValueError):
        _losses(ok_vis * 2.0, [0, 1], [0, 1], ok_text)  # visual not unit
    with pytest.raises(ValueError):
        _losses(ok_vis, [0, 2], [0, 1], ok_text)  # label without text
    with pytest.raises(ValueError):
        _losses(ok_vis[:1], [0], [0, 1], ok_text)  # batch too small
    with pytest.raises(ValueError):
        _losses(ok_vis, [0, 1], [0, 1], ok_text, inv_temp=0.0)


def _nll(logits, true):
    """-log softmax(logits)[true], evaluated directly in double precision."""
    return math.log(sum(math.exp(z) for z in logits)) - logits[true]


def test_contrastive_losses_reject_non_finite_rows():
    x = Tensor(np.eye(3), requires_grad=True)
    with dc.Graph(), np.errstate(invalid="ignore"):
        # exp overflows and the normalized rows hold NaN, whose norm no comparison rejects
        visual = dc.l2_normalize(ops.exp(ops.scale(x, 1e3)))
        with pytest.raises(dc.NonFiniteError, match="^exp: "):
            contrastive_losses(visual, (0, 1, 2), (0, 1, 2), Tensor(np.eye(3)), Tensor(np.asarray(1.0)))


def test_t2i_matches_scalar_oracle():
    # three images with cosines [0.9, 0.7, 0.1] to the class-0 text,
    # labels [0, 0, 1], unit temperature.  The class-0 text over its two
    # positives is 0.9189247158518508; the class-1 text has cosines
    # sqrt(1 - c^2) and one positive, image 2.
    visual = _unit_rows([0.9, 0.7, 0.1])
    text = np.eye(2)
    _, t2i = _losses(visual, [0, 0, 1], [0, 1], text)
    class1 = _nll([math.sqrt(1.0 - c * c) for c in (0.9, 0.7, 0.1)], 2)
    assert t2i.item() == pytest.approx((2 * 0.9189247158518508 + class1) / 3, abs=1e-10)


def test_i2t_matches_scalar_oracle():
    # image 0 has cosines [0.9, 0.7, 0.1] to three class texts, true class 0,
    # which costs 0.8189247158518508; image 1 is orthogonal to every text,
    # so its three logits tie and it costs ln 3
    text = np.zeros((3, 3))
    for row, c in enumerate([0.9, 0.7, 0.1]):
        text[row, 0] = c
        text[row, 1] = math.sqrt(1.0 - c * c)
    visual = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    i2t, _ = _losses(visual, [0, 1], [0, 1, 2], text)
    assert i2t.item() == pytest.approx((0.8189247158518508 + math.log(3)) / 2, abs=1e-10)


def test_equal_similarity_gives_log_batch_size():
    visual = np.tile(np.array([[1.0, 0.0]]), (5, 1))
    _, t2i = _losses(visual, [0, 0, 0, 0, 1], [0, 1], np.eye(2))
    assert abs(t2i.item() - math.log(5)) < 1e-10


def test_equal_similarity_gives_log_class_count():
    s = 1.0 / math.sqrt(2.0)
    visual = np.array([[s, s], [s, s]])
    i2t, t2i = _losses(visual, [0, 1], [0, 1], np.eye(2))
    assert abs(i2t.item() - math.log(2)) < 1e-10
    assert abs(t2i.item() - math.log(2)) < 1e-10


def test_temperature_scales_the_logits():
    visual = _unit_rows([0.9, 0.7, 0.1])
    z = math.exp(1.8) + math.exp(1.4) + math.exp(0.2)
    class1 = _nll([2.0 * math.sqrt(1.0 - c * c) for c in (0.9, 0.7, 0.1)], 2)
    _, t2i = _losses(visual, [0, 0, 1], [0, 1], np.eye(2), inv_temp=2.0)
    assert t2i.item() == pytest.approx((2 * (math.log(z) - 1.6) + class1) / 3, abs=1e-10)


def test_t2i_skips_a_class_without_positives():
    # a text with no positive sample adds nothing to t2i (it still competes
    # in i2t); the class-0 column is the same with or without it
    visual = _unit_rows([0.9, 0.7])
    with_extra = _losses(visual, [0, 0], [0, 1], np.eye(2))
    alone = _losses(visual, [0, 0], [0], np.eye(2)[:1])
    assert with_extra[1].item() == alone[1].item()


def test_contrastive_losses_stay_finite_at_a_large_inverse_temperature():
    # at inv_temp 800 the off-diagonal softmax entries underflow to 0, so
    # log(softmax) would raise; the loss itself is about 2 exp(-800)
    inv_temp = Tensor(np.asarray(800.0), requires_grad=True)
    with dc.Graph() as g:
        i2t, t2i = contrastive_losses(Tensor(np.eye(3)), (0, 1, 2), (0, 1, 2), Tensor(np.eye(3)), inv_temp)
        total = dc.add(i2t, t2i)
    grads = g.backward(total)
    assert abs(i2t.item()) < 1e-12 and abs(t2i.item()) < 1e-12
    assert math.isfinite(float(grads[inv_temp]))


def _per_anchor_oracle(visual, labels, class_labels, text, inv_temp):
    """The per-anchor formulas: mean over samples of -log p(own class text),
    and mean over samples of the mean over their class's positives of
    -log p(positive | class text)."""
    sims = inv_temp * visual @ text.T

    def log_softmax(v):
        e = np.exp(v - v.max())
        return np.log(e / e.sum())

    i2t = np.mean([-log_softmax(sims[i])[class_labels.index(y)] for i, y in enumerate(labels)])
    t2i = []
    for y in labels:
        column = log_softmax(sims[:, class_labels.index(y)])
        t2i.append(-np.mean([column[i] for i, l in enumerate(labels) if l == y]))
    return i2t, np.mean(t2i)


@pytest.mark.parametrize("seed", range(5))
def test_contrastive_losses_match_the_per_anchor_oracle(seed):
    rng = np.random.default_rng(seed)
    labels = [int(y) for y in rng.integers(0, 3, size=7)]
    class_labels = sorted(set(labels)) + [5]  # one text without positives
    visual = rng.normal(size=(7, 4))
    visual /= np.linalg.norm(visual, axis=1, keepdims=True)
    text = rng.normal(size=(len(class_labels), 4))
    text /= np.linalg.norm(text, axis=1, keepdims=True)
    inv_temp = float(rng.uniform(0.5, 10.0))
    i2t, t2i = _losses(visual, labels, class_labels, text, inv_temp)
    want_i2t, want_t2i = _per_anchor_oracle(visual, labels, class_labels, text, inv_temp)
    assert abs(i2t.item() - want_i2t) <= 1e-12
    assert abs(t2i.item() - want_t2i) <= 1e-12


# --------------------------------------------------------------------------
# Stage-1 batch objective


def _tiny_setup(seed=3):
    gen = GenConfig(
        n_group_identities=5, d_a=6, members_min=2, members_max=3, n_cameras=2
    )
    ds = generate_dataset(gen, seed=seed)
    state = init_model_state(
        ModelConfig(
            dim=8,
            d_a=6,
            max_members=3,
            group_slots=4,  # one spare slot so every group prompt uses padding
            tokens_per_identity=2,
            n_person_ids=len(ds.catalog),
            n_group_classes=5,
        ),
        seed=0,
    )
    # every parameter but the visual encoders, which a frozen pass reads, takes gradients
    return ds, state.with_trainable([n for n in state.params if not n.startswith(("member.", "group."))])


def _views(batch, masks, state, quantity=True):
    return whole_run(batch, state, masks, quantity=quantity, refined=False)


def test_stage1_loss_runs_and_routes_gradients():
    ds, state = _tiny_setup()
    batch = ds.samples[:4]
    masks = [None] * len(batch)
    rosters = ds.group_rosters()
    with dc.Graph() as g:
        loss, parts = stage1_batch_loss(batch, *_views(batch, masks, state), state, rosters)
    grads = g.backward(loss)
    assert loss.item() == pytest.approx(parts["loss_i2t"] + parts["loss_t2i"], abs=1e-12)
    assert loss.item() > 0
    p = state.params
    assert np.any(grads[p["prompt.x"]])
    assert np.any(grads[p["prompt.pad"]])
    assert p["temp.inv"] in grads
    assert p["quantity.em"] in grads
    assert p["grce.wq"] not in grads


def test_stage1_loss_without_count_term_skips_em():
    ds, state = _tiny_setup()
    batch = ds.samples[:4]
    masks = [None] * len(batch)
    with dc.Graph() as g:
        views = _views(batch, masks, state, quantity=False)
        loss, _ = stage1_batch_loss(batch, *views, state, ds.group_rosters())
    grads = g.backward(loss)
    assert state.params["quantity.em"] not in grads


def test_stage1_loss_ignores_dropped_members():
    ds, state = _tiny_setup()
    batch = list(ds.samples[:4])
    target = batch[0]
    assert len(target.identity_ids) >= 2
    masks = [Mask((0,) + (1,) * (len(target.identity_ids) - 1))]
    masks += [None] * (len(batch) - 1)
    rosters = ds.group_rosters()

    baseline, _ = stage1_batch_loss(batch, *_views(batch, masks, state), state, rosters)

    garbled = target.appearances.copy()
    garbled[0] += 41.5
    batch[0] = GroupSample(
        group_id=target.group_id,
        camera_id=target.camera_id,
        identity_ids=target.identity_ids,
        appearances=garbled,
    )
    perturbed, _ = stage1_batch_loss(batch, *_views(batch, masks, state), state, rosters)
    assert baseline.item() == perturbed.item()


def test_stage1_needs_matching_masks():
    ds, state = _tiny_setup()
    batch = ds.samples[:3]
    views = _views(batch[:1], [None], state)
    with pytest.raises(ValueError):
        stage1_batch_loss(batch, *views, state, ds.group_rosters())
