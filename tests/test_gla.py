"""Prompt assembly and the supervised contrastive alignment losses."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcum import diffcore as dc
from gcum.diffcore import Tensor
from gcum.encoders import STAGE1_TRAINABLE, ModelConfig, init_model_state
from gcum.gla import (
    _group_layout,
    _member_layout,
    class_text_features,
    contrastive_losses,
    member_text_features,
    stage1_batch_loss,
)
from gcum.mvs import Mask
from gcum.synthdata import GenConfig, GroupSample, generate_dataset
from gcum.trainer import FreezeViolation, _collect_grads

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


def build_member_prompts(identity_ids, state):
    """"a photo of a <identity tokens> person" per identity: the layout the text encoder reads, gathered."""
    return dc.gather_rows(*_member_layout(identity_ids, state))


def build_group_prompts(rosters, state):
    """"a group of <slot tokens> persons" per roster: the layout the text encoder reads, gathered."""
    return dc.gather_rows(*_group_layout(rosters, state))


def _hand_prompts(state, kind, slot_ids):
    """Each prompt by hand: the kind's prefix, a block of prompt.x per identity, padding to the slots, the suffix."""
    p = state.params
    m = state.config.tokens_per_identity
    slots = 1 if kind == "member" else state.config.group_slots
    return np.concatenate([block for ids in slot_ids for block in (
        [p[f"prompt.{kind}_prefix"].values]
        + [p["prompt.x"].values[i * m:(i + 1) * m] for i in ids]
        + [p["prompt.pad"].values] * (slots - len(ids))
        + [p[f"prompt.{kind}_suffix"].values])])


# nine identities and five slots, so rosters of one to five members are short or full
_PROPERTY_STATE = small_state(max_members=4, group_slots=5, n_person_ids=9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=12))
@example([2, 0])
def test_member_prompt_layout(identity_ids):
    state = _PROPERTY_STATE
    seq = build_member_prompts(identity_ids, state)
    assert seq.shape == (len(identity_ids) * state.config.member_prompt_len, state.config.dim)
    assert np.array_equal(seq.values, _hand_prompts(state, "member", [[i] for i in identity_ids]))
    assert not any(part is state.params["prompt.pad"] for part in _member_layout(identity_ids, state)[0])


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=5, unique=True), min_size=1, max_size=6))
@example([[3, 1], [2]])
@example([[0, 4, 2, 1, 3], [8, 7, 6, 5, 4]])
def test_group_prompt_layout_and_padding(rosters):
    # members fill the leading slots in sorted order; the padding fills the rest
    state = _PROPERTY_STATE
    seq = build_group_prompts(rosters, state)
    assert seq.shape == (len(rosters) * state.config.group_prompt_len, state.config.dim)
    assert np.array_equal(seq.values, _hand_prompts(state, "group", [sorted(ids) for ids in rosters]))
    reads_pad = any(part is state.params["prompt.pad"] for part in _group_layout(rosters, state)[0])
    assert reads_pad == any(len(ids) < state.config.group_slots for ids in rosters)


def test_group_prompt_rejects_bad_rosters():
    state = small_state()
    with pytest.raises(ValueError, match="^a group prompt needs at least one member$"):
        build_group_prompts([[]], state)
    with pytest.raises(ValueError, match="^duplicate identities in a group prompt$"):
        build_group_prompts([[0], [1, 1]], state)
    with pytest.raises(ValueError, match="^4 members exceed 3 prompt slots$"):
        build_group_prompts([[0, 1, 2, 3]], state)


@pytest.mark.parametrize("rosters, message", [
    ([[0, 1, 2, 3], [1, 1]], "4 members exceed 3 prompt slots"),
    ([[1, 1], []], "duplicate identities in a group prompt"),
    ([[2], [], [0, 1, 2, 3]], "a group prompt needs at least one member"),
])
def test_the_first_bad_roster_names_its_fault(rosters, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_group_prompts(rosters, small_state())


@pytest.mark.parametrize("rosters, bad", [([[-1, 2]], -1), ([[0, 4]], 4), ([[1], [3, 0, -1]], -1)])
def test_group_prompt_rejects_identities_outside_the_catalog(rosters, bad):
    with pytest.raises(ValueError, match=rf"^identity {bad} outside \[0, 4\)$"):
        build_group_prompts(rosters, small_state())


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


def _composed_text(tokens, state, length):
    """The text encoder before it was one node, on stacked prompt tokens."""
    p = state.params
    pos = dc.gather_rows(p["text.pos"], np.tile(np.arange(length), tokens.shape[0] // length))
    seq = dc.attention_block(dc.add(tokens, pos), p["text.attn.wq"], p["text.attn.wk"], p["text.attn.wv"],
                             p["text.attn.wo"], length)
    return dc.l2_normalize(dc.matmul(ops.block_means(seq, length), p["text.proj"]))


_TEXT_WEIGHTS = ("text.pos", "text.attn.wq", "text.attn.wk", "text.attn.wv", "text.attn.wo", "text.proj")


def _text_runs(fn, state, recording):
    """The value of ``fn()`` and, on a recording graph, every parameter's gradient by name."""
    if not recording:
        return fn().values, {}
    with dc.Graph() as g:
        out = fn()
        upstream = np.random.default_rng(1).normal(size=out.shape)
        loss = ops.reduce_sum(dc.mul(out, dc.constant(upstream)))
    grads = g.backward(loss)
    return out.values, {name: grads[t] for name, t in state.params.items() if t in grads}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("trainable", ["stage 1", "text weights", "every parameter", "none"])
def test_text_features_are_the_gathered_prompts_through_the_composed_encoder_bit_for_bit(seed, trainable):
    # dim 48 and six slots, as the default model; rosters of 1 to 6 members, so the
    # padding block fills up to five slots of one prompt; seed 0 encodes one prompt of each kind
    rng = np.random.default_rng(seed)
    state = init_model_state(ModelConfig(n_person_ids=40), seed)
    names = {"stage 1": STAGE1_TRAINABLE, "text weights": _TEXT_WEIGHTS, "every parameter": state.params,
             "none": ()}[trainable]
    state = state.with_trainable(names)
    cfg = state.config
    n = 1 if seed == 0 else int(rng.integers(2, 12))
    rosters = {c: tuple(rng.choice(40, size=(c + seed) % 6 + 1, replace=False).tolist()) for c in range(n)}
    classes = rng.permutation(n).tolist()
    identities = rng.choice(40, size=n, replace=False).tolist()
    repeated = identities + identities[:1] * 2  # three terms of one identity pin the order prompt.x's rows sum in
    for fused, composed in (
            (lambda: class_text_features(state, classes, rosters),
             lambda: _composed_text(_old_group_prompts([sorted(rosters[c]) for c in classes], state), state,
                                    cfg.group_prompt_len)),
            *((lambda ids=ids: member_text_features(ids, state),
               lambda ids=ids: _composed_text(_old_member_prompts(ids, state), state, cfg.member_prompt_len))
              for ids in (identities, repeated))):
        (got, got_grads), (want, want_grads) = (_text_runs(fn, state, trainable != "none")
                                                for fn in (fused, composed))
        assert got.tobytes() == want.tobytes()
        assert got_grads.keys() == want_grads.keys()
        assert all(got_grads[k].tobytes() == want_grads[k].tobytes() for k in want_grads)
        assert bool(got_grads) == (trainable != "none")


@pytest.mark.parametrize("name", _TEXT_WEIGHTS + ("prompt.member_prefix", "prompt.group_suffix"))
def test_a_frozen_text_tensor_made_trainable_fails_the_freeze_audit(name):
    ds, state = _tiny_setup()
    state = state.with_trainable(STAGE1_TRAINABLE + (name,))
    batch = ds.samples[:4]
    with dc.Graph() as g:
        loss, _ = stage1_batch_loss(batch, *_views(batch, [None] * len(batch), state), state, ds.group_rosters())
    grads = g.backward(loss)
    assert np.any(grads[state.params[name]])
    with pytest.raises(FreezeViolation, match=name):
        _collect_grads(state, grads, STAGE1_TRAINABLE)


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
    """One kind's (i2t, t2i)."""
    _, parts = contrastive_losses([(Tensor(visual), labels, class_labels, Tensor(text))],
                                  Tensor(np.asarray(inv_temp)))
    return parts["loss_i2t"], parts["loss_t2i"]


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


def test_an_unknown_label_raises_and_labels_find_their_class_column():
    visual = _unit_rows([0.9, 0.7, 0.1])
    text = _unit_rows([0.2, 0.95])
    with pytest.raises(ValueError, match="every label needs a text feature"):
        _losses(visual, [7, 3, 4], [7, 3], text)
    with pytest.raises(ValueError, match="distinct"):
        _losses(visual, [7, 3, 7], [7, 7], text)
    # classes in any order: a label's one-hot column is its class's text row
    shuffled = _losses(visual, [7, 3, 7], [7, 3], text)
    swapped = _losses(visual, [7, 3, 7], [3, 7], text[::-1].copy())
    assert shuffled == swapped


# each check of contrastive_losses in its order: a fault that fails it, and the error it raises
_FAULTS = [
    (lambda k: k.update(visual=k["visual"][0]), dc.ShapeError, "visual and text features must be matrices"),
    (lambda k: k.update(text=k["text"][:, :1]), dc.ShapeError, "feature widths differ: visual 2, text 1"),
    (lambda k: k.update(visual=k["visual"][:1]), ValueError, "a contrastive batch needs at least two samples"),
    (lambda k: k.update(labels=k["labels"] + [0]), ValueError, "one label per visual row required"),
    (lambda k: k.update(class_labels=[0, 0]), ValueError, "class_labels must be distinct and match the text rows"),
    (lambda k: k.update(labels=[9] + k["labels"][1:]), ValueError, "every label needs a text feature"),
    (lambda k: k.update(inv_temp=np.ones(1)), dc.ShapeError, "inv_temp must be a scalar tensor"),
    (lambda k: k.update(inv_temp=np.asarray(-1.0)), ValueError, "inverse temperature must be positive"),
    (lambda k: k.update(visual=k["visual"] * 2.0), ValueError, "visual rows must be unit norm"),
    (lambda k: k.update(text=k["text"] * 2.0), ValueError, "text rows must be unit norm"),
]


def _kind(**faulty):
    return {"visual": _unit_rows([0.9, 0.7, 0.1]), "labels": [0, 1, 0], "class_labels": [0, 1],
            "text": np.eye(2), "inv_temp": np.asarray(1.0), **faulty}


def _check(*kinds):
    contrastive_losses([(Tensor(k["visual"]), k["labels"], k["class_labels"], Tensor(k["text"])) for k in kinds],
                       Tensor(kinds[0]["inv_temp"]))


@pytest.mark.parametrize("at", range(len(_FAULTS)))
def test_contrastive_losses_raise_the_first_failed_check(at):
    # the fault at ``at`` and every later one, applied last to first: the check at ``at`` raises
    kind = _kind()
    for breaks, _, _ in reversed(_FAULTS[at:]):
        breaks(kind)
    _, error, message = _FAULTS[at]
    with pytest.raises(error) as caught:
        _check(kind)
    assert type(caught.value) is error and str(caught.value) == message


def test_contrastive_losses_check_the_kinds_in_turn():
    last, first = _kind(), _kind()
    _FAULTS[-1][0](last)  # the last check of the first kind raises before the first check of the second
    _FAULTS[0][0](first)
    with pytest.raises(ValueError, match="^text rows must be unit norm$"):
        _check(last, first)
    with pytest.raises(dc.ShapeError, match="^visual and text features must be matrices$"):
        _check(_kind(), first)


def _nll(logits, true):
    """-log softmax(logits)[true], evaluated directly in double precision."""
    return math.log(sum(math.exp(z) for z in logits)) - logits[true]


def test_contrastive_losses_reject_non_finite_rows():
    x = Tensor(np.eye(3), requires_grad=True)
    with dc.Graph(), np.errstate(invalid="ignore"):
        # exp overflows and the normalized rows hold NaN, whose norm no comparison rejects
        visual = dc.l2_normalize(ops.exp(ops.scale(x, 1e3)))
        with pytest.raises(dc.NonFiniteError, match="^exp: "):
            contrastive_losses([(visual, (0, 1, 2), (0, 1, 2), Tensor(np.eye(3)))], Tensor(np.asarray(1.0)))


def test_t2i_matches_scalar_oracle():
    # three images with cosines [0.9, 0.7, 0.1] to the class-0 text,
    # labels [0, 0, 1], unit temperature.  The class-0 text over its two
    # positives is 0.9189247158518508; the class-1 text has cosines
    # sqrt(1 - c^2) and one positive, image 2.
    visual = _unit_rows([0.9, 0.7, 0.1])
    text = np.eye(2)
    _, t2i = _losses(visual, [0, 0, 1], [0, 1], text)
    class1 = _nll([math.sqrt(1.0 - c * c) for c in (0.9, 0.7, 0.1)], 2)
    assert t2i == pytest.approx((2 * 0.9189247158518508 + class1) / 3, abs=1e-10)


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
    assert i2t == pytest.approx((0.8189247158518508 + math.log(3)) / 2, abs=1e-10)


def test_equal_similarity_gives_log_batch_size():
    visual = np.tile(np.array([[1.0, 0.0]]), (5, 1))
    _, t2i = _losses(visual, [0, 0, 0, 0, 1], [0, 1], np.eye(2))
    assert abs(t2i - math.log(5)) < 1e-10


def test_equal_similarity_gives_log_class_count():
    s = 1.0 / math.sqrt(2.0)
    visual = np.array([[s, s], [s, s]])
    i2t, t2i = _losses(visual, [0, 1], [0, 1], np.eye(2))
    assert abs(i2t - math.log(2)) < 1e-10
    assert abs(t2i - math.log(2)) < 1e-10


def test_temperature_scales_the_logits():
    visual = _unit_rows([0.9, 0.7, 0.1])
    z = math.exp(1.8) + math.exp(1.4) + math.exp(0.2)
    class1 = _nll([2.0 * math.sqrt(1.0 - c * c) for c in (0.9, 0.7, 0.1)], 2)
    _, t2i = _losses(visual, [0, 0, 1], [0, 1], np.eye(2), inv_temp=2.0)
    assert t2i == pytest.approx((2 * (math.log(z) - 1.6) + class1) / 3, abs=1e-10)


def test_t2i_skips_a_class_without_positives():
    # a text with no positive sample adds nothing to t2i (it still competes
    # in i2t); the class-0 column is the same with or without it
    visual = _unit_rows([0.9, 0.7])
    with_extra = _losses(visual, [0, 0], [0, 1], np.eye(2))
    alone = _losses(visual, [0, 0], [0], np.eye(2)[:1])
    assert with_extra[1] == alone[1]


def test_contrastive_losses_stay_finite_at_a_large_inverse_temperature():
    # at inv_temp 800 the off-diagonal softmax entries underflow to 0, so
    # log(softmax) would raise; the loss itself is about 2 exp(-800)
    inv_temp = Tensor(np.asarray(800.0), requires_grad=True)
    with dc.Graph() as g:
        total, parts = contrastive_losses([(Tensor(np.eye(3)), (0, 1, 2), (0, 1, 2), Tensor(np.eye(3)))], inv_temp)
    grads = g.backward(total)
    assert abs(parts["loss_i2t"]) < 1e-12 and abs(parts["loss_t2i"]) < 1e-12
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
    assert abs(i2t - want_i2t) <= 1e-12
    assert abs(t2i - want_t2i) <= 1e-12


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


def test_stage1_loss_records_two_gathers_and_a_pool_per_text_kind_and_one_node_for_the_objective():
    ds, state = _tiny_setup()
    batch = ds.samples[:4]
    with dc.Graph() as g:
        views = _views(batch, [None] * len(batch), state)
        before = len(g._nodes)
        stage1_batch_loss(batch, *views, state, ds.group_rosters())
    assert [dc._op_name(pull) for _, _, pull in g._nodes[before:]] == [
        "gather_rows", "gather_rows", "attention_pool"] * 2 + ["contrastive_loss"]


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
