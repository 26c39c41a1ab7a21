"""Smoothed cross entropy, distances, mining, and the stage-2 objective."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcum import diffcore as dc
from gcum.diffcore import ShapeError, Tensor
from gcum.encoders import STAGE2_TRAINABLE, ModelConfig, init_model_state
from gcum.losses import (
    cross_entropy_smoothed,
    i2tce_loss,
    id_loss,
    mine_batch_hard,
    stage2_batch_loss,
    triplet_loss,
)
from gcum.synthdata import GenConfig, generate_dataset

import tape_ops as ops
from passes import whole_run


def test_smoothed_ce_matches_scalar_oracle():
    loss = cross_entropy_smoothed(Tensor([[2.0, 0.0, 0.0]]), [0], 0.1)
    assert loss.item() == pytest.approx(0.372878099555218, abs=1e-10)


def test_smoothed_ce_uniform_logits_give_log_n():
    for n in (2, 5, 7):
        loss = cross_entropy_smoothed(Tensor(np.zeros((1, n))), [1 % n], 0.1)
        assert abs(loss.item() - math.log(n)) < 1e-10


def test_smoothed_ce_without_smoothing_is_plain_nll():
    z = math.exp(1.0) + math.exp(3.0)
    loss = cross_entropy_smoothed(Tensor([[1.0, 3.0]]), [1], 0.0)
    assert loss.item() == pytest.approx(math.log(z) - 3.0, abs=1e-12)


def test_smoothed_ce_validation():
    with pytest.raises(ValueError):
        cross_entropy_smoothed(Tensor([[1.0, 2.0]]), [2], 0.1)
    with pytest.raises(ValueError):
        cross_entropy_smoothed(Tensor([[1.0, 2.0]]), [0], 1.0)
    with pytest.raises(ShapeError):
        cross_entropy_smoothed(Tensor([1.0, 2.0]), [0], 0.1)
    with pytest.raises(ShapeError):
        cross_entropy_smoothed(Tensor([[1.0, 2.0]]), [0, 1], 0.1)


def test_smoothed_ce_stays_finite_at_a_large_spread():
    # softmax([800, -800]) underflows to [1, 0], so log(softmax) would raise
    logits = Tensor([[800.0, -800.0]], requires_grad=True)
    with dc.Graph() as g:
        loss = cross_entropy_smoothed(logits, [1], 0.1)
    grads = g.backward(loss)
    # target [0.05, 0.95]: loss 0.95 * 1600; gradient softmax - target
    assert loss.item() == pytest.approx(1520.0, abs=1e-9)
    np.testing.assert_allclose(grads[logits], [[0.95, -0.95]], rtol=0, atol=1e-12)


def test_id_loss_reads_the_classifier():
    state = init_model_state(
        ModelConfig(dim=4, d_a=3, max_members=2, group_slots=2, n_person_ids=2, n_group_classes=3),
        seed=0,
    )
    rows = np.zeros((3, 4))
    rows[0, 0] = 2.0  # logits for e_0 become [2, 0, 0]
    state = state.with_params({"grce.classifier": Tensor(rows, requires_grad=True)})
    v = Tensor([[1.0, 0.0, 0.0, 0.0]])
    assert id_loss(v, state, [0], 0.1).item() == pytest.approx(0.372878099555218, abs=1e-10)


def test_i2tce_matches_scalar_oracle():
    text = Tensor([[0.8, 0.0, 0.0], [0.2, 0.0, 0.0], [0.1, 0.0, 0.0]])
    v = Tensor([[1.0, 0.0, 0.0]])
    loss = i2tce_loss(v, text, [0], Tensor(np.asarray(1.0)), 0.1)
    assert loss.item() == pytest.approx(0.7589252066260845, abs=1e-10)


def test_i2tce_applies_the_inverse_temperature():
    text = Tensor([[0.4, 0.0], [0.1, 0.0]])
    v = Tensor([[1.0, 0.0]])
    doubled = i2tce_loss(v, text, [0], Tensor(np.asarray(2.0)), 0.0)
    z = math.exp(0.8) + math.exp(0.2)
    assert doubled.item() == pytest.approx(math.log(z) - 0.8, abs=1e-12)


# the triplet loss's distance
def test_euclidean_basic_values():
    d = dc.row_distance(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]))
    assert d.item() == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_euclidean_at_coincident_points_is_floored_and_flat():
    a = Tensor([[0.5, -0.5]], requires_grad=True)
    with dc.Graph() as g:
        d = dc.row_distance(a, Tensor([[0.5, -0.5]]))
        total = ops.reduce_sum(d)
    grads = g.backward(total)
    assert d.item() == pytest.approx(1e-6, abs=1e-18)
    assert np.array_equal(grads[a], np.zeros((1, 2)))


def test_euclidean_gradient_is_correct():
    state = {"a": Tensor([[0.3, -1.2, 0.7]], requires_grad=True)}
    b = Tensor([[1.0, 0.5, -0.25]])

    def loss_fn(s):
        return ops.reduce_sum(dc.row_distance(s["a"], b))

    report = dc.grad_check(loss_fn, state)
    assert report.ok, report.failures


def test_mine_batch_hard_hand_case():
    f = np.array([[0.0, 0.0], [3.0, 0.0], [10.0, 0.0], [10.0, 4.0]])
    triplets = mine_batch_hard(f, [0, 0, 1, 1])
    assert triplets == [(0, 1, 2), (1, 0, 2), (2, 3, 1), (3, 2, 1)]


def test_mine_batch_hard_requires_positives_and_negatives():
    f = np.eye(3)
    with pytest.raises(ValueError):
        mine_batch_hard(f, [0, 0, 0])  # no negatives anywhere
    with pytest.raises(ValueError):
        mine_batch_hard(f, [0, 1, 1])  # anchor 0 has no positive


def test_mine_batch_hard_names_the_first_anchor_it_cannot_mine():
    f = np.eye(5)
    with pytest.raises(ValueError, match=r"^anchor 2 \(label 1\) has no positive in the batch$"):
        mine_batch_hard(f, [0, 0, 1, 2, 2])
    with pytest.raises(ValueError, match=r"^anchor 0 \(label 0\) has no negative in the batch$"):
        mine_batch_hard(f[:3], [0, 0, 0])


def test_mine_batch_hard_breaks_equal_distances_toward_the_first_index():
    # anchor 0 has both positives at 1 and both negatives at 2; anchors 1 and 2
    # have both negatives at sqrt(5)
    f = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
    triplets = mine_batch_hard(f, [0, 0, 0, 1, 1])
    assert triplets == [(0, 1, 3), (1, 2, 3), (2, 1, 3), (3, 4, 0), (4, 3, 0)]


def test_mine_batch_hard_rejects_non_finite_features():
    f = np.eye(4)
    f[2, 1] = np.nan
    with pytest.raises(dc.NonFiniteError, match="^mine_batch_hard: "):
        mine_batch_hard(f, [0, 0, 1, 1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 3), st.integers(2, 3))
def test_mining_matches_brute_force(seed, classes, per_class):
    rng = np.random.default_rng(seed)
    labels = [c for c in range(classes) for _ in range(per_class)]
    f = rng.normal(size=(len(labels), 4))
    expected = []
    for a in range(len(labels)):
        best_p, best_pd = None, -1.0
        best_n, best_nd = None, math.inf
        for j in range(len(labels)):
            d = math.dist(f[a], f[j])
            if j != a and labels[j] == labels[a] and d > best_pd:
                best_p, best_pd = j, d
            if labels[j] != labels[a] and d < best_nd:
                best_n, best_nd = j, d
        expected.append((a, best_p, best_n))
    assert mine_batch_hard(f, labels) == expected


def test_triplet_loss_zero_when_negatives_are_far():
    f = Tensor([[1.0, 0.0], [-1.0, 0.0], [10.0, 0.0], [12.0, 0.0]])
    assert triplet_loss(f, [0, 0, 1, 1], alpha=0.25).item() == 0.0


def test_triplet_loss_equidistant_square_pays_the_margin():
    f = Tensor([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert triplet_loss(f, [0, 0, 1, 1], alpha=0.25).item() == 0.25


def test_triplet_loss_mixed_case_matches_arithmetic():
    f = Tensor([[0.0, 0.0], [3.0, 0.0], [10.0, 0.0], [10.0, 4.0]])
    loss = triplet_loss(f, [0, 0, 1, 1], alpha=5.0)
    expected = (0.0 + 1.0 + 2.0 + (9.0 - math.sqrt(65.0))) / 4.0
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_triplet_loss_rejects_negative_margin():
    f = Tensor(np.eye(4))
    with pytest.raises(ValueError):
        triplet_loss(f, [0, 0, 1, 1], alpha=-0.1)


def _smoothed_nll(logits, true, epsilon):
    """One row's smoothed cross entropy, -sum(target * log(softmax(logits)))."""
    e = np.exp(logits - logits.max())
    target = np.full(len(logits), epsilon / len(logits))
    target[true] += 1.0 - epsilon
    return -np.sum(target * np.log(e / e.sum()))


@pytest.mark.parametrize("seed", range(5))
def test_batch_losses_match_the_per_anchor_oracle(seed):
    rng = np.random.default_rng(seed)
    labels = [int(y) for y in rng.permutation([0, 0, 1, 1, 2, 2])]
    feats = rng.normal(size=(6, 4))
    classifier = rng.normal(size=(3, 4))
    text = rng.normal(size=(3, 4))
    inv_temp = float(rng.uniform(0.5, 10.0))
    state = init_model_state(
        ModelConfig(dim=4, d_a=3, max_members=2, group_slots=2, n_person_ids=2, n_group_classes=3),
        seed=0,
    ).with_params({"grce.classifier": Tensor(classifier, requires_grad=True)})

    want_id = np.mean([_smoothed_nll(classifier @ f, y, 0.1) for f, y in zip(feats, labels)])
    want_ce = np.mean([_smoothed_nll(inv_temp * (text @ f), y, 0.1) for f, y in zip(feats, labels)])
    hinges = []
    for a, ya in enumerate(labels):
        d = [math.sqrt(max(float(np.sum((feats[a] - g) ** 2)), 1e-12)) for g in feats]
        d_ap = max(d[j] for j, y in enumerate(labels) if y == ya and j != a)
        d_an = min(d[j] for j, y in enumerate(labels) if y != ya)
        hinges.append(max(d_ap - d_an + 0.5, 0.0))
    want_tri = np.mean(hinges)

    f = Tensor(feats)
    assert abs(id_loss(f, state, labels, 0.1).item() - want_id) <= 1e-12
    assert abs(i2tce_loss(f, Tensor(text), labels, Tensor(np.asarray(inv_temp)), 0.1).item()
               - want_ce) <= 1e-12
    assert abs(triplet_loss(f, labels, alpha=0.5).item() - want_tri) <= 1e-12


def _stage2_setup(seed=5):
    gen = GenConfig(n_group_identities=5, d_a=6, members_min=2, members_max=3, n_cameras=2)
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
        seed=1,
    )
    class_index = {g: i for i, g in enumerate(ds.group_ids())}
    return ds, state, class_index


def _batch_with_positives(ds, size=6):
    # put two views of the same group next to each other so every anchor
    # has a positive
    by_group = {}
    for s in ds.samples:
        by_group.setdefault(s.group_id, []).append(s)
    batch = []
    for views in by_group.values():
        if len(views) >= 2:
            batch.extend(views[:2])
        if len(batch) >= size:
            break
    assert len(batch) >= 4
    return batch


def test_stage2_loss_composes_all_terms():
    ds, state, class_index = _stage2_setup()
    state = state.with_trainable(())
    batch = _batch_with_positives(ds)
    rng = np.random.default_rng(0)
    text = dc.constant(rng.normal(size=(len(class_index), 8)))

    features = whole_run(batch, state, quantity=True, refined=True)[0]
    loss, parts = stage2_batch_loss(batch, features, state, class_index, text, alpha=0.3, epsilon=0.1)
    assert set(parts) == {"loss_id", "loss_tri", "loss_i2tce"}
    assert loss.item() == pytest.approx(sum(parts.values()), abs=1e-12)

    loss2, parts2 = stage2_batch_loss(batch, features, state, class_index, None, alpha=0.3, epsilon=0.1)
    assert set(parts2) == {"loss_id", "loss_tri"}
    assert loss2.item() == pytest.approx(sum(parts2.values()), abs=1e-12)


def test_stage2_gradient_support_is_the_refinement_head():
    ds, state, class_index = _stage2_setup()
    state = state.with_trainable(STAGE2_TRAINABLE)
    batch = _batch_with_positives(ds)
    text = dc.constant(np.random.default_rng(1).normal(size=(len(class_index), 8)))

    with dc.Graph() as g:
        features = whole_run(batch, state, quantity=True, refined=True)[0]
        loss, _ = stage2_batch_loss(batch, features, state, class_index, text, alpha=0.3, epsilon=0.1)
    grads = g.backward(loss)
    touched = {n for n, p in state.params.items() if p in grads}
    assert touched == set(STAGE2_TRAINABLE)
    assert np.any(grads[state.params["grce.wq"]])
    assert np.any(grads[state.params["grce.classifier"]])
