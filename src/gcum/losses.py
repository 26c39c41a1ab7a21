"""Refinement-stage objectives: identity, triplet, and image-text losses.

The refined group feature is trained with three terms: a label-smoothed
classification loss over group classes, a batch-hard triplet loss in
Euclidean feature space, and a label-smoothed cross entropy over
similarities to the (now frozen) group text features.  Each term is one
whole-batch expression over the stacked (B, dim) refined features: each
cross entropy is one ``soft_target_nll`` of a (B, N) logits matrix, and
the triplet hinge compares each row with its mined positive and negative
rows by ``row_distance``.  Mining runs on detached feature values, which
must be finite; only the chosen pairs enter the recorded loss.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tensor
from .encoders import ModelState


def cross_entropy_smoothed(logits: Tensor, true_indices: Sequence[int], epsilon: float) -> Tensor:
    """Mean over rows of the cross entropy against label-smoothed targets.

    ``logits`` is (B, N) with one true class per row.  Each target row puts
    ``1 - epsilon + epsilon/N`` on the true class and ``epsilon/N``
    elsewhere.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be a (batch, classes) matrix, got {logits.shape}")
    b, n = logits.shape
    true = np.asarray(true_indices, dtype=np.int64)
    if true.shape != (b,):
        raise ShapeError(f"need one true class per logits row, got {true.shape} for {b} rows")
    if true.min() < 0 or true.max() >= n:
        raise ValueError(f"true classes {true.tolist()} outside [0, {n})")
    if not (0.0 <= epsilon < 1.0):
        raise ValueError("epsilon must lie in [0, 1)")
    target = np.full((b, n), epsilon / n)
    target[np.arange(b), true] += 1.0 - epsilon
    return dc.soft_target_nll(logits, target, b)


def id_loss(
    refined: Tensor, state: ModelState, class_indices: Sequence[int], epsilon: float = 0.1
) -> Tensor:
    """Group classification of (B, dim) features over the learned classifier rows."""
    logits = dc.matmul(refined, dc.transpose(state.params["grce.classifier"]))
    return cross_entropy_smoothed(logits, class_indices, epsilon)


def i2tce_loss(
    refined: Tensor,
    text_rows: Tensor,
    class_indices: Sequence[int],
    inv_temp: Tensor,
    epsilon: float = 0.1,
) -> Tensor:
    """Smoothed cross entropy over similarities of (B, dim) features to the class texts."""
    if text_rows.ndim != 2:
        raise ShapeError("text features must be a matrix")
    logits = dc.mul(dc.matmul(refined, dc.transpose(text_rows)), inv_temp)
    return cross_entropy_smoothed(logits, class_indices, epsilon)


def mine_batch_hard(values: np.ndarray, labels: Sequence[int]) -> list[tuple[int, int, int]]:
    """Per anchor: the farthest positive and the nearest negative.

    Mining is a discrete choice, so it runs on plain arrays; ties break
    toward the lowest index.  Every anchor must have at least one other
    positive and one negative.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != len(labels):
        raise ShapeError("need one feature row per label")
    dc.check_finite(arr, "mine_batch_hard")
    b = arr.shape[0]
    sq = np.sum((arr[:, None, :] - arr[None, :, :]) ** 2, axis=2)
    dist = np.sqrt(np.maximum(sq, 0.0))
    lab = np.asarray(labels)
    triplets: list[tuple[int, int, int]] = []
    for a in range(b):
        same = (lab == lab[a]) & (np.arange(b) != a)
        diff = lab != lab[a]
        if not same.any():
            raise ValueError(f"anchor {a} (label {lab[a]}) has no positive in the batch")
        if not diff.any():
            raise ValueError(f"anchor {a} (label {lab[a]}) has no negative in the batch")
        pos_d = np.where(same, dist[a], -np.inf)
        neg_d = np.where(diff, dist[a], np.inf)
        triplets.append((a, int(np.argmax(pos_d)), int(np.argmin(neg_d))))
    return triplets


def triplet_loss(features: Tensor, labels: Sequence[int], alpha: float = 0.3) -> Tensor:
    """Batch-hard triplet hinge, averaged over anchors (the rows in order)."""
    if features.ndim != 2:
        raise ShapeError("features must be a (batch, dim) matrix")
    if alpha < 0:
        raise ValueError("margin must be non-negative")
    triplets = mine_batch_hard(features.values, labels)
    d_ap = dc.row_distance(features, dc.gather_rows(features, [p for _, p, _ in triplets]))
    d_an = dc.row_distance(features, dc.gather_rows(features, [n for _, _, n in triplets]))
    margin = dc.add(dc.sub(d_ap, d_an), dc.constant(np.asarray(alpha)))
    return dc.reduce_mean(dc.clamp_min(margin, 0.0))


def stage2_batch_loss(
    samples,
    features: Tensor,
    state: ModelState,
    class_index: Mapping[int, int],
    text_rows: Tensor | None,
    *,
    alpha: float = 0.3,
    epsilon: float = 0.1,
) -> tuple[Tensor, dict[str, float]]:
    """Identity + triplet (+ image-text) loss over refined group features.

    ``features`` holds one refined group feature row per sample under its
    mask, from ``grce.group_features(..., refined=True)`` (training takes
    them from a ``grce.VisualMemo``).  ``class_index`` maps group ids to
    classifier rows; ``text_rows``, when given, holds one frozen text
    feature per class in the same row order.
    """
    if features.ndim != 2 or len(samples) != features.shape[0]:
        raise ValueError("one view per sample required")
    if len(samples) < 2:
        raise ValueError("stage-2 batches need at least two samples")
    class_ids = [class_index[s.group_id] for s in samples]

    l_id = id_loss(features, state, class_ids, epsilon)
    l_tri = triplet_loss(features, class_ids, alpha)
    total = dc.add(l_id, l_tri)
    parts = {"loss_id": l_id.item(), "loss_tri": l_tri.item()}
    if text_rows is not None:
        l_ce = i2tce_loss(features, text_rows, class_ids, state.params["temp.inv"], epsilon)
        total = dc.add(total, l_ce)
        parts["loss_i2tce"] = l_ce.item()
    return total, parts
