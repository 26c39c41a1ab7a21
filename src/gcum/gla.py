"""Uncertain group prompt learning: prompts and contrastive alignment.

Text descriptions are assembled from learned token blocks.  Every person
identity owns a block of prompt tokens; a member description wraps one
block in a fixed template ("a photo of a <tokens> person").  A group
description allocates a fixed number of identity slots ("a group of
<slot tokens> persons"): present members fill the leading slots in
canonical (sorted identity) order, learned padding tokens fill the rest.
The fixed slot count is what lets one text embedding describe a group
whose visible membership varies.  Both kinds follow one layout rule: a
prompt is the kind's prefix, one block per slot (an identity's rows of
``prompt.x``, or ``prompt.pad`` for an empty slot), then the kind's
suffix; a member prompt is the one-slot case that never pads.  The rule
gives one index vector over those parts per kind, and the text encoder
reads the prompts straight from the parts in one tape node.

Alignment uses a supervised contrastive loss in both directions at both
granularities (member features against member descriptions, group
features against group descriptions), with a learnable inverse softmax
temperature shared across all similarity logits.  Each direction is one
whole-batch cross entropy of the (B, C) similarity matrix, or of its
transpose, against the (B, C) one-hot label matrix, averaged over the B
samples; both directions at both granularities are one tape node
(``diffcore.contrastive_loss``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tensor
from .encoders import ModelState, encode_text


def _layout(kind: str, slot_ids: np.ndarray, filled: np.ndarray, state: ModelState
            ) -> tuple[list[Tensor], np.ndarray]:
    """The parts prompts of ``kind`` read, and the order that lays out one prompt per row of ``slot_ids``.

    A prompt is the kind's prefix, then one ``tokens_per_identity`` block
    per slot (its identity's rows of ``prompt.x`` where ``filled``, else
    ``prompt.pad``), then the kind's suffix.  ``prompt.pad`` is a part only
    when some slot is empty.  A filled slot's identity outside
    ``[0, n_person_ids)`` raises.
    """
    ids, n_ids = slot_ids[filled], state.config.n_person_ids
    if ids.size and (ids.min() < 0 or ids.max() >= n_ids):
        raise ValueError(f"identity {ids[(ids < 0) | (ids >= n_ids)].min()} outside [0, {n_ids})")
    p = state.params
    m = state.config.tokens_per_identity
    parts = [p[f"prompt.{kind}_prefix"], p[f"prompt.{kind}_suffix"]]
    prefix, suffix = parts[0].shape[0], parts[1].shape[0]
    short = not filled.all()
    if short:
        parts.append(p["prompt.pad"])
    parts.append(p["prompt.x"])
    n, body = slot_ids.shape[0], slot_ids.shape[1] * m
    first = np.where(filled, prefix + suffix + short * m + slot_ids * m, prefix + suffix)  # each slot's first row
    order = np.empty((n, prefix + body + suffix), np.int64)
    order[:, :prefix] = np.arange(prefix)
    order[:, prefix:prefix + body] = (first[:, :, None] + np.arange(m)).reshape(n, body)
    order[:, prefix + body:] = np.arange(prefix, prefix + suffix)
    return parts, order.ravel()


def _member_layout(identity_ids: Sequence[int], state: ModelState) -> tuple[list[Tensor], np.ndarray]:
    """The parts member prompts read, and the order that lays out one prompt per identity: one slot, never empty."""
    ids = np.fromiter(identity_ids, np.int64)[:, None]
    return _layout("member", ids, np.ones(ids.shape, bool), state)


def _group_layout(rosters: Sequence[Sequence[int]], state: ModelState) -> tuple[list[Tensor], np.ndarray]:
    """The parts group prompts read, and the order that lays out one prompt per roster: its members sorted."""
    slots = state.config.group_slots
    slot_ids = np.zeros((len(rosters), slots), np.int64)
    counts = []
    for row, roster in enumerate(rosters):  # the first bad roster names its fault
        ids = sorted(roster)
        if not ids:
            raise ValueError("a group prompt needs at least one member")
        if len(set(ids)) < len(ids):
            raise ValueError("duplicate identities in a group prompt")
        if len(ids) > slots:
            raise ValueError(f"{len(ids)} members exceed {slots} prompt slots")
        slot_ids[row, :len(ids)] = ids
        counts.append(len(ids))
    return _layout("group", slot_ids, np.arange(slots) < np.array(counts, np.int64)[:, None], state)


def member_text_features(identity_ids: Sequence[int], state: ModelState) -> Tensor:
    """Member text features, one row per identity, encoded in one pass from the prompt parts."""
    parts, order = _member_layout(identity_ids, state)
    return encode_text(parts, state, state.config.member_prompt_len, order)


def class_text_features(state: ModelState, class_ids: Sequence[int], rosters) -> Tensor:
    """Group text features for ``class_ids``, rows in their order, encoded in one pass from the prompt parts."""
    parts, order = _group_layout([rosters[c] for c in class_ids], state)
    return encode_text(parts, state, state.config.group_prompt_len, order)


# --------------------------------------------------------------------------
# Supervised contrastive alignment


def contrastive_losses(kinds: Sequence[tuple[Tensor, Sequence[int], Sequence[int], Tensor]], inv_temp: Tensor
                       ) -> tuple[Tensor, dict[str, float]]:
    """``i2t + t2i``, each a mean over a kind's B samples summed over the kinds, and the two sums by name.

    A kind is ``(visual, labels, class_labels, text)``: unit-norm
    ``visual`` rows (B, dim) with their ``labels`` meet unit-norm ``text``
    rows (C, dim), one per distinct entry of ``class_labels``; the logits
    are the cosines times the scalar ``inv_temp``.  ``i2t`` scores every
    sample against all class texts; ``t2i`` scores every class text
    against all visual rows and averages over that text's positives, so
    each class counts once per sample that has it.  The kinds are checked
    in turn, then scored as one ``diffcore.contrastive_loss`` node.
    """
    checked = []
    for visual, labels, class_labels, text in kinds:
        if visual.ndim != 2 or text.ndim != 2:
            raise ShapeError("visual and text features must be matrices")
        (b, dim), (c, dim_t) = visual.shape, text.shape
        if dim != dim_t:
            raise ShapeError(f"feature widths differ: visual {dim}, text {dim_t}")
        if b < 2:
            raise ValueError("a contrastive batch needs at least two samples")
        if len(labels) != b:
            raise ValueError("one label per visual row required")
        column = {y: j for j, y in enumerate(class_labels)}  # each class's text row
        if len(column) != len(class_labels) or len(class_labels) != c:
            raise ValueError("class_labels must be distinct and match the text rows")
        columns = [column.get(y) for y in labels]
        if None in columns:
            raise ValueError("every label needs a text feature")
        if inv_temp.shape != ():
            raise ShapeError("inv_temp must be a scalar tensor")
        if inv_temp.item() <= 0:
            raise ValueError("inverse temperature must be positive")
        for name, mat in (("visual", visual), ("text", text)):
            v = mat.values
            if not np.max(np.abs(np.sqrt(np.sum(v * v, axis=1)) - 1.0)) <= 1e-6:  # false at a NaN too
                dc.check_finite(v, f"contrastive_losses {name}")
                raise ValueError(f"{name} rows must be unit norm")
        checked.append((visual, text, columns))
    loss, (i2t, t2i) = dc.contrastive_loss(checked, inv_temp)
    return loss, {"loss_i2t": i2t, "loss_t2i": t2i}


def stage1_batch_loss(
    samples,
    group_features: Tensor,
    member_features: Tensor,
    row_ids: Sequence[tuple[int, ...]],
    state: ModelState,
    rosters,
) -> tuple[Tensor, dict[str, float]]:
    """Prompt-learning objective for one batch of group views.

    The inputs are a ``grce.FrozenPass`` run over the samples under their
    masks, unrefined: one group feature row per sample, the retained
    member rows, and each view's member identities.  Both granularities
    are aligned: group features against group descriptions and member
    features against member descriptions.
    The loss is the sum of the image-anchored and text-anchored batch means
    at both granularities.  Members a view's mask dropped contribute to
    nothing.
    """
    if group_features.ndim != 2 or len(samples) != group_features.shape[0]:
        raise ValueError("one view per sample required")
    if len(samples) < 2:
        raise ValueError("stage-1 batches need at least two samples")
    member_labels = [pid for ids in row_ids for pid in ids]
    if len(row_ids) != len(samples) or len(member_labels) != member_features.shape[0]:
        raise ValueError("one identity per member row required")
    group_labels = [s.group_id for s in samples]
    group_classes = sorted(set(group_labels))
    person_classes = sorted(set(member_labels))
    return contrastive_losses(
        [(group_features, group_labels, group_classes, class_text_features(state, group_classes, rosters)),
         (member_features, member_labels, person_classes, member_text_features(person_classes, state))],
        state.params["temp.inv"])
