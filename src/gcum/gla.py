"""Uncertain group prompt learning: prompts and contrastive alignment.

Text descriptions are assembled from learned token blocks.  Every person
identity owns a block of prompt tokens; a member description wraps one
block in a fixed template ("a photo of a <tokens> person").  A group
description allocates a fixed number of identity slots ("a group of
<slot tokens> persons"): present members fill the leading slots in
canonical (sorted identity) order, learned padding tokens fill the rest.
The fixed slot count is what lets one text embedding describe a group
whose visible membership varies.

Alignment uses a supervised contrastive loss in both directions at both
granularities (member features against member descriptions, group
features against group descriptions), with a learnable inverse softmax
temperature shared across all similarity logits.  Each direction is one
whole-batch expression: the row-wise log-softmax of the (B, C) similarity
matrix, or of its transpose, masked by the (B, C) one-hot label matrix and
averaged over the B samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import diffcore as dc
from . import grce
from .diffcore import ShapeError, Tensor
from .encoders import ModelState, encode_text
from .mvs import Mask


def _identity_block(identity_id: int, state: ModelState) -> Tensor:
    cfg = state.config
    if not (0 <= identity_id < cfg.n_person_ids):
        raise ValueError(f"identity {identity_id} outside [0, {cfg.n_person_ids})")
    m = cfg.tokens_per_identity
    return dc.gather_rows(state.params["prompt.x"], range(identity_id * m, (identity_id + 1) * m))


def build_member_prompt(identity_id: int, state: ModelState) -> Tensor:
    """"a photo of a <identity tokens> person" as a (length, dim) token matrix."""
    p = state.params
    block = _identity_block(identity_id, state)
    return dc.concat([p["prompt.member_prefix"], block, p["prompt.member_suffix"]], axis=0)


def build_group_prompt(member_ids: Sequence[int], state: ModelState) -> Tensor:
    """"a group of <slot tokens> persons" with members in canonical order.

    Members are sorted by identity before filling slots, so any ordering of
    ``member_ids`` produces the identical token matrix.  Slots beyond the
    member count hold the learned padding block.
    """
    cfg = state.config
    if not member_ids:
        raise ValueError("a group prompt needs at least one member")
    if len(set(member_ids)) != len(member_ids):
        raise ValueError("duplicate identities in a group prompt")
    if len(member_ids) > cfg.group_slots:
        raise ValueError(f"{len(member_ids)} members exceed {cfg.group_slots} prompt slots")
    p = state.params
    ordered = sorted(int(i) for i in member_ids)
    parts = [p["prompt.group_prefix"]]
    parts += [_identity_block(pid, state) for pid in ordered]
    parts += [p["prompt.pad"]] * (cfg.group_slots - len(ordered))
    parts.append(p["prompt.group_suffix"])
    return dc.concat(parts, axis=0)


def member_text_feature(identity_id: int, state: ModelState) -> Tensor:
    return encode_text(build_member_prompt(identity_id, state), state)


def group_text_feature(member_ids: Sequence[int], state: ModelState) -> Tensor:
    return encode_text(build_group_prompt(member_ids, state), state)


def class_text_features(state: ModelState, class_ids: Sequence[int], rosters) -> Tensor:
    """Stack group text features for ``class_ids`` (rows follow their order)."""
    rows = [group_text_feature(rosters[c], state) for c in class_ids]
    return dc.stack(rows)


# --------------------------------------------------------------------------
# Supervised contrastive alignment


@dataclass(eq=False)
class ContrastiveBatch:
    """Unit-norm visual rows against unit-norm text rows, one per class.

    Build and consume a batch inside a single recording; the similarity
    matrix (cosines scaled by the inverse temperature) is computed at
    construction time.
    """

    visual: Tensor                 # (B, dim)
    labels: tuple[int, ...]        # len B
    class_labels: tuple[int, ...]  # len C, distinct
    text: Tensor                   # (C, dim)
    inv_temp: Tensor               # scalar multiplier on cosine logits
    sims: Tensor = field(init=False)

    def __post_init__(self):
        if self.visual.ndim != 2 or self.text.ndim != 2:
            raise ShapeError("visual and text features must be matrices")
        b, dim = self.visual.shape
        c, dim_t = self.text.shape
        if dim != dim_t:
            raise ShapeError(f"feature widths differ: visual {dim}, text {dim_t}")
        if b < 2:
            raise ValueError("a contrastive batch needs at least two samples")
        if len(self.labels) != b:
            raise ValueError("one label per visual row required")
        if len(set(self.class_labels)) != len(self.class_labels) or len(self.class_labels) != c:
            raise ValueError("class_labels must be distinct and match the text rows")
        known = set(self.class_labels)
        if any(y not in known for y in self.labels):
            raise ValueError("every label needs a text feature")
        if self.inv_temp.shape != ():
            raise ShapeError("inv_temp must be a scalar tensor")
        if self.inv_temp.item() <= 0:
            raise ValueError("inverse temperature must be positive")
        for name, mat in (("visual", self.visual), ("text", self.text)):
            norms = np.linalg.norm(mat.values, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-6:
                raise ValueError(f"{name} rows must be unit norm")
        self.sims = dc.mul(dc.matmul(self.visual, dc.transpose(self.text)), self.inv_temp)

    def class_index(self, label: int) -> int:
        return self.class_labels.index(label)


def contrastive_losses(batch: ContrastiveBatch) -> tuple[Tensor, Tensor]:
    """Image-anchored and text-anchored losses, each a mean over the B samples.

    ``i2t`` scores every sample against all class texts; ``t2i`` scores
    every class text against all visual rows and averages over that text's
    positives, so each class counts once per sample that has it.
    """
    b = len(batch.labels)
    onehot = np.zeros((b, len(batch.class_labels)))
    onehot[np.arange(b), [batch.class_index(y) for y in batch.labels]] = 1.0

    def mean_nll(logits: Tensor, picks: np.ndarray) -> Tensor:
        logp = dc.log_softmax_rows(logits)
        return dc.scale(dc.reduce_sum(dc.mul(logp, dc.constant(picks))), -1.0 / b)

    return mean_nll(batch.sims, onehot), mean_nll(dc.transpose(batch.sims), onehot.T)


def stage1_batch_loss(
    samples,
    masks: Sequence[Mask],
    state: ModelState,
    rosters,
    *,
    mvs_enabled: bool = True,
) -> tuple[Tensor, dict[str, float]]:
    """Prompt-learning objective for one batch of group views.

    Both granularities are aligned: group features against group
    descriptions and retained member features against member descriptions.
    The loss is the sum of the image-anchored and text-anchored batch
    means at both granularities.  Members dropped by ``masks`` contribute
    to nothing.
    """
    if len(samples) != len(masks):
        raise ValueError("one mask per sample required")
    if len(samples) < 2:
        raise ValueError("stage-1 batches need at least two samples")
    inv_temp = state.params["temp.inv"]

    group_feats: list[Tensor] = []
    group_labels: list[int] = []
    member_blocks: list[Tensor] = []
    member_labels: list[int] = []
    for sample, mask in zip(samples, masks):
        v, feats, row_ids = grce.group_visual(sample, state, mask, quantity=mvs_enabled)
        group_feats.append(v)
        group_labels.append(sample.group_id)
        member_blocks.append(feats)
        member_labels.extend(row_ids)

    group_classes = sorted(set(group_labels))
    group_text = class_text_features(state, group_classes, rosters)
    batch_groups = ContrastiveBatch(
        visual=dc.stack(group_feats),
        labels=tuple(group_labels),
        class_labels=tuple(group_classes),
        text=group_text,
        inv_temp=inv_temp,
    )
    i2t_g, t2i_g = contrastive_losses(batch_groups)

    person_classes = sorted(set(member_labels))
    person_text = dc.stack([member_text_feature(pid, state) for pid in person_classes])
    batch_members = ContrastiveBatch(
        visual=dc.concat(member_blocks, axis=0),
        labels=tuple(member_labels),
        class_labels=tuple(person_classes),
        text=person_text,
        inv_temp=inv_temp,
    )
    i2t_m, t2i_m = contrastive_losses(batch_members)

    i2t = dc.add(i2t_g, i2t_m)
    t2i = dc.add(t2i_g, t2i_m)
    total = dc.add(i2t, t2i)
    parts = {
        "loss_i2t": i2t.item(),
        "loss_t2i": t2i.item(),
    }
    return total, parts
