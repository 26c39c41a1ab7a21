"""Uncertain group prompt learning: prompts and contrastive alignment.

Text descriptions are assembled from learned token blocks.  Every person
identity owns a block of prompt tokens; a member description wraps one
block in a fixed template ("a photo of a <tokens> person").  A group
description allocates a fixed number of identity slots ("a group of
<slot tokens> persons"): present members fill the leading slots in
canonical (sorted identity) order, learned padding tokens fill the rest.
The fixed slot count is what lets one text embedding describe a group
whose visible membership varies.  All prompts of one kind are gathered in
one op from the template parameters and identity blocks they name, and
encoded in one text-encoder pass.

Alignment uses a supervised contrastive loss in both directions at both
granularities (member features against member descriptions, group
features against group descriptions), with a learnable inverse softmax
temperature shared across all similarity logits.  Each direction is one
whole-batch cross entropy (``soft_target_nll``) of the (B, C) similarity
matrix, or of its transpose, against the (B, C) one-hot label matrix,
averaged over the B samples.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tensor
from .encoders import ModelState, encode_text


def _assemble(prompts: Sequence[Sequence[str | int]], state: ModelState) -> Tensor:
    """The prompts' token matrices one after another, gathered in one op.

    A prompt lists its parts in order: the name of a template parameter,
    or an identity, which stands for that identity's block of ``prompt.x``.
    Only the identity blocks and the template parameters that some prompt
    names are read, so no other parameter gets a gradient or takes a
    momentum and weight-decay step.
    """
    cfg = state.config
    p = state.params
    m = cfg.tokens_per_identity
    names = list(dict.fromkeys(part for prompt in prompts for part in prompt if isinstance(part, str)))
    used = sorted({part for prompt in prompts for part in prompt if not isinstance(part, str)})
    for pid in used:
        if not (0 <= pid < cfg.n_person_ids):
            raise ValueError(f"identity {pid} outside [0, {cfg.n_person_ids})")
    blocks = dc.gather_rows(p["prompt.x"], [pid * m + j for pid in used for j in range(m)])
    rows: dict = {}
    at = 0
    for key, size in [(name, p[name].shape[0]) for name in names] + [(pid, m) for pid in used]:
        rows[key] = np.arange(at, at + size)
        at += size
    order = np.concatenate([rows[part] for prompt in prompts for part in prompt])
    return dc.gather_rows([p[name] for name in names] + [blocks], order)


def build_member_prompts(identity_ids: Sequence[int], state: ModelState) -> Tensor:
    """"a photo of a <identity tokens> person" per identity, stacked.

    Returns the prompts' (member_prompt_len, dim) token matrices one after
    another, gathered in one op.
    """
    return _assemble([("prompt.member_prefix", int(i), "prompt.member_suffix") for i in identity_ids], state)


def build_group_prompts(rosters: Sequence[Sequence[int]], state: ModelState) -> Tensor:
    """"a group of <slot tokens> persons" per roster, stacked.

    Members are sorted by identity before filling slots, so any ordering of
    a roster produces the identical token matrix.  Slots beyond the member
    count hold the learned padding block.  Returns the prompts'
    (group_prompt_len, dim) token matrices one after another, gathered in
    one op.
    """
    slots = state.config.group_slots
    for member_ids in rosters:
        if not member_ids:
            raise ValueError("a group prompt needs at least one member")
        if len(set(member_ids)) != len(member_ids):
            raise ValueError("duplicate identities in a group prompt")
        if len(member_ids) > slots:
            raise ValueError(f"{len(member_ids)} members exceed {slots} prompt slots")
    return _assemble([("prompt.group_prefix", *sorted(int(i) for i in member_ids),
                       *["prompt.pad"] * (slots - len(member_ids)), "prompt.group_suffix")
                      for member_ids in rosters], state)


def member_text_features(identity_ids: Sequence[int], state: ModelState) -> Tensor:
    """Member text features, one row per identity, encoded in one pass."""
    tokens = build_member_prompts(identity_ids, state)
    return encode_text(tokens, state, state.config.member_prompt_len)


def class_text_features(state: ModelState, class_ids: Sequence[int], rosters) -> Tensor:
    """Group text features for ``class_ids`` (rows follow their order), encoded in one pass."""
    tokens = build_group_prompts([rosters[c] for c in class_ids], state)
    return encode_text(tokens, state, state.config.group_prompt_len)


# --------------------------------------------------------------------------
# Supervised contrastive alignment


def contrastive_losses(visual: Tensor, labels: Sequence[int], class_labels: Sequence[int],
                       text: Tensor, inv_temp: Tensor) -> tuple[Tensor, Tensor]:
    """Image-anchored and text-anchored losses, each a mean over the B samples.

    Unit-norm ``visual`` rows (B, dim) with their ``labels`` meet unit-norm
    ``text`` rows (C, dim), one per distinct entry of ``class_labels``; the
    logits are the cosines times the scalar ``inv_temp``.  ``i2t`` scores
    every sample against all class texts; ``t2i`` scores every class text
    against all visual rows and averages over that text's positives, so
    each class counts once per sample that has it.
    """
    if visual.ndim != 2 or text.ndim != 2:
        raise ShapeError("visual and text features must be matrices")
    b, dim = visual.shape
    c, dim_t = text.shape
    if dim != dim_t:
        raise ShapeError(f"feature widths differ: visual {dim}, text {dim_t}")
    if b < 2:
        raise ValueError("a contrastive batch needs at least two samples")
    if len(labels) != b:
        raise ValueError("one label per visual row required")
    class_labels = list(class_labels)
    if len(set(class_labels)) != len(class_labels) or len(class_labels) != c:
        raise ValueError("class_labels must be distinct and match the text rows")
    known = set(class_labels)
    if any(y not in known for y in labels):
        raise ValueError("every label needs a text feature")
    if inv_temp.shape != ():
        raise ShapeError("inv_temp must be a scalar tensor")
    if inv_temp.item() <= 0:
        raise ValueError("inverse temperature must be positive")
    for name, mat in (("visual", visual), ("text", text)):
        dc.check_finite(mat.values, f"contrastive_losses {name}")
        norms = np.linalg.norm(mat.values, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-6:
            raise ValueError(f"{name} rows must be unit norm")
    sims = dc.mul(dc.matmul(visual, dc.transpose(text)), inv_temp)

    onehot = np.zeros((b, c))
    onehot[np.arange(b), [class_labels.index(y) for y in labels]] = 1.0
    return dc.soft_target_nll(sims, onehot, b), dc.soft_target_nll(dc.transpose(sims), onehot.T, b)


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
    inv_temp = state.params["temp.inv"]
    group_labels = [s.group_id for s in samples]

    group_classes = sorted(set(group_labels))
    group_text = class_text_features(state, group_classes, rosters)
    i2t_g, t2i_g = contrastive_losses(group_features, group_labels, group_classes, group_text, inv_temp)

    person_classes = sorted(set(member_labels))
    person_text = member_text_features(person_classes, state)
    i2t_m, t2i_m = contrastive_losses(member_features, member_labels, person_classes, person_text, inv_temp)

    i2t = dc.add(i2t_g, i2t_m)
    t2i = dc.add(t2i_g, t2i_m)
    total = dc.add(i2t, t2i)
    parts = {
        "loss_i2t": i2t.item(),
        "loss_t2i": t2i.item(),
    }
    return total, parts
