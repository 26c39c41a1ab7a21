"""Group feature pipeline and cross-attention refinement.

``group_visual`` turns one group view into a unit-norm feature: retained
members are selected, canonically ordered, encoded, contextualized with
the group token, optionally combined with the member-count term, and
pooled.  ``refine`` then lets the pooled feature re-attend to the
individual member features, which restores member detail that pooling
washes out.

Training sees each view under a handful of masks, again and again, and
the member encoder and the first group block run on frozen weights;
``VisualMemo`` does that work once per (view, mask) for one training run.

Canonical ordering makes every stage independent of the order members
appear in a sample.  Rows are sorted lexicographically by value before
any cross-row mixing, so two views that differ only by member layout
produce bit-identical features, not merely close ones.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tensor
from .encoders import (
    ModelState,
    encode_group_prefix,
    encode_group_suffix,
    encode_members,
)
from .mvs import Mask, apply_mvs, assemble_plain, full_mask
from .synthdata import GroupSample


def canonical_order(rows: np.ndarray) -> list[int]:
    """Indices that sort matrix rows lexicographically (column 0 first)."""
    if rows.ndim != 2:
        raise ShapeError("canonical ordering is defined for matrices")
    return [int(i) for i in np.lexsort(rows.T[::-1])]


def refine(group_feature: Tensor, member_features: Tensor, state: ModelState) -> Tensor:
    """Cross-attend the pooled group feature over its member features.

    The group feature forms the query, member features the keys and
    values.  The attended context is added residually and the result is
    re-normalized, so zero attention weights leave the input unchanged.
    """
    if group_feature.ndim != 1:
        raise ShapeError("group feature must be a vector")
    if member_features.ndim != 2:
        raise ShapeError("member features must be a matrix")
    dim = state.config.dim
    if group_feature.shape != (dim,) or member_features.shape[1] != dim:
        raise ShapeError("feature width does not match the model dimension")
    p = state.params
    ordered = dc.gather_rows(member_features, canonical_order(member_features.values))
    q = dc.matmul(group_feature, p["grce.wq"])        # (dim,)
    keys = dc.matmul(ordered, p["grce.wk"])           # (k, dim)
    values = dc.matmul(ordered, p["grce.wv"])         # (k, dim)
    scores = dc.scale(dc.matmul(keys, q), 1.0 / np.sqrt(dim))
    weights = dc.softmax_rows(scores)                 # (k,)
    context = dc.matmul(weights, values)              # (dim,)
    return dc.l2_normalize(dc.add(group_feature, context))


def _members_and_block1(
    appearances: Tensor, identity_ids: Sequence[int], state: ModelState, mask: Mask | None
) -> tuple[Tensor, Tensor, Tensor, tuple[int, ...]]:
    """Member features, block-1 class token and member rows, and row identities."""
    if appearances.ndim != 2:
        raise ShapeError("appearances must be a matrix")
    n = appearances.shape[0]
    if len(identity_ids) != n:
        raise ValueError("one identity per appearance row required")
    if mask is None:
        mask = full_mask(n)
    if len(mask) != n:
        raise ValueError(f"mask covers {len(mask)} members, sample has {n}")

    retained_ids = [int(i) for i, bit in zip(identity_ids, mask.bits) if bit]
    kept = dc.gather_rows(appearances, np.flatnonzero(mask.bits))
    order = canonical_order(kept.values)
    ordered = dc.gather_rows(kept, order)
    row_ids = tuple(retained_ids[j] for j in order)

    feats = encode_members(ordered, state)
    cls, rows = encode_group_prefix(feats, state)
    return feats, cls, rows, row_ids


def _pooled(cls: Tensor, rows: Tensor, state: ModelState, quantity: bool) -> Tensor:
    """Count term (or plain recombination), block 2 and the readout."""
    if quantity:
        fused = apply_mvs(cls, rows, state.params["quantity.em"])
    else:
        fused = assemble_plain(cls, rows)
    return encode_group_suffix(fused, state)


def group_visual_from_matrix(
    appearances: Tensor,
    identity_ids: Sequence[int],
    state: ModelState,
    mask: Mask | None = None,
    *,
    quantity: bool = True,
) -> tuple[Tensor, Tensor, tuple[int, ...]]:
    """Group feature from an appearance matrix with explicit masking.

    ``mask`` bits index the rows of ``appearances``.  Dropped rows are
    removed before any encoding, so they influence neither the value nor
    the gradient of anything downstream.  Returns the pooled group
    feature, the member feature rows in canonical order, and the member
    identities in that same row order.
    """
    feats, cls, rows, row_ids = _members_and_block1(appearances, identity_ids, state, mask)
    return _pooled(cls, rows, state, quantity), feats, row_ids


def _appearance_matrix(sample: GroupSample) -> Tensor:
    return dc.constant(np.stack([m.appearance for m in sample.members]))


def group_visual(
    sample: GroupSample,
    state: ModelState,
    mask: Mask | None = None,
    *,
    quantity: bool = True,
) -> tuple[Tensor, Tensor, tuple[int, ...]]:
    """`group_visual_from_matrix` over a dataset sample."""
    return group_visual_from_matrix(
        _appearance_matrix(sample),
        [m.identity_id for m in sample.members],
        state,
        mask,
        quantity=quantity,
    )


def group_forward(
    sample: GroupSample,
    state: ModelState,
    mask: Mask | None = None,
    *,
    quantity: bool = True,
    refined: bool = True,
) -> Tensor:
    """Full pipeline for one view: pooled group feature, refined on request."""
    v, feats, _ = group_visual(sample, state, mask, quantity=quantity)
    if not refined:
        return v
    return refine(v, feats, state)


class VisualMemo:
    """``group_visual`` for the views of one training run, frozen work done once.

    Everything upstream of the first trainable parameter is computed once
    per (sample index, mask bits) and kept as one plain array: the member
    features in canonical order, then the block-1 output, next to the
    member identities.  Each call builds the rest (count term, block 2 and
    the readout) from that array, so the count matrix can train.  The
    member and group encoders must stay frozen, which is checked.  Build
    one per training call over that call's sample list and drop it when
    the call returns.
    """

    def __init__(self, samples: Sequence[GroupSample], *, quantity: bool):
        self.samples = samples
        self.quantity = quantity
        self._memo: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], np.ndarray]] = {}

    def __call__(self, index: int, mask: Mask, state: ModelState) -> tuple[Tensor, Tensor, tuple[int, ...]]:
        """The ``group_visual`` result for ``samples[index]`` under ``mask``."""
        key = (int(index), mask.bits)
        if key not in self._memo:
            self._memo[key] = self._frozen(self.samples[index], mask, state)
        row_ids, frozen = self._memo[key]
        k = len(row_ids)  # frozen[k:] is the block-1 output, [class token; member rows]
        v = _pooled(dc.constant(frozen[k]), dc.constant(frozen[k + 1 :]), state, self.quantity)
        return v, dc.constant(frozen[:k]), row_ids

    def _frozen(self, sample: GroupSample, mask: Mask, state: ModelState) -> tuple:
        trainable = [n for n, p in state.params.items()
                     if n.startswith(("member.", "group.")) and p.requires_grad]
        if trainable:
            raise ValueError(f"frozen visual work needs frozen encoders; trainable: {trainable}")
        feats, cls, rows, row_ids = _members_and_block1(
            _appearance_matrix(sample), [m.identity_id for m in sample.members], state, mask
        )
        return row_ids, np.concatenate([feats.values, cls.values[None], rows.values])
