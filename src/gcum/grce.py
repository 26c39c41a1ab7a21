"""Group feature pipeline and cross-attention refinement.

A group view becomes a unit-norm feature in five steps: the retained
members are selected and canonically ordered, encoded, contextualized
with the group token (block 1), combined with the member-count term and
contextualized again (block 2), and the group-token row is read out.
``refine`` then lets the pooled feature re-attend to the individual
member features, which restores member detail that pooling washes out.

The views of one call are featurized as one stack, each view a row
block of one fixed width whose slots past its retained member count are
masked, so a single view is the n = 1 case.  A view's feature is the
same bits whatever else shares its call, because attention and the
count term work block by block at that width and a row-wise product
never sees a single row (``encoders.project``).

``group_features`` is the way in for eval; it keeps every member of a
view unless a mask drops some.  Training sees each view under a handful
of masks, again and again, and the member encoder and the first group
block run on frozen weights; ``VisualMemo`` does that work once per
(view, mask) for one training run, all of an epoch's new views in one
pass, and shares the rest of the pipeline with ``group_features``.
While the count matrix is frozen as well (stage 2), it keeps each
view's pooled feature too, so a step runs only the refinement.

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
    project,
)
from .mvs import Mask, apply_mvs
from .synthdata import GroupSample


def canonical_order(rows: np.ndarray, segments: np.ndarray | None = None) -> list[int]:
    """Indices that sort matrix rows lexicographically (column 0 first).

    With ``segments``, one id per row, rows are sorted within their
    segment and the segments keep ascending id order.
    """
    if rows.ndim != 2:
        raise ShapeError("canonical ordering is defined for matrices")
    keys = list(rows.T[::-1])
    if segments is not None:
        keys.append(np.asarray(segments))
    if rows.shape[1] > 1:
        # (segment, column 0) is the whole order unless two rows of a segment share column 0
        lead = keys[rows.shape[1] - 1:]
        order = np.lexsort(lead)
        ranked = [key[order] for key in lead]
        if np.logical_or.reduce([k[1:] > k[:-1] for k in ranked]).all():
            return order.tolist()
    return np.lexsort(keys).tolist()


def refine(group_features: Tensor, member_features: Tensor, state: ModelState,
           counts: Sequence[int]) -> Tensor:
    """Cross-attend each pooled group feature over its own member features.

    ``group_features`` stacks B views' features, ``member_features`` their
    ``counts[i]`` member rows each, view after view.  A view's group
    feature is the query over its members, set in ``max_members`` masked
    slots, with scores scaled by 1/sqrt(dim).  The context is added
    residually and the result re-normalized, so zero attention weights
    leave the input unchanged.
    """
    if group_features.ndim != 2 or member_features.ndim != 2:
        raise ShapeError("group and member features must be matrices")
    dim, slots = state.config.dim, state.config.max_members
    if group_features.shape[1] != dim or member_features.shape[1] != dim:
        raise ShapeError("feature width does not match the model dimension")
    b, rows = group_features.shape[0], member_features.shape[0]
    counts = np.asarray(counts, dtype=np.int64)
    if not b or counts.shape != (b,) or counts.sum() != rows or not 1 <= counts.min() <= counts.max() <= slots:
        raise ShapeError(f"{rows} member rows do not split over {b} views of 1 to {slots} members")
    p = state.params
    # slot s of view i holds its s-th member in canonical order, or the zero row past its count
    at = np.full((b, slots), rows)
    at[np.arange(slots) < counts[:, None]] = canonical_order(member_features.values,
                                                             np.repeat(np.arange(b), counts))
    table = dc.concat([member_features, dc.constant(np.zeros((1, dim)))], axis=0)
    ordered = dc.gather_rows(table, at.ravel())
    queries = dc.gather_rows(project(group_features, p["grce.wq"]), np.repeat(np.arange(b), slots))
    context = dc.segment_attention(queries, project(ordered, p["grce.wk"]),
                                   project(ordered, p["grce.wv"]), slots, counts)
    # every row of a block attends with the same query; keep the first
    return dc.l2_normalize(dc.add(group_features, dc.gather_rows(context, np.arange(b) * slots)))


def _select(samples: Sequence[GroupSample], masks: Sequence[Mask | None]
            ) -> tuple[Tensor, list[int], list[tuple[int, ...]]]:
    """The views' retained appearance rows, view after view in canonical order.

    ``masks[i]`` (None keeps all) indexes the members of ``samples[i]``.
    Returns the rows as one constant, each view's retained count, and each
    view's member identities in row order.
    """
    kept: list = []
    counts: list[int] = []
    for sample, mask in zip(samples, masks, strict=True):
        if mask is None:
            members = sample.members
        elif len(mask) != len(sample.members):
            raise ValueError(f"mask covers {len(mask)} members, sample has {len(sample.members)}")
        else:
            members = [m for m, bit in zip(sample.members, mask.bits) if bit]
        kept += members
        counts.append(len(members))
    rows = np.stack([m.appearance for m in kept])
    order = canonical_order(rows, np.repeat(np.arange(len(counts)), counts))
    ids = [kept[i].identity_id for i in order]
    ends = np.cumsum(counts)
    return dc.constant(rows[order]), counts, [tuple(ids[e - k:e]) for e, k in zip(ends, counts)]


def _pool(counts: Sequence[int], block1: Tensor, state: ModelState, *, quantity: bool) -> Tensor:
    """The (n, dim) pooled features of views with ``counts[i]`` members, from their block-1 output."""
    fused = apply_mvs(block1, state.params["quantity.em"], counts) if quantity else block1
    return encode_group_suffix(fused, state, counts)


def group_features(
    samples: Sequence[GroupSample],
    state: ModelState,
    masks: Sequence[Mask | None] | None = None,
    *,
    quantity: bool = True,
    refined: bool = False,
) -> tuple[Tensor, Tensor, list[tuple[int, ...]]]:
    """Group features of dataset views, all in one stack.

    ``masks`` (all kept by default) drop members before anything is
    encoded, so a dropped member influences neither the value nor the
    gradient of anything downstream.  Returns the (n, dim) group features,
    refined on request, and the member rows, both in sample order, and
    each view's member identities in row order.
    """
    rows, counts, row_ids = _select(samples, masks or [None] * len(samples))
    members = encode_members(rows, state)
    pooled = _pool(counts, encode_group_prefix(members, state, counts), state, quantity=quantity)
    features = refine(pooled, members, state, counts) if refined else pooled
    return features, members, row_ids


# What a pooled feature reads besides block 1; the count matrix only with the count term.
_POOL_READS = ("group.blk2.wq", "group.blk2.wk", "group.blk2.wv", "group.blk2.wo", "group.proj")


class VisualMemo:
    """``group_features`` for the views of one training run, frozen work done once.

    The member encoder and block 1 run on frozen weights, so their output
    is kept per (sample index, mask bits): the member identities, the
    member features and the view's padded block-1 block.  While the count
    matrix is frozen too (stage 2, or no count term), so is everything up
    to the readout, and each key's pooled feature is kept as well; it
    stays valid while the count matrix, block 2 and the readout projection
    are the same frozen ``Tensor`` objects that made it, and is dropped
    when one is swapped.  ``prepare`` does the frozen work of all its new
    keys in one pass, so a training epoch plans its batches and calls it
    once.  A call then concatenates its entries into one padded stack and
    runs only what can train: the count term, block 2 and the readout
    while the count matrix trains, and the refinement on request.  Every
    call checks that the encoders are frozen.  Build one per training call
    over that call's sample list.
    """

    def __init__(self, samples: Sequence[GroupSample], *, quantity: bool):
        self.samples = samples
        self.quantity = quantity
        self._memo: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], np.ndarray, np.ndarray]] = {}
        self._pooled: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        self._pooled_from: tuple[Tensor, ...] = ()

    def prepare(self, indices: Sequence[int], masks: Sequence[Mask], state: ModelState) -> bool:
        """Do the frozen work of every new (``samples[i]``, mask) key in one pass.

        Returns whether the keys' pooled features are kept, which is while
        the count matrix is frozen or unused.
        """
        trainable = [n for n, p in state.params.items()
                     if n.startswith(("member.", "group.")) and p.requires_grad]
        if trainable:
            raise ValueError(f"frozen visual work needs frozen encoders; trainable: {trainable}")
        keys = dict(zip(_keys(indices, masks), masks))
        new = [key for key in keys if key not in self._memo]
        if new:
            rows, counts, row_ids = _select([self.samples[i] for i, _ in new], [keys[k] for k in new])
            feats = encode_members(rows, state)
            members = np.split(feats.values, np.cumsum(counts)[:-1])
            blocks = encode_group_prefix(feats, state, counts).values.reshape(len(new), -1, state.config.dim)
            self._memo.update(zip(new, zip(row_ids, members, blocks)))
        if self.quantity and state.params["quantity.em"].requires_grad:
            return False
        reads = tuple(state.params[n] for n in _POOL_READS + (("quantity.em",) if self.quantity else ()))
        if reads != self._pooled_from:  # Tensors compare by identity
            self._pooled, self._pooled_from = {}, reads
        unpooled = [key for key in keys if key not in self._pooled]
        if unpooled:
            block1 = dc.constant(np.concatenate([self._memo[k][2] for k in unpooled]))
            pooled = _pool([sum(bits) for _, bits in unpooled], block1, state, quantity=self.quantity)
            self._pooled.update(zip(unpooled, pooled.values))
        return True

    def __call__(
        self, indices: Sequence[int], masks: Sequence[Mask], state: ModelState, *, refined: bool = False
    ) -> tuple[Tensor, Tensor, list[tuple[int, ...]]]:
        """The ``group_features`` result for ``samples[indices]`` under ``masks``."""
        keys = _keys(indices, masks)
        pooled = self.prepare(indices, masks, state)
        row_ids, members, blocks = zip(*(self._memo[key] for key in keys))
        members = dc.constant(np.concatenate(members))
        counts = [m.retained for m in masks]
        if pooled:
            features = dc.constant(np.stack([self._pooled[key] for key in keys]))
        else:
            features = _pool(counts, dc.constant(np.concatenate(blocks)), state, quantity=self.quantity)
        if refined:
            features = refine(features, members, state, counts)
        return features, members, list(row_ids)


def _keys(indices: Sequence[int], masks: Sequence[Mask]) -> list[tuple[int, tuple[int, ...]]]:
    return [(int(i), m.bits) for i, m in zip(indices, masks, strict=True)]
