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
    project,
)
from .mvs import Mask, apply_mvs, full_mask
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
    return np.lexsort(keys).tolist()


def refine(group_features: Tensor, member_features: Tensor, state: ModelState,
           counts: Sequence[int] | None = None) -> Tensor:
    """Cross-attend each pooled group feature over its own member features.

    ``group_features`` stacks B views' features, ``member_features`` their
    ``counts[i]`` member rows each (an equal split by default), view after
    view.  A view's group feature is the query over its members, set in
    ``max_members`` masked slots, with scores scaled by 1/sqrt(dim).  The
    context is added residually and the result re-normalized, so zero
    attention weights leave the input unchanged.
    """
    if group_features.ndim != 2 or member_features.ndim != 2:
        raise ShapeError("group and member features must be matrices")
    dim, slots = state.config.dim, state.config.max_members
    if group_features.shape[1] != dim or member_features.shape[1] != dim:
        raise ShapeError("feature width does not match the model dimension")
    b, rows = group_features.shape[0], member_features.shape[0]
    counts = np.asarray([rows // max(b, 1)] * b if counts is None else counts, dtype=np.int64)
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


def _select(appearances: np.ndarray, sizes: Sequence[int], identity_ids: Sequence[int],
            masks: Sequence[Mask | None]) -> tuple[list[np.ndarray], list[tuple[int, ...]]]:
    """Each view's retained rows of ``appearances`` in canonical order, and their identities.

    View i owns the next ``sizes[i]`` rows; ``masks[i]`` (None keeps all) indexes them.
    """
    if len(identity_ids) != appearances.shape[0] or sum(sizes) != appearances.shape[0]:
        raise ValueError("one identity per appearance row required")
    bits: list[int] = []
    for n, mask in zip(sizes, masks, strict=True):
        mask = full_mask(n) if mask is None else mask
        if len(mask) != n:
            raise ValueError(f"mask covers {len(mask)} members, sample has {n}")
        bits += mask.bits
    kept = np.flatnonzero(bits)
    view = np.repeat(np.arange(len(sizes)), sizes)[kept]
    ordered = kept[canonical_order(appearances[kept], view)]
    rows = np.split(ordered, np.cumsum(np.bincount(view, minlength=len(sizes)))[:-1])
    ids = np.asarray(identity_ids)
    return rows, [tuple(int(i) for i in ids[r]) for r in rows]


def _table(samples: Sequence[GroupSample], masks) -> tuple[Tensor, list[np.ndarray], list]:
    """The samples' appearance rows stacked, and `_select` over them."""
    members = [m for s in samples for m in s.members]
    table = dc.constant(np.stack([m.appearance for m in members]))
    sizes = [len(s.members) for s in samples]
    return (table, *_select(table.values, sizes, [m.identity_id for m in members], masks))


def _encode(table: Tensor, rows: Sequence[np.ndarray], state: ModelState) -> tuple[Tensor, Tensor]:
    """Member features of the listed views, stacked view after view, and their block-1 output."""
    feats = encode_members(dc.gather_rows(table, np.concatenate(rows)), state)
    return feats, encode_group_prefix(feats, state, [len(r) for r in rows])


def _featurize(counts: Sequence[int], members: Tensor, block1: Tensor, state: ModelState, *,
               quantity: bool, refined: bool) -> Tensor:
    """The (n, dim) features of views with ``counts[i]`` members, from their block-1 output."""
    fused = apply_mvs(block1, state.params["quantity.em"], counts) if quantity else block1
    pooled = encode_group_suffix(fused, state, counts)
    return refine(pooled, members, state, counts) if refined else pooled


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
    encoded.  Returns the (n, dim) group features, refined on request, and
    the member rows, both in sample order, and each view's member
    identities in row order.
    """
    table, rows, row_ids = _table(samples, masks or [None] * len(samples))
    members, block1 = _encode(table, rows, state)
    features = _featurize([len(r) for r in rows], members, block1, state,
                          quantity=quantity, refined=refined)
    return features, members, row_ids


def group_visual_from_matrix(
    appearances: Tensor,
    identity_ids: Sequence[int],
    state: ModelState,
    mask: Mask | None = None,
    *,
    quantity: bool = True,
) -> tuple[Tensor, Tensor, tuple[int, ...]]:
    """One view's pooled feature from an appearance matrix, the n = 1 case.

    ``mask`` bits index the rows of ``appearances``.  Dropped rows are
    removed before any encoding, so they influence neither the value nor
    the gradient of anything downstream.  Returns the (1, dim) feature,
    the member rows in canonical order, and their identities.
    """
    rows, (row_ids,) = _select(appearances.values, [appearances.shape[0]], identity_ids, [mask])
    members, block1 = _encode(appearances, rows, state)
    features = _featurize([len(rows[0])], members, block1, state, quantity=quantity, refined=False)
    return features, members, row_ids


def group_forward(
    sample: GroupSample,
    state: ModelState,
    mask: Mask | None = None,
    *,
    quantity: bool = True,
    refined: bool = True,
) -> Tensor:
    """Full pipeline for one view: its (dim,) group feature, refined on request."""
    features, _, _ = group_features([sample], state, [mask], quantity=quantity, refined=refined)
    return dc.reduce_sum(features, axis=0)  # the one row, as a vector


class VisualMemo:
    """``group_features`` for the views of one training run, frozen work done once.

    The member encoder and block 1 run on frozen weights, so their output
    is kept per (sample index, mask bits) as one array, [member features;
    live block-1 rows], next to the member identities.  A call encodes its
    misses together and runs the rest (count term, block 2, readout,
    refinement) on one padded stack, so the count matrix and the
    refinement head can train.  The encoders must stay frozen, which is
    checked.  Build one per training call over that call's sample list.
    """

    def __init__(self, samples: Sequence[GroupSample], *, quantity: bool):
        self.samples = samples
        self.quantity = quantity
        self._memo: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], np.ndarray]] = {}

    def __call__(
        self, indices: Sequence[int], masks: Sequence[Mask], state: ModelState, *, refined: bool = False
    ) -> tuple[Tensor, Tensor, list[tuple[int, ...]]]:
        """The ``group_features`` result for ``samples[indices]`` under ``masks``."""
        slots, dim = state.config.max_members, state.config.dim
        keys = [(int(i), m.bits) for i, m in zip(indices, masks, strict=True)]
        new = [key for key in dict.fromkeys(keys) if key not in self._memo]
        if new:
            trainable = [n for n, p in state.params.items()
                         if n.startswith(("member.", "group.")) and p.requires_grad]
            if trainable:
                raise ValueError(f"frozen visual work needs frozen encoders; trainable: {trainable}")
            table, rows, row_ids = _table([self.samples[i] for i, _ in new],
                                          [Mask(bits) for _, bits in new])
            feats, block1 = _encode(table, rows, state)
            members = np.split(feats.values, np.cumsum([len(r) for r in rows])[:-1])
            self._memo.update((key, (ids, np.concatenate([m, b[:len(m) + 1]]))) for key, ids, m, b in
                              zip(new, row_ids, members, block1.values.reshape(len(new), slots + 1, dim)))
        counts = [m.retained for m in masks]
        entries = [self._memo[key][1] for key in keys]
        block1 = np.zeros((len(keys), slots + 1, dim))
        for block, entry, k in zip(block1, entries, counts):
            block[:k + 1] = entry[k:]
        members = dc.constant(np.concatenate([e[:k] for e, k in zip(entries, counts)]))
        features = _featurize(counts, members, dc.constant(block1.reshape(-1, dim)), state,
                              quantity=self.quantity, refined=refined)
        return features, members, [self._memo[key][0] for key in keys]
