"""Group feature pipeline and cross-attention refinement.

A group view becomes a unit-norm feature in five steps: the retained
members are selected and canonically ordered, encoded, contextualized
with the group token (block 1), combined with the member-count term and
contextualized again (block 2), and the group-token row is read out.
``refine`` then lets the pooled feature re-attend to the individual
member features, which restores member detail that pooling washes out.

The views of one call are featurized as stacks of row blocks, each view
a block whose slots past its retained member count are masked, so a
single view is the n = 1 case.  A block's width follows its view's own
count: with M = ``max_members``, a view keeping at most ceil(M/2)
members takes ceil(M/2) + 1 rows and any other view M + 1.  A view's
feature is the same bits whatever else shares its call, because
attention and the count term work block by block, the count term's
product always spans all M rows of the count matrix, and a row-wise
product never sees a single row (``diffcore.matmul`` pads one to two).
A narrow block's live rows also have the bits they would have at M + 1
rows, which the tests check at the shipped dim 48.

``FrozenPass`` is the one way in, for training, the gradient check and
eval alike.  The member encoder and the first group block run on frozen
weights, so a pass runs them once over a fixed list of views, each width
class of a chunk as one stack, and a call takes any sequence of those
views, repeats allowed, and computes only what can train.  Training
builds one pass per run over the run's distinct (view, mask) pairs, and
each step takes its views' positions in it; because a view's features
have the same bits in any stack, a step gets the bits a pass over just
its own views would give.  Eval builds one per chunk of test views, with
every member kept, and takes them all in order.  While the count matrix
is frozen as well (stage 2 and eval), the pass keeps each view's pooled
feature instead, so a call runs only the refinement.

Canonical ordering makes every stage independent of the order members
appear in a sample.  Rows are sorted lexicographically by value before
any cross-row mixing, so two views that differ only by member layout
produce bit-identical features, not merely close ones.
"""

from __future__ import annotations

from itertools import chain
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
from .mvs import Mask, apply_mvs
from .synthdata import GroupSample


# Views featurized per encoder call, in eval and in a training run's frozen pass.
# A view's rows have the same bits in a stack of any size, so chunking
# bounds memory and changes no byte.
VIEWS_PER_CHUNK = 256


def canonical_order(rows: np.ndarray, segments: np.ndarray) -> list[int]:
    """Indices that sort matrix rows lexicographically (column 0 first).

    ``segments`` holds one id per row; rows are sorted within their
    segment and the segments keep ascending id order.
    """
    if rows.ndim != 2:
        raise ShapeError("canonical ordering is defined for matrices")
    keys = list(rows.T[::-1]) + [np.asarray(segments)]
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
    feature is the one query over its members, set in ``max_members``
    masked slots, with scores scaled by 1/sqrt(dim).  The context is added
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
    ordered = dc.gather_rows([member_features, dc.constant(np.zeros((1, dim)))], at.ravel())
    context = dc.segment_attention(dc.matmul(group_features, p["grce.wq"]), dc.matmul(ordered, p["grce.wk"]),
                                   dc.matmul(ordered, p["grce.wv"]), slots, counts)
    return dc.l2_normalize(dc.add(group_features, context))


def _select(samples: Sequence[GroupSample], masks: Sequence[Mask | None]
            ) -> tuple[Tensor, list[int], list[tuple[int, ...]]]:
    """The views' retained appearance rows, view after view in canonical order.

    ``masks[i]`` (None keeps all) indexes the members of ``samples[i]``.
    Returns the rows as one constant, each view's retained count, and each
    view's member identities in row order.
    """
    sizes = [len(s.identity_ids) for s in samples]
    total = sum(sizes)
    ids = np.fromiter(chain.from_iterable(s.identity_ids for s in samples), np.int64, total)
    view = np.repeat(np.arange(len(samples)), sizes)
    rows = np.concatenate([s.appearances for s in samples])
    if any(m is not None for m in masks):
        bad = [(len(m.bits), n) for n, m in zip(sizes, masks) if m is not None and len(m.bits) != n]
        if bad:
            raise ValueError("mask covers {} members, sample has {}".format(*bad[0]))
        keep = np.fromiter(chain.from_iterable((1,) * n if m is None else m.bits
                                               for n, m in zip(sizes, masks)), bool, total)
        ids, view, rows = ids[keep], view[keep], rows[keep]
    counts = np.bincount(view, minlength=len(samples)).tolist()
    order = canonical_order(rows, view)
    ids = ids[order].tolist()
    ends = np.cumsum(counts).tolist()
    return dc.constant(rows[order]), counts, [tuple(ids[e - k:e]) for e, k in zip(ends, counts)]


def _pool(counts: Sequence[int], block1: Tensor, slots: int, state: ModelState, *, quantity: bool) -> Tensor:
    """The (n, dim) pooled features of views with ``counts[i]`` members, from block-1 blocks of ``slots``."""
    fused = apply_mvs(block1, state.params["quantity.em"], counts) if quantity else block1
    return encode_group_suffix(fused, state, counts, slots)


def _width_classes(counts: np.ndarray, max_members: int) -> list[tuple[int, np.ndarray]]:
    """The member slots of each width class and which views fall in it, skipping empty classes.

    A view keeping at most half of ``max_members`` (rounded up) takes that
    many slots, and any other view takes ``max_members``: its width
    follows its own count, never what shares its stack.
    """
    half = (max_members + 1) // 2
    classes = [(half, counts <= half), (max_members, counts > half)]
    return [(slots, views) for slots, views in classes if views.any()]


class FrozenPass:
    """The group features of a fixed list of views, frozen work done once.

    ``samples[i]`` under ``masks[i]`` (None keeps every member) is the
    pass's i-th view: in training the run's distinct (view, mask) pairs in
    first-use order, and in eval a chunk of test views.  Masks drop
    members before anything is encoded, so a dropped member influences
    neither the value nor the gradient of anything downstream.  The member
    encoder and block 1 run on frozen weights, so the pass runs them over
    every view up front, ``VIEWS_PER_CHUNK`` views at a time, block 1 once
    per width class (see the module docstring), and keeps the member
    identities, the member rows and each view's block-1 block, zero-padded
    to ``max_members + 1`` rows, the one width a step's stack takes.  While
    the count matrix is frozen or unused (as in stage 2 and eval),
    everything up to the readout is frozen too: the pass runs the count
    term and block 2 at each class's width as well and keeps each view's
    pooled feature instead of its block.  A call gathers the views it
    names, in its order, and computes only what can train: the count term,
    block 2 and the readout while the count matrix trains, and the
    refinement on request.  The refinement keeps ``max_members`` slots.  A
    pass needs at least one view.  The encoders must be frozen; a call on
    a state that holds another array for a tensor the pass read, or has
    made one trainable, raises ``ValueError`` naming it.
    """

    def __init__(self, samples: Sequence[GroupSample], masks: Sequence[Mask | None], state: ModelState, *,
                 quantity: bool):
        if len(masks) != len(samples):
            raise ValueError(f"the pass has {len(samples)} views but {len(masks)} masks")
        if not samples:
            raise ValueError("a frozen visual pass needs at least one view")
        self._pooled = not (quantity and state.params["quantity.em"].requires_grad)
        self._reads = {n: p.values for n, p in state.params.items() if n.startswith(("member.", "group."))
                       or (n == "quantity.em" and quantity and self._pooled)}
        self._check(state)
        full, dim = state.config.max_members, state.config.dim
        width = 1 if self._pooled else full + 1
        members, blocks, counts, self._row_ids = [], [], [], []
        for at in range(0, len(samples), VIEWS_PER_CHUNK):
            chunk = slice(at, at + VIEWS_PER_CHUNK)
            appearances, chunk_counts, row_ids = _select(samples[chunk], masks[chunk])
            feats = encode_members(appearances, state).values
            k = np.array(chunk_counts)
            out = np.zeros((k.size, width, dim))
            for slots, views in _width_classes(k, full):
                block1 = encode_group_prefix(dc.constant(feats[np.repeat(views, k)]), state, k[views], slots)
                if self._pooled:
                    out[views, 0] = _pool(k[views], block1, slots, state, quantity=quantity).values
                else:  # zero-padded to the one width a step's stack takes
                    out[views, :slots + 1] = block1.values.reshape(-1, slots + 1, dim)
            members.append(feats)
            blocks.append(out)
            counts += chunk_counts
            self._row_ids += row_ids
        self._members = np.concatenate(members)
        self._blocks = np.concatenate(blocks)  # (views, width, dim)
        self._counts = np.array(counts)
        self._starts = np.cumsum(self._counts) - self._counts

    def _check(self, state: ModelState) -> None:
        moved = [n for n, values in self._reads.items()
                 if state.params[n].values is not values or state.params[n].requires_grad]
        if moved:
            raise ValueError(f"the frozen visual pass needs its inputs frozen and unchanged; "
                             f"trainable or swapped: {moved}")

    def __call__(self, views: Sequence[int], state: ModelState, *, refined: bool
                 ) -> tuple[Tensor, Tensor, list[tuple[int, ...]]]:
        """The pass's views at positions ``views``, in that order, in one stack.

        A position may repeat.  Returns their (n, dim) group features,
        refined on request, and their member rows, both in view order, and
        each view's member identities in row order.
        """
        at = np.asarray(views, dtype=np.int64)
        n = len(self._counts)
        if at.ndim != 1 or not at.size or at.min() < 0 or at.max() >= n:
            raise IndexError(f"a call takes one or more of the pass's {n} views, by position from 0")
        self._check(state)
        k = self._counts[at]
        # each view's member rows, view after view: its start, then one row on per member
        rows = np.repeat(self._starts[at] - (np.cumsum(k) - k), k) + np.arange(k.sum())
        counts = k.tolist()
        # gathered rows are copies of finite pass arrays, which the encoders checked
        members = Tensor(self._members[rows], _copy=False, _check=False)
        features = Tensor(self._blocks[at].reshape(-1, self._blocks.shape[2]), _copy=False, _check=False)
        if not self._pooled:  # the count matrix trains
            features = _pool(counts, features, state.config.max_members, state, quantity=True)
        if refined:
            features = refine(features, members, state, counts)
        return features, members, [self._row_ids[i] for i in at.tolist()]
