"""Tape ops that only the tests use, built on ``diffcore._result`` as the library's ops are.

The composed references of the fused ops (``row_distance``,
``soft_target_nll``) need a constant factor, ``exp``, ``log`` and a sum,
``attention_block``'s needs attention with every row of a block as a
query, ``attention_pool``'s the mean of each block (``block_means``), the
overflow probes need an op that overflows on demand, and the references
of ``gather_rows`` over several tensors stack them first with ``concat``
and ``stack``.  ``contrastive_loss`` is the stage-1 objective as the
library's own ops composed it before it was one node.  Each op's
value and backward are written as the library writes them, so a composition
of these gives the bits the fused op must match.  Each op's backward
closure is named ``pull``, so a ``NonFiniteError`` names the op.
"""

from functools import reduce

import numpy as np

from gcum import diffcore as dc


def scale(x: dc.Tensor, c: float) -> dc.Tensor:
    """Multiply by a constant (no gradient flows to ``c``)."""
    c = float(c)

    def pull(g: np.ndarray):
        return (g * c,)

    return dc._result(x.values * c, (x,), pull)


def exp(x: dc.Tensor) -> dc.Tensor:
    with np.errstate(over="ignore"):
        ev = np.exp(x.values)  # overflow surfaces as NonFiniteError in _result

    def pull(g: np.ndarray):
        return (g * ev,)

    return dc._result(ev, (x,), pull)


def log(x: dc.Tensor) -> dc.Tensor:
    """Natural log of positive entries."""
    xv = x.values

    def pull(g: np.ndarray):
        return (g / xv,)

    return dc._result(np.log(xv), (x,), pull)


def reduce_sum(x: dc.Tensor, axis: int | None = None) -> dc.Tensor:
    """The sum of all entries, or along ``axis``."""
    xv = x.values

    def pull(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, xv.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), xv.shape).copy(),)

    return dc._result(np.asarray(np.sum(xv, axis=axis)), (x,), pull)


def concat(parts) -> dc.Tensor:
    """Stack matrices of one width on top of each other."""
    if not parts:
        raise dc.ShapeError("concat needs at least one tensor")
    if any(p.ndim != 2 or p.shape[1] != parts[0].shape[1] for p in parts):
        raise dc.ShapeError(f"concat needs matrices of one width, got {[p.shape for p in parts]}")
    bounds = np.cumsum([p.shape[0] for p in parts])[:-1]

    def pull(g: np.ndarray):
        return tuple(np.split(g, bounds))

    return dc._result(np.concatenate([p.values for p in parts]), tuple(parts), pull)


def stack(parts) -> dc.Tensor:
    """Stack rank-1 tensors of equal length into the rows of a matrix."""
    if not parts:
        raise dc.ShapeError("stack needs at least one tensor")
    if any(p.ndim != 1 for p in parts):
        raise dc.ShapeError("stack operands must be rank 1")
    n = parts[0].shape[0]
    if any(p.shape[0] != n for p in parts):
        raise dc.ShapeError("stack operands must share their length")

    def pull(g: np.ndarray):
        return tuple(g[i] for i in range(len(parts)))

    return dc._result(np.stack([p.values for p in parts], axis=0), tuple(parts), pull)


def block_means(x: dc.Tensor, length: int) -> dc.Tensor:
    """The (n, d) mean of each block of ``length`` consecutive rows of ``x``.

    The blocks are worked as one (n, 1, length) @ (n, length, d) product,
    so each mean is a product of its own block's rows alone: an output row
    has the same bits in a stack of any size.
    """
    if x.ndim != 2:
        raise dc.ShapeError(f"block_means needs a rank-2 tensor, got shape {x.shape}")
    n, _ = dc._blocks(x.shape[0], length, None, "block_means")
    scale = 1.0 / length
    out = (np.full((n, 1, length), scale) @ x.values.reshape(n, length, -1))[:, 0]

    def pull(g: np.ndarray):
        return (np.repeat(g * scale, length, axis=0),)

    return dc._result(out, (x,), pull)


def self_attention(q: dc.Tensor, k: dc.Tensor, v: dc.Tensor, length: int, lengths=None) -> dc.Tensor:
    """Attention inside blocks of ``length`` rows, every row of a block a query.

    Row i of ``q`` attends over the live rows of its own block of ``k`` and
    ``v``; a query row past its block's length outputs a zero row.
    """
    n, live = dc._blocks(q.shape[0], length, lengths, "self_attention")
    qv, kv, vv = q.values, k.values, v.values
    w, out = dc._attend(qv, kv, vv, n, live)

    def pull(g: np.ndarray):
        return dc._attend_grads(g, w, qv, kv, vv, q.requires_grad, k.requires_grad, v.requires_grad)

    return dc._result(out, (q, k, v), pull)


def contrastive_loss(kinds, inv_temp):
    """``diffcore.contrastive_loss`` as composed ops: six nodes per kind, then the ``add``s of the sums.

    A kind's logits are ``mul(matmul(visual, transpose(text)), inv_temp)``;
    its ``i2t`` is ``soft_target_nll`` of them against the one-hot targets
    and its ``t2i`` that of their ``transpose`` against the transposed
    targets, both over the B visual rows.
    """
    pairs = []
    for visual, text, columns in kinds:
        b = visual.shape[0]
        onehot = np.zeros((b, text.shape[0]))
        onehot[np.arange(b), columns] = 1.0
        sims = dc.mul(dc.matmul(visual, dc.transpose(text)), inv_temp)
        pairs.append((dc.soft_target_nll(sims, onehot, b), dc.soft_target_nll(dc.transpose(sims), onehot.T, b)))
    i2t, t2i = (reduce(dc.add, terms) for terms in zip(*pairs))
    return dc.add(i2t, t2i), (i2t.item(), t2i.item())
