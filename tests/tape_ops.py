"""Tape ops that only the tests use, built on ``diffcore._result`` as the library's ops are.

The composed references of the fused ops (``row_distance``,
``soft_target_nll``) need a constant factor, ``exp``, ``log`` and a sum,
``attention_block``'s needs attention with every row of a block as a
query, the overflow probes need an op that overflows on demand, and the
references of ``gather_rows`` over several tensors stack them first with
``concat`` and ``stack``.  Each op's
value and backward are written as the library writes them, so a composition
of these gives the bits the fused op must match.  Each op's backward
closure is named ``pull``, so a ``NonFiniteError`` names the op.
"""

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
