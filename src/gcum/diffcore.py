"""Dense float64 tensors with taped reverse-mode differentiation.

Tensors are immutable value holders (rank 0, 1, or 2).  While a ``Graph``
is recording, every operation appends a node holding the output, its
parents, and a pull-back closure; ``Graph.backward`` then walks the tape
once in reverse and returns the gradient of every leaf it reached, keyed by
the leaf tensor.  Nothing writes a tensor after it is built.

Design constraints the rest of the package relies on:

* all arithmetic is float64, and a NaN/inf surfaces as ``NonFiniteError``
  naming the operation that produced it: outside a recording graph when
  the op makes it; inside one, once, when it reaches the loss or a
  gradient at ``Graph.backward``, a value Python reads (``item``,
  ``check_finite``) or an exception raised while recording, so a value
  that reaches none of them does not raise;
* identical inputs give bit-identical outputs at any BLAS thread count:
  reduction orders are fixed, and no product's inner dimension grows with
  the data, except a weight gradient's, whose inner dimension is a batch's
  rows (at most 48 at the default recipe: 8 stage-2 views of 6 member
  slots).  A product with a long inner dimension can round differently
  at two BLAS threads than at one;
* a forward product's row has the same bits in a stack of any size
  (``_rows``); one whose right operand is transposed, as every backward
  ``g @ w.T`` is, rounds a row by its stack's height (1 to 25 rows at
  d = 48 on numpy 2.4 with OpenBLAS), which is fixed within a build;
* a graph records once and backpropagates once; reuse raises;
* rows are selected and assembled by ``gather_rows``, from one tensor or
  from the rows of several in turn, and rows it leaves out get exactly
  zero gradient; ``attention_block`` and ``attention_pool`` given an
  ``order`` read their rows the same way, ``attention_block`` projecting
  each row of the concatenation once;
* attention of one query row over each of many short sequences is one
  op, ``segment_attention``, which keeps the tape rank 2 by stacking the
  sequences as row blocks;
* compositions a training step runs many times are one node each, with a
  closed-form backward that gives the composed ops' bits: a residual
  self-attention block (``attention_block``, whole or read out at each
  sequence's first row), a sequence encoder that adds positions, runs
  that block, takes each sequence's mean, projects it and scales it to
  unit norm (``attention_pool``, the text encoder), the cross entropy
  against soft targets (``soft_target_nll``, by log-sum-exp, so it stays
  finite where the log of a softmax would underflow), the stage-1
  image-text objective of one or more kinds of rows, each kind's logits
  one product whose transpose the text-anchored term reads
  (``contrastive_loss``), the floored row distance (``row_distance``) and
  the count term's block means (``add_block_means``).

``grad_check`` compares recorded gradients against central finite
differences entry by entry and is the reference oracle used throughout the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Graph",
    "ShapeError",
    "NonFiniteError",
    "GraphError",
    "GradCheckFailure",
    "GradCheckReport",
    "constant",
    "add",
    "sub",
    "mul",
    "matmul",
    "transpose",
    "gather_rows",
    "tanh",
    "clamp_min",
    "segment_attention",
    "attention_block",
    "attention_pool",
    "soft_target_nll",
    "contrastive_loss",
    "row_distance",
    "add_block_means",
    "l2_normalize",
    "reduce_mean",
    "check_finite",
    "grad_check",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class NonFiniteError(ArithmeticError):
    """A tensor would contain NaN or an infinity."""


class GraphError(RuntimeError):
    """Gradient tape misuse: nesting, reuse, or a loss without a path."""


class Tensor:
    """Immutable float64 array, flagged when gradients should reach it.

    Tensors compare and hash by identity, so a gradient mapping can be
    keyed by them (see ``Graph.backward``).
    """

    __slots__ = ("values", "requires_grad")

    def __init__(self, values, requires_grad: bool = False, *, _copy: bool = True, _check: bool = True):
        # _check=False is for an op's output on a recording graph, whose
        # finiteness is checked later, once (see ``Graph.backward``)
        if _copy:
            arr = np.array(values, dtype=np.float64, copy=True)
        else:
            arr = np.asarray(values, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are at most rank 2, got shape {arr.shape}")
        if _check and not _finite(arr):
            raise NonFiniteError("tensor contains NaN or infinite values")
        arr.setflags(write=False)
        self.values = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        check_finite(self.values, "item")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _finite(arr: np.ndarray) -> bool:
    return bool(np.isfinite(arr).all())


def _op_name(pull) -> str:
    # each op defines its own backward closure, so its name is the op's
    return pull.__qualname__.split(".")[0]


def check_finite(values: np.ndarray, where: str) -> None:
    """Raise ``NonFiniteError`` if ``values``, about to be read by Python, hold a NaN or an inf.

    Inside a recording graph the error names the first recorded op whose
    output is non-finite, which made the value or what it came from;
    otherwise it names ``where``.
    """
    if _finite(values):
        return
    if _ACTIVE is not None:
        _ACTIVE._raise_first_non_finite()
    raise NonFiniteError(f"{where}: tensor contains NaN or infinite values")


def constant(values) -> Tensor:
    """Build a non-differentiable tensor from array-like data."""
    return Tensor(values, requires_grad=False)


_ACTIVE: "Graph | None" = None

_PullFn = Callable[[np.ndarray], tuple["np.ndarray | None", ...]]


class Graph:
    """One recording of a computation, consumed by a single backward pass.

    Graphs are single-owner: only one can record at a time and each records
    at most once.  Recorded outputs are not checked for NaN or inf when an
    op makes them; ``backward``, ``check_finite`` and an exception raised
    while recording name the first non-finite one instead.  Use as a
    context manager::

        with Graph() as g:
            loss = loss_fn(params)
        grads = g.backward(loss)  # {leaf tensor: gradient}
    """

    def __init__(self) -> None:
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], _PullFn]] = []
        self._produced: set[Tensor] = set()
        self._consumed = False
        self._recorded = False

    def __enter__(self) -> "Graph":
        global _ACTIVE
        if _ACTIVE is not None:
            raise GraphError("another graph is already recording; graphs do not nest")
        if self._recorded:
            raise GraphError("graphs are single-use; create a fresh one to re-record")
        self._recorded = True
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = None
        if exc_type is not None and issubclass(exc_type, Exception) and not issubclass(exc_type, NonFiniteError):
            # an eager check would have raised at an unchecked non-finite value first
            self._raise_first_non_finite()
        return False

    def _record(self, out: Tensor, parents: tuple[Tensor, ...], pull: _PullFn) -> None:
        self._nodes.append((out, parents, pull))
        self._produced.add(out)

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Return d(loss)/d(leaf) for every leaf with a gradient path, keyed by the leaf.

        A leaf is a tensor with ``requires_grad`` that the graph read but
        did not make; one the loss does not reach is absent.  The tape is
        traversed exactly once in reverse recording order, which is a
        reverse topological order by construction, so once it is done only
        the leaves' gradients remain.  A non-finite loss raises at the first
        recorded op whose output is non-finite, and a non-finite gradient at
        the op whose backward made it.
        """
        if _ACTIVE is self:
            raise GraphError("backward inside the recording context is not allowed")
        if self._consumed:
            raise GraphError("backward was already run on this graph")
        if loss.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not loss.requires_grad or loss not in self._produced:
            raise GraphError("loss has no gradient path recorded on this graph")
        self._consumed = True
        if not _finite(loss.values):
            self._raise_first_non_finite()
        acc = self._pull_all(loss)
        if not all(_finite(g) for g in acc.values()):
            self._pull_all(loss, checked=True)  # raises at the op that made it
        return acc

    def _pull_all(self, loss: Tensor, checked: bool = False) -> dict[Tensor, np.ndarray]:
        acc: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
        for out, parents, pull in reversed(self._nodes):
            g = acc.pop(out, None)
            if g is None:
                continue
            for parent, pg in zip(parents, pull(g)):
                if pg is None or not parent.requires_grad:
                    continue
                prev = acc.get(parent)
                acc[parent] = pg if prev is None else prev + pg
                if checked and not np.isfinite(acc[parent]).all():
                    raise NonFiniteError(f"{_op_name(pull)}: gradient contains NaN or infinite values")
        return acc

    def _raise_first_non_finite(self) -> None:
        """Raise at the first recorded output, in recording order, that is not finite."""
        for out, _, pull in self._nodes:
            if not _finite(out.values):
                raise NonFiniteError(f"{_op_name(pull)}: tensor contains NaN or infinite values")


def _result(values: np.ndarray, parents: tuple[Tensor, ...], pull: _PullFn) -> Tensor:
    graph = _ACTIVE
    if graph is not None and any(p.requires_grad for p in parents):
        out = Tensor(values, True, _copy=False, _check=False)
        graph._record(out, parents, pull)
        return out
    try:
        return Tensor(values, _copy=False)
    except NonFiniteError as e:
        raise NonFiniteError(f"{_op_name(pull)}: {e}") from None


def _ew_check(a: Tensor, b: Tensor, op: str) -> None:
    # Allowed elementwise pairings: identical shapes, a rank-0 scalar on
    # either side, or matrix (m,n) then row vector (n,).
    sa, sb = a.shape, b.shape
    if sa == sb or sa == () or sb == ():
        return
    if len(sa) == 2 and sb == (sa[1],):
        return
    raise ShapeError(f"{op}: incompatible shapes {sa} and {sb}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(np.sum(g))
    # (m,n) gradient reduced onto a row vector (n,)
    return np.sum(g, axis=0)


def add(a: Tensor, b: Tensor) -> Tensor:
    _ew_check(a, b, "add")
    sa, sb = a.shape, b.shape

    def pull(g: np.ndarray):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _result(a.values + b.values, (a, b), pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _ew_check(a, b, "sub")
    sa, sb = a.shape, b.shape

    def pull(g: np.ndarray):
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)

    return _result(a.values - b.values, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product; also covers scalar × tensor."""
    _ew_check(a, b, "mul")
    av, bv = a.values, b.values

    def pull(g: np.ndarray):
        return (_unbroadcast(g * bv, av.shape) if a.requires_grad else None,
                _unbroadcast(g * av, bv.shape) if b.requires_grad else None)

    return _result(av * bv, (a, b), pull)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (m,k)@(k,n); a row's bits do not depend on m, as ``_rows`` pads one row to two."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul needs (m,k) @ (k,n), got {av.shape} @ {bv.shape}")

    def pull(g: np.ndarray):
        # backward drops a frozen operand's gradient, so it is not formed
        return (_rows(g, bv.T) if a.requires_grad else None, av.T @ g if b.requires_grad else None)

    return _result(_rows(av, bv), (a, b), pull)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose needs a rank-2 tensor, got shape {x.shape}")

    def pull(g: np.ndarray):
        return (g.T,)

    return _result(x.values.T, (x,), pull)


def gather_rows(x: Tensor | Sequence[Tensor], order: Sequence[int]) -> Tensor:
    """Rows ``order`` of one tensor or of several in turn; repeated indices accumulate gradient.

    ``x`` is one tensor or a sequence of tensors of one width, a rank-1
    tensor counting as one row, and rows are numbered through the parts in
    order.  Rows left out of ``order`` receive exactly zero gradient, which
    is what makes downstream computations bit-independent of their contents.
    """
    parts, table, idx = _table(x, order, "gather_rows")
    n = table.shape[0]  # the pull keeps the count, not the table

    def pull(g: np.ndarray):
        return _scatter_parts(idx, g, parts, n)

    return _result(table[idx], parts, pull)


def _read_parts(x: Tensor | Sequence[Tensor], order: Sequence[int], op: str
                ) -> tuple[tuple[Tensor, ...], list[np.ndarray], np.ndarray, int]:
    """The parts of ``x`` as ``gather_rows`` reads them, each as a matrix, the checked ``order`` and the row count."""
    parts = (x,) if isinstance(x, Tensor) else tuple(x)
    if not parts or any(p.ndim == 0 or p.shape[-1] != parts[0].shape[-1] for p in parts):
        raise ShapeError(f"{op} needs tensors of one width, got {[p.shape for p in parts]}")
    idx = np.asarray(order, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError(f"{op} needs a non-empty index vector")
    blocks = [p.values if p.ndim == 2 else p.values[None] for p in parts]
    n = sum(b.shape[0] for b in blocks)
    if idx.min() < 0 or idx.max() >= n:
        raise ShapeError(f"{op} index out of range for {n} rows")
    return parts, blocks, idx, n


def _table(x: Tensor | Sequence[Tensor], order: Sequence[int], op: str
           ) -> tuple[tuple[Tensor, ...], np.ndarray, np.ndarray]:
    """The parts of ``x`` as ``gather_rows`` reads them, their rows as one table, and the checked ``order``."""
    parts, blocks, idx, _ = _read_parts(x, order, op)
    return parts, blocks[0] if len(blocks) == 1 else np.concatenate(blocks), idx


def _scatter_parts(idx: np.ndarray | slice, g: np.ndarray, parts: tuple[Tensor, ...], n: int) -> tuple:
    """``gather_rows``' backward: the rows of ``g`` summed into rows ``idx`` of the n-row table, split by part."""
    grad = g if isinstance(idx, slice) else _scatter_rows(idx, g, n)  # the identity slice(None) sums nothing
    if len(parts) == 1:
        return (grad.reshape(parts[0].shape),)
    sizes = [p.shape[0] if p.ndim == 2 else 1 for p in parts]
    return tuple(grad[e - k:e].reshape(p.shape) if p.requires_grad else None
                 for p, k, e in zip(parts, sizes, np.cumsum(sizes)))


def _scatter_rows(idx: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """The (n, d) sum of the rows of ``g`` into rows ``idx``: ``gather_rows``' backward."""
    # one bincount adds each row's terms in index order from 0.0, as np.add.at does
    d = g.shape[1]
    flat = (idx[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=n * d).reshape(n, d)


def tanh(x: Tensor) -> Tensor:
    tv = np.tanh(x.values)

    def pull(g: np.ndarray):
        return (g * (1.0 - tv * tv),)

    return _result(tv, (x,), pull)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """Elementwise max(x, floor); gradient passes only where x > floor."""
    floor = float(floor)
    if not math.isfinite(floor):
        raise NonFiniteError("clamp floor must be finite")
    xv = x.values
    mask = xv > floor

    def pull(g: np.ndarray):
        return (g * mask,)

    return _result(np.maximum(xv, floor), (x,), pull)


def soft_target_nll(logits: Tensor, targets, n: float) -> Tensor:
    """``-sum(log_softmax(logits) * targets) / n``: the cross entropy of target rows, summed and over ``n``.

    ``logits`` and the constant ``targets`` are (B, C) matrices; with
    ``n = B`` and target rows that sum to one it is the mean cross entropy
    of the rows.  The row-wise log-softmax is taken by log-sum-exp on
    max-shifted rows, so it stays finite at logit spreads where the
    softmax itself underflows to 0 and its log would not be.
    """
    tv = np.array(targets, dtype=np.float64, copy=True)
    if logits.ndim != 2 or tv.shape != logits.shape:
        raise ShapeError(f"soft_target_nll needs (B, C) logits and targets, got {logits.shape} and {tv.shape}")
    if not _finite(tv):
        raise NonFiniteError("soft_target_nll: targets contain NaN or infinite values")
    if not n > 0:
        raise ShapeError(f"soft_target_nll needs a positive divisor, got {n}")
    value, grad = _nll(logits.values, tv, -1.0 / n)

    def pull(g: np.ndarray):
        return (grad(g),)

    return _result(value, (logits,), pull)


def _nll(lv: np.ndarray, tv: np.ndarray, c: float) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """``c * sum(log_softmax(lv) * tv)``, by log-sum-exp on max-shifted rows, and its gradient in ``lv``."""
    shifted = lv - np.max(lv, axis=-1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))

    def grad(g: np.ndarray) -> np.ndarray:
        gl = np.broadcast_to(g * c, tv.shape).copy() * tv
        return gl - np.exp(logp) * np.sum(gl, axis=-1, keepdims=True)

    return np.asarray(np.sum(logp * tv)) * c, grad


def contrastive_loss(kinds: Sequence[tuple[Tensor, Tensor, Sequence[int]]], inv_temp: Tensor
                     ) -> tuple[Tensor, tuple[float, float]]:
    """The stage-1 image-text objective over one or more kinds of rows, as one node.

    A kind is ``(visual, text, columns)``: (B, d) visual rows, (C, d) text
    rows and each visual row's text row.  Its logits are one product
    ``visual @ text.T`` times the scalar ``inv_temp``; its ``i2t`` is
    ``soft_target_nll`` of them against the one-hot ``columns`` and its
    ``t2i`` that of their transpose, both over B.  Returns the loss
    ``(i2t_1 + i2t_2 + ...) + (t2i_1 + t2i_2 + ...)`` and the two sums as
    floats, with the value and gradients of the composed ``transpose``,
    ``matmul``, ``mul``, ``soft_target_nll`` and ``add`` nodes, bit for bit.
    ``gla.contrastive_losses`` is its checked entry.
    """
    t = inv_temp.values
    saved, i2t, t2i = [], None, None
    for visual, text, columns in kinds:
        b = visual.shape[0]
        onehot = np.zeros((b, text.shape[0]))
        onehot[np.arange(b), columns] = 1.0
        m = _rows(visual.values, text.values.T)
        sims = m * t
        (a, grad_a), (z, grad_z) = _nll(sims, onehot, -1.0 / b), _nll(sims.T, onehot.T, -1.0 / b)
        i2t, t2i = (a, z) if i2t is None else (i2t + a, t2i + z)
        saved.append((visual, text, m, grad_a, grad_z))

    def pull(g: np.ndarray):
        grads, gt = [], None
        for visual, text, m, grad_a, grad_z in reversed(saved):  # the tape pulls the last kind first
            gs = grad_z(g).T + grad_a(g)  # the transposed direction's gradient reaches the logits first
            if inv_temp.requires_grad:
                gk = np.asarray(np.sum(gs * m))
                gt = gk if gt is None else gt + gk
            gm = gs * t if visual.requires_grad or text.requires_grad else None
            grads.append((_rows(gm, text.values) if visual.requires_grad else None,
                          (visual.values.T @ gm).T if text.requires_grad else None))
        return (*(gx for pair in reversed(grads) for gx in pair), gt)

    parents = (*(x for kind in saved for x in kind[:2]), inv_temp)
    return _result(np.asarray(i2t + t2i), parents, pull), (float(i2t), float(t2i))


def _blocks(rows: int, length: int, lengths, op: str) -> tuple[int, np.ndarray | None]:
    """How many blocks of ``length`` rows ``rows`` makes, and their (n, length) live-row mask."""
    if length < 1 or rows == 0 or rows % length:
        raise ShapeError(f"{op}: {rows} rows do not split into blocks of {length}")
    n = rows // length
    if lengths is None:
        return n, None
    lengths = np.asarray(lengths)
    if lengths.shape != (n,) or lengths.min() < 1 or lengths.max() > length:
        raise ShapeError(f"{op}: need {n} block lengths in [1, {length}]")
    return n, np.arange(length) < lengths[:, None]


def _rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with each row's bits independent of how many rows ``a`` stacks, for a C-ordered ``b``.

    A one-row product goes down numpy's matrix-vector path, which rounds
    differently from the same row inside a taller product, so a single row
    is padded to two and the copy dropped.  A transposed ``b``, as in a
    backward ``g @ w.T``, rounds a row by its stack's height: no padding undoes that.
    """
    if a.shape[0] > 1:
        return a @ b
    return (np.concatenate([a, a]) @ b)[:1]


# numpy adds fewer terms than this left to right, and more pairwise
_SHORT_ROW = 8
# one slice op costs about what numpy's reduction spends on this many rows
_ROWS_PER_SLICE = 32


def _row_reduce(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1, keepdims=True)`` for ``np.maximum`` or ``np.add``, with numpy's bits.

    Rows of fewer than ``_SHORT_ROW`` entries are reduced slice by slice,
    left to right: a max is exact in any order, and numpy adds so few
    terms left to right too, so the bits are numpy's.  numpy pays per row
    and a slice op per call, so the slices run only where they are the
    cheaper, on stacks of at least ``_ROWS_PER_SLICE`` rows per slice op;
    longer rows and smaller stacks take numpy's own reduction.  (numpy's
    sum starts from 0.0, so a row of -0.0 alone sums to 0.0 there and to
    -0.0 here; a softmax's sums are at least 1.)
    """
    length = a.shape[-1]
    if length >= _SHORT_ROW or a.size < _ROWS_PER_SLICE * length * (length - 1):
        return ufunc.reduce(a, axis=-1, keepdims=True)
    out = a[..., :1]
    for j in range(1, length):
        out = ufunc(out, a[..., j:j + 1])
    return out


def _attend(qv: np.ndarray, kv: np.ndarray, vv: np.ndarray, n: int, live) -> tuple[np.ndarray, np.ndarray]:
    """Attention inside n row blocks of ``kv`` and ``vv``: the (n, m, L) weights and the (n m, dv) output.

    ``qv`` holds m query rows per block: the block's own L rows, or one.
    A query row past a block's live length outputs a zero row.
    """
    rows, d = kv.shape
    length, m = rows // n, qv.shape[0] // n
    vb = vv.reshape(n, length, vv.shape[1])
    scores = (qv.reshape(n, m, d) @ kv.reshape(n, length, d).transpose(0, 2, 1)) * (1.0 / math.sqrt(d))
    if live is not None:
        scores = np.where(live[:, None, :], scores, -np.inf)
    e = np.exp(scores - _row_reduce(np.maximum, scores))
    del scores
    w = e / _row_reduce(np.add, e)
    del e
    if live is not None and m > 1:  # a lone query is its block's first row, always live
        w = w * live[:, :, None]
    return w, (w @ vb).reshape(n * m, vv.shape[1])


def _attend_grads(g: np.ndarray, w: np.ndarray, qv: np.ndarray, kv: np.ndarray, vv: np.ndarray,
                  need_q: bool, need_k: bool, need_v: bool):
    """``_attend``'s backward: the q, k and v gradients asked for, None for the rest."""
    n, m, length = w.shape
    d = qv.shape[1]
    gb = g.reshape(n, m, -1)
    gq = gk = None
    if need_q or need_k:
        gw = gb @ vv.reshape(n, length, vv.shape[1]).transpose(0, 2, 1)
        gs = w * (gw - np.sum(gw * w, axis=-1, keepdims=True)) * (1.0 / math.sqrt(d))
        gq = (gs @ kv.reshape(n, length, d)).reshape(n * m, d) if need_q else None
        gk = (gs.transpose(0, 2, 1) @ qv.reshape(n, m, d)).reshape(n * length, d) if need_k else None
    gv = (w.transpose(0, 2, 1) @ gb).reshape(n * length, -1) if need_v else None
    return gq, gk, gv


def segment_attention(q: Tensor, k: Tensor, v: Tensor, length: int, lengths=None) -> Tensor:
    """One query row per block, attending over a block of ``length`` key and value rows.

    ``k`` and ``v`` stack n sequences of ``length`` rows each, and ``q``
    holds one query row per sequence.  Output row i is ``sum_j w_j v_j``
    over block i, with weights ``softmax_j(q_i . k_j / sqrt(d))`` for a
    query width of d.  The blocks are worked as (n, 1, length) arrays, so
    memory grows with n and not with the square of n that a dense
    block-diagonal mask would need.  With ``lengths``, block i's rows past
    ``lengths[i]`` are dead: they get weight exactly 0 and no gradient.
    """
    if (q.ndim != 2 or k.ndim != 2 or k.shape[1] != q.shape[1] or v.ndim != 2
            or v.shape[0] != k.shape[0] or k.shape[0] != q.shape[0] * length):
        raise ShapeError(f"segment_attention: need one query row per block of {length} key and value rows, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    n, live = _blocks(k.shape[0], length, lengths, "segment_attention")
    qv, kv, vv = q.values, k.values, v.values
    w, out = _attend(qv, kv, vv, n, live)

    def pull(g: np.ndarray):
        return _attend_grads(g, w, qv, kv, vv, q.requires_grad, k.requires_grad, v.requires_grad)

    return _result(out, (q, k, v), pull)


def _block_grads(g: np.ndarray, w: np.ndarray, xq: np.ndarray, xv: np.ndarray, qv: np.ndarray, kv: np.ndarray,
                 vv: np.ndarray, ctx: np.ndarray, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, need_x: bool,
                 first: int = 0) -> tuple:
    """The residual block's backward: the rows' gradient (None unless ``need_x``), then wq's, wk's, wv's, wo's.

    The rows' gradient adds the residual, then the v, k and q terms, as the
    composed ops' backward does; with ``first``, the block length, only
    each block's first row was a query and a residual.
    """
    need_q, need_k, need_v = (need_x or p.requires_grad for p in (wq, wk, wv))
    gq = gk = gv = gx = None
    if need_q or need_k or need_v:
        gq, gk, gv = _attend_grads(g @ wo.values.T, w, qv, kv, vv, need_q, need_k, need_v)
    if need_x and first:
        gx = gv @ wv.values.T
        gx = gx + gk @ wk.values.T
        gx[::first] += g + gq @ wq.values.T
    elif need_x:
        gx = g + gv @ wv.values.T
        gx = gx + gk @ wk.values.T
        gx = gx + gq @ wq.values.T
    return (gx, xq.T @ gq if wq.requires_grad else None, xv.T @ gk if wk.requires_grad else None,
            xv.T @ gv if wv.requires_grad else None, ctx.T @ g if wo.requires_grad else None)


def _block_forward(xq: np.ndarray, qv: np.ndarray, kv: np.ndarray, vv: np.ndarray, wo: Tensor, n: int,
                   live) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The residual block's forward after the projections: ``_attend``'s weights and output, and ``xq`` + output wo."""
    w, ctx = _attend(qv, kv, vv, n, live)
    out = _rows(ctx, wo.values)
    return w, ctx, np.add(xq, out, out=out)


def _check_block(xv: np.ndarray, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, op: str) -> None:
    if (xv.ndim != 2 or any(w.ndim != 2 for w in (wq, wk, wv, wo)) or wq.shape[0] != xv.shape[1]
            or wk.shape != wq.shape or wv.shape[0] != xv.shape[1] or wo.shape != (wv.shape[1], xv.shape[1])):
        raise ShapeError(f"{op}: need x (rows, d), wq and wk (d, e), wv (d, f) and wo (f, d), "
                         f"got {xv.shape}, {wq.shape}, {wk.shape}, {wv.shape}, {wo.shape}")


def attention_block(x: Tensor | Sequence[Tensor], wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, length: int,
                    lengths=None, *, first_only: bool = False, order: Sequence[int] | None = None) -> Tensor:
    """Single-head self-attention with a residual connection, as one node.

    ``x`` stacks sequences of ``length`` rows each, and a row attends only
    within the live rows of its own sequence: the output is ``x + A wo``
    for the attention ``A`` of queries ``x wq`` over keys ``x wk`` and
    values ``x wv``.  The value and the gradients are those of the matmuls
    composed with the attention, bit for bit: ``x``'s gradient adds the
    residual, then the v, k and q terms, the order the composed ops'
    backward takes (when nothing else reads ``x``).  Zero rows past a
    sequence's length stay zero.  A zero output projection makes the block
    the identity map.  ``attention_pool`` runs its ``_block_forward`` and ``_block_grads`` too.

    With ``order``, ``x`` is read as ``gather_rows`` reads it, one tensor
    or a sequence of tensors of one width, and the block runs on rows
    ``order`` of their concatenation: each row of the concatenation is
    projected once and the projections laid into the blocks, so a row that
    several blocks repeat is projected once.  The value and the gradients
    are those of ``gather_rows`` composed with the block, bit for bit, as
    a row's forward product has the same bits in a stack of any size.
    Without it, one tensor ``x`` is read in place, by the index ``slice(None)``.

    With ``first_only``, each sequence's first row is the only query and
    the residual: the (n, d) output is each sequence's first row of the
    block, without the other rows' work.  Over two or more sequences its
    value and gradients are those of gathering the first rows, the matmuls
    and ``segment_attention`` composed, bit for bit; over one, a one-row
    product is padded as ``_rows`` pads it, so an output row has the same
    bits in a stack of any size.
    """
    if order is None:
        if not isinstance(x, Tensor):
            raise ShapeError("attention_block: a sequence of tensors needs an order")
        parts, table, idx = (x,), x.values, slice(None)
    else:
        parts, table, idx = _table(x, order, "attention_block")
        table = np.ascontiguousarray(table)  # the layout a gathered stack has
    xv = table[idx]
    _check_block(xv, wq, wk, wv, wo, "attention_block")
    n, live = _blocks(xv.shape[0], length, lengths, "attention_block")
    xq = xv[::length].copy() if first_only else xv  # contiguous, as gather_rows makes it
    # each row of the table projected once, then laid into the blocks
    qv = _rows(xq, wq.values) if first_only else _rows(table, wq.values)[idx]
    kv, vv = _rows(table, wk.values)[idx], _rows(table, wv.values)[idx]
    n_table = table.shape[0]
    del table  # the attention and the pull need only its row count
    w, ctx, out = _block_forward(xq, qv, kv, vv, wo, n, live)
    need_x = any(p.requires_grad for p in parts)

    def pull(g: np.ndarray):
        gx, *gw = _block_grads(g, w, xq, xv, qv, kv, vv, ctx, wq, wk, wv, wo, need_x, length if first_only else 0)
        return (*(_scatter_parts(idx, gx, parts, n_table) if need_x else (None,) * len(parts)), *gw)

    return _result(out, (*parts, wq, wk, wv, wo), pull)


def attention_pool(x: Tensor | Sequence[Tensor], pos: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                   proj: Tensor, length: int, *, order: Sequence[int]) -> Tensor:
    """Each sequence's unit-norm feature: positions, a residual attention block, mean, projection, as one node.

    The n sequences of ``length`` rows each are rows ``order`` of ``x``,
    read as ``gather_rows`` reads it, though the last of several parts is
    read in place rather than copied.  Row i of every sequence gains row i
    of ``pos``; the sequences run through ``attention_block``'s
    ``_block_forward`` and ``_block_grads``; each one's rows are averaged by
    an (n, 1, length) @ (n, length, d) product, so a mean reads its own
    sequence alone; the means are projected by ``proj`` and scaled to unit
    norm by ``l2_normalize``'s ``_unit_norm``, a finite row whose norm
    overflows raising under that op's name.  The value and the
    gradients are those of that composition, bit for bit, with
    ``gather_rows`` reading the parts and the rows of ``pos``.  The
    forward's products go through ``_rows``, so a sequence's feature has
    the same bits in a stack of any size.
    """
    parts, blocks, idx, n_table = _read_parts(x, order, "attention_pool")
    *head, last = blocks
    if head:  # the last part is read in place, not copied: the text encoder's is the whole identity-token table
        start = n_table - last.shape[0]
        table = head[0] if len(head) == 1 else np.concatenate(head)
        xv = np.where((idx >= start)[:, None], last.take(idx - start, axis=0, mode="clip"),
                      table.take(idx, axis=0, mode="clip"))
    else:
        xv = last[idx]
    _check_block(xv, wq, wk, wv, wo, "attention_pool")
    d = xv.shape[1]
    if pos.ndim != 2 or pos.shape[0] < length or pos.shape[1] != d or proj.ndim != 2 or proj.shape[0] != d:
        raise ShapeError(f"attention_pool: need pos (at least {length}, {d}) and proj ({d}, e), "
                         f"got {pos.shape} and {proj.shape}")
    n, _ = _blocks(xv.shape[0], length, None, "attention_pool")
    xv = (xv.reshape(n, length, d) + pos.values[:length]).reshape(n * length, d)
    qv, kv, vv = _rows(xv, wq.values), _rows(xv, wk.values), _rows(xv, wv.values)
    w, ctx, seq = _block_forward(xv, qv, kv, vv, wo, n, None)
    scale = 1.0 / length
    pooled = (np.full((n, 1, length), scale) @ seq.reshape(n, length, d))[:, 0]
    value, unit_grad = _unit_norm(_rows(pooled, proj.values))
    need_parts = any(p.requires_grad for p in parts)
    need_x = need_parts or pos.requires_grad
    need_seq = need_x or any(p.requires_grad for p in (wq, wk, wv, wo))

    def pull(g: np.ndarray):
        gz = unit_grad(g)  # l2_normalize, then matmul by proj
        gproj = pooled.T @ gz if proj.requires_grad else None
        if not need_seq:
            return (None,) * (len(parts) + 5) + (gproj,)
        # the mean spreads each row's gradient over its sequence
        gs = np.repeat(_rows(gz, proj.values.T) * scale, length, axis=0)
        gx, *gw = _block_grads(gs, w, xv, xv, qv, kv, vv, ctx, wq, wk, wv, wo, need_x)
        gparts = _scatter_parts(idx, gx, parts, n_table) if need_parts else (None,) * len(parts)
        return (*gparts,
                _scatter_rows(np.tile(np.arange(length), n), gx, pos.shape[0]) if pos.requires_grad else None,
                *gw, gproj)

    return _result(value, (*parts, pos, wq, wk, wv, wo, proj), pull)


def row_distance(a: Tensor, b: Tensor) -> Tensor:
    """Euclidean distance between matching rows, floored at 1e-6, as one node.

    For (rows, d) matrices of one shape, one distance per row, taken as
    ``exp(log(d2) / 2)`` with the squared distance ``d2`` floored at
    1e-12: coincident rows give distance 1e-6 and a zero gradient, not a
    NaN.  The value and the gradients are those of the composed
    difference, squared row sum, floor, log, halving and exp, op by op,
    bit for bit.
    """
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeError(f"row_distance needs matrices of one shape, got {a.shape} and {b.shape}")
    dv = a.values - b.values
    sq = np.sum(dv * dv, axis=1)
    live = sq > 1e-12
    d2 = np.maximum(sq, 1e-12)
    out = np.exp(np.log(d2) * 0.5)

    def pull(g: np.ndarray):
        t = (g * out * 0.5 / d2 * live)[:, None] * dv
        gd = t + t
        return (gd if a.requires_grad else None, -gd if b.requires_grad else None)

    return _result(out, (a, b), pull)


def add_block_means(x: Tensor, weights: Tensor, counts) -> Tensor:
    """Add to each block's first row the mean of its live rows, each scaled by a row of ``weights``.

    ``x`` stacks B blocks of one width ``1 + slots``, with ``slots`` at
    most the rows of ``weights``; block i's rows 1 to ``counts[i]`` are
    live.  Its first row gains the mean over live rows j of
    ``weights[j - 1] * row j``; every other row passes unchanged.  The
    mean is the (B, 1, m) product, over all m rows of ``weights``, of the
    weights one query takes at zero scores with the scaled rows, zero past
    ``slots``, and the gradients scatter with ``gather_rows``' bincount:
    the value and the gradients of that composition through
    ``segment_attention`` at m slots, bit for bit.  So blocks narrower than
    m give the bits of the same blocks zero-padded to m slots.  Rows past a
    block's count and rows of ``weights`` past it get no gradient.
    """
    xv, ev = x.values, weights.values
    if xv.ndim != 2 or ev.ndim != 2 or xv.shape[1] != ev.shape[1]:
        raise ShapeError(f"add_block_means: blocks {xv.shape} do not match the weights {ev.shape}")
    counts = np.asarray(counts, dtype=np.int64)
    rows, dim = xv.shape
    if counts.ndim != 1 or not counts.size or rows % counts.size:
        raise ShapeError(f"add_block_means: {rows} rows do not split into {counts.size} blocks")
    b, slots = counts.size, rows // counts.size - 1
    if not 1 <= slots <= ev.shape[0] or counts.min() < 1 or counts.max() > slots:
        raise ShapeError(f"add_block_means: blocks of {slots} slots need counts {counts.tolist()} "
                         f"in [1, {slots}] and at least {slots} weight rows, got {ev.shape[0]}")
    m = ev.shape[0]
    starts = np.arange(b) * (slots + 1)
    members = (starts[:, None] + np.arange(1, slots + 1)).ravel()
    at = np.tile(np.arange(slots), b)
    ew, mv = ev[at], xv[members]
    # softmax of zero scores over each block's live rows: 1/k there, 0 elsewhere;
    # one product per block, as a (B, B slots) block-mean product rounds by block position,
    # and over all m weight rows, as a product's rounding can follow its inner length
    w = (np.arange(m) < counts[:, None])[:, None, :] / counts[:, None, None]
    scaled = np.zeros((b, m, dim))
    scaled[:, :slots] = (ew * mv).reshape(b, slots, dim)
    shift = np.zeros_like(xv)
    shift[starts] = (w @ scaled)[:, 0]

    def pull(g: np.ndarray):
        gb = g[starts, None] + 0.0  # a bincount scatter of one row adds it to 0.0
        gm = (w[:, :, :slots].transpose(0, 2, 1) @ gb).reshape(b * slots, dim)
        return (g + _scatter_rows(members, gm * ew, rows) if x.requires_grad else None,
                _scatter_rows(at, gm * mv, m) if weights.requires_grad else None)

    return _result(np.add(xv, shift, out=shift), (x, weights), pull)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale to unit Euclidean norm (row-wise on matrices).

    The denominator is guarded at 1e-12, so a zero vector maps to the zero
    vector instead of raising, and a larger finite norm comes out unit length
    to machine precision; a finite row whose norm overflows raises instead
    (``_unit_norm``, which ``attention_pool`` runs too).
    """
    if x.ndim not in (1, 2):
        raise ShapeError(f"l2_normalize needs rank 1 or 2, got shape {x.shape}")
    value, grad = _unit_norm(x.values)

    def pull(g: np.ndarray):
        return (grad(g),)

    return _result(value, (x,), pull)


def _unit_norm(xv: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """``l2_normalize``'s rows of ``xv`` at unit norm, and the gradient in ``xv``."""
    n = np.sqrt(np.sum(xv * xv, axis=-1, keepdims=True))
    over = np.isinf(n)  # x / inf would turn a finite row whose squared norm overflows into zeros
    if over.any() and (over & np.isfinite(xv).all(axis=-1, keepdims=True)).any():
        check_finite(n, "l2_normalize")
    d = np.maximum(n, 1e-12)
    live = n > 1e-12  # below the guard the map is x / const, so no norm term

    def grad(g: np.ndarray) -> np.ndarray:
        inner = np.sum(g * xv, axis=-1, keepdims=True)
        return g / d - xv * (live * inner / (d * d * d))

    return xv / d, grad


def reduce_mean(x: Tensor) -> Tensor:
    xv = x.values
    if xv.size == 0:
        raise ShapeError("mean of an empty tensor")

    def pull(g: np.ndarray):
        return (np.broadcast_to(g / xv.size, xv.shape).copy(),)

    return _result(np.asarray(np.mean(xv)), (x,), pull)


# --------------------------------------------------------------------------
# Finite-difference verification


@dataclass(frozen=True)
class GradCheckFailure:
    param: str
    index: tuple[int, ...]
    finite_diff: float
    recorded: float
    rel_error: float


@dataclass
class GradCheckReport:
    """Outcome of one finite-difference sweep over a parameter set."""

    step: float
    tolerance: float
    per_param: dict[str, float] = field(default_factory=dict)
    failures: list[GradCheckFailure] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values(), default=0.0)

    @property
    def ok(self) -> bool:
        return not self.failures


# the oracle's standard step and tolerance, which the tests use
def grad_check(loss_fn, params: Mapping[str, Tensor], step: float = 1e-5,
               tolerance: float = 1e-4) -> GradCheckReport:
    """Compare recorded gradients against central finite differences.

    ``loss_fn`` must be a deterministic scalar-valued function of the
    name->Tensor mapping ``params``; any sampling it depends on must
    already be drawn and fixed.  Every entry of every parameter
    with ``requires_grad`` is perturbed by ``±step`` and
    ``(f(x+h) - f(x-h)) / 2h`` is compared to the recorded gradient under
    the relative error ``|fd - ad| / max(1e-6, |fd| + |ad|)``.  The 1e-6
    floor is calibrated to what the difference itself can resolve: with
    an order-one loss its cancellation noise is about ``eps / step``
    (~2e-11), so near-zero entries would otherwise fail on pure roundoff.

    Entries over tolerance are reported, not raised.
    """
    with Graph() as graph:
        loss = loss_fn(params)
    if loss.shape != ():
        raise ShapeError("grad_check needs a scalar-valued loss_fn")
    grads = graph.backward(loss)

    report = GradCheckReport(step=step, tolerance=tolerance)
    for name in sorted(params):
        p = params[name]
        if not p.requires_grad:
            continue
        recorded = grads.get(p, np.zeros_like(p.values))
        worst = 0.0
        base = p.values
        for index in np.ndindex(base.shape):
            plus = base.copy()
            plus[index] += step
            minus = base.copy()
            minus[index] -= step
            f_plus = loss_fn({**params, name: Tensor(plus, p.requires_grad, _copy=False)}).item()
            f_minus = loss_fn({**params, name: Tensor(minus, p.requires_grad, _copy=False)}).item()
            fd = (f_plus - f_minus) / (2.0 * step)
            ad = float(recorded[index])
            rel = abs(fd - ad) / max(1e-6, abs(fd) + abs(ad))
            if rel > worst:
                worst = rel
            if rel > tolerance:
                report.failures.append(GradCheckFailure(name, index, fd, ad, rel))
        report.per_param[name] = worst
    return report
