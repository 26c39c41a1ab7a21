"""Dense float64 tensors with taped reverse-mode differentiation.

Tensors are immutable value holders (rank 0, 1, or 2).  While a ``Graph``
is recording, every operation appends a node holding the output, its
parents, and a pull-back closure; ``Graph.backward`` then walks the tape
once in reverse, accumulating gradients into the leaf parameters it saw.

Design constraints the rest of the package relies on:

* all arithmetic is float64, and any NaN/inf surfaces as ``NonFiniteError``
  at the operation that produced it;
* identical inputs give bit-identical outputs (fixed reduction orders, no
  hidden threading decisions at these sizes);
* a graph records once and backpropagates once; reuse raises;
* rows are selected by one op, ``gather_rows``, and rows it leaves out get
  exactly zero gradient;
* log-probabilities come from ``log_softmax_rows`` (log-sum-exp), which
  stays finite where the log of a softmax would underflow and raise;
* attention over many short sequences is one op, ``segment_attention``,
  which keeps the tape rank 2 by stacking the sequences as row blocks.

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
    "scale",
    "matmul",
    "transpose",
    "concat",
    "stack",
    "gather_rows",
    "exp",
    "log",
    "tanh",
    "clamp_min",
    "log_softmax_rows",
    "segment_attention",
    "l2_normalize",
    "reduce_sum",
    "reduce_mean",
    "grad_check",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class NonFiniteError(ArithmeticError):
    """A tensor would contain NaN or an infinity."""


class GraphError(RuntimeError):
    """Gradient tape misuse: nesting, reuse, or a loss without a path."""


class Tensor:
    """Immutable float64 array with an optional gradient slot.

    ``grad`` is ``None`` until ``Graph.backward`` runs; afterwards leaf
    tensors that participated in the recorded computation hold an array of
    the same shape as ``values``.
    """

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False, *, _copy: bool = True):
        if _copy:
            arr = np.array(values, dtype=np.float64, copy=True)
        else:
            arr = np.asarray(values, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are at most rank 2, got shape {arr.shape}")
        # Sum-based probe: any NaN or inf in the array makes the sum
        # non-finite, and desk-scale magnitudes cannot overflow a float64 sum.
        if arr.size and not math.isfinite(float(arr.sum())):
            raise NonFiniteError("tensor contains NaN or infinite values")
        arr.setflags(write=False)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def constant(values) -> Tensor:
    """Build a non-differentiable tensor from array-like data."""
    return Tensor(values, requires_grad=False)


_ACTIVE: "Graph | None" = None

_PullFn = Callable[[np.ndarray], tuple["np.ndarray | None", ...]]


class Graph:
    """One recording of a computation, consumed by a single backward pass.

    Graphs are single-owner: only one can record at a time and each records
    at most once.  Use as a context manager::

        with Graph() as g:
            loss = loss_fn(params)
        g.backward(loss)
    """

    def __init__(self) -> None:
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], _PullFn]] = []
        self._produced: set[int] = set()
        self._leaves: list[Tensor] = []
        self._leaf_ids: set[int] = set()
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
        return False

    def _record(self, out: Tensor, parents: tuple[Tensor, ...], pull: _PullFn) -> None:
        self._nodes.append((out, parents, pull))
        self._produced.add(id(out))
        for p in parents:
            if p.requires_grad and id(p) not in self._produced and id(p) not in self._leaf_ids:
                self._leaf_ids.add(id(p))
                self._leaves.append(p)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every leaf's ``grad``.

        The tape is traversed exactly once in reverse recording order, which
        is a reverse topological order by construction.
        """
        if _ACTIVE is self:
            raise GraphError("backward inside the recording context is not allowed")
        if self._consumed:
            raise GraphError("backward was already run on this graph")
        if loss.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not loss.requires_grad or id(loss) not in self._produced:
            raise GraphError("loss has no gradient path recorded on this graph")
        self._consumed = True
        acc = self._pull_all(loss)
        for leaf in self._leaves:
            g = acc.get(id(leaf))
            if g is not None and not math.isfinite(float(g.sum())):
                self._pull_all(loss, checked=True)  # raises at the op that made it
            leaf.grad = g

    def _pull_all(self, loss: Tensor, checked: bool = False) -> dict[int, np.ndarray]:
        acc: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
        for out, parents, pull in reversed(self._nodes):
            g = acc.pop(id(out), None)
            if g is None:
                continue
            for parent, pg in zip(parents, pull(g)):
                if pg is None or not parent.requires_grad:
                    continue
                prev = acc.get(id(parent))
                acc[id(parent)] = pg if prev is None else prev + pg
                if checked and not np.isfinite(acc[id(parent)]).all():
                    op = pull.__qualname__.split(".")[0]
                    raise NonFiniteError(f"{op}: gradient contains NaN or infinite values")
        return acc


def _result(values: np.ndarray, parents: tuple[Tensor, ...], pull: _PullFn) -> Tensor:
    graph = _ACTIVE
    needs = graph is not None and any(p.requires_grad for p in parents)
    try:
        out = Tensor(values, requires_grad=needs, _copy=False)
    except NonFiniteError as e:
        # each op defines its own backward closure, so its name is the op's
        raise NonFiniteError(f"{pull.__qualname__.split('.')[0]}: {e}") from None
    if needs:
        graph._record(out, parents, pull)
    return out


def _ew_check(a: Tensor, b: Tensor, op: str) -> None:
    # Allowed elementwise pairings: identical shapes, a rank-0 scalar on
    # either side, or matrix (m,n) with a row vector (n,).
    sa, sb = a.shape, b.shape
    if sa == sb or sa == () or sb == ():
        return
    if len(sa) == 2 and sb == (sa[1],):
        return
    if len(sb) == 2 and sa == (sb[1],):
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


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a compile-time constant (no gradient flows to ``c``)."""
    c = float(c)
    if not math.isfinite(c):
        raise NonFiniteError("scale factor must be finite")

    def pull(g: np.ndarray):
        return (g * c,)

    return _result(x.values * c, (x,), pull)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (m,k)@(k,n)."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul needs (m,k) @ (k,n), got {av.shape} @ {bv.shape}")

    def pull(g: np.ndarray):
        # backward drops a frozen operand's gradient, so it is not formed
        return (g @ bv.T if a.requires_grad else None, av.T @ g if b.requires_grad else None)

    return _result(av @ bv, (a, b), pull)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose needs a rank-2 tensor, got shape {x.shape}")

    def pull(g: np.ndarray):
        return (g.T,)

    return _result(x.values.T, (x,), pull)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors of equal rank along ``axis``."""
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    ndim = parts[0].ndim
    if ndim == 0:
        raise ShapeError("concat does not accept rank-0 tensors")
    if any(p.ndim != ndim for p in parts):
        raise ShapeError("concat operands must share their rank")
    if not (0 <= axis < ndim):
        raise ShapeError(f"concat axis {axis} out of range for rank {ndim}")
    other = [tuple(s for i, s in enumerate(p.shape) if i != axis) for p in parts]
    if any(o != other[0] for o in other):
        raise ShapeError("concat operands disagree on non-concatenated dims")
    sizes = [p.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def pull(g: np.ndarray):
        return tuple(np.split(g, bounds, axis=axis))

    return _result(np.concatenate([p.values for p in parts], axis=axis), tuple(parts), pull)


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Stack rank-1 tensors of equal length into the rows of a matrix."""
    if not parts:
        raise ShapeError("stack needs at least one tensor")
    if any(p.ndim != 1 for p in parts):
        raise ShapeError("stack operands must be rank 1")
    n = parts[0].shape[0]
    if any(p.shape[0] != n for p in parts):
        raise ShapeError("stack operands must share their length")

    def pull(g: np.ndarray):
        return tuple(g[i] for i in range(len(parts)))

    return _result(np.stack([p.values for p in parts], axis=0), tuple(parts), pull)


def gather_rows(x: Tensor, order: Sequence[int]) -> Tensor:
    """Reindex the rows of a matrix; repeated indices accumulate gradient.

    Rows left out of ``order`` receive exactly zero gradient, which is what
    makes downstream computations bit-independent of their contents.
    """
    if x.ndim != 2:
        raise ShapeError(f"gather_rows needs a rank-2 tensor, got shape {x.shape}")
    idx = np.asarray(order, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("gather_rows needs a non-empty index vector")
    if idx.min() < 0 or idx.max() >= x.shape[0]:
        raise ShapeError(f"gather_rows index out of range for {x.shape[0]} rows")
    xv = x.values

    def pull(g: np.ndarray):
        # one bincount adds each row's terms in index order from 0.0, as np.add.at does
        n, d = xv.shape
        flat = (idx[:, None] * d + np.arange(d)).ravel()
        return (np.bincount(flat, weights=g.ravel(), minlength=n * d).reshape(n, d),)

    return _result(xv[idx], (x,), pull)


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        ev = np.exp(x.values)  # overflow surfaces as NonFiniteError below

    def pull(g: np.ndarray):
        return (g * ev,)

    return _result(ev, (x,), pull)


def log(x: Tensor) -> Tensor:
    xv = x.values
    if xv.size and float(np.min(xv)) <= 0.0:
        raise NonFiniteError("log needs strictly positive input")

    def pull(g: np.ndarray):
        return (g / xv,)

    return _result(np.log(xv), (x,), pull)


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


def log_softmax_rows(x: Tensor) -> Tensor:
    """Row-wise log of the softmax (a rank-1 tensor is treated as a single row).

    Computed by log-sum-exp on max-shifted rows, so it stays finite at
    logit spreads where the softmax itself underflows to 0 and its ``log``
    would raise.
    """
    if x.ndim not in (1, 2):
        raise ShapeError(f"log_softmax_rows needs rank 1 or 2, got shape {x.shape}")
    shifted = x.values - np.max(x.values, axis=-1, keepdims=True)
    out = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    s = np.exp(out)

    def pull(g: np.ndarray):
        return (g - s * np.sum(g, axis=-1, keepdims=True),)

    return _result(out, (x,), pull)


def segment_attention(q: Tensor, k: Tensor, v: Tensor, length: int, lengths=None) -> Tensor:
    """Scaled dot-product attention inside consecutive blocks of ``length`` rows.

    ``q``, ``k`` and ``v`` stack n sequences of ``length`` rows each.  Row i
    attends only to the rows of its own block, with weights
    ``softmax_j(q_i . k_j / sqrt(d))`` for a query width of d.  The blocks
    are worked as (n, length, length) arrays, so memory grows with n and
    not with the square of n that a dense block-diagonal mask would need.
    With ``lengths``, block i's rows past ``lengths[i]`` are dead: as keys
    they get weight exactly 0, as queries they output exactly zero rows.
    """
    if q.ndim != 2 or k.shape != q.shape or v.ndim != 2 or v.shape[0] != q.shape[0]:
        raise ShapeError(f"segment_attention: need q, k of one shape and v of as many rows, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    rows, d = q.shape
    if length < 1 or rows == 0 or rows % length:
        raise ShapeError(f"segment_attention: {rows} rows do not split into blocks of {length}")
    n = rows // length
    c = 1.0 / math.sqrt(d)
    qb = q.values.reshape(n, length, d)
    kb = k.values.reshape(n, length, d)
    vb = v.values.reshape(n, length, v.shape[1])
    scores = (qb @ kb.transpose(0, 2, 1)) * c
    if lengths is not None:
        lengths = np.asarray(lengths)
        if lengths.shape != (n,) or lengths.min() < 1 or lengths.max() > length:
            raise ShapeError(f"segment_attention: need {n} block lengths in [1, {length}]")
        live = np.arange(length) < lengths[:, None]
        scores = np.where(live[:, None, :], scores, -np.inf)
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    w = e / np.sum(e, axis=-1, keepdims=True)
    if lengths is not None:
        w = w * live[:, :, None]

    def pull(g: np.ndarray):
        gb = g.reshape(n, length, -1)
        gq = gk = None
        if q.requires_grad or k.requires_grad:
            gw = gb @ vb.transpose(0, 2, 1)
            gs = w * (gw - np.sum(gw * w, axis=-1, keepdims=True)) * c
            gq = (gs @ kb).reshape(rows, d) if q.requires_grad else None
            gk = (gs.transpose(0, 2, 1) @ qb).reshape(rows, d) if k.requires_grad else None
        gv = (w.transpose(0, 2, 1) @ gb).reshape(rows, -1) if v.requires_grad else None
        return gq, gk, gv

    return _result((w @ vb).reshape(rows, v.shape[1]), (q, k, v), pull)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale to unit Euclidean norm (row-wise on matrices).

    The denominator is guarded at 1e-12, so a zero vector maps to the zero
    vector instead of raising; any input with a larger norm comes out unit
    length to machine precision.
    """
    if x.ndim not in (1, 2):
        raise ShapeError(f"l2_normalize needs rank 1 or 2, got shape {x.shape}")
    xv = x.values
    n = np.sqrt(np.sum(xv * xv, axis=-1, keepdims=True))
    d = np.maximum(n, 1e-12)
    live = n > 1e-12  # below the guard the map is x / const, so no norm term

    def pull(g: np.ndarray):
        inner = np.sum(g * xv, axis=-1, keepdims=True)
        return (g / d - xv * (live * inner / (d * d * d)),)

    return _result(xv / d, (x,), pull)


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    if axis is not None and not (0 <= axis < x.ndim):
        raise ShapeError(f"sum axis {axis} out of range for shape {x.shape}")
    xv = x.values

    def pull(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, xv.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), xv.shape).copy(),)

    return _result(np.asarray(np.sum(xv, axis=axis)), (x,), pull)


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
    # a parameter the loss never touches keeps whatever .grad an earlier
    # backward left on it, so start the measurement from a clean slate
    for p in params.values():
        if p.requires_grad:
            p.grad = None

    with Graph() as graph:
        loss = loss_fn(params)
    if loss.shape != ():
        raise ShapeError("grad_check needs a scalar-valued loss_fn")
    graph.backward(loss)

    report = GradCheckReport(step=step, tolerance=tolerance)
    for name in sorted(params):
        p = params[name]
        if not p.requires_grad:
            continue
        recorded = p.grad if p.grad is not None else np.zeros_like(p.values)
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
