import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcum import diffcore as dc

import tape_ops as ops


def finite_arrays(max_rows=4, max_cols=4):
    elems = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.lists(st.lists(elems, min_size=n, max_size=n), min_size=m, max_size=m)
        )
    )


def test_tensor_rejects_non_finite():
    with pytest.raises(dc.NonFiniteError):
        dc.Tensor([1.0, float("nan")])
    with pytest.raises(dc.NonFiniteError):
        dc.Tensor([float("inf")])


@pytest.mark.filterwarnings("error")
def test_finite_values_whose_sum_overflows_make_a_tensor():
    # the entries decide, and checking them overflows nothing, so no warning is raised
    assert np.all(dc.Tensor(np.full((2, 2), 1e308)).values == 1e308)
    with pytest.raises(dc.NonFiniteError):
        dc.Tensor([[1e308, 1e308], [np.inf, 0.0]])
    # and a finite gradient whose sum overflows is delivered as it is
    x = dc.Tensor([0.0, 0.0], requires_grad=True)
    with dc.Graph() as g:
        loss = ops.reduce_sum(dc.mul(x, dc.constant([1e308, 1e308])))
    assert g.backward(loss)[x].tolist() == [1e308, 1e308]


def test_tensor_values_are_immutable():
    t = dc.Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.values[0] = 9.0


def test_tensor_rank_limit():
    with pytest.raises(dc.ShapeError):
        dc.Tensor(np.zeros((2, 2, 2)))


def test_add_scalar_and_row_broadcast():
    m = dc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    row = dc.Tensor([10.0, 20.0])
    s = dc.Tensor(100.0)
    np.testing.assert_array_equal(dc.add(m, row).values, [[11.0, 22.0], [13.0, 24.0]])
    np.testing.assert_array_equal(dc.add(m, s).values, [[101.0, 102.0], [103.0, 104.0]])
    with pytest.raises(dc.ShapeError):
        dc.add(m, dc.Tensor([1.0, 2.0, 3.0]))


def test_matmul_shapes_and_values():
    a = dc.Tensor([[1.0, 2.0], [3.0, 4.0]])
    col = dc.Tensor([[1.0], [1.0]])
    np.testing.assert_array_equal(dc.matmul(a, col).values, [[3.0], [7.0]])
    np.testing.assert_array_equal(dc.matmul(dc.transpose(col), a).values, [[4.0, 6.0]])
    with pytest.raises(dc.ShapeError):
        dc.matmul(a, dc.Tensor([[1.0, 2.0, 3.0]]))
    # only (m,k) @ (k,n): a rank-1 operand on either side is refused
    v = dc.Tensor([1.0, 1.0])
    for lhs, rhs in ((a, v), (v, a), (v, v)):
        with pytest.raises(dc.ShapeError):
            dc.matmul(lhs, rhs)


def test_matmul_gradient_of_sum_is_counterpart_transpose():
    # loss = sum(A @ B) has dA = ones @ B^T and dB = A^T @ ones.
    rng = np.random.default_rng(0)
    av, bv = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    a, b = dc.Tensor(av, requires_grad=True), dc.Tensor(bv, requires_grad=True)
    with dc.Graph() as g:
        loss = ops.reduce_sum(dc.matmul(a, b))
    grads = g.backward(loss)
    ones = np.ones((3, 2))
    np.testing.assert_allclose(grads[a], ones @ bv.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads[b], av.T @ ones, rtol=0, atol=1e-12)


def _softmax(rows):
    """Row-wise softmax in numpy, the oracle for the log-softmax and attention ops."""
    e = np.exp(rows - np.max(rows, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def _log_softmax_of(rows):
    """The op's log-softmax, entry by entry: a one-hot target picks one entry of the matrix."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    out = np.empty_like(rows)
    for index in np.ndindex(rows.shape):
        pick = np.zeros_like(rows)
        pick[index] = 1.0
        out[index] = -dc.soft_target_nll(dc.Tensor(rows), pick, 1).item()
    return out


def test_softmax_known_values():
    # expected values from direct evaluation of exp/sum in double precision
    out = np.exp(_log_softmax_of([1.0, 2.0, 3.0]))[0]
    expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-5)


def test_softmax_uniform_and_peak():
    np.testing.assert_allclose(np.exp(_log_softmax_of([0.5, 0.5, 0.5, 0.5]))[0], np.full(4, 0.25), atol=1e-15)
    peaked = np.exp(_log_softmax_of([1000.0, 0.0, 0.0]))[0]
    assert peaked[0] > 1.0 - 1e-12
    assert peaked[1] == peaked[2]


@settings(max_examples=60, deadline=None)
@given(finite_arrays())
def test_softmax_rows_sum_to_one(rows):
    out = np.exp(_log_softmax_of(rows))
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(len(rows)), rtol=0, atol=1e-12)
    assert (out >= 0).all()


@settings(max_examples=60, deadline=None)
@given(finite_arrays(), st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_log_softmax_matches_log_of_softmax(rows, seed, n):
    rows = np.asarray(rows)
    targets = np.random.default_rng(seed).random(rows.shape)
    expected = -np.sum(np.log(_softmax(rows)) * targets) / n
    got = dc.soft_target_nll(dc.Tensor(rows), targets, n).item()
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_log_softmax_stays_finite_at_a_large_spread():
    # log(softmax) underflows to log(0) here; log-sum-exp does not
    x = dc.Tensor([[1e4, 0.0, -1e4], [0.0, 5e3, -5e3]], requires_grad=True)
    w = np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(_log_softmax_of(x.values), [[0.0, -1e4, -2e4], [-5e3, 0.0, -1e4]])
    with dc.Graph() as g:
        loss = dc.soft_target_nll(x, w, 1)
    assert loss.item() == 1.6e4
    grads = g.backward(loss)
    # d/dx -sum(w * log_softmax(x)) = softmax(x) * rowsum(w) - w, softmax one-hot here
    np.testing.assert_array_equal(grads[x], [[0.8, -0.5, -0.3], [-1.0, 1.0, 0.0]])


def test_soft_target_nll_rejects_bad_operands():
    x = dc.Tensor(np.zeros((2, 3)))
    for targets, n in ((np.zeros((3, 2)), 1), (np.zeros(3), 1), (np.zeros((2, 3)), 0)):
        with pytest.raises(dc.ShapeError):
            dc.soft_target_nll(x, targets, n)
    with pytest.raises(dc.ShapeError):
        dc.soft_target_nll(dc.Tensor(np.zeros(3)), np.zeros(3), 1)
    with pytest.raises(dc.NonFiniteError):
        dc.soft_target_nll(x, np.full((2, 3), np.nan), 1)


def _masked_blocks(seed=12, n=4, length=4, d=3):
    """One query row per block and ``n`` blocks of ``length`` key and value rows, all trainable."""
    rng = np.random.default_rng(seed)
    return [dc.Tensor(rng.normal(size=(rows, d)), requires_grad=True) for rows in (n, n * length, n * length)]


def _attention_per_block(q, k, v, length, lengths):
    """Each block's one-query attention in plain numpy, block by block over its live rows."""
    out = []
    for i, live in enumerate(lengths):
        keys, values = k[i * length:i * length + live], v[i * length:i * length + live]
        scores = keys @ q[i] / math.sqrt(q.shape[1])
        w = np.exp(scores - scores.max())
        out.append(w / w.sum() @ values)
    return np.stack(out)


def test_segment_attention_matches_attention_per_block():
    rng = np.random.default_rng(11)
    q, k, v = rng.normal(size=(2, 4)), rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
    out = dc.segment_attention(dc.Tensor(q), dc.Tensor(k), dc.Tensor(v), 3).values
    for b in range(2):
        expected = _softmax(q[b] @ k[3 * b:3 * b + 3].T * 0.5) @ v[3 * b:3 * b + 3]
        np.testing.assert_allclose(out[b], expected, rtol=0, atol=1e-12)
    q, k, v = (t.values for t in _masked_blocks())
    for lengths in ([4, 4, 4, 4], [1, 3, 4, 2]):
        out = dc.segment_attention(dc.Tensor(q), dc.Tensor(k), dc.Tensor(v), 4, lengths).values
        assert np.max(np.abs(out - _attention_per_block(q, k, v, 4, lengths))) < 1e-12


def test_segment_attention_rejects_bad_blocks():
    x, q = dc.Tensor(np.ones((6, 2))), dc.Tensor(np.ones((2, 2)))
    with pytest.raises(dc.ShapeError):
        dc.segment_attention(q, x, x, 4)  # 6 rows do not split into blocks of 4
    with pytest.raises(dc.ShapeError):
        dc.segment_attention(q, x, x, 0)
    with pytest.raises(dc.ShapeError):
        dc.segment_attention(q, dc.Tensor(np.ones((6, 3))), x, 3)  # query and key widths differ
    with pytest.raises(dc.ShapeError):
        dc.segment_attention(q, x, dc.Tensor(np.ones((5, 2))), 3)
    with pytest.raises(dc.ShapeError):
        dc.segment_attention(x, x, x, 3)  # a query row per key row, not one per block


def _segment_attention_grad_check(n, lengths):
    q, k, v = _masked_blocks(n=n)
    params = {"q": q, "k": k, "v": v}

    def loss_fn(p):
        out = dc.segment_attention(p["q"], p["k"], p["v"], 4, lengths)
        return ops.reduce_sum(dc.mul(out, dc.tanh(out)))

    report = dc.grad_check(loss_fn, params, step=1e-5, tolerance=1e-4)
    assert report.ok, report.failures[:3]


def test_segment_attention_masked_grad_check():
    # block lengths 1, 3, 4 (full) and 2
    _segment_attention_grad_check(4, [1, 3, 4, 2])


@pytest.mark.parametrize("length", [3, 1])
def test_segment_attention_grad_check_on_one_block(length):
    _segment_attention_grad_check(1, [length])


def test_segment_attention_full_lengths_equal_no_mask():
    q, k, v = _masked_blocks()
    plain = dc.segment_attention(q, k, v, 4)
    full = dc.segment_attention(q, k, v, 4, np.full(4, 4))
    assert plain.values.tobytes() == full.values.tobytes()


def test_segment_attention_dead_rows():
    q, k, v = _masked_blocks()
    lengths = [1, 3, 4, 2]
    live = (np.arange(4) < np.array(lengths)[:, None]).ravel()
    w = np.random.default_rng(13).normal(size=(4, 3))
    with dc.Graph() as g:
        out = dc.segment_attention(q, k, v, 4, lengths)
        loss = ops.reduce_sum(dc.mul(out, dc.constant(w)))
    grads = g.backward(loss)
    for t in (k, v):
        assert not np.any(grads[t][~live])
    # a block's output is untouched by what its dead rows hold
    poked = [dc.Tensor(np.where(live[:, None], t.values, 1e3)) for t in (k, v)]
    again = dc.segment_attention(q, *poked, 4, lengths)
    assert np.array_equal(again.values, out.values)
    # one block alone gives the same bits as in the stack
    alone = dc.segment_attention(dc.Tensor(q.values[1:2]), *(dc.Tensor(t.values[4:8]) for t in (k, v)), 4, [3])
    assert np.array_equal(alone.values, out.values[1:2])


def test_segment_attention_rejects_bad_lengths():
    x, q = dc.Tensor(np.ones((6, 2))), dc.Tensor(np.ones((2, 2)))
    for lengths in ([0, 3], [1, 4], [3], [1, 2, 3], np.ones((2, 1))):
        with pytest.raises(dc.ShapeError):
            dc.segment_attention(q, x, x, 3, lengths)


def test_non_finite_forward_names_the_op():
    with pytest.raises(dc.NonFiniteError, match="^exp: tensor contains"):
        ops.exp(dc.Tensor([1000.0]))
    with np.errstate(over="ignore"), pytest.raises(dc.NonFiniteError, match="^matmul: tensor contains"):
        dc.matmul(dc.Tensor([[1e200]]), dc.Tensor([[1e200]]))


def test_non_finite_gradient_names_the_op():
    x = dc.Tensor([1e-310, 1.0], requires_grad=True)  # log is finite, its gradient is not
    with dc.Graph() as g:
        loss = ops.reduce_sum(ops.scale(ops.log(x), 2.0))
    with np.errstate(over="ignore"), pytest.raises(dc.NonFiniteError, match="^log: gradient contains"):
        g.backward(loss)


def test_l2_normalize_values():
    np.testing.assert_allclose(dc.l2_normalize(dc.Tensor([3.0, 4.0])).values, [0.6, 0.8], atol=1e-12)
    np.testing.assert_array_equal(dc.l2_normalize(dc.Tensor([0.0, 0.0])).values, [0.0, 0.0])


def test_l2_normalize_raises_when_a_finite_row_norm_overflows():
    # 1e200 squared overflows, and x / inf used to come out as a zero row
    big = np.array([[1e200, 1e200], [3.0, 4.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(dc.NonFiniteError, match="l2_normalize"):
            dc.l2_normalize(dc.Tensor(big))
        with dc.Graph():
            with pytest.raises(dc.NonFiniteError, match="l2_normalize"):
                dc.l2_normalize(dc.Tensor(big, requires_grad=True))
        # inside a graph, an earlier non-finite op is named instead
        with dc.Graph():
            ops.exp(dc.Tensor([1e3], requires_grad=True))
            with pytest.raises(dc.NonFiniteError, match="exp"):
                dc.l2_normalize(dc.Tensor(big, requires_grad=True))
    # a row of 1e150 has a finite norm and keeps the bits of x / norm
    row = np.array([1e150, -2e150, 3e150])
    out = dc.l2_normalize(dc.Tensor(row)).values
    assert out.tobytes() == (row / np.sqrt(np.sum(row * row, axis=-1, keepdims=True))).tobytes()


@settings(max_examples=60, deadline=None)
@given(finite_arrays())
def test_l2_normalize_rows_unit_norm(rows):
    arr = np.asarray(rows)
    out = dc.l2_normalize(dc.Tensor(arr)).values
    norms = np.linalg.norm(out, axis=-1)
    nonzero = np.linalg.norm(arr, axis=-1) > 1e-9
    np.testing.assert_allclose(norms[nonzero], 1.0, rtol=0, atol=1e-12)


def test_gather_rows_gives_left_out_rows_zero_gradient():
    x = dc.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], requires_grad=True)
    with dc.Graph() as g:
        kept = dc.gather_rows(x, [0, 2])
        loss = ops.reduce_sum(kept)
    np.testing.assert_array_equal(kept.values, [[1.0, 2.0], [5.0, 6.0]])
    grads = g.backward(loss)
    np.testing.assert_array_equal(grads[x], [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])


def test_gather_rows_accumulates_repeated_indices():
    x = dc.Tensor([[1.0, 0.0], [0.0, 1.0]], requires_grad=True)
    with dc.Graph() as g:
        out = dc.gather_rows(x, [1, 0, 1])
        loss = ops.reduce_sum(out)
    grads = g.backward(loss)
    np.testing.assert_array_equal(out.values, [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(grads[x], [[1.0, 1.0], [2.0, 2.0]])


_SUMMANDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e16, -1e16]),
                      st.floats(min_value=-1e6, max_value=1e6))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 3),
    st.lists(st.integers(0, n - 1), min_size=1, max_size=12),
    st.lists(_SUMMANDS, min_size=36, max_size=36))))
def test_gather_rows_backward_is_the_add_at_scatter_bit_for_bit(case):
    n, d, idx, terms = case
    upstream = np.array(terms[:len(idx) * d]).reshape(len(idx), d)
    x = dc.Tensor(np.ones((n, d)), requires_grad=True)
    with dc.Graph() as g:
        loss = ops.reduce_sum(dc.mul(dc.gather_rows(x, idx), dc.constant(upstream)))
    grads = g.backward(loss)
    # the oracle: np.add.at adds each row's terms in index order onto +0.0
    want = np.zeros((n, d))
    np.add.at(want, np.asarray(idx), upstream)
    assert grads[x].shape == want.shape
    assert np.array_equal(grads[x].view(np.int64), want.view(np.int64)), (grads[x], want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=4).flatmap(lambda sizes: st.tuples(
    st.just(sizes), st.integers(1, 3),
    st.lists(st.integers(0, sum(max(s, 1) for s in sizes) - 1), min_size=1, max_size=12),
    st.sets(st.integers(0, len(sizes) - 1), min_size=1), st.integers(0, 2**16))))
def test_gather_rows_over_parts_is_concat_then_gather_bit_for_bit(case):
    sizes, d, idx, trainable, seed = case
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(s, d) if s else d) for s in sizes]  # a size of 0 is a rank-1 part
    # the value and each part's gradient; a frozen part gets none on either side
    _same_bits(lambda *t: dc.gather_rows(t, idx),
               lambda *t: dc.gather_rows(ops.concat([ops.stack([p]) if p.ndim == 1 else p for p in t]), idx),
               arrays, tuple(trainable), seed)


def test_gather_rows_over_parts_numbers_rows_through_them_in_order():
    a = dc.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    v = dc.Tensor([5.0, 6.0], requires_grad=True)
    frozen = dc.Tensor([[7.0, 8.0]])
    with dc.Graph() as g:
        out = dc.gather_rows([v, frozen, a], [3, 0, 1, 0])
        loss = ops.reduce_sum(dc.mul(out, dc.constant(np.arange(8.0).reshape(4, 2))))
    np.testing.assert_array_equal(out.values, [[3.0, 4.0], [5.0, 6.0], [7.0, 8.0], [5.0, 6.0]])
    grads = g.backward(loss)
    assert grads.keys() == {a, v}
    np.testing.assert_array_equal(grads[v], [8.0, 10.0])
    np.testing.assert_array_equal(grads[a], [[0.0, 0.0], [0.0, 1.0]])


def test_gather_rows_needs_parts_of_one_width():
    m = dc.Tensor(np.ones((2, 3)))
    for parts in ([], [m, dc.Tensor(np.ones((1, 2)))], [m, dc.Tensor(np.ones(2))], [m, dc.Tensor(1.0)],
                  dc.Tensor(1.0)):
        with pytest.raises(dc.ShapeError):
            dc.gather_rows(parts, [0])
    with pytest.raises(dc.ShapeError):
        dc.gather_rows([m, dc.Tensor(np.ones(3))], [3])
    assert dc.gather_rows([m, dc.Tensor(np.zeros(3))], [2]).values.tolist() == [[0.0, 0.0, 0.0]]


def test_concat_and_stack_round_trip_gradients():
    a = dc.Tensor([1.0, 2.0], requires_grad=True)
    b = dc.Tensor([3.0, 4.0], requires_grad=True)
    c = dc.Tensor([[5.0, 6.0]], requires_grad=True)
    with dc.Graph() as g:
        m = ops.stack([a, b])
        tall = ops.concat([m, c, m])
        loss = ops.reduce_sum(dc.mul(tall, dc.constant(np.arange(10.0).reshape(5, 2))))
    np.testing.assert_array_equal(tall.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [1.0, 2.0], [3.0, 4.0]])
    grads = g.backward(loss)
    np.testing.assert_array_equal(grads[a], [6.0, 8.0])
    np.testing.assert_array_equal(grads[b], [10.0, 12.0])
    np.testing.assert_array_equal(grads[c], [[4.0, 5.0]])


def test_concat_needs_matrices_of_one_width():
    m = dc.Tensor(np.ones((2, 3)))
    for parts in ([], [m, dc.Tensor(np.ones((1, 2)))], [m, dc.Tensor(np.ones(3))], [dc.Tensor(1.0)]):
        with pytest.raises(dc.ShapeError):
            ops.concat(parts)


def test_clamp_min_value_and_gradient_gate():
    x = dc.Tensor([-1.0, 0.5, 2.0], requires_grad=True)
    with dc.Graph() as g:
        y = dc.clamp_min(x, 0.0)
        loss = ops.reduce_sum(y)
    np.testing.assert_array_equal(y.values, [0.0, 0.5, 2.0])
    grads = g.backward(loss)
    np.testing.assert_array_equal(grads[x], [0.0, 1.0, 1.0])


def test_reduce_mean_value_and_gradient():
    x = dc.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    assert dc.reduce_mean(x).item() == 2.5
    with dc.Graph() as g:
        loss = dc.reduce_mean(x)
    grads = g.backward(loss)
    np.testing.assert_array_equal(grads[x], [[0.25, 0.25], [0.25, 0.25]])


def test_graph_backward_twice_is_an_error():
    x = dc.Tensor([1.0, 2.0], requires_grad=True)
    with dc.Graph() as g:
        loss = ops.reduce_sum(dc.mul(x, x))
    g.backward(loss)
    with pytest.raises(dc.GraphError):
        g.backward(loss)


def test_graph_reuse_and_nesting_rejected():
    g = dc.Graph()
    with g:
        pass
    with pytest.raises(dc.GraphError):
        with g:
            pass
    with dc.Graph():
        with pytest.raises(dc.GraphError):
            with dc.Graph():
                pass


def test_backward_requires_scalar_with_path():
    x = dc.Tensor([1.0, 2.0], requires_grad=True)
    with dc.Graph() as g:
        y = dc.mul(x, x)
    with pytest.raises(dc.ShapeError):
        g.backward(y)
    frozen = dc.Tensor([1.0], requires_grad=False)
    with dc.Graph() as g2:
        z = ops.reduce_sum(dc.mul(frozen, frozen))
    with pytest.raises(dc.GraphError):
        g2.backward(z)


def test_no_recording_outside_graph():
    x = dc.Tensor([1.0, 2.0], requires_grad=True)
    y = ops.reduce_sum(dc.mul(x, x))
    assert not y.requires_grad


def test_gradient_accumulates_across_shared_use():
    x = dc.Tensor(3.0, requires_grad=True)
    with dc.Graph() as g:
        loss = ops.reduce_sum(dc.mul(x, x))  # d/dx x^2 = 2x via two parent slots
    grads = g.backward(loss)
    assert grads[x] == pytest.approx(6.0, abs=1e-12)


def test_backward_returns_the_gradients_of_exactly_the_leaves_it_reached():
    x = dc.Tensor([1.0, 2.0], requires_grad=True)
    y = dc.Tensor([3.0, 4.0], requires_grad=True)
    with dc.Graph() as g:
        xy = dc.mul(x, y)
        loss = ops.reduce_sum(dc.mul(xy, dc.constant([1.0, -1.0])))
    first = g.backward(loss)
    # frozen operands and recorded outputs get no entry
    assert first.keys() == {x, y}
    np.testing.assert_array_equal(first[x], [3.0, -4.0])
    np.testing.assert_array_equal(first[y], [1.0, -2.0])
    # a leaf the next loss does not reach is absent from its mapping, and
    # no gradient stays behind on a tensor
    with dc.Graph() as g:
        loss = ops.reduce_sum(dc.mul(y, y))
    second = g.backward(loss)
    assert second.keys() == {y}
    np.testing.assert_array_equal(second[y], [6.0, 8.0])
    assert not hasattr(x, "grad") and not hasattr(y, "grad")


def test_ops_are_bit_deterministic():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(4, 3))

    def run():
        t = dc.matmul(dc.Tensor(a), dc.Tensor(b))
        pair = ops.concat([t, dc.tanh(t)])
        w, pos = dc.Tensor(b[:3]), dc.Tensor(a[:, :3])
        return np.concatenate([dc.l2_normalize(ops.exp(t)).values.ravel(),
                               [dc.soft_target_nll(t, np.abs(a[:, :3]), 5).item()],
                               dc.segment_attention(dc.gather_rows(t, [0, 1]), ops.exp(pair), pair, 5).values.ravel(),
                               dc.attention_block(pair, w, w, w, w, 5).values.ravel(),
                               dc.attention_block(pair, w, w, w, w, 5, [2, 5], first_only=True).values.ravel(),
                               dc.row_distance(t, dc.tanh(t)).values,
                               dc.add_block_means(pair, dc.Tensor(b[:, :3]), [4, 1]).values.ravel(),
                               dc.attention_pool(pair, pos, w, w, w, w, w, 5, order=range(10)).values.ravel()])

    first, second = run(), run()
    assert first.tobytes() == second.tobytes()


def test_grad_check_sum_is_exact():
    params = {"w": dc.Tensor([[0.25, -0.5], [1.0, 2.0]], requires_grad=True)}

    def loss_fn(p):
        return ops.reduce_sum(p["w"])

    report = dc.grad_check(loss_fn, params)
    assert report.ok
    assert report.max_rel_error < 1e-9


def test_grad_check_reports_rather_than_raises():
    # A loss whose recorded gradient we sabotage by checking a pure value
    # function that ignores half the parameter.
    params = {"w": dc.Tensor([1.0, 2.0], requires_grad=True)}

    calls = {"n": 0}

    def loss_fn(p):
        calls["n"] += 1
        w = p["w"]
        if calls["n"] == 1:
            return ops.reduce_sum(dc.mul(w, w))  # recorded gradient: 2w
        return ops.reduce_sum(w)  # finite differences see gradient 1

    report = dc.grad_check(loss_fn, params)
    assert not report.ok
    assert report.failures
    assert report.max_rel_error > 1e-4


def _composite_terms(p):
    """Seven scalar terms over (w, v) that together reach every op."""
    w, v = p["w"], p["v"]
    h = dc.tanh(dc.matmul(ops.stack([v]), w))  # the row v @ w
    gram = dc.matmul(w, dc.transpose(w))
    sm = dc.l2_normalize(ops.exp(dc.tanh(gram)))
    picked = dc.gather_rows(sm, [0])
    unit = dc.l2_normalize(h)
    parts = ops.concat([unit, picked])
    clipped = dc.clamp_min(parts, -0.25)
    blocks = ops.concat([w, sm])  # three blocks of two rows
    attended = dc.segment_attention(dc.tanh(w), dc.tanh(blocks), dc.matmul(blocks, w), 2)
    block = dc.attention_block(blocks, w, dc.tanh(w), sm, dc.transpose(w), 3, [3, 2])
    means = dc.add_block_means(ops.concat([block, w]), dc.transpose(w), [2, 1, 2])
    terms = [dc.reduce_mean(dc.mul(clipped, clipped)), ops.reduce_sum(ops.log(ops.exp(ops.scale(h, 0.3)))),
             dc.soft_target_nll(gram, [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]], 3),
             dc.soft_target_nll(h, [[0.1, 0.1, 0.8]], 1),
             ops.reduce_sum(dc.mul(attended, attended)),
             ops.reduce_sum(dc.row_distance(means, dc.gather_rows(means, [2, 0, 1, 5, 3, 4, 6, 7, 8]))),
             ops.reduce_sum(dc.mul(means, dc.tanh(means)))]
    return terms


def _composite_point(seed: int):
    """(w, v) drawn from ``seed`` where finite differences resolve v's gradient.

    v enters the loss only through h = tanh(v @ w).  Where h saturates,
    v's gradient sinks below what differences of this loss resolve, so v is
    scaled back until tanh still bends.  Where grad_check's steps of v move
    an entry of l2_normalize(h) across the clamp at -0.25, the differences
    straddle its kink, so v is drawn again.
    """
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(3, 3))
    while True:
        v = rng.normal(size=3)
        v *= min(1.0, 2.0 / np.abs(v @ w).max())
        h = np.tanh((v + 1e-5 * np.concatenate([np.zeros((1, 3)), np.eye(3), -np.eye(3)])) @ w)
        side = h / np.linalg.norm(h, axis=1, keepdims=True) > -0.25
        if (side == side[0]).all():
            return w, v


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000))
@example(2150)  # v @ w is [-9.8, 7.9, 11.2]: drawn as is, v's gradient is about 5.7e-7
@example(3050)  # drawn as is, a step of v moves l2_normalize(h)[1] = -0.24994 across the clamp
def test_grad_check_on_composites(seed):
    # Each term is checked on its own: summed, the terms' rounding in a loss
    # near 60 swamps a cancelled gradient entry (v's at seed 1403 is 4.4e-6).
    w, v = _composite_point(seed)
    params = {"w": dc.Tensor(w, requires_grad=True), "v": dc.Tensor(v, requires_grad=True)}
    for term in range(7):
        report = dc.grad_check(lambda p: _composite_terms(p)[term], params)
        assert report.ok, (term, report.failures[:3])
        assert report.max_rel_error < 1e-4


def test_grad_check_skips_frozen_parameters():
    params = {
        "w": dc.Tensor([1.0, 2.0], requires_grad=True),
        "frozen": dc.Tensor([5.0], requires_grad=False),
    }

    def loss_fn(p):
        return ops.reduce_sum(dc.mul(p["w"], p["w"]))

    report = dc.grad_check(loss_fn, params)
    assert set(report.per_param) == {"w"}


# --------------------------------------------------------------------------
# Deferred finiteness checks inside a recording graph


def test_non_finite_value_reaching_the_loss_raises_at_backward_naming_its_op():
    x = dc.Tensor([1.0, 2.0], requires_grad=True)
    with dc.Graph() as g:
        big = ops.exp(ops.scale(x, 1e3))  # overflows, but nothing checks it while recording
        loss = ops.reduce_sum(dc.mul(big, x))
    assert not np.isfinite(loss.values)
    # the first non-finite op is named, not the later ones its value reached
    with pytest.raises(dc.NonFiniteError, match="^exp: tensor contains NaN or infinite values$"):
        g.backward(loss)


def test_non_finite_value_off_the_loss_path_does_not_raise():
    x = dc.Tensor([1.0, 2.0], requires_grad=True)
    with dc.Graph() as g:
        ops.exp(ops.scale(x, 1e3))  # recorded, but neither the loss nor a gradient reads it
        loss = ops.reduce_sum(dc.mul(x, x))
    grads = g.backward(loss)
    np.testing.assert_array_equal(grads[x], [2.0, 4.0])
    # outside a graph the same op raises as it makes the value
    with pytest.raises(dc.NonFiniteError, match="^exp: "):
        ops.exp(ops.scale(x, 1e3))


def test_an_error_while_recording_reports_an_earlier_non_finite_value():
    # an eager check would have stopped at the overflow before the later error
    x = dc.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(dc.NonFiniteError, match="^exp: ") as caught:
        with dc.Graph():
            ops.exp(ops.scale(x, 1e3))
            raise ValueError("a later check fails on what the overflow left")
    assert isinstance(caught.value.__context__, ValueError)
    with pytest.raises(ValueError):
        with dc.Graph():
            ops.exp(x)
            raise ValueError("nothing non-finite was recorded")


def test_item_rejects_a_non_finite_value():
    x = dc.Tensor([1.0, 2.0], requires_grad=True)
    with dc.Graph():
        total = ops.reduce_sum(ops.exp(ops.scale(x, 1e3)))
        with pytest.raises(dc.NonFiniteError, match="^exp: "):
            total.item()
    # read once its graph has stopped recording, the value names no op
    with pytest.raises(dc.NonFiniteError, match="^item: "):
        total.item()


def test_check_finite_names_the_op_inside_a_graph_and_the_reader_outside():
    dc.check_finite(np.ones(3), "reader")
    with pytest.raises(dc.NonFiniteError, match="^reader: "):
        dc.check_finite(np.array([1.0, np.nan]), "reader")
    x = dc.Tensor([[1.0, 2.0]], requires_grad=True)
    with dc.Graph():
        dc.tanh(x)
        y = ops.log(ops.exp(ops.scale(x, 1e3)))  # exp overflows, log keeps the inf
        with pytest.raises(dc.NonFiniteError, match="^exp: "):
            dc.check_finite(y.values, "reader")


# --------------------------------------------------------------------------
# The fused ops against the composed ops they replace, bit for bit


def _old_log_softmax_rows(x):
    """The log-sum-exp op the soft-target loss replaced, kept as its oracle's first node."""
    shifted = x.values - np.max(x.values, axis=-1, keepdims=True)
    out = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    s = np.exp(out)

    def log_softmax_rows(g):
        return (g - s * np.sum(g, axis=-1, keepdims=True),)

    return dc._result(out, (x,), log_softmax_rows)


def _composed_attention_block(x, wq, wk, wv, wo, length, lengths=None):
    ctx = ops.self_attention(dc.matmul(x, wq), dc.matmul(x, wk), dc.matmul(x, wv), length, lengths)
    return dc.add(x, dc.matmul(ctx, wo))


def _composed_attention_readout(x, wq, wk, wv, wo, length, lengths=None):
    first = dc.gather_rows(x, np.arange(0, x.shape[0], length))
    ctx = dc.segment_attention(dc.matmul(first, wq), dc.matmul(x, wk), dc.matmul(x, wv), length, lengths)
    return dc.add(first, dc.matmul(ctx, wo))


def _composed_soft_target_nll(logits, targets, n):
    return ops.scale(ops.reduce_sum(dc.mul(_old_log_softmax_rows(logits), dc.constant(targets))), -1.0 / n)


def _composed_row_distance(a, b):
    diff = dc.sub(a, b)
    d2 = dc.clamp_min(ops.reduce_sum(dc.mul(diff, diff), axis=1), 1e-12)
    return ops.exp(ops.scale(ops.log(d2), 0.5))


def _composed_add_block_means(blocks, em, counts):
    counts = np.asarray(counts)
    rows, dim = blocks.shape
    b, slots = counts.size, rows // counts.size - 1
    starts = np.arange(b) * (slots + 1)
    members = (starts[:, None] + np.arange(1, slots + 1)).ravel()
    weighted = dc.mul(dc.gather_rows(em, np.tile(np.arange(slots), b)), dc.gather_rows(blocks, members))
    means = dc.segment_attention(dc.constant(np.zeros((b, 1))), dc.constant(np.zeros((b * slots, 1))),
                                 weighted, slots, counts)
    pick = np.full(rows, b)
    pick[starts] = np.arange(b)
    padded = ops.concat([means, dc.constant(np.zeros((1, dim)))])
    return dc.add(blocks, dc.gather_rows(padded, pick))


def _same_bits(fused, composed, arrays, trainable, seed=0):
    """Run both forms on fresh leaves and a random upstream; the value and every gradient share their bits."""
    runs = []
    for op in (fused, composed):
        leaves = [dc.Tensor(a, requires_grad=i in trainable) for i, a in enumerate(arrays)]
        with dc.Graph() as g:
            out = op(*leaves)
            upstream = np.random.default_rng(seed).normal(size=out.shape)
            loss = out if out.shape == () else ops.reduce_sum(dc.mul(out, dc.constant(upstream)))
        grads = g.backward(loss)
        runs.append([out.values] + [grads.get(t) for t in leaves])
    for got, want in zip(*runs):
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


_DIM = 48


@pytest.mark.parametrize("lengths", [None, [7, 1, 4, 6, 2]])
@pytest.mark.parametrize("trainable", [(0,), (1, 2, 3, 4), (0, 1, 2, 3, 4), (4,), (1,)])
def test_attention_block_is_the_composed_block_bit_for_bit(lengths, trainable):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(5 * 7, _DIM))
    ws = [rng.normal(scale=0.3, size=(_DIM, _DIM)) for _ in range(4)]
    for op_lengths in ([lengths] if lengths is None else [lengths, np.asarray(lengths)]):
        _same_bits(lambda *t: dc.attention_block(*t, 7, op_lengths),
                   lambda *t: _composed_attention_block(*t, 7, op_lengths), [x] + ws, trainable)


@pytest.mark.parametrize("lengths", [None, [7, 1, 4, 6, 2]])
@pytest.mark.parametrize("trainable", [(0,), (1, 2, 3, 4), (0, 1, 2, 3, 4), (4,), (1,)])
def test_attention_readout_is_the_composed_readout_bit_for_bit(lengths, trainable):
    rng = np.random.default_rng(26)
    x = rng.normal(size=(5 * 7, _DIM))
    ws = [rng.normal(scale=0.3, size=(_DIM, _DIM)) for _ in range(4)]
    _same_bits(lambda *t: dc.attention_block(*t, 7, lengths, first_only=True),
               lambda *t: _composed_attention_readout(*t, 7, lengths), [x] + ws, trainable)


def _block_parts(rng, counts, width):
    """A class token, a zero row and member rows at dim 48, and the order that lays them into blocks."""
    counts = np.asarray(counts)
    at = np.ones((counts.size, width), dtype=np.int64)
    at[:, 0] = 0
    at[:, 1:][np.arange(width - 1) < counts[:, None]] = 2 + np.arange(counts.sum())
    return [rng.normal(size=_DIM), np.zeros((1, _DIM)), rng.normal(size=(counts.sum(), _DIM))], at.ravel()


@pytest.mark.parametrize("first_only", [False, True])
@pytest.mark.parametrize("counts", [[3, 1, 2, 3], [2], [1]])
@pytest.mark.parametrize("trainable", [(2,), (0, 2), (0, 1, 2, 3, 4, 5, 6), (3, 4, 5, 6), (6,), (4,)])
def test_attention_block_over_parts_is_gather_then_block_bit_for_bit(first_only, counts, trainable):
    rng = np.random.default_rng(29)
    parts, order = _block_parts(rng, counts, 4)
    ws = [rng.normal(scale=0.3, size=(_DIM, _DIM)) for _ in range(4)]
    lengths = np.asarray(counts) + 1
    _same_bits(lambda *t: dc.attention_block(t[:3], *t[3:], 4, lengths, first_only=first_only, order=order),
               lambda *t: dc.attention_block(dc.gather_rows(t[:3], order), *t[3:], 4, lengths,
                                             first_only=first_only),
               parts + ws, trainable)


def test_attention_block_over_one_tensor_is_gather_then_block_bit_for_bit():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(6, _DIM))
    order = [5, 0, 0, 3, 2, 5, 1, 4]  # repeats, and a row left out
    ws = [rng.normal(scale=0.3, size=(_DIM, _DIM)) for _ in range(4)]
    _same_bits(lambda *t: dc.attention_block(t[0], *t[1:], 4, [4, 2], order=order),
               lambda *t: dc.attention_block(dc.gather_rows(t[0], order), *t[1:], 4, [4, 2]),
               [x] + ws, (0, 1, 2, 3, 4))


def test_attention_block_over_parts_passes_grad_check():
    rng = np.random.default_rng(31)
    order = [0, 2, 3, 1, 0, 4, 1, 1]  # blocks [cls; m0; m1; zero] and [cls; m2; zero; zero]

    def block(p):
        out = dc.attention_block([p["0"], dc.constant(np.zeros((1, 4))), p["1"]], p["2"], p["3"], p["4"], p["5"],
                                 4, [3, 2], order=order)
        return ops.reduce_sum(dc.mul(out, dc.tanh(out)))

    _grad_check_op(block, [rng.normal(size=4), rng.normal(size=(3, 4))]
                   + [rng.normal(scale=0.5, size=(4, 4)) for _ in range(4)])


def test_attention_block_over_parts_rejects_bad_operands():
    x, w = dc.Tensor(np.ones((3, 4))), dc.Tensor(np.ones((4, 4)))
    with pytest.raises(dc.ShapeError, match="needs an order"):
        dc.attention_block([x], w, w, w, w, 3)
    with pytest.raises(dc.ShapeError, match="index out of range"):
        dc.attention_block([x, dc.Tensor(np.ones(4))], w, w, w, w, 2, order=[0, 4])
    with pytest.raises(dc.ShapeError, match="one width"):
        dc.attention_block([x, dc.Tensor(np.ones(3))], w, w, w, w, 2, order=[0, 1])
    with pytest.raises(dc.ShapeError):
        dc.attention_block([x], w, w, w, w, 3, order=[0, 1])  # 2 rows do not split into blocks of 3


def _composed_attention_pool(*t, order, length):
    """The text encoder before it was one node: gather, add positions, block, block means, projection, norm."""
    *parts, pos, wq, wk, wv, wo, proj = t
    tokens = dc.gather_rows(parts, order)
    x = dc.add(tokens, dc.gather_rows(pos, np.tile(np.arange(length), tokens.shape[0] // length)))
    seq = dc.attention_block(x, wq, wk, wv, wo, length)
    return dc.l2_normalize(dc.matmul(ops.block_means(seq, length), proj))


def _pooled_before_wo(*t, order, length):
    """The same map pooled before the output projection: the mean of x plus the mean of the attention times wo."""
    *parts, pos, wq, wk, wv, wo, proj = t
    tokens = dc.gather_rows(parts, order)
    x = dc.add(tokens, dc.gather_rows(pos, np.tile(np.arange(length), tokens.shape[0] // length)))
    ctx = ops.self_attention(dc.matmul(x, wq), dc.matmul(x, wk), dc.matmul(x, wv), length)
    pooled = dc.add(ops.block_means(x, length), dc.matmul(ops.block_means(ctx, length), wo))
    return dc.l2_normalize(dc.matmul(pooled, proj))


def _pool_operands(rng, n, length, dim=_DIM):
    """Three parts (template rows, a table, a rank-1 row), an order over them with repeats and rows left out,
    a positional table longer than ``length``, and the weights."""
    parts = [rng.normal(size=(5, dim)), rng.normal(size=(30, dim)), rng.normal(size=dim)]
    order = rng.choice(np.r_[0:5, 7:35:2, 35], size=n * length)
    weights = [rng.normal(scale=0.3, size=(dim, dim)) for _ in range(5)]
    return parts, order, [rng.normal(size=(length + 3, dim))] + weights


# operands: 0-2 the parts, 3 pos, 4-7 wq, wk, wv, wo, 8 proj
_POOL_TRAINABLE = [(1,), (0, 1), (1, 2), (3,), (4, 5, 6, 7), (7,), (8,), (1, 8), tuple(range(9))]


@pytest.mark.parametrize("n, length", [(1, 9), (4, 28), (14, 9), (3, 1), (1, 1), (2, 5)])
@pytest.mark.parametrize("trainable", _POOL_TRAINABLE)
def test_attention_pool_is_the_composed_text_encoder_bit_for_bit(n, length, trainable):
    rng = np.random.default_rng(40 + n + length)
    parts, order, rest = _pool_operands(rng, n, length)
    _same_bits(lambda *t: dc.attention_pool(t[:3], *t[3:], length, order=order),
               lambda *t: _composed_attention_pool(*t, order=order, length=length), parts + rest, trainable)


@pytest.mark.parametrize("trainable", [(0,), (0, 1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6), ()])
def test_attention_pool_over_one_tensor_is_the_composed_encoder_bit_for_bit(trainable):
    rng = np.random.default_rng(41)
    x = rng.normal(size=(20, _DIM))
    order = rng.choice(np.r_[0:20:2, 5], size=3 * 9)  # repeats, and rows left out
    _, _, rest = _pool_operands(rng, 3, 9)
    if trainable:
        _same_bits(lambda *t: dc.attention_pool(t[0], *t[1:], 9, order=order),
                   lambda *t: _composed_attention_pool(*t, order=order, length=9), [x] + rest, trainable)
    leaves = [dc.Tensor(a) for a in [x] + rest]  # outside a recording graph
    assert (dc.attention_pool(leaves[0], *leaves[1:], 9, order=order).values.tobytes()
            == _composed_attention_pool(*leaves, order=order, length=9).values.tobytes())


def test_attention_pool_pooled_before_wo_fails_the_bit_test():
    # the same map up to rounding; the bit test tells the two apart
    rng = np.random.default_rng(42)
    parts, order, rest = _pool_operands(rng, 4, 28)
    leaves = [dc.Tensor(a) for a in parts + rest]
    fused = dc.attention_pool(leaves[:3], *leaves[3:], 28, order=order).values
    moved = _pooled_before_wo(*leaves, order=order, length=28).values
    np.testing.assert_allclose(moved, fused, rtol=0, atol=1e-12)
    with pytest.raises(AssertionError):
        _same_bits(lambda *t: dc.attention_pool(t[:3], *t[3:], 28, order=order),
                   lambda *t: _pooled_before_wo(*t, order=order, length=28), parts + rest, tuple(range(9)))


def test_attention_pool_passes_grad_check():
    rng = np.random.default_rng(43)
    parts, order, rest = _pool_operands(rng, 2, 3, dim=4)
    upstream = dc.constant(rng.normal(size=(2, 4)))

    def pooled(p):
        out = dc.attention_pool([p["0"], p["1"], p["2"]], *(p[str(i)] for i in range(3, 9)), 3, order=order)
        return ops.reduce_sum(dc.mul(out, upstream))

    _grad_check_op(pooled, parts + [a * 2.0 for a in rest])


def test_attention_pool_raises_on_a_non_finite_token():
    rng = np.random.default_rng(44)
    parts, order, rest = _pool_operands(rng, 2, 5)
    table = dc.Tensor(parts[1], requires_grad=True)
    with np.errstate(all="ignore"):
        with dc.Graph() as g:
            tokens = ops.exp(ops.scale(table, 1e3))  # an inf token, unchecked on the tape
            out = dc.attention_pool([dc.Tensor(parts[0]), tokens], *map(dc.Tensor, rest), 5,
                                    order=np.minimum(order, 34))
            loss = ops.reduce_sum(out)
        with pytest.raises(dc.NonFiniteError, match="^exp: "):
            g.backward(loss)
        huge = dc.Tensor(np.full((10, _DIM), 1e300))  # finite, but its products are not
        with pytest.raises(dc.NonFiniteError, match="^attention_pool: "):
            dc.attention_pool(huge, *map(dc.Tensor, rest), 5, order=range(10))


def test_attention_pool_rejects_bad_operands():
    x, w = dc.Tensor(np.ones((6, 4))), dc.Tensor(np.ones((4, 4)))
    pos, rows = dc.Tensor(np.ones((3, 4))), range(6)
    with pytest.raises(dc.ShapeError, match="index out of range"):
        dc.attention_pool([x], pos, w, w, w, w, w, 3, order=[0, 6, 1])
    with pytest.raises(dc.ShapeError, match="non-empty"):
        dc.attention_pool(x, pos, w, w, w, w, w, 3, order=[])
    with pytest.raises(dc.ShapeError):
        dc.attention_pool(x, pos, w, w, w, w, w, 4, order=rows)  # 6 rows do not split into sequences of 4
    with pytest.raises(dc.ShapeError):
        dc.attention_pool(x, dc.Tensor(np.ones((2, 4))), w, w, w, w, w, 3, order=rows)  # fewer positions
    with pytest.raises(dc.ShapeError):
        dc.attention_pool(x, pos, w, w, w, w, dc.Tensor(np.ones((3, 4))), 3, order=rows)  # proj does not take d
    with pytest.raises(dc.ShapeError):
        dc.attention_pool(x, pos, w, w, w, dc.Tensor(np.ones((4, 3))), w, 3, order=rows)  # wo does not return d


def _short_rows(rng, n, m, length):
    """(n, m, length) scores spread wide enough that the order of a sum shows, some masked to -inf."""
    scores = rng.normal(scale=20.0, size=(n, m, length))
    live = np.arange(length) < rng.integers(1, length + 1, size=n)[:, None]
    return np.where(live[:, None, :], scores, -np.inf)


@pytest.mark.parametrize("length", range(1, 8))
def test_short_rows_reduce_by_slices_with_numpys_bits(length):
    rng = np.random.default_rng(length)
    for n, m in ((1, 1), (5, 1), (5, length), (300, 1), (300, length)):
        scores = _short_rows(rng, n, m, length)
        top = dc._row_reduce(np.maximum, scores)
        assert top.tobytes() == np.max(scores, axis=-1, keepdims=True).tobytes()
        e = np.exp(scores - top)
        assert dc._row_reduce(np.add, e).tobytes() == np.sum(e, axis=-1, keepdims=True).tobytes()


@pytest.mark.parametrize("length", [8, 9, 12, 28])
def test_rows_of_8_and_more_take_numpys_reduction(length):
    rng = np.random.default_rng(length)
    e = np.exp(_short_rows(rng, 300, 3, length))
    total = dc._row_reduce(np.add, e)
    assert total.tobytes() == np.sum(e, axis=-1, keepdims=True).tobytes()
    chain = e[..., :1]
    for j in range(1, length):
        chain = chain + e[..., j:j + 1]
    assert chain.tobytes() != total.tobytes()  # numpy pairs these terms, so a left-to-right sum differs
    assert dc._row_reduce(np.maximum, e).tobytes() == np.max(e, axis=-1, keepdims=True).tobytes()


def _readout_per_block(x, wq, wk, wv, wo, length, lengths):
    """Each block's first row of the residual attention block, in plain numpy, block by block."""
    out = []
    for i, live in enumerate(lengths):
        rows = x[i * length:i * length + live]
        scores = (rows @ wk) @ (rows[0] @ wq) / math.sqrt(wq.shape[1])
        w = np.exp(scores - scores.max())
        out.append(rows[0] + (w / w.sum() @ (rows @ wv)) @ wo)
    return np.stack(out)


def test_attention_readout_matches_the_block_per_view():
    rng = np.random.default_rng(27)
    lengths = [7, 1, 4, 6, 2]
    x = rng.normal(size=(5 * 7, _DIM))
    ws = [rng.normal(scale=0.3, size=(_DIM, _DIM)) for _ in range(4)]
    out = dc.attention_block(dc.Tensor(x), *map(dc.Tensor, ws), 7, lengths, first_only=True).values
    assert np.max(np.abs(out - _readout_per_block(x, *ws, 7, lengths))) < 1e-12
    # the first rows of the whole block, up to the rounding of the narrower products
    whole = dc.attention_block(dc.Tensor(x), *map(dc.Tensor, ws), 7, lengths).values
    assert np.max(np.abs(out - whole[::7])) < 1e-12
    # a block alone, one-row products and all, has the bits it has in the stack
    for i, live in enumerate(lengths):
        alone = dc.attention_block(dc.Tensor(x[7 * i:7 * i + 7]), *map(dc.Tensor, ws), 7, [live], first_only=True)
        assert alone.values.tobytes() == out[i:i + 1].tobytes()


@pytest.mark.parametrize("n, lengths", [(2, [3, 2]), (1, [2]), (1, [1])])
def test_attention_readout_passes_grad_check(n, lengths):
    # masked blocks, and a one-block stack whose products are one row
    rng = np.random.default_rng(28)

    def readout(p):
        out = dc.attention_block(p["0"], p["1"], p["2"], p["3"], p["4"], 3, lengths, first_only=True)
        return ops.reduce_sum(dc.mul(out, dc.tanh(out)))

    _grad_check_op(readout, [rng.normal(size=(3 * n, 4))] + [rng.normal(scale=0.5, size=(4, 4)) for _ in range(4)])


@pytest.mark.parametrize("smoothing", [0.0, 0.1])
def test_soft_target_nll_is_the_composed_loss_bit_for_bit(smoothing):
    rng = np.random.default_rng(22)
    b, c = 8, 11
    logits = rng.normal(scale=8.0, size=(b, c))
    targets = np.full((b, c), smoothing / c)
    targets[np.arange(b), rng.integers(0, c, size=b)] += 1.0 - smoothing
    _same_bits(lambda t: dc.soft_target_nll(t, targets, b),
               lambda t: _composed_soft_target_nll(t, targets, b), [logits], (0,))
    # the text-anchored direction: transposed logits and targets, still over the b rows
    _same_bits(lambda t: dc.soft_target_nll(dc.transpose(t), targets.T, b),
               lambda t: _composed_soft_target_nll(dc.transpose(t), targets.T, b), [logits], (0,))


def _unit_rows(rng, rows, dim=_DIM):
    x = rng.normal(size=(rows, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# each kind's (B, C): a default stage-1 step's group and member kinds, the smallest batch, and three kinds
_CONTRASTIVE_SHAPES = {"stage-1 step": [(8, 4), (29, 23)], "B=2, C=1": [(2, 1)],
                       "three kinds": [(3, 2), (2, 1), (5, 5)]}


def _contrastive_trainable(which, kinds):
    """The leaves that take gradients: kind k's visual is leaf 2k and its text 2k + 1, inv_temp the last."""
    inv = 2 * kinds
    visual, text = set(range(0, inv, 2)), set(range(1, inv, 2))
    # in stage 1 only the group kind's visual (kind 0) trains; a member kind's is a frozen pass's constant
    return {"stage 1": {0, inv} | text, "inv_temp": {inv}, "visual and text": visual | text, "one visual": {0},
            "out of a graph": set()}[which]


def _contrastive_run(fn, arrays, columns, trainable, scale):
    """The loss, its directions' sums and, with ``trainable`` leaves, every leaf's gradient of ``scale * loss``."""
    leaves = [dc.Tensor(a, requires_grad=i in trainable) for i, a in enumerate(arrays)]
    kinds = [(leaves[2 * k], leaves[2 * k + 1], cols) for k, cols in enumerate(columns)]
    if not trainable:
        loss, parts = fn(kinds, leaves[-1])
        return [loss.values], parts
    with dc.Graph() as g:
        loss, parts = fn(kinds, leaves[-1])
        out = dc.mul(loss, dc.constant(scale))
    grads = g.backward(out)
    return [loss.values] + [grads.get(t) for t in leaves], parts


@pytest.mark.parametrize("shapes", sorted(_CONTRASTIVE_SHAPES))
@pytest.mark.parametrize("trainable", ["stage 1", "inv_temp", "visual and text", "one visual", "out of a graph"])
def test_contrastive_loss_is_the_composed_objective_bit_for_bit(shapes, trainable):
    rng = np.random.default_rng(29)
    arrays, columns = [], []
    for b, c in _CONTRASTIVE_SHAPES[shapes]:
        arrays += [_unit_rows(rng, b), _unit_rows(rng, c)]
        columns.append(rng.integers(0, c, size=b).tolist())  # some texts may have no positive
    arrays.append(np.asarray(rng.uniform(1.0, 100.0)))
    leaves = _contrastive_trainable(trainable, len(columns))
    for scale in (1.0, 0.37):  # 1 is the stage-1 loss itself; another upstream scales every term
        (got, got_parts), (want, want_parts) = (_contrastive_run(fn, arrays, columns, leaves, scale)
                                                for fn in (dc.contrastive_loss, ops.contrastive_loss))
        assert np.asarray(got_parts).tobytes() == np.asarray(want_parts).tobytes()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert all(g is not None for i, g in enumerate(got[1:]) if i in leaves)


def test_contrastive_loss_is_one_node():
    rng = np.random.default_rng(31)
    visual = dc.Tensor(_unit_rows(rng, 4), requires_grad=True)
    inv_temp = dc.Tensor(np.asarray(10.0), requires_grad=True)
    with dc.Graph() as g:
        dc.contrastive_loss([(visual, dc.constant(_unit_rows(rng, 2)), [0, 1, 1, 0]),
                             (dc.constant(_unit_rows(rng, 5)), dc.constant(_unit_rows(rng, 3)), [2, 0, 1, 1, 0])],
                            inv_temp)
    assert len(g._nodes) == 1


@pytest.mark.parametrize("trainable", [(0,), (1,), (0, 1)])
def test_row_distance_is_the_composed_distance_bit_for_bit(trainable):
    rng = np.random.default_rng(23)
    a = rng.normal(size=(8, _DIM))
    b = rng.normal(size=(8, _DIM))
    b[3] = a[3]  # coincident rows sit on the 1e-12 floor
    _same_bits(dc.row_distance, _composed_row_distance, [a, b], trainable)
    # as the triplet loss uses it: rows against mined rows of the same leaf
    order = [1, 0, 3, 2, 5, 4, 7, 6]
    _same_bits(lambda t: dc.row_distance(t, dc.gather_rows(t, order)),
               lambda t: _composed_row_distance(t, dc.gather_rows(t, order)), [a], (0,))


@pytest.mark.parametrize("trainable", [(1,), (0,), (0, 1)])
def test_add_block_means_is_the_composed_count_term_bit_for_bit(trainable):
    rng = np.random.default_rng(24)
    counts = [6, 1, 3, 2, 6, 4, 5, 1]
    blocks = rng.normal(size=(len(counts) * 7, _DIM))
    em = rng.normal(size=(6, _DIM))
    _same_bits(lambda *t: dc.add_block_means(*t, counts),
               lambda *t: _composed_add_block_means(*t, counts), [blocks, em], trainable)
    # more weight rows than slots: the rows past the slots get no gradient
    _same_bits(lambda *t: dc.add_block_means(*t, [2, 1]),
               lambda *t: _composed_add_block_means(*t, [2, 1]), [blocks[:6], em], trainable)


@pytest.mark.parametrize("trainable", [(1,), (0,), (0, 1)])
def test_add_block_means_on_narrow_blocks_has_the_bits_of_the_padded_blocks(trainable):
    # blocks of 3 member slots against six weight rows, and the same blocks
    # zero-padded to 6 slots: the value and both gradients share their bits
    rng = np.random.default_rng(29)
    counts = [3, 1, 2, 3, 2, 1]
    narrow = rng.normal(size=(len(counts) * 4, _DIM))
    em = rng.normal(size=(6, _DIM))
    rows = (np.arange(len(counts))[:, None] * 7 + np.arange(4)).ravel()
    padded = np.zeros((len(counts) * 7, _DIM))
    padded[rows] = narrow
    upstream = rng.normal(size=padded.shape)

    def run(blocks, up):
        x, e = (dc.Tensor(a, requires_grad=i in trainable) for i, a in enumerate((blocks, em)))
        with dc.Graph() as g:
            out = dc.add_block_means(x, e, counts)
            loss = ops.reduce_sum(dc.mul(out, dc.constant(up)))
        grads = g.backward(loss)
        return out.values, grads.get(x), grads.get(e)

    (out, gx, ge), (out_p, gx_p, ge_p) = run(narrow, upstream[rows]), run(padded, upstream)
    assert out.tobytes() == out_p[rows].tobytes()
    assert (gx is None) == (gx_p is None) and (gx is None or gx.tobytes() == gx_p[rows].tobytes())
    assert (ge is None) == (ge_p is None) and (ge is None or ge.tobytes() == ge_p.tobytes())


def test_add_block_means_on_narrow_blocks_passes_grad_check():
    rng = np.random.default_rng(30)

    def count_term(p):
        out = dc.add_block_means(p["0"], p["1"], [2, 1, 2])
        return ops.reduce_sum(dc.mul(out, dc.tanh(out)))

    _grad_check_op(count_term, [rng.normal(size=(9, 4)), rng.normal(size=(4, 4))])


def _grad_check_op(loss_fn, arrays):
    params = {str(i): dc.Tensor(a, requires_grad=True) for i, a in enumerate(arrays)}
    report = dc.grad_check(loss_fn, params, step=1e-5, tolerance=1e-4)
    assert report.ok, report.failures[:3]


def test_fused_ops_pass_grad_check():
    rng = np.random.default_rng(25)

    def block(p):
        out = dc.attention_block(p["0"], p["1"], p["2"], p["3"], p["4"], 3, [3, 2])
        return ops.reduce_sum(dc.mul(out, dc.tanh(out)))

    _grad_check_op(block, [rng.normal(size=(6, 4))] + [rng.normal(scale=0.5, size=(4, 4)) for _ in range(4)])

    targets = np.array([[0.7, 0.1, 0.1, 0.1], [0.1, 0.1, 0.1, 0.7], [0.25, 0.25, 0.25, 0.25]])
    _grad_check_op(lambda p: dc.soft_target_nll(dc.tanh(p["0"]), targets, 3), [rng.normal(size=(3, 4))])

    _grad_check_op(lambda p: ops.reduce_sum(dc.mul(dc.row_distance(p["0"], p["1"]), dc.constant([1.0, -2.0, 0.5]))),
                   [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))])

    def means(p):
        out = dc.add_block_means(p["0"], p["1"], [3, 1])
        return ops.reduce_sum(dc.mul(out, dc.tanh(out)))

    _grad_check_op(means, [rng.normal(size=(8, 4)), rng.normal(size=(3, 4))])

    def clip(p):
        loss, _ = dc.contrastive_loss([(p["0"], p["1"], [0, 2, 1, 0]), (p["2"], p["3"], [1, 0])], p["4"])
        return loss

    _grad_check_op(clip, [_unit_rows(rng, 4, 5), _unit_rows(rng, 3, 5), _unit_rows(rng, 2, 5),
                          _unit_rows(rng, 2, 5), np.asarray(3.0)])


def test_block_means_values_and_gradient():
    # the oracle op of attention_pool's mean
    x = np.arange(12.0).reshape(6, 2)
    t = dc.Tensor(x, requires_grad=True)
    with dc.Graph() as g:
        out = ops.block_means(t, 3)
        loss = ops.reduce_sum(dc.mul(out, dc.constant([[1.0, 2.0], [3.0, 4.0]])))
    np.testing.assert_allclose(out.values, [[2.0, 3.0], [8.0, 9.0]])
    np.testing.assert_array_equal(g.backward(loss)[t], np.repeat([[1.0, 2.0], [3.0, 4.0]], 3, axis=0) / 3)
    rng = np.random.default_rng(25)
    for n, length in ((3, 4), (1, 5), (2, 1)):
        def pooled(p, length=length):
            out = ops.block_means(p["0"], length)
            return ops.reduce_sum(dc.mul(out, dc.tanh(out)))

        _grad_check_op(pooled, [rng.normal(size=(n * length, 3))])
    x = dc.Tensor(np.ones((6, 4)))
    for bad, length in ((x, 4), (x, 0), (x, 7), (dc.Tensor(np.ones(6)), 3), (dc.Tensor(2.0), 1)):
        with pytest.raises(dc.ShapeError):
            ops.block_means(bad, length)  # rows that do not split into blocks, or not a matrix



def test_fused_ops_reject_bad_shapes():
    x, w = dc.Tensor(np.ones((6, 4))), dc.Tensor(np.ones((4, 4)))
    with pytest.raises(dc.ShapeError):
        dc.attention_block(x, w, w, w, dc.Tensor(np.ones((4, 3))), 3)  # output width is not x's
    with pytest.raises(dc.ShapeError):
        dc.attention_block(x, w, dc.Tensor(np.ones((4, 3))), w, w, 3)  # q and k widths differ
    with pytest.raises(dc.ShapeError):
        dc.attention_block(x, w, w, w, w, 4)  # 6 rows do not split into blocks of 4
    with pytest.raises(dc.ShapeError):
        dc.attention_block(x, w, w, w, w, 3, [3, 4])
    with pytest.raises(dc.ShapeError):
        dc.row_distance(x, dc.Tensor(np.ones((6, 3))))
    with pytest.raises(dc.ShapeError):
        dc.row_distance(dc.Tensor(np.ones(4)), dc.Tensor(np.ones(4)))
    for weights, counts in ((np.ones((3, 3)), [2, 2]), (np.ones((1, 4)), [2, 2]), (w.values, [0, 2]),
                            (w.values, [3, 1]), (w.values, [1, 1, 1, 1]), (w.values, [])):
        with pytest.raises(dc.ShapeError):
            dc.add_block_means(x, dc.Tensor(weights), counts)
