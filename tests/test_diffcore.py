import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcum import diffcore as dc


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
        loss = dc.reduce_sum(dc.matmul(a, b))
    g.backward(loss)
    ones = np.ones((3, 2))
    np.testing.assert_allclose(a.grad, ones @ bv.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, av.T @ ones, rtol=0, atol=1e-12)


def _softmax(rows):
    """Row-wise softmax in numpy, the oracle for the log-softmax and attention ops."""
    e = np.exp(rows - np.max(rows, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def test_softmax_known_values():
    # expected values from direct evaluation of exp/sum in double precision
    out = np.exp(dc.log_softmax_rows(dc.Tensor([1.0, 2.0, 3.0])).values)
    expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-5)


def test_softmax_uniform_and_peak():
    np.testing.assert_allclose(
        np.exp(dc.log_softmax_rows(dc.Tensor([0.5, 0.5, 0.5, 0.5])).values), np.full(4, 0.25), atol=1e-15
    )
    peaked = np.exp(dc.log_softmax_rows(dc.Tensor([1000.0, 0.0, 0.0])).values)
    assert peaked[0] > 1.0 - 1e-12
    assert peaked[1] == peaked[2]


@settings(max_examples=60, deadline=None)
@given(finite_arrays())
def test_softmax_rows_sum_to_one(rows):
    out = np.exp(dc.log_softmax_rows(dc.Tensor(rows)).values)
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(len(rows)), rtol=0, atol=1e-12)
    assert (out >= 0).all()


@settings(max_examples=60, deadline=None)
@given(finite_arrays())
def test_log_softmax_matches_log_of_softmax(rows):
    x = dc.Tensor(rows)
    expected = np.log(_softmax(np.asarray(rows)))
    np.testing.assert_allclose(dc.log_softmax_rows(x).values, expected, rtol=0, atol=1e-12)


def test_log_softmax_stays_finite_at_a_large_spread():
    # log(softmax) underflows to log(0) here; log-sum-exp does not
    x = dc.Tensor([[1e4, 0.0, -1e4], [0.0, 5e3, -5e3]], requires_grad=True)
    w = np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0]])
    with dc.Graph() as g:
        out = dc.log_softmax_rows(x)
        loss = dc.reduce_sum(dc.mul(out, dc.constant(w)))
    np.testing.assert_array_equal(out.values, [[0.0, -1e4, -2e4], [-5e3, 0.0, -1e4]])
    g.backward(loss)
    # d/dx sum(w * log_softmax(x)) = w - softmax(x) * rowsum(w), softmax one-hot here
    np.testing.assert_array_equal(x.grad, [[-0.8, 0.5, 0.3], [1.0, -1.0, 0.0]])


def test_segment_attention_matches_attention_per_block():
    rng = np.random.default_rng(11)
    q, k, v = (rng.normal(size=(6, 4)) for _ in range(3))
    out = dc.segment_attention(dc.Tensor(q), dc.Tensor(k), dc.Tensor(v[:, :3]), 3).values
    for b in (slice(0, 3), slice(3, 6)):
        expected = _softmax(q[b] @ k[b].T * 0.5) @ v[b, :3]
        np.testing.assert_allclose(out[b], expected, rtol=0, atol=1e-12)


def test_segment_attention_rejects_bad_blocks():
    x = dc.Tensor(np.ones((6, 2)))
    with pytest.raises(dc.ShapeError):
        dc.segment_attention(x, x, x, 4)  # 6 rows do not split into blocks of 4
    with pytest.raises(dc.ShapeError):
        dc.segment_attention(x, x, x, 0)
    with pytest.raises(dc.ShapeError):
        dc.segment_attention(x, dc.Tensor(np.ones((6, 3))), x, 3)
    with pytest.raises(dc.ShapeError):
        dc.segment_attention(x, x, dc.Tensor(np.ones((5, 2))), 3)


def _masked_blocks(seed=12, n=4, length=4, d=3):
    rng = np.random.default_rng(seed)
    return [dc.Tensor(rng.normal(size=(n * length, d)), requires_grad=True) for _ in range(3)]


def test_segment_attention_masked_grad_check():
    # block lengths 1, 3, 4 (full) and 2
    q, k, v = _masked_blocks()
    params = {"q": q, "k": k, "v": v}

    def loss_fn(p):
        out = dc.segment_attention(p["q"], p["k"], p["v"], 4, [1, 3, 4, 2])
        return dc.reduce_sum(dc.mul(out, dc.tanh(out)))

    report = dc.grad_check(loss_fn, params, step=1e-5, tolerance=1e-4)
    assert report.ok, report.failures[:3]


def test_segment_attention_full_lengths_equal_no_mask():
    q, k, v = _masked_blocks()
    plain = dc.segment_attention(q, k, v, 4)
    full = dc.segment_attention(q, k, v, 4, np.full(4, 4))
    assert plain.values.tobytes() == full.values.tobytes()


def test_segment_attention_dead_rows():
    q, k, v = _masked_blocks()
    lengths = [1, 3, 4, 2]
    live = (np.arange(4) < np.array(lengths)[:, None]).ravel()
    w = np.random.default_rng(13).normal(size=(16, 3))
    with dc.Graph() as g:
        out = dc.segment_attention(q, k, v, 4, lengths)
        loss = dc.reduce_sum(dc.mul(out, dc.constant(w)))
    assert not np.any(out.values[~live])
    g.backward(loss)
    for t in (q, k, v):
        assert not np.any(t.grad[~live])
    # a live row of each block is untouched by what the dead rows hold
    poked = [dc.Tensor(np.where(live[:, None], t.values, 1e3)) for t in (q, k, v)]
    again = dc.segment_attention(*poked, 4, lengths)
    assert np.array_equal(again.values, out.values)
    # one block alone gives the same bits as in the stack
    alone = dc.segment_attention(*(dc.Tensor(t.values[4:8]) for t in (q, k, v)), 4, [3])
    assert np.array_equal(alone.values, out.values[4:8])


def test_segment_attention_rejects_bad_lengths():
    x = dc.Tensor(np.ones((6, 2)))
    for lengths in ([0, 3], [1, 4], [3], [1, 2, 3], np.ones((2, 1))):
        with pytest.raises(dc.ShapeError):
            dc.segment_attention(x, x, x, 3, lengths)


def test_non_finite_forward_names_the_op():
    with pytest.raises(dc.NonFiniteError, match="^exp: tensor contains"):
        dc.exp(dc.Tensor([1000.0]))
    with np.errstate(over="ignore"), pytest.raises(dc.NonFiniteError, match="^matmul: tensor contains"):
        dc.matmul(dc.Tensor([[1e200]]), dc.Tensor([[1e200]]))


def test_non_finite_gradient_names_the_op():
    x = dc.Tensor([1e-310, 1.0], requires_grad=True)  # log is finite, its gradient is not
    with dc.Graph() as g:
        loss = dc.reduce_sum(dc.scale(dc.log(x), 2.0))
    with np.errstate(over="ignore"), pytest.raises(dc.NonFiniteError, match="^log: gradient contains"):
        g.backward(loss)


def test_l2_normalize_values():
    np.testing.assert_allclose(dc.l2_normalize(dc.Tensor([3.0, 4.0])).values, [0.6, 0.8], atol=1e-12)
    np.testing.assert_array_equal(dc.l2_normalize(dc.Tensor([0.0, 0.0])).values, [0.0, 0.0])


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
        loss = dc.reduce_sum(kept)
    np.testing.assert_array_equal(kept.values, [[1.0, 2.0], [5.0, 6.0]])
    g.backward(loss)
    np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])


def test_gather_rows_accumulates_repeated_indices():
    x = dc.Tensor([[1.0, 0.0], [0.0, 1.0]], requires_grad=True)
    with dc.Graph() as g:
        out = dc.gather_rows(x, [1, 0, 1])
        loss = dc.reduce_sum(out)
    g.backward(loss)
    np.testing.assert_array_equal(out.values, [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [2.0, 2.0]])


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
        loss = dc.reduce_sum(dc.mul(dc.gather_rows(x, idx), dc.constant(upstream)))
    g.backward(loss)
    # the oracle: np.add.at adds each row's terms in index order onto +0.0
    want = np.zeros((n, d))
    np.add.at(want, np.asarray(idx), upstream)
    assert x.grad.shape == want.shape
    assert np.array_equal(x.grad.view(np.int64), want.view(np.int64)), (x.grad, want)


def test_concat_and_stack_round_trip_gradients():
    a = dc.Tensor([1.0, 2.0], requires_grad=True)
    b = dc.Tensor([3.0, 4.0], requires_grad=True)
    with dc.Graph() as g:
        m = dc.stack([a, b])
        wide = dc.concat([m, m], axis=1)
        loss = dc.reduce_sum(wide)
    assert wide.shape == (2, 4)
    g.backward(loss)
    np.testing.assert_array_equal(a.grad, [2.0, 2.0])
    np.testing.assert_array_equal(b.grad, [2.0, 2.0])


def test_log_rejects_non_positive():
    with pytest.raises(dc.NonFiniteError):
        dc.log(dc.Tensor([1.0, 0.0]))
    with pytest.raises(dc.NonFiniteError):
        dc.log(dc.Tensor([-1.0]))


def test_exp_overflow_is_loud():
    with pytest.raises(dc.NonFiniteError):
        dc.exp(dc.Tensor([1000.0]))


def test_clamp_min_value_and_gradient_gate():
    x = dc.Tensor([-1.0, 0.5, 2.0], requires_grad=True)
    with dc.Graph() as g:
        y = dc.clamp_min(x, 0.0)
        loss = dc.reduce_sum(y)
    np.testing.assert_array_equal(y.values, [0.0, 0.5, 2.0])
    g.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0])


def test_reductions_values_and_gradients():
    x = dc.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    assert dc.reduce_sum(x).item() == 10.0
    assert dc.reduce_mean(x).item() == 2.5
    np.testing.assert_array_equal(dc.reduce_sum(x, axis=0).values, [4.0, 6.0])
    with dc.Graph() as g:
        loss = dc.add(dc.reduce_mean(x), dc.reduce_sum(dc.reduce_sum(x, axis=1)))
    g.backward(loss)
    np.testing.assert_array_equal(x.grad, [[1.25, 1.25], [1.25, 1.25]])


def test_graph_backward_twice_is_an_error():
    x = dc.Tensor([1.0, 2.0], requires_grad=True)
    with dc.Graph() as g:
        loss = dc.reduce_sum(dc.mul(x, x))
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
        z = dc.reduce_sum(dc.mul(frozen, frozen))
    with pytest.raises(dc.GraphError):
        g2.backward(z)


def test_no_recording_outside_graph():
    x = dc.Tensor([1.0, 2.0], requires_grad=True)
    y = dc.reduce_sum(dc.mul(x, x))
    assert not y.requires_grad


def test_gradient_accumulates_across_shared_use():
    x = dc.Tensor(3.0, requires_grad=True)
    with dc.Graph() as g:
        loss = dc.reduce_sum(dc.mul(x, x))  # d/dx x^2 = 2x via two parent slots
    g.backward(loss)
    assert x.grad == pytest.approx(6.0, abs=1e-12)


def test_ops_are_bit_deterministic():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(4, 3))

    def run():
        t = dc.matmul(dc.Tensor(a), dc.Tensor(b))
        pair = dc.concat([t, dc.tanh(t)], axis=0)
        return np.concatenate([dc.l2_normalize(dc.exp(dc.log_softmax_rows(t))).values,
                               dc.log_softmax_rows(t).values,
                               dc.segment_attention(pair, dc.exp(pair), pair, 5).values])

    first, second = run(), run()
    assert first.tobytes() == second.tobytes()


def test_grad_check_sum_is_exact():
    params = {"w": dc.Tensor([[0.25, -0.5], [1.0, 2.0]], requires_grad=True)}

    def loss_fn(p):
        return dc.reduce_sum(p["w"])

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
            return dc.reduce_sum(dc.mul(w, w))  # recorded gradient: 2w
        return dc.reduce_sum(w)  # finite differences see gradient 1

    report = dc.grad_check(loss_fn, params)
    assert not report.ok
    assert report.failures
    assert report.max_rel_error > 1e-4


def _composite_loss(p):
    w, v = p["w"], p["v"]
    h = dc.tanh(dc.matmul(dc.stack([v]), w))  # the row v @ w
    gram = dc.matmul(w, dc.transpose(w))
    logp = dc.log_softmax_rows(gram)
    sm = dc.exp(logp)
    picked = dc.gather_rows(sm, [0])
    unit = dc.l2_normalize(h)
    parts = dc.concat([unit, picked], axis=0)
    clipped = dc.clamp_min(parts, -0.25)
    entropies = dc.mul(sm, logp)
    blocks = dc.concat([w, sm], axis=0)  # three blocks of two rows
    attended = dc.segment_attention(blocks, dc.tanh(blocks), dc.matmul(blocks, w), 2)
    terms = [dc.reduce_mean(dc.mul(clipped, clipped)), dc.reduce_sum(dc.log(dc.exp(dc.scale(h, 0.3)))),
             dc.reduce_sum(entropies), dc.reduce_sum(dc.mul(dc.log_softmax_rows(h), h)),
             dc.reduce_sum(dc.mul(attended, attended))]
    total = terms[0]
    for t in terms[1:]:
        total = dc.add(total, t)
    return total


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000))
def test_grad_check_on_composites(seed):
    rng = np.random.default_rng(seed)
    params = {
        "w": dc.Tensor(rng.normal(size=(3, 3)), requires_grad=True),
        "v": dc.Tensor(rng.normal(size=3), requires_grad=True),
    }
    report = dc.grad_check(_composite_loss, params)
    assert report.ok, report.failures[:3]
    assert report.max_rel_error < 1e-4


def test_grad_check_skips_frozen_parameters():
    params = {
        "w": dc.Tensor([1.0, 2.0], requires_grad=True),
        "frozen": dc.Tensor([5.0], requires_grad=False),
    }

    def loss_fn(p):
        return dc.reduce_sum(dc.mul(p["w"], p["w"]))

    report = dc.grad_check(loss_fn, params)
    assert set(report.per_param) == {"w"}
