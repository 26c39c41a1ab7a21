"""Member dropout sampling and the count-refined recombination."""

from dataclasses import replace

import numpy as np
import pytest

from gcum import diffcore as dc
from gcum.diffcore import ShapeError, Tensor
from gcum.mvs import (
    Mask,
    MvsConfig,
    apply_mvs,
    sample_drop_prob,
    sample_mask,
)

import tape_ops as ops


def test_config_validation():
    # a config checks itself when built, and again when replace builds a copy
    with pytest.raises(ValueError):
        MvsConfig(sigma=-0.1)
    with pytest.raises(ValueError):
        MvsConfig(p0=0.6, pmax=0.5)
    with pytest.raises(ValueError):
        MvsConfig(pmax=1.0)
    with pytest.raises(ValueError):
        replace(MvsConfig(), pmax=1.0)
    MvsConfig()


def test_config_round_trip():
    # the run config reads this section (tests/test_cli.py checks its typing)
    cfg = MvsConfig(mu=0.3, sigma=0.05, p0=0.1, pmax=0.4)
    assert MvsConfig(**cfg.to_dict()) == cfg
    # the run config echo writes the keys in this order
    assert list(cfg.to_dict()) == ["mu", "sigma", "p0", "pmax"]


def test_mask_validation():
    with pytest.raises(ValueError):
        Mask(())
    with pytest.raises(ValueError):
        Mask((1, 2))
    with pytest.raises(ValueError):
        Mask((0, 0))
    m = Mask((1, 0, 1))
    assert m.retained == 2
    assert len(m) == 3


def test_drop_prob_clamps():
    rng = np.random.default_rng(0)
    assert sample_drop_prob(MvsConfig(mu=0.2, sigma=0.0), rng) == 0.2
    assert sample_drop_prob(MvsConfig(mu=0.9, sigma=0.0), rng) == 0.5
    assert sample_drop_prob(MvsConfig(mu=-0.3, sigma=0.0, p0=0.05), rng) == 0.05
    draws = [sample_drop_prob(MvsConfig(), rng) for _ in range(1000)]
    assert all(0.0 <= p <= 0.5 for p in draws)
    assert len(set(draws)) > 100  # actually random, not stuck at a clamp


def test_sample_mask_never_empties_the_group():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        mask = sample_mask(3, 0.99, rng)
        assert mask.retained >= 1


def test_sample_mask_rejects_certain_drop():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        sample_mask(3, 1.0, rng)


def test_fixed_p_drop_rates_match_exact_oracle():
    # With drop probability p and the all-dropped draw forced to keep
    # member 0, member 0 drops at rate p - p^n and the others at rate p.
    n, p, draws = 4, 0.3, 100_000
    rng = np.random.default_rng(7)
    dropped = np.zeros(n)
    for _ in range(draws):
        mask = sample_mask(n, p, rng)
        dropped += 1.0 - np.array(mask.bits)
    rates = dropped / draws
    expected = np.full(n, p)
    expected[0] = p - p**n
    se = np.sqrt(expected * (1.0 - expected) / draws)
    assert np.all(np.abs(rates - expected) <= 3.0 * se)


def _blocks(cls, members):
    return ops.concat([ops.stack([cls]), members])


def test_apply_mvs_hand_case_full_mask():
    cls = Tensor([1.0, 0.0])
    members = Tensor([[2.0, 4.0], [6.0, 8.0]])
    em = Tensor([[1.0, 1.0], [0.5, 0.5], [9.0, 9.0]])
    fused = apply_mvs(_blocks(cls, members), em, [2])
    # q = mean([1*2, 1*4], [0.5*6, 0.5*8]) = [2.5, 4.0]
    expected = np.array([[3.5, 4.0], [2.0, 4.0], [6.0, 8.0]])
    assert np.array_equal(fused.values, expected)
    # a stack of two blocks: each block gets its own count term
    other = _blocks(Tensor([0.0, 1.0]), Tensor([[4.0, 2.0], [0.0, -2.0]]))
    both = apply_mvs(ops.concat([_blocks(cls, members), other]), em, [2, 2])
    assert np.array_equal(both.values[:3], expected)
    assert np.array_equal(both.values[3:], np.array([[2.0, 1.5], [4.0, 2.0], [0.0, -2.0]]))


def test_apply_mvs_hand_case_with_drop():
    # member [6, 8] was dropped: only the retained row is passed
    cls = Tensor([1.0, 0.0])
    retained = Tensor([[2.0, 4.0]])
    em = Tensor([[1.0, 1.0], [0.5, 0.5], [9.0, 9.0]])
    fused = apply_mvs(_blocks(cls, retained), em, [1])
    assert np.array_equal(fused.values, np.array([[3.0, 4.0], [2.0, 4.0]]))
    # the same view padded to two member slots: the zero slot is masked out
    padded = apply_mvs(_blocks(cls, Tensor([[2.0, 4.0], [0.0, 0.0]])), em, [1])
    assert np.array_equal(padded.values, np.array([[3.0, 4.0], [2.0, 4.0], [0.0, 0.0]]))


def test_apply_mvs_dropped_rows_cannot_influence_output():
    # with one retained member, the count rows of larger groups are unread
    blocks = _blocks(Tensor([1.0, 0.0]), Tensor([[2.0, 4.0]]))
    a = apply_mvs(blocks, Tensor(np.ones((3, 2))), [1])
    b = apply_mvs(blocks, Tensor([[1.0, 1.0], [-999.0, 123.0], [7.0, -5.0]]), [1])
    assert np.array_equal(a.values, b.values)


def test_apply_mvs_gradient_support():
    cls = Tensor([1.0, 0.0], requires_grad=True)
    retained = Tensor([[2.0, 4.0]], requires_grad=True)
    em = Tensor([[1.0, 1.0], [0.5, 0.5], [9.0, 9.0]], requires_grad=True)
    with dc.Graph() as g:
        loss = ops.reduce_sum(apply_mvs(_blocks(cls, retained), em, [1]))
    grads = g.backward(loss)
    # the retained row feels 1 + em[0].
    assert np.array_equal(grads[retained], np.array([[2.0, 2.0]]))
    # only the first k = 1 rows of the count matrix participate.
    assert np.array_equal(grads[em], np.array([[2.0, 4.0], [0.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(grads[cls], np.array([1.0, 1.0]))


def test_apply_mvs_shape_errors():
    blocks = _blocks(Tensor([1.0, 0.0]), Tensor([[2.0, 4.0], [6.0, 8.0]]))
    with pytest.raises(ShapeError):
        apply_mvs(blocks, Tensor(np.ones((3, 3))), [2])
    with pytest.raises(ShapeError):
        apply_mvs(blocks, Tensor(np.ones((1, 2))), [2])
    with pytest.raises(ShapeError):
        apply_mvs(blocks, Tensor(np.ones((3, 2))), [1, 1])  # 3 rows do not split over 2 views
    with pytest.raises(ShapeError):
        apply_mvs(blocks, Tensor(np.ones((3, 2))), [3])  # more members than slots
    with pytest.raises(ShapeError):
        apply_mvs(blocks, Tensor(np.ones((3, 2))), [0])
