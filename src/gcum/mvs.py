"""Member variant simulation: random member dropout with count refinement.

During training, each group view keeps every member independently with
probability ``1 - p``, where ``p`` itself is drawn per view from a clamped
Gaussian.  If the draw would empty the group, the first member is retained
(groups are never empty).  The retained member rows are then recombined
with the group class token, which first absorbs a learned member-count
term: the mean over retained members of ``Em[j] * S'[j]`` for the leading
rows of the count matrix ``Em``.

At evaluation time no member is dropped; the count term still applies when
the mechanism is enabled, now averaged over the full member set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor


@dataclass(frozen=True)
class MvsConfig:
    """Clamped-Gaussian dropout probability: p ~ N(mu, sigma) into [p0, pmax]."""

    mu: float = 0.2
    sigma: float = 0.1
    p0: float = 0.0
    pmax: float = 0.5

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not (0.0 <= self.p0 <= self.pmax < 1.0):
            raise ValueError("need 0 <= p0 <= pmax < 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class Mask:
    """Per-member retain bits for one view; at least one bit is set."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits:
            raise ValueError("empty mask")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("mask bits must be 0 or 1")
        if not any(self.bits):
            raise ValueError("mask must retain at least one member")

    @property
    def retained(self) -> int:
        return sum(self.bits)

    def __len__(self) -> int:
        return len(self.bits)


def sample_drop_prob(config: MvsConfig, rng: np.random.Generator) -> float:
    """One clamped-Gaussian draw of the per-view drop probability."""
    p = config.mu + config.sigma * rng.standard_normal()
    return float(min(max(p, config.p0), config.pmax))


def sample_mask(n: int, drop_prob: float, rng: np.random.Generator) -> Mask:
    """Independent Bernoulli retains; the all-dropped draw keeps member 0."""
    if n < 1:
        raise ValueError("mask length must be positive")
    if not (0.0 <= drop_prob < 1.0):
        raise ValueError("drop probability must lie in [0, 1)")
    bits = (rng.random(n) >= drop_prob).astype(np.int64)
    if not bits.any():
        bits[0] = 1
    return Mask(tuple(int(b) for b in bits))


def apply_mvs(blocks: Tensor, em: Tensor, counts: Sequence[int]) -> Tensor:
    """Fold the count term into the class token of stacked [class token; members] blocks.

    ``blocks`` stacks B blocks of one width: the class token, the
    ``counts[i]`` retained members (dropped ones are removed before
    encoding), then padding.  Each class token gains ``q``, the mean over
    its members j of ``em[j] * members[j]``; other rows pass unchanged.
    Padding and the rows of ``em`` beyond a view's count get no gradient.
    """
    return dc.add_block_means(blocks, em, counts)
