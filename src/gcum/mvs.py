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

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tensor


@dataclass(frozen=True)
class MvsConfig:
    """Clamped-Gaussian dropout probability: p ~ N(mu, sigma) into [p0, pmax]."""

    mu: float = 0.2
    sigma: float = 0.1
    p0: float = 0.0
    pmax: float = 0.5

    def validate(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not (0.0 <= self.p0 <= self.pmax < 1.0):
            raise ValueError("need 0 <= p0 <= pmax < 1")

    def to_dict(self) -> dict:
        return {"mu": self.mu, "sigma": self.sigma, "p0": self.p0, "pmax": self.pmax}

    @classmethod
    def from_dict(cls, doc: dict) -> "MvsConfig":
        cfg = cls(mu=float(doc["mu"]), sigma=float(doc["sigma"]),
                  p0=float(doc["p0"]), pmax=float(doc["pmax"]))
        cfg.validate()
        return cfg


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


def full_mask(n: int) -> Mask:
    if n < 1:
        raise ValueError("mask length must be positive")
    return Mask(tuple([1] * n))


def sample_drop_prob(config: MvsConfig, rng: np.random.Generator) -> float:
    """One clamped-Gaussian draw of the per-view drop probability."""
    config.validate()
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


def apply_mvs(class_token: Tensor, members: Tensor, em: Tensor) -> Tensor:
    """Fold the count term into the class token over the retained members.

    ``members`` holds only the retained rows: dropped members are removed
    before encoding.  Returns the fused sequence ``[class_token + q;
    members]`` where ``q`` is the mean over rows ``j`` of
    ``em[j] * members[j]``.  Rows of ``em`` beyond the retained count
    receive no gradient from this sample.
    """
    if class_token.ndim != 1:
        raise ShapeError(f"class token must be a vector, got {class_token.shape}")
    if members.ndim != 2 or members.shape[1] != class_token.shape[0]:
        raise ShapeError(f"member rows {members.shape} do not match class token {class_token.shape}")
    k = members.shape[0]
    if k > em.shape[0]:
        raise ShapeError(f"{k} retained members exceed the count matrix ({em.shape[0]} rows)")
    em_rows = dc.gather_rows(em, range(k))
    q = dc.reduce_mean(dc.mul(em_rows, members), axis=0)
    fused_token = dc.add(class_token, q)
    return dc.concat([dc.stack([fused_token]), members], axis=0)


def assemble_plain(class_token: Tensor, members: Tensor) -> Tensor:
    """Recombine without the count term (mechanism disabled)."""
    if class_token.ndim != 1 or members.ndim != 2:
        raise ShapeError("expected a vector class token and a member matrix")
    return dc.concat([dc.stack([class_token]), members], axis=0)
