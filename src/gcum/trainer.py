"""Two-stage training: SGD with momentum, warmup, and step decay.

Stage 1 learns the prompt vocabulary (identity tokens, padding, the
count matrix, and the temperature) under the contrastive alignment
objective, with member dropout active.  Stage 2 freezes all of that,
computes one text feature per group class, and trains only the
refinement head and classifier.

Both stages share one schedule: linear warmup from ``lr_start`` to
``lr_peak``, then piecewise-constant decay.  ``scale_factor`` compresses
every epoch landmark proportionally so short runs keep the schedule's
shape.  A run is a pure function of (samples, config, seed): batch
order, dropout draws, and updates are all driven by one seeded stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import diffcore as dc
from . import gla, grce
from . import losses as losses_mod
from .diffcore import Tensor
from .encoders import STAGE1_TRAINABLE, STAGE2_TRAINABLE, ModelState
from .mvs import MvsConfig, sample_drop_prob, sample_mask
from .synthdata import GroupSample

_STAGE1_STREAM = 20
_STAGE2_STREAM = 21

# The inverse temperature's range after each update: CLIP clips its logit
# scale to [0, ln 100]; unclipped, a large step can drive it to zero or below.
TEMP_INV_RANGE = (1.0, 100.0)


class FreezeViolation(RuntimeError):
    """A gradient landed outside the active stage's trainable set."""


class FrozenPassError(dc.NonFiniteError):
    """A NaN or inf in a run's frozen visual pass, which reads only frozen parameters and the data."""


@dataclass(frozen=True)
class TrainConfig:
    """One stage's SGD recipe.

    The defaults are the desk-scale recipe: the schedule keeps the
    paper's reference shape (warmup 1/8 of the run, two factor-0.1 drops)
    but the rates are raised from its 5e-7 up to 5e-6 and the run
    compressed, since the reference rates are sized for large pretrained
    backbones and move nothing at this scale.
    """

    warmup_epochs: int = 10
    lr_start: float = 1e-3
    lr_peak: float = 3e-2
    decay_epochs: tuple[int, ...] = (30, 50)
    decay_factor: float = 0.1
    total_epochs: int = 80
    batch_size: int = 8
    p_groups: int = 4   # group identities per stage-2 batch
    q_views: int = 2    # views per identity
    momentum: float = 0.8
    weight_decay: float = 1e-4
    seed: int = 0
    stage: int = 1
    scale_factor: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.lr_start < self.lr_peak):
            raise ValueError("need 0 < lr_start < lr_peak")
        if self.warmup_epochs < 0 or self.total_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if list(self.decay_epochs) != sorted(set(self.decay_epochs)):
            raise ValueError("decay epochs must be strictly ascending")
        if self.decay_epochs and self.decay_epochs[-1] >= self.total_epochs:
            raise ValueError("decay epochs must precede total_epochs")
        if not (0.0 < self.decay_factor < 1.0):
            raise ValueError("decay factor must lie in (0, 1)")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        if self.batch_size < 2:
            raise ValueError("batches need at least two samples")
        if self.p_groups < 2 or self.q_views < 1:
            raise ValueError("need at least two groups and one view per batch")
        if self.p_groups * self.q_views != self.batch_size:
            raise ValueError("p_groups * q_views must equal batch_size")
        if self.stage not in (1, 2):
            raise ValueError("stage must be 1 or 2")
        if self.scale_factor <= 0:
            raise ValueError("scale_factor must be positive")

    def scaled(self) -> "TrainConfig":
        """Materialize the desk-scale schedule (round half up, floor 1 for
        non-zero counts)."""

        def s(e: int) -> int:
            return max(1, math.floor(e * self.scale_factor + 0.5)) if e > 0 else 0

        return replace(
            self,
            warmup_epochs=s(self.warmup_epochs),
            decay_epochs=tuple(s(e) for e in self.decay_epochs),
            total_epochs=s(self.total_epochs),
            scale_factor=1.0,
        )


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Warmup then step decay; landmarks are read from ``cfg`` as-is."""
    if not (0 <= epoch < cfg.total_epochs):
        raise ValueError(f"epoch {epoch} outside [0, {cfg.total_epochs})")
    if epoch < cfg.warmup_epochs:
        frac = epoch / cfg.warmup_epochs
        return cfg.lr_start + (cfg.lr_peak - cfg.lr_start) * frac
    drops = sum(1 for e in cfg.decay_epochs if epoch >= e)
    return cfg.lr_peak * cfg.decay_factor**drops


def sgd_step(
    state: ModelState,
    grads: Mapping[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    cfg: TrainConfig,
) -> ModelState:
    """v <- momentum*v + g + wd*p; p <- p - lr*v.

    Only the parameters present in ``grads`` move; ``velocity`` maps each
    parameter's name to its v, a float64 array written in place.  The temperature is
    exempt from weight decay: decaying a scale parameter would drag the
    similarity scale toward zero regardless of the data.  It is clipped
    into ``TEMP_INV_RANGE`` after the step.
    """
    updates: dict[str, Tensor] = {}
    for name in sorted(grads):
        p = state.params[name]
        g = np.asarray(grads[name])
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {name} {p.shape}")
        wd = 0.0 if name == "temp.inv" else cfg.weight_decay
        v = velocity[name]
        v *= cfg.momentum
        v += g
        v += wd * p.values
        new = p.values - lr * v
        if name == "temp.inv":
            new = np.clip(new, *TEMP_INV_RANGE)
        try:
            updates[name] = Tensor(new, requires_grad=p.requires_grad, _copy=False)
        except dc.NonFiniteError as e:
            raise dc.NonFiniteError(f"sgd_step on {name}: {e}") from None
    return state.with_params(updates)


def _collect_grads(state: ModelState, grads: Mapping[Tensor, np.ndarray],
                   allowed: Sequence[str]) -> dict[str, np.ndarray]:
    """The gradients of ``Graph.backward`` by parameter name; one outside ``allowed`` raises."""
    touched = {n: grads[p] for n, p in state.params.items() if p in grads}
    extra = touched.keys() - set(allowed)
    if extra:
        raise FreezeViolation(f"gradients outside the trainable set: {sorted(extra)}")
    return touched


def _sample_masks(batch, mvs: MvsConfig | None, rng: np.random.Generator):
    """One mask per view of ``batch``; with MVS off, None (every member kept) and no draw."""
    if mvs is None:
        return [None] * len(batch)
    return [sample_mask(len(s.identity_ids), sample_drop_prob(mvs, rng), rng) for s in batch]


def _largest_update(velocity: dict[str, np.ndarray], names: Sequence[str], lr: float | None) -> str:
    """Which of ``names`` moved most (L2 norm of lr * velocity) in the last SGD step."""
    if lr is None:
        return "no SGD step has run yet"
    norms = {n: np.nan_to_num(lr * np.linalg.norm(velocity[n]), nan=np.inf) for n in names}
    name = max(norms, key=norms.__getitem__)
    return f"largest last update: {name}, L2 norm {norms[name]:.3g}"


def _plan_run(epochs, samples, batches, mvs, rng):
    """Every epoch's steps, and the run's distinct views under their masks.

    Each epoch's batches are drawn, each followed by its masks, from
    ``rng`` in the order a step-by-step loop draws them.  Returns, per
    epoch, each step's sample indices and its views' positions among the
    distinct (sample index, mask bits) pairs, and those pairs' samples and
    masks in first-use order.
    """
    position: dict[tuple, int] = {}
    views, masks, schedule = [], [], []
    for _ in range(epochs):
        steps = []
        for idx in batches(rng):
            at = []
            for i, mask in zip(idx, _sample_masks([samples[i] for i in idx], mvs, rng)):
                key = (int(i), None if mask is None else mask.bits)
                if key not in position:
                    position[key] = len(views)
                    views.append(samples[i])
                    masks.append(mask)
                at.append(position[key])
            steps.append((idx, at))
        schedule.append(steps)
    return schedule, views, masks


def _run(state, cfg, trainable, stream, samples, batches, loss_fn, mvs):
    """The epoch/step loop both stages share.

    ``batches(rng)`` yields one epoch's lists of sample indices and
    ``loss_fn(batch, features, members, row_ids, state)`` returns
    ``(loss, parts)``.  Every epoch is planned before the first step (see
    ``_plan_run``), and one ``grce.FrozenPass`` over the run's distinct
    (view, mask) pairs does their frozen visual work; the loop then keeps
    only each step's sample indices and positions in the pass.  Each
    step's group features (refined in stage 2), member rows and member
    identities are one call on its positions, which computes only what
    the step can train.  A run with no step builds no pass.  A
    ``NonFiniteError`` gains the stage, the epoch and the step (both from
    0) or, for the pass, epoch 0 and the frozen pass, and the trainable
    parameter whose last update was largest; one in the frozen pass is
    raised as a ``FrozenPassError``.
    """
    run = cfg.scaled()
    state = state.with_trainable(trainable)
    velocity = {name: np.zeros(state.params[name].shape) for name in trainable}
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(stream,)))
    history: list[dict] = []
    last_lr = None

    def diverged(e, epoch, where, kind=dc.NonFiniteError):
        return kind(f"stage {cfg.stage}, epoch {epoch}, {where}: {e}; "
                    f"{_largest_update(velocity, trainable, last_lr)}")

    schedule, views, masks = _plan_run(run.total_epochs, samples, batches, mvs, rng)
    try:
        frozen = grce.FrozenPass(views, masks, state, quantity=mvs is not None) if views else None
    except dc.NonFiniteError as e:  # built before epoch 0's first step
        raise diverged(e, 0, "frozen visual pass", FrozenPassError) from e
    del views, masks  # the pass holds what the steps need of them
    for epoch, steps in enumerate(schedule):
        lr = lr_at_epoch(run, epoch)
        sums: dict[str, float] = {}
        for step, (idx, at) in enumerate(steps):
            batch = [samples[i] for i in idx]
            try:
                with dc.Graph() as g:
                    features, members, row_ids = frozen(at, state, refined=cfg.stage == 2)
                    loss, parts = loss_fn(batch, features, members, row_ids, state)
                grads = _collect_grads(state, g.backward(loss), trainable)
                state = sgd_step(state, grads, velocity, lr, run)
            except dc.NonFiniteError as e:
                raise diverged(e, epoch, f"step {step}") from e
            last_lr = lr
            for k, v in {"loss_total": loss.item(), **parts}.items():
                sums[k] = sums.get(k, 0.0) + v
        if steps:
            means = {k: v / len(steps) for k, v in sorted(sums.items())}
            history.append({"epoch": epoch, "stage": cfg.stage, "lr": lr, **means})
    return state, history


def train_stage1(
    state: ModelState,
    samples: Sequence[GroupSample],
    rosters: Mapping[int, tuple[int, ...]],
    cfg: TrainConfig,
    *,
    mvs: MvsConfig | None,
) -> tuple[ModelState, list[dict]]:
    """Prompt learning over shuffled batches, MVS off at ``mvs=None``; returns state and history."""
    if cfg.stage != 1:
        raise ValueError("train_stage1 needs a stage-1 config")
    if len(samples) < 2:
        raise ValueError("stage 1 needs at least two training samples")

    def batches(rng):
        order = rng.permutation(len(samples))
        for at in range(0, len(order), cfg.batch_size):
            idx = order[at : at + cfg.batch_size]
            if len(idx) >= 2:
                yield idx

    def loss_fn(batch, features, members, row_ids, st):
        return gla.stage1_batch_loss(batch, features, members, row_ids, st, rosters)

    return _run(state, cfg, STAGE1_TRAINABLE, _STAGE1_STREAM, samples, batches, loss_fn, mvs)


def _group_views(samples: Sequence[GroupSample]) -> dict[int, list[int]]:
    views: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        views.setdefault(s.group_id, []).append(i)
    return views


def train_stage2(
    state: ModelState,
    samples: Sequence[GroupSample],
    rosters: Mapping[int, tuple[int, ...]],
    cfg: TrainConfig,
    *,
    mvs: MvsConfig | None,
    use_text: bool,
    alpha: float,
    epsilon: float,
) -> tuple[ModelState, list[dict]]:
    """Refinement-head training over identity-balanced (P x Q) batches.

    Text features are computed once from the incoming state and frozen
    for the whole stage; ``use_text=False`` trains on the identity and
    triplet terms alone.  ``mvs=None`` turns MVS off: no member dropout
    and no count term.
    """
    if cfg.stage != 2:
        raise ValueError("train_stage2 needs a stage-2 config")
    views = _group_views(samples)
    gids = sorted(views)
    if len(gids) < 2:
        raise ValueError("stage 2 needs at least two group classes")
    if len(gids) > state.config.n_group_classes:
        raise ValueError(
            f"{len(gids)} training groups exceed the classifier ({state.config.n_group_classes} rows)"
        )
    class_index = {g: i for i, g in enumerate(gids)}

    # outside any graph, so the rows take no gradient
    text_rows = gla.class_text_features(state, gids, rosters) if use_text else None
    p_eff = min(cfg.p_groups, len(gids))

    def batches(rng):
        group_order = rng.permutation(len(gids))
        for at in range(0, len(group_order), p_eff):
            chunk = group_order[at : at + p_eff]
            if len(chunk) < 2:
                continue  # a single group has no negatives
            idx: list[int] = []
            for gi in chunk:
                pool = views[gids[gi]]
                picks = rng.choice(len(pool), size=cfg.q_views, replace=len(pool) < cfg.q_views)
                idx.extend(pool[j] for j in picks)
            yield idx

    def loss_fn(batch, features, members, row_ids, st):
        return losses_mod.stage2_batch_loss(batch, features, st, class_index, text_rows,
                                            alpha=alpha, epsilon=epsilon)

    return _run(state, cfg, STAGE2_TRAINABLE, _STAGE2_STREAM, samples, batches, loss_fn, mvs)
