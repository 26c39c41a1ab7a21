"""Retrieval metrics and the module-ablation harness.

Queries come from one camera, the gallery from the remaining cameras.
All queries are ranked against the gallery in one call by cosine
similarity (descending, ties broken by ascending gallery index).  The
result is one boolean hit matrix, a row per query and a column per rank,
and CMC Rank-k and mean average precision are reductions over its rows.
Views are featurized and queries ranked in chunks of a fixed size, so
past that matrix eval's working memory does not grow with the test split.
Evaluation always sees full member sets: member dropout is a
training-time augmentation only.

The ablation harness trains and evaluates the six module combinations
from scratch on a fixed dataset, varying only the run seed, and reports
per-configuration means and standard deviations.  Rows with the same
stage 1 share its training.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import grce
from .encoders import ModelConfig, ModelState, init_model_state
from .mvs import MvsConfig
from .synthdata import Dataset, GroupSample, split_query_gallery, split_train_test
from .trainer import TrainConfig, train_stage1, train_stage2


# Queries ranked per step.  A query's hit row has the same bits in a chunk
# of any size, so chunking bounds eval memory and leaves every byte of a
# report as it is; views are featurized ``grce.VIEWS_PER_CHUNK`` at a time.
_QUERIES_PER_CHUNK = 256


def rank_gallery(query_feats, gallery_feats, query_labels, gallery_labels) -> np.ndarray:
    """Rank the gallery for every query; returns the (n_query, n_gallery) hit matrix.

    ``hits[i, r]`` is true when the gallery row ranked r-th for query i
    carries query i's label.  Rows rank by cosine similarity, descending,
    ties by ascending gallery index; byte-equal rows always tie.  Queries
    are ranked ``_QUERIES_PER_CHUNK`` at a time against the whole gallery.
    """
    q = np.asarray(query_feats, dtype=np.float64)
    g = np.asarray(gallery_feats, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] == 0:
        raise ValueError("gallery must be a non-empty matrix")
    if q.ndim != 2 or q.shape[0] == 0 or q.shape[1] != g.shape[1]:
        raise ValueError(f"query shape {q.shape} does not match gallery width {g.shape[1]}")
    if len(query_labels) != q.shape[0] or len(gallery_labels) != g.shape[0]:
        raise ValueError("one label per query and per gallery row required")
    norms = np.concatenate([np.linalg.norm(q, axis=1), np.linalg.norm(g, axis=1)])
    if np.max(np.abs(norms - 1.0)) > 1e-6:
        raise ValueError("retrieval expects unit-norm features")
    # a product can round by row position, so byte-equal rows take their first copy's score
    g = np.ascontiguousarray(g)
    _, first, copy_of = np.unique(g.view(np.dtype((np.void, g.strides[0]))), return_index=True,
                                  return_inverse=True)
    score_as = first[copy_of.ravel()] if first.size < g.shape[0] else None
    q_labels, g_labels = np.asarray(query_labels), np.asarray(gallery_labels)
    hits = np.zeros((q.shape[0], g.shape[0]), dtype=bool)
    for start in range(0, q.shape[0], _QUERIES_PER_CHUNK):
        chunk = slice(start, start + _QUERIES_PER_CHUNK)
        sims = np.matmul(g[None], q[chunk, :, None])[..., 0]  # a product per query: q @ g.T rounds differently
        if score_as is not None:
            sims = sims[:, score_as]
        # a relevant row's rank: rows scoring higher + equal rows before it; `at` row i lists query i's
        qi, gj = np.nonzero(q_labels[chunk, None] == g_labels)
        slot = np.arange(qi.size) - np.searchsorted(qi, qi)
        at = np.zeros((sims.shape[0], slot.max(initial=-1) + 1), dtype=np.int64)
        at[qi, slot] = gj
        own = np.take_along_axis(sims, at, axis=1)[:, :, None]
        ahead = (sims[:, None] > own) | ((sims[:, None] == own) & (np.arange(g.shape[0]) < at[:, :, None]))
        hits[start + qi, np.count_nonzero(ahead, axis=2)[qi, slot]] = True
    return hits


def cmc(hits: np.ndarray, k: int) -> float:
    """Fraction of queries with a correct match somewhere in the top k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if hits.shape[0] == 0:
        raise ValueError("no queries")
    return int(np.count_nonzero(hits[:, :k].any(axis=1))) / hits.shape[0]


def mean_average_precision(hits: np.ndarray) -> float:
    if hits.shape[0] == 0:
        raise ValueError("no queries")
    qi, rank = np.nonzero(hits)
    relevant = np.bincount(qi, minlength=hits.shape[0])
    if not relevant.all():
        raise ValueError(f"query {int(np.argmin(relevant))} has no relevant gallery entry")
    # a query's n-th hit (from 0) at rank r has precision (n + 1) / (r + 1); the terms a
    # full-width row would add between them are exact zeros, so dropping them keeps the bits
    n = np.arange(qi.size) - np.searchsorted(qi, qi)
    precision = np.zeros((hits.shape[0], relevant.max()))
    precision[qi, n] = (n + 1) / (rank + 1)
    # cumsum adds left to right like a python sum; np.sum pairs terms and rounds differently
    aps = np.cumsum(precision, axis=1)[:, -1] / relevant
    return float(np.mean(aps))


@dataclass(frozen=True)
class RetrievalReport:
    rank1: float
    rank5: float
    rank10: float
    mAP: float
    n_query: int
    n_gallery: int

    def __post_init__(self):
        if not (0.0 <= self.rank1 <= self.rank5 <= self.rank10 <= 1.0):
            raise ValueError("CMC must be non-decreasing in k and lie in [0, 1]")
        if not (0.0 <= self.mAP <= 1.0):
            raise ValueError("mAP must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


# --------------------------------------------------------------------------
# Feature extraction and the cross-camera protocol


def extract_features(
    state: ModelState,
    samples: Sequence[GroupSample],
    *,
    refined: bool,
    quantity: bool,
) -> np.ndarray:
    """One unit-norm feature row per sample; full member sets, no recording.

    Each ``grce.VIEWS_PER_CHUNK`` views are one ``grce.FrozenPass`` on the
    state with nothing trainable, taken as one run.  A view's feature has
    the same bits in any stack, so chunking bounds memory and moves no byte.
    """
    state = state.with_trainable(())
    feats = np.empty((len(samples), state.config.dim))
    for start in range(0, len(samples), grce.VIEWS_PER_CHUNK):
        chunk = samples[start:start + grce.VIEWS_PER_CHUNK]
        frozen = grce.FrozenPass(chunk, [None] * len(chunk), state, quantity=quantity)
        feats[start:start + len(chunk)] = frozen(0, len(chunk), state, refined=refined)[0].values
    return feats


def evaluate(
    state: ModelState,
    samples: Sequence[GroupSample],
    query_camera: int,
    *,
    refined: bool,
    quantity: bool,
) -> RetrievalReport:
    queries, gallery = split_query_gallery(samples, query_camera)
    q_feats = extract_features(state, queries, refined=refined, quantity=quantity)
    g_feats = extract_features(state, gallery, refined=refined, quantity=quantity)
    hits = rank_gallery(
        q_feats, g_feats, [s.group_id for s in queries], [s.group_id for s in gallery]
    )
    return RetrievalReport(
        rank1=cmc(hits, 1),
        rank5=cmc(hits, 5),
        rank10=cmc(hits, 10),
        mAP=mean_average_precision(hits),
        n_query=len(queries),
        n_gallery=len(gallery),
    )


# --------------------------------------------------------------------------
# Ablation harness

# name, (prompt learning, member dropout + count term, refinement head)
ABLATION_ROWS: tuple[tuple[str, bool, bool, bool], ...] = (
    ("Base", False, False, False),
    ("+GLA", True, False, False),
    ("+MVS", False, True, False),
    ("+GRCE", False, False, True),
    ("+GLA+MVS", True, True, False),
    ("Full", True, True, True),
)

_METRICS = ("rank1", "rank5", "rank10", "mAP")


def run_rows(
    ds: Dataset,
    model_base: ModelConfig,
    train_base: TrainConfig,
    seed: int,
    rows: Sequence[tuple[bool, bool, bool]],
    *,
    mvs_cfg: MvsConfig,
    alpha: float,
    epsilon: float,
    train_fraction: float,
    query_camera: int,
) -> list[RetrievalReport]:
    """Train each ``(use_gla, use_mvs, use_grce)`` of ``rows`` from scratch and evaluate it.

    ``model_base`` is sized for ``ds`` by ``ModelConfig.for_dataset``, so
    its ``d_a`` must be the dataset's.  ``mvs_cfg`` is the member dropout
    of the rows with ``use_mvs``.

    Without prompt learning there is nothing for stage 1 to optimize, so
    the count matrix keeps its neutral zero initialization; without the
    refinement head there is no stage 2.  Stage 2 drops the image-text
    term when no prompts were learned.  With neither the count term nor the
    refinement head nothing reads what stage 1 trains, so it is skipped.
    Rows with prompt learning and the same ``use_mvs`` run the same stage
    1, so it is trained once and shared.  The order of the rows does not
    matter: each stage trains on a new state with its own trainable set
    and leaves the state it was given as it was, so every row starts from
    one initial state.
    """
    train_gids, test_gids = split_train_test(ds, train_fraction)
    train_samples = ds.views_of(train_gids)
    test_samples = ds.views_of(test_gids)
    rosters = ds.group_rosters()

    initial = init_model_state(model_base.for_dataset(ds, len(train_gids)), seed)
    stage1_states: dict[bool, ModelState] = {}  # use_mvs -> trained stage 1
    reports = []
    for use_gla, use_mvs, use_grce in rows:
        state = initial
        masks_cfg = mvs_cfg if use_mvs else None
        if use_gla and (use_mvs or use_grce):
            if use_mvs not in stage1_states:
                stage1 = replace(train_base, stage=1, seed=seed)
                stage1_states[use_mvs], _ = train_stage1(
                    state, train_samples, rosters, stage1, mvs=masks_cfg
                )
            state = stage1_states[use_mvs]
        if use_grce:
            stage2 = replace(train_base, stage=2, seed=seed)
            state, _ = train_stage2(
                state, train_samples, rosters, stage2,
                mvs=masks_cfg, use_text=use_gla, alpha=alpha, epsilon=epsilon,
            )
        reports.append(evaluate(
            state, test_samples, query_camera, refined=use_grce, quantity=use_mvs
        ))
    return reports


def run_ablation(
    ds: Dataset,
    model_base: ModelConfig,
    train_base: TrainConfig,
    seeds: Sequence[int],
    *,
    mvs_cfg: MvsConfig,
    alpha: float,
    epsilon: float,
    train_fraction: float,
    query_camera: int = 0,  # perfbench/workloads.py calls it without one
) -> list[dict]:
    """Mean and standard deviation per configuration over the run seeds.

    ``+GLA+MVS`` and ``Full`` run the same stage 1 for a seed; it is
    trained once and shared.  ``+GLA`` reads no stage-1 parameter, so it
    skips stage 1 and equals ``Base``.
    """
    if len(seeds) < 3:
        raise ValueError("ablation averaging needs at least three seeds")
    per_seed = [
        run_rows(
            ds, model_base, train_base, seed, [flags for _, *flags in ABLATION_ROWS],
            mvs_cfg=mvs_cfg, alpha=alpha, epsilon=epsilon,
            train_fraction=train_fraction, query_camera=query_camera,
        )
        for seed in seeds
    ]
    rows = []
    for j, (name, use_gla, use_mvs, use_grce) in enumerate(ABLATION_ROWS):
        reports = [seed_reports[j] for seed_reports in per_seed]
        row = {"name": name, "gla": use_gla, "mvs": use_mvs, "grce": use_grce}
        for metric in _METRICS:
            vals = np.array([getattr(r, metric) for r in reports])
            row[f"{metric}_mean"] = float(np.mean(vals))
            row[f"{metric}_std"] = float(np.std(vals))
        row["per_seed"] = [r.to_dict() for r in reports]
        rows.append(row)
    return rows


def format_ablation_table(rows: Sequence[Mapping]) -> str:
    """Aligned plain-text table, one line per configuration."""
    header = f"{'config':<10}" + "".join(f"{m:>16}" for m in _METRICS)
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = "".join(
            f"{row[f'{m}_mean']:>8.3f} ±{row[f'{m}_std']:<6.3f}" for m in _METRICS
        )
        lines.append(f"{row['name']:<10}" + cells)
    return "\n".join(lines)
