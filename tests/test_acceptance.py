"""End-to-end acceptance checks.

One test per shipping criterion, each printing a single verdict line.
These intentionally re-derive their expectations from scratch (closed
forms, enumeration oracles, quadrature) rather than reusing library code
under test.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gcum import diffcore as dc
from gcum import gla, grce
from gcum import losses as losses_mod
from gcum.cli import RunConfig, main, run_grad_checks
from gcum.diffcore import Tensor
from gcum.encoders import (
    STAGE1_TRAINABLE,
    STAGE2_TRAINABLE,
    ModelConfig,
    init_model_state,
)
from gcum.evaluation import (
    cmc,
    evaluate,
    mean_average_precision,
    rank_gallery,
    run_ablation,
    run_rows,
)
from gcum.mvs import Mask, MvsConfig, sample_drop_prob, sample_mask
from gcum.synthdata import GenConfig, GroupSample, generate_dataset
from gcum.trainer import TrainConfig, train_stage1, train_stage2


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name} ({detail})")
    assert ok, f"criterion {number}: {name}: {detail}"


def _tiny_setup(seed=2, noise=0.1, dropout=0.3):
    gen = GenConfig(
        n_group_identities=4,
        d_a=6,
        members_min=2,
        members_max=3,
        membership_dropout_prob=dropout,
        appearance_noise_std=noise,
        camera_bias_std=noise,
    )
    ds = generate_dataset(gen, seed=seed)
    state = init_model_state(
        ModelConfig(
            dim=8,
            d_a=6,
            max_members=3,
            group_slots=4,
            tokens_per_identity=2,
            n_person_ids=len(ds.catalog),
            n_group_classes=len(ds.group_ids()),
        ),
        seed=0,
    )
    return ds, state


# --------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    clean = True
    for seed in range(5):
        for rep in run_grad_checks(seed, step=1e-5, tolerance=1e-4).values():
            worst = max(worst, rep.max_rel_error)
            clean = clean and rep.ok
    elapsed = time.perf_counter() - t0
    ok = clean and worst < 1e-4 and elapsed < 60
    _verdict(1, "gradient correctness on 5 seeds",
             ok, f"max_rel_error={worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_losses():
    checks = []

    # equal similarities: every softmax is exactly uniform
    b, c, dim = 4, 3, 5
    e0 = np.zeros(dim)
    e0[0] = 1.0
    _, losses = gla.contrastive_losses(
        [(dc.constant(np.tile(e0, (b, 1))), (0, 1, 2, 0), (0, 1, 2), dc.constant(np.tile(e0, (c, 1))))],
        inv_temp=dc.constant(np.asarray(1.0)),
    )
    # every anchor takes the same value, so the batch means do too
    i2t, t2i = losses["loss_i2t"], losses["loss_t2i"]
    checks.append(("i2t=ln C", abs(i2t - math.log(c)) <= 1e-10))
    checks.append(("t2i=ln B", abs(t2i - math.log(b)) <= 1e-10))

    # uniform logits: smoothing cannot matter, loss is ln N
    _, state = _tiny_setup()
    n_classes = state.config.n_group_classes
    zeroed = state.with_params({
        "grce.classifier": Tensor(np.zeros((n_classes, state.config.dim)))
    })
    uniform = losses_mod.id_loss(dc.constant(np.zeros((1, state.config.dim))), zeroed, [0], 0.1).item()
    checks.append(("id=ln N", abs(uniform - math.log(n_classes)) <= 1e-10))

    # hinge arithmetic on hand-placed points
    feats = dc.constant(np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 0.0], [5.0, 1.0]]))
    inactive = losses_mod.triplet_loss(feats, [0, 0, 1, 1], alpha=0.3).item()
    checks.append(("hinge inactive", inactive == 0.0))
    # unit-square vertices: d_ap equals d_an at every anchor, so each
    # hinge pays exactly the margin
    square = dc.constant(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
    active = losses_mod.triplet_loss(square, [0, 0, 1, 1], alpha=0.25).item()
    checks.append(("hinge active", active == 0.25))

    bad = [name for name, good in checks if not good]
    _verdict(2, "closed-form loss values", not bad,
             "all exact" if not bad else f"failed: {bad}")


def test_criterion_03_mvs_statistics():
    t0 = time.perf_counter()
    cfg = MvsConfig(mu=0.2, sigma=0.1, p0=0.0, pmax=0.5)
    n, draws = 4, 100_000

    # exact clamped-normal moments by boundary masses plus quadrature
    def phi(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    def clamped_moment(k: int) -> float:
        lo, hi = cfg.p0, cfg.pmax
        a = (lo - cfg.mu) / cfg.sigma
        b = (hi - cfg.mu) / cfg.sigma
        mass = lo**k * cdf(a) + hi**k * (1.0 - cdf(b))
        nodes, weights = np.polynomial.legendre.leggauss(200)
        x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * weights
        dens = np.array([phi((v - cfg.mu) / cfg.sigma) / cfg.sigma for v in x])
        return float(mass + np.sum(w * x**k * dens))

    # member 0 is rescued whenever the draw would drop everyone
    expected = np.full(n, clamped_moment(1))
    expected[0] -= clamped_moment(n)

    rng = np.random.default_rng(12345)
    dropped = np.zeros(n)
    for _ in range(draws):
        p = sample_drop_prob(cfg, rng)
        mask = sample_mask(n, p, rng)
        dropped += 1.0 - np.array(mask.bits)
    empirical = dropped / draws

    se = np.sqrt(expected * (1.0 - expected) / draws)
    deviations = np.abs(empirical - expected) / se
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(deviations <= 3.0)) and elapsed < 10
    _verdict(3, "member dropout statistics",
             ok, f"max deviation {deviations.max():.2f} SE, {elapsed:.1f}s")


def test_criterion_04_masking_invariance():
    ds, state = _tiny_setup()
    rosters = ds.group_rosters()
    sample = next(s for s in ds.samples if len(s.identity_ids) == 3)
    peer = next(s for s in ds.samples
                if s.group_id == sample.group_id and s is not sample)
    other_gid = next(g for g in ds.group_ids() if g != sample.group_id)
    others = [s for s in ds.samples if s.group_id == other_gid][:2]
    mask = Mask((1, 0, 1))

    def garble(i):
        """The view with member i's appearance garbled."""
        appearances = sample.appearances.copy()
        appearances[i] += 41.5
        return GroupSample(sample.group_id, sample.camera_id, sample.identity_ids, appearances)

    def backward(loss_fn, trainable):
        """The loss value and trainable gradients of ``loss_fn`` on the state with that trainable set."""
        st = state.with_trainable(trainable)
        with dc.Graph() as graph:
            loss = loss_fn(st)
        grads = graph.backward(loss)
        return loss.item(), {n: grads.get(st.params[n]) for n in trainable}

    def outputs(s):
        frozen = state.with_trainable(())
        v, feats, _ = grce.FrozenPass([s], [mask], frozen, quantity=True)(range(1), frozen, refined=False)
        refined = grce.refine(v, feats, state, [mask.retained])
        batch = [s, peer] + others
        masks = [mask] + [None] * (len(batch) - 1)

        def views(st, stage2):
            """The losses take their views from a frozen pass, as in training."""
            return grce.FrozenPass(batch, masks, st, quantity=True)(range(len(batch)), st, refined=stage2)

        l1, g1 = backward(lambda st: gla.stage1_batch_loss(
            batch, *views(st, False), st, rosters)[0], STAGE1_TRAINABLE)
        gids = sorted({b.group_id for b in batch})
        class_index = {g: i for i, g in enumerate(gids)}
        text_rows = dc.constant(gla.class_text_features(state, gids, rosters).values)
        l2, g2 = backward(lambda st: losses_mod.stage2_batch_loss(
            batch, views(st, True)[0], st, class_index,
            text_rows, alpha=0.3, epsilon=0.1)[0], STAGE2_TRAINABLE)
        grads = {(1, n): g for n, g in g1.items()} | {(2, n): g for n, g in g2.items()}
        return feats.values, v.values, refined.values, l1, l2, grads

    # same view with the dropped member's appearance garbled
    base = outputs(sample)
    pert = outputs(garble(1))
    identical = (
        np.array_equal(base[0], pert[0])
        and np.array_equal(base[1], pert[1])
        and np.array_equal(base[2], pert[2])
        and base[3] == pert[3]
        and base[4] == pert[4]
    )

    # gradient support: every trainable gradient of both losses is the same
    # bits, none of them is zero, and garbling a retained member moves them all
    grads, pert_grads = base[5], pert[5]
    live = all(g is not None and np.any(g != 0.0) for g in grads.values())
    same_grads = live and all(pert_grads[k] is not None and grads[k].tobytes() == pert_grads[k].tobytes()
                             for k in grads)
    retained_grads = outputs(garble(0))[5]
    seen = live and all(retained_grads[k] is not None and not np.array_equal(grads[k], retained_grads[k])
                        for k in grads)

    ok = identical and same_grads and seen
    _verdict(4, "dropped members cannot influence anything",
             ok, f"bit_identical={identical}, {len(grads)} gradients live={live}, "
                 f"identical={same_grads}, moved by a retained member={seen}")


def test_criterion_05_structural_invariances():
    ds, state = _tiny_setup()
    rng = np.random.default_rng(7)
    v = rng.normal(size=(1, 8))
    v /= np.linalg.norm(v)
    feats = rng.normal(size=(3, 8))
    base = grce.refine(dc.constant(v), dc.constant(feats), state, [3]).values
    refine_ok = all(
        np.array_equal(
            base,
            grce.refine(dc.constant(v), dc.constant(feats[list(p)]), state, [3]).values,
        )
        for p in ([1, 0, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1], [0, 2, 1])
    )

    # the group text feature of a permuted roster, and the gradient it sends to each prompt parameter
    stage1 = state.with_trainable(STAGE1_TRAINABLE)
    upstream = dc.constant(rng.normal(size=(1, 8)))

    def text_bits(roster):
        with dc.Graph() as g:
            text = gla.class_text_features(stage1, [0], {0: tuple(roster)})
            loss = dc.reduce_mean(dc.mul(text, upstream))
        grads = g.backward(loss)
        return text.values.tobytes(), {n: grads[p].tobytes() for n, p in stage1.params.items() if p in grads}

    ids = list(ds.group_rosters()[0])
    text = text_bits(ids)
    prompt_ok = "prompt.x" in text[1] and all(
        text_bits(p) == text for p in ([ids[1], ids[0]] + ids[2:], list(reversed(ids))))
    ok = refine_ok and prompt_ok
    _verdict(5, "permutation invariance of refinement and group prompts",
             ok, f"refine={refine_ok}, prompt={prompt_ok}")


def test_criterion_06_freeze_discipline():
    ds, state = _tiny_setup()
    rosters = ds.group_rosters()
    before = {k: p.values.copy() for k, p in state.params.items()}
    cfg = TrainConfig(
        lr_start=1e-4, lr_peak=1e-3, warmup_epochs=2, decay_epochs=(),
        total_epochs=5, batch_size=4, p_groups=2, q_views=2, seed=3, stage=1,
        scale_factor=1.0,
    )
    # the trainer audits gradient support at every step and raises on leaks
    state1, hist1 = train_stage1(state, ds.samples, rosters, cfg,
                                 mvs=MvsConfig())
    moved1 = {k for k in before if not np.array_equal(before[k], state1.params[k].values)}
    mid = {k: p.values.copy() for k, p in state1.params.items()}
    state2, hist2 = train_stage2(state1, ds.samples, rosters, replace(cfg, stage=2),
                                 mvs=MvsConfig(), use_text=True, alpha=0.3, epsilon=0.1)
    moved2 = {k for k in mid if not np.array_equal(mid[k], state2.params[k].values)}
    ok = (
        len(hist1) == 5 and len(hist2) == 5
        and moved1 <= set(STAGE1_TRAINABLE) and moved1
        and moved2 <= set(STAGE2_TRAINABLE) and moved2
    )
    _verdict(6, "per-step gradient support stays inside the stage's set",
             ok, f"stage1 moved {sorted(moved1)}, stage2 moved {sorted(moved2)}")


def test_criterion_07_metric_oracles():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(200):
        n_g = int(rng.integers(1, 21))
        dim = int(rng.integers(2, 6))
        n_ids = int(rng.integers(1, 5))
        labels = [int(x) for x in rng.integers(0, n_ids, size=n_g)]
        qid = labels[int(rng.integers(0, n_g))]
        g = rng.normal(size=(n_g, dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        q = rng.normal(size=dim)
        q /= np.linalg.norm(q)

        ranked_hits = rank_gallery(q[None], g, [qid], labels)

        sims = [sum(float(a) * float(b) for a, b in zip(row, q)) for row in g]
        order = sorted(range(n_g), key=lambda i: (-sims[i], i))
        ranked = [labels[i] for i in order]
        hits, precs = 0, []
        for rank, lab in enumerate(ranked, start=1):
            if lab == qid:
                hits += 1
                precs.append(hits / rank)
        ap = sum(precs) / len(precs)

        for k in (1, 5, 10, 20):
            if cmc(ranked_hits, k) != (1.0 if qid in ranked[:k] else 0.0):
                mismatches += 1
        if mean_average_precision(ranked_hits) != pytest.approx(ap, abs=1e-12):
            mismatches += 1

    hand_ok = all(
        mean_average_precision(_ranked_at(r, 6)) == 1.0 / r for r in (1, 2, 3, 4, 5, 6)
    )
    ok = mismatches == 0 and hand_ok
    _verdict(7, "CMC and mAP match brute-force enumeration",
             ok, f"{mismatches} mismatches over 200 instances, hand cases {'exact' if hand_ok else 'WRONG'}")


def _ranked_at(rank: int, size: int) -> np.ndarray:
    """A one-query hit matrix whose only relevant entry sits at the given rank."""
    return np.arange(size)[None, :] == rank - 1


def test_criterion_08_ablation_trend():
    cfg = RunConfig()  # the standard benchmark
    ds = generate_dataset(cfg.gen_config(), cfg.seed)

    t0 = time.perf_counter()
    run_rows(
        ds, cfg.model_base(), cfg.train_config(1), 0, [(True, True, True)],
        mvs_cfg=cfg.mvs, alpha=cfg.alpha, epsilon=cfg.epsilon,
        train_fraction=cfg.train_fraction, query_camera=0,
    )
    full_runtime = time.perf_counter() - t0

    rows = run_ablation(
        ds, cfg.model_base(), cfg.train_config(1), seeds=(0, 1, 2),
        mvs_cfg=cfg.mvs, alpha=cfg.alpha, epsilon=cfg.epsilon,
        train_fraction=cfg.train_fraction,
    )
    r1 = {row["name"]: row["rank1_mean"] for row in rows}
    ordered = r1["Full"] >= r1["+GLA+MVS"] >= r1["Base"]
    margin = r1["Full"] - r1["Base"]
    ok = ordered and margin >= 0.05 and full_runtime < 300
    _verdict(8, "module ablation trend on the standard benchmark", ok,
             f"Full={r1['Full']:.3f} +GLA+MVS={r1['+GLA+MVS']:.3f} Base={r1['Base']:.3f}, "
             f"margin={margin:.3f}, full run {full_runtime:.0f}s")


def test_criterion_09_end_to_end_determinism(tmp_path):
    config = {
        "seed": 11, "dim": 8, "d_a": 6, "M0": 3, "K": 3, "tokens_per_identity": 2,
        "data": {"n_group_identities": 6},
        "train": {"warmup_epochs": 1, "decay_epochs": [], "total_epochs": 2,
                  "batch_size": 4, "p_groups": 2, "q_views": 2, "scale_factor": 1.0},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    def flow(tag: str) -> dict:
        d = tmp_path / tag
        d.mkdir()
        data, s1, s2 = str(d / "data.json"), str(d / "s1.ckpt"), str(d / "s2.ckpt")
        report = str(d / "report.json")
        assert main(["gen-data", "--config", str(cfg_path), "--out", data]) == 0
        assert main(["train", "--stage", "1", "--config", str(cfg_path),
                     "--data", data, "--out", s1]) == 0
        assert main(["train", "--stage", "2", "--config", str(cfg_path), "--data", data,
                     "--init-checkpoint", s1, "--out", s2]) == 0
        assert main(["eval", "--checkpoint", s2, "--data", data, "--out", report]) == 0
        return {
            "s1": Path(s1).read_bytes(),
            "s2": Path(s2).read_bytes(),
            "report": json.loads(Path(report).read_text())["report"],
        }

    a = flow("a")
    b = flow("b")
    ok = a["s1"] == b["s1"] and a["s2"] == b["s2"] and a["report"] == b["report"]
    _verdict(9, "same seed, byte-identical checkpoints and reports",
             ok, f"rank1={a['report']['rank1']:.3f} both runs" if ok else "runs diverged")


def test_criterion_10_zero_perturbation_sanity():
    gen = GenConfig(
        n_group_identities=6,
        d_a=6,
        members_min=2,
        members_max=3,
        membership_dropout_prob=0.0,
        appearance_noise_std=0.0,
        camera_bias_std=0.0,
    )
    ds = generate_dataset(gen, seed=4)
    state = init_model_state(
        ModelConfig(dim=8, d_a=6, max_members=3, group_slots=3, tokens_per_identity=2,
                    n_person_ids=len(ds.catalog),
                    n_group_classes=len(ds.group_ids())),
        seed=0,
    )
    report = evaluate(state, ds.samples, 0, refined=False, quantity=False)
    ok = report.rank1 == 1.0
    _verdict(10, "perfect retrieval with all perturbations off",
             ok, f"rank1={report.rank1:.3f} on {report.n_query} queries")
