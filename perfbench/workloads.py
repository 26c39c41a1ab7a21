"""The three benchmark workloads.

Each workload makes its inputs from the seed in `setup` (timed as set-up
time), runs its timed part in `iterate`, and checks that part's outputs in
`check`, outside the timing.  Every iteration of one run repeats the same
inputs, so its results must be identical to the first iteration's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from gcum import cli, encoders, evaluation, synthdata


class CheckFailed(Exception):
    """An output check of the benchmark failed."""


class CommandFailed(Exception):
    """A ``gcum`` command returned an exit code other than 0."""

    def __init__(self, argv, code: int, stderr: str):
        super().__init__(f"gcum {' '.join(argv)} exited {code}: {stderr.strip()}")
        self.code = code


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What one timed iteration produced."""

    wall_s: float
    rank1: float
    mAP: float
    phases: dict = field(default_factory=dict)   # stage1_s, stage2_s where they exist
    fingerprint: object = None                    # compared across iterations and runs


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TrainStandard:
    """The README flow at the default run config, driven through ``cli.main``."""

    name = "train-standard"

    def __init__(self, seed: int, workdir: str):
        self.dir = workdir
        self.config = os.path.join(workdir, "run.json")
        self.data = os.path.join(workdir, "data.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump({"seed": seed}, fh)

    def _gcum(self, *argv: str) -> float:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise CommandFailed(argv, code, err.getvalue())
        return elapsed

    def setup(self) -> None:
        self._gcum("gen-data", "--config", self.config, "--out", self.data)

    def iterate(self) -> Outcome:
        s1, s2 = os.path.join(self.dir, "s1.ckpt"), os.path.join(self.dir, "s2.ckpt")
        report = os.path.join(self.dir, "report.json")
        stage1_s = self._gcum("train", "--stage", "1", "--config", self.config,
                              "--data", self.data, "--out", s1)
        stage2_s = self._gcum("train", "--stage", "2", "--config", self.config,
                              "--data", self.data, "--init-checkpoint", s1, "--out", s2)
        eval_s = self._gcum("eval", "--checkpoint", s2, "--data", self.data, "--out", report)
        with open(report, "r", encoding="utf-8") as fh:
            rep = json.load(fh)["report"]
        self.last = (s1, s2, rep)
        return Outcome(
            wall_s=stage1_s + stage2_s + eval_s,
            rank1=rep["rank1"], mAP=rep["mAP"],
            phases={"stage1_s": stage1_s, "stage2_s": stage2_s},
            fingerprint=(_digest(s2), json.dumps(rep, sort_keys=True)),
        )

    def check(self, out: Outcome, first: Outcome | None) -> None:
        s1, s2, rep = self.last
        for ckpt in (s1, s2):
            with open(ckpt + ".log.jsonl", "r", encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh][1:]
            _require(bool(records), f"{ckpt}: training log has no epochs")
            for rec in records:
                for key, value in rec.items():
                    _require(not key.startswith("loss") or math.isfinite(value),
                             f"{ckpt}: epoch {rec['epoch']} {key}={value}")
        state, meta = encoders.state_from_checkpoint(s2)
        _require(meta["stage"] == 2 and all(np.isfinite(p.values).all() for p in state.params.values()),
                 "stage-2 checkpoint does not reload as a finite stage-2 model")
        _require(rep["rank1"] <= rep["rank5"] <= rep["rank10"], f"CMC not monotone: {rep}")
        if first is not None:
            _require(out.fingerprint == first.fingerprint,
                     "same seed, different stage-2 checkpoint bytes or report")


class RetrievalLarge:
    """``evaluation.evaluate`` of an untrained model over a large test split."""

    name = "retrieval-large"
    n_group_identities = 1500

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        cfg = cli.RunConfig(seed=self.seed, n_group_identities=self.n_group_identities)
        cfg.validate()
        ds = synthdata.generate_dataset(cfg.gen_config(), cfg.seed)
        train_gids, test_gids = synthdata.split_train_test(ds, cfg.train_fraction)
        keep = set(test_gids)
        self.test = [s for s in ds.samples if s.group_id in keep]
        self.state = encoders.init_model_state(cfg.model_config(ds, len(train_gids)), cfg.seed)

    def iterate(self) -> Outcome:
        t0 = time.perf_counter()
        report = evaluation.evaluate(self.state, self.test, 0, refined=True, quantity=True)
        wall = time.perf_counter() - t0
        return Outcome(wall_s=wall, rank1=report.rank1, mAP=report.mAP,
                       fingerprint=report)

    def check(self, out: Outcome, first: Outcome | None) -> None:
        if first is not None:
            _require(out.fingerprint == first.fingerprint, "same inputs, different report")
            return
        queries, gallery = synthdata.split_query_gallery(self.test, 0)
        q = evaluation.extract_features(self.state, queries, refined=True, quantity=True)
        g = evaluation.extract_features(self.state, gallery, refined=True, quantity=True)
        expected = brute_force_report([s.group_id for s in queries],
                                      [s.group_id for s in gallery], q, g)
        _require(out.fingerprint == expected,
                 f"report {out.fingerprint} differs from enumeration {expected}")


def brute_force_report(q_labels, g_labels, q_feats, g_feats) -> evaluation.RetrievalReport:
    """CMC and mAP by enumeration: a gallery row's rank is one plus the rows
    scoring higher plus the equal-scoring rows before it."""
    g_labels = np.asarray(g_labels)
    first_hits, aps = [], []
    for i, label in enumerate(q_labels):
        sims = g_feats @ q_feats[i]
        ranks = sorted(1 + int(np.sum(sims > sims[j])) + int(np.sum(sims[:j] == sims[j]))
                       for j in np.flatnonzero(g_labels == label))
        first_hits.append(ranks[0])
        aps.append(sum((n + 1) / r for n, r in enumerate(ranks)) / len(ranks))
    n = len(q_labels)
    return evaluation.RetrievalReport(
        rank1=sum(r <= 1 for r in first_hits) / n,
        rank5=sum(r <= 5 for r in first_hits) / n,
        rank10=sum(r <= 10 for r in first_hits) / n,
        mAP=float(np.mean(aps)),
        n_query=n,
        n_gallery=len(g_labels),
    )


class AblationShort:
    """``evaluation.run_ablation`` over 3 seeds with a compressed schedule."""

    name = "ablation-short"
    # 0.05 gives one warmup epoch and decays after epochs 2 and 3 of 4.
    scale_factor = 0.05

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        self.cfg = cli.RunConfig(seed=self.seed)
        self.ds = synthdata.generate_dataset(self.cfg.gen_config(), self.cfg.seed)

    def iterate(self) -> Outcome:
        cfg = self.cfg
        train = replace(cfg.train_config(1), scale_factor=self.scale_factor)
        t0 = time.perf_counter()
        rows = evaluation.run_ablation(
            self.ds, cfg.model_base(), train, [cfg.seed + i for i in range(3)],
            mvs_cfg=cfg.mvs, alpha=cfg.alpha, epsilon=cfg.epsilon,
            train_fraction=cfg.train_fraction,
        )
        wall = time.perf_counter() - t0
        full = next(r for r in rows if r["name"] == "Full")
        return Outcome(wall_s=wall, rank1=full["rank1_mean"], mAP=full["mAP_mean"],
                       fingerprint=rows)

    def check(self, out: Outcome, first: Outcome | None) -> None:
        rows = {r["name"]: r for r in out.fingerprint}
        flags = ("name", "gla", "mvs", "grce")
        base = {k: v for k, v in rows["Base"].items() if k not in flags}
        for name in ("+GLA", "+MVS"):
            other = {k: v for k, v in rows[name].items() if k not in flags}
            _require(other == base, f"{name} row differs from Base")
        if first is not None:
            _require(out.fingerprint == first.fingerprint, "same seeds, different ablation rows")


WORKLOADS = {w.name: w for w in (TrainStandard, RetrievalLarge, AblationShort)}
