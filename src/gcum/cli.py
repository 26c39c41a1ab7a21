"""Command-line entry point: reproducible runs from one JSON config.

Commands: ``gen-data``, ``train``, ``eval``, ``grad-check``, ``ablate``.
Every run is a pure function of (config, seed); every artifact written to
disk embeds the config echo and the tool version.

Exit codes: 0 ok, 2 config error, 3 I/O or artifact format error,
4 missing checkpoint, 5 non-finite loss, 6 gradient check failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Thread cap; must land in the environment before numpy starts its pools,
# which is why it sits above the imports.  Already-set variables win.
_threads = os.environ.get("GCUM_THREADS")
if _threads and _threads.isdigit() and int(_threads) > 0:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from . import diffcore as dc
from .diffcore import Tensor
from . import gla, grce
from . import losses as losses_mod
from .encoders import (
    STAGE1_TRAINABLE,
    STAGE2_TRAINABLE,
    CheckpointError,
    ModelConfig,
    ModelState,
    init_model_state,
    save_checkpoint,
    state_from_checkpoint,
)
from .evaluation import evaluate, format_ablation_table, run_ablation
from .jsondoc import json_int, read, require
from .mvs import Mask, MvsConfig
from .synthdata import (
    Dataset,
    DatasetFormatError,
    GenConfig,
    dataset_to_doc,
    generate_dataset,
    load_dataset,
    split_train_test,
)
from .trainer import TEMP_INV_RANGE, FrozenPassError, TrainConfig, train_stage1, train_stage2

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CHECKPOINT = 4
EXIT_NONFINITE = 5
EXIT_GRADCHECK = 6


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# --------------------------------------------------------------------------
# Run configuration

# The data keys in echo order: the GenConfig fields that M0 and d_a leave
# to the data section, then ``train_fraction``.
_GEN_KEYS = tuple(f.name for f in fields(GenConfig) if f.name not in ("members_max", "d_a"))
_DATA_KEYS = _GEN_KEYS + ("train_fraction",)
# The train keys in echo order: the run sets the seed and each command the stage.
_TRAIN_KEYS = sorted(f.name for f in fields(TrainConfig) if f.name not in ("seed", "stage"))


@dataclass(frozen=True)
class RunConfig:
    """One experiment: data, model widths, module toggles, training recipe.

    ``M0`` is the largest group size anywhere in the run and ``K`` the
    number of identity slots in the group text description; both feed the
    generator and the model so the two cannot drift apart.
    """

    seed: int = 0
    dim: int = ModelConfig.dim
    d_a: int = GenConfig.d_a
    m0: int = GenConfig.members_max          # JSON key "M0"
    k_slots: int = ModelConfig.group_slots   # JSON key "K"
    tokens_per_identity: int = ModelConfig.tokens_per_identity
    gla_enabled: bool = True
    mvs_enabled: bool = True
    mvs: MvsConfig = field(default_factory=MvsConfig)
    alpha: float = 0.3
    epsilon: float = 0.1
    train: TrainConfig = field(default_factory=TrainConfig)
    n_group_identities: int = GenConfig.n_group_identities
    members_min: int = GenConfig.members_min
    n_cameras: int = GenConfig.n_cameras
    views_per_group_per_camera: int = GenConfig.views_per_group_per_camera
    membership_dropout_prob: float = GenConfig.membership_dropout_prob
    layout_permutation: bool = GenConfig.layout_permutation
    appearance_noise_std: float = GenConfig.appearance_noise_std
    camera_bias_std: float = GenConfig.camera_bias_std
    train_fraction: float = 0.7

    def validate(self) -> None:
        """Cross-field checks; building the component configs runs theirs."""
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.m0 < 2:
            raise ValueError("M0 must be at least 2: groups need two members")
        if self.k_slots < self.m0:
            raise ValueError("K must cover M0 identity slots")
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError("label smoothing epsilon must lie in [0, 1)")
        if self.alpha < 0:
            raise ValueError("triplet margin alpha must be non-negative")
        self.gen_config()
        self.model_base()
        train = self.train_config(1)
        try:
            train.scaled()
        except ValueError as e:
            raise ValueError(f"train.scale_factor {train.scale_factor} collapses the schedule: {e}") from None

    __post_init__ = validate

    # resolved component configs -------------------------------------------

    def gen_config(self) -> GenConfig:
        return GenConfig(members_max=self.m0, d_a=self.d_a,
                         **{k: getattr(self, k) for k in _GEN_KEYS})

    def model_base(self) -> ModelConfig:
        # identity and class counts keep their placeholders until a dataset is known
        return ModelConfig(dim=self.dim, d_a=self.d_a, max_members=self.m0, group_slots=self.k_slots,
                           tokens_per_identity=self.tokens_per_identity)

    def model_config(self, ds: Dataset, n_group_classes: int) -> ModelConfig:
        return self.model_base().for_dataset(ds, n_group_classes)

    def train_config(self, stage: int) -> TrainConfig:
        return replace(self.train, seed=self.seed, stage=stage)

    # JSON round trip --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dim": self.dim,
            "d_a": self.d_a,
            "M0": self.m0,
            "K": self.k_slots,
            "tokens_per_identity": self.tokens_per_identity,
            "mvs": {"enabled": self.mvs_enabled, **self.mvs.to_dict()},
            "gla": {"enabled": self.gla_enabled},
            "losses": {"alpha": self.alpha, "epsilon": self.epsilon},
            "train": {
                k: (list(v) if isinstance(v := getattr(self.train, k), tuple) else v)
                for k in _TRAIN_KEYS
            },
            "data": {k: getattr(self, k) for k in _DATA_KEYS},
        }

    @classmethod
    def from_dict(cls, doc: dict, *, complete: bool = False) -> "RunConfig":
        """Parse a config document; the default echo is the schema."""
        d = read(doc, cls().to_dict(), "config", complete=complete)
        mvs_enabled = d["mvs"].pop("enabled")
        return cls(
            seed=d["seed"],
            dim=d["dim"],
            d_a=d["d_a"],
            m0=d["M0"],
            k_slots=d["K"],
            tokens_per_identity=d["tokens_per_identity"],
            gla_enabled=d["gla"]["enabled"],
            mvs_enabled=mvs_enabled,
            mvs=MvsConfig(**d["mvs"]),
            alpha=d["losses"]["alpha"],
            epsilon=d["losses"]["epsilon"],
            train=TrainConfig(**d["train"]),
            **d["data"],
        )


def load_run_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot read config {path}: {e}") from e
    try:
        return RunConfig.from_dict(json.loads(blob.decode("utf-8")))
    except (ValueError, TypeError) as e:
        raise CliError(EXIT_CONFIG, f"bad config {path}: {e}") from e


# --------------------------------------------------------------------------
# Gradient verification harness

_CHECKED_LOSSES = ("stage1_contrastive", "identity", "triplet", "image_text", "stage2_total")


def run_grad_checks(seed: int, *, step: float, tolerance: float) -> dict:
    """Finite-difference sweep of every loss against its trainable set.

    Runs on a deliberately tiny instance (three 3-member groups, width 4)
    so the entry-by-entry sweep stays fast.  Masks are fixed: alternating
    samples drop their last member, which exercises the dropped-row paths
    while the unmasked samples cover every count-matrix row.  The triplet
    margin is large enough that every mined hinge stays active, keeping
    the loss differentiable at the evaluation point.
    """
    cfg = RunConfig(seed=seed, dim=4, d_a=4, m0=3, k_slots=3, tokens_per_identity=2,
                    alpha=0.5, n_group_identities=3, members_min=3, membership_dropout_prob=0.0,
                    appearance_noise_std=0.2, camera_bias_std=0.1)
    ds = generate_dataset(cfg.gen_config(), cfg.seed)
    model_cfg = cfg.model_config(ds, n_group_classes=len(ds.group_ids()))
    state = init_model_state(model_cfg, seed=seed + 1)
    # At the 0.02-std init the loss is nearly flat through the refinement
    # head, so its finite differences drown in roundoff.  Move those
    # parameters to O(1) magnitudes: the check must run where gradients
    # are measurable.
    bump = np.random.default_rng(seed + 2)
    state = state.with_params({
        name: Tensor(bump.normal(scale=0.5, size=state.params[name].shape),
                     requires_grad=True, _copy=False)
        for name in STAGE2_TRAINABLE
    })
    rosters = ds.group_rosters()

    by_group: dict[int, list] = {}
    for s in ds.samples:
        by_group.setdefault(s.group_id, []).append(s)
    gids = sorted(by_group)[:2]
    samples = [by_group[g][v] for g in gids for v in range(2)]
    masks = [
        None if i % 2 else Mask(tuple([1] * (len(s.identity_ids) - 1) + [0]))
        for i, s in enumerate(samples)
    ]
    class_index = {g: i for i, g in enumerate(gids)}
    targets = [class_index[s.group_id] for s in samples]
    text_rows = gla.class_text_features(state, gids, rosters)  # outside any graph: no gradient

    frozen = None  # the views training computes: one pass per check, over its trainable set
    n = len(samples)

    def _refined(st):
        return frozen(0, n, st, refined=True)[0]

    def stage1_fn(st):
        return gla.stage1_batch_loss(samples, *frozen(0, n, st, refined=False), st, rosters)[0]

    def id_fn(st):
        return losses_mod.id_loss(_refined(st), st, targets, cfg.epsilon)

    def tri_fn(st):
        return losses_mod.triplet_loss(_refined(st), targets, cfg.alpha)

    def i2tce_fn(st):
        return losses_mod.i2tce_loss(_refined(st), text_rows, targets, st.params["temp.inv"], cfg.epsilon)

    def stage2_fn(st):
        return losses_mod.stage2_batch_loss(
            samples, _refined(st), st, class_index, text_rows, alpha=cfg.alpha, epsilon=cfg.epsilon
        )[0]

    checks = {
        "stage1_contrastive": (STAGE1_TRAINABLE, stage1_fn),
        "identity": (STAGE2_TRAINABLE, id_fn),
        "triplet": (STAGE2_TRAINABLE, tri_fn),
        "image_text": (STAGE2_TRAINABLE, i2tce_fn),
        "stage2_total": (STAGE2_TRAINABLE, stage2_fn),
    }
    reports = {}
    for name in _CHECKED_LOSSES:
        trainable, fn = checks[name]
        params = state.with_trainable(trainable).params
        frozen = grce.FrozenPass(samples, masks, ModelState(state.config, params), quantity=True)
        reports[name] = dc.grad_check(lambda ps: fn(ModelState(state.config, ps)), params,
                                      step=step, tolerance=tolerance)
    return reports


# --------------------------------------------------------------------------
# Commands


def _load_data(path: str) -> Dataset:
    try:
        return load_dataset(path)
    except FileNotFoundError as e:
        raise CliError(EXIT_IO, f"dataset not found: {path}") from e


def _load_checkpoint_state(path: str):
    """A checkpoint's state, its checked module flags and run config, and the sidecar as stored."""
    try:
        state, meta = state_from_checkpoint(path)
    except FileNotFoundError as e:
        if os.path.exists(path):  # the checkpoint is there, so the sidecar is what went
            raise CheckpointError(f"checkpoint sidecar {path}.meta.json not found") from e
        raise CliError(EXIT_CHECKPOINT, f"checkpoint not found: {path}") from e
    where = f"checkpoint sidecar {path}.meta.json"
    if require(meta, "stage", where, json_int, error=CheckpointError) not in (1, 2):
        raise CheckpointError(f"{where} stage must be 1 or 2, got {meta['stage']}")
    flags = dict.fromkeys(("gla", "grce", "mvs"), True)  # in the order the sidecar stores them
    modules = require(meta, "modules", where, lambda d: read(d, flags, "modules", complete=True),
                      error=CheckpointError)
    run = require(meta, "run", where, lambda d: RunConfig.from_dict(d, complete=True), error=CheckpointError)
    inv = state.params["temp.inv"].item()
    if not TEMP_INV_RANGE[0] <= inv <= TEMP_INV_RANGE[1]:
        raise CheckpointError(f"checkpoint {path} tensor 'temp.inv' is {inv}, outside {list(TEMP_INV_RANGE)}")
    return state, modules, run, meta


def _write_json(path: str, doc: dict) -> None:
    # json writes each float as the shortest repr that parses back to it
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")))
            fh.write("\n")
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot write {path}: {e}") from e


def _check_data_fits(ds: Dataset, samples, d_a: int, m0: int) -> None:
    """The dataset's appearance width and the largest of ``samples`` fit the model."""
    if ds.d_a != d_a:
        raise CliError(EXIT_CONFIG, f"config d_a={d_a} but dataset has d_a={ds.d_a}")
    largest = max(len(s.identity_ids) for s in samples)
    if largest > m0:
        raise CliError(EXIT_CONFIG, f"dataset has {largest}-member views but config M0={m0}")


def cmd_gen_data(args) -> int:
    cfg = load_run_config(args.config)
    ds = generate_dataset(cfg.gen_config(), cfg.seed)
    doc = dataset_to_doc(ds)
    doc["tool_version"] = __version__
    doc["run_config"] = cfg.to_dict()
    _write_json(args.out, doc)
    cams = sorted({s.camera_id for s in ds.samples})
    print(f"wrote {args.out}: {len(ds.group_ids())} groups, "
          f"{len(ds.samples)} views, {len(cams)} cameras, "
          f"{len(ds.catalog)} persons")
    return EXIT_OK


def cmd_train(args) -> int:
    if args.stage == 1 and args.init_checkpoint is not None:
        raise CliError(EXIT_CONFIG, "--init-checkpoint is for stage 2 only; stage 1 trains from the seed")
    cfg = load_run_config(args.config)
    ds = _load_data(args.data)
    _check_data_fits(ds, ds.samples, cfg.d_a, cfg.m0)
    rosters = ds.group_rosters()
    widest = max(len(r) for r in rosters.values())
    if widest > cfg.k_slots:
        raise CliError(EXIT_CONFIG, f"dataset has {widest}-member rosters but config K={cfg.k_slots}")
    train_gids, _ = split_train_test(ds, cfg.train_fraction)
    train_samples = ds.views_of(train_gids)
    mvs_cfg = cfg.mvs if cfg.mvs_enabled else None
    model_cfg = cfg.model_config(ds, n_group_classes=len(train_gids))

    if args.stage == 1:
        if not cfg.gla_enabled:
            raise CliError(EXIT_CONFIG, "stage 1 trains the prompt vocabulary; gla.enabled is false")
        state = init_model_state(model_cfg, cfg.seed)
        state, history = train_stage1(state, train_samples, rosters, cfg.train_config(1), mvs=mvs_cfg)
        modules = {"gla": True, "mvs": cfg.mvs_enabled, "grce": False}
    else:
        if not args.init_checkpoint:
            raise CliError(EXIT_CHECKPOINT, "stage 2 needs --init-checkpoint from a stage-1 run")
        state, modules, _, _ = _load_checkpoint_state(args.init_checkpoint)
        if state.config != model_cfg:
            raise CliError(EXIT_CONFIG, "init checkpoint was trained under a different model config")
        use_text = modules["gla"]
        try:
            state, history = train_stage2(
                state, train_samples, rosters, cfg.train_config(2),
                mvs=mvs_cfg, use_text=use_text, alpha=cfg.alpha, epsilon=cfg.epsilon,
            )
        except FrozenPassError as e:  # its inputs are the checkpoint's frozen weights and the data
            raise CheckpointError(f"init checkpoint {args.init_checkpoint} overflows in {e}") from None
        modules = {"gla": use_text, "mvs": cfg.mvs_enabled, "grce": True}

    meta_out = {
        "model": model_cfg.to_dict(),
        "run": cfg.to_dict(),
        "stage": args.stage,
        "modules": modules,
    }
    try:
        save_checkpoint(args.out, state.params, meta_out)
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot write checkpoint {args.out}: {e}") from e

    log_path = args.out + ".log.jsonl"
    header = {"format": "gcum-train-log", "version": 1, "tool_version": __version__,
              "stage": args.stage, "config": cfg.to_dict()}
    try:
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, separators=(",", ":")) + "\n")
            for record in history:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot write training log {log_path}: {e}") from e

    if history:
        print(f"stage {args.stage} done: {len(history)} epochs, "
              f"final loss {history[-1]['loss_total']:.6f}; wrote {args.out}")
    else:
        print(f"stage {args.stage} done: 0 epochs (untrained); wrote {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    state, modules, run, meta = _load_checkpoint_state(args.checkpoint)
    ds = _load_data(args.data)
    _, test_gids = split_train_test(ds, run.train_fraction)
    test_samples = ds.views_of(test_gids)
    # eval reads no text, so only the views it featurizes must fit the checkpoint
    _check_data_fits(ds, test_samples, state.config.d_a, state.config.max_members)
    try:
        report = evaluate(state, test_samples, args.query_camera,
                          refined=modules["grce"], quantity=modules["mvs"])
    except dc.NonFiniteError as e:  # eval trains nothing, and its inputs were finite when read
        raise CheckpointError(f"checkpoint {args.checkpoint} overflows in eval: {e}") from None
    print(json.dumps(report.to_dict()))
    if args.out:
        # data of other settings or another seed than the run's is echoed too, as its document states them
        data = {} if ds.config == run.gen_config() else {"data_config": ds.config.to_dict()}
        if ds.seed != run.seed:
            data["data_seed"] = ds.seed
        _write_json(args.out, {
            "format": "gcum-eval-report",
            "version": 1,
            "tool_version": __version__,
            "config": meta["run"],  # the echo as stored, in its sorted key order
            **data,
            "query_camera": args.query_camera,
            "modules": modules,
            "report": report.to_dict(),
        })
    return EXIT_OK


def cmd_grad_check(args) -> int:
    if args.seed < 0:
        raise CliError(EXIT_CONFIG, f"--seed must be non-negative, got {args.seed}")
    for flag, value in (("--step", args.step), ("--tolerance", args.tolerance)):
        if not 0 < value <= sys.float_info.max:  # false for NaN
            raise CliError(EXIT_CONFIG, f"{flag} must be finite and positive, got {value}")
    reports = run_grad_checks(args.seed, step=args.step, tolerance=args.tolerance)
    failed = False
    for name in _CHECKED_LOSSES:
        rep = reports[name]
        status = "ok" if rep.ok else "FAIL"
        print(f"{name}: max_rel_error={rep.max_rel_error:.3e} {status}")
        failed = failed or not rep.ok
    if failed:
        print("gradient check failed", file=sys.stderr)
        return EXIT_GRADCHECK
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config)
    ds = generate_dataset(cfg.gen_config(), cfg.seed)
    seeds = [cfg.seed + i for i in range(args.seeds)]
    rows = run_ablation(
        ds, cfg.model_base(), cfg.train_config(1), seeds,
        mvs_cfg=cfg.mvs, alpha=cfg.alpha, epsilon=cfg.epsilon,
        train_fraction=cfg.train_fraction, query_camera=args.query_camera,
    )
    print(format_ablation_table(rows))
    if args.out:
        _write_json(args.out, {
            "format": "gcum-ablation",
            "version": 1,
            "tool_version": __version__,
            "config": cfg.to_dict(),
            "seeds": seeds,
            "rows": rows,
        })
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcum",
        description="group re-identification over synthetic appearance embeddings",
    )
    parser.add_argument("--version", action="version", version=f"gcum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset and write it as JSON")
    p.add_argument("--config", default=None, help="JSON run config (defaults apply if omitted)")
    p.add_argument("--out", required=True, help="output dataset path")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="run one training stage and write a checkpoint")
    p.add_argument("--stage", type=int, choices=(1, 2), required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True, help="dataset JSON from gen-data")
    p.add_argument("--init-checkpoint", default=None, help="stage-1 checkpoint (stage 2 only)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="retrieval metrics for a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--query-camera", type=int, default=0)
    p.add_argument("--out", default=None, help="also write the report JSON here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("grad-check", help="verify gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_grad_check)

    p = sub.add_parser("ablate", help="train and evaluate all module combinations")
    p.add_argument("--config", default=None)
    p.add_argument("--seeds", type=int, default=3, help="number of run seeds to average")
    p.add_argument("--query-camera", type=int, default=0)
    p.add_argument("--out", default=None, help="also write the table as JSON here")
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every value a command keeps or prints passes an explicit finiteness check
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except dc.NonFiniteError as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return EXIT_NONFINITE
    except (DatasetFormatError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
