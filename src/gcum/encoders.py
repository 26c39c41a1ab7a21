"""Model state and the frozen encoder stack.

Three encoders act as stand-ins for large pretrained backbones, so their
weights are drawn once from the seed (Gaussian, std 0.02) and never
trained:

* member encoder — two-layer MLP mapping an appearance vector to a
  unit-norm member feature of width ``dim``;
* group encoder — a learnable group class token is prepended to the member
  features and run through two single-head self-attention blocks with
  residual connections.  The pipeline splits the encoder around the
  membership-simulation step: block 1 runs on [class token; members],
  block 2 on the recombined sequence, then the class-token row is
  projected and normalized into the group feature.  Views are encoded
  together as row blocks of one width that the caller picks (at least one
  slot per retained member), their empty member slots masked;
* text encoder — token embeddings plus learned positions, one
  self-attention block, mean-pool, projection, normalization, as one tape
  node (``attention_pool``).  Prompts of one length are encoded together,
  stacked as row blocks; each prompt is mean-pooled over its own rows, so
  its feature has the same bits in a stack of any size.

Trainable state lives alongside: per-identity prompt tokens, padding
tokens, the member-count matrix, the refinement head, the classifier, and
the learnable inverse softmax temperature.  Each training stage picks the
ones that receive gradients with ``with_trainable``, which returns a new
state with those flags and leaves the state it was called on as it was.

Checkpoints are a little-endian binary table of named float64 tensors with
a JSON sidecar carrying the config echo.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from . import diffcore as dc
from .diffcore import ShapeError, Tensor
from .jsondoc import check_format, read, require

if TYPE_CHECKING:
    from .synthdata import Dataset

CHECKPOINT_MAGIC = b"GCUM"
CHECKPOINT_VERSION = 1
SIDECAR_FORMAT = "gcum-checkpoint-meta"
SIDECAR_VERSION = 1

_INIT_STREAM = 10

# Fixed template lengths: "a photo of a <tokens> person" and
# "a group of <slot tokens> persons".
MEMBER_PREFIX_LEN = 4
MEMBER_SUFFIX_LEN = 1
GROUP_PREFIX_LEN = 3
GROUP_SUFFIX_LEN = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed, truncated, or of an unknown version."""


@dataclass(frozen=True)
class ModelConfig:
    dim: int = 48
    d_a: int = 32
    max_members: int = 6          # longest member row block the model accepts
    group_slots: int = 6          # identity slots in the group text prompt
    tokens_per_identity: int = 4
    n_person_ids: int = 1
    n_group_classes: int = 1
    temperature_init: float = 1.0 / 0.07
    init_std: float = 0.02

    @property
    def hidden(self) -> int:
        return 2 * self.dim

    @property
    def member_prompt_len(self) -> int:
        return MEMBER_PREFIX_LEN + self.tokens_per_identity + MEMBER_SUFFIX_LEN

    @property
    def group_prompt_len(self) -> int:
        return GROUP_PREFIX_LEN + self.group_slots * self.tokens_per_identity + GROUP_SUFFIX_LEN

    @property
    def max_prompt_len(self) -> int:
        return max(self.member_prompt_len, self.group_prompt_len)

    def __post_init__(self):
        if self.dim < 2 or self.d_a < 1:
            raise ValueError("dim must be >= 2 and d_a >= 1")
        if self.max_members < 1 or self.group_slots < 1:
            raise ValueError("max_members and group_slots must be positive")
        if self.group_slots < self.max_members:
            raise ValueError("group_slots must cover max_members identities")
        if self.tokens_per_identity < 1:
            raise ValueError("tokens_per_identity must be positive")
        if self.n_person_ids < 1 or self.n_group_classes < 1:
            raise ValueError("need at least one person identity and one group class")
        if self.temperature_init <= 0:
            raise ValueError("temperature_init must be positive")
        if self.init_std <= 0:
            raise ValueError("init_std must be positive")

    def for_dataset(self, ds: Dataset, n_group_classes: int) -> "ModelConfig":
        """Sized for ``ds``, whose width must be ``d_a``: a token row per catalog identity."""
        if ds.d_a != self.d_a:
            raise ValueError(f"model d_a={self.d_a} but dataset has d_a={ds.d_a}")
        return replace(self, n_person_ids=len(ds.catalog), n_group_classes=n_group_classes)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        return cls(**read(doc, cls().to_dict(), "model", complete=True))


# Parameter groups by role.  Encoder weights, template embeddings and text
# positions stay frozen through both stages; the rest is stage-gated.
STAGE1_TRAINABLE = ("prompt.x", "prompt.pad", "quantity.em", "temp.inv")
STAGE2_TRAINABLE = ("grce.wq", "grce.wk", "grce.wv", "grce.classifier")


@dataclass(eq=False)
class ModelState:
    """Named parameter tensors plus the structural config."""

    config: ModelConfig
    params: dict[str, Tensor]

    def with_params(self, updates: Mapping[str, Tensor]) -> "ModelState":
        new = dict(self.params)
        for name, t in updates.items():
            if name not in new:
                raise KeyError(f"unknown parameter {name!r}")
            new[name] = t
        return ModelState(self.config, new)

    def with_trainable(self, names: Iterable[str]) -> "ModelState":
        """A new state over the same arrays in which only ``names`` take gradients.

        The arrays are read-only and were checked finite when they were
        made, so they are shared as they are, not scanned again.
        """
        wanted = set(names)
        unknown = wanted - set(self.params)
        if unknown:
            raise KeyError(f"unknown parameters {sorted(unknown)}")
        return ModelState(self.config, {name: Tensor(p.values, name in wanted, _copy=False, _check=False)
                                        for name, p in self.params.items()})


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the order ``init_model_state`` draws them."""
    dim, hidden = config.dim, config.hidden
    square = (dim, dim)
    # member encoder
    shapes = {"member.w1": (config.d_a, hidden), "member.b1": (hidden,),
              "member.w2": (hidden, dim), "member.b2": (dim,)}
    # group encoder: class token, two attention blocks, final projection
    shapes["group.cls"] = (dim,)
    for blk in ("group.blk1", "group.blk2"):
        shapes.update((f"{blk}.{w}", square) for w in ("wq", "wk", "wv", "wo"))
    shapes["group.proj"] = square
    # text encoder: one block, positions, projection
    shapes.update((f"text.attn.{w}", square) for w in ("wq", "wk", "wv", "wo"))
    shapes["text.pos"] = (config.max_prompt_len, dim)
    shapes["text.proj"] = square
    # prompt vocabulary: template words (frozen), per-identity tokens, padding
    shapes["prompt.member_prefix"] = (MEMBER_PREFIX_LEN, dim)
    shapes["prompt.member_suffix"] = (MEMBER_SUFFIX_LEN, dim)
    shapes["prompt.group_prefix"] = (GROUP_PREFIX_LEN, dim)
    shapes["prompt.group_suffix"] = (GROUP_SUFFIX_LEN, dim)
    shapes["prompt.x"] = (config.n_person_ids * config.tokens_per_identity, dim)
    shapes["prompt.pad"] = (config.tokens_per_identity, dim)
    # member-count refinement matrix
    shapes["quantity.em"] = (config.max_members, dim)
    # refinement head and group classifier
    shapes.update((f"grce.{w}", square) for w in ("wq", "wk", "wv"))
    shapes["grce.classifier"] = (config.n_group_classes, dim)
    # learnable inverse temperature, stored directly as the logit multiplier
    shapes["temp.inv"] = ()
    return shapes


def init_model_state(config: ModelConfig, seed: int) -> ModelState:
    """Draw all parameters; bit-identical for identical ``(config, seed)``.

    Each parameter is a normal draw, in ``parameter_shapes`` order, but two:
    the count matrix starts neutral, as zero rows add nothing to the class
    token until stage-1 training moves them, and the inverse temperature
    starts at ``temperature_init``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_INIT_STREAM,)))
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        if name == "quantity.em":
            values = np.zeros(shape)
        elif name == "temp.inv":
            values = np.asarray(config.temperature_init)
        else:
            values = rng.normal(0.0, config.init_std, size=shape)
        params[name] = Tensor(values, requires_grad=True, _copy=False)
    return ModelState(config, params)


# --------------------------------------------------------------------------
# Forward passes


def encode_members(appearances: Tensor, state: ModelState) -> Tensor:
    """Map an (n, d_a) appearance matrix to (n, dim) unit-norm features."""
    cfg = state.config
    if appearances.ndim != 2 or appearances.shape[1] != cfg.d_a:
        raise ShapeError(f"expected (n, {cfg.d_a}) appearances, got {appearances.shape}")
    p = state.params
    h = dc.tanh(dc.add(dc.matmul(appearances, p["member.w1"]), p["member.b1"]))
    return dc.l2_normalize(dc.add(dc.matmul(h, p["member.w2"]), p["member.b2"]))


def _member_counts(counts: Sequence[int], slots: int, config: ModelConfig) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.int64)
    if not 1 <= slots <= config.max_members:
        raise ShapeError(f"{slots} member slots outside [1, {config.max_members}]")
    if counts.ndim != 1 or not counts.size or counts.min() < 1 or counts.max() > slots:
        raise ShapeError(f"member counts {counts.tolist()} outside [1, {slots}]")
    return counts


def encode_group_prefix(member_features: Tensor, state: ModelState, counts: Sequence[int], slots: int) -> Tensor:
    """Run block 1 over stacked [class token; members; zero rows] blocks.

    ``member_features`` holds B views' ``counts[i]`` rows each, view after
    view.  Returns the (B (slots + 1), dim) block output in the same
    layout: each view's class-token row, its member rows, then zero rows.
    ``slots``, at most ``max_members``, must cover every count.  A
    view's rows have the same bits in any stack of one width.
    ``grce.FrozenPass`` runs two widths, chosen by each view's own count.
    ``gather_rows`` lays the class token, a zero row and the member rows
    into the blocks, and one ``attention_block`` node runs on the stack.
    """
    cfg = state.config
    counts = _member_counts(counts, slots, cfg)
    rows = int(counts.sum())
    if member_features.ndim != 2 or member_features.shape != (rows, cfg.dim):
        raise ShapeError(f"expected ({rows}, {cfg.dim}) member features, got {member_features.shape}")
    p = state.params
    width = slots + 1
    # row 0 is the class token, row 1 a zero row, row 2 + r member row r
    at = np.ones((len(counts), width), dtype=np.int64)
    at[:, 0] = 0
    at[:, 1:][np.arange(slots) < counts[:, None]] = 2 + np.arange(rows)
    blocks = dc.gather_rows([p["group.cls"], dc.constant(np.zeros((1, cfg.dim))), member_features], at.ravel())
    return dc.attention_block(blocks, p["group.blk1.wq"], p["group.blk1.wk"], p["group.blk1.wv"],
                              p["group.blk1.wo"], width, counts + 1)


def encode_group_suffix(fused: Tensor, state: ModelState, counts: Sequence[int], slots: int) -> Tensor:
    """Run block 2 over the stacked blocks of ``encode_group_prefix`` and read out each view.

    ``slots`` is the one the blocks were made with.  Only each block's
    class-token row is read out, so block 2 computes that row alone,
    attending over the view's live rows; it is projected and normalized
    into one row of the (B, dim) group features.
    """
    cfg = state.config
    counts = _member_counts(counts, slots, cfg)
    width = slots + 1
    if fused.ndim != 2 or fused.shape != (len(counts) * width, cfg.dim):
        raise ShapeError(f"expected ({len(counts)} * {width}, {cfg.dim}) rows, got {fused.shape}")
    p = state.params
    pooled = dc.attention_block(fused, p["group.blk2.wq"], p["group.blk2.wk"], p["group.blk2.wv"],
                                p["group.blk2.wo"], width, counts + 1, first_only=True)
    return dc.l2_normalize(dc.matmul(pooled, p["group.proj"]))


def encode_text(tokens: Tensor, state: ModelState, length: int) -> Tensor:
    """Encode prompts of ``length`` tokens each into (n, dim) unit-norm features.

    ``tokens`` stacks the n prompts' (length, dim) token matrices, one after
    another.  Each prompt is encoded on its own (positions restart and
    attention stays inside it), so a single prompt is the n = 1 case.  The
    encoder is one ``attention_pool`` node.
    """
    p = state.params
    return dc.attention_pool(tokens, p["text.pos"], p["text.attn.wq"], p["text.attn.wk"], p["text.attn.wv"],
                             p["text.attn.wo"], p["text.proj"], length)


# --------------------------------------------------------------------------
# Checkpoint I/O


def save_checkpoint(path: str, params: Mapping[str, Tensor], meta: dict | None = None) -> None:
    """Write named tensors in a fixed little-endian binary layout.

    Layout: magic ``GCUM``, u32 version, u32 tensor count, then per tensor
    (in sorted name order): u32 name length, UTF-8 name, u32 rank, u64
    dims, float64 values.  ``meta`` (config echo etc.) goes to a JSON
    sidecar at ``path + ".meta.json"``.
    """
    names = sorted(params)
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(names))]
    for name in names:
        values = params[name].values if isinstance(params[name], Tensor) else np.asarray(params[name])
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", values.ndim))
        chunks.append(struct.pack(f"<{values.ndim}Q", *values.shape))
        chunks.append(np.ascontiguousarray(values, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))
    if meta is not None:
        doc = {"format": SIDECAR_FORMAT, "version": SIDECAR_VERSION, "tool_version": __version__}
        doc.update(meta)
        with open(path + ".meta.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise CheckpointError(f"checkpoint truncated at byte {len(self.blob)} (needed {self.off + n})")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError("bad magic, not a checkpoint file")
    version, count = struct.unpack("<II", r.take(8))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}, this build reads {CHECKPOINT_VERSION}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", r.take(4))
        raw = r.take(name_len)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"tensor {len(out)} has a name that is not UTF-8: {raw!r}") from None
        (rank,) = struct.unpack("<I", r.take(4))
        if rank > 2:
            raise CheckpointError(f"tensor {name!r} has unsupported rank {rank}")
        dims = struct.unpack(f"<{rank}Q", r.take(8 * rank)) if rank else ()
        n_values = 1
        for d in dims:
            n_values *= d
        values = np.frombuffer(r.take(8 * n_values), dtype="<f8").reshape(dims).astype(np.float64)
        if not np.isfinite(values).all():
            raise CheckpointError(f"tensor {name!r} holds values that are not finite")
        values.setflags(write=False)
        out[name] = values
    if r.off != len(blob):
        raise CheckpointError(f"{len(blob) - r.off} trailing bytes after the last tensor")
    return out


def load_checkpoint_meta(path: str) -> dict:
    """Read the JSON sidecar; a damaged one raises ``CheckpointError``."""
    with open(path + ".meta.json", "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:
            raise CheckpointError(f"checkpoint sidecar {path}.meta.json is not valid JSON: {e}") from e


def state_from_checkpoint(path: str) -> tuple[ModelState, dict]:
    """Rebuild a ModelState from a checkpoint plus its sidecar metadata."""
    meta = load_checkpoint_meta(path)
    where = f"checkpoint sidecar {path}.meta.json"
    check_format(meta, SIDECAR_FORMAT, SIDECAR_VERSION, where, error=CheckpointError)
    config = require(meta, "model", where, ModelConfig.from_dict, error=CheckpointError)
    tensors = load_checkpoint(path)
    shapes = parameter_shapes(config)
    missing = set(shapes) - set(tensors)
    extra = set(tensors) - set(shapes)
    if missing or extra:
        raise CheckpointError(
            f"parameter set mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    params = {}
    for name, shape in shapes.items():
        arr = tensors[name]
        if arr.shape != shape:
            raise CheckpointError(f"tensor {name!r} has shape {arr.shape}, expected {shape}")
        params[name] = Tensor(arr, requires_grad=True, _copy=False)
    return ModelState(config, params), meta
