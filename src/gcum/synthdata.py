"""Synthetic multi-camera group observations with controllable nuisances.

A dataset is built from a catalog of person identities, each a unit-norm
appearance vector.  Group identities own disjoint member rosters; every
group is observed from every camera several times.  Each view perturbs the
roster independently: members go missing with a configurable probability
(at least one always remains), member order may be shuffled, and observed
appearances pick up per-camera bias plus white noise.

Generation is a pure function of ``(config, seed)``; serialization is a
stable JSON layout whose floats round-trip losslessly.  The determinism
contract is the order of the draws from the generation stream:

1. per group, its roster size (``integers``), then one standard-normal row
   per member, which is normalised into that identity's catalog entry;
2. the camera biases, one ``(n_cameras, d_a)`` normal draw scaled by
   ``camera_bias_std``;
3. per group, per camera, per view: ``random(roster size)`` for the member
   drops, then ``permutation(kept)`` when layout permutation is on and more
   than one member is kept, then one standard-normal row per kept member,
   scaled by ``appearance_noise_std``; the observed appearance is
   ``(catalog + bias) + noise``.

Generated or loaded, the catalog is one read-only matrix whose row i is
identity i, and a view's ``appearances`` are a read-only row slice of one
appearance matrix.  The reader fills the two matrices and checks what
generation guarantees: catalog entry i is identity i, an appearance holds
JSON numbers that fit a float, each member identity is in the catalog, a
view lists it at most once, and it belongs to one group only; and the
document's own ``config`` section describes its samples: the number of
groups, no roster larger than the member range allows, camera ids below
the camera count, and the views each group has under each camera.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .jsondoc import check_format, json_int, read, require

FORMAT_NAME = "gcum-dataset"
FORMAT_VERSION = 1

# Sub-stream selectors hung off the dataset seed, so that independent
# concerns (generation, train/test split) never share draws.
_GENERATE_STREAM = 0
_SPLIT_STREAM = 1

# Member rows per step when the clean appearances are added, so that no
# temporary spans the whole appearance matrix.
_CHUNK_ROWS = 256


class DatasetFormatError(ValueError):
    """A dataset file is malformed, truncated, or of an unknown version."""


@dataclass(frozen=True)
class GenConfig:
    """Knobs for dataset generation; defaults give the standard benchmark."""

    n_group_identities: int = 40
    members_min: int = 2
    members_max: int = 6
    n_cameras: int = 2
    views_per_group_per_camera: int = 2
    membership_dropout_prob: float = 0.3
    layout_permutation: bool = True
    appearance_noise_std: float = 0.1
    camera_bias_std: float = 0.2
    d_a: int = 32

    def __post_init__(self):
        if self.n_group_identities < 2:
            raise ValueError("need at least two group identities")
        if self.members_min < 2:
            raise ValueError("groups need at least two members")
        if self.members_max < self.members_min:
            raise ValueError("members_max must be >= members_min")
        if self.n_cameras < 2:
            raise ValueError("cross-camera retrieval needs at least two cameras")
        if self.views_per_group_per_camera < 1:
            raise ValueError("need at least one view per group per camera")
        if not (0.0 <= self.membership_dropout_prob < 1.0):
            raise ValueError("membership_dropout_prob must lie in [0, 1)")
        if self.appearance_noise_std < 0 or self.camera_bias_std < 0:
            raise ValueError("noise levels must be non-negative")
        if self.d_a < 1:
            raise ValueError("appearance dimension must be positive")

    def to_dict(self) -> dict:
        d = asdict(self)
        return {"n_group_identities": d.pop("n_group_identities"),
                "members_per_group": [d.pop("members_min"), d.pop("members_max")], **d}

    @classmethod
    def from_dict(cls, doc: dict) -> "GenConfig":
        d = read(doc, cls().to_dict(), "config", complete=True)
        if len(d["members_per_group"]) != 2:
            raise ValueError(f"config.members_per_group must be two integers, got {list(d['members_per_group'])}")
        d["members_min"], d["members_max"] = d.pop("members_per_group")
        return cls(**d)


@dataclass(frozen=True, eq=False)
class GroupSample:
    """One view of a group from one camera: member i is ``identity_ids[i]``, observed as ``appearances[i]``."""

    group_id: int
    camera_id: int
    identity_ids: tuple[int, ...]
    appearances: np.ndarray


@dataclass(eq=False)
class Dataset:
    seed: int
    config: GenConfig
    catalog: np.ndarray  # (n, d_a), row i is identity i
    samples: list[GroupSample]

    @property
    def d_a(self) -> int:
        return self.config.d_a

    def group_ids(self) -> list[int]:
        return sorted({s.group_id for s in self.samples})

    def group_rosters(self) -> dict[int, tuple[int, ...]]:
        """Member identity sets per group, recovered as the union over views."""
        rosters: dict[int, set[int]] = {}
        for s in self.samples:
            rosters.setdefault(s.group_id, set()).update(s.identity_ids)
        return {g: tuple(sorted(pids)) for g, pids in rosters.items()}


def _assemble(seed: int, config: GenConfig, catalog: np.ndarray, appearance: np.ndarray,
              identity: Sequence[int], views: Sequence[tuple[int, int, int]]) -> Dataset:
    """The dataset of ``views``, each (group id, camera id, member count) and owning the next member rows.

    A member row is an entry of ``identity`` and a row of ``appearance``; both matrices become read-only.
    """
    catalog.setflags(write=False)
    appearance.setflags(write=False)
    samples, row = [], 0
    for gid, cam, count in views:
        samples.append(GroupSample(gid, cam, tuple(identity[row:row + count]), appearance[row:row + count]))
        row += count
    return Dataset(seed=seed, config=config, catalog=catalog, samples=samples)


def generate_dataset(config: GenConfig, seed: int) -> Dataset:
    """Draw a dataset; bit-identical for identical ``(config, seed)``.

    The draws follow the order in the module docstring; each fills rows of
    one preallocated matrix in place.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_GENERATE_STREAM,)))
    n_groups, n_cams, per_cam = config.n_group_identities, config.n_cameras, config.views_per_group_per_camera

    # Group g's roster is identities starts[g] .. starts[g + 1] - 1.
    catalog = np.empty((n_groups * config.members_max, config.d_a))
    starts = [0]
    for _ in range(n_groups):
        size = int(rng.integers(config.members_min, config.members_max + 1))
        rng.standard_normal(out=catalog[starts[-1]:starts[-1] + size])
        starts.append(starts[-1] + size)
    # no view of either matrix exists until it is filled, so each can give back
    # its unfilled rows in place
    catalog.resize((starts[-1], config.d_a), refcheck=False)
    # the stacked matmul keeps the bits of np.linalg.norm, which is sqrt(x.dot(x))
    catalog /= np.sqrt(catalog[:, None, :] @ catalog[:, :, None])[:, 0]

    # Biases are always drawn so the stream layout does not depend on the
    # noise knobs; scaling by the std keeps zero-knob datasets exactly clean.
    biases = rng.normal(size=(n_cams, config.d_a)) * config.camera_bias_std

    appearance = np.empty((starts[-1] * n_cams * per_cam, config.d_a))
    identity = np.empty(len(appearance), dtype=np.intp)
    views = []  # (group id, camera id, member count), each view's rows following the last one's
    row = 0
    for gid, (first, last) in enumerate(zip(starts, starts[1:])):
        for v in range(n_cams * per_cam):
            kept = (rng.random(last - first) >= config.membership_dropout_prob).nonzero()[0]
            if not len(kept):
                kept = np.zeros(1, dtype=np.intp)
            if config.layout_permutation and len(kept) > 1:
                kept = kept[rng.permutation(len(kept))]
            identity[row:row + len(kept)] = kept + first
            rng.standard_normal(out=appearance[row:row + len(kept)])
            views.append((gid, v // per_cam, len(kept)))
            row += len(kept)
    appearance.resize((row, config.d_a), refcheck=False)
    identity = identity[:row]
    appearance *= config.appearance_noise_std
    _, cams, counts = np.array(views).T
    camera = np.repeat(cams, counts)
    # noise + (catalog + bias) has the bits of (catalog + bias) + noise
    for row in range(0, len(appearance), _CHUNK_ROWS):
        rows = slice(row, row + _CHUNK_ROWS)
        clean = catalog[identity[rows]]
        clean += biases[camera[rows]]
        appearance[rows] += clean

    return _assemble(seed, config, catalog, appearance, identity.tolist(), views)


# --------------------------------------------------------------------------
# Serialization


def dataset_to_doc(ds: Dataset) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "seed": ds.seed,
        "d_a": ds.d_a,
        "config": ds.config.to_dict(),
        "catalog": [{"identity_id": pid, "appearance": vec} for pid, vec in enumerate(ds.catalog.tolist())],
        "samples": [
            {
                "group_id": s.group_id,
                "camera_id": s.camera_id,
                "members": [
                    {"identity_id": pid, "appearance": vec}
                    for pid, vec in zip(s.identity_ids, s.appearances.tolist())
                ],
            }
            for s in ds.samples
        ],
    }


_require = partial(require, error=DatasetFormatError)


def _entries(doc: dict, key: str, where: str) -> list:
    value = _require(doc, key, where)
    if not isinstance(value, list) or not value:
        raise DatasetFormatError(f"{where} {key} must be a non-empty list")
    return value


def _appearance(entry: dict, out: np.ndarray, where: str) -> None:
    """Fill the row ``out`` with ``entry``'s appearance, each element typed as ``jsondoc`` types a float."""
    vec = _require(entry, "appearance", where)
    if not isinstance(vec, list) or not set(map(type, vec)) <= {int, float}:  # no string or bool is converted
        raise DatasetFormatError(f"{where} appearance is malformed: it must be a list of JSON numbers")
    if len(vec) != len(out):
        raise DatasetFormatError(f"{where} appearance has shape ({len(vec)},)")
    try:
        out[:] = vec
        finite = np.isfinite(out).all()
    except OverflowError:  # an integer that does not fit a float
        finite = False
    if not finite:
        raise DatasetFormatError(f"{where} appearance is not finite")


def dataset_from_doc(doc: dict) -> Dataset:
    check_format(doc, FORMAT_NAME, FORMAT_VERSION, "dataset", error=DatasetFormatError)
    config = _require(doc, "config", "dataset", GenConfig.from_dict)
    d_a = _require(doc, "d_a", "dataset", json_int)
    if d_a != config.d_a:
        raise DatasetFormatError("top-level d_a disagrees with config d_a")

    entries = _entries(doc, "catalog", "dataset")
    catalog = np.empty((len(entries), d_a))
    for i, entry in enumerate(entries):
        pid = _require(entry, "identity_id", f"catalog entry {i}", json_int)
        if 0 <= pid < i:
            raise DatasetFormatError(f"catalog entry {i} repeats identity {pid}")
        if pid != i:  # the model keeps a token row per identity up to the largest
            raise DatasetFormatError(f"catalog entry {i} is identity {pid}, not identity {i}")
        _appearance(entry, catalog[i], f"catalog entry for identity {pid}")

    views: list[tuple[int, int, int]] = []
    identity: list[int] = []
    listed: list[tuple[int, dict]] = []  # (sample index, member entry) per member row
    owner: dict[int, int] = {}  # identity -> the group whose views list it first
    for i, entry in enumerate(_entries(doc, "samples", "dataset")):
        gid = _require(entry, "group_id", f"sample {i}", json_int)
        cam = _require(entry, "camera_id", f"sample {i}", json_int)
        if not 0 <= cam < config.n_cameras:
            raise DatasetFormatError(f"sample {i} camera_id {cam} is outside the config.n_cameras "
                                     f"{config.n_cameras} cameras")
        members = _entries(entry, "members", f"sample {i}")
        first = len(identity)
        for m in members:
            pid = _require(m, "identity_id", f"sample {i} member", json_int)
            if not 0 <= pid < len(catalog):
                raise DatasetFormatError(f"sample {i} member identity {pid} is not in the catalog")
            if pid in identity[first:]:
                raise DatasetFormatError(f"sample {i} lists member identity {pid} twice")
            if owner.setdefault(pid, gid) != gid:
                raise DatasetFormatError(f"sample {i} member identity {pid} belongs to group {owner[pid]}, "
                                         f"not to group {gid}")
            identity.append(pid)
            listed.append((i, m))
        views.append((gid, cam, len(members)))
    _check_against_config(views, owner, config)

    appearance = np.empty((len(identity), d_a))
    for row, ((i, m), pid) in enumerate(zip(listed, identity)):
        _appearance(m, appearance[row], f"sample {i} member {pid}")
    return _assemble(_require(doc, "seed", "dataset", json_int), config, catalog, appearance, identity, views)


def _check_against_config(views: list[tuple[int, int, int]], owner: dict[int, int], config: GenConfig) -> None:
    """The ``views`` have the shape ``config`` generates, or ``DatasetFormatError`` names the key they break.

    Each view is (group id, camera id, member count).  A roster is not
    checked against ``members_per_group[0]``: dropout can hide a member in
    every view of its group, so a valid roster may be smaller.
    """
    per_view = Counter((gid, cam) for gid, cam, _ in views)
    groups = sorted({gid for gid, _, _ in views})
    if len(groups) != config.n_group_identities:
        raise DatasetFormatError(f"dataset has {len(groups)} groups, config.n_group_identities is "
                                 f"{config.n_group_identities}")
    for gid, size in sorted(Counter(owner.values()).items()):
        if size > config.members_max:
            raise DatasetFormatError(f"group {gid} has {size} members, more than config.members_per_group "
                                     f"allows ({config.members_max})")
    for gid in groups:
        per_camera = [per_view[gid, cam] for cam in range(config.n_cameras)]
        if any(n != config.views_per_group_per_camera for n in per_camera):
            raise DatasetFormatError(f"group {gid} has {per_camera} views per camera, config."
                                     f"views_per_group_per_camera is {config.views_per_group_per_camera}")


def load_dataset(path: str) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        doc = json.loads(blob.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise DatasetFormatError(f"dataset {path} is not UTF-8 at byte {e.start}: {e.reason}") from None
    except json.JSONDecodeError as e:
        at = len(e.doc[:e.pos].encode("utf-8"))
        raise DatasetFormatError(f"dataset {path} is unparseable at byte {at}: {e.msg}") from e
    return dataset_from_doc(doc)


# --------------------------------------------------------------------------
# Protocol splits


def split_query_gallery(
    samples: Sequence[GroupSample], query_camera: int
) -> tuple[list[GroupSample], list[GroupSample]]:
    """Cross-camera retrieval split: queries from one camera, rest gallery."""
    queries = [s for s in samples if s.camera_id == query_camera]
    gallery = [s for s in samples if s.camera_id != query_camera]
    if not queries:
        raise ValueError(f"no samples from query camera {query_camera}")
    gallery_groups = {s.group_id for s in gallery}
    for s in queries:
        if s.group_id not in gallery_groups:
            raise ValueError(f"group {s.group_id} has no gallery sample outside camera {query_camera}")
    return queries, gallery


def split_train_test(ds: Dataset, train_fraction: float) -> tuple[list[int], list[int]]:
    """Identity-level split of group ids, deterministic in the dataset seed."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    ids = ds.group_ids()
    if len(ids) < 2:
        raise ValueError("need at least two group identities to split")
    rng = np.random.default_rng(np.random.SeedSequence(ds.seed, spawn_key=(_SPLIT_STREAM,)))
    order = rng.permutation(len(ids))
    n_train = int(round(len(ids) * train_fraction))
    n_train = min(max(n_train, 1), len(ids) - 1)
    train = sorted(ids[i] for i in order[:n_train])
    test = sorted(ids[i] for i in order[n_train:])
    return train, test
