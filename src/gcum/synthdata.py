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

Every catalog entry is a read-only row of one catalog matrix, and every
member appearance a read-only row of one appearance matrix.  The reader
checks what generation guarantees: each member identity is in the catalog,
a view lists it at most once, and it belongs to one group only.
"""

from __future__ import annotations

import json
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
class Member:
    """One observed person in one view: identity plus observed appearance."""

    identity_id: int
    appearance: np.ndarray


@dataclass(frozen=True, eq=False)
class GroupSample:
    """One view of a group from one camera."""

    group_id: int
    camera_id: int
    members: tuple[Member, ...]


@dataclass(eq=False)
class Dataset:
    seed: int
    config: GenConfig
    catalog: dict[int, np.ndarray]
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
            bucket = rosters.setdefault(s.group_id, set())
            bucket.update(m.identity_id for m in s.members)
        return {g: tuple(sorted(pids)) for g, pids in rosters.items()}

    def person_ids(self) -> list[int]:
        return sorted(self.catalog)


def _freeze(vec: np.ndarray) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.float64)
    arr.setflags(write=False)
    return arr


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
    ends = [0]  # view v owns member rows ends[v] .. ends[v + 1] - 1
    for first, last in zip(starts, starts[1:]):
        for _ in range(n_cams * per_cam):
            kept = (rng.random(last - first) >= config.membership_dropout_prob).nonzero()[0]
            if not len(kept):
                kept = np.zeros(1, dtype=np.intp)
            if config.layout_permutation and len(kept) > 1:
                kept = kept[rng.permutation(len(kept))]
            row = ends[-1]
            ends.append(row + len(kept))
            identity[row:ends[-1]] = kept + first
            rng.standard_normal(out=appearance[row:ends[-1]])
    appearance.resize((ends[-1], config.d_a), refcheck=False)
    identity = identity[:ends[-1]]
    appearance *= config.appearance_noise_std
    camera = np.repeat(np.arange(len(ends) - 1) // per_cam % n_cams, np.diff(ends))
    # noise + (catalog + bias) has the bits of (catalog + bias) + noise
    for row in range(0, len(appearance), _CHUNK_ROWS):
        rows = slice(row, row + _CHUNK_ROWS)
        clean = catalog[identity[rows]]
        clean += biases[camera[rows]]
        appearance[rows] += clean

    catalog.setflags(write=False)
    appearance.setflags(write=False)
    persons = list(range(len(catalog)))  # members share the catalog keys, not one new int each
    members = list(map(Member, map(persons.__getitem__, identity.tolist()), appearance))
    samples = [GroupSample(v // (n_cams * per_cam), v // per_cam % n_cams, tuple(members[a:b]))
               for v, (a, b) in enumerate(zip(ends, ends[1:]))]
    return Dataset(seed=seed, config=config, catalog=dict(zip(persons, catalog)), samples=samples)


# --------------------------------------------------------------------------
# Serialization


def dataset_to_doc(ds: Dataset) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "seed": ds.seed,
        "d_a": ds.d_a,
        "config": ds.config.to_dict(),
        "catalog": [
            {"identity_id": pid, "appearance": ds.catalog[pid].tolist()}
            for pid in sorted(ds.catalog)
        ],
        "samples": [
            {
                "group_id": s.group_id,
                "camera_id": s.camera_id,
                "members": [
                    {"identity_id": m.identity_id, "appearance": m.appearance.tolist()}
                    for m in s.members
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


def _appearance(entry: dict, d_a: int, where: str) -> np.ndarray:
    vec = _require(entry, "appearance", where, lambda v: np.asarray(v, dtype=np.float64))
    if vec.shape != (d_a,):
        raise DatasetFormatError(f"{where} appearance has shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise DatasetFormatError(f"{where} appearance is not finite")
    return _freeze(vec)


def dataset_from_doc(doc: dict) -> Dataset:
    check_format(doc, FORMAT_NAME, FORMAT_VERSION, "dataset", error=DatasetFormatError)
    config = _require(doc, "config", "dataset", GenConfig.from_dict)
    d_a = _require(doc, "d_a", "dataset", json_int)
    if d_a != config.d_a:
        raise DatasetFormatError("top-level d_a disagrees with config d_a")

    catalog: dict[int, np.ndarray] = {}
    for i, entry in enumerate(_entries(doc, "catalog", "dataset")):
        pid = _require(entry, "identity_id", f"catalog entry {i}", json_int)
        if pid in catalog:
            raise DatasetFormatError(f"catalog entry {i} repeats identity {pid}")
        catalog[pid] = _appearance(entry, d_a, f"catalog entry for identity {pid}")

    samples: list[GroupSample] = []
    owner: dict[int, int] = {}  # identity -> the group whose views list it first
    for i, entry in enumerate(_entries(doc, "samples", "dataset")):
        gid = _require(entry, "group_id", f"sample {i}", json_int)
        cam = _require(entry, "camera_id", f"sample {i}", json_int)
        members = []
        for m in _entries(entry, "members", f"sample {i}"):
            pid = _require(m, "identity_id", f"sample {i} member", json_int)
            if pid not in catalog:
                raise DatasetFormatError(f"sample {i} member identity {pid} is not in the catalog")
            if any(pid == other.identity_id for other in members):
                raise DatasetFormatError(f"sample {i} lists member identity {pid} twice")
            if owner.setdefault(pid, gid) != gid:
                raise DatasetFormatError(f"sample {i} member identity {pid} belongs to group {owner[pid]}, "
                                         f"not to group {gid}")
            members.append(Member(pid, _appearance(m, d_a, f"sample {i} member {pid}")))
        samples.append(GroupSample(gid, cam, tuple(members)))

    ds = Dataset(seed=_require(doc, "seed", "dataset", json_int), config=config, catalog=catalog, samples=samples)
    cameras_per_group: dict[int, set[int]] = {}
    for s in ds.samples:
        cameras_per_group.setdefault(s.group_id, set()).add(s.camera_id)
    for gid, cams in cameras_per_group.items():
        if len(cams) < 2:
            raise DatasetFormatError(f"group {gid} appears under fewer than two cameras")
    return ds


def load_dataset(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(f"unparseable dataset file at byte {e.pos}: {e.msg}") from e
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


def split_train_test(ds: Dataset, train_fraction: float = 0.7) -> tuple[list[int], list[int]]:
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
