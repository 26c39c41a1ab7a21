import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcum import synthdata as sd
from gcum.cli import _write_json

import reference_gen


def save(ds, path):
    """Write ``ds`` as ``gen-data`` does."""
    _write_json(str(path), sd.dataset_to_doc(ds))


def clean_config(**overrides):
    base = dict(
        n_group_identities=6,
        members_min=2,
        members_max=4,
        n_cameras=2,
        views_per_group_per_camera=2,
        membership_dropout_prob=0.0,
        layout_permutation=False,
        appearance_noise_std=0.0,
        camera_bias_std=0.0,
        d_a=8,
    )
    base.update(overrides)
    return sd.GenConfig(**base)


def test_config_validation():
    # a config checks itself when built
    with pytest.raises(ValueError):
        sd.GenConfig(members_min=1)
    with pytest.raises(ValueError):
        clean_config(n_cameras=1)
    with pytest.raises(ValueError):
        clean_config(membership_dropout_prob=1.0)
    with pytest.raises(ValueError):
        clean_config(appearance_noise_std=-0.1)


def test_config_round_trip():
    cfg = clean_config(membership_dropout_prob=0.25)
    assert sd.GenConfig.from_dict(cfg.to_dict()) == cfg
    # datasets write the keys in this order, the member range as one pair
    assert list(cfg.to_dict()) == ["n_group_identities", "members_per_group", "n_cameras",
                                   "views_per_group_per_camera", "membership_dropout_prob",
                                   "layout_permutation", "appearance_noise_std", "camera_bias_std", "d_a"]
    assert cfg.to_dict()["members_per_group"] == [cfg.members_min, cfg.members_max]
    # a float key takes a JSON integer; nothing else is converted
    back = sd.GenConfig.from_dict(dict(cfg.to_dict(), members_per_group=[3, 4], appearance_noise_std=0))
    assert (back.members_min, back.members_max) == (3, 4)
    assert type(back.appearance_noise_std) is float and back.appearance_noise_std == 0.0
    for key, value in (("members_per_group", [3.0, 4]), ("n_cameras", 2.0), ("layout_permutation", 0),
                       ("membership_dropout_prob", "0.3")):
        with pytest.raises(ValueError, match=f"config.{key} must be"):
            sd.GenConfig.from_dict(dict(cfg.to_dict(), **{key: value}))
    # a dataset holds every key and no other
    doc = cfg.to_dict()
    del doc["d_a"]
    with pytest.raises(ValueError, match="config.d_a is missing"):
        sd.GenConfig.from_dict(doc)
    with pytest.raises(ValueError, match="unknown config keys: colour"):
        sd.GenConfig.from_dict(dict(cfg.to_dict(), colour=1))


def test_generation_is_deterministic_to_the_byte(tmp_path):
    cfg = clean_config(membership_dropout_prob=0.3, layout_permutation=True,
                       appearance_noise_std=0.1, camera_bias_std=0.2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(sd.generate_dataset(cfg, seed=11), p1)
    save(sd.generate_dataset(cfg, seed=11), p2)
    assert p1.read_bytes() == p2.read_bytes()
    save(sd.generate_dataset(cfg, seed=12), p2)
    assert p1.read_bytes() != p2.read_bytes()


@st.composite
def gen_configs(draw):
    members = sorted(draw(st.lists(st.integers(2, 7), min_size=2, max_size=2)))
    return sd.GenConfig(
        n_group_identities=draw(st.integers(2, 60)),
        members_min=members[0],
        members_max=members[1],
        n_cameras=draw(st.integers(2, 4)),
        views_per_group_per_camera=draw(st.integers(1, 3)),
        membership_dropout_prob=draw(st.sampled_from([0.0, 0.3, 0.95])),
        layout_permutation=draw(st.booleans()),
        appearance_noise_std=draw(st.sampled_from([0.0, 0.1])),
        camera_bias_std=draw(st.sampled_from([0.0, 0.2])),
        d_a=draw(st.sampled_from([1, 2, 32])),
    )


@settings(max_examples=60, deadline=None)
@given(config=gen_configs(), seed=st.integers(0, 2**32 - 1))
@example(config=sd.GenConfig(), seed=1)
@example(config=sd.GenConfig(n_group_identities=60, members_min=7, members_max=7, n_cameras=4,
                             views_per_group_per_camera=3, membership_dropout_prob=0.95, d_a=1), seed=0)
def test_generation_matches_the_member_at_a_time_oracle(config, seed):
    ds = sd.generate_dataset(config, seed)
    doc = sd.dataset_to_doc(ds)
    got = json.dumps(doc)
    want = json.dumps(sd.dataset_to_doc(reference_gen.generate_dataset(config, seed)))
    if got != want:  # a short report: a diff of two whole documents takes minutes per example
        at = next(i for i, (a, b) in enumerate(zip(got + "$", want + "^")) if a != b)
        around = slice(max(at - 60, 0), at + 20)
        pytest.fail(f"documents differ at character {at}: {got[around]!r} != {want[around]!r}")
    # the document loads back array for array, and generated or loaded, every view's
    # appearances are read-only rows of one matrix: no caller can change a dataset it shares
    back = sd.dataset_from_doc(doc)
    assert back.catalog.shape == ds.catalog.shape and back.catalog.tobytes() == ds.catalog.tobytes()
    assert len(back.samples) == len(ds.samples)
    for a, b in zip(back.samples, ds.samples):
        assert a.identity_ids == b.identity_ids
        assert a.appearances.shape == b.appearances.shape and a.appearances.tobytes() == b.appearances.tobytes()
    for dataset in (ds, back):
        matrix = dataset.samples[0].appearances.base
        assert matrix is not None
        for vec in [dataset.catalog, matrix, *(s.appearances for s in dataset.samples)]:
            assert not vec.flags.writeable
            with pytest.raises(ValueError):
                vec[0] = 0.0
        assert all(s.appearances.base is matrix for s in dataset.samples)


def test_zero_knob_views_are_identical():
    ds = sd.generate_dataset(clean_config(), seed=3)
    by_group = {}
    for s in ds.samples:
        by_group.setdefault(s.group_id, []).append(s)
    for views in by_group.values():
        ref = views[0]
        for other in views[1:]:
            assert other.identity_ids == ref.identity_ids
            assert other.appearances.tobytes() == ref.appearances.tobytes()


def test_permutation_knob_only_reorders():
    ds = sd.generate_dataset(clean_config(layout_permutation=True), seed=5)
    by_group = {}
    for s in ds.samples:
        by_group.setdefault(s.group_id, []).append(s)
    reordered = 0
    for views in by_group.values():
        ref = views[0]
        ref_set = {(pid, row.tobytes()) for pid, row in zip(ref.identity_ids, ref.appearances)}
        for other in views[1:]:
            assert {(pid, row.tobytes()) for pid, row in zip(other.identity_ids, other.appearances)} == ref_set
            if other.identity_ids != ref.identity_ids:
                reordered += 1
    assert reordered > 0


def test_dropout_respects_at_least_one_member():
    cfg = clean_config(membership_dropout_prob=0.9, n_group_identities=10)
    ds = sd.generate_dataset(cfg, seed=1)
    rosters = ds.group_rosters()
    saw_drop = False
    for s in ds.samples:
        assert len(s.identity_ids) >= 1
        if len(s.identity_ids) < len(rosters[s.group_id]):
            saw_drop = True
    assert saw_drop


def test_roster_sizes_and_camera_coverage():
    cfg = clean_config(members_min=2, members_max=4, n_cameras=3)
    ds = sd.generate_dataset(cfg, seed=9)
    cams = {}
    for s in ds.samples:
        cams.setdefault(s.group_id, set()).add(s.camera_id)
    for gid, roster in ds.group_rosters().items():
        assert 2 <= len(roster) <= 4
        assert len(cams[gid]) >= 2
    # catalog appearances are unit norm
    for vec in ds.catalog:
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_round_trip_is_lossless(tmp_path):
    cfg = clean_config(membership_dropout_prob=0.4, appearance_noise_std=0.2,
                       camera_bias_std=0.3, layout_permutation=True)
    ds = sd.generate_dataset(cfg, seed=21)
    path = tmp_path / "ds.json"
    save(ds, path)
    back = sd.load_dataset(str(path))
    assert back.seed == ds.seed
    assert back.config == ds.config
    assert back.catalog.shape == ds.catalog.shape
    assert back.catalog.tobytes() == ds.catalog.tobytes()
    assert len(back.samples) == len(ds.samples)
    for a, b in zip(back.samples, ds.samples):
        assert (a.group_id, a.camera_id) == (b.group_id, b.camera_id)
        assert a.identity_ids == b.identity_ids
        assert a.appearances.tobytes() == b.appearances.tobytes()


def test_load_rejects_bad_version_and_format(tmp_path):
    ds = sd.generate_dataset(clean_config(), seed=2)
    path = tmp_path / "ds.json"
    save(ds, path)
    doc = json.loads(path.read_text())
    doc["version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(sd.DatasetFormatError, match="version"):
        sd.load_dataset(str(path))
    doc["version"] = 1
    doc["format"] = "something-else"
    path.write_text(json.dumps(doc))
    with pytest.raises(sd.DatasetFormatError, match="format"):
        sd.load_dataset(str(path))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", ["catalog", "member"])
def test_load_rejects_a_non_finite_appearance(where, bad):
    doc = sd.dataset_to_doc(sd.generate_dataset(clean_config(), seed=2))
    if where == "catalog":
        entry, name = doc["catalog"][4], "catalog entry for identity 4"
    else:
        entry = doc["samples"][5]["members"][1]
        name = f"sample 5 member {entry['identity_id']}"
    entry["appearance"][2] = bad
    with pytest.raises(sd.DatasetFormatError, match=f"^{name} appearance is not finite$"):
        sd.dataset_from_doc(doc)


def test_load_reports_truncation_offset(tmp_path):
    ds = sd.generate_dataset(clean_config(), seed=2)
    path = tmp_path / "ds.json"
    save(ds, path)
    blob = path.read_bytes()[: len(path.read_bytes()) // 2]
    path.write_bytes(blob)
    with pytest.raises(sd.DatasetFormatError, match="byte"):
        sd.load_dataset(str(path))


def test_split_query_gallery_protocol():
    ds = sd.generate_dataset(clean_config(n_cameras=3), seed=4)
    queries, gallery = sd.split_query_gallery(ds.samples, query_camera=0)
    assert all(s.camera_id == 0 for s in queries)
    assert all(s.camera_id != 0 for s in gallery)
    gallery_groups = {s.group_id for s in gallery}
    assert {s.group_id for s in queries} <= gallery_groups
    with pytest.raises(ValueError):
        sd.split_query_gallery(ds.samples, query_camera=99)
    only_cam0 = [s for s in ds.samples if s.camera_id == 0]
    with pytest.raises(ValueError):
        sd.split_query_gallery(only_cam0 + [s for s in ds.samples if s.group_id != 0 and s.camera_id == 1], 0)


def test_split_train_test_deterministic_and_disjoint():
    ds = sd.generate_dataset(clean_config(n_group_identities=10), seed=6)
    train1, test1 = sd.split_train_test(ds, 0.7)
    train2, test2 = sd.split_train_test(ds, 0.7)
    assert train1 == train2 and test1 == test2
    assert not (set(train1) & set(test1))
    assert sorted(train1 + test1) == ds.group_ids()
    assert len(train1) == 7 and len(test1) == 3
    with pytest.raises(ValueError):
        sd.split_train_test(ds, 1.0)
