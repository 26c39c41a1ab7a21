"""The dataset generator written one member at a time, as the oracle of ``generate_dataset``.

It makes the draws of the module docstring of ``gcum.synthdata`` in that
order and builds every appearance as its own array, ``catalog + bias +
noise`` from left to right, then stacks each view's rows.
``generate_dataset`` fills one matrix instead and must give the same
bytes for every ``(config, seed)``.
"""

import numpy as np

from gcum import synthdata as sd


def generate_dataset(config: sd.GenConfig, seed: int) -> sd.Dataset:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(sd._GENERATE_STREAM,)))

    rosters: list[list[int]] = []
    catalog: list[np.ndarray] = []  # entry i is identity i
    next_person = 0
    for _ in range(config.n_group_identities):
        size = int(rng.integers(config.members_min, config.members_max + 1))
        pids = list(range(next_person, next_person + size))
        next_person += size
        rosters.append(pids)
        for pid in pids:
            raw = rng.normal(size=config.d_a)
            catalog.append(raw / np.linalg.norm(raw))

    biases = rng.normal(size=(config.n_cameras, config.d_a)) * config.camera_bias_std

    samples: list[sd.GroupSample] = []
    for gid, roster in enumerate(rosters):
        for cam in range(config.n_cameras):
            for _ in range(config.views_per_group_per_camera):
                keep = rng.random(len(roster)) >= config.membership_dropout_prob
                if not keep.any():
                    keep[0] = True
                pids = [pid for pid, k in zip(roster, keep) if k]
                if config.layout_permutation and len(pids) > 1:
                    order = rng.permutation(len(pids))
                    pids = [pids[i] for i in order]
                appearances = []
                for pid in pids:
                    noise = rng.normal(size=config.d_a) * config.appearance_noise_std
                    appearances.append(catalog[pid] + biases[cam] + noise)
                samples.append(sd.GroupSample(gid, cam, tuple(pids), np.stack(appearances)))
    return sd.Dataset(seed=seed, config=config, catalog=np.stack(catalog), samples=samples)
