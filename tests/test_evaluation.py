"""Retrieval metric oracles and ablation harness checks."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcum import diffcore as dc
from gcum import evaluation, gla, grce
from gcum.cli import RunConfig
from gcum.encoders import ModelConfig, init_model_state
from gcum.evaluation import (
    ABLATION_ROWS,
    RetrievalReport,
    cmc,
    evaluate,
    extract_features,
    format_ablation_table,
    mean_average_precision,
    rank_gallery,
    run_ablation,
    run_rows,
)
from gcum.synthdata import (
    GenConfig,
    GroupSample,
    generate_dataset,
    split_query_gallery,
    split_train_test,
)
from gcum.trainer import TrainConfig, train_stage1

from passes import whole_run


def _unit_rows(rng, n, dim):
    x = rng.normal(size=(n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _hits(*rankings):
    """Hit matrix of (query label, gallery labels in ranked order) pairs."""
    return np.array([[label == qid for label in labels] for qid, labels in rankings])


# --------------------------------------------------------------------------
# Ranking


def test_rank_gallery_orders_by_similarity():
    # one query feature under each gallery label: row i shows where label i ranks
    q = np.array([[1.0, 0.0]] * 3)
    g = np.array([[0.0, 1.0], [1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]])
    hits = rank_gallery(q, g, [7, 8, 9], [7, 8, 9])
    # ranked order (1, 2, 0): labels 8, 9, 7
    assert np.array_equal(hits, [[False, False, True], [True, False, False], [False, True, False]])


def test_rank_gallery_breaks_ties_by_gallery_index():
    q = np.array([[1.0, 0.0]] * 3)
    row = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    g = np.stack([row, row, row])
    hits = rank_gallery(q, g, [5, 6, 7], [5, 6, 7])
    assert np.array_equal(hits, np.eye(3, dtype=bool))  # ranked order (0, 1, 2)


def _argsort_hits(q, g, q_labels, g_labels):
    """The hit matrix by a full stable argsort of per-query similarities."""
    sims = np.stack([g @ row for row in q])
    order = np.argsort(-sims, axis=1, kind="stable")
    return np.asarray(g_labels)[order] == np.asarray(q_labels)[:, None]


def test_rank_gallery_matches_a_stable_argsort():
    rng = np.random.default_rng(17)
    base = _unit_rows(rng, 120, 16)
    # duplicated gallery rows tie exactly, rows a few ulps apart order by
    # rounding alone; some queries equal a gallery row
    near = base[:60] + rng.normal(scale=1e-15, size=(60, 16))
    g = np.concatenate([base, base[:40], base[10:20], near / np.linalg.norm(near, axis=1, keepdims=True)])
    g_labels = rng.integers(0, 60, len(g))
    q = np.concatenate([_unit_rows(rng, 50, 16), base[:30], -base[30:40]])
    q_labels = np.concatenate([rng.integers(0, 70, 50), g_labels[:30], rng.integers(0, 60, 10)])
    # a coarse grid makes many unrelated similarities tie exactly too
    coarse = np.round(q * 4) / 4
    coarse = coarse[np.linalg.norm(coarse, axis=1) > 0]
    q = np.concatenate([q, coarse / np.linalg.norm(coarse, axis=1, keepdims=True)])
    q_labels = np.concatenate([q_labels, rng.integers(0, 60, len(coarse))])
    g = np.concatenate([g, np.eye(16)])
    g_labels = np.concatenate([g_labels, rng.integers(0, 60, 16)])
    hits = rank_gallery(q, g, q_labels, g_labels)
    assert np.array_equal(hits, _argsort_hits(q, g, q_labels, g_labels))
    assert not hits[(q_labels[:, None] != g_labels[None]).all(axis=1)].any()
    # the batched product of the exact path is bit-equal to one product per query
    sims = np.stack([g @ row for row in q])
    assert np.matmul(g[None], q[:, :, None])[..., 0].tobytes() == sims.tobytes()
    assert np.count_nonzero(np.diff(np.sort(sims, axis=1), axis=1) == 0) > 100  # exact ties


def test_byte_equal_gallery_rows_tie():
    # a product can round a row by its position, yet a copy of a gallery row
    # ties with its original and so ranks right after it
    rng = np.random.default_rng(23)
    for n, dim in ((13, 8), (29, 48), (47, 64), (31, 8), (57, 48)):
        base = _unit_rows(rng, n, dim)
        idx = rng.choice(n, n // 2, replace=False)
        g = np.concatenate([base, base[idx]])
        g_labels = np.arange(len(g))  # base row i has label i, the copy of base[idx[t]] n + t
        q = np.repeat(_unit_rows(rng, 10, dim), len(idx), axis=0)
        originals = rank_gallery(q, g, np.tile(idx, 10), g_labels).argmax(axis=1)
        copies = rank_gallery(q, g, np.tile(n + np.arange(len(idx)), 10), g_labels).argmax(axis=1)
        assert np.array_equal(copies, originals + 1), (n, dim)


def test_chunked_ranking_is_the_whole_matrix_ranking(monkeypatch):
    # 600 queries make three chunks of 256, the last ragged; the gallery's
    # byte-equal copies are relevant to queries in every chunk
    rng = np.random.default_rng(29)
    n_query, dim = 600, 48
    base = _unit_rows(rng, 120, dim)
    g = np.concatenate([base, base[:40]])
    g_labels = np.concatenate([np.arange(120) % 60, np.arange(40) % 60])
    q = np.concatenate([_unit_rows(rng, n_query - 60, dim), base[rng.choice(120, 60)]])
    q_labels = rng.integers(0, 60, n_query)
    q_labels[[3, 300, 599]] = 7  # rows 7 and 67 and the copy of row 7, from three chunks
    assert evaluation._QUERIES_PER_CHUNK == 256
    chunked = rank_gallery(q, g, q_labels, g_labels)
    for size in (n_query, 7, 1):
        monkeypatch.setattr(evaluation, "_QUERIES_PER_CHUNK", size)
        assert rank_gallery(q, g, q_labels, g_labels).tobytes() == chunked.tobytes(), size
    # a query's hits are the hits it gets ranked on its own
    for i in (3, 300, 599):
        assert rank_gallery(q[i:i + 1], g, q_labels[i:i + 1], g_labels).tobytes() == chunked[i].tobytes()


def _matvec_hits(q, g, q_labels, g_labels):
    """The hit matrix by one product per query and counting, the exact ranking."""
    g = np.ascontiguousarray(g)
    _, first, copy_of = np.unique(g.view(np.dtype((np.void, g.strides[0]))), return_index=True,
                                  return_inverse=True)
    sims = np.matmul(g[None], q[:, :, None])[..., 0][:, first[copy_of.ravel()]]
    # a relevant row's rank: rows scoring higher + equal rows before it; `at` row i lists query i's
    qi, gj = np.nonzero(np.asarray(q_labels)[:, None] == np.asarray(g_labels))
    slot = np.arange(qi.size) - np.searchsorted(qi, qi)
    at = np.zeros((len(q), slot.max(initial=-1) + 1), dtype=np.int64)
    at[qi, slot] = gj
    own = np.take_along_axis(sims, at, axis=1)[:, :, None]
    ahead = (sims[:, None] > own) | ((sims[:, None] == own) & (np.arange(len(g)) < at[:, :, None]))
    hits = np.zeros((len(q), len(g)), dtype=bool)
    hits[qi, np.count_nonzero(ahead, axis=2)[qi, slot]] = True
    return hits


def _exact_queries(monkeypatch):
    """The queries each call of the exact path ranks, one list per call."""
    calls = []
    exact = evaluation._exact_ranks

    def recording(g, q, *args):
        calls.append(q.copy())
        return exact(g, q, *args)

    monkeypatch.setattr(evaluation, "_exact_ranks", recording)
    return calls


def test_rank_gallery_is_the_matvec_ranking_on_near_ties(monkeypatch):
    rng = np.random.default_rng(31)
    dim = 16
    base = _unit_rows(rng, 150, dim)
    # neighbours one ulp apart, byte-equal copies, and rows on a coarse grid
    # whose similarities tie exactly
    near = base[:40].copy()
    near[:, 0] = np.nextafter(near[:, 0], np.inf)
    coarse = np.round(_unit_rows(rng, 40, dim) * 2) / 2
    coarse = coarse[np.linalg.norm(coarse, axis=1) > 0]
    g = np.concatenate([base, near, base[40:70], coarse / np.linalg.norm(coarse, axis=1, keepdims=True)])
    g = g[rng.permutation(len(g))]
    # one to three gallery rows per label
    g_labels = rng.permutation(np.repeat(np.arange(len(g)), rng.integers(1, 4, len(g)))[:len(g)])
    # 300 queries span a chunk boundary at 256: queries equal to gallery rows,
    # on the coarse grid and random ones, mixed
    q = np.concatenate([g[rng.choice(len(g), 120)], np.round(_unit_rows(rng, 100, dim) * 2) / 2,
                        _unit_rows(rng, 80, dim)])
    q = q[np.linalg.norm(q, axis=1) > 0]
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    order = rng.permutation(len(q))
    q, q_labels = q[order], rng.choice(g_labels, len(q))
    calls = _exact_queries(monkeypatch)
    hits = rank_gallery(q, g, q_labels, g_labels)
    assert hits.tobytes() == _matvec_hits(q, g, q_labels, g_labels).tobytes()
    assert set(np.bincount(g_labels)[q_labels]) == {1, 2, 3}
    # both paths ran, in both chunks
    assert len(calls) == 2 and 0 < sum(map(len, calls)) < len(q)


def test_the_exact_path_ranks_only_a_near_tie(monkeypatch):
    rng = np.random.default_rng(37)
    g = _unit_rows(rng, 300, 48)
    g_labels = np.arange(300)
    g[7] = g[3]
    g[7, 0] = np.nextafter(g[3, 0], np.inf)  # a row one ulp from row 3
    q = _unit_rows(rng, 400, 48)
    q_labels = rng.integers(10, 300, 400)
    q_labels[[0, 255]] = (3, 7)  # its label near ties: only queries 0 and 255 see it
    q_labels[256] = 3
    calls = _exact_queries(monkeypatch)
    hits = rank_gallery(q, g, q_labels, g_labels)
    assert hits.tobytes() == _matvec_hits(q, g, q_labels, g_labels).tobytes()
    assert [c.tobytes() for c in calls] == [q[[0, 255]].tobytes(), q[256:257].tobytes()]


def test_random_unit_rows_take_no_exact_path(monkeypatch):
    # the gain rests on near ties being rare: 900 x 900 random rows at dim 48
    # have none
    rng = np.random.default_rng(41)
    q, g = _unit_rows(rng, 900, 48), _unit_rows(rng, 900, 48)
    q_labels, g_labels = rng.integers(0, 450, 900), rng.permutation(np.arange(900) % 450)
    pick, at = rng.choice(900, 50, replace=False), np.sort(rng.integers(0, 901, 50))
    calls = _exact_queries(monkeypatch)
    hits = rank_gallery(q, g, q_labels, g_labels)
    assert calls == []
    assert hits.tobytes() == _matvec_hits(q, g, q_labels, g_labels).tobytes()
    # a byte-equal copy of a relevant row is within the margin of it, so the
    # exact path ranks exactly the queries whose label has a copied row
    copied = np.isin(q_labels, g_labels[pick])
    g, g_labels = np.insert(g, at, g[pick], axis=0), np.insert(g_labels, at, g_labels[pick])
    hits = rank_gallery(q, g, q_labels, g_labels)
    assert np.count_nonzero(copied) == 92
    assert np.concatenate(calls).tobytes() == q[copied].tobytes()
    assert hits.tobytes() == _matvec_hits(q, g, q_labels, g_labels).tobytes()


def test_extract_features_over_chunks_is_one_stack(monkeypatch):
    # 640 views: two full chunks of 256 and a ragged half chunk
    gen = GenConfig(n_group_identities=160, d_a=5, members_min=2, members_max=4)
    ds = generate_dataset(gen, seed=30)
    assert len(ds.samples) == 640 and grce.VIEWS_PER_CHUNK == 256
    state = init_model_state(ModelConfig(dim=8, d_a=5, max_members=4, group_slots=4), seed=2)
    state = state.with_params({"quantity.em": dc.Tensor(np.random.default_rng(31).normal(size=(4, 8)))})
    frozen = state.with_trainable(())

    def one_stack(samples, refined):
        """A pass whose one chunk holds every view."""
        with monkeypatch.context() as m:
            m.setattr(grce, "VIEWS_PER_CHUNK", len(samples))
            return whole_run(samples, frozen, quantity=True, refined=refined)[0].values

    for refined in (False, True):
        whole = one_stack(ds.samples, refined)
        assert extract_features(state, ds.samples, refined=refined, quantity=True).tobytes() == whole.tobytes()
    # a last chunk of one view
    few = ds.samples[:257]
    assert (extract_features(state, few, refined=True, quantity=True).tobytes()
            == one_stack(few, True).tobytes())


def test_rank_gallery_rejects_bad_inputs():
    q = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        rank_gallery(q, np.zeros((0, 2)), [1], [])
    with pytest.raises(ValueError):
        rank_gallery(np.zeros((0, 2)), np.eye(2), [], [1, 2])  # no queries
    with pytest.raises(ValueError):
        rank_gallery(q, np.eye(3), [1], [1, 2, 3])  # width mismatch
    with pytest.raises(ValueError):
        rank_gallery(q, np.eye(2) * 2.0, [1], [1, 2])  # gallery not unit norm
    with pytest.raises(ValueError):
        rank_gallery(q * 2.0, np.eye(2), [1], [1, 2])  # query not unit norm
    with pytest.raises(ValueError):
        rank_gallery(q, np.eye(2), [1], [1])  # gallery label count
    with pytest.raises(ValueError):
        rank_gallery(q, np.eye(2), [1, 2], [1, 2])  # query label count
    for bad in (np.nan, np.inf):  # a NaN norm compares false either way
        with pytest.raises(ValueError, match="unit-norm"):
            rank_gallery([[bad, 0.0]], np.eye(2), [1], [1, 2])
        with pytest.raises(ValueError, match="unit-norm"):
            rank_gallery(q, [[1.0, 0.0], [0.0, bad]], [1], [1, 2])


# --------------------------------------------------------------------------
# CMC and mAP hand values


def test_cmc_counts_top_k_hits():
    hits = _hits(
        (1, (2, 3, 1, 4)),   # first hit at rank 3
        (2, (2, 3, 1, 4)),   # first hit at rank 1
    )
    assert cmc(hits, 1) == 0.5
    assert cmc(hits, 2) == 0.5
    assert cmc(hits, 3) == 1.0
    assert cmc(hits, 100) == 1.0  # k beyond gallery size saturates


def test_cmc_is_non_decreasing_in_k():
    rng = np.random.default_rng(0)
    hits = _hits(*[
        (int(labels[0]), tuple(int(x) for x in rng.permutation(labels)))
        for labels in [rng.integers(0, 4, size=8) for _ in range(30)]
    ])
    curve = [cmc(hits, k) for k in range(1, 9)]
    assert all(a <= b for a, b in zip(curve, curve[1:]))


def test_map_hand_cases():
    assert mean_average_precision(_hits((1, (1, 1, 2, 3)))) == pytest.approx(1.0)
    assert mean_average_precision(_hits((1, (2, 3, 4, 1)))) == pytest.approx(0.25)
    two_hits = (1, (1, 2, 1, 3))
    assert mean_average_precision(_hits(two_hits)) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)
    assert mean_average_precision(_hits((1, (1, 1, 2, 3)), two_hits)) == pytest.approx(
        (1.0 + (1.0 + 2.0 / 3.0) / 2.0) / 2.0
    )


def _dense_map(hits):
    """mAP the dense way: a precision at every rank, zero off the hits, summed left to right."""
    precision = np.where(hits, np.cumsum(hits, axis=1) / np.arange(1, hits.shape[1] + 1), 0.0)
    return float(np.mean(np.cumsum(precision, axis=1)[:, -1] / np.count_nonzero(hits, axis=1)))


def test_map_is_bit_equal_to_the_dense_formula():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n_q, n_g = int(rng.integers(1, 30)), int(rng.integers(1, 400))
        hits = rng.random((n_q, n_g)) < rng.uniform(0.0, 0.3)
        hits[np.arange(n_q), rng.integers(0, n_g, n_q)] = True
        assert mean_average_precision(hits).hex() == _dense_map(hits).hex()


def _nonzero_map(hits):
    """mAP with the hit positions of a 2-D ``np.nonzero``, the form the flat positions replaced."""
    qi, rank = np.nonzero(hits)
    relevant = np.bincount(qi, minlength=hits.shape[0])
    n = np.arange(qi.size) - np.searchsorted(qi, qi)
    precision = np.zeros((hits.shape[0], relevant.max()))
    precision[qi, n] = (n + 1) / (rank + 1)
    return float(np.mean(np.cumsum(precision, axis=1)[:, -1] / relevant))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 60), st.floats(0.0, 0.5), st.booleans(), st.integers(0, 2**32 - 1))
def test_map_from_flat_hit_positions_is_the_nonzero_form_bit_for_bit(n_q, n_g, density, last, seed):
    rng = np.random.default_rng(seed)
    hits = rng.random((n_q, n_g)) < density
    hits[np.arange(n_q), rng.integers(0, n_g, n_q)] = True
    if last:  # a hit in the last column of every row, where a flat position wraps to the next row
        hits[:, -1] = True
    assert mean_average_precision(hits).hex() == _nonzero_map(hits).hex()


def test_map_requires_a_relevant_entry():
    with pytest.raises(ValueError):
        mean_average_precision(_hits((1, (1, 2, 3)), (9, (1, 2, 3))))
    with pytest.raises(ValueError):
        cmc(np.zeros((0, 3), dtype=bool), 1)
    with pytest.raises(ValueError):
        mean_average_precision(np.zeros((0, 3), dtype=bool))


# --------------------------------------------------------------------------
# Brute-force cross-check on random instances


def _brute_metrics(q_feats, q_ids, g_feats, g_labels):
    """Independent O(n^2) CMC/mAP computed with python sorting."""
    per_query = []
    for q, qid in zip(q_feats, q_ids):
        sims = [sum(float(a) * float(b) for a, b in zip(row, q)) for row in g_feats]
        order = sorted(range(len(g_feats)), key=lambda i: (-sims[i], i))
        per_query.append([g_labels[i] for i in order])
    def brute_cmc(k):
        return sum(1 for qid, labs in zip(q_ids, per_query) if qid in labs[:k]) / len(q_ids)
    aps = []
    for qid, labs in zip(q_ids, per_query):
        hits, precs = 0, []
        for rank, lab in enumerate(labs, start=1):
            if lab == qid:
                hits += 1
                precs.append(hits / rank)
        aps.append(sum(precs) / len(precs))
    return brute_cmc, float(np.mean(aps))


def test_metrics_match_brute_force_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n_g = int(rng.integers(2, 21))
        n_q = int(rng.integers(1, 6))
        dim = int(rng.integers(2, 8))
        n_ids = int(rng.integers(1, 5))
        g_labels = [int(x) for x in rng.integers(0, n_ids, size=n_g)]
        q_ids = [g_labels[int(rng.integers(0, n_g))] for _ in range(n_q)]
        g = _unit_rows(rng, n_g, dim)
        q = _unit_rows(rng, n_q, dim)
        hits = rank_gallery(q, g, q_ids, g_labels)
        brute_cmc, brute_map = _brute_metrics(q, q_ids, g, g_labels)
        for k in (1, 3, 5, 10):
            assert cmc(hits, k) == brute_cmc(k)
        assert mean_average_precision(hits) == brute_map


# --------------------------------------------------------------------------
# Reports


def test_report_shape_and_keys():
    ds, state = _eval_setup(noise=0.1)
    d = evaluate(state, ds.samples, 0, refined=True, quantity=True).to_dict()
    # eval's stdout and report.json print the keys in this order
    assert list(d) == ["rank1", "rank5", "rank10", "mAP", "n_query", "n_gallery"]
    assert d["rank1"] <= d["rank5"] <= d["rank10"]


def test_report_rejects_non_monotone_cmc():
    with pytest.raises(ValueError):
        RetrievalReport(rank1=0.9, rank5=0.5, rank10=1.0, mAP=0.5, n_query=1, n_gallery=1)
    with pytest.raises(ValueError):
        RetrievalReport(rank1=0.1, rank5=0.5, rank10=1.0, mAP=1.5, n_query=1, n_gallery=1)


# --------------------------------------------------------------------------
# Feature extraction and the cross-camera protocol


def _eval_setup(noise=0.0, seed=3, dropout=0.3):
    gen = GenConfig(
        n_group_identities=5,
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
            group_slots=3,
            tokens_per_identity=2,
            n_person_ids=len(ds.catalog),
            n_group_classes=len(ds.group_ids()),
        ),
        seed=1,
    )
    return ds, state


def test_extract_features_matches_single_sample_forward():
    ds, state = _eval_setup()
    feats = extract_features(state, ds.samples[:4], refined=True, quantity=True)
    assert feats.shape == (4, 8)
    assert np.allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)
    one, _, _ = whole_run([ds.samples[2]], state.with_trainable(()), quantity=True, refined=True)
    assert np.array_equal(feats[2], one.values[0])


def test_evaluate_peaks_in_bounded_memory():
    # the retrieval-large benchmark split, seed 1: 900 queries against 900
    # gallery views of an untrained model.  Featurizing every view in one
    # stack and ranking every query at once peaked at 19 MB of traced
    # allocations; in chunks it peaks near 6 MB.
    cfg = RunConfig(seed=1, n_group_identities=1500)
    ds = generate_dataset(cfg.gen_config(), cfg.seed)
    train_gids, test_gids = split_train_test(ds, cfg.train_fraction)
    keep = set(test_gids)
    test = [s for s in ds.samples if s.group_id in keep]
    assert len(test) == 1800
    state = init_model_state(cfg.model_config(ds, len(train_gids)), cfg.seed)
    tracemalloc.start()
    try:
        evaluate(state, test, 0, refined=True, quantity=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak


def test_class_text_features_peak_in_bounded_memory():
    # the 1,050 training classes of the 1,500-group split, seed 1, as stage 2
    # encodes them.  A mean over each prompt's rows by one product with an
    # (n, n L) pool matrix peaked at 312 MB of traced allocations; pooled
    # block by block the pass peaked near 98 MB, and as one node that reads
    # the prompt parts it peaks near 75 MB.
    cfg = RunConfig(seed=1, n_group_identities=1500)
    ds = generate_dataset(cfg.gen_config(), cfg.seed)
    train_gids, _ = split_train_test(ds, cfg.train_fraction)
    assert len(train_gids) == 1050
    state = init_model_state(cfg.model_config(ds, len(train_gids)), cfg.seed)
    rosters = ds.group_rosters()
    tracemalloc.start()
    try:
        gla.class_text_features(state, train_gids, rosters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150_000_000, peak


def test_evaluate_splits_by_camera():
    ds, state = _eval_setup()
    queries, gallery = split_query_gallery(ds.samples, 0)
    report = evaluate(state, ds.samples, 0, refined=False, quantity=False)
    assert report.n_query == len(queries)
    assert report.n_gallery == len(gallery)


def test_untrained_model_solves_noiseless_data():
    # with zero appearance noise, no camera bias, and every member always
    # visible, same-group views are identical and retrieval is perfect
    ds, state = _eval_setup(noise=0.0, dropout=0.0)
    report = evaluate(state, ds.samples, 0, refined=False, quantity=False)
    assert report.rank1 == 1.0
    assert report.mAP == 1.0


def _enumerated_report(q_feats, q_labels, g_feats, g_labels):
    """CMC and mAP by enumeration over the same per-query products: a
    relevant row ranks one after every row scoring higher and every
    equal-scoring row before it.  A byte-equal row scores as its first
    copy, since a product may round a row by its position."""
    first = {}
    copy_of = [first.setdefault(row.tobytes(), j) for j, row in enumerate(g_feats)]
    first_hits, aps = [], []
    for q, label in zip(q_feats, q_labels):
        sims = (g_feats @ q)[copy_of]
        ranks = sorted(
            1 + int(np.sum(sims > sims[j])) + int(np.sum(sims[:j] == sims[j]))
            for j, other in enumerate(g_labels) if other == label
        )
        first_hits.append(ranks[0])
        aps.append(sum((n + 1) / r for n, r in enumerate(ranks)) / len(ranks))
    n = len(q_labels)
    return RetrievalReport(
        rank1=sum(r <= 1 for r in first_hits) / n,
        rank5=sum(r <= 5 for r in first_hits) / n,
        rank10=sum(r <= 10 for r in first_hits) / n,
        mAP=float(np.mean(aps)),
        n_query=n,
        n_gallery=len(g_labels),
    )


def test_evaluate_matches_enumeration_exactly():
    # copies of gallery views under another query's group id tie with their
    # originals, before and after them in gallery order
    ds, state = _eval_setup(noise=0.1)
    queries, gallery = split_query_gallery(ds.samples, 0)
    q_ids = sorted({s.group_id for s in queries})
    copies = [
        GroupSample(q_ids[(q_ids.index(s.group_id) + 1) % len(q_ids)], s.camera_id, s.identity_ids,
                    s.appearances)
        for s in gallery[:4]
    ]
    samples = copies[:2] + ds.samples + copies[2:]
    report = evaluate(state, samples, 0, refined=True, quantity=True)

    queries, gallery = split_query_gallery(samples, 0)
    q_feats = extract_features(state, queries, refined=True, quantity=True)
    g_feats = extract_features(state, gallery, refined=True, quantity=True)
    q_labels = [s.group_id for s in queries]
    g_labels = [s.group_id for s in gallery]
    assert len(queries) > 1 and g_labels[0] != g_labels[2]
    assert all((g_feats @ q)[0] == (g_feats @ q)[2] for q in q_feats)
    assert report == _enumerated_report(q_feats, q_labels, g_feats, g_labels)


def test_features_and_reports_keep_their_bytes_under_the_full_lexsort(monkeypatch):
    ds, state = _eval_setup(noise=0.1)
    # no two members of a view share appearance column 0, so the first column orders them
    assert all(len(set(s.appearances[:, 0])) == len(s.identity_ids) for s in ds.samples)
    s = next(s for s in ds.samples if len(s.identity_ids) == 2)
    a, b = s.appearances
    # its second member shares column 0 with the first, its third is the first's double
    a_id, b_id = s.identity_ids
    tied = GroupSample(s.group_id, s.camera_id, (a_id, b_id, b_id + 1),
                       np.stack([a, np.concatenate([a[:1], b[1:]]), a.copy()]))

    def outputs():
        out = []
        for samples in (ds.samples, ds.samples + [tied]):
            feats, members, ids = whole_run(samples, state.with_trainable(()), quantity=True, refined=True)
            out += [feats.values.tobytes(), members.values.tobytes(), ids,
                    evaluate(state, samples, 0, refined=True, quantity=True)]
        return out

    fast = outputs()
    monkeypatch.setattr(grce, "canonical_order", lambda rows, segments: np.lexsort(
        list(rows.T[::-1]) + [np.asarray(segments)]).tolist())
    assert outputs() == fast


# --------------------------------------------------------------------------
# Ablation harness


def _short_cfg(**overrides):
    base = dict(
        lr_start=1e-3,
        lr_peak=5e-2,
        warmup_epochs=1,
        decay_epochs=(),
        total_epochs=1,
        batch_size=4,
        p_groups=2,
        q_views=2,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def _model_base():
    # person id and class counts are resolved per dataset inside run_rows
    return ModelConfig(dim=8, d_a=6, max_members=3, group_slots=3, tokens_per_identity=2)


_RUN = RunConfig()
# the recipe keywords of run_rows and run_ablation, from the run config's defaults
_RECIPE = dict(mvs_cfg=_RUN.mvs, alpha=_RUN.alpha, epsilon=_RUN.epsilon,
               train_fraction=_RUN.train_fraction, query_camera=0)


def test_run_single_without_modules_is_pure_evaluation():
    ds, _ = _eval_setup()
    report = run_rows(ds, _model_base(), _short_cfg(), 1, [(False, False, False)], **_RECIPE)[0]
    train_gids, test_gids = split_train_test(ds, _RUN.train_fraction)
    state = init_model_state(_model_base().for_dataset(ds, len(train_gids)), seed=1)
    test_samples = [s for s in ds.samples if s.group_id in set(test_gids)]
    direct = evaluate(state, test_samples, 0, refined=False, quantity=False)
    assert report.to_dict() == direct.to_dict()


def test_member_dropout_alone_matches_base():
    # the count matrix starts at zero and nothing trains it without prompt
    # learning, so enabling the count term alone cannot change features
    ds, _ = _eval_setup(noise=0.1)
    base = run_rows(ds, _model_base(), _short_cfg(), 2, [(False, False, False)], **_RECIPE)[0]
    mvs_only = run_rows(ds, _model_base(), _short_cfg(), 2, [(False, True, False)], **_RECIPE)[0]
    assert base.to_dict() == mvs_only.to_dict()


def test_prompt_learning_alone_matches_base():
    # +GLA evaluates without the count term or the refinement head, so it
    # reads only the frozen encoders: a trained stage 1 cannot change its
    # features, which is why the ablation skips that training
    cfg = _RUN
    ds = generate_dataset(cfg.gen_config(), cfg.seed)
    train_gids, test_gids = split_train_test(ds, cfg.train_fraction)
    train = [s for s in ds.samples if s.group_id in set(train_gids)]
    test = [s for s in ds.samples if s.group_id in set(test_gids)]
    state = init_model_state(cfg.model_config(ds, len(train_gids)), 0)
    trained, _ = train_stage1(state, train, ds.group_rosters(),
                              replace(cfg.train_config(1), seed=0), mvs=None)
    assert not np.array_equal(trained.params["prompt.x"].values, state.params["prompt.x"].values)
    state, trained = (st.with_trainable([]) for st in (state, trained))
    assert np.array_equal(extract_features(trained, test, refined=False, quantity=False),
                          extract_features(state, test, refined=False, quantity=False))
    gla_only = run_rows(ds, cfg.model_base(), cfg.train_config(1), 0, [(True, False, False)], **_RECIPE)[0]
    base = run_rows(ds, cfg.model_base(), cfg.train_config(1), 0, [(False, False, False)], **_RECIPE)[0]
    assert gla_only == base


def test_run_ablation_rows_and_table():
    ds, _ = _eval_setup(noise=0.1)
    rows = run_ablation(ds, _model_base(), _short_cfg(), seeds=(0, 1, 2), **_RECIPE)
    assert [r["name"] for r in rows] == [name for name, *_ in ABLATION_ROWS]
    for row in rows:
        assert len(row["per_seed"]) == 3
        for metric in ("rank1", "rank5", "rank10", "mAP"):
            assert 0.0 <= row[f"{metric}_mean"] <= 1.0
            assert row[f"{metric}_std"] >= 0.0
    table = format_ablation_table(rows)
    lines = table.splitlines()
    assert len(lines) == 2 + len(rows)
    assert lines[0].startswith("config")
    assert all(len(line) == len(lines[0]) or i < 2 for i, line in enumerate(lines))


def test_run_ablation_trains_each_stage1_once(monkeypatch):
    # +GLA+MVS and Full share a stage 1 per seed and +GLA reads nothing
    # stage 1 trains: one stage-1 training per seed
    ds, _ = _eval_setup(noise=0.1)
    calls = []
    train = evaluation.train_stage1

    def counting(*args, **kwargs):
        calls.append(args[3].seed)
        return train(*args, **kwargs)

    monkeypatch.setattr(evaluation, "train_stage1", counting)
    rows = {r["name"]: r for r in run_ablation(ds, _model_base(), _short_cfg(), seeds=(0, 1, 2), **_RECIPE)}
    assert sorted(calls) == [0, 1, 2]
    for seed, shared in zip((0, 1, 2), rows["Full"]["per_seed"]):
        alone = run_rows(ds, _model_base(), _short_cfg(), seed, [(True, True, True)], **_RECIPE)[0]
        assert shared == alone.to_dict()


def test_run_rows_draws_one_initial_state_and_each_row_matches_its_own_run(monkeypatch):
    # no stage writes to the state it is given, so the rows can share it
    ds, _ = _eval_setup(noise=0.1)
    calls = []
    init = evaluation.init_model_state

    def counting(config, seed):
        calls.append(seed)
        return init(config, seed)

    monkeypatch.setattr(evaluation, "init_model_state", counting)
    rows = [flags for _, *flags in ABLATION_ROWS]
    together = run_rows(ds, _model_base(), _short_cfg(), 4, rows, **_RECIPE)
    assert calls == [4]
    for flags, report in zip(rows, together):
        assert run_rows(ds, _model_base(), _short_cfg(), 4, [flags], **_RECIPE)[0] == report


def test_run_rows_evaluates_a_state_once_per_flags(monkeypatch):
    # +GLA evaluates Base's initial state with Base's flags and takes its report;
    # +MVS evaluates the same state with the count term, so it runs its own
    ds, _ = _eval_setup(noise=0.1)
    calls = []
    evaluate_ = evaluation.evaluate

    def counting(state, samples, query_camera, *, refined, quantity):
        calls.append((state, refined, quantity))
        return evaluate_(state, samples, query_camera, refined=refined, quantity=quantity)

    monkeypatch.setattr(evaluation, "evaluate", counting)
    rows = dict((name, flags) for name, *flags in ABLATION_ROWS)
    base, gla, mvs = run_rows(ds, _model_base(), _short_cfg(), 4,
                              [rows["Base"], rows["+GLA"], rows["+MVS"]], **_RECIPE)
    assert [flags for _, *flags in calls] == [[False, False], [False, True]]
    assert calls[0][0] is calls[1][0]
    assert gla is base and mvs is not base


def test_run_ablation_needs_three_seeds():
    ds, _ = _eval_setup()
    with pytest.raises(ValueError):
        run_ablation(ds, _model_base(), _short_cfg(), seeds=(0, 1), **_RECIPE)


def test_run_rows_rejects_a_dataset_of_another_appearance_width():
    # train rejects such a dataset as a config error; the harness must not adopt its width
    ds, _ = _eval_setup()
    with pytest.raises(ValueError, match="model d_a=7 but dataset has d_a=6"):
        run_rows(ds, replace(_model_base(), d_a=7), _short_cfg(), 0, [(False, False, False)], **_RECIPE)
