import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfit.consensus import (
    cluster_instances,
    tanimoto_matrix,
)
from mmfit.losses import LossFunction, LossKind
from mmfit.models import PointSet, residuals
from mmfit.quality import quality_f_from_losses

from conftest import consolidate_fixed, line_instance


def _loss_rows(prefs):
    """Loss rows whose preference vectors 1 - loss are the given rows."""
    return 1.0 - np.atleast_2d(np.asarray(prefs, dtype=float))


def _loss_rows_of(instances, points, fn):
    return np.vstack([fn.losses(residuals(h, points.coords)) for h in instances])


def _tanimoto_oracle(a, b):
    dot = float(a @ b)
    denom = float(a @ a + b @ b - dot)
    return dot / denom if denom > 0 else 0.0


# ---------------------------------------------------------------------------
# preference vectors as seen by the similarity

def test_no_inliers_empty_vector(rng):
    # a line far from every point has a zero preference vector: it is
    # similar to nothing, itself included, and stays a singleton
    points = PointSet(rng.uniform(0, 100, size=(20, 2)) + 1000.0)
    fn = LossFunction(LossKind.MSAC, 2.0)
    rows = _loss_rows_of([line_instance(0.0, 1.0, 0.0),
                          line_instance(0.0, 1.0, -1050.0)], points, fn)
    assert np.all(rows[0] == 1.0)
    sim = tanimoto_matrix(rows)
    assert sim[0, 0] == 0.0 and sim[0, 1] == 0.0 and sim[1, 0] == 0.0
    assert cluster_instances(rows, 0.01) == [(0,), (1,)]


def test_hard_loss_gives_binary_indicator(rng):
    # under the 0/1 loss preferences are inlier indicators, so the
    # similarity is the Jaccard index of the inlier sets
    points = PointSet(rng.uniform(0, 100, size=(50, 2)))
    fn = LossFunction(LossKind.HARD01, 10.0)
    lines = [line_instance(0.0, 1.0, -50.0), line_instance(0.0, 1.0, -58.0)]
    rows = _loss_rows_of(lines, points, fn)
    inliers = [set(np.nonzero(np.abs(points.coords[:, 1] - y) < 10.0)[0])
               for y in (50.0, 58.0)]
    assert set(np.nonzero(rows[0] == 0.0)[0]) == inliers[0]
    assert set(np.unique(rows)) <= {0.0, 1.0}
    jaccard = len(inliers[0] & inliers[1]) / len(inliers[0] | inliers[1])
    assert tanimoto_matrix(rows)[0, 1] == pytest.approx(jaccard, abs=1e-12)


def test_msac_entries_hand_scene():
    # distances to the x-axis: 0, 1, 2, 3, 5; epsilon = 4
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -2.0], [3.0, 3.0], [4.0, 5.0]])
    points = PointSet(coords)
    fn = LossFunction(LossKind.MSAC, 4.0)
    rows = _loss_rows_of([line_instance(0.0, 1.0, 0.0)], points, fn)
    assert np.allclose(1.0 - rows[0], [1.0, 1.0 - 1.0 / 16, 1.0 - 4.0 / 16,
                                       1.0 - 9.0 / 16, 0.0])
    assert tanimoto_matrix(rows)[0, 0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# tanimoto

def test_tanimoto_self_similarity(rng):
    prefs = np.abs(rng.normal(size=(5, 30))) * (rng.random((5, 30)) < 0.4)
    prefs[:, 0] = 0.5        # no all-zero row
    assert np.allclose(np.diag(tanimoto_matrix(_loss_rows(prefs))), 1.0)


def test_tanimoto_disjoint_supports():
    sim = tanimoto_matrix(_loss_rows([[1.0, 0.5, 0.0, 0.0, 0.0],
                                      [0.0, 0.0, 0.3, 0.9, 0.0]]))
    assert sim[0, 1] == 0.0 and sim[1, 0] == 0.0


def test_tanimoto_binary_half_overlap_is_one_third():
    k = 8
    a = np.zeros(4 * k)
    b = np.zeros(4 * k)
    a[:2 * k] = 1.0          # support 2k
    b[k:3 * k] = 1.0         # support 2k, shares k entries with a
    assert tanimoto_matrix(_loss_rows([a, b]))[0, 1] == pytest.approx(1.0 / 3.0)


def test_tanimoto_both_zero_flagged_as_zero():
    sim = tanimoto_matrix(_loss_rows(np.zeros((2, 5))))
    assert np.all(sim == 0.0)


def test_tanimoto_matches_dense_oracle(rng):
    for _ in range(50):
        k = int(rng.integers(1, 7))
        prefs = rng.random((k, 40)) * (rng.random((k, 40)) < 0.3)
        sim = tanimoto_matrix(_loss_rows(prefs))
        for i in range(k):
            for j in range(k):
                assert sim[i, j] == pytest.approx(
                    _tanimoto_oracle(prefs[i], prefs[j]), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_tanimoto_metric_properties(seed):
    rng = np.random.default_rng(seed)
    prefs = rng.random((3, 25)) * (rng.random((3, 25)) < 0.5)
    if not np.all(prefs.any(axis=1)):
        return
    sims = tanimoto_matrix(_loss_rows(prefs))
    assert np.allclose(np.diag(sims), 1.0)
    assert np.all((sims >= 0.0) & (sims <= 1.0 + 1e-12))
    assert np.allclose(sims, sims.T, atol=1e-12)
    d = 1.0 - sims
    assert d[0, 1] <= d[0, 2] + d[2, 1] + 1e-12


# ---------------------------------------------------------------------------
# clustering

def test_all_dissimilar_yield_singletons():
    clusters = cluster_instances(_loss_rows(np.eye(4)), 0.2)
    assert clusters == [(0,), (1,), (2,), (3,)]


def test_identical_instances_merge():
    clusters = cluster_instances(_loss_rows([[1.0, 1.0, 0.0],
                                             [1.0, 1.0, 0.0]]), 0.2)
    assert clusters == [(0, 1)]


def test_empty_input_and_tau_range():
    assert cluster_instances(np.zeros((0, 5)), 0.2) == []
    for tau in (0.0, 1.0):
        with pytest.raises(ValueError):
            cluster_instances(_loss_rows(np.eye(2)), tau)


def _transitive_closure_oracle(prefs, tau):
    n = len(prefs)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            adj[i, j] = i == j or _tanimoto_oracle(prefs[i], prefs[j]) >= tau
    reach = adj.copy()
    for k in range(n):
        reach |= reach[:, k][:, None] & reach[k][None, :]
    seen = set()
    comps = []
    for i in range(n):
        if i in seen:
            continue
        comp = tuple(sorted(j for j in range(n) if reach[i, j] and reach[j, i]))
        comps.append(comp)
        seen.update(comp)
    return sorted(comps)


def test_three_group_clustering_matches_ground_truth(rng):
    base = [np.zeros(60) for _ in range(3)]
    base[0][0:20] = 1.0
    base[1][20:40] = 1.0
    base[2][40:60] = 1.0
    rows, truth = [], []
    for g, b in enumerate(base):
        for _ in range(3 + g):
            noisy = b.copy()
            flip = rng.choice(60, size=2, replace=False)
            noisy[flip] = 1.0 - noisy[flip]
            rows.append(np.clip(noisy, 0, 1))
            truth.append(g)
    clusters = cluster_instances(_loss_rows(rows), 0.2)
    got = sorted(clusters)
    expected = sorted(
        tuple(i for i, t in enumerate(truth) if t == g) for g in range(3))
    assert got == expected
    assert got == _transitive_closure_oracle(rows, 0.2)


def test_clustering_equals_transitive_closure_randomized(rng):
    for _ in range(25):
        rows = [np.abs(rng.normal(size=30)) * (rng.random(30) < 0.4)
                for _ in range(int(rng.integers(2, 9)))]
        rows = [np.clip(r, 0.0, 1.0) for r in rows]
        clusters = cluster_instances(_loss_rows(rows), 0.25)
        assert clusters == _transitive_closure_oracle(rows, 0.25)


def test_long_shuffled_chains_are_one_cluster_each(rng):
    # windows of width 3 shifted by one are linked only to their
    # neighbours (Tanimoto 1/2 against 1/5 at a shift of two): two chains
    # of 40 listed in random order take many label passes
    rows = np.zeros((80, 90))
    for i in range(80):
        start = i if i < 40 else i + 5
        rows[i, start:start + 3] = 1.0
    order = rng.permutation(80)
    clusters = cluster_instances(_loss_rows(rows[order]), 0.25)
    first = tuple(np.sort(np.flatnonzero(order < 40)).tolist())
    second = tuple(np.sort(np.flatnonzero(order >= 40)).tolist())
    assert clusters == sorted([first, second])


def test_partition_invariant_to_permutation(rng):
    rows = np.abs(rng.normal(size=(6, 20))) * (rng.random((6, 20)) < 0.5)
    rows = np.clip(rows, 0.0, 1.0)
    base = {frozenset(c) for c in cluster_instances(_loss_rows(rows), 0.3)}
    perm = rng.permutation(6)
    permuted = cluster_instances(_loss_rows(rows[perm]), 0.3)
    # position k in the permuted input is original index perm[k]
    back = {frozenset(int(perm[m]) for m in c) for c in permuted}
    assert back == base


# ---------------------------------------------------------------------------
# representatives: the engine keeps per cluster its member of best quality

def test_singleton_representative():
    rows = np.ones((1, 30))
    rows[0, :5] = 0.0
    assert consolidate_fixed(rows) == [0]


def test_two_member_quality_argmax():
    # supports of 20 and 30 points, the first inside the second: similarity
    # 2/3 links them, and the qualities are 20 and 30
    rows = np.ones((2, 60))
    rows[0, :20] = rows[1, :30] = 0.0
    assert cluster_instances(rows, 0.2) == [(0, 1)]
    assert consolidate_fixed(rows) == [1]


def test_representatives_match_argmax_oracle(rng):
    # four clusters on disjoint supports of 15 points, their members
    # shuffled through the stack; in every other trial, losses in steps of
    # 1/8 make equal qualities common, and a tie goes to the lowest index
    n, per = 60, 5
    for trial in range(40):
        group = rng.permutation(np.repeat(np.arange(4), per))
        rows = np.ones((len(group), n))
        for i, g in enumerate(group):
            losses = rng.uniform(0.0, 0.3, 15)
            rows[i, 15 * g:15 * g + 15] = (np.floor(losses * 8.0) / 8.0
                                           if trial % 2 else losses)
        clusters = cluster_instances(rows, 0.2)
        assert sorted(clusters) == sorted(
            tuple(np.flatnonzero(group == g).tolist()) for g in range(4))
        q = [quality_f_from_losses(row, np.ones(n)) for row in rows]
        want = [max(c, key=lambda i: (q[i], -i)) for c in clusters]
        assert consolidate_fixed(rows) == want
        assert all(q[w] == max(q[i] for i in c)
                   for w, c in zip(want, clusters))
