import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

from mmfit.errors import ExhaustedData, InvalidConfig
from mmfit.models import PointSet
from mmfit.sampling import (
    CCSamplerState,
    NeighborhoodGraph,
    build_neighborhood,
    cc_can_sample,
    connected_components,
    next_sample_cc,
    next_sample_pnapsac,
    next_sample_prosac,
    next_sample_uniform,
)


def _ranked(coords):
    return PointSet(np.asarray(coords, dtype=float),
                    quality_rank=np.arange(len(coords)))


# ---------------------------------------------------------------------------
# neighborhood graph

@pytest.mark.parametrize("r_max", [0.0, -1.0])
def test_graph_rejects_nonpositive_radius(r_max):
    with pytest.raises(InvalidConfig):
        NeighborhoodGraph(PointSet(np.zeros((3, 2))), r_max)


@pytest.mark.parametrize("r_min, r_max, n_steps",
                         [(0.0, 10.0, 5), (20.0, 10.0, 5), (5.0, 10.0, 0)])
def test_cc_state_rejects_bad_schedule(r_min, r_max, n_steps):
    with pytest.raises(InvalidConfig):
        CCSamplerState(r_min, r_max, n_steps)


def test_collinear_points_single_edge():
    pts = PointSet(np.array([[0.0, 0.0], [10.0, 0.0], [30.0, 0.0]]))
    g = build_neighborhood(pts, 15.0)
    assert list(zip(g.edges_i, g.edges_j)) == [(0, 1)]
    assert g.distances[0] == pytest.approx(10.0)


def test_empty_point_set_empty_graph():
    g = build_neighborhood(PointSet(np.zeros((0, 2))), 10.0)
    assert len(g) == 0


def test_graph_matches_bruteforce_pairs(rng):
    coords = rng.uniform(0, 100, size=(200, 2))
    r = 12.0
    g = build_neighborhood(PointSet(coords), r)
    got = set(zip(g.edges_i.tolist(), g.edges_j.tolist()))
    expected = set()
    for i in range(200):
        for j in range(i + 1, 200):
            if np.linalg.norm(coords[i] - coords[j]) <= r:
                expected.add((i, j))
    assert got == expected


# ---------------------------------------------------------------------------
# connected components

class _OracleUnionFind:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, i):
        while self.p[i] != i:
            i = self.p[i]
        return i

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[ra] = rb


def _oracle_components(coords, r):
    uf = _OracleUnionFind(len(coords))
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            if np.linalg.norm(coords[i] - coords[j]) <= r:
                uf.union(i, j)
    groups = {}
    for i in range(len(coords)):
        groups.setdefault(uf.find(i), []).append(i)
    comps = [sorted(g) for g in groups.values() if len(g) >= 2]
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def test_components_trivial_cases():
    pts = PointSet(np.array([[0.0, 0.0], [10.0, 0.0], [30.0, 0.0]]))
    g = build_neighborhood(pts, 30.0)
    assert connected_components(g, 15.0) == [[0, 1]]
    assert connected_components(g, 0.0) == []


def test_components_match_union_find_oracle(rng):
    a = rng.normal([20, 20], 3.0, size=(20, 2))
    b = rng.normal([80, 80], 3.0, size=(20, 2))
    coords = np.vstack([a, b])
    g = build_neighborhood(PointSet(coords), 60.0)
    for r in (5.0, 12.0, 30.0, 60.0):
        assert connected_components(g, r) == _oracle_components(coords, r)


def test_components_sorted_largest_first(rng):
    coords = np.vstack([
        rng.normal([10, 10], 1.0, size=(8, 2)),
        rng.normal([50, 50], 1.0, size=(5, 2)),
        rng.normal([90, 90], 1.0, size=(3, 2)),
    ])
    g = build_neighborhood(PointSet(coords), 20.0)
    comps = connected_components(g, 10.0)
    sizes = [len(c) for c in comps]
    assert sizes == sorted(sizes, reverse=True)


# ---------------------------------------------------------------------------
# connected-component sampler

def _two_cluster_scene(rng, n1=40, n2=25):
    a = rng.normal([100, 100], 4.0, size=(n1, 2))
    b = rng.normal([800, 800], 4.0, size=(n2, 2))
    return PointSet(np.vstack([a, b]))


def test_cc_returns_clusters_largest_first(rng):
    points = _two_cluster_scene(rng)
    g = build_neighborhood(points, 200.0)
    state = CCSamplerState(20.0, 200.0, 5)
    gen = np.random.default_rng(0)
    first = next_sample_cc(state, g, points, 2, gen)
    second = next_sample_cc(state, g, points, 2, gen)
    assert sorted(first) == list(range(40))
    assert sorted(second) == list(range(40, 65))
    r_before = state.r
    next_sample_cc(state, g, points, 2, gen)
    assert state.r > r_before  # densification kicked in


def test_cc_single_cluster_of_exactly_m(rng):
    coords = np.array([[0.0, 0.0], [5.0, 0.0]])
    points = PointSet(coords)
    g = build_neighborhood(points, 50.0)
    state = CCSamplerState(10.0, 50.0, 3)
    assert next_sample_cc(state, g, points, 2, np.random.default_rng(0)) == [0, 1]


def test_cc_falls_back_to_prosac_when_no_components():
    coords = np.array([[0.0, 0.0], [500.0, 0.0], [0.0, 500.0], [500.0, 500.0]])
    points = PointSet(coords, quality_rank=np.arange(4))
    g = build_neighborhood(points, 50.0)
    state = CCSamplerState(10.0, 50.0, 4)
    sample = next_sample_cc(state, g, points, 2, np.random.default_rng(0))
    assert len(sample) == 2
    assert state.fallback_count == 1
    assert not cc_can_sample(state, g, 2)


def test_cc_unions_small_components(rng):
    # three pairs, no single component reaches m = 5
    coords = np.array([[0, 0], [1, 0], [50, 50], [51, 50], [100, 0], [101, 0.0]])
    points = PointSet(coords, quality_rank=np.arange(6))
    g = build_neighborhood(points, 200.0)
    state = CCSamplerState(5.0, 10.0, 2)
    sample = next_sample_cc(state, g, points, 5, np.random.default_rng(0))
    assert len(sample) == 6 and state.fallback_count == 0


def test_cc_grows_radius_until_pending_holds_m_points():
    # at r = 5 only the pair {0, 1} is connected: 2 pending points for m = 3
    points = PointSet(np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0],
                                [100.0, 0.0, 0.0], [108.0, 0.0, 0.0],
                                [116.0, 0.0, 0.0]]))
    g = build_neighborhood(points, 20.0)
    state = CCSamplerState(5.0, 20.0, 3)
    assert cc_can_sample(state, g, 3)
    assert state.r == 10.0
    assert next_sample_cc(state, g, points, 3, np.random.default_rng(0)) == [2, 3, 4]
    assert state.fallback_count == 0


def test_cc_deterministic_sequences(rng):
    points = _two_cluster_scene(rng)
    g = build_neighborhood(points, 200.0)
    seqs = []
    for _ in range(2):
        state = CCSamplerState(20.0, 200.0, 5)
        gen = np.random.default_rng(7)
        seqs.append([next_sample_cc(state, g, points, 2, gen)
                     for _ in range(6)])
    assert seqs[0] == seqs[1]


def test_cc_components_connected_at_current_radius(rng):
    points = PointSet(rng.uniform(0, 300, size=(60, 2)))
    g = build_neighborhood(points, 120.0)
    state = CCSamplerState(15.0, 120.0, 4)
    gen = np.random.default_rng(3)
    for _ in range(8):
        if not cc_can_sample(state, g, 2):
            break
        r_now = state.r
        sample = next_sample_cc(state, g, points, 2, gen)
        # BFS oracle on the sampled points at the radius in force
        coords = points.coords[sample]
        adj = np.linalg.norm(coords[:, None] - coords[None, :], axis=2) <= r_now
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in np.nonzero(adj[i])[0]:
                if j not in seen:
                    seen.add(int(j))
                    frontier.append(int(j))
        assert len(seen) == len(sample)


def test_cc_radius_never_decreases(rng):
    points = PointSet(rng.uniform(0, 500, size=(50, 2)))
    g = build_neighborhood(points, 100.0)
    state = CCSamplerState(10.0, 100.0, 5)
    gen = np.random.default_rng(0)
    radii = []
    for _ in range(30):
        next_sample_cc(state, g, points, 2, gen)
        radii.append(state.r)
        if not cc_can_sample(state, g, 2):
            break
    assert all(b >= a for a, b in zip(radii, radii[1:]))
    # densification rounds bounded by n_steps + 1
    assert len(set(radii)) <= 5 + 2


def test_cc_exhausted_data():
    points = PointSet(np.array([[0.0, 0.0]]))
    g = build_neighborhood(points, 10.0)
    state = CCSamplerState(5.0, 10.0, 2)
    with pytest.raises(ExhaustedData):
        next_sample_cc(state, g, points, 2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# PROSAC

def test_prosac_first_iteration_returns_top_m(rng):
    points = _ranked(rng.uniform(0, 100, size=(30, 2)))
    sample = next_sample_prosac(points, 3, 1, np.random.default_rng(0))
    assert sorted(sample) == [0, 1, 2]


def test_prosac_converges_to_uniform():
    rng = np.random.default_rng(5)
    points = _ranked(rng.uniform(0, 100, size=(10, 2)))
    counts = np.zeros((10, 10))
    draws = 100_000
    gen = np.random.default_rng(42)
    for i in range(draws):
        s = next_sample_prosac(points, 2, 10 ** 7 + i, gen)
        counts[min(s), max(s)] += 1
    observed = counts[np.triu_indices(10, k=1)]
    assert chisquare(observed).pvalue > 1e-4


def test_prosac_unranked_uniform(rng):
    points = PointSet(rng.uniform(0, 100, size=(20, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = next_sample_prosac(points, 2, 1, np.random.default_rng(0))
    assert len(set(sample)) == 2
    # the draw is the plain uniform choice of the same generator
    assert sample == np.random.default_rng(0).choice(20, 2, replace=False).tolist()


def test_prosac_exhausted(rng):
    points = _ranked(rng.uniform(0, 100, size=(3, 2)))
    with pytest.raises(ExhaustedData):
        next_sample_prosac(points, 4, 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# P-NAPSAC

def _two_far_clusters(rng):
    a = rng.normal([50, 50], 2.0, size=(25, 2))
    b = rng.normal([900, 900], 2.0, size=(25, 2))
    coords = np.vstack([a, b])
    return PointSet(coords, quality_rank=np.arange(50))


def test_pnapsac_early_iterations_stay_local(rng):
    points = _two_far_clusters(rng)
    g = build_neighborhood(points, 100.0, build_edges=False)
    gen = np.random.default_rng(0)
    same = 0
    draws = 10_000
    for i in range(draws):
        s = next_sample_pnapsac(points, 3, 1 + i % 5, g, gen)
        side = {int(idx >= 25) for idx in s}
        same += len(side) == 1
    assert same / draws > 0.9


def test_pnapsac_late_iterations_go_global(rng):
    points = _two_far_clusters(rng)
    g = build_neighborhood(points, 100.0, build_edges=False)
    gen = np.random.default_rng(0)
    crossing = 0
    draws = 100_000
    for _ in range(draws):
        s = next_sample_pnapsac(points, 2, 10 ** 6, g, gen)
        crossing += len({int(idx >= 25) for idx in s}) == 2
    assert crossing > 0


def test_pnapsac_single_point_equals_prosac(rng):
    points = _two_far_clusters(rng)
    g = build_neighborhood(points, 100.0, build_edges=False)
    for it in (1, 5, 200):
        a = next_sample_pnapsac(points, 1, it, g, np.random.default_rng(it))
        b = next_sample_prosac(points, 1, it, np.random.default_rng(it))
        assert a == b


def test_uniform_sampler_distinct(rng):
    points = PointSet(rng.uniform(0, 10, size=(6, 2)))
    s = next_sample_uniform(points, 4, np.random.default_rng(0))
    assert len(set(s)) == 4
