import itertools
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.stats import chisquare

from mmfit import sampling
from mmfit.engine import default_config, fit
from mmfit.errors import ExhaustedData
from mmfit.models import ModelType, PointSet
from mmfit.sampling import cc_schedule, draw_block


def _lexsort_orders(coords):
    """Brute-force neighbor orders, one row per point: every other point by
    its einsum squared distance to the centre, then by index (np.lexsort
    over the whole row, 256 centres at a time)."""
    n = len(coords)
    index = np.arange(n)
    rows = []
    for start in range(0, n, 256):
        centres = index[start:start + 256]
        diff = coords[None] - coords[centres, None]
        d = np.einsum("cij,cij->ci", diff, diff)
        order = np.lexsort((np.broadcast_to(index, d.shape), d), axis=-1)
        rows.append(order[order != centres[:, None]].reshape(-1, n - 1))
    return np.vstack(rows)


def _neighbor_sets():
    """The benchmark's pinned scenes and random 2D and 4D point sets."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    for name, workload in sorted(workloads.WORKLOADS.items()):
        for scene in workload.scenes(0):
            yield f"{name}-{scene.seed}", scene.points.coords
    rng = np.random.default_rng(11)
    for dim in (2, 4):
        yield f"random-{dim}d", rng.uniform(0.0, 1000.0, (600, dim))
        # integer grid coordinates: many exactly tied distances
        yield f"grid-{dim}d", rng.integers(0, 8, (400, dim)).astype(float)


@pytest.mark.parametrize("coords", [pytest.param(coords, id=name)
                                    for name, coords in _neighbor_sets()])
def test_neighbor_order_matches_einsum_oracle(coords):
    # every centre, 32 and 128 per call (RNG_BLOCK per distance pass), read
    # at every rank below the bounds 1, 5, 16, 100 and n - 1: the last
    # rank's distance ties with points left out on the grids
    n = len(coords)
    want = _lexsort_orders(coords)
    centres = np.random.default_rng(n).permutation(n)
    for k, size in itertools.product((1, 5, 16, 100, n - 1), (32, 128)):
        for start in range(0, n, size):
            chunk = centres[start:start + size]
            ranks = np.broadcast_to(np.arange(k), (len(chunk), k))
            got = sampling._neighbors(coords, chunk, ranks)
            assert np.array_equal(got, want[chunk, :k])


def test_neighbor_order_breaks_ties_beside_its_prefix_by_index():
    # around point 0, 15 points at distinct distances, then four at the
    # same distance: the first 16 ranks end with the first of the four, the
    # first 17 with the first two
    line = np.arange(16.0)
    ring = 16.0 * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
    far = np.column_stack([np.arange(20, 40.0), np.full(20, 30.0)])
    coords = np.vstack([np.column_stack([line, 0 * line]), ring, far])
    for seed in range(30):
        perm = np.random.default_rng(seed).permutation(len(coords))
        shuffled = coords[perm]
        centre = int(np.flatnonzero(perm == 0)[0])
        want = _lexsort_orders(shuffled)[centre]
        for k in (16, 17, 19):
            got, = sampling._neighbors(shuffled, np.array([centre]),
                                       np.arange(k)[None])
            assert np.array_equal(got, want[:k])


def _ranked(coords):
    return PointSet(np.asarray(coords, dtype=float),
                    quality_rank=np.arange(len(coords)))


def _free_list_oracle(sampler, points, orders, m, first, count, rng):
    """draw_block of at most RNG_BLOCK draws, from the same two generator
    calls, one draw at a time: rank j is entry floor(u_j (s - j)) of a
    Python list of the ranks not taken yet, looked up in a brute-force
    order: the centre's row of the neighbor orders (P-NAPSAC), the quality
    ranks sorted anew (PROSAC, the prosac and cc samplers on a ranked set
    while t <= T'_N; the pool's last point replaces the centre) or every
    point but the centre (uniform)."""
    n = len(points)
    centres = rng.integers(n, size=count).tolist()
    u = rng.random((count, m - 1))
    ranked = sampler in ("prosac", "cc") and points.quality_rank is not None
    if ranked:
        order = np.argsort(points.quality_rank, kind="stable")
        thresholds = sampling._prosac_schedule(n, m)
    samples = []
    for t, centre, row in zip(range(first, first + count), centres, u):
        if sampler == "pnapsac":
            s = min(n - 1, m - 1 + t // sampling.PNAPSAC_GROWTH_RATE)
            lookup = orders[centre]
        elif ranked and t <= thresholds[-1]:
            k = min(n, m + sum(x < t for x in thresholds))
            s, centre, lookup = k - 1, order[k - 1], order
        else:
            s, lookup = n - 1, [i for i in range(n) if i != centre]
        free = list(range(s))
        ranks = [free.pop(int(np.floor(x * (s - j))))
                 for j, x in enumerate(row)]
        samples.append([int(centre), *(int(lookup[r]) for r in ranks)])
    return np.array(samples, dtype=int).reshape(count, m)


# ---------------------------------------------------------------------------
# pairs within a radius

def _oracle_pairs(coords, r):
    """Every pair i < j at np.linalg.norm distance <= r, by brute force."""
    return {(i, j) for i in range(len(coords))
            for j in range(i + 1, len(coords))
            if np.linalg.norm(coords[i] - coords[j]) <= r}


def _queried_pairs(coords, r):
    """The pairs (i < j) the CC sampler finds within r between points all
    in components of their own."""
    a, b = sampling._pairs_within(coords, r, np.arange(len(coords)))
    return set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


def test_collinear_points_single_edge():
    coords = np.array([[0.0, 0.0], [10.0, 0.0], [30.0, 0.0]])
    assert _queried_pairs(coords, 15.0) == _oracle_pairs(coords, 15.0) \
        == {(0, 1)}
    assert _components(coords, 15.0) == [[0, 1]]


def test_empty_point_set_empty_graph(monkeypatch):
    queried = _spy_queries(monkeypatch)
    for n in (0, 1):
        coords = np.zeros((n, 2))
        assert _components(coords, 10.0) == []
        assert cc_schedule(coords, 1, [5.0, 7.5, 10.0]) == []
    assert queried == []


def test_graph_matches_bruteforce_pairs(rng):
    coords = rng.uniform(0, 100, size=(200, 2))
    for r in (3.0, 7.5, 12.0):
        assert _queried_pairs(coords, r) == _oracle_pairs(coords, r)


def test_pairs_join_by_the_trees_squared_distance():
    # the norm of the difference rounds to 1.0, its squared sum
    # 1.0000000000000002 does not: the pair is not within radius 1.0,
    # whether 1.0 is the largest radius or not
    coords = np.array([[0.5, 0.3], [1.1, 1.1]])
    diff = coords[0] - coords[1]
    assert np.linalg.norm(diff) == 1.0 and diff @ diff > 1.0
    for radii in ([1.0], [1.0, 2.0]):
        assert _queried_pairs(coords, 1.0) == set()
        assert cc_schedule(coords, 2, radii) == [[0, 1]] * (len(radii) > 1)


def test_pairs_join_across_cells_that_round_two_apart():
    # shifted by the least x, the pair's x coordinates fall exactly two
    # cells of side r apart, although its distance is within r
    r = 0.01994622767074023
    coords = np.array([[-23136.665615815367, 0.0], [-5758.21556426788, 0.0],
                       [-5758.195618040209, 0.0]])
    shifted = coords[1:, 0] - coords[0, 0]
    assert np.diff(shifted // r) == 2
    assert set(cKDTree(coords).query_pairs(r)) == {(1, 2)}
    assert _queried_pairs(coords, r) == {(1, 2)}
    assert _components(coords, r) == [[1, 2]]


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


def _oracle_components(coords, r, pairs=None):
    """Components of the brute-force pairs within r (or of the given pairs),
    by union-find. Singletons are excluded; components are sorted by size
    descending, ties by smallest member; members are sorted ascending."""
    uf = _OracleUnionFind(len(coords))
    for i, j in _oracle_pairs(coords, r) if pairs is None else pairs:
        uf.union(i, j)
    groups = {}
    for i in range(len(coords)):
        groups.setdefault(uf.find(i), []).append(i)
    comps = [sorted(g) for g in groups.values() if len(g) >= 2]
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def _components(coords, r):
    """The sampler's components at radius r, grown from no earlier radius."""
    [(_, comps)] = sampling._growing_components(coords, [r])
    return comps


def _spy_queries(monkeypatch):
    """The radii the CC sampler searches for pairs at, in call order."""
    queried = []
    search = sampling._pairs_within

    def recorded(coords, r, labels):
        queried.append(r)
        return search(coords, r, labels)

    monkeypatch.setattr(sampling, "_pairs_within", recorded)
    return queried


def _tree_oracle_sets():
    """Random 2D, 3D and 4D point sets with their ascending radii."""
    rng = np.random.default_rng(5)
    for dim in (2, 3, 4):
        coords = rng.uniform(0.0, 100.0, (300, dim))
        spacing = 100.0 * 300 ** (-1 / dim)
        yield f"uniform-{dim}d", coords, (spacing * np.array(
            [0.3, 0.6, 1.0, 1.5, 3.0])).tolist()
        # duplicated points: pairs at distance 0 in every cell
        dup = np.vstack([coords[:80], coords[:30], coords[:5]])
        yield f"duplicates-{dim}d", dup, [1e-9, 3.0, 8.0]
        # a lattice of step 0.5: its neighbours lie exactly r = 0.5 apart,
        # and radii that are multiples of the step tie many pairs
        lattice = 0.5 * rng.integers(0, 9, ({2: 40, 3: 150, 4: 600}[dim],
                                           dim)).astype(float)
        yield f"lattice-{dim}d", lattice, [0.5, 1.0, 1.5, 2.5]
        # a span of 1e12 with radii near 1e-3: cells of side span / 2^20,
        # far wider than the radius, each holding whole clusters
        centres = rng.uniform(0.0, 1e12, (12, dim))
        centres[0] = 0.0
        centres[1, :2] = 1e12
        huge = (centres[:, None] + rng.uniform(0.0, 4e-3, (12, 15, dim))
                ).reshape(-1, dim)
        yield f"span-1e12-{dim}d", huge, [5e-4, 1e-3, 2e-3, 1e4]


@pytest.mark.parametrize("coords, radii", [
    pytest.param(coords, radii, id=name)
    for name, coords, radii in _tree_oracle_sets()])
def test_components_match_kd_tree_oracle(coords, radii):
    got = list(sampling._growing_components(coords, radii))
    assert [r for r, _ in got] == radii
    for r, comps in got:
        assert comps == _oracle_components(coords, r,
                                           cKDTree(coords).query_pairs(r))
    # at the first radius some points are joined and some apart
    assert got[0][1] and len(got[0][1][0]) < len(coords)


def test_components_trivial_cases():
    coords = np.array([[0.0, 0.0], [10.0, 0.0], [30.0, 0.0]])
    assert _components(coords, 15.0) == _oracle_components(coords, 15.0) \
        == [[0, 1]]
    assert _components(coords, 0.0) == _oracle_components(coords, 0.0) == []


def test_components_match_union_find_oracle(rng):
    a = rng.normal([20, 20], 3.0, size=(20, 2))
    b = rng.normal([80, 80], 3.0, size=(20, 2))
    coords = np.vstack([a, b])
    radii = [5.0, 12.0, 30.0, 60.0]
    for r in radii:
        assert _components(coords, r) == _oracle_components(coords, r)
    for r, comps in sampling._growing_components(coords, radii):
        assert comps == _oracle_components(coords, r)


def test_components_sorted_largest_first(rng):
    coords = np.vstack([
        rng.normal([10, 10], 1.0, size=(8, 2)),
        rng.normal([50, 50], 1.0, size=(5, 2)),
        rng.normal([90, 90], 1.0, size=(3, 2)),
    ])
    comps = _components(coords, 10.0)
    sizes = [len(c) for c in comps]
    assert sizes == sorted(sizes, reverse=True) == [8, 5, 3]
    assert comps == _oracle_components(coords, 10.0)


# ---------------------------------------------------------------------------
# connected-component sampler

def _two_cluster_scene(rng, n1=40, n2=25):
    a = rng.normal([100, 100], 4.0, size=(n1, 2))
    b = rng.normal([800, 800], 4.0, size=(n2, 2))
    return PointSet(np.vstack([a, b]))


# the engine's CC radii at epsilon = 3
_PIXEL_RADII = [20.0, 56.0, 92.0, 128.0, 164.0, 200.0]


def _served(monkeypatch, coords, m, radii):
    """The schedule of the ascending radii, the radius each sample was
    served at and the radii whose components were built. A sample is served at the first radius,
    no smaller than its predecessor's, at which it is a union of whole
    components not served before at that radius."""
    built = []
    grow = sampling._growing_components

    def recorded(coords, radii):
        for r, comps in grow(coords, radii):
            built.append((r, [set(c) for c in comps]))
            yield r, comps

    monkeypatch.setattr(sampling, "_growing_components", recorded)
    schedule = cc_schedule(coords, m, radii)
    radii, j, served = [], 0, set()
    for sample in schedule:
        members = set(sample)
        while True:
            parts = {k for k, c in enumerate(built[j][1])
                     if c <= members and k not in served}
            if parts and members == set().union(
                    *[built[j][1][k] for k in parts]):
                break
            j, served = j + 1, set()
        served |= parts
        radii.append(built[j][0])
    return schedule, radii, [r for r, _ in built]


def test_cc_returns_clusters_largest_first(rng, monkeypatch):
    points = _two_cluster_scene(rng)
    schedule, radii, _ = _served(monkeypatch, points.coords, 2, _PIXEL_RADII)
    assert schedule[0] == list(range(40))
    assert schedule[1] == list(range(40, 65))
    assert radii[2] > radii[1]  # densification kicked in


def test_cc_single_cluster_of_exactly_m(rng):
    coords = np.array([[0.0, 0.0], [5.0, 0.0]])
    points = PointSet(coords)
    assert cc_schedule(points.coords, 2, [10.0, 50.0])[0] == [0, 1]


def test_cc_falls_back_to_prosac_when_no_components():
    coords = np.array([[0.0, 0.0], [500.0, 0.0], [0.0, 500.0], [500.0, 500.0]])
    points = PointSet(coords, quality_rank=np.arange(4))
    assert cc_schedule(points.coords, 2, [10.0, 30.0, 50.0]) == []
    # after the schedule the engine draws PROSAC blocks, numbering the
    # fallback draws from 1
    for first, count in [(1, 32), (33, 7)]:
        got = draw_block("cc", points, 2, first, count,
                         np.random.default_rng(first))
        assert np.array_equal(got, draw_block(
            "prosac", points, 2, first, count,
            np.random.default_rng(first)))
        assert np.array_equal(got, _free_list_oracle(
            "prosac", points, None, 2, first, count,
            np.random.default_rng(first)))


def test_cc_unions_small_components(rng):
    # three pairs, no single component reaches m = 5
    coords = np.array([[0, 0], [1, 0], [50, 50], [51, 50], [100, 0], [101, 0.0]])
    points = PointSet(coords, quality_rank=np.arange(6))
    assert cc_schedule(points.coords, 5, [5.0, 7.5, 10.0])[0] == list(range(6))


def test_cc_grows_radius_until_pending_holds_m_points(monkeypatch):
    # at r = 5 only the pair {0, 1} is connected: 2 pending points for m = 3
    points = PointSet(np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0],
                                [100.0, 0.0, 0.0], [108.0, 0.0, 0.0],
                                [116.0, 0.0, 0.0]]))
    schedule, radii, built = _served(monkeypatch, points.coords, 3,
                                     [5.0, 10.0, 15.0, 20.0])
    assert built[:2] == [5.0, 10.0]
    assert schedule[0] == [2, 3, 4] and radii[0] == 10.0


def test_cc_deterministic_sequences(rng):
    points = _two_cluster_scene(rng)
    seqs = [cc_schedule(points.coords, 2, _PIXEL_RADII)
            for _ in range(2)]
    assert len(seqs[0]) >= 6 and seqs[0] == seqs[1]


def test_cc_components_connected_at_current_radius(rng, monkeypatch):
    points = PointSet(rng.uniform(0, 300, size=(60, 2)))
    schedule, radii, _ = _served(monkeypatch, points.coords, 2,
                                 [15.0, 41.25, 67.5, 93.75, 120.0])
    assert len(schedule) >= 8
    for sample, r_now in zip(schedule[:8], radii):
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


def test_cc_radius_never_decreases(rng, monkeypatch):
    points = PointSet(rng.uniform(0, 500, size=(50, 2)))
    schedule_radii = [10.0, 28.0, 46.0, 64.0, 82.0, 100.0]
    _, radii, _ = _served(monkeypatch, points.coords, 2, schedule_radii)
    assert len(set(radii)) >= 2
    assert all(b >= a for a, b in zip(radii, radii[1:]))
    assert set(radii) <= set(schedule_radii)


@pytest.mark.parametrize("r_min, r_max, n_steps", [
    (7.0, 30.0, 3), (10.0, 100.0, 5), (0.3, 1.0, 7), (12.5, 12.5, 4)])
def test_cc_schedule_builds_each_radius_once(monkeypatch, r_min, r_max,
                                             n_steps):
    # the distinct radii of n_steps equal steps from r_min to r_max
    radii = np.unique(np.linspace(r_min, r_max, n_steps + 1)).tolist()
    points = PointSet(np.random.default_rng(1).uniform(0, 40, size=(30, 2)))
    # more points than the set holds: the whole schedule gets spent
    schedule, _, built = _served(monkeypatch, points.coords, 31, radii)
    assert schedule == []
    assert built == radii


def test_cc_exhausted_data():
    points = PointSet(np.array([[0.0, 0.0]]))
    assert cc_schedule(points.coords, 2, [5.0, 7.5, 10.0]) == []
    with pytest.raises(ExhaustedData):
        draw_block("cc", points, 2, 1, 32, np.random.default_rng(0))


def _cc_schedule_oracle(coords, m, radii):
    """cc_schedule with the components of the brute-force pairs built from
    scratch at each radius."""
    samples = []
    for r in radii:
        pending = _oracle_components(coords, r)
        left = sum(map(len, pending))
        while left >= m:
            sample = []
            while len(sample) < m:
                sample.extend(pending.pop(0))
            left -= len(sample)
            samples.append(sorted(sample))
    return samples


def _clusters(dim, n_clusters=6, size=15, spread=4.0, extent=200.0, seed=3):
    rng = np.random.default_rng(seed + dim)
    centres = rng.uniform(0, extent, size=(n_clusters, dim))
    clustered = (centres[:, None] + rng.normal(0, spread, (n_clusters, size, dim))
                 ).reshape(-1, dim)
    return np.vstack([clustered, rng.uniform(0, extent, size=(40, dim))])


def _with_duplicates():
    coords = _clusters(2, n_clusters=3, size=6)
    return np.vstack([coords, coords[::4], coords[:3]])


_SCHEDULE_CASES = {
    "2d-m2": (_clusters(2), 2, np.linspace(5.0, 60.0, 6).tolist()),
    "3d-m3": (_clusters(3), 3, np.linspace(6.0, 50.0, 5).tolist()),
    "4d-m7": (_clusters(4), 7, np.linspace(8.0, 80.0, 7).tolist()),
    "2d-m7-one-radius": (_clusters(2), 7, [12.0]),
    "duplicates-m2": (_with_duplicates(), 2, np.linspace(2.0, 30.0, 4).tolist()),
    "duplicates-m3": (_with_duplicates(), 3, [0.5]),
}


@pytest.mark.parametrize("coords, m, radii", _SCHEDULE_CASES.values(),
                         ids=_SCHEDULE_CASES.keys())
def test_cc_schedule_matches_per_radius_oracle(coords, m, radii):
    schedule = cc_schedule(coords, m, radii)
    assert schedule
    assert schedule == _cc_schedule_oracle(coords, m, radii)


_GRID = 5.0 * np.stack(np.meshgrid(np.arange(5), np.arange(5)),
                      -1).reshape(-1, 2)
_GRID_RADII = [2.5, 5.0, 7.5, 10.0]


def test_cc_schedule_joins_edges_at_their_radius(monkeypatch):
    # a 5 x 5 grid of spacing 5 beside a far pair: every grid edge sits
    # exactly at the schedule radius 5.0 and must join there
    coords = np.vstack([_GRID, [[500.0, 500.0], [502.0, 500.0]]])
    pairs = _oracle_pairs(coords, 5.0)
    assert sum(np.linalg.norm(coords[i] - coords[j]) == 5.0
               for i, j in pairs) == 40
    assert _queried_pairs(coords, 5.0) == pairs
    schedule, radii, built = _served(monkeypatch, coords, 2, _GRID_RADII)
    assert built == _GRID_RADII
    assert schedule[:2] == [[25, 26], list(range(25))]
    assert radii[:2] == [2.5, 5.0]
    assert schedule == _cc_schedule_oracle(coords, 2, _GRID_RADII)


@pytest.mark.parametrize("coords, queried_radii", [
    pytest.param(_GRID, [2.5, 5.0], id="one-component-from-5"),
    pytest.param(np.vstack([_GRID, [[500.0, 500.0]]]), _GRID_RADII,
                 id="isolated-far-point"),
])
def test_cc_schedule_stops_querying_at_one_component(monkeypatch, coords,
                                                     queried_radii):
    # the grid is one component from 5.0 on; a far point keeps it from
    # holding every point
    queried = _spy_queries(monkeypatch)
    schedule = cc_schedule(coords, 2, _GRID_RADII)
    assert queried == queried_radii
    assert schedule == [list(range(25))] * 3
    assert schedule == _cc_schedule_oracle(coords, 2, _GRID_RADII)


@st.composite
def _grid_schedules(draw):
    """Points on a grid of a power-of-two step, some duplicated, and
    ascending schedule radii that are multiples of the step: distances and
    radii are exact, so pairs tie at schedule radii."""
    dim = draw(st.sampled_from([2, 3, 4]))
    step = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    cells = draw(st.lists(st.lists(st.integers(0, 6), min_size=dim,
                                   max_size=dim), max_size=24))
    coords = step * np.array(cells, dtype=float).reshape(-1, dim)
    if len(coords):
        coords = coords[draw(st.lists(st.integers(0, len(coords) - 1),
                                      max_size=6)) + list(range(len(coords)))]
    multiples = draw(st.lists(st.integers(1, 16), min_size=1, max_size=6))
    radii = (step * np.unique(multiples)).tolist()
    return coords, draw(st.integers(1, 8)), radii


@settings(max_examples=200, deadline=None)
@given(_grid_schedules())
@example((np.zeros((0, 2)), 1, [1.0, 2.0]))
@example((np.zeros((1, 3)), 1, [1.0, 2.0]))
@example((np.array([[0.0, 0, 0, 0], [1, 1, 1, 1]]), 2, [1.0, 2.0, 3.0]))
@example((np.array([[1.0, 2.0], [1.0, 2.0]]), 2, [0.5]))
def test_cc_schedule_matches_bruteforce_oracle_on_grids(case):
    coords, m, radii = case
    with pytest.MonkeyPatch.context() as mp:
        queried = _spy_queries(mp)
        schedule = cc_schedule(coords, m, radii)
    assert schedule == _cc_schedule_oracle(coords, m, radii)
    # the pairs are searched at each radius until one component holds every
    # point, and never for fewer than two points
    want = []
    if len(coords) >= 2:
        for r in radii:
            want.append(r)
            if _oracle_components(coords, r) == [list(range(len(coords)))]:
                break
    assert queried == want


# ---------------------------------------------------------------------------
# Uniform and PROSAC draws

def test_prosac_first_iteration_returns_top_m(rng):
    points = _ranked(rng.uniform(0, 100, size=(30, 2)))
    sample = draw_block("prosac", points, 3, 1, 1,
                        np.random.default_rng(0))[0]
    assert sorted(sample.tolist()) == [0, 1, 2]


def test_prosac_converges_to_uniform():
    rng = np.random.default_rng(5)
    points = _ranked(rng.uniform(0, 100, size=(10, 2)))
    counts = np.zeros((10, 10))
    draws = 100_000
    block = draw_block("prosac", points, 2, 10 ** 7, draws,
                       np.random.default_rng(42))
    np.add.at(counts, (block.min(1), block.max(1)), 1)
    observed = counts[np.triu_indices(10, k=1)]
    assert chisquare(observed).pvalue > 1e-4


def test_prosac_unranked_uniform(rng):
    points = PointSet(rng.uniform(0, 100, size=(20, 2)))
    got, want = np.random.default_rng(0), np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = draw_block("prosac", points, 2, 1, 32, got)
    assert all(len(set(row)) == 2 for row in block.tolist())
    # the draws are the uniform sampler's from the same generator
    assert np.array_equal(
        block, _free_list_oracle("uniform", points, None, 2, 1, 32, want))
    assert got.bit_generator.state == want.bit_generator.state


def test_ranked_order_is_fixed_once(rng):
    # ranks with ties, so that only a stable order matches
    rank = rng.integers(0, 8, size=40)
    points = PointSet(rng.uniform(0, 100, size=(40, 2)), quality_rank=rank)
    assert np.array_equal(points.ranked_order, np.argsort(rank, kind="stable"))
    with pytest.raises(ValueError):
        points.ranked_order[0] = 1
    unranked = PointSet(points.coords)
    assert unranked.ranked_order is None
    for m in (1, 2, 4):
        for it in [1, 2, 3, 7, 50, 400, 5000, 10 ** 7]:
            got = draw_block("prosac", points, m, it, 4,
                             np.random.default_rng(it))
            want = _free_list_oracle("prosac", points, None, m, it, 4,
                                     np.random.default_rng(it))
            assert np.array_equal(got, want)
    # the ranking does not move a P-NAPSAC fit
    cfg = default_config(ModelType.LINE2D, 3.0, max_proposals=100)
    assert fit(points, ModelType.LINE2D, cfg).to_dict() == \
        fit(unranked, ModelType.LINE2D, cfg).to_dict()


@pytest.mark.parametrize("m", [1, 2, 4, 7])
def test_draws_match_choice_oracle(m):
    # uniform and PROSAC blocks, ranked and not, from draw 1, across the
    # end of the growth budget T'_N and late, against the free-list oracle:
    # the same values and two generator calls a block
    coords = np.random.default_rng(7).uniform(0, 100, size=(40, 2))
    ranked, unranked = _ranked(coords), PointSet(coords)
    got, want = np.random.default_rng(m), np.random.default_rng(m)
    budget = int(sampling._prosac_schedule(40, m)[-1])
    blocks = [(f, 32) for f in range(1, 400, 32)] + [
        (budget - 16, 32), (budget + 1, 5), (10 ** 7, 32)]
    for sampler, points in [("uniform", unranked), ("uniform", ranked),
                            ("prosac", ranked), ("prosac", unranked),
                            ("cc", ranked)]:
        for first, count in blocks:
            block = draw_block(sampler, points, m, first, count, got)
            assert block.shape == (count, m)
            assert all(len(set(row)) == m for row in block.tolist())
            assert np.array_equal(block, _free_list_oracle(
                sampler, points, None, m, first, count, want))
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("sampler, ranked, m", [
    ("uniform", False, 3), ("prosac", True, 3), ("pnapsac", False, 4)],
    ids=["uniform", "prosac-across-budget", "pnapsac"])
def test_block_equals_its_rng_chunks(sampler, ranked, m):
    # a 100-draw block equals its 32 + 32 + 32 + 4 chunks drawn one call
    # each from an equally seeded generator; the PROSAC block runs across
    # the end of the growth budget T'_N, the P-NAPSAC one reads the
    # neighbors of more than RNG_BLOCK centres
    coords = np.random.default_rng(9).uniform(0, 100, (150, 2))
    points = _ranked(coords) if ranked else PointSet(coords)
    first = int(sampling._prosac_schedule(150, m)[-1]) - 50 if ranked else 1
    got, want = np.random.default_rng(m), np.random.default_rng(m)
    block = draw_block(sampler, points, m, first, 100, got)
    starts = range(0, 100, sampling.RNG_BLOCK)
    sizes = [min(sampling.RNG_BLOCK, 100 - a) for a in starts]
    assert sizes == [32, 32, 32, 4]
    chunks = [draw_block(sampler, points, m, first + a, c, want)
              for a, c in zip(starts, sizes)]
    assert np.array_equal(block, np.vstack(chunks))
    assert got.bit_generator.state == want.bit_generator.state
    if sampler == "pnapsac":
        assert len(np.unique(block[:, 0])) > sampling.RNG_BLOCK


def test_prosac_draws_from_its_growing_pool():
    # every draw t <= T'_N: the centre is the pool's last point, the
    # others lie in the pool before it
    n, m = 12, 3
    points = PointSet(np.random.default_rng(1).uniform(0, 100, (n, 2)),
                      quality_rank=np.random.default_rng(2).permutation(n))
    thresholds = np.array(sampling._prosac_schedule(n, m))
    t = np.arange(1, int(thresholds[-1]) + 1)
    block = draw_block("prosac", points, m, 1, len(t),
                       np.random.default_rng(0))
    k = np.minimum(n, m + (thresholds < t[:, None]).sum(axis=1))
    order = points.ranked_order
    assert np.array_equal(block[:, 0], order[k - 1])
    position = np.argsort(order)   # of each point in the ranked order
    assert np.all(position[block[:, 1:]] < (k - 1)[:, None])
    assert all(len(set(row)) == m for row in block[::97].tolist())
    # the pool grows through every size
    assert set(k.tolist()) == set(range(m, n + 1))


def test_uniform_pairs_are_equally_likely():
    points = PointSet(np.random.default_rng(3).uniform(0, 100, (12, 2)))
    block = draw_block("uniform", points, 2, 1, 20_000,
                       np.random.default_rng(0))
    assert np.all(block[:, 0] != block[:, 1])
    counts = np.zeros((12, 12))
    np.add.at(counts, (block.min(1), block.max(1)), 1)
    observed = counts[np.triu_indices(12, k=1)]
    assert len(observed) == 66 and observed.min() > 0
    assert chisquare(observed).pvalue > 1e-4


def test_prosac_exhausted(rng):
    points = _ranked(rng.uniform(0, 100, size=(3, 2)))
    with pytest.raises(ExhaustedData):
        draw_block("prosac", points, 4, 1, 32, np.random.default_rng(0))


@pytest.mark.parametrize("sampler", ["uniform", "prosac", "pnapsac", "cc"])
def test_draw_block_needs_m_points(sampler):
    points = _ranked(np.zeros((2, 2)))
    with pytest.raises(ExhaustedData):
        draw_block(sampler, points, 3, 1, 32, np.random.default_rng(0))
    assert draw_block(sampler, points, 2, 1, 4,
                      np.random.default_rng(0)).shape == (4, 2)


# ---------------------------------------------------------------------------
# P-NAPSAC

def _two_far_clusters(rng):
    a = rng.normal([50, 50], 2.0, size=(25, 2))
    b = rng.normal([900, 900], 2.0, size=(25, 2))
    coords = np.vstack([a, b])
    return PointSet(coords, quality_rank=np.arange(50))


def _pnapsac(points, m, first, count, rng):
    return draw_block("pnapsac", points, m, first, count, rng)


_BLOCK_SCENES = {
    "random-2d": np.random.default_rng(2).uniform(0, 100, (40, 2)),
    "random-3d": np.random.default_rng(3).uniform(0, 100, (150, 3)),
    "random-4d": np.random.default_rng(4).uniform(0, 100, (120, 4)),
    "duplicates": _with_duplicates(),
    "seven-points": np.random.default_rng(7).uniform(0, 100, (7, 2)),
}


@pytest.mark.parametrize("m", [2, 3, 7])
@pytest.mark.parametrize("coords", _BLOCK_SCENES.values(),
                         ids=_BLOCK_SCENES.keys())
def test_pnapsac_block_matches_lexsort_oracle(coords, m):
    # RNG_BLOCK-draw chunks from draw 1 until the neighborhood is every
    # other point, a chunk cut short, and a late one
    n = len(coords)
    orders = _lexsort_orders(coords)
    points = PointSet(coords)
    got, want = np.random.default_rng(m), np.random.default_rng(m)
    firsts = list(range(1, sampling.PNAPSAC_GROWTH_RATE * n + 64, 32))
    for first, count in [(f, 32) for f in firsts] + [(10 ** 6, 7)]:
        block = draw_block("pnapsac", points, m, first, count, got)
        assert block.shape == (count, m)
        assert np.array_equal(block, _free_list_oracle(
            "pnapsac", points, orders, m, first, count, want))
        assert all(len(set(row)) == m for row in block.tolist())
    # two generator calls a block, as the oracle makes them
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("n, m", [(12, 3), (7, 4)])
def test_pnapsac_ranks_are_uniform(n, m):
    # every ordered choice of m - 1 distinct ranks of the s = n - 1 pool
    # is equally likely
    coords = np.random.default_rng(n).uniform(0, 100, (n, 2))
    block = _pnapsac(PointSet(coords), m, 10 ** 6, 30_000,
                     np.random.default_rng(0))
    position = np.zeros((n, n), dtype=int)   # of each point in each order
    np.put_along_axis(position, _lexsort_orders(coords), np.arange(n - 1),
                      axis=1)
    ranks = position[block[:, :1], block[:, 1:]]
    s = n - 1
    cells = np.ravel_multi_index(ranks.T, (s,) * (m - 1))
    counts = np.bincount(cells, minlength=s ** (m - 1))
    distinct = [len(set(r)) == m - 1
                for r in np.ndindex(*(s,) * (m - 1))]
    assert counts[~np.array(distinct)].sum() == 0
    assert chisquare(counts[np.array(distinct)]).pvalue > 1e-4


def test_pnapsac_block_reads_rng_block_distance_rows_at_a_time():
    # the distance rows of RNG_BLOCK centres per pass, none kept: a
    # 128-draw block peaks at what a 32-draw block does (a tenth more for
    # its samples; one pass over 128 rows would be 4x)
    points = PointSet(np.random.default_rng(5).uniform(0, 100, (3000, 4)))
    _pnapsac(points, 3, 200, 32, np.random.default_rng(0))
    peak = {}
    for count in (32, 128):
        tracemalloc.start()
        try:
            _pnapsac(points, 3, 200, count, np.random.default_rng(0))
            peak[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak[32] > 32 * 3000 * 8
    assert peak[128] <= 1.1 * peak[32]


def test_pnapsac_block_exhausted():
    with pytest.raises(ExhaustedData):
        _pnapsac(PointSet(np.zeros((2, 2))), 3, 1, 32,
                 np.random.default_rng(0))


def test_pnapsac_early_iterations_stay_local(rng):
    points = _two_far_clusters(rng)
    gen = np.random.default_rng(0)
    # draws 1 .. 8 pick from the two nearest neighbors
    block = np.vstack([draw_block("pnapsac", points, 3, 1, 8, gen)
                       for _ in range(1250)])
    same = np.all((block >= 25) == (block[:, :1] >= 25), axis=1)
    assert same.mean() > 0.9


def test_pnapsac_late_iterations_go_global(rng):
    block = _pnapsac(_two_far_clusters(rng), 2, 10 ** 6, 100_000,
                     np.random.default_rng(0))
    assert np.any((block[:, 0] >= 25) != (block[:, 1] >= 25))


def test_pnapsac_single_point_equals_uniform(rng, monkeypatch):
    # a one-point sample is its centre, rng.integers(n, size=count); the
    # zero-width rng.random call leaves the generator as it was, and no
    # neighbor is read
    monkeypatch.setattr(sampling, "_neighbors", None)
    points = _two_far_clusters(rng)
    for first, count in [(1, 32), (5, 7), (200, 1), (1, 3)]:
        got, want = np.random.default_rng(first), np.random.default_rng(first)
        block = draw_block("pnapsac", points, 1, first, count, got)
        assert np.array_equal(block, want.integers(50, size=count)[:, None])
        assert got.bit_generator.state == want.bit_generator.state


def test_uniform_sampler_distinct(rng):
    points = PointSet(rng.uniform(0, 10, size=(6, 2)))
    block = draw_block("uniform", points, 4, 1, 200,
                       np.random.default_rng(0))
    assert all(len(set(row)) == 4 for row in block.tolist())
    assert set(block.ravel().tolist()) == set(range(6))
