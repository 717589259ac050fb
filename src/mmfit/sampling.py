"""Minimal-sample proposal: uniform, PROSAC, P-NAPSAC, and the
deterministic connected-component sampler.

The connected-component sampler builds a radius graph once at r_max over
the joint coordinate space (4D for correspondences) and serves connected
components of progressively densified subgraphs as samples, largest first.
When no component of sufficient size remains at any radius, it falls back
to PROSAC over all points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.sparse import coo_matrix, csgraph
from scipy.spatial import cKDTree

from .errors import ExhaustedData, InvalidConfig
from .models import PointSet

PROSAC_GROWTH_BUDGET = 200_000
# draws per extra neighbor in the P-NAPSAC neighborhood
PNAPSAC_GROWTH_RATE = 10


class NeighborhoodGraph:
    """Immutable radius-annotated edge list over a point set.

    Edges (i, j, d) with i < j hold every pair at Euclidean distance
    d <= r_max; subgraphs at any smaller radius are obtained by filtering.
    Pass build_edges=False for samplers that only need nearest-neighbor
    queries.
    """

    def __init__(self, points: PointSet, r_max: float, build_edges: bool = True):
        if r_max <= 0:
            raise InvalidConfig("r_max must be positive")
        self.n_points = len(points)
        self.r_max = float(r_max)
        self._coords = points.coords
        self._neighbor_order: dict[int, np.ndarray] = {}
        if build_edges and self.n_points >= 2:
            tree = cKDTree(points.coords)
            pairs = tree.query_pairs(self.r_max, output_type="ndarray")
            if len(pairs):
                pairs = np.sort(pairs, axis=1)
                order = np.lexsort((pairs[:, 1], pairs[:, 0]))
                pairs = pairs[order]
                d = np.linalg.norm(
                    points.coords[pairs[:, 0]] - points.coords[pairs[:, 1]], axis=1
                )
            else:
                pairs = np.zeros((0, 2), dtype=int)
                d = np.zeros(0)
        else:
            pairs = np.zeros((0, 2), dtype=int)
            d = np.zeros(0)
        self.edges_i = pairs[:, 0]
        self.edges_j = pairs[:, 1]
        self.distances = d
        for arr in (self.edges_i, self.edges_j, self.distances):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.distances)

    def nearest(self, index: int, k: int) -> np.ndarray:
        """Indices of the k nearest neighbors of a point (itself excluded),
        in increasing distance; prefixes are cached per point and regrown
        with headroom as larger neighborhoods get requested."""
        k = min(k, self.n_points - 1)
        order = self._neighbor_order.get(index)
        if order is None or len(order) < k:
            diff = self._coords - self._coords[index]
            d = np.einsum("ij,ij->i", diff, diff)
            d[index] = np.inf
            want = min(self.n_points - 1, max(2 * k, 16))
            top = np.argpartition(d, want - 1)[:want]
            order = top[np.lexsort((top, d[top]))]  # distance, then index
            self._neighbor_order[index] = order
        return order[:k]


def build_neighborhood(points: PointSet, r_max: float,
                       build_edges: bool = True) -> NeighborhoodGraph:
    """Radius graph over the joint coordinate space; exact, deterministic."""
    return NeighborhoodGraph(points, r_max, build_edges)


def connected_components(graph: NeighborhoodGraph, r: float) -> list[list[int]]:
    """Components of the subgraph with edges d <= r. Singletons are
    excluded; components are sorted by size descending, ties by smallest
    member; members are sorted ascending."""
    keep = graph.distances <= r
    n = graph.n_points
    adjacency = coo_matrix((np.ones(int(keep.sum())),
                            (graph.edges_i[keep], graph.edges_j[keep])),
                           shape=(n, n))
    _, labels = csgraph.connected_components(adjacency, directed=False)
    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    comps = [g for g in groups.values() if len(g) >= 2]
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


@dataclass
class CCSamplerState:
    """Mutable state of the connected-component sampler for one fit.
    pending is None until the first component list is built."""

    r_min: float
    r_max: float
    n_steps: int
    r: float = field(init=False)
    pending: list[list[int]] | None = field(init=False, default=None)
    fallback_count: int = field(init=False, default=0)

    def __post_init__(self):
        if self.r_min <= 0 or self.r_max < self.r_min:
            raise InvalidConfig("need 0 < r_min <= r_max")
        if self.n_steps < 1:
            raise InvalidConfig("n_steps must be >= 1")
        self.r = self.r_min


def cc_can_sample(state: CCSamplerState, graph: NeighborhoodGraph, m: int) -> bool:
    """Advance the densification schedule until the pending components hold
    at least m points in total or the radius is spent (at most n_steps + 2
    rounds). True when they hold m points, i.e. when the next call to
    next_sample_cc serves a component sample rather than falling back to
    PROSAC."""
    if state.pending is None:
        state.pending = connected_components(graph, state.r)
    step = (state.r_max - state.r_min) / state.n_steps
    rounds = 0
    while (sum(map(len, state.pending)) < m and state.r <= state.r_max
           and rounds <= state.n_steps + 1):
        state.r = state.r + step if step > 0 else state.r_max + 1.0
        state.pending = connected_components(graph, min(state.r, graph.r_max))
        rounds += 1
    return sum(map(len, state.pending)) >= m


def next_sample_cc(state: CCSamplerState, graph: NeighborhoodGraph,
                   points: PointSet, m: int,
                   rng: np.random.Generator) -> list[int]:
    """Next sample of the connected-component schedule.

    Returns the largest pending component at the current radius; if the
    largest is smaller than m, pops further components and returns their
    union. While the pending components hold fewer than m points in total
    and the radius has not passed r_max, the radius grows by
    (r_max - r_min) / n_steps and the component list is rebuilt (components
    served at a smaller radius are offered again once grown). Once the
    radius is spent, falls back to a PROSAC minimal sample over all points.
    """
    if len(points) < m:
        raise ExhaustedData(f"need at least {m} points")
    if not cc_can_sample(state, graph, m):
        state.fallback_count += 1
        return next_sample_prosac(points, m, state.fallback_count, rng)
    sample: list[int] = []
    while len(sample) < m:
        sample.extend(state.pending.pop(0))
    return sorted(sample)


# ---------------------------------------------------------------------------
# PROSAC

@lru_cache(maxsize=None)
def _prosac_schedule(n_points: int, m: int) -> tuple:
    """T'_n thresholds of the PROSAC growth function for n = m..n_points."""
    t_n = PROSAC_GROWTH_BUDGET
    for i in range(m):
        t_n *= (m - i) / (n_points - i)
    thresholds = [1.0]  # T'_m = 1
    t_prev = t_n
    for n in range(m + 1, n_points + 1):
        t_next = t_prev * n / (n - m)
        thresholds.append(thresholds[-1] + np.ceil(t_next - t_prev))
        t_prev = t_next
    return tuple(thresholds)


def _ranked_order(points: PointSet) -> np.ndarray | None:
    if points.quality_rank is None:
        return None
    return np.argsort(points.quality_rank, kind="stable")


def next_sample_prosac(points: PointSet, m: int, iteration: int,
                       rng: np.random.Generator) -> list[int]:
    """PROSAC sample of size m at the given 1-based iteration.

    The distinguished point of the growth schedule comes first in the
    returned list. Unranked point sets are sampled uniformly, as is every
    draw after the growth budget.
    """
    n = len(points)
    if n < m:
        raise ExhaustedData(f"need at least {m} points")
    order = _ranked_order(points)
    if order is None:
        return next_sample_uniform(points, m, rng)
    thresholds = _prosac_schedule(n, m)
    if iteration > thresholds[-1]:
        return next_sample_uniform(points, m, rng)
    subset = int(np.searchsorted(thresholds, iteration, side="left")) + m
    subset = min(subset, n)
    pivot = order[subset - 1]
    if m == 1:
        return [int(pivot)]
    rest = rng.choice(subset - 1, size=m - 1, replace=False)
    return [int(pivot)] + [int(order[i]) for i in rest]


def next_sample_pnapsac(points: PointSet, m: int, iteration: int,
                        graph: NeighborhoodGraph,
                        rng: np.random.Generator) -> list[int]:
    """P-NAPSAC sample: the first point follows the PROSAC rule, the rest
    are drawn from a neighborhood of it whose size grows with the
    iteration count until sampling is effectively global."""
    n = len(points)
    if n < m:
        raise ExhaustedData(f"need at least {m} points")
    center = next_sample_prosac(points, 1, iteration, rng)[0]
    if m == 1:
        return [center]
    size = min(n - 1, m - 1 + iteration // PNAPSAC_GROWTH_RATE)
    pool = graph.nearest(center, size)
    picked = rng.choice(len(pool), size=m - 1, replace=False)
    return [center] + [int(pool[i]) for i in picked]


def next_sample_uniform(points: PointSet, m: int,
                        rng: np.random.Generator) -> list[int]:
    n = len(points)
    if n < m:
        raise ExhaustedData(f"need at least {m} points")
    return [int(i) for i in rng.choice(n, size=m, replace=False)]
