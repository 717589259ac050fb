"""Minimal-sample proposal: uniform, P-NAPSAC, and the connected-component
(CC) sampler.

draw_block draws the first two a block at a time by one kernel: a centre,
then distinct ranks below a bound of an order, namely every other point
(uniform), or the centre's neighbor order in a neighborhood growing with
the draw index (P-NAPSAC). No neighbor order is stored: each P-NAPSAC draw
reads the points at its ranks from its centre's distance row, so no state
but the rng's carries from one draw to the next. The CC sampler's samples
are the connected components at each radius of its schedule, ascending
multiples of the inlier threshold epsilon that the engine gives, largest
first, over the joint coordinate space (4D for correspondences). They
depend on the coordinates alone, so cc_schedule lists them all once per
fit, growing the components from one radius to the next with one grid pair
search per radius until one component holds every point. After the last
of them the engine draws uniform blocks over all points.
"""
from __future__ import annotations

import numpy as np

from .consensus import least_members
from .errors import ExhaustedData

# draws per pair of generator calls: a block of any size takes its centres
# and ranks in chunks of this many draws, so it draws what chunk-sized
# blocks would, and P-NAPSAC reads the distance rows of this many centres
# per pass
RNG_BLOCK = 32
# draws per extra neighbor in the P-NAPSAC neighborhood
PNAPSAC_GROWTH_RATE = 10


def _neighbors(coords: np.ndarray, centres: np.ndarray,
               ranks: np.ndarray) -> np.ndarray:
    """Per centre, the points at its row of ranks in its neighbor order:
    every other point by squared distance summed column by column, then by
    index. RNG_BLOCK centres per pass, no order kept, read and written by
    flat index: their distance rows are partitioned at the pass's largest
    rank and the top ordered by (distance, index); a row is sorted whole,
    stably, only when the top's last distance ties with a point outside it."""
    n = len(coords)
    columns = np.ascontiguousarray(coords.T)
    d = np.empty((min(RNG_BLOCK, len(centres)), n))
    step = np.empty_like(d)
    out = np.empty_like(ranks)
    for a in range(0, len(centres), RNG_BLOCK):
        chunk = slice(a, a + RNG_BLOCK)
        part = centres[chunk]
        dist, diff = d[:len(part)], step[:len(part)]
        dist[...] = columns[0]            # filled, then shifted: faster
        dist -= columns[0][part, None]    # than a broadcast np.subtract
        dist *= dist
        for column in columns[1:]:
            diff[...] = column
            diff -= column[part, None]
            diff *= diff
            dist += diff
        base = np.arange(len(part))[:, None]
        dist.ravel()[base[:, 0] * n + part] = np.inf
        k = int(ranks[chunk].max()) + 1
        top = np.argpartition(dist, k - 1)[:, :k]
        top = top.take(np.argsort(dist.take(top + base * n)) + base * k)
        near = dist.take(top + base * n)
        # tied distances within a top go by index
        tied = np.flatnonzero((near[:, 1:] == near[:, :-1]).any(1))
        by_index = np.sort(top[tied])
        top[tied] = by_index.take(base[:len(tied)] * k + np.argsort(
            dist.take(by_index + tied[:, None] * n), kind="stable"))
        beside = np.count_nonzero(dist <= near[:, -1:], 1) > k
        top[beside] = np.argsort(dist[beside], kind="stable")[:, :k]
        out[chunk] = top.take(ranks[chunk] + base * k)
    return out


def _pairs_within(coords: np.ndarray, r: float, labels: np.ndarray):
    """The pairs (a, b) of points within r, at squared distance summed
    column by column d^2 <= r * r (a KD-tree's test, not the norm's), whose
    labels differ. Candidates come from a grid over the first two
    coordinates whose cell side is at least r: per point, the later points
    of its cell with the cell above, then the three cells of the next
    column, two contiguous ranges of the points sorted by cell key. A range
    whose labels all equal the point's is skipped."""
    xy = coords[:, :2] - coords[:, :2].min(0)
    # a cell of at least span / 2^20 keeps the keys small; the margin
    # keeps pairs at exactly r within adjacent cells despite rounding
    side = max(r, xy.max() / 2**20) * (1 + 2**-20) or 1.0
    cells = (xy // side).astype(np.int64)
    width = int(cells[:, 1].max()) + 2   # an empty row between columns
    keys = cells[:, 0] * width + cells[:, 1]
    order = np.argsort(keys, kind="stable")
    keys, sorted_labels = keys[order], labels[order]
    n = len(keys)
    firsts = np.concatenate([np.arange(1, n + 1),
                             np.searchsorted(keys, keys + width - 1)])
    lasts = np.searchsorted(keys, np.concatenate([keys + 1, keys + width + 1]),
                            side="right")
    sources = np.tile(np.arange(n), 2)
    changes = np.flatnonzero(sorted_labels[1:] != sorted_labels[:-1]) + 1
    run_ends = np.append(changes, n)[np.searchsorted(changes, np.arange(n),
                                                     side="right")]
    head = np.minimum(firsts, n - 1)
    keep = (firsts < lasts) & ((sorted_labels[head] != sorted_labels[sources])
                               | (run_ends[head] < lasts))
    firsts, counts = firsts[keep], (lasts - firsts)[keep]
    a = np.repeat(sources[keep], counts)
    b = np.arange(len(a)) + np.repeat(firsts - np.cumsum(counts) + counts,
                                      counts)
    cross = sorted_labels[a] != sorted_labels[b]
    a, b = order[a[cross]], order[b[cross]]
    d = np.zeros(len(a))
    for column in coords.T:
        d += (column[a] - column[b]) ** 2
    near = d <= r * r
    return a[near], b[near]


def _growing_components(coords: np.ndarray, radii: list[float]):
    """(r, the components of the graph joining the pairs within r) for each
    r of the ascending radii: no singletons, size descending, ties by
    smallest member, members ascending. Components nest across radii
    (single linkage): each radius merges the labels, each point's least
    component member, along _pairs_within until one label covers every
    point, and the lists are rebuilt only when the labels change."""
    labels = np.arange(len(coords))
    comps = None
    for r in radii:
        if labels.any():   # else at most one component
            a, b = _pairs_within(coords, r, labels)
            if len(a):
                labels = least_members(len(labels), labels[a],
                                       labels[b])[labels]
                comps = None
        if comps is None:
            order = np.argsort(labels, kind="stable")   # members ascending
            sizes = np.bincount(labels, minlength=len(labels))
            starts = np.cumsum(sizes) - sizes
            big = np.flatnonzero(sizes >= 2)   # ascending, each its least member
            big = big[np.argsort(-sizes[big], kind="stable")]
            comps = [order[starts[c]:starts[c] + sizes[c]].tolist()
                     for c in big.tolist()]
        yield r, comps


def cc_schedule(coords: np.ndarray, m: int,
                radii: list[float]) -> list[list[int]]:
    """Every sample of the connected-component sampler, in serving order.

    Walks the ascending positive radii (the engine's are multiples of the
    inlier threshold epsilon), growing the components from one radius to
    the next. At each radius it takes that radius's components, largest
    first, until a sample holds m points (a union when the largest is
    smaller than m), and keeps doing so while the components left hold m
    points; then it moves to the next radius, whose components are all
    offered again, grown or not, including ones served unchanged before.
    """
    samples: list[list[int]] = []
    for _, comps in _growing_components(coords, radii):
        pending = iter(comps)
        left = sum(map(len, comps))
        while left >= m:
            sample: list[int] = []
            while len(sample) < m:
                sample.extend(next(pending))
            left -= len(sample)
            samples.append(sorted(sample))
    return samples


# ---------------------------------------------------------------------------
# Uniform and P-NAPSAC draws

def draw_block(sampler: str, coords: np.ndarray, m: int, first: int,
               count: int, rng: np.random.Generator) -> np.ndarray:
    """The (count, m) samples of the 1-based draws first onwards from the
    (n, dim) coordinates, from centres = rng.integers(n, size=c) and
    u = rng.random((c, m - 1)) per chunk of c = RNG_BLOCK draws (the last
    one shorter) whatever the sampler, so a block equals its chunks drawn
    one call each when it starts on a chunk. Draw t is its centre, then
    the points at ranks j < m - 1 of an order: the floor(u[:, j] (s - j))-th
    free rank < s. P-NAPSAC: s = min(n - 1, m - 1 + t // PNAPSAC_GROWTH_RATE)
    in the centre's neighbor order, read from the centre's distance row for
    this draw alone (_neighbors). Any other sampler draws uniformly:
    s = n - 1 over every point but the centre."""
    n = len(coords)
    if n < m:
        raise ExhaustedData(f"need at least {m} points")
    centres, u = np.empty(count, dtype=np.int64), np.empty((count, m - 1))
    for a in range(0, count, RNG_BLOCK):
        chunk = slice(a, min(a + RNG_BLOCK, count))
        centres[chunk] = rng.integers(n, size=chunk.stop - a)
        u[chunk] = rng.random((chunk.stop - a, m - 1))
    s = np.full(count, n - 1)
    if sampler == "pnapsac":
        t = np.arange(first, first + count)
        s = np.minimum(s, m - 1 + t // PNAPSAC_GROWTH_RATE)
    ranks = np.floor(u * (s[:, None] - np.arange(m - 1))).astype(int)
    for j in range(1, m - 1):   # skip the ranks taken before, ascending
        for taken in np.sort(ranks[:, :j], axis=1).T:
            ranks[:, j] += ranks[:, j] >= taken
    if sampler == "pnapsac" and m > 1:
        rest = _neighbors(coords, centres, ranks)
    else:
        rest = ranks + (ranks >= centres[:, None])   # every point but the centre
    return np.column_stack([centres, rest])
