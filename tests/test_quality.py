import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfit.losses import LossFunction, LossKind
from mmfit.models import ModelType, PointSet, fit_minimal, residuals
from mmfit.quality import min_loss_outside_groups, quality_f_from_losses

from conftest import line_instance


def _scene(rng, n=30):
    return PointSet(rng.uniform(0.0, 100.0, size=(n, 2)))


def _random_line(rng):
    return fit_minimal(ModelType.LINE2D, rng.uniform(0, 100, size=(2, 2)))[0]


def _min_loss(kept, points, fn):
    """Per-point minimum loss over the kept instances, 1 when none."""
    out = np.ones(len(points))
    for h in kept:
        out = np.minimum(out, fn.losses(residuals(h, points.coords)))
    return out


def _quality_f(h, points, kept, fn):
    return quality_f_from_losses(fn.losses(residuals(h, points.coords)),
                                 _min_loss(kept, points, fn))


def _quality_rsc(h, points, kept, epsilon):
    """Oracle: inliers of h that no kept instance explains."""
    r = residuals(h, points.coords)
    r_kept = np.full(len(points), np.inf)
    for k in kept:
        r_kept = np.minimum(r_kept, residuals(k, points.coords))
    return int(np.sum((r < epsilon) & (r_kept >= epsilon)))


def _min_loss_outside_oracle(loss_rows, groups):
    """O(k^2 n) loop: per row, the minimum over the rows of other groups."""
    k, n = loss_rows.shape
    out = np.ones((k, n))
    for i in range(k):
        outside = [j for j in range(k) if groups[j] != groups[i]]
        if outside:
            out[i] = np.min(loss_rows[outside], axis=0)
    return out


def test_empty_active_set_is_plain_inlier_count(rng):
    points = _scene(rng)
    fn = LossFunction(LossKind.HARD01, 5.0)
    h = _random_line(rng)
    expected = int(np.sum(residuals(h, points.coords) < 5.0))
    assert _quality_f(h, points, [], fn) == float(expected)
    assert _quality_rsc(h, points, [], 5.0) == expected


def test_duplicate_of_kept_instance_scores_zero(rng):
    points = _scene(rng)
    fn = LossFunction(LossKind.HARD01, 5.0)
    h = _random_line(rng)
    assert _quality_rsc(h, points, [h], 5.0) == 0
    assert _quality_f(h, points, [h], fn) == pytest.approx(0.0, abs=1e-12)


def test_quality_rsc_matches_double_loop_oracle(rng):
    fn = LossFunction(LossKind.HARD01, 4.0)
    for _ in range(30):
        points = _scene(rng, 30)
        kept = [_random_line(rng), _random_line(rng)]
        h = _random_line(rng)
        # brute force: per point, min residual over kept instances
        count = 0
        for i in range(len(points)):
            p = points.coords[i]
            r_h = residuals(h, p[None])[0]
            r_kept = min(residuals(k, p[None])[0] for k in kept)
            if r_h < 4.0 and r_kept >= 4.0:
                count += 1
        assert _quality_rsc(h, points, kept, 4.0) == count
        assert _quality_f(h, points, kept, fn) == float(count)


def test_quality_f_equals_rsc_under_hard_loss(rng):
    fn = LossFunction(LossKind.HARD01, 3.0)
    for _ in range(50):
        points = _scene(rng, 40)
        kept = [_random_line(rng) for _ in range(int(rng.integers(0, 4)))]
        h = _random_line(rng)
        assert _quality_f(h, points, kept, fn) == float(
            _quality_rsc(h, points, kept, 3.0))


def test_quality_f_direct_summation_oracle(rng):
    fn = LossFunction(LossKind.MSAC, 6.0)
    points = _scene(rng, 20)
    kept = _random_line(rng)
    h = _random_line(rng)
    total = 0.0
    for i in range(len(points)):
        p = points.coords[i]
        f_h, f_kept = fn.losses([residuals(h, p[None])[0],
                                   residuals(kept, p[None])[0]])
        total += max(f_h, 1.0 - f_kept)
    assert _quality_f(h, points, [kept], fn) == pytest.approx(
        len(points) - total, abs=1e-12)


def test_perfect_inliers_against_empty_set():
    # k points exactly on the line, the rest far beyond the cutoff
    coords = np.vstack([
        np.column_stack([np.arange(5.0), np.zeros(5)]),
        np.column_stack([np.arange(8.0), np.full(8, 500.0)]),
    ])
    points = PointSet(coords)
    fn = LossFunction(LossKind.MSAC, 2.0)
    h = line_instance(0.0, 1.0, 0.0)
    assert _quality_f(h, points, [], fn) == pytest.approx(5.0, abs=1e-12)


def test_quality_f_bounds(rng):
    fn = LossFunction(LossKind.MAGSACPP, 4.0, dof=2)
    for _ in range(20):
        points = _scene(rng, 25)
        kept = [_random_line(rng)] if rng.random() < 0.5 else []
        q = _quality_f(_random_line(rng), points, kept, fn)
        assert 0.0 <= q <= len(points)


def test_monotone_penalty_when_active_grows(rng):
    fn = LossFunction(LossKind.MSAC, 5.0)
    for _ in range(20):
        points = _scene(rng, 30)
        h = _random_line(rng)
        kept = []
        prev = _quality_f(h, points, kept, fn)
        for _ in range(3):
            kept.append(_random_line(rng))
            cur = _quality_f(h, points, kept, fn)
            assert cur <= prev + 1e-12
            prev = cur


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6)),
                    min_size=1, max_size=12))
def test_cache_matches_full_recompute(ops):
    # a kept set grown and shrunk by the ops: the leave-one-out minimum from
    # per-point top-2 equals the minimum recomputed over the other rows
    rng = np.random.default_rng(99)
    points = PointSet(rng.uniform(0, 100, size=(25, 2)))
    fn = LossFunction(LossKind.MSAC, 5.0)
    kept = []
    for insert, seed in ops:
        local = np.random.default_rng(seed)
        if insert or not kept:
            kept.append(fit_minimal(ModelType.LINE2D,
                                    local.uniform(0, 100, size=(2, 2)))[0])
        else:
            kept.pop(int(local.integers(0, len(kept))))
        if not kept:
            continue
        rows = np.vstack([fn.losses(residuals(h, points.coords)) for h in kept])
        singletons = np.arange(len(kept))
        got = min_loss_outside_groups(rows, singletons)
        assert np.array_equal(got, _min_loss_outside_oracle(rows, singletons))
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1:]
            assert np.array_equal(got[i], _min_loss(others, points, fn))


def test_min_loss_outside_groups_matches_loop_oracle(rng):
    for _ in range(300):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 30))
        # coarse values so that ties between groups are common
        rows = rng.integers(0, 5, size=(k, n)) / 4.0
        groups = rng.permutation(np.arange(k) % int(rng.integers(1, k + 1)))
        _, groups = np.unique(groups, return_inverse=True)
        assert np.array_equal(min_loss_outside_groups(rows, groups),
                              _min_loss_outside_oracle(rows, groups))
