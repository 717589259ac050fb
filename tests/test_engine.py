import json

from dataclasses import fields
from functools import partial
from itertools import accumulate, permutations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from mmfit import engine, models, sampling
from mmfit.consensus import cluster_instances, tanimoto_matrix
from mmfit.engine import (
    OUTLIER,
    EngineConfig,
    FitReport,
    _consolidate,
    contingency_table,
    default_config,
    fit,
    label_matching,
    min_residual_assignment,
    misclassification_error,
    refine_irls,
    should_terminate,
)
from mmfit.errors import (
    DegenerateSample,
    DimensionMismatch,
    ExhaustedData,
    InvalidConfig,
    LabelMismatch,
)
from mmfit.losses import LossFunction, LossKind
from mmfit.models import (
    ModelInstance,
    ModelType,
    PointSet,
    fit_minimal,
    fit_nonminimal,
    fundamental_planar_degenerate,
    make_instance,
    minimal_candidates,
    residuals,
)
from mmfit.ingest import SyntheticSpec, synthesize
from mmfit.quality import min_loss_outside_groups, quality_f_from_losses
from mmfit.sampling import cc_schedule, draw_block

from conftest import (
    consolidate_fixed,
    line_angle_offset,
    line_instance,
    oriented_epipolar_ok,
    sample_degenerate,
)


# ---------------------------------------------------------------------------
# IRLS refinement

def _line_scene(rng, n_in=60, n_out=0, sigma=0.0, gross=300.0):
    t = rng.uniform(0, 100, size=n_in)
    inliers = np.column_stack([t, 0.25 * t + 10.0])
    if sigma > 0:
        inliers = inliers + rng.normal(0, sigma, size=inliers.shape)
    pts = [inliers]
    if n_out:
        pts.append(np.column_stack([rng.uniform(0, 100, n_out),
                                    rng.uniform(gross, gross + 100, n_out)]))
    coords = np.vstack(pts)
    return PointSet(coords), n_in


def _refine_one(h, points, cfg):
    """refine_irls on a stack of one instance: the refined instance, its
    residual and loss rows and its info."""
    r = residuals(h, points.coords)
    (best,), (best_r,), (best_loss,), (info,) = refine_irls(
        h.model_type, h.params[None].copy(), r[None],
        cfg.loss.losses(r)[None], points, cfg)
    return ModelInstance(h.model_type, best), best_r, best_loss, info


def test_refine_exact_inliers_converges_fast(rng):
    points, n_in = _line_scene(rng)
    cfg = default_config(ModelType.LINE2D, 2.0, LossKind.MSAC)
    start = fit_minimal(ModelType.LINE2D,
                        points.coords[[0, n_in - 1]])[0]
    refined, _, _, info = _refine_one(start, points, cfg)
    assert info["iterations"] <= 2 and info["converged"]
    oracle = fit_nonminimal(ModelType.LINE2D, points.coords, np.ones(n_in))
    ang, off = line_angle_offset(refined, oracle)
    assert ang < 1e-9 and off < 1e-9


def test_refine_drops_gross_outliers(rng):
    points, n_in = _line_scene(rng, n_in=70, n_out=30, sigma=0.2)
    cfg = default_config(ModelType.LINE2D, 3.0, LossKind.MSAC)
    start = fit_minimal(ModelType.LINE2D, points.coords[[0, 40]])[0]
    w1 = cfg.loss.weights(residuals(start, points.coords))
    assert np.all(w1[n_in:] == 0.0)  # outliers zeroed on the first pass
    refined, _, _, _ = _refine_one(start, points, cfg)
    oracle = fit_nonminimal(ModelType.LINE2D, points.coords[:n_in],
                            np.ones(n_in))
    diff = min(np.linalg.norm(refined.params - s * oracle.params)
               for s in (1.0, -1.0))
    assert diff < 1e-6


def test_refine_loss_sums_non_increasing(rng):
    cfg = default_config(ModelType.LINE2D, 3.0)
    for case in range(100):
        local = np.random.default_rng(case)
        points, n_in = _line_scene(local, n_in=40, n_out=12, sigma=1.0)
        start = fit_minimal(
            ModelType.LINE2D,
            points.coords[local.choice(n_in, 2, replace=False)])[0]
        _, _, _, info = _refine_one(start, points, cfg)
        trace = np.array(info["loss_trace"])
        assert np.all(np.diff(trace) <= 1e-12)


def test_refine_degenerate_returns_input():
    # all points coincide: every weighted refit is rank deficient
    points = PointSet(np.tile([[5.0, 5.0]], (10, 1)))
    cfg = default_config(ModelType.LINE2D, 2.0, LossKind.MSAC)
    start = line_instance(0.0, 1.0, -5.0)
    out, out_r, _, info = _refine_one(start, points, cfg)
    assert info["degenerate"]
    assert out.params.tobytes() == start.params.tobytes()
    assert np.array_equal(out_r, residuals(start, points.coords))


def test_refine_returns_rows_of_the_returned_iterate():
    cfg = default_config(ModelType.LINE2D, 3.0)
    for case in range(20):
        local = np.random.default_rng(case)
        points, n_in = _line_scene(local, n_in=40, n_out=12, sigma=1.0)
        start = fit_minimal(
            ModelType.LINE2D,
            points.coords[local.choice(n_in, 2, replace=False)])[0]
        best, best_r, best_loss, _ = _refine_one(start, points, cfg)
        r = residuals(best, points.coords)
        assert np.array_equal(best_r, r)
        assert np.array_equal(best_loss, cfg.loss.losses(r))


def _refine_irls_per_instance(h, r, loss, points, cfg):
    """Oracle of refine_irls: IRLS from one instance at a time, through the
    K = 1 calls fit_nonminimal and residuals. Returns the best iterate and
    an info dict that also holds the best iterate's rows."""
    fn = cfg.loss
    total = float(np.sum(loss))
    info = {"iterations": 0, "degenerate": False, "converged": False,
            "loss_trace": [total], "residuals": r, "losses": loss}
    n = len(points)
    best, best_q, best_it = h, n - total, 0
    current = h
    for it in range(engine.IRLS_MAX_ITERS):
        w = fn.weights(r) * points.weights
        try:
            refined = fit_nonminimal(h.model_type, points, w)
        except DegenerateSample:
            info["degenerate"] = True
            break
        info["iterations"] = it + 1
        old, new = current.params, refined.params
        if old @ new < 0:
            new = -new
        delta = float(np.linalg.norm(new - old)) / max(
            float(np.linalg.norm(old)), 1e-300)
        current = refined
        r = residuals(current, points.coords)
        loss = fn.losses(r)
        total = float(np.sum(loss))
        info["loss_trace"].append(total)
        if n - total > best_q:
            best, best_q, best_it = current, n - total, it + 1
            info["residuals"], info["losses"] = r, loss
        if delta < engine.IRLS_TOL:
            info["converged"] = True
            break
    # restarted from its best iterate, the row would retrace the refits
    # after it: unchanged unless it stopped at the cap or its last refit
    # was its best
    info["fixed"] = best_it == 0 or info["degenerate"] or (
        info["converged"] and best_it < info["iterations"])
    return best, info


# per family, an instance that explains no point of the synthetic scenes:
# every IRLS weight is zero, so its first refit is degenerate
_FAR_AWAY = {
    ModelType.LINE2D: [0.0, 1.0, -1e6],
    ModelType.SEGMENT2D: [0.0, 1.0, -1e6, 0.0, 1.0],
    ModelType.PLANE3D: [0.0, 0.0, 1.0, -1e6],
    ModelType.HOMOGRAPHY: [1.0, 0.0, 1e6, 0.0, 1.0, 1e6, 0.0, 0.0, 1.0],
    ModelType.FUNDAMENTAL: [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 1e6],
}


@pytest.mark.parametrize("model_type", list(ModelType), ids=lambda t: t.value)
def test_stacked_refine_matches_per_instance_oracle(model_type):
    spec = SyntheticSpec(model_type, 3, 50, 40, 1.0, seed=4)
    points, labels, _ = synthesize(spec)
    cfg = default_config(model_type, 3.0)
    local = np.random.default_rng(4)
    samples = [local.choice(np.flatnonzero(labels == k), model_type.m,
                            replace=False)
               for k in (1, 2, 3) for _ in range(3)]
    starts, _ = minimal_candidates(model_type, points.coords[samples], 3.0)
    far = make_instance(model_type, _FAR_AWAY[model_type]).params
    i_far = len(starts) // 2
    starts = np.insert(starts, i_far, far, axis=0)
    R = np.stack([residuals(ModelInstance(model_type, p), points.coords)
                  for p in starts])
    L = cfg.loss.losses(R)
    P_io, R_io, L_io = starts.copy(), R.copy(), L.copy()
    best, best_r, best_loss, info = refine_irls(model_type, P_io, R_io, L_io,
                                                points, cfg)
    # stacks updated in place
    assert best is P_io and best_r is R_io and best_loss is L_io
    for i, p in enumerate(starts):
        h = ModelInstance(model_type, p)
        want, want_info = _refine_irls_per_instance(h, R[i].copy(),
                                                    L[i].copy(), points, cfg)
        # a row no refit improves comes back bit-equal
        assert (best[i].tobytes() == p.tobytes()) == (want is h)
        assert np.array_equal(best[i], want.params)
        assert np.array_equal(best_r[i], want_info.pop("residuals"))
        assert np.array_equal(best_loss[i], want_info.pop("losses"))
        assert info[i] == want_info
    # the stack mixes rows that leave it at different iterations with a
    # degenerate row that returns its input
    assert info[i_far]["degenerate"] and best[i_far].tobytes() == far.tobytes()
    live = [d["iterations"] for d in info if not d["degenerate"]]
    assert len(set(live)) > 1
    assert any(d["converged"] for d in info)


@pytest.mark.parametrize("kind", list(LossKind), ids=lambda k: k.value)
@pytest.mark.parametrize("model_type", [ModelType.LINE2D, ModelType.HOMOGRAPHY],
                         ids=lambda t: t.value)
def test_refine_support_losses_equal_dense_losses(monkeypatch, model_type,
                                                  kind):
    # refine_irls evaluates the loss on r < cutoff alone and sets the rest
    # to 1; its loss rows and every loss sum it traces must equal the dense
    # losses of the residual rows, and each row must follow the
    # per-instance oracle while rows leave the stack
    points, labels, _ = synthesize(SyntheticSpec(model_type, 3, 50, 40, 1.0,
                                                 seed=5))
    cfg = default_config(model_type, 3.0, kind)
    fn = cfg.loss
    local = np.random.default_rng(5)
    samples = [local.choice(np.flatnonzero(labels == k), model_type.m,
                            replace=False)
               for k in (1, 2, 3) for _ in range(3)]
    starts, _ = minimal_candidates(model_type, points.coords[samples], 3.0)
    R = np.stack([residuals(ModelInstance(model_type, p), points.coords)
                  for p in starts])
    stacks = []

    def recorded(*args):
        stacks.append(models._residuals(*args))
        return stacks[-1]

    monkeypatch.setattr(engine, "_residuals", recorded)
    best, best_r, best_loss, info = refine_irls(
        model_type, starts.copy(), R.copy(), fn.losses(R), points, cfg)
    assert np.array_equal(best_loss, fn.losses(best_r))
    traces = [d["loss_trace"] for d in info]
    assert [t[0] for t in traces] == fn.losses(R).sum(axis=1).tolist()
    # rows leave the stack at different iterations
    assert len({d["iterations"] for d in info}) > 1
    for it, stack in enumerate(stacks):
        # the rows still active at an iteration are stacked in row order
        assert ([t[it + 1] for t in traces if len(t) > it + 1]
                == fn.losses(stack).sum(axis=1).tolist())
    for i, p in enumerate(starts):
        want, want_info = _refine_irls_per_instance(
            ModelInstance(model_type, p), R[i].copy(), fn.losses(R[i]),
            points, cfg)
        assert np.array_equal(best[i], want.params)
        assert np.array_equal(best_r[i], want_info.pop("residuals"))
        assert np.array_equal(best_loss[i], want_info.pop("losses"))
        assert info[i] == want_info


# ---------------------------------------------------------------------------
# termination

def test_terminate_when_everything_explained():
    assert should_terminate(500, 500, 1, 2, 0.99, 20.0) is True


def test_terminate_in_the_iteration_limit():
    assert should_terminate(1000, 100, 10 ** 9, 4, 0.99, 20.0) is True


def test_not_terminated_early():
    assert should_terminate(1000, 400, 5, 4, 0.99, 20.0) is False


def test_terminate_validates_inputs():
    with pytest.raises(InvalidConfig):
        should_terminate(100, 10, 5, 2, 1.5, 20.0)
    with pytest.raises(ValueError):
        should_terminate(100, 10, 0, 2, 0.99, 20.0)
    with pytest.raises(ValueError):
        should_terminate(100, 200, 5, 2, 0.99, 20.0)


def test_terminate_matches_formula_spot_check():
    n, united, k, m, mu = 1000, 400, 50, 4, 0.99
    n_i = (n - united) * (1.0 - (1.0 - mu) ** (1.0 / k)) ** (1.0 / m)
    assert should_terminate(n, united, k, m, mu, 20.0) == (n_i <= 20.0)


# ---------------------------------------------------------------------------
# misclassification error

def _report_with_assignment(assignment, n_instances=None):
    assignment = np.asarray(assignment)
    k = (n_instances if n_instances is not None
         else int(assignment.max()) + 1 if np.any(assignment >= 0) else 0)
    return FitReport(
        instances=[line_instance(0.0, 1.0, -float(i)) for i in range(k)],
        min_residual_assignment=assignment,
        loss_matrix=np.zeros((k, len(assignment))),
        iterations=1, proposals_tried=0, fallback_samples=0, wall_time=0.0)


def test_me_perfect_recovery_zero():
    labels = np.array([1, 1, 2, 2, 0])
    pred = np.array([0, 0, 1, 1, OUTLIER])
    assert misclassification_error(_report_with_assignment(pred), labels) == 0.0


def test_me_single_instance_half_wrong():
    labels = np.array([1] * 50 + [2] * 50)
    pred = np.zeros(100, dtype=int)
    assert misclassification_error(
        _report_with_assignment(pred, 1), labels) == pytest.approx(0.5)


def test_me_matches_permutation_oracle(rng):
    for _ in range(40):
        labels = rng.integers(0, 4, size=30)        # 0 = outlier
        pred = rng.integers(-1, 3, size=30)
        me = misclassification_error(_report_with_assignment(pred, 3), labels)
        # oracle: best injective instance -> cluster map over all
        # permutations of padded cluster ids (3 instances, clusters 1..3)
        best = -1
        for perm in permutations([1, 2, 3]):
            correct = np.sum((pred == OUTLIER) & (labels == 0))
            for inst in range(3):
                correct += np.sum((pred == inst) & (labels == perm[inst]))
            best = max(best, correct)
        assert me == pytest.approx(1.0 - best / 30.0)


def _vectors_of(table):
    """Assignment and label vectors whose contingency table is `table`.
    An all-zero row is an instance owning one outlier point, an all-zero
    column a label whose one point is unassigned."""
    pred, labels = [], []
    for (a, b), count in np.ndenumerate(table.astype(int)):
        pred += [a] * count
        labels += [b + 1] * count
    for a in np.flatnonzero(~table.any(axis=1)):
        pred, labels = pred + [a], labels + [0]
    for b in np.flatnonzero(~table.any(axis=0)):
        pred, labels = pred + [OUTLIER], labels + [b + 1]
    return np.array(pred, dtype=int), np.array(labels, dtype=int)


def _matching_tables(rng):
    yield np.array([[0.0]])
    yield np.array([[5.0]])
    yield np.zeros((3, 2))
    yield np.full((3, 3), 2.0)
    for _ in range(2400):
        m, n = rng.integers(1, 6, size=2)
        table = rng.integers(0, rng.integers(1, 6), size=(m, n)).astype(float)
        if rng.random() < 0.3:        # an all-zero row or column
            if rng.random() < 0.5:
                table[rng.integers(m)] = 0.0
            else:
                table[:, rng.integers(n)] = 0.0
        if rng.random() < 0.2 and m > 1:    # a deliberate tie
            table[1] = table[0]
        yield table


def test_label_matching_matches_assignment_oracle(rng):
    shapes = set()
    for table in _matching_tables(rng):
        m, n = table.shape
        pred, labels = _vectors_of(table)
        assert np.array_equal(contingency_table(pred, labels)[2], table)
        me, matched = label_matching(pred, labels)
        rows, cols = linear_sum_assignment(-table)
        best = table[rows, cols].sum()
        pairs = sorted((a, b - 1) for a, (b, _) in matched.items()
                       if b is not None)
        assert len(pairs) == min(m, n)
        assert sum(table[a, b] for a, b in pairs) == best
        assert me == 1.0 - best / len(labels)
        # every full matching, to tell a unique optimum from a tie
        totals = [sum(table[a, b] for a, b in
                      (zip(p, range(n)) if m >= n else zip(range(m), p)))
                  for p in permutations(range(max(m, n)), min(m, n))]
        if totals.count(best) == 1:
            assert pairs == sorted(zip(rows.tolist(), cols.tolist()))
        shapes.add((int(np.sign(m - n)), totals.count(best) > 1,
                    (m, n) == (1, 1)))
    assert {(-1, False, False), (1, False, False), (0, False, True),
            (-1, True, False), (1, True, False)} <= shapes


def test_me_label_mismatch():
    with pytest.raises(LabelMismatch):
        misclassification_error(_report_with_assignment(np.zeros(5, int), 1),
                                np.zeros(4, int))


# ---------------------------------------------------------------------------
# full fit

def test_fit_single_exact_line():
    spec = SyntheticSpec(ModelType.LINE2D, 1, 60, 0, 0.0, 1000.0, seed=3)
    points, labels, gt = synthesize(spec)
    cfg = default_config(ModelType.LINE2D, 3.0, seed=3)
    report = fit(points, ModelType.LINE2D, cfg)
    assert len(report.instances) == 1
    ang, off = line_angle_offset(report.instances[0], gt[0])
    assert ang < 1e-6 and off < 1e-6
    assert np.all(report.min_residual_assignment == 0)


def test_fit_pure_outlier_scene_mostly_empty():
    empty_enough = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        points = PointSet(rng.uniform(0, 1000, size=(200, 4)))
        cfg = default_config(ModelType.HOMOGRAPHY, 2.0, seed=seed,
                             max_proposals=1500)
        report = fit(points, ModelType.HOMOGRAPHY, cfg)
        empty_enough += len(report.instances) <= 1
    assert empty_enough >= 9


def test_fit_deterministic_given_seed():
    spec = SyntheticSpec(ModelType.LINE2D, 3, 80, 100, 1.0, 1000.0, seed=5)
    points, labels, gt = synthesize(spec)
    cfg = default_config(ModelType.LINE2D, 3.0, seed=11)
    a = fit(points, ModelType.LINE2D, cfg)
    b = fit(points, ModelType.LINE2D, cfg)
    assert json.dumps(a.to_dict(), sort_keys=True) == \
        json.dumps(b.to_dict(), sort_keys=True)


@pytest.mark.parametrize("spec, overrides, reason", [
    (SyntheticSpec(ModelType.LINE2D, 2, 50, 20, 1.0, seed=5),
     {"sampler": "uniform"}, "criterion"),
    (SyntheticSpec(ModelType.LINE2D, 2, 50, 200, 1.0, seed=5),
     {"sampler": "uniform", "max_proposals": 20}, "max_proposals"),
    (SyntheticSpec(ModelType.SEGMENT2D, 2, 40, 200, 1.0, seed=2,
                   clustered=True), {"sampler": "cc"}, "cc_spent"),
], ids=["criterion", "max-proposals", "cc-spent"])
def test_fit_reports_stop_reason(spec, overrides, reason):
    points, _, _ = synthesize(spec)
    cfg = default_config(spec.model_type, 3.0, seed=1, **overrides)
    report = fit(points, spec.model_type, cfg)
    assert report.stop_reason == reason
    assert report.to_dict()["stop_reason"] == reason
    assert report.instances
    if reason == "max_proposals":
        # one candidate per line draw, so the draws reached the cap
        assert report.proposals_tried == cfg.max_proposals


def test_fit_final_instances_pairwise_dissimilar():
    spec = SyntheticSpec(ModelType.LINE2D, 4, 80, 150, 1.0, 1000.0, seed=9)
    points, labels, gt = synthesize(spec)
    cfg = default_config(ModelType.LINE2D, 3.0, seed=9)
    report = fit(points, ModelType.LINE2D, cfg)
    assert len(report.instances) >= 2
    sim = tanimoto_matrix(report.loss_matrix)
    off_diagonal = ~np.eye(len(report.instances), dtype=bool)
    assert np.all(sim[off_diagonal] < cfg.tau)


def test_fit_soft_assignment_on_crossing_lines():
    # two lines crossing at the field center share points near the crossing
    rng = np.random.default_rng(0)
    t = rng.uniform(-100, 100, size=120)
    a = np.column_stack([t, t])
    s = rng.uniform(-100, 100, size=120)
    b = np.column_stack([s, -s])
    coords = np.vstack([a, b]) + rng.normal(0, 0.5, size=(240, 2))
    points = PointSet(coords + 200.0)
    cfg = default_config(ModelType.LINE2D, 3.0, seed=1)
    report = fit(points, ModelType.LINE2D, cfg)
    assert len(report.instances) == 2
    both = np.sum(np.all(report.loss_matrix < 1.0, axis=0))
    assert both >= 1


def test_fit_reports_quality_above_threshold():
    spec = SyntheticSpec(ModelType.LINE2D, 3, 90, 80, 1.0, 1000.0, seed=21)
    points, labels, gt = synthesize(spec)
    cfg = default_config(ModelType.LINE2D, 3.0, seed=21)
    report = fit(points, ModelType.LINE2D, cfg)
    # every reported instance keeps q_min quality against the others
    for i in range(len(report.instances)):
        others = [j for j in range(len(report.instances)) if j != i]
        cache = (np.min(report.loss_matrix[others], axis=0) if others
                 else np.ones(len(points)))
        q = len(points) - np.sum(np.maximum(report.loss_matrix[i], 1 - cache))
        assert q >= cfg.q_min - 1e-9


def test_fit_requires_enough_points():
    points = PointSet(np.array([[0.0, 0.0]]))
    cfg = default_config(ModelType.LINE2D, 3.0)
    with pytest.raises(ExhaustedData):
        fit(points, ModelType.LINE2D, cfg)


def test_fit_checks_dimension():
    points = PointSet(np.zeros((10, 3)))
    cfg = default_config(ModelType.LINE2D, 3.0)
    with pytest.raises(DimensionMismatch):
        fit(points, ModelType.LINE2D, cfg)


def test_consolidate_merges_duplicates_monotonically(rng):
    spec = SyntheticSpec(ModelType.LINE2D, 2, 80, 40, 1.0, 1000.0, seed=31)
    points, labels, gt = synthesize(spec)
    cfg = default_config(ModelType.LINE2D, 3.0)
    # six noisy proposals of the same two structures
    proposals = []
    for g in gt:
        for _ in range(3):
            jitter = rng.normal(0, 1e-3, size=3)
            proposals.append(make_instance(ModelType.LINE2D,
                                           g.params + jitter))
    rows = [residuals(h, points.coords) for h in proposals]
    out, residual_rows, loss_rows, _ = _consolidate(
        ModelType.LINE2D, [h.params for h in proposals], rows,
        [cfg.loss.losses(r) for r in rows], [np.zeros(6, dtype=bool)],
        points, cfg)
    assert out.shape == (2, 3)
    # the rows returned are the scores of the returned instances
    for p, r_row, l_row in zip(out, residual_rows, loss_rows):
        h = ModelInstance(ModelType.LINE2D, p)
        assert np.array_equal(r_row, residuals(h, points.coords))
        assert np.array_equal(l_row, cfg.loss.losses(r_row))


def test_consolidate_keeps_a_row_at_exactly_q_min():
    # three 0/1 rows on disjoint supports of 20, 19 and 25 points: their
    # qualities against all others are exactly 20, 19 and 25
    n = 100
    rows = np.ones((3, n))
    rows[0, :20] = rows[1, 20:39] = rows[2, 39:64] = 0.0
    assert consolidate_fixed(rows, q_min=20.0) == [0, 2]
    assert consolidate_fixed(rows, q_min=np.nextafter(20.0, 21.0)) == [2]


def test_candidate_at_q_min_is_accepted():
    # 20 points on y = 0 and 10 outliers above them: under the 0/1 loss the
    # line's quality is exactly 20, and a line through two outliers meets
    # at most 2 of the 20
    inliers = np.column_stack([10.0 * np.arange(20), np.zeros(20)])
    outliers = np.random.default_rng(3).uniform((0, 100), (190, 300), (10, 2))
    points = PointSet(np.vstack([inliers, outliers]))
    for q_min, found in ((20.0, 1), (np.nextafter(20.0, 21.0), 0)):
        cfg = default_config(ModelType.LINE2D, 3.0, LossKind.HARD01,
                             q_min=q_min, sampler="uniform",
                             max_proposals=200)
        report = fit(points, ModelType.LINE2D, cfg)
        assert len(report.instances) == found
    assert np.array_equal(report.loss_matrix, np.zeros((0, 30)))


def test_consolidating_60_rows_ends_in_singletons(rng):
    spec = SyntheticSpec(ModelType.LINE2D, 4, 60, 60, 1.0, 1000.0, seed=8)
    points, _, gt = synthesize(spec)
    cfg = default_config(ModelType.LINE2D, 3.0)
    params = np.vstack([make_instance(ModelType.LINE2D, gt[i % 4].params
                                      + rng.normal(0, 0.02, 3)).params
                        for i in range(60)])
    R = models._residuals(ModelType.LINE2D, params, points.coords)
    out, residual_rows, loss_rows, _ = _consolidate(
        ModelType.LINE2D, [params], [R], [cfg.loss.losses(R)],
        [np.zeros(60, dtype=bool)], points, cfg)
    assert 1 <= len(out) <= 4
    assert len(cluster_instances(loss_rows, cfg.tau)) == len(out)


@pytest.mark.parametrize("spec, sampler", [
    (SyntheticSpec(ModelType.LINE2D, 3, 80, 100, 1.0, 1000.0, seed=5),
     "pnapsac"),
    (SyntheticSpec(ModelType.SEGMENT2D, 4, 40, 40, 1.0, seed=2,
                   clustered=True), "cc"),
], ids=["lines-pnapsac", "segments-cc"])
def test_fit_scores_each_instance_once(monkeypatch, spec, sampler):
    # residual rows are built only for a solved candidate, whether or not
    # the loop takes it, and for a new IRLS iterate; consolidation and IRLS
    # reuse the rows the caller holds
    rows = []
    solved = []     # candidates per solved block
    irls_iterations = []
    stacked = models._residuals
    candidates = engine._candidates

    def counted_residuals(model_type, P, coords):
        rows.append(len(P))
        return stacked(model_type, P, coords)

    def counted_candidates(*args):
        out = candidates(*args)
        solved.append(sum(map(len, out)))
        return out

    def recorded_refine(*args, **kwargs):
        out = refine_irls(*args, **kwargs)
        irls_iterations.extend(d["iterations"] for d in out[-1])
        return out

    # the engine reaches the kernel through the name it binds, a K = 1
    # models.residuals call through models
    monkeypatch.setattr(models, "_residuals", counted_residuals)
    monkeypatch.setattr(engine, "_residuals", counted_residuals)
    monkeypatch.setattr(engine, "_candidates", counted_candidates)
    monkeypatch.setattr(engine, "refine_irls", recorded_refine)
    points, _, _ = synthesize(spec)
    cfg = default_config(spec.model_type, 3.0, sampler=sampler, seed=3)
    report = fit(points, spec.model_type, cfg)
    assert len(report.instances) >= 2 and len(irls_iterations) >= 2
    assert sum(rows) == sum(solved) + sum(irls_iterations)
    # the candidates never taken are at most those of the last block solved
    assert 0 <= sum(solved) - report.proposals_tried <= solved[-1]


def _one_sample_candidates(points, model_type, sample):
    """Screen and solve one sample through the B = 1 model calls."""
    coords = points.coords[sample]
    try:
        if len(sample) > model_type.m:
            return [fit_nonminimal(model_type, coords, points.weights[sample])]
        if sample_degenerate(model_type, coords):
            return []
        fitted = fit_minimal(model_type, coords)
    except DegenerateSample:
        return []
    if model_type is ModelType.FUNDAMENTAL:
        fitted = [f for f in fitted if oriented_epipolar_ok(f, coords)]
    return fitted


def _fit_per_draw(points, model_type, config, block):
    """Oracle of fit: the proposal loop that screens and solves one sample
    at a time, each connected component alone; the samples after the CC
    schedule are drawn block at a time, from the first draw after it.
    Returns the report and its trace: the draw count at the end of each
    outer iteration ("ends"), the schedule's length ("scheduled") and the
    sample sizes of each block, the schedule's too, in steps of block
    ("blocks"; the engine's grouping at block = SAMPLE_BLOCK)."""
    m, n = model_type.m, len(points)
    rng = np.random.default_rng(config.seed)
    schedule, cc = [], config.sampler == "cc"
    fn, eps = config.loss, config.loss.epsilon
    if cc:
        schedule = cc_schedule(points.coords, m,
                               (engine.CC_RADII * eps).tolist())
    kept = np.zeros((0, model_type.n_params))
    residual_rows, loss_rows = np.zeros((0, n)), np.zeros((0, n))
    fixed = np.zeros(0, dtype=bool)
    min_loss = np.ones(n)
    proposals_tried = draws = outer = united = 0
    ends, blocks = [], []
    while True:
        outer += 1
        batch = []
        budget = engine.PROPOSAL_BUDGET_FACTOR * config.batch_size
        attempts = 0
        cc_spent = False
        while (len(batch) < config.batch_size and attempts < budget
               and draws < config.max_proposals):
            if cc and draws >= len(schedule) and (len(kept) or batch):
                cc_spent = True
                break
            if not batch and draws > 0 and should_terminate(
                    n, united, draws, m, config.confidence, config.q_min):
                break
            draws += 1
            attempts += 1
            t = draws - len(schedule)   # the draw's number after the schedule
            # blocks in steps of block from the schedule's start and from
            # the first draw after it, cut at either's end
            if t <= 0 and (draws - 1) % block == 0:
                blocks.append(schedule[draws - 1:min(
                    draws - 1 + block, len(schedule), config.max_proposals)])
            elif t > 0 and (t - 1) % block == 0:
                blocks.append(draw_block(
                    config.sampler, points, m, t,
                    min(block, config.max_proposals - draws + 1), rng).tolist())
            sample = schedule[draws - 1] if t <= 0 else blocks[-1][(t - 1) % block]
            for h in _one_sample_candidates(points, model_type, sample):
                proposals_tried += 1
                r = residuals(h, points.coords)
                if float(np.minimum(r < fn.cutoff, min_loss).sum()) < config.q_min:
                    continue
                loss = fn.losses(r)
                if quality_f_from_losses(loss, min_loss) >= config.q_min and not (
                        model_type is ModelType.FUNDAMENTAL
                        and fundamental_planar_degenerate(points.coords[sample], eps)):
                    batch.append((h, r, loss))
        if batch:
            new, new_r, new_loss = zip(*batch)
            kept, residual_rows, loss_rows, fixed = _consolidate_oracle(
                model_type, [kept, *(h.params for h in new)],
                [residual_rows, *new_r], [loss_rows, *new_loss],
                [fixed, np.zeros(len(new), dtype=bool)], points, config)
            min_loss = loss_rows.min(axis=0) if len(kept) else np.ones(n)
        united = int(np.sum(np.any(residual_rows < eps, axis=0)))
        ends.append(draws)
        if should_terminate(n, united, draws, m, config.confidence,
                            config.q_min):
            stop_reason = "criterion"
        elif cc_spent and len(kept):
            stop_reason = "cc_spent"
        elif draws >= config.max_proposals:
            stop_reason = "max_proposals"
        else:
            continue
        break
    fallback = max(draws - len(schedule), 0) if cc else 0
    instances = [ModelInstance(model_type, p) for p in kept]
    report = FitReport(instances, min_residual_assignment(residual_rows, eps),
                       loss_rows, outer, proposals_tried, fallback, 0.0,
                       stop_reason)
    return report, {"ends": ends, "scheduled": len(schedule),
                    "blocks": [[len(s) for s in b] for b in blocks]}


def _ranked(points):
    """The point set with a quality ranking, so that PROSAC grows its pool."""
    rank = np.random.default_rng(0).permutation(len(points))
    return PointSet(points.coords, quality_rank=rank)


@pytest.mark.parametrize("spec, sampler, max_proposals, stop", [
    (SyntheticSpec(ModelType.LINE2D, 3, 60, 60, 1.0, seed=5), "pnapsac",
     10_000, "criterion"),
    (SyntheticSpec(ModelType.LINE2D, 3, 60, 60, 1.0, seed=6), "uniform",
     39, "cap"),
    (SyntheticSpec(ModelType.PLANE3D, 2, 60, 40, 1.0, seed=3), "prosac",
     100, "criterion"),
    (SyntheticSpec(ModelType.SEGMENT2D, 4, 40, 40, 1.0, seed=2,
                   clustered=True), "cc", 10_000, "cc"),
    # radii so small (0.1 to 0.3 at epsilon = 3) that the schedule holds 2
    # samples and the fit goes on with PROSAC draws until it finds the
    # first line
    (SyntheticSpec(ModelType.LINE2D, 2, 30, 600, 1.0, seed=8),
     ("cc", np.linspace(0.1, 0.3, 6) / 3), 1000, "fallback"),
    # components of exactly m = 4 points and larger ones share blocks
    (SyntheticSpec(ModelType.HOMOGRAPHY, 3, 60, 30, 1.0, seed=8), "cc",
     300, "mixed"),
    (SyntheticSpec(ModelType.HOMOGRAPHY, 2, 60, 30, 1.0, seed=8), "pnapsac",
     150, "cap"),
    (SyntheticSpec(ModelType.HOMOGRAPHY, 2, 60, 30, 1.0, seed=13), "prosac",
     250, "criterion"),
    (SyntheticSpec(ModelType.FUNDAMENTAL, 2, 60, 30, 1.0, seed=10), "uniform",
     200, "cap"),
    (SyntheticSpec(ModelType.FUNDAMENTAL, 2, 60, 30, 1.0, seed=11), "pnapsac",
     300, "cap"),
], ids=["lines-pnapsac", "lines-uniform", "planes-prosac", "segments-cc",
        "lines-cc-fallback", "homography-cc-mixed", "homography-pnapsac",
        "homography-prosac", "fundamental-uniform", "fundamental-pnapsac"])
def test_fit_matches_per_draw_oracle(monkeypatch, spec, sampler,
                                     max_proposals, stop):
    points, _, _ = synthesize(spec)
    if sampler == "prosac":
        points = _ranked(points)
    if isinstance(sampler, tuple):
        sampler, radii = sampler
        monkeypatch.setattr(engine, "CC_RADII", radii)
    cfg = default_config(spec.model_type, 3.0, sampler=sampler, seed=4,
                         batch_size=2, max_proposals=max_proposals)
    # drawn RNG_BLOCK at a time, as the engine's blocks take their stream
    want, _ = _fit_per_draw(points, spec.model_type, cfg, sampling.RNG_BLOCK)
    # the same fit in the engine's grouping, whose trace the guards read
    grouped, trace = _fit_per_draw(points, spec.model_type, cfg,
                                   engine.SAMPLE_BLOCK)
    assert grouped.to_dict() == want.to_dict()
    blocks = []
    solve_block = engine._candidates

    def recorded(points, model_type, samples, fn):
        blocks.append([len(s) for s in samples])
        return solve_block(points, model_type, samples, fn)

    monkeypatch.setattr(engine, "_candidates", recorded)
    got = fit(points, spec.model_type, cfg)
    assert got.to_dict() == want.to_dict()
    assert blocks == trace["blocks"]
    # the scenario's guards hold on the oracle's own trace
    ends, scheduled = trace["ends"], trace["scheduled"]
    block_ends = set(accumulate(map(len, trace["blocks"])))
    inside = [e not in block_ends for e in ends]
    # an outer iteration ended inside a block, so the next one took the
    # samples drawn ahead
    assert any(inside[:-1])
    if stop == "cap":
        # the cap cut the last block short
        assert want.stop_reason == "max_proposals"
        assert len(trace["blocks"][-1]) < engine.SAMPLE_BLOCK
    elif stop == "criterion":
        # the stopping rule fired inside a block
        assert want.stop_reason == "criterion" and inside[-1]
    elif stop == "cc":
        # every draw a component of the schedule, some larger than m
        assert ends[-1] <= scheduled
        assert max(map(max, trace["blocks"])) > spec.model_type.m
    elif stop == "fallback":
        # the schedule's 2 samples, then fallback draws in two outer
        # iterations at least
        assert trace["blocks"][0] == [2, 2] and scheduled == 2
        assert sum(e > max(before, scheduled)
                   for before, e in zip([0] + ends, ends)) >= 2
    elif stop == "mixed":
        m = spec.model_type.m
        assert any(m in sizes and max(sizes) > m for sizes in trace["blocks"])


def test_cc_radii_are_the_pixel_radii_at_epsilon_3(monkeypatch):
    # at epsilon = 3 a cc fit walks exactly the radii 20 to 200 in 5 steps
    # that the pinned cc fits were made with
    seen = []
    schedule = engine.cc_schedule

    def recorded(coords, m, radii):
        seen.append(radii)
        return schedule(coords, m, radii)

    monkeypatch.setattr(engine, "cc_schedule", recorded)
    points, _, _ = synthesize(SyntheticSpec(ModelType.SEGMENT2D, 2, 20, 10,
                                            1.0, seed=1, clustered=True))
    fit(points, ModelType.SEGMENT2D,
        default_config(ModelType.SEGMENT2D, 3.0, sampler="cc",
                       max_proposals=1))
    assert seen == [[20.0, 56.0, 92.0, 128.0, 164.0, 200.0]]


def test_engine_config_has_eight_fields():
    assert [f.name for f in fields(EngineConfig)] == [
        "loss", "q_min", "tau", "confidence", "batch_size", "sampler",
        "seed", "max_proposals"]


def test_sample_block_is_whole_rng_chunks():
    # blocks start at multiples of SAMPLE_BLOCK after the CC schedule, so
    # their RNG_BLOCK chunks start where RNG_BLOCK-sized blocks would
    assert engine.SAMPLE_BLOCK % sampling.RNG_BLOCK == 0


@pytest.mark.parametrize("spec, sampler", [
    (SyntheticSpec(ModelType.LINE2D, 3, 60, 60, 1.0, seed=5), "pnapsac"),
    (SyntheticSpec(ModelType.SEGMENT2D, 2, 60, 40, 1.0, seed=5), "pnapsac"),
    (SyntheticSpec(ModelType.PLANE3D, 2, 60, 40, 1.0, seed=7), "pnapsac"),
    (SyntheticSpec(ModelType.HOMOGRAPHY, 2, 60, 30, 1.0, seed=8), "pnapsac"),
    (SyntheticSpec(ModelType.FUNDAMENTAL, 2, 60, 30, 1.0, seed=11),
     "pnapsac"),
    (SyntheticSpec(ModelType.SEGMENT2D, 4, 40, 40, 1.0, seed=2,
                   clustered=True), "cc"),
], ids=["lines", "segments", "planes", "homographies", "fundamentals",
        "segments-cc"])
def test_fit_builds_only_the_reported_instances(monkeypatch, spec, sampler):
    # candidates, IRLS iterates and consolidated hypotheses stay parameter
    # rows; a ModelInstance is built for each reported instance alone
    points, _, _ = synthesize(spec)
    built = []
    post_init = ModelInstance.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ModelInstance, "__post_init__", counted)
    cfg = default_config(spec.model_type, 3.0, sampler=sampler, seed=4,
                         max_proposals=300)
    report = fit(points, spec.model_type, cfg)
    assert report.instances
    assert len(built) == len(report.instances)
    assert all(a is b for a, b in zip(built, report.instances))


def _select_representatives(clusters, qualities):
    """Oracle: per cluster, the member of maximal quality, ties resolved
    toward the lowest index."""
    qualities = np.asarray(qualities, dtype=float)
    return [members[int(np.argmax(qualities[list(members)]))]
            for members in clusters]


def _qualities(loss_rows, groups):
    """Oracle: per row, quality_f_from_losses against the rows outside its
    group, one row at a time."""
    return [quality_f_from_losses(row, cache) for row, cache in
            zip(loss_rows, min_loss_outside_groups(loss_rows, groups))]


def _consolidate_oracle(model_type, params, residual_rows, loss_rows, fixed,
                        points, cfg, skip_fixed=True):
    """Oracle of _consolidate: per pass a per-row quality list and
    _select_representatives, until the clustering returns only singletons;
    then a separate leave-one-out prune. skip_fixed=False refines every
    representative in every pass."""
    params = np.vstack(params)
    residual_rows, loss_rows = np.vstack(residual_rows), np.vstack(loss_rows)
    fixed = np.concatenate(fixed) & skip_fixed
    first = True
    while first or len(cluster_instances(loss_rows, cfg.tau)) < len(params):
        first = False
        clusters = cluster_instances(loss_rows, cfg.tau)
        groups = np.empty(len(params), dtype=int)
        for g, members in enumerate(clusters):
            groups[list(members)] = g
        reps = _select_representatives(clusters, _qualities(loss_rows, groups))
        params, residual_rows, loss_rows, fixed = (
            params[reps], residual_rows[reps], loss_rows[reps], fixed[reps])
        todo = np.flatnonzero(~fixed)
        if len(todo):
            *refined, info = engine.refine_irls(
                model_type, params[todo], residual_rows[todo],
                loss_rows[todo], points, cfg)
            params[todo], residual_rows[todo], loss_rows[todo] = refined
            fixed[todo] = [d["fixed"] and skip_fixed for d in info]
    keep = [i for i, q in enumerate(_qualities(loss_rows,
                                               np.arange(len(params))))
            if q >= cfg.q_min]
    return params[keep], residual_rows[keep], loss_rows[keep], fixed[keep]


_consolidate_refining_all = partial(_consolidate_oracle, skip_fixed=False)


LINES_10 = SyntheticSpec(ModelType.LINE2D, 10, 60, 400, 1.0, seed=1)


# per family and loss: a scene, and whether its fit meets a fixed
# representative; magsacpp unless the id names the loss
@pytest.mark.parametrize("spec, kind, skips", [
    (LINES_10, LossKind.MAGSACPP, False),
    (SyntheticSpec(ModelType.SEGMENT2D, 8, 60, 300, 1.0, seed=4),
     LossKind.MAGSACPP, False),
    (SyntheticSpec(ModelType.PLANE3D, 4, 100, 150, 1.0, seed=1),
     LossKind.MAGSACPP, False),
    (SyntheticSpec(ModelType.HOMOGRAPHY, 4, 100, 150, 1.0, seed=3),
     LossKind.MAGSACPP, False),
    (SyntheticSpec(ModelType.FUNDAMENTAL, 4, 100, 150, 1.0, seed=1),
     LossKind.MAGSACPP, True),
    (LINES_10, LossKind.MSAC, True),
    (LINES_10, LossKind.TUKEY_BISQUARE, False),
], ids=["line2d", "segment2d", "plane3d", "homography", "fundamental",
        "line2d-msac", "line2d-tukey"])
def test_fit_skips_fixed_points_without_changing_the_fit(monkeypatch, spec,
                                                        kind, skips):
    # a representative flagged fixed would come back from refine_irls
    # unchanged, and a row's IRLS does not depend on its stack, so skipping
    # it leaves the fit bit-equal
    points, _, _ = synthesize(spec)
    cfg = default_config(spec.model_type, 3.0, kind, max_proposals=800)
    refined_rows = []

    def counted_refine(model_type, params, *args):
        refined_rows.append(len(params))
        return refine_irls(model_type, params, *args)

    monkeypatch.setattr(engine, "refine_irls", counted_refine)
    report = fit(points, spec.model_type, cfg)
    skipping = sum(refined_rows)
    refined_rows.clear()
    monkeypatch.setattr(engine, "_consolidate", _consolidate_refining_all)
    oracle = fit(points, spec.model_type, cfg)
    assert json.dumps(report.to_dict()) == json.dumps(oracle.to_dict())
    assert len(report.instances) >= 1
    assert (skipping < sum(refined_rows)) == skips


# line-family scenes outside the benchmark, at its 2000-draw cap: instances
# found, misclassified points out of the scene's points, stop reason
@pytest.mark.parametrize("spec, count, wrong, n, stop", [
    (SyntheticSpec(ModelType.LINE2D, 16, 100, 1000, 1.0, seed=2),
     16, 157, 2600, "max_proposals"),
    (SyntheticSpec(ModelType.LINE2D, 16, 100, 1000, 1.0, seed=3),
     17, 282, 2600, "max_proposals"),
    (SyntheticSpec(ModelType.PLANE3D, 4, 150, 200, 1.0, seed=1),
     4, 10, 800, "max_proposals"),
    (SyntheticSpec(ModelType.PLANE3D, 4, 150, 200, 1.0, seed=2),
     4, 17, 800, "max_proposals"),
    (SyntheticSpec(ModelType.PLANE3D, 4, 150, 200, 1.0, seed=3),
     4, 11, 800, "max_proposals"),
], ids=["L16-2", "L16-3", "P4-1", "P4-2", "P4-3"])
def test_line_family_scenes_keep_their_fit(spec, count, wrong, n, stop):
    points, labels, _ = synthesize(spec)
    cfg = default_config(spec.model_type, 3.0, sampler="pnapsac",
                         max_proposals=2000)
    report = fit(points, spec.model_type, cfg)
    assert len(labels) == n and len(report.instances) == count
    assert misclassification_error(report, labels) == pytest.approx(
        wrong / n, abs=1e-12)
    assert report.stop_reason == stop


# A known defect: on these easy segment scenes the default P-NAPSAC fit
# keeps no instance (ME 83.3 %) and stops by the criterion after 371
# proposals, the draw at which the stopping rule holds with nothing found,
# while uniform draws keep all three. P-NAPSAC's first draws pair a point
# with its nearest neighbors, whose short segments likely never reach q_min.
PNAPSAC_EASY_SEGMENTS = pytest.mark.xfail(
    strict=True, reason="the default P-NAPSAC fit keeps no instance and "
    "stops by the criterion")


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("sampler", [
    pytest.param("pnapsac", marks=PNAPSAC_EASY_SEGMENTS), "uniform"])
def test_easy_segment_scene_keeps_every_segment(sampler, seed):
    spec = SyntheticSpec(ModelType.SEGMENT2D, 3, 50, 30, 1.0, seed=seed)
    points, _, _ = synthesize(spec)
    cfg = default_config(ModelType.SEGMENT2D, 3.0, sampler=sampler)
    assert default_config(ModelType.SEGMENT2D, 3.0).sampler == "pnapsac"
    report = fit(points, ModelType.SEGMENT2D, cfg)
    assert len(report.instances) == 3
    assert report.stop_reason == "criterion"


def test_engine_config_validation():
    fn = LossFunction(LossKind.MSAC, 2.0)
    with pytest.raises(InvalidConfig):
        EngineConfig(loss=fn, q_min=0.0)
    with pytest.raises(InvalidConfig):
        EngineConfig(loss=fn, tau=1.5)
    with pytest.raises(InvalidConfig):
        EngineConfig(loss=fn, sampler="magic")
    for bad in ({"q_min": np.nan}, {"q_min": np.inf}, {"seed": -1}):
        with pytest.raises(InvalidConfig):
            EngineConfig(loss=fn, **bad)
    # the CC radii are multiples of epsilon, not fields
    for removed in ("proposal_budget_factor", "max_irls_iters", "irls_tol",
                    "r_min", "r_max", "n_steps"):
        with pytest.raises(TypeError):
            default_config(ModelType.LINE2D, 3.0, **{removed: 5})


@pytest.mark.parametrize("field, value", [
    ("dof", 2.5), ("dof", True), ("seed", 1.5), ("seed", True),
    ("batch_size", 2.5), ("max_proposals", 300.0),
    ("max_proposals", np.float64(300.0)), ("batch_size", "3")])
def test_non_integer_config_values_are_rejected(field, value):
    # int or numpy integer, but not bool
    def make(v):
        if field == "dof":
            return LossFunction(LossKind.MAGSACPP, 3.0, dof=v)
        return default_config(ModelType.LINE2D, 3.0, sampler="cc",
                              **{field: v})

    with pytest.raises(InvalidConfig, match=field):
        make(value)
    make(np.int64(max(int(value), 1)))


_REAL_FIELDS = {"epsilon": 3.0, "q_min": 20.0, "tau": 0.2,
                "confidence": 0.9}


@pytest.mark.parametrize("field, value", [
    ("epsilon", "3"), ("epsilon", None), ("epsilon", True), ("q_min", "20"),
    ("q_min", True), ("tau", None), ("confidence", "0.9")])
def test_non_real_config_values_are_rejected(field, value):
    # int, float or a numpy scalar of either, but not bool
    def make(v):
        if field == "epsilon":
            return LossFunction(LossKind.MAGSACPP, v)
        return default_config(ModelType.LINE2D, 3.0, sampler="cc",
                              **{field: v})

    with pytest.raises(InvalidConfig, match=field):
        make(value)
    for ok in (np.float32, np.float64, float):
        make(ok(_REAL_FIELDS[field]))


@pytest.mark.parametrize("loss", [
    "magsacpp", LossKind.MAGSACPP, None, 3.0])
def test_loss_must_be_a_loss_function(loss):
    # a kind or its name would fail only inside the fit
    with pytest.raises(InvalidConfig, match="loss"):
        EngineConfig(loss=loss)


def test_min_residual_assignment():
    rows = np.array([[0.5, 4.0, 9.0, 1.0],
                     [2.0, 1.0, 8.0, 1.0]])
    assert min_residual_assignment(rows, 3.0).tolist() == [0, 1, OUTLIER, 0]
    assert min_residual_assignment(np.zeros((0, 3)), 3.0).tolist() == \
        [OUTLIER] * 3


def test_contingency_table_matches_loop(rng):
    for _ in range(20):
        labels = rng.integers(0, 4, size=40)
        pred = rng.integers(-1, 5, size=40)
        inst_ids, gt_ids, table = contingency_table(pred, labels)
        assert inst_ids.tolist() == sorted(set(pred.tolist()) - {OUTLIER})
        assert gt_ids.tolist() == sorted(set(labels.tolist()) - {0})
        for a, inst in enumerate(inst_ids):
            for b, gt in enumerate(gt_ids):
                assert table[a, b] == np.sum((pred == inst) & (labels == gt))
