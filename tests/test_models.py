import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfit.errors import DegenerateSample
from mmfit.losses import LossKind
from mmfit.models import (
    COLLINEAR_AREA_TOL,
    ModelType,
    _fundamental_eight_point,
    _homography_dlt,
    _real_cubic_roots,
    fit_minimal,
    fit_nonminimal,
    fundamental_planar_degenerate,
    make_instance,
    minimal_candidates,
    oriented_epipolar_ok,
    residual,
    residuals,
    sample_degenerate,
    segment_endpoints,
)

from conftest import (
    fundamental_from_cameras,
    line_angle_offset,
    make_camera_pair,
    make_f_scene,
    project_points,
    visible_cloud,
)


# ---------------------------------------------------------------------------
# minimal solvers

@pytest.mark.parametrize("enum", [ModelType, LossKind])
def test_from_string_is_a_value_lookup(enum):
    for member in enum:
        assert enum.from_string(member.value.upper()) is member
    for name in ("circle", "", None, 7, 2.5, ["line2d"], b"msac"):
        with pytest.raises(ValueError):
            enum.from_string(name)


def test_line_through_axis_points():
    inst = fit_minimal(ModelType.LINE2D, np.array([[0.0, 0.0], [1.0, 0.0]]))[0]
    assert np.allclose(np.abs(inst.params), [0.0, 1.0, 0.0], atol=1e-12)
    assert residual(inst, np.array([5.0, 3.0])) == pytest.approx(3.0)


def test_homography_identity_case():
    corr = np.array([[0, 0, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1], [0, 1, 0, 1]],
                    dtype=float)
    inst = fit_minimal(ModelType.HOMOGRAPHY, corr)[0]
    expected = np.eye(3).ravel() / np.sqrt(3.0)
    assert np.allclose(inst.params, expected, atol=1e-9)


def test_seven_point_epipolar_oracle():
    corr, F_true, _ = make_f_scene(seed=42, n=7)
    instances = fit_minimal(ModelType.FUNDAMENTAL, corr)
    assert 1 <= len(instances) <= 3
    x1 = np.column_stack([corr[:, :2], np.ones(7)])
    x2 = np.column_stack([corr[:, 2:], np.ones(7)])
    for inst in instances:
        F = inst.matrix()
        algebraic = np.abs(np.sum(x2 * (x1 @ F.T), axis=1))
        assert np.all(algebraic < 1e-9)
    best = min(np.linalg.norm(s * inst.params.reshape(3, 3) - F_true)
               for inst in instances for s in (1.0, -1.0))
    assert best < 1e-6


@pytest.mark.parametrize("model_type", list(ModelType))
def test_minimal_fit_interpolates_sample(model_type, rng):
    for trial in range(20):
        m = model_type.m
        if model_type in (ModelType.HOMOGRAPHY, ModelType.FUNDAMENTAL):
            corr, _, _ = make_f_scene(seed=100 + 7 * trial, n=m)
            sample = corr
        else:
            dim = 2 if model_type is not ModelType.PLANE3D else 3
            sample = rng.uniform(0, 100, size=(m, dim))
        if sample_degenerate(model_type, sample):
            continue
        for inst in fit_minimal(model_type, sample):
            assert np.all(residuals(inst, sample) < 1e-6)


def test_minimal_coincident_points_degenerate():
    with pytest.raises(DegenerateSample):
        fit_minimal(ModelType.LINE2D, np.array([[1.0, 1.0], [1.0, 1.0]]))


# ---------------------------------------------------------------------------
# stacked minimal path

def _one_at_a_time(model_type, sample):
    """The candidates of one sample through the B = 1 public calls."""
    if sample_degenerate(model_type, sample):
        return []
    try:
        fitted = fit_minimal(model_type, sample)
    except DegenerateSample:
        return []
    if model_type is ModelType.FUNDAMENTAL:
        fitted = [f for f in fitted if oriented_epipolar_ok(f, sample)]
    return fitted


def _stack_row(model_type, kind, rng):
    """One minimal sample of the given kind: "good" (well spread, for H and
    F with image 2 a noisy similar copy of image 1), "coincident" (point 1
    repeats point 0; for F, points 4-6 repeat points 0-2, a rank-deficient
    seven-point system) or "collinear" (point 2 on the line through points 0
    and 1; for H and F in both images)."""
    m, dim = model_type.m, model_type.dim
    if dim == 4:
        x1 = rng.uniform(0, 1000, size=(m, 2))
        x2 = (x1 @ np.array([[0.9, 0.1], [-0.1, 0.9]]) + rng.uniform(-50, 50, 2)
              + rng.normal(0, 5.0, size=(m, 2)))
        sample = np.column_stack([x1, x2])
    else:
        sample = rng.uniform(0, 1000, size=(m, dim))
    if kind == "coincident":
        if model_type is ModelType.FUNDAMENTAL:
            sample[4:] = sample[:3]
        else:
            sample[1] = sample[0]
    elif kind == "collinear" and m > 2:
        sample[2] = sample[0] + rng.uniform(-2, 3) * (sample[1] - sample[0])
    return sample


@pytest.mark.parametrize("model_type", list(ModelType))
@settings(max_examples=40, deadline=None)
@given(kinds=st.lists(st.sampled_from(["good", "coincident", "collinear"]),
                      min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_candidates_match_one_at_a_time(model_type, kinds, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([_stack_row(model_type, kind, rng) for kind in kinds])
    got = minimal_candidates(model_type, stack)
    assert len(got) == len(stack)
    for sample, row in zip(stack, got):
        want = _one_at_a_time(model_type, sample)
        assert len(row) == len(want)
        for a, b in zip(row, want):
            assert np.array_equal(a.params, b.params)


def _real_roots_oracle(coeffs):
    """Real roots of one cubic, as the seven-point solver took them: scale
    to a largest magnitude of 1, drop leading coefficients of at most
    1e-12, np.roots, keep the roots with a negligible imaginary part."""
    scale = np.max(np.abs(coeffs))
    if scale < 1e-300:
        return []
    coeffs = coeffs / scale
    nz = np.nonzero(np.abs(coeffs) > 1e-12)[0]
    return [float(r.real) for r in np.roots(coeffs[nz[0]:])
            if not abs(r.imag) > 1e-8 * (1.0 + abs(r.real))]


_coefficient = st.one_of(st.floats(-10.0, 10.0), st.just(0.0),
                         st.floats(-1e-12, 1e-12))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_coefficient, min_size=4, max_size=4),
                min_size=1, max_size=8))
def test_real_cubic_roots_match_np_roots(rows):
    # rows with a vanishing leading or trailing coefficient take np.roots'
    # degree reduction; the others go through the stacked eigenvalues
    coeffs = np.array(rows)
    which, roots = _real_cubic_roots(coeffs)
    for i, row in enumerate(coeffs):
        assert np.array_equal(roots[which == i], _real_roots_oracle(row))


# ---------------------------------------------------------------------------
# non-minimal solvers

def test_plane_exact_points_unit_weights():
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, 10, size=(10, 2)), np.zeros(10)])
    inst = fit_nonminimal(ModelType.PLANE3D, pts, np.ones(10))
    assert np.allclose(np.abs(inst.params), [0, 0, 1, 0], atol=1e-9)


def test_zero_weight_equals_exclusion():
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(0, 10, size=(10, 2)), np.zeros(10)])
    outlier = np.array([[3.0, 3.0, 25.0]])
    with_out = np.vstack([pts, outlier])
    w = np.append(np.ones(10), 0.0)
    a = fit_nonminimal(ModelType.PLANE3D, with_out, w)
    b = fit_nonminimal(ModelType.PLANE3D, pts, np.ones(10))
    assert np.allclose(a.params, b.params, atol=1e-12)


def test_line_tls_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(7)
    t = rng.uniform(0, 100, size=50)
    pts = np.column_stack([t, 0.3 * t + 5.0]) + rng.normal(0, 0.5, size=(50, 2))
    inst = fit_nonminimal(ModelType.LINE2D, pts, np.ones(50))
    # oracle: eigen-decomposition of the scatter matrix of centered points
    mu = pts.mean(axis=0)
    scatter = (pts - mu).T @ (pts - mu)
    vals, vecs = np.linalg.eigh(scatter)
    normal = vecs[:, 0]
    oracle = make_instance(ModelType.LINE2D, [*normal, -normal @ mu])
    ang, off = line_angle_offset(inst, oracle)
    assert ang < 1e-9 and off < 1e-9


def test_nonminimal_reproduces_minimal_on_exact_sample(rng):
    # 4 homography points and 8 fundamental points give 8x9 systems, whose
    # null vector needs the full V^T of the SVD
    for model_type in ModelType:
        m = model_type.m
        if model_type in (ModelType.HOMOGRAPHY, ModelType.FUNDAMENTAL):
            sample, _, _ = make_f_scene(seed=3, n=max(m, 8))
            sample = sample[:max(m, 8)]
        else:
            dim = 3 if model_type is ModelType.PLANE3D else 2
            sample = rng.uniform(0, 100, size=(m, dim))
        if model_type is ModelType.FUNDAMENTAL:
            # 8 exact points determine F: compare with the true matrix
            sample, F, _ = make_f_scene(seed=3, n=8)
            inst = fit_nonminimal(model_type, sample, np.ones(len(sample)))
            truth = make_instance(model_type, F.ravel())
            assert np.allclose(inst.params, truth.params, atol=1e-6)
            continue
        minimal = fit_minimal(model_type, sample[:m])
        if not minimal:
            continue
        nonmin = fit_nonminimal(model_type, sample[:m], np.ones(m))
        diff = min(np.linalg.norm(minimal[0].params - s * nonmin.params)
                   for s in (1.0, -1.0))
        assert diff < 1e-6


def test_tall_dlt_economy_svd_matches_full(monkeypatch, rng):
    corr, _, _ = make_f_scene(seed=17, n=40)
    corr = corr + rng.normal(0, 1.0, size=corr.shape)
    w = rng.uniform(0.1, 1.0, size=len(corr))

    def solve():
        H, _ = _homography_dlt(corr[:, :2], corr[:, 2:], w)
        F = _fundamental_eight_point(corr[:, :2], corr[:, 2:], w)
        return (make_instance(ModelType.HOMOGRAPHY, H.ravel()).params,
                make_instance(ModelType.FUNDAMENTAL, F.ravel()).params)

    economy = solve()
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, full_matrices=True, **kw: svd(a, True, **kw))
    full = solve()
    for got, want in zip(economy, full):
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_nonminimal_needs_positive_weights():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateSample):
        fit_nonminimal(ModelType.LINE2D, pts, np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# residuals

def test_identity_homography_zero_residual():
    inst = make_instance(ModelType.HOMOGRAPHY, np.eye(3).ravel())
    corr = np.array([[3.0, 4.0, 3.0, 4.0], [10.0, -2.0, 10.0, -2.0]])
    assert np.allclose(residuals(inst, corr), 0.0, atol=1e-12)


def test_sampson_distance_matches_reimplementation():
    corr, F, _ = make_f_scene(seed=5, n=7)
    rng = np.random.default_rng(5)
    noisy = corr + rng.normal(0, 2.0, size=corr.shape)
    inst = make_instance(ModelType.FUNDAMENTAL, F.ravel())
    got = residuals(inst, noisy)
    # oracle: scalar formula, written out long-hand
    Fm = inst.matrix()
    for i, row in enumerate(noisy):
        p1 = np.array([row[0], row[1], 1.0])
        p2 = np.array([row[2], row[3], 1.0])
        num = abs(p2 @ Fm @ p1)
        l1 = Fm @ p1
        l2 = Fm.T @ p2
        den = np.sqrt(l1[0] ** 2 + l1[1] ** 2 + l2[0] ** 2 + l2[1] ** 2)
        assert got[i] == pytest.approx(num / den, abs=1e-12)


def test_homography_point_at_infinity_residual():
    # H maps (1, 0) to the plane at infinity; H^-1 maps (-1, 0) there
    H = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    inst = make_instance(ModelType.HOMOGRAPHY, H.ravel())
    corr = np.array([[1.0, 0.0, 5.0, 5.0],    # forward at infinity
                     [3.0, 7.0, -1.0, 0.0],   # backward at infinity
                     [0.0, 0.0, 0.0, 0.0]])   # finite, exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = residuals(inst, corr)
    assert np.isinf(r[0]) and np.isinf(r[1])
    assert r[2] == 0.0


def test_segment_residual_clamps_to_endpoints():
    seg = fit_minimal(ModelType.SEGMENT2D,
                      np.array([[0.0, 0.0], [10.0, 0.0]]))[0]
    assert residual(seg, np.array([5.0, 2.0])) == pytest.approx(2.0)
    assert residual(seg, np.array([13.0, 4.0])) == pytest.approx(5.0)
    assert residual(seg, np.array([-3.0, 4.0])) == pytest.approx(5.0)
    assert np.allclose(sorted(segment_endpoints(seg)[:, 0]), [0.0, 10.0])


@pytest.mark.parametrize("lam", [-1.0, 0.5, 10.0])
def test_residual_invariant_to_parameter_scale(lam, rng):
    from mmfit.models import ModelInstance

    cases = []
    line = fit_minimal(ModelType.LINE2D, rng.uniform(0, 50, size=(2, 2)))[0]
    cases.append((line, rng.uniform(0, 50, size=(6, 2))))
    seg = fit_minimal(ModelType.SEGMENT2D, rng.uniform(0, 50, size=(2, 2)))[0]
    cases.append((seg, rng.uniform(0, 50, size=(6, 2))))
    plane = fit_minimal(ModelType.PLANE3D, rng.uniform(0, 50, size=(3, 3)))[0]
    cases.append((plane, rng.uniform(0, 50, size=(6, 3))))
    corr, F, _ = make_f_scene(seed=9, n=8)
    h = fit_minimal(ModelType.HOMOGRAPHY, corr[:4])[0]
    cases.append((h, corr + rng.normal(0, 1, size=corr.shape)))
    f = make_instance(ModelType.FUNDAMENTAL, F.ravel())
    cases.append((f, corr + rng.normal(0, 1, size=corr.shape)))
    for inst, pts in cases:
        scaled = ModelInstance(inst.model_type, inst.params * lam)
        assert np.allclose(residuals(scaled, pts), residuals(inst, pts),
                           rtol=1e-9, atol=1e-9)


def test_fitted_fundamental_is_rank_two(rng):
    corr, _, _ = make_f_scene(seed=11, n=20)
    inst = fit_nonminimal(ModelType.FUNDAMENTAL, corr, np.ones(20))
    assert abs(np.linalg.det(inst.matrix())) < 1e-9
    s = np.linalg.svd(inst.matrix(), compute_uv=False)
    assert s[2] / s[0] < 1e-7


# ---------------------------------------------------------------------------
# degeneracy and cheirality

def test_collinear_triple_rejects_homography_sample():
    corr = np.array([
        [0.0, 0.0, 10.0, 10.0],
        [10.0, 0.0, 50.0, 12.0],
        [20.0, 0.0, 30.0, 80.0],   # first three collinear in image 1
        [5.0, 40.0, 70.0, 60.0],
    ])
    assert sample_degenerate(ModelType.HOMOGRAPHY, corr) is True


def test_generic_homography_sample_not_degenerate():
    corr = np.array([
        [0.0, 0.0, 1.0, 2.0],
        [100.0, 0.0, 110.0, 8.0],
        [100.0, 100.0, 95.0, 105.0],
        [0.0, 100.0, 4.0, 98.0],
    ])
    assert sample_degenerate(ModelType.HOMOGRAPHY, corr) is False


def test_coincident_plane_points_degenerate():
    pts = np.array([[1.0, 2.0, 3.0]] * 3)
    assert sample_degenerate(ModelType.PLANE3D, pts) is True


def _h_degenerate(pts1, pts2):
    return sample_degenerate(ModelType.HOMOGRAPHY, np.column_stack([pts1, pts2]))


def test_cheirality_identity_and_reflection():
    square = np.array([[0.0, 0.0], [50.0, 0.0], [50.0, 50.0], [0.0, 50.0]])
    assert _h_degenerate(square, square) is False
    reflected = square * np.array([-1.0, 1.0])
    assert _h_degenerate(square, reflected) is True


def test_cheirality_mild_projective_warp():
    square = np.array([[0.0, 0.0], [50.0, 0.0], [50.0, 50.0], [0.0, 50.0]])
    H = np.array([[1.1, 0.05, 3.0], [-0.04, 0.95, -2.0], [1e-4, -5e-5, 1.0]])
    warped_h = (np.column_stack([square, np.ones(4)]) @ H.T)
    warped = warped_h[:, :2] / warped_h[:, 2:3]
    assert _h_degenerate(square, warped) is False


def test_cheirality_invariant_to_similarity(rng):
    # the collinearity threshold is an absolute area, so the verdict may
    # change with the scale of an image but not with its rotation or shift
    for _ in range(25):
        pts1 = rng.uniform(0, 100, size=(4, 2))
        pts2 = rng.uniform(0, 100, size=(4, 2))
        s = rng.uniform(0.5, 2.0)
        base = _h_degenerate(pts1, s * pts2)
        theta = rng.uniform(0, 2 * np.pi)
        Rm = s * np.array([[np.cos(theta), -np.sin(theta)],
                           [np.sin(theta), np.cos(theta)]])
        moved = pts2 @ Rm.T + rng.uniform(-10, 10, size=2)
        assert _h_degenerate(pts1, moved) == base
        mirrored = moved * np.array([-1.0, 1.0])
        if not base:
            assert _h_degenerate(pts1, mirrored) is True


def test_cheirality_degenerate_hull_rejected():
    pts1 = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [5.0, 30.0]])
    assert _h_degenerate(pts1, pts1 + 1.0) is True


def _hull_cycle(pts, degenerate_tol):
    """Indices of the convex hull of 4 points in CCW order by Andrew's
    monotone chain, or None if any triple has an area below degenerate_tol."""
    for i in range(2):
        for j in range(i + 1, 3):
            for k in range(j + 1, 4):
                v1, v2 = pts[j] - pts[i], pts[k] - pts[i]
                if 0.5 * abs(v1[0] * v2[1] - v1[1] * v2[0]) < degenerate_tol:
                    return None
    order = sorted(range(4), key=lambda i: (pts[i, 0], pts[i, 1]))

    def cross(o, a, b):
        return ((pts[a, 0] - pts[o, 0]) * (pts[b, 1] - pts[o, 1])
                - (pts[a, 1] - pts[o, 1]) * (pts[b, 0] - pts[o, 0]))

    lower, upper = [], []
    for chain, seq in ((lower, order), (upper, order[::-1])):
        for i in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], i) <= 0:
                chain.pop()
            chain.append(i)
    return lower[:-1] + upper[:-1]


def _homography_sample_ok_oracle(sample):
    """Every triple area at least COLLINEAR_AREA_TOL in both images, and the
    same hull, traversed in the same cyclic order, in both images."""
    h1 = _hull_cycle(sample[:, :2], COLLINEAR_AREA_TOL)
    h2 = _hull_cycle(sample[:, 2:], COLLINEAR_AREA_TOL)
    if h1 is None or h2 is None or sorted(h1) != sorted(h2):
        return False
    shift = h2.index(h1[0])
    return h2[shift:] + h2[:shift] == h1


# coordinates within +-100 keep the rounding error of every cross product
# far below the area threshold, so the two tests see the same verdicts
@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-100.0, 100.0), min_size=16, max_size=16))
def test_cheirality_matches_hull_cycle_oracle(values):
    sample = np.array(values).reshape(4, 4)
    assert (sample_degenerate(ModelType.HOMOGRAPHY, sample)
            != _homography_sample_ok_oracle(sample))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=16, max_size=16))
def test_cheirality_matches_hull_cycle_oracle_on_grid(values):
    # a 4x4 grid makes collinear triples and repeated points common
    sample = np.array(values, dtype=float).reshape(4, 4)
    assert (sample_degenerate(ModelType.HOMOGRAPHY, sample)
            != _homography_sample_ok_oracle(sample))


# ---------------------------------------------------------------------------
# oriented epipolar constraint

def _depth_oracle(K, R, t, X):
    X2 = X @ R.T + t
    return np.all(X[:, 2] > 0) and np.all(X2[:, 2] > 0)


def test_oriented_epipolar_accepts_points_in_front():
    rng = np.random.default_rng(21)
    K, R, t = make_camera_pair(rng)
    X = visible_cloud(rng, K, R, t, 7)
    p1, p2, z1, z2 = project_points(K, R, t, X)
    assert _depth_oracle(K, R, t, X)
    F = fundamental_from_cameras(K, R, t)
    inst = make_instance(ModelType.FUNDAMENTAL, F.ravel())
    corr = np.column_stack([p1, p2])
    assert oriented_epipolar_ok(inst, corr) is True


def test_oriented_epipolar_rejects_point_behind_camera():
    # needs a strong forward translation so that the antipode through the
    # camera-1 center stays in front of camera 2: a point behind BOTH
    # cameras flips the orientation twice and is invisible to the test
    rng = np.random.default_rng(22)
    f = 800.0
    K = np.array([[f, 0.0, 400.0], [0.0, f, 400.0], [0.0, 0.0, 1.0]])
    from scipy.spatial.transform import Rotation

    R = Rotation.from_euler("y", 5, degrees=True).as_matrix()
    t = np.array([0.3, 0.2, 1.8])
    X = visible_cloud(rng, K, R, t, 7, depth=(1.2, 1.6))
    F = fundamental_from_cameras(K, R, t)
    inst = make_instance(ModelType.FUNDAMENTAL, F.ravel())
    X_bad = X.copy()
    X_bad[3] = -X_bad[3]          # antipode through the camera-1 center
    p1, p2, z1, z2 = project_points(K, R, t, X_bad)
    assert z1[3] < 0 < z2[3]      # behind camera 1 only (depth oracle)
    corr = np.column_stack([p1, p2])
    assert oriented_epipolar_ok(inst, corr) is False


def test_oriented_epipolar_on_exact_fitting_sample():
    corr, _, _ = make_f_scene(seed=33, n=7)
    for inst in fit_minimal(ModelType.FUNDAMENTAL, corr):
        assert oriented_epipolar_ok(inst, corr) is True


def test_planar_degeneracy_flags_coplanar_seven():
    rng = np.random.default_rng(41)
    K, R, t = make_camera_pair(rng)
    # seven points on one plane at depth 3
    Kinv = np.linalg.inv(K)
    pts = []
    while len(pts) < 7:
        px = rng.uniform(100, 700, size=2)
        ray = Kinv @ np.array([px[0], px[1], 1.0])
        X = ray * 3.0 / ray[2]
        X2 = R @ X + t
        if X2[2] > 0.1:
            pts.append(X)
    X = np.array(pts)
    p1, p2, _, _ = project_points(K, R, t, X)
    corr = np.column_stack([p1, p2])
    F = fundamental_from_cameras(K, R, t)
    inst = make_instance(ModelType.FUNDAMENTAL, F.ravel())
    assert fundamental_planar_degenerate(inst, corr, epsilon=3.0) is True
    corr_general, F2, _ = make_f_scene(seed=43, n=7)
    inst2 = make_instance(ModelType.FUNDAMENTAL, F2.ravel())
    assert fundamental_planar_degenerate(inst2, corr_general, epsilon=3.0) is False
