import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmfit import engine, sampling
from mmfit.errors import DegenerateSample
from mmfit.ingest import SyntheticSpec, synthesize
from mmfit.losses import LossFunction, LossKind
from mmfit.models import (
    COINCIDENT_POINT_TOL,
    COLLINEAR_AREA_TOL,
    ModelInstance,
    ModelType,
    PointSet,
    _fit_weighted,
    _inverse,
    _real_cubic_roots,
    _residuals,
    _segment_endpoints,
    fit_minimal,
    fit_nonminimal,
    fundamental_planar_degenerate,
    make_instance,
    minimal_candidates,
    residuals,
    segment_endpoints,
)

from conftest import (
    dense_fit_weighted,
    fundamental_from_cameras,
    line_angle_offset,
    make_camera_pair,
    make_f_scene,
    oriented_epipolar_ok,
    project_points,
    sample_degenerate,
    two_view_dlt_reference,
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
    assert residuals(inst, np.array([5.0, 3.0])[None])[0] == pytest.approx(3.0)


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


@pytest.mark.parametrize("model_type", list(ModelType))
def test_minimal_fit_rejects_non_finite_coordinates(model_type):
    sample = np.ones((model_type.m, model_type.dim))
    sample[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        fit_minimal(model_type, sample)


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
    seven-point system), "close" (point 1 within 1e-10 of point 0 in each
    coordinate, lines, segments and planes only) or "collinear" (point 2 on
    the line through points 0 and 1; for H and F in both images)."""
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
    elif kind == "close":
        sample[1] = sample[0] + rng.uniform(-1e-10, 1e-10, size=dim)
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
    params, owner = minimal_candidates(model_type, stack, 3.0)
    assert params.shape == (len(owner), model_type.n_params)
    assert np.all(np.diff(owner) >= 0)
    assert np.all((0 <= owner) & (owner < len(stack)))
    for b, sample in enumerate(stack):
        rows = params[owner == b]
        # bit-equal to the sample's B = 1 call ...
        alone, at = minimal_candidates(model_type, sample[None], 3.0)
        assert rows.tobytes() == alone.tobytes() and not np.any(at)
        # ... and to the candidates of the public one-sample calls
        want = _one_at_a_time(model_type, sample)
        assert len(rows) == len(want)
        for a, h in zip(rows, want):
            assert np.array_equal(a, h.params)


@pytest.mark.parametrize("model_type", [ModelType.LINE2D, ModelType.SEGMENT2D,
                                        ModelType.PLANE3D])
@settings(max_examples=40, deadline=None)
@given(kinds=st.lists(st.sampled_from(["good", "coincident", "close",
                                       "collinear"]),
                      min_size=1, max_size=64),
       seed=st.integers(0, 2 ** 32 - 1))
def test_minimal_lines_segments_planes_are_unit_weight_fits(model_type, kinds,
                                                            seed):
    # the minimal fit of a line, segment or plane is the non-minimal fit of
    # its m points at unit weight, bit for bit, in any stack, and raises
    # exactly when that fit does
    rng = np.random.default_rng(seed)
    stack = np.array([_stack_row(model_type, kind, rng) for kind in kinds])
    params, owner = minimal_candidates(model_type, stack, 3.0)
    for b, sample in enumerate(stack):
        row = params[owner == b]
        try:
            want = [fit_nonminimal(model_type, sample, np.ones(len(sample)))]
        except DegenerateSample:
            want = []
            with pytest.raises(DegenerateSample):
                fit_minimal(model_type, sample)
        else:
            minimal = fit_minimal(model_type, sample)
            assert len(minimal) == 1
            assert np.array_equal(minimal[0].params, want[0].params)
        if sample_degenerate(model_type, sample):
            want = []
        assert len(row) == len(want)
        for a, h in zip(row, want):
            assert np.array_equal(a, h.params)


def test_minimal_line_through_close_points_is_fitted():
    # points 2e-9 apart are not coincident: the screen of the sampled path,
    # fit_minimal and fit_nonminimal fit the same line; 1e-10 apart, below
    # COINCIDENT_POINT_TOL, all three reject them
    sample = np.array([[1.0, 1.0], [1.0, 1.0 + 2e-9]])
    (line,) = fit_minimal(ModelType.LINE2D, sample)
    assert np.array_equal(
        line.params, fit_nonminimal(ModelType.LINE2D, sample, np.ones(2)).params)
    assert np.allclose(np.abs(line.params), [1.0, 0.0, 1.0])
    params, owner = minimal_candidates(ModelType.LINE2D, sample[None], 3.0)
    assert np.array_equal(params, line.params[None]) and owner.tolist() == [0]
    sample[1, 1] = 1.0 + 1e-10
    for solve in (fit_minimal, lambda t, s: fit_nonminimal(t, s, np.ones(2))):
        with pytest.raises(DegenerateSample):
            solve(ModelType.LINE2D, sample)
    params, owner = minimal_candidates(ModelType.LINE2D, sample[None], 3.0)
    assert params.shape == (0, 3) and owner.shape == (0,)


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


def _line_stack(kind, rng, k=40, per=12):
    """(coords, rows, pts, w) of k weighted line rows of a given kind of
    scatter: random, near-isotropic (a regular polygon, jittered by 1e-9)
    or coincident (unit weights)."""
    blocks = []
    for _ in range(k):
        centre = rng.uniform(-500, 500, 2)
        if kind == "random":
            block = centre + rng.normal(size=(per, 2)) * rng.uniform(0.1, 50, 2)
        elif kind == "isotropic":
            angles = 2 * np.pi * np.arange(per) / per + rng.uniform(0, 1)
            block = (centre + 10.0 * np.column_stack([np.cos(angles),
                                                      np.sin(angles)])
                     + rng.normal(0, 1e-9, (per, 2)))
        else:   # whole coordinates: the centroid and scatter are exact
            block = np.tile(np.round(centre), (per, 1))
        blocks.append(block)
    coords = np.vstack(blocks)
    rows = np.repeat(np.arange(k), per)
    w = np.ones(k * per) if kind == "coincident" else rng.uniform(0.5, 2.0, k * per)
    return coords, rows, np.arange(k * per), w


@pytest.mark.parametrize("kind", ["random", "isotropic", "coincident"])
def test_line_normal_closed_form_matches_eigh(kind):
    rng = np.random.default_rng(11)
    coords, rows, pts, w = _line_stack(kind, rng)
    k = rows.max() + 1
    params, ok = _fit_weighted(ModelType.LINE2D, coords, rows, pts, w, k)
    assert np.all(np.isfinite(params))
    for i in range(k):
        X, wi = coords[rows == i], w[rows == i]
        mu = (wi[:, None] * X).sum(0) / wi.sum()
        scatter = ((X - mu) * wi[:, None]).T @ (X - mu)
        vals, vecs = np.linalg.eigh(scatter)
        assert ok[i] == (vals[-1] > wi.sum() * (COINCIDENT_POINT_TOL / 2) ** 2)
        if not ok[i]:
            continue
        normal = params[i, :2]
        if kind == "random":
            # the same direction as eigh's eigenvector
            assert abs(normal[0] * vecs[1, 0] - normal[1] * vecs[0, 0]) < 1e-10
        else:
            # any direction minimizes an isotropic scatter to rounding
            assert normal @ scatter @ normal <= vals[0] + 1e-12 * vals[-1]
    assert ok.all() == (kind != "coincident") and ok.any() == ok.all()


@pytest.mark.parametrize("model_type", [ModelType.LINE2D, ModelType.SEGMENT2D,
                                        ModelType.PLANE3D])
def test_coincident_points_are_not_fitted(model_type):
    # off the integer grid the weighted centroid rounds, which leaves a
    # scatter of rounding size along no direction of the data
    point = [123.456, -7.89, 0.321][:model_type.dim]
    with pytest.raises(DegenerateSample):
        fit_nonminimal(model_type, np.tile(point, (12, 1)), np.ones(12))
    rng = np.random.default_rng(5)
    k, per = 80, 12
    coords = np.repeat(rng.uniform(-1000, 1000, (k, model_type.dim)), per,
                       axis=0)
    _, ok = _fit_weighted(model_type, coords, np.repeat(np.arange(k), per),
                          np.arange(k * per), rng.uniform(0.5, 2.0, k * per),
                          k)
    assert not ok.any()


@pytest.mark.parametrize("model_type", [ModelType.LINE2D, ModelType.SEGMENT2D])
def test_two_points_are_fitted_from_the_coincidence_tolerance_on(model_type):
    # the weighted fit of two unit-weight points d apart agrees with the
    # minimal sample screen: coincident below d = COINCIDENT_POINT_TOL
    for d, fitted in ((1.01e-9, True), (0.99e-9, False)):
        pts = np.array([[0.0, 0.0], [d, 0.0]])
        assert sample_degenerate(model_type, pts) is not fitted
        _, ok = _fit_weighted(model_type, pts, np.zeros(2, dtype=int),
                              np.arange(2), np.ones(2), 1)
        assert ok[0] == fitted


def _segment_residuals_oracle(P, coords):
    """The segment residuals as one np.where over the line distance and
    both endpoint distances of every element."""
    a, b, c = P[:, 0, None], P[:, 1, None], P[:, 2, None]
    dot = (P[:, None, :2] @ coords.T)[:, 0]
    line_dist = np.abs(dot + c) / np.sqrt(a * a + b * b)
    lo = np.minimum(P[:, 3], P[:, 4])[:, None]
    hi = np.maximum(P[:, 3], P[:, 4])[:, None]
    x, y = coords[:, 0], coords[:, 1]
    tp = -b * x + a * y
    ends = _segment_endpoints(P)[..., None]
    d_lo = np.sqrt((x - ends[:, 0, 0]) ** 2 + (y - ends[:, 0, 1]) ** 2)
    d_hi = np.sqrt((x - ends[:, 1, 0]) ** 2 + (y - ends[:, 1, 1]) ** 2)
    return np.where(tp < lo, d_lo, np.where(tp > hi, d_hi, line_dist))


def test_segment_residuals_equal_the_three_way_oracle():
    rng = np.random.default_rng(12)
    coords = rng.uniform(-100, 100, (2000, 2))
    angles = rng.uniform(0, np.pi, 48)
    P = np.column_stack([np.cos(angles), np.sin(angles),
                         rng.uniform(-50, 50, 48), rng.uniform(-80, 80, 48),
                         rng.uniform(-80, 80, 48)])
    # every row's ends are the projections of two of the points, so those
    # points sit exactly at the ends; a quarter of the rows have lo == hi
    tp = -P[:, 1, None] * coords[:, 0] + P[:, 0, None] * coords[:, 1]
    picks = rng.integers(2000, size=(48, 2))
    P[:, 3:5] = np.take_along_axis(tp, picks, 1)
    P[::4, 4] = P[::4, 3]
    got = _residuals(ModelType.SEGMENT2D, P, coords)
    assert got.tobytes() == _segment_residuals_oracle(P, coords).tobytes()
    lo, hi = P[:, 3:5].min(1, keepdims=True), P[:, 3:5].max(1, keepdims=True)
    assert (tp == lo).sum() >= 48 and (tp == hi).sum() >= 48
    assert (tp < lo).any() and (tp > hi).any() and ((tp > lo) & (tp < hi)).any()


def _cutoff_contract_case(model_type, rng, K=12, n=200):
    """Parameter rows and points at unit scale: random rows, so that line
    and plane normals are not unit; homographies near the identity. A
    segment's ends are the projections of two points, row 0 has lo == hi,
    and each row gets 16 more points within 20 px of its line, on its
    extension within 30 px of either end, and between them; a quarter
    lie on the line (offset 0)."""
    coords = rng.uniform(-100, 100, (n, model_type.dim))
    if model_type is ModelType.HOMOGRAPHY:
        return np.eye(3).ravel() + rng.normal(0, 0.05, (K, 9)), coords
    P = rng.normal(size=(K, model_type.n_params))
    if model_type is not ModelType.SEGMENT2D:
        return P, coords
    P[:, 2] *= 50.0
    tp = -P[:, 1, None] * coords[:, 0] + P[:, 0, None] * coords[:, 1]
    P[:, 3:5] = np.take_along_axis(tp, rng.integers(n, size=(K, 2)), 1)
    P[0, 4] = P[0, 3]
    a, b, c = P[:, 0, None], P[:, 1, None], P[:, 2, None]
    norm = np.hypot(a, b)
    lo, hi = P[:, 3:5].min(1, keepdims=True), P[:, 3:5].max(1, keepdims=True)
    # at line parameter t and line value u: a x + b y + c = u, -b x + a y = t
    t = rng.uniform(lo - 30.0 * norm, hi + 30.0 * norm, (K, 16))
    u = rng.uniform(-20.0, 20.0, (K, 16)) * norm * (rng.random((K, 16)) > 0.25)
    x = (-c * a - t * b + u * a) / norm ** 2
    y = (-c * b + t * a + u * b) / norm ** 2
    return P, np.vstack([coords, np.column_stack([x.ravel(), y.ravel()])])


@pytest.mark.parametrize("model_type", list(ModelType), ids=lambda t: t.value)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([-10, 0, 10]),
       cutoff=st.floats(0.0, 25.0))
def test_residuals_are_exact_below_the_cutoff(model_type, seed, k, cutoff):
    # an entry whose full value is below the cutoff is that value bit for
    # bit, any other entry is some value >= cutoff; the points, the
    # coordinate-scaled parameters and the cutoff are scaled by 2^k
    P, coords = _cutoff_contract_case(model_type, np.random.default_rng(seed))
    scale = 2.0 ** k
    coords, cutoff = coords * scale, cutoff * scale
    if model_type.n_params < 9:     # the offset and a segment's ends
        P[:, model_type.dim:] *= scale
    full = _residuals(model_type, P, coords, np.inf)
    got = _residuals(model_type, P, coords, cutoff)
    below = full < cutoff
    assert got[below].tobytes() == full[below].tobytes()
    assert np.all(got[~below] >= cutoff)


def _project(M, x):
    return (M.reshape(-1, 3) @ x).reshape(len(M), 3, x.shape[1])


def _homogeneous(coords):
    ones = np.ones(len(coords))
    return (np.stack([coords[:, 0], coords[:, 1], ones]),
            np.stack([coords[:, 2], coords[:, 3], ones]))


def _transfer_residuals_oracle(P, coords):
    """The symmetric transfer error as plain expressions, a fresh (K, n)
    array per step, np.where for the points mapped to infinity."""
    M = P.reshape(-1, 3, 3)
    x1, x2 = _homogeneous(coords)
    fwd, bwd = _project(M, x1), _project(_inverse(M), x2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e2 = ((fwd[:, 0] / fwd[:, 2] - coords[:, 2]) ** 2
              + (fwd[:, 1] / fwd[:, 2] - coords[:, 3]) ** 2)
        b2 = ((bwd[:, 0] / bwd[:, 2] - coords[:, 0]) ** 2
              + (bwd[:, 1] / bwd[:, 2] - coords[:, 1]) ** 2)
    e2 = np.where(np.abs(fwd[:, 2]) >= 1e-12, e2, np.inf)
    b2 = np.where(np.abs(bwd[:, 2]) >= 1e-12, b2, np.inf)
    return np.sqrt(0.5 * (e2 + b2))


def _sampson_residuals_oracle(P, coords):
    """The Sampson distance as plain expressions, a fresh (K, n) array per
    step."""
    M = P.reshape(-1, 3, 3)
    x1, x2 = _homogeneous(coords)
    Fx1, Ftx2 = _project(M, x1), _project(np.swapaxes(M, -1, -2), x2)
    num = np.abs(coords[:, 2] * Fx1[:, 0] + coords[:, 3] * Fx1[:, 1]
                 + Fx1[:, 2])
    den = np.sqrt(Fx1[:, 0] ** 2 + Fx1[:, 1] ** 2
                  + Ftx2[:, 0] ** 2 + Ftx2[:, 1] ** 2)
    return np.divide(num, den, out=np.full(num.shape, np.inf),
                     where=den > 1e-300)


def test_two_view_residuals_equal_the_expression_oracles():
    rng = np.random.default_rng(21)
    coords = rng.uniform(-200, 200, (500, 4))
    H = np.eye(3).ravel() + rng.normal(0, 0.05, (40, 9))
    H[:, 6:8] = rng.normal(0, 1e-3, (40, 2))
    H[3, 2::3] = 0.0                          # singular: an all-NaN inverse
    # maps (1, y) to infinity, and its inverse maps (-1, y) there
    H[4] = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0]
    coords[7, 0], coords[8, 2] = 1.0, -1.0
    F = rng.normal(size=(40, 9))
    F[5] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]   # den 0 everywhere
    # F x1 and F^T x2 vanish in their first two coordinates at point 9
    F[6] = [1.0, 0.0, -coords[9, 0], 0.0, 1.0, -coords[9, 1], 0.0, 0.0, 0.0]
    coords[9, 2:] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_h = _residuals(ModelType.HOMOGRAPHY, H, coords)
        got_f = _residuals(ModelType.FUNDAMENTAL, F, coords)
    assert got_h.tobytes() == _transfer_residuals_oracle(H, coords).tobytes()
    assert got_f.tobytes() == _sampson_residuals_oracle(F, coords).tobytes()
    assert np.isinf(got_h[3]).all() and np.isinf(got_h[4, [7, 8]]).all()
    assert np.isfinite(got_h[4]).sum() == 498
    assert np.isinf(got_f[5]).all() and np.isinf(got_f[6, 9])
    assert np.isfinite(got_f[6]).sum() == 499


# peak bytes traced in a _residuals call over the K * n * 8 of its result:
# the result and the kernel's own (K, n) buffers
RESIDUAL_PEAK = {ModelType.LINE2D: 1.5, ModelType.SEGMENT2D: 4.0,
                 ModelType.PLANE3D: 2.5, ModelType.HOMOGRAPHY: 6.0,
                 ModelType.FUNDAMENTAL: 6.0}


@pytest.mark.parametrize("model_type", list(ModelType), ids=lambda t: t.value)
def test_residuals_of_a_block_peak_within_their_buffers(model_type):
    # the full residuals and the call the engine makes, exact below the
    # loss cutoff alone
    K, n = 128, 1000
    rng = np.random.default_rng(4)
    coords = rng.uniform(0, 100, (n, model_type.dim))
    P = rng.normal(size=(K, model_type.n_params))
    for cutoff in (np.inf, engine.default_config(model_type, 3.0).loss.cutoff):
        _residuals(model_type, P, coords, cutoff)   # numpy's lazy set-up
        tracemalloc.start()
        try:
            _residuals(model_type, P, coords, cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert K * n * 8 <= peak <= RESIDUAL_PEAK[model_type] * K * n * 8


def test_candidates_of_a_block_peak_within_a_few_tiles():
    # a block's parameter rows are scored RNG_BLOCK at a time, so a
    # 128-sample block of the lines-l16 or segments-cc scene peaks at a few
    # (RNG_BLOCK, n) tiles, not at its (128, n) matrix
    for spec in (SyntheticSpec(ModelType.LINE2D, 16, 100, 1000, 1.0, seed=1),
                 SyntheticSpec(ModelType.SEGMENT2D, 16, 100, 400, 1.0, seed=1,
                               clustered=True)):
        points, _, _ = synthesize(spec)
        model_type = spec.model_type
        n, fn = len(points), engine.default_config(model_type, 3.0).loss
        samples = sampling.draw_block("uniform", points.coords, 2, 1,
                                      engine.SAMPLE_BLOCK,
                                      np.random.default_rng(2)).tolist()
        engine._candidates(points, model_type, samples, fn)   # untraced
        tracemalloc.start()
        try:
            out = engine._candidates(points, model_type, samples, fn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(map(len, out)) == engine.SAMPLE_BLOCK
        assert peak <= 2.5 * sampling.RNG_BLOCK * n * 8


def test_pinned_lines_fit_peaks_within_5_mib():
    # the lines-l16 benchmark scene: the proposal queue holds supports
    # alone and consolidation compacts its stacks in place
    points, _, _ = synthesize(SyntheticSpec(ModelType.LINE2D, 16, 100, 1000,
                                            1.0, seed=1))
    engine.fit(points, ModelType.LINE2D, engine.default_config(
        ModelType.LINE2D, 3.0, max_proposals=50))   # untraced
    cfg = engine.default_config(ModelType.LINE2D, 3.0, max_proposals=2000)
    tracemalloc.start()
    try:
        report = engine.fit(points, ModelType.LINE2D, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.instances) == 17
    assert peak <= 5 * 2**20


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
        return (fit_nonminimal(ModelType.HOMOGRAPHY, corr, w).params,
                fit_nonminimal(ModelType.FUNDAMENTAL, corr, w).params)

    economy = solve()
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, full_matrices=True, **kw: svd(a, True, **kw))
    full = solve()
    for got, want in zip(economy, full):
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, -1.0])
def test_point_set_rejects_bad_weights(weight):
    with pytest.raises(ValueError):
        PointSet(np.zeros((3, 2)), weights=[1.0, weight, 1.0])


@pytest.mark.parametrize("shape", [(5, 2, 2), (0, 2, 2), (1, 1, 1, 4)])
def test_point_set_rejects_coordinates_of_more_than_two_axes(shape):
    with pytest.raises(ValueError, match="finite"):
        PointSet(np.zeros(shape))


def test_point_set_takes_coordinates_and_weights_alone():
    with pytest.raises(TypeError):
        PointSet(np.zeros((3, 2)), quality_rank=np.arange(3))
    with pytest.raises(TypeError):
        PointSet(np.zeros((3, 2)), None, np.arange(3))


def test_nonminimal_needs_positive_weights():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateSample):
        fit_nonminimal(ModelType.LINE2D, pts, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("model_type, where, value", [
    (ModelType.HOMOGRAPHY, "coords", np.nan),
    (ModelType.FUNDAMENTAL, "coords", np.nan),
    (ModelType.HOMOGRAPHY, "weights", np.inf),
    (ModelType.FUNDAMENTAL, "weights", np.inf),
    (ModelType.HOMOGRAPHY, "weights", np.nan),
    (ModelType.LINE2D, "weights", np.inf),
], ids=lambda v: getattr(v, "value", str(v)))
def test_nonminimal_rejects_non_finite_input(model_type, where, value):
    points, _, _ = synthesize(SyntheticSpec(model_type, 1, 20, 0, 1.0, seed=3))
    coords, w = points.coords.copy(), np.ones(len(points))
    (coords if where == "coords" else w)[5] = value
    with pytest.raises(ValueError, match="finite"):
        fit_nonminimal(model_type, coords, w)


def fit_weight_rows(model_type, coords, W):
    """_fit_weighted on the rows of a dense (K, n) weight stack, passed as
    the triplets of its nonzero entries."""
    rows, pts = np.nonzero(W)
    return _fit_weighted(model_type, coords, rows, pts, W[rows, pts], len(W))


@pytest.mark.parametrize("model_type", [
    ModelType.LINE2D, ModelType.SEGMENT2D, ModelType.PLANE3D],
    ids=lambda t: t.value)
def test_support_kernel_matches_dense_reference(model_type):
    # 8-row stacks of MAGSAC++ weights around perturbed true structures, as
    # IRLS builds them: the kernel sums over each row's support in point
    # order, the dense reference over all n points by pairwise sums and
    # matmul, so they agree to rounding, not bit for bit
    count, per, outliers = ((4, 150, 200) if model_type is ModelType.PLANE3D
                            else (16, 100, 1000))
    fn = LossFunction(LossKind.MAGSACPP, 3.0, model_type.dof)
    for seed in range(8):
        points, _, truth = synthesize(SyntheticSpec(
            model_type, count, per, outliers, 1.0, seed=seed))
        rng = np.random.default_rng(seed)
        P = np.stack([make_instance(model_type, truth[i].params + rng.normal(
            0.0, 1e-3, model_type.n_params)).params
            for i in rng.choice(count, 8)])
        W = (fn.weights(_residuals(model_type, P, points.coords))
             * rng.uniform(0.5, 1.0, len(points)))
        got, ok = fit_weight_rows(model_type, points.coords, W)
        want, want_ok = dense_fit_weighted(model_type, points.coords, W)
        assert np.array_equal(ok, want_ok) and ok.all()
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("model_type", [
    ModelType.HOMOGRAPHY, ModelType.FUNDAMENTAL], ids=lambda t: t.value)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_two_view_kernel_matches_per_row_reference(model_type, seed):
    # an IRLS-like stack (MAGSAC++ weights around perturbed true models)
    # plus rows the kernel must reject or solve exactly: for F, 12
    # correspondences related by a homography (coplanar points, rank 6)
    # and 7 points (one equation short); for H, 12 collinear
    # correspondences and 4 points of one plane (fewer equations than
    # unknowns, so the full V^T)
    points, labels, truth = synthesize(SyntheticSpec(
        model_type, 4, 60, 40, 1.0, seed=seed))
    rng = np.random.default_rng(seed)
    t = rng.uniform(50.0, 750.0, 12)
    if model_type is ModelType.FUNDAMENTAL:
        H = np.array([[1.1, 0.05, 20.0], [-0.03, 0.95, -15.0], [1e-4, 2e-4, 1.0]])
        x1 = np.column_stack([t, rng.uniform(50.0, 750.0, 12), np.ones(12)])
        x2 = x1 @ H.T
        special = np.column_stack([x1[:, :2], x2[:, :2] / x2[:, 2:]])
    else:
        special = np.column_stack([t, 0.5 * t + 10.0, 2.0 * t + 5.0, 300.0 - t])
    coords = np.vstack([points.coords, special])
    n = len(points)
    fn = LossFunction(LossKind.MAGSACPP, 3.0, model_type.dof)
    P = np.stack([make_instance(model_type, truth[i].params * (
        1.0 + rng.normal(0.0, 1e-3, 9))).params
        for i in rng.choice(len(truth), 8)])
    W = np.zeros((11, len(coords)))
    W[:8, :n] = (fn.weights(_residuals(model_type, P, points.coords))
                 * rng.uniform(0.5, 1.0, n))
    W[8, n:] = rng.uniform(0.5, 1.0, 12)
    few = 7 if model_type is ModelType.FUNDAMENTAL else 4
    W[9, rng.choice(np.flatnonzero(labels == 1), few, replace=False)] = 1.0
    W[10, :n] = rng.uniform(0.1, 1.0, n)
    got, ok = fit_weight_rows(model_type, coords, W)
    for i, w in enumerate(W):
        pos = w > 0
        want, want_ok = two_view_dlt_reference(model_type, coords[pos], w[pos])
        assert ok[i] == want_ok
        if ok[i]:
            assert np.all(np.abs(got[i] - want) <= 1e-12 * np.abs(want).max())
    assert not ok[8] and ok[9] == (model_type is ModelType.HOMOGRAPHY)
    assert ok[:8].all() and ok[10]


def _weight_stack(model_type, seed):
    """Coordinates of a small synthetic scene plus 9 copies of the point
    (5, ..., 5), and a (K, n) weight stack over them: row 0 has m - 1
    positive weights, row 1 weights only the copies (a rank-deficient
    system; their weighted centroid is exact), row 2 one structure, the
    other rows random weights with about half zeros."""
    points, labels, _ = synthesize(SyntheticSpec(model_type, 2, 30, 20, 1.0,
                                                 seed=seed))
    coords = np.vstack([points.coords, np.full((9, model_type.dim), 5.0)])
    labels = np.concatenate([labels, np.full(9, -1)])
    rng = np.random.default_rng(seed)
    n, m = len(coords), model_type.m
    W = rng.uniform(0.0, 1.0, (8, n)) * (rng.uniform(size=(8, n)) < 0.5)
    W[0] = 0.0
    W[0, rng.choice(n - 9, m - 1, replace=False)] = 1.0
    W[1] = np.where(labels == -1, 1.0, 0.0)
    W[2] = np.where(labels == 1, rng.uniform(0.2, 1.0, n), 0.0)
    return coords, W


@pytest.mark.parametrize("model_type", list(ModelType), ids=lambda t: t.value)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_weighted_fit_rows_equal_single_fits(model_type, seed):
    coords, W = _weight_stack(model_type, seed)
    params, ok = fit_weight_rows(model_type, coords, W)
    assert params.shape == (len(W), model_type.n_params)
    assert not ok[0] and not ok[1] and ok[2:].all()
    for i, w in enumerate(W):
        if ok[i]:
            assert np.array_equal(params[i],
                                  fit_nonminimal(model_type, coords, w).params)
        else:
            with pytest.raises(DegenerateSample):
                fit_nonminimal(model_type, coords, w)


@pytest.mark.parametrize("model_type", list(ModelType), ids=lambda t: t.value)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_residual_rows_equal_single_rows(model_type, seed):
    coords, W = _weight_stack(model_type, seed)
    params, ok = fit_weight_rows(model_type, coords, W)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(4, model_type.n_params))
    P = np.vstack([params[ok], [make_instance(model_type, p).params
                                for p in raw]])
    R = _residuals(model_type, P, coords)
    assert R.shape == (len(P), len(coords))
    for i, p in enumerate(P):
        assert np.array_equal(
            R[i], residuals(ModelInstance(model_type, p), coords))


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


def test_singular_homography_in_stack_has_inf_residuals():
    # np.linalg.inv rejects a stack holding a singular matrix, so each
    # matrix is inverted alone and the singular one gets a NaN inverse
    rng = np.random.default_rng(12)
    coords = rng.uniform(0, 100, size=(30, 4))
    P = np.eye(3).ravel() + rng.normal(0, 0.01, size=(4, 9))
    P[2, 2::3] = 0.0                  # third column zero: singular
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R = _residuals(ModelType.HOMOGRAPHY, P, coords)
    assert np.all(np.isinf(R[2]))
    for i in (0, 1, 3):
        assert np.array_equal(
            R[i], residuals(ModelInstance(ModelType.HOMOGRAPHY, P[i]), coords))


def test_segment_residual_clamps_to_endpoints():
    seg = fit_minimal(ModelType.SEGMENT2D,
                      np.array([[0.0, 0.0], [10.0, 0.0]]))[0]
    assert residuals(seg, np.array([5.0, 2.0])[None])[0] == pytest.approx(2.0)
    assert residuals(seg, np.array([13.0, 4.0])[None])[0] == pytest.approx(5.0)
    assert residuals(seg, np.array([-3.0, 4.0])[None])[0] == pytest.approx(5.0)
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


def test_area_tolerance_is_one_at_epsilon_3():
    # at epsilon = 3 both screens flag a triangle of area below exactly 1,
    # the pixel tolerance the pinned fits were made with: a triangle of
    # area 1 passes, one of the next smaller area does not
    for y, flagged in ((1.0, False), (np.nextafter(1.0, 0.0), True)):
        tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, y]])
        plane = np.column_stack([tri, np.zeros(3)])
        assert sample_degenerate(ModelType.PLANE3D, plane, 3.0) is flagged
        quad = np.vstack([tri, [10.0, 10.0]])
        corr = np.column_stack([quad, quad])
        assert sample_degenerate(ModelType.HOMOGRAPHY, corr, 3.0) is flagged


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
    # the collinearity threshold is an area in units of epsilon^2, so at a
    # fixed epsilon the verdict may change with the scale of an image but
    # not with its rotation or shift
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


def _homography_sample_ok_oracle(sample, epsilon):
    """Every triple area at least COLLINEAR_AREA_TOL epsilon^2 in both
    images, and the same hull, traversed in the same cyclic order, in both
    images."""
    tol = COLLINEAR_AREA_TOL * epsilon ** 2
    h1 = _hull_cycle(sample[:, :2], tol)
    h2 = _hull_cycle(sample[:, 2:], tol)
    if h1 is None or h2 is None or sorted(h1) != sorted(h2):
        return False
    shift = h2.index(h1[0])
    return h2[shift:] + h2[:shift] == h1


# coordinates within +-100 keep the rounding error of every cross product
# far below the area threshold, so the two tests see the same verdicts; the
# scale 2^k multiplies the coordinates and epsilon alike, exactly
@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-100.0, 100.0), min_size=16, max_size=16),
       st.sampled_from([-10, 0, 10]))
def test_cheirality_matches_hull_cycle_oracle(values, k):
    sample = np.array(values).reshape(4, 4) * 2.0 ** k
    eps = 3.0 * 2.0 ** k
    assert (sample_degenerate(ModelType.HOMOGRAPHY, sample, eps)
            != _homography_sample_ok_oracle(sample, eps))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=16, max_size=16),
       st.sampled_from([-10, 0, 10]))
def test_cheirality_matches_hull_cycle_oracle_on_grid(values, k):
    # a 4x4 grid makes collinear triples and repeated points common
    sample = np.array(values, dtype=float).reshape(4, 4) * 2.0 ** k
    eps = 3.0 * 2.0 ** k
    assert (sample_degenerate(ModelType.HOMOGRAPHY, sample, eps)
            != _homography_sample_ok_oracle(sample, eps))


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
    assert fundamental_planar_degenerate(corr, epsilon=3.0) is True
    corr_general, _, _ = make_f_scene(seed=43, n=7)
    assert fundamental_planar_degenerate(corr_general, epsilon=3.0) is False
