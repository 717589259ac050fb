"""Geometric model classes: minimal/non-minimal solvers, residuals, degeneracy tests.

Supported models and their parameter vectors:

  Line2D            (a, b, c)                ax + by + c = 0, (a, b) unit
  LineSegment2D     (a, b, c, t_min, t_max)  line as above plus the endpoint
                                             parameters t = -b*x + a*y
  Plane3D           (a, b, c, d)             ax + by + cz + d = 0, (a, b, c) unit
  Homography        9 entries, row-major     Frobenius norm 1
  FundamentalMatrix 9 entries, row-major     Frobenius norm 1, rank 2

All parameter vectors are homogeneous: residuals are invariant to scaling
the vector by any nonzero factor (segments included, because the endpoint
parameters t are stored in the same scale as the line coefficients).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateSample, DimensionMismatch

COLLINEAR_AREA_TOL = 1.0       # px^2, triangle-area threshold for degeneracy tests
COINCIDENT_POINT_TOL = 1e-9


class ModelType(Enum):
    """Model family with its facts: minimal sample size m, point dimension
    dim, parameter count n_params and residual degrees of freedom dof (2 for
    point-to-line or point-to-plane distances, 4 for homography transfer, 1
    for Sampson). The value is the family's name."""

    LINE2D = ("line2d", 2, 2, 3, 2)
    SEGMENT2D = ("segment2d", 2, 2, 5, 2)
    PLANE3D = ("plane3d", 3, 3, 4, 2)
    HOMOGRAPHY = ("homography", 4, 4, 9, 4)
    FUNDAMENTAL = ("fundamental", 7, 4, 9, 1)

    def __new__(cls, value: str, m: int, dim: int, n_params: int, dof: int):
        member = object.__new__(cls)
        member._value_ = value
        member.m, member.dim, member.n_params, member.dof = m, dim, n_params, dof
        return member

    @classmethod
    def from_string(cls, name: str) -> "ModelType":
        for member in cls:
            if member.value == name.lower():
                return member
        raise ValueError(f"unknown model type {name!r}")


class PointSet:
    """Immutable collection of points with optional ranking and labels.

    coords is (n, d); weights is (n,); quality_rank and labels are (n,)
    integer arrays or None. Lower quality_rank means better.
    """

    def __init__(self, coords, weights=None, quality_rank=None, labels=None):
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        if coords.size == 0:
            coords = coords.reshape(0, coords.shape[1] if coords.ndim == 2 and coords.shape[1] else 2)
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        n = coords.shape[0]
        if weights is None:
            weights = np.ones(n)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,) or np.any(weights < 0):
            raise ValueError("weights must be (n,) nonnegative")
        if quality_rank is not None:
            quality_rank = np.asarray(quality_rank, dtype=int)
            if quality_rank.shape != (n,):
                raise ValueError("quality_rank must be (n,)")
        if labels is not None:
            labels = np.asarray(labels, dtype=int)
            if labels.shape != (n,):
                raise ValueError("labels must be (n,)")
        for arr in (coords, weights, quality_rank, labels):
            if arr is not None:
                arr.setflags(write=False)
        self.coords = coords
        self.weights = weights
        self.quality_rank = quality_rank
        self.labels = labels

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class ModelInstance:
    """A fitted model: type tag plus normalized parameter vector."""

    model_type: ModelType
    params: np.ndarray = field(repr=False)

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        if params.shape != (self.model_type.n_params,):
            raise ValueError(
                f"{self.model_type.value} needs {self.model_type.n_params} parameters"
            )
        params.setflags(write=False)
        object.__setattr__(self, "params", params)

    def matrix(self) -> np.ndarray:
        """3x3 matrix view for homography / fundamental parameters."""
        if self.model_type not in (ModelType.HOMOGRAPHY, ModelType.FUNDAMENTAL):
            raise ValueError("matrix() only applies to 3x3 models")
        return self.params.reshape(3, 3)


def make_instance(model_type: ModelType, params) -> ModelInstance:
    """Normalize, canonicalize sign, and validate a raw parameter vector."""
    p = np.asarray(params, dtype=float).copy()
    if model_type in (ModelType.LINE2D, ModelType.SEGMENT2D):
        norm = np.hypot(p[0], p[1])
        if norm < 1e-300:
            raise DegenerateSample("line normal has zero length")
        p[:3] /= norm
        if model_type is ModelType.SEGMENT2D:
            p[3:5] /= norm
    elif model_type is ModelType.PLANE3D:
        norm = np.linalg.norm(p[:3])
        if norm < 1e-300:
            raise DegenerateSample("plane normal has zero length")
        p /= norm
    else:
        norm = np.linalg.norm(p)
        if norm < 1e-300:
            raise DegenerateSample("zero parameter matrix")
        p /= norm
    # canonical sign: largest-magnitude coefficient positive
    lead = p[:3] if model_type is ModelType.SEGMENT2D else p
    k = int(np.argmax(np.abs(lead)))
    if lead[k] < 0:
        p = -p
    if model_type is ModelType.SEGMENT2D and p[3] > p[4]:
        p[3], p[4] = p[4], p[3]
    return ModelInstance(model_type, p)


def _as_coords(sample) -> np.ndarray:
    if isinstance(sample, PointSet):
        return sample.coords
    return np.atleast_2d(np.asarray(sample, dtype=float))


def _check_dim(model_type: ModelType, coords: np.ndarray):
    if coords.shape[1] != model_type.dim:
        raise DimensionMismatch(
            f"{model_type.value} expects dimension {model_type.dim}, "
            f"got {coords.shape[1]}"
        )


# ---------------------------------------------------------------------------
# Hartley normalization and DLT solvers

def hartley_normalization(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Similarity T mapping pts to centroid 0 and mean distance sqrt(2).

    Returns (normalized (n,2) points, T 3x3).
    """
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    mean_dist = np.mean(np.linalg.norm(centered, axis=1))
    scale = np.sqrt(2.0) / mean_dist if mean_dist > 1e-300 else 1.0
    T = np.array([
        [scale, 0.0, -scale * centroid[0]],
        [0.0, scale, -scale * centroid[1]],
        [0.0, 0.0, 1.0],
    ])
    return centered * scale, T


def _homography_dlt(x1, x2, weights) -> np.ndarray:
    """Weighted normalized DLT; returns a 3x3 homography (image1 -> image2)."""
    keep = weights > 0
    x1k, x2k, wk = x1[keep], x2[keep], weights[keep]
    n = x1k.shape[0]
    x1n, T1 = hartley_normalization(x1k)
    x2n, T2 = hartley_normalization(x2k)
    A = np.zeros((2 * n, 9))
    u, v = x1n[:, 0], x1n[:, 1]
    up, vp = x2n[:, 0], x2n[:, 1]
    A[0::2, 0], A[0::2, 1], A[0::2, 2] = u, v, 1.0
    A[0::2, 6], A[0::2, 7], A[0::2, 8] = -up * u, -up * v, -up
    A[1::2, 3], A[1::2, 4], A[1::2, 5] = u, v, 1.0
    A[1::2, 6], A[1::2, 7], A[1::2, 8] = -vp * u, -vp * v, -vp
    sw = np.sqrt(wk)
    A *= np.repeat(sw, 2)[:, None]
    # a system with fewer rows than columns needs the full V^T for its null
    # vector; a taller one skips the unused U
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    if s[7] <= 1e-9 * max(s[0], 1e-300):
        raise DegenerateSample("homography system is rank deficient")
    Hn = vh[-1].reshape(3, 3)
    H = np.linalg.inv(T2) @ Hn @ T1
    return H


def _fundamental_rows(x1n, x2n) -> np.ndarray:
    u, v = x1n[:, 0], x1n[:, 1]
    up, vp = x2n[:, 0], x2n[:, 1]
    one = np.ones_like(u)
    return np.column_stack([up * u, up * v, up, vp * u, vp * v, vp, u, v, one])


def _project_rank2(F: np.ndarray) -> np.ndarray:
    U, s, Vt = np.linalg.svd(F)
    s = s.copy()
    s[2] = 0.0
    return (U * s) @ Vt


def _fundamental_eight_point(x1, x2, weights) -> np.ndarray:
    """Weighted normalized eight-point estimate with rank-2 projection."""
    keep = weights > 0
    x1k, x2k, wk = x1[keep], x2[keep], weights[keep]
    x1n, T1 = hartley_normalization(x1k)
    x2n, T2 = hartley_normalization(x2k)
    A = _fundamental_rows(x1n, x2n) * np.sqrt(wk)[:, None]
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    if len(s) < 8 or s[7] <= 1e-9 * max(s[0], 1e-300):
        raise DegenerateSample("fundamental system is rank deficient")
    Fn = _project_rank2(vh[-1].reshape(3, 3))
    return T2.T @ Fn @ T1


def _fundamental_seven_point(x1, x2) -> list[np.ndarray]:
    """Seven-point solver; up to 3 real solutions."""
    x1n, T1 = hartley_normalization(x1)
    x2n, T2 = hartley_normalization(x2)
    A = _fundamental_rows(x1n, x2n)
    _, s, vh = np.linalg.svd(A)
    if s[6] <= 1e-9 * max(s[0], 1e-300):
        raise DegenerateSample("seven-point system is rank deficient")
    F1 = vh[-1].reshape(3, 3)
    F2 = vh[-2].reshape(3, 3)
    # det(alpha*F1 + (1-alpha)*F2) is cubic in alpha; fit it through 4 samples
    alphas = np.array([0.0, 1.0, 2.0, -1.0])
    dets = np.array([np.linalg.det(a * F1 + (1.0 - a) * F2) for a in alphas])
    V = np.vander(alphas, 4)  # columns: a^3, a^2, a, 1
    coeffs = np.linalg.solve(V, dets)
    scale = np.max(np.abs(coeffs))
    if scale < 1e-300:
        return []
    coeffs = coeffs / scale
    nz = np.nonzero(np.abs(coeffs) > 1e-12)[0]
    if len(nz) == 0:
        return []
    roots = np.roots(coeffs[nz[0]:])
    out = []
    for r in roots:
        if abs(r.imag) > 1e-8 * (1.0 + abs(r.real)):
            continue
        a = float(r.real)
        F = T2.T @ _project_rank2(a * F1 + (1.0 - a) * F2) @ T1
        if np.linalg.norm(F) > 1e-300:
            out.append(F)
    return out


# ---------------------------------------------------------------------------
# Minimal and non-minimal fitting

def fit_minimal(model_type: ModelType, sample) -> list[ModelInstance]:
    """Fit from a minimal sample. Returns 0-3 instances (7-point F has up
    to 3 real roots; the other solvers yield 0 or 1)."""
    coords = _as_coords(sample)
    _check_dim(model_type, coords)
    m = model_type.m
    if coords.shape[0] != m:
        raise ValueError(f"minimal sample for {model_type.value} has {m} points")

    if model_type in (ModelType.LINE2D, ModelType.SEGMENT2D):
        p0, p1 = coords
        d = p1 - p0
        if np.linalg.norm(d) < COINCIDENT_POINT_TOL:
            raise DegenerateSample("coincident points")
        a, b = d[1], -d[0]
        c = -(a * p0[0] + b * p0[1])
        if model_type is ModelType.LINE2D:
            return [make_instance(model_type, [a, b, c])]
        norm = np.hypot(a, b)
        an, bn = a / norm, b / norm
        t0 = -bn * p0[0] + an * p0[1]
        t1 = -bn * p1[0] + an * p1[1]
        return [make_instance(model_type, [an, bn, c / norm, min(t0, t1), max(t0, t1)])]

    if model_type is ModelType.PLANE3D:
        p0, p1, p2 = coords
        n = np.cross(p1 - p0, p2 - p0)
        if np.linalg.norm(n) < COINCIDENT_POINT_TOL:
            raise DegenerateSample("collinear points")
        d = -n @ p0
        return [make_instance(model_type, [*n, d])]

    if model_type is ModelType.HOMOGRAPHY:
        H = _homography_dlt(coords[:, :2], coords[:, 2:], np.ones(m))
        return [make_instance(model_type, H.ravel())]

    # fundamental matrix, seven-point
    Fs = _fundamental_seven_point(coords[:, :2], coords[:, 2:])
    return [make_instance(model_type, F.ravel()) for F in Fs]


def fit_nonminimal(model_type: ModelType, points, weights) -> ModelInstance:
    """Weighted algebraic least-squares fit over >= m points.

    Lines and planes use weighted total least squares; homographies and
    fundamental matrices use the weighted normalized DLT (with rank-2
    projection for F). Zero-weight points are equivalent to excluding them.
    """
    coords = _as_coords(points)
    _check_dim(model_type, coords)
    w = np.asarray(weights, dtype=float)
    if w.shape != (coords.shape[0],):
        raise ValueError("weights must match point count")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    m = model_type.m
    if coords.shape[0] < m:
        raise ValueError(f"need at least {m} points")
    if np.count_nonzero(w > 0) < m:
        raise DegenerateSample("fewer positive-weight points than the minimal sample size")

    if model_type in (ModelType.LINE2D, ModelType.SEGMENT2D, ModelType.PLANE3D):
        wsum = w.sum()
        centroid = (w[:, None] * coords).sum(axis=0) / wsum
        centered = coords - centroid
        scatter = (centered * w[:, None]).T @ centered
        eigvals, eigvecs = np.linalg.eigh(scatter)
        if model_type is ModelType.PLANE3D:
            normal = eigvecs[:, 0]
            if eigvals[1] <= 1e-12 * max(eigvals[-1], 1e-300):
                raise DegenerateSample("points are collinear")
        else:
            normal = eigvecs[:, 0]
            if eigvals[-1] <= 1e-300:
                raise DegenerateSample("points coincide")
        offset = -normal @ centroid
        params = [*normal, offset]
        if model_type is ModelType.SEGMENT2D:
            a, b = normal
            t = -b * coords[:, 0] + a * coords[:, 1]
            t = t[w > 0]
            params = [a, b, offset, t.min(), t.max()]
        return make_instance(model_type, params)

    if model_type is ModelType.HOMOGRAPHY:
        H = _homography_dlt(coords[:, :2], coords[:, 2:], w)
        return make_instance(model_type, H.ravel())

    F = _fundamental_eight_point(coords[:, :2], coords[:, 2:], w)
    return make_instance(model_type, F.ravel())


# ---------------------------------------------------------------------------
# Residuals

def residuals(instance: ModelInstance, coords) -> np.ndarray:
    """Vector of nonnegative residuals of the instance over (n, d) coords.

    Line/segment: perpendicular distance (clamped to the nearest endpoint
    for segments). Plane: point-to-plane distance. Homography: symmetric
    transfer error sqrt((e_fwd^2 + e_bwd^2) / 2). Fundamental: Sampson
    distance. Units follow the input coordinates (pixels for image data).
    """
    coords = _as_coords(coords)
    _check_dim(instance.model_type, coords)
    p = instance.params
    t = instance.model_type

    if t is ModelType.LINE2D:
        norm = np.hypot(p[0], p[1])
        return np.abs(coords @ p[:2] + p[2]) / norm

    if t is ModelType.SEGMENT2D:
        a, b, c = p[0], p[1], p[2]
        nrm2 = a * a + b * b
        lo, hi = (p[3], p[4]) if p[3] <= p[4] else (p[4], p[3])
        tp = -b * coords[:, 0] + a * coords[:, 1]
        line_dist = np.abs(coords @ p[:2] + c) / np.sqrt(nrm2)
        end_lo = np.array([(-c * a - lo * b) / nrm2, (-c * b + lo * a) / nrm2])
        end_hi = np.array([(-c * a - hi * b) / nrm2, (-c * b + hi * a) / nrm2])
        d_lo = np.linalg.norm(coords - end_lo, axis=1)
        d_hi = np.linalg.norm(coords - end_hi, axis=1)
        return np.where(tp < lo, d_lo, np.where(tp > hi, d_hi, line_dist))

    if t is ModelType.PLANE3D:
        norm = np.linalg.norm(p[:3])
        return np.abs(coords @ p[:3] + p[3]) / norm

    if t is ModelType.HOMOGRAPHY:
        H = p.reshape(3, 3)
        x1 = np.column_stack([coords[:, 0], coords[:, 1], np.ones(len(coords))])
        x2 = np.column_stack([coords[:, 2], coords[:, 3], np.ones(len(coords))])
        try:
            Hinv = np.linalg.inv(H)
        except np.linalg.LinAlgError:
            return np.full(len(coords), np.inf)
        fwd = x1 @ H.T
        bwd = x2 @ Hinv.T
        # a point mapped to infinity (|w| < 1e-12) either way has error inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            e2 = ((fwd[:, 0] / fwd[:, 2] - coords[:, 2]) ** 2
                  + (fwd[:, 1] / fwd[:, 2] - coords[:, 3]) ** 2)
            b2 = ((bwd[:, 0] / bwd[:, 2] - coords[:, 0]) ** 2
                  + (bwd[:, 1] / bwd[:, 2] - coords[:, 1]) ** 2)
        e2 = np.where(np.abs(fwd[:, 2]) >= 1e-12, e2, np.inf)
        b2 = np.where(np.abs(bwd[:, 2]) >= 1e-12, b2, np.inf)
        return np.sqrt(0.5 * (e2 + b2))

    # fundamental matrix: Sampson distance
    F = p.reshape(3, 3)
    x1 = np.column_stack([coords[:, 0], coords[:, 1], np.ones(len(coords))])
    x2 = np.column_stack([coords[:, 2], coords[:, 3], np.ones(len(coords))])
    Fx1 = x1 @ F.T
    Ftx2 = x2 @ F
    num = np.abs(np.sum(x2 * Fx1, axis=1))
    den = np.sqrt(Fx1[:, 0] ** 2 + Fx1[:, 1] ** 2 + Ftx2[:, 0] ** 2 + Ftx2[:, 1] ** 2)
    out = np.full(len(coords), np.inf)
    ok = den > 1e-300
    out[ok] = num[ok] / den[ok]
    return out


def residual(instance: ModelInstance, point) -> float:
    """Residual of a single point; see `residuals`."""
    coords = np.asarray(point, dtype=float).reshape(1, -1)
    return float(residuals(instance, coords)[0])


# ---------------------------------------------------------------------------
# Sample and model degeneracy tests

# the 4 point triples (i, j, k), i < j < k, of a 4-correspondence sample
_TRI_I, _TRI_J, _TRI_K = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]).T


def _triangle_areas_2d(coords: np.ndarray) -> np.ndarray:
    """Signed areas of the 4 point triples of a 4-correspondence sample in
    both images, shape (triple, image): column 0 from coordinates 0-1,
    column 1 from coordinates 2-3. A positive area is a counter-clockwise
    triple. With no triple collinear, the 4 signs of an image fix its
    convex hull and the hull's cyclic order."""
    base = coords[_TRI_I]
    v1 = coords[_TRI_J] - base
    v2 = coords[_TRI_K] - base
    return 0.5 * (v1[:, 0::2] * v2[:, 1::2] - v1[:, 1::2] * v2[:, 0::2])


def sample_degenerate(model_type: ModelType, sample) -> bool:
    """True when a minimal sample cannot produce a usable model.

    Homography: any 3 of the 4 points nearly collinear in either image, or
    a triple whose orientation flips between the images, i.e. the convex
    hulls differ or are traversed in different cyclic orders (cheirality).
    Plane: the 3 points nearly collinear. Lines/segments: coincident
    points. Fundamental matrices are never flagged here.
    """
    coords = _as_coords(sample)
    _check_dim(model_type, coords)
    if coords.shape[0] != model_type.m:
        raise ValueError("degeneracy test expects a minimal sample")

    if model_type in (ModelType.LINE2D, ModelType.SEGMENT2D):
        return bool(np.linalg.norm(coords[1] - coords[0]) < COINCIDENT_POINT_TOL)
    if model_type is ModelType.PLANE3D:
        n = np.cross(coords[1] - coords[0], coords[2] - coords[0])
        return bool(0.5 * np.linalg.norm(n) < COLLINEAR_AREA_TOL)
    if model_type is ModelType.HOMOGRAPHY:
        areas = _triangle_areas_2d(coords)
        return bool(np.any(np.abs(areas) < COLLINEAR_AREA_TOL)
                    or np.any((areas[:, 0] > 0) != (areas[:, 1] > 0)))
    return False


def oriented_epipolar_ok(instance: ModelInstance, sample) -> bool:
    """Oriented epipolar constraint: every sample correspondence must give
    the same sign of (e2 x p2) . (F p1), where e2 is the epipole in the
    second image. A single inconsistent or vanishing sign rejects."""
    if instance.model_type is not ModelType.FUNDAMENTAL:
        raise ValueError("oriented epipolar test applies to fundamental matrices")
    coords = _as_coords(sample)
    _check_dim(ModelType.FUNDAMENTAL, coords)
    F = instance.matrix()
    U, _, _ = np.linalg.svd(F)
    e2 = U[:, 2]
    x1 = np.column_stack([coords[:, 0], coords[:, 1], np.ones(len(coords))])
    x2 = np.column_stack([coords[:, 2], coords[:, 3], np.ones(len(coords))])
    lines = x1 @ F.T              # epipolar lines in image 2
    through = np.cross(np.broadcast_to(e2, x2.shape), x2)
    dots = np.sum(lines * through, axis=1)
    scale = np.linalg.norm(lines, axis=1) * np.linalg.norm(through, axis=1)
    signs = np.sign(dots)
    if np.any(np.abs(dots) <= 1e-12 * np.maximum(scale, 1e-300)):
        return False
    return bool(np.all(signs == signs[0]))


def fundamental_planar_degenerate(instance: ModelInstance, sample,
                                  epsilon: float) -> bool:
    """Dominant-plane check for a fundamental matrix fitted from 7 points:
    if a homography fitted to 4 of the sample points explains >= 5 of the 7
    at threshold epsilon, the epipolar geometry is plane-degenerate."""
    coords = _as_coords(sample)
    if coords.shape[0] != 7:
        return False
    for quad in ((0, 1, 2, 3), (3, 4, 5, 6), (0, 2, 4, 6)):
        pts = coords[list(quad)]
        # collinearity only: the quads are not screened for orientation
        # flips, so this test rejects the same F samples as it always has
        if np.any(np.abs(_triangle_areas_2d(pts)) < COLLINEAR_AREA_TOL):
            continue
        try:
            h = fit_minimal(ModelType.HOMOGRAPHY, pts)
        except DegenerateSample:
            continue
        if not h:
            continue
        if int(np.sum(residuals(h[0], coords) < epsilon)) >= 5:
            return True
    return False


# ---------------------------------------------------------------------------
# Geometry helpers shared by tests and reporting

def segment_endpoints(instance: ModelInstance) -> np.ndarray:
    """(2, 2) array with the two endpoint coordinates of a segment."""
    if instance.model_type is not ModelType.SEGMENT2D:
        raise ValueError("expects a segment")
    a, b, c, lo, hi = instance.params
    nrm2 = a * a + b * b
    if lo > hi:
        lo, hi = hi, lo
    return np.array([
        [(-c * a - lo * b) / nrm2, (-c * b + lo * a) / nrm2],
        [(-c * a - hi * b) / nrm2, (-c * b + hi * a) / nrm2],
    ])
