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

The minimal path is written once, over stacks of samples (B, m, dim): the
sample screen, Hartley normalization, the line, segment and plane closed
forms, the homography DLT, the seven-point solver, the rank-2 projection,
parameter normalization and the oriented epipolar test. Each works row by
row with the same arithmetic as for one sample, so a sample's result does
not depend on the stack it comes in. minimal_candidates runs a whole block
of samples through screen, solver and orientation test; sample_degenerate,
fit_minimal, oriented_epipolar_ok and make_instance are its B = 1 calls. A
degenerate sample in a stack has no solution and raises nothing.
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
    def from_string(cls, name) -> "ModelType":
        try:
            return cls(name.lower())
        except (AttributeError, ValueError):
            raise ValueError(f"unknown model type {name!r}") from None


class PointSet:
    """Immutable collection of points with optional ranking.

    coords is (n, d); weights is (n,); quality_rank is an (n,) integer
    array or None, lower meaning better. ranked_order, the points' stable
    best-first order argsort(quality_rank), is computed once here (None
    when unranked) for the PROSAC and P-NAPSAC draws.
    """

    def __init__(self, coords, weights=None, quality_rank=None):
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
        ranked_order = None
        if quality_rank is not None:
            quality_rank = np.asarray(quality_rank, dtype=int)
            if quality_rank.shape != (n,):
                raise ValueError("quality_rank must be (n,)")
            ranked_order = np.argsort(quality_rank, kind="stable")
        for arr in (coords, weights, quality_rank, ranked_order):
            if arr is not None:
                arr.setflags(write=False)
        self.coords = coords
        self.weights = weights
        self.quality_rank = quality_rank
        self.ranked_order = ranked_order

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
    p, valid = _normalized(model_type, np.asarray(params, dtype=float)[None])
    if not valid[0]:
        raise DegenerateSample(f"{model_type.value} parameters have zero norm")
    return ModelInstance(model_type, p[0])


def _normalized(model_type: ModelType, raw: np.ndarray):
    """make_instance over the rows of a (B, n_params) stack of raw
    parameters: scale the line or plane normal (the whole vector for 3x3
    models) to unit length, make the largest-magnitude coefficient
    positive and order segment endpoints. Returns the normalized copy and
    a (B,) mask of the rows whose norm is not zero. The norms use vecdot,
    which rounds as np.linalg.norm of a single vector does;
    np.linalg.norm(axis=1) may differ in the last bit."""
    if model_type in (ModelType.LINE2D, ModelType.SEGMENT2D):
        norm = np.hypot(raw[:, 0], raw[:, 1])
    elif model_type is ModelType.PLANE3D:
        norm = np.sqrt(np.vecdot(raw[:, :3], raw[:, :3]))
    else:
        norm = np.sqrt(np.vecdot(raw, raw))
    valid = ~(norm < 1e-300)
    p = raw / np.where(valid, norm, 1.0)[:, None]
    lead = p[:, :3] if model_type is ModelType.SEGMENT2D else p
    k = np.abs(lead).argmax(axis=1)
    np.negative(p, out=p, where=lead[np.arange(len(p)), k, None] < 0)
    if model_type is ModelType.SEGMENT2D:
        p[:, 3:5].sort(axis=1)
    return p, valid


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

    pts is one (n, 2) point set or a (..., n, 2) stack of them. Returns
    the normalized points, same shape, and T, (..., 3, 3).
    """
    centroid = pts.mean(axis=-2, keepdims=True)
    centered = pts - centroid
    mean_dist = np.mean(np.linalg.norm(centered, axis=-1), axis=-1)
    spread = mean_dist > 1e-300
    scale = np.where(spread, np.sqrt(2.0) / np.where(spread, mean_dist, 1.0), 1.0)
    T = np.zeros(scale.shape + (3, 3))
    T[..., 0, 0] = T[..., 1, 1] = scale
    T[..., :2, 2] = -scale[..., None] * centroid[..., 0, :]
    T[..., 2, 2] = 1.0
    return centered * scale[..., None, None], T


def _homography_dlt(x1, x2, weights):
    """Weighted normalized DLT over one (n, 2) correspondence set or a
    (..., n, 2) stack, with positive weights of shape (..., n). Returns the
    homographies (..., 3, 3), image1 -> image2, and a mask (...) of the
    systems of full rank."""
    x1n, T1 = hartley_normalization(x1)
    x2n, T2 = hartley_normalization(x2)
    n = weights.shape[-1]
    A = np.zeros(weights.shape[:-1] + (2 * n, 9))
    u, v = x1n[..., 0], x1n[..., 1]
    up, vp = x2n[..., 0], x2n[..., 1]
    A[..., 0::2, 0], A[..., 0::2, 1], A[..., 0::2, 2] = u, v, 1.0
    A[..., 0::2, 6], A[..., 0::2, 7], A[..., 0::2, 8] = -up * u, -up * v, -up
    A[..., 1::2, 3], A[..., 1::2, 4], A[..., 1::2, 5] = u, v, 1.0
    A[..., 1::2, 6], A[..., 1::2, 7], A[..., 1::2, 8] = -vp * u, -vp * v, -vp
    A *= np.repeat(np.sqrt(weights), 2, axis=-1)[..., None]
    # a system with fewer rows than columns needs the full V^T for its null
    # vector; a taller one skips the unused U
    _, s, vh = np.linalg.svd(A, full_matrices=2 * n < 9)
    full_rank = s[..., 7] > 1e-9 * np.maximum(s[..., 0], 1e-300)
    Hn = vh[..., -1, :].reshape(weights.shape[:-1] + (3, 3))
    return np.linalg.inv(T2) @ Hn @ T1, full_rank


def _fundamental_rows(x1n, x2n) -> np.ndarray:
    u, v = x1n[..., 0], x1n[..., 1]
    up, vp = x2n[..., 0], x2n[..., 1]
    one = np.ones_like(u)
    return np.stack([up * u, up * v, up, vp * u, vp * v, vp, u, v, one], axis=-1)


def _project_rank2(F: np.ndarray) -> np.ndarray:
    """Closest rank-2 matrix to each 3x3 matrix of F, shape (..., 3, 3)."""
    U, s, Vt = np.linalg.svd(F)
    s[..., 2] = 0.0
    return (U * s[..., None, :]) @ Vt


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


# det(a F1 + (1 - a) F2) is cubic in a; it is fitted through these 4 values
_CUBIC_ALPHAS = np.array([0.0, 1.0, 2.0, -1.0])
_CUBIC_VANDERMONDE = np.vander(_CUBIC_ALPHAS, 4)  # columns: a^3, a^2, a, 1


def _fundamental_seven_point(samples: np.ndarray):
    """Seven-point solver over a (B, 7, 4) stack of samples. Returns the
    (K, 3, 3) real solutions, up to 3 per sample, the (K,) sample index of
    each, in sample order, and a (B,) mask of the samples whose system has
    rank 7."""
    x1n, T1 = hartley_normalization(samples[..., :2])
    x2n, T2 = hartley_normalization(samples[..., 2:])
    _, s, vh = np.linalg.svd(_fundamental_rows(x1n, x2n))
    full_rank = s[:, 6] > 1e-9 * np.maximum(s[:, 0], 1e-300)
    rows = np.flatnonzero(full_rank)
    F1 = vh[rows, -1].reshape(-1, 1, 3, 3)
    F2 = vh[rows, -2].reshape(-1, 1, 3, 3)
    a = _CUBIC_ALPHAS[:, None, None]
    dets = np.linalg.det(a * F1 + (1.0 - a) * F2)
    coeffs = np.linalg.solve(_CUBIC_VANDERMONDE, dets[..., None])[..., 0]
    which, roots = _real_cubic_roots(coeffs)
    a = roots[:, None, None]
    F = (np.swapaxes(T2[rows[which]], -1, -2)
         @ _project_rank2(a * F1[which, 0] + (1.0 - a) * F2[which, 0])
         @ T1[rows[which]])
    return F, rows[which], full_rank


def _real_cubic_roots(coeffs: np.ndarray):
    """Real roots of the cubics with (R, 4) coefficients, highest power
    first, after scaling each row to a largest magnitude of 1: the
    companion-matrix eigenvalues whose imaginary part is within 1e-8 of
    the real part's magnitude. A row whose leading coefficient is at most
    1e-12 loses it, and a trailing exact zero is a root at 0, as np.roots
    has it; such rows go through np.roots one by one. Returns the (K,) row
    index and the (K,) value of each root, rows in order."""
    scale = np.max(np.abs(coeffs), axis=1)
    live = np.flatnonzero(~(scale < 1e-300))
    C = coeffs[live] / scale[live, None]
    roots = np.zeros((len(C), 3), dtype=complex)
    found = np.zeros((len(C), 3), dtype=bool)
    cubic = (np.abs(C[:, 0]) > 1e-12) & (C[:, 3] != 0)
    companion = np.zeros((int(cubic.sum()), 3, 3))
    companion[:, 0] = -C[cubic, 1:] / C[cubic, :1]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots[cubic] = np.linalg.eigvals(companion)
    found[cubic] = True
    for i in np.flatnonzero(~cubic):
        lead = np.flatnonzero(np.abs(C[i]) > 1e-12)[0]
        r = np.roots(C[i, lead:])
        roots[i, :len(r)], found[i, :len(r)] = r, True
    real = found & ~(np.abs(roots.imag) > 1e-8 * (1.0 + np.abs(roots.real)))
    row, k = np.nonzero(real)
    return live[row], roots.real[row, k]


# ---------------------------------------------------------------------------
# Minimal and non-minimal fitting

def _plane_normals(samples: np.ndarray) -> np.ndarray:
    """Normals (B, 3) of the planes through (B, 3, 3) point triples, with
    twice the triangle area as length."""
    return np.cross(samples[:, 1] - samples[:, 0], samples[:, 2] - samples[:, 0])


def _solve_minimal(model_type: ModelType, samples: np.ndarray):
    """Minimal solver over a (B, m, dim) stack of samples. Returns the
    normalized (K, n_params) solutions, the (K,) sample index of each, in
    sample order, and a (B,) mask of the samples the solver could handle;
    the others (coincident line points, collinear plane points, a
    rank-deficient DLT or seven-point system) have no solution."""
    if model_type in (ModelType.LINE2D, ModelType.SEGMENT2D):
        solvable = ~_degenerate(model_type, samples)   # coincident points
        rows = np.flatnonzero(solvable)
        p0, p1 = samples[rows, 0], samples[rows, 1]
        d = p1 - p0
        a, b = d[:, 1], -d[:, 0]
        c = -(a * p0[:, 0] + b * p0[:, 1])
        raw = np.empty((len(rows), model_type.n_params))
        if model_type is ModelType.LINE2D:
            raw[:, 0], raw[:, 1], raw[:, 2] = a, b, c
        else:
            norm = np.hypot(a, b)
            an, bn = a / norm, b / norm
            raw[:, 0], raw[:, 1], raw[:, 2] = an, bn, c / norm
            # endpoint parameters t of the two points; _normalized orders them
            raw[:, 3] = -bn * p0[:, 0] + an * p0[:, 1]
            raw[:, 4] = -bn * p1[:, 0] + an * p1[:, 1]
    elif model_type is ModelType.PLANE3D:
        n = _plane_normals(samples)
        solvable = ~(np.sqrt(np.vecdot(n, n)) < COINCIDENT_POINT_TOL)
        rows = np.flatnonzero(solvable)
        n = n[rows]
        raw = np.column_stack([n, np.vecdot(-n, samples[rows, 0])])
    elif model_type is ModelType.HOMOGRAPHY:
        H, solvable = _homography_dlt(samples[..., :2], samples[..., 2:],
                                      np.ones(samples.shape[:2]))
        rows = np.flatnonzero(solvable)
        raw = H[rows].reshape(-1, 9)
    else:
        F, rows, solvable = _fundamental_seven_point(samples)
        raw = F.reshape(-1, 9)
    params, valid = _normalized(model_type, raw)
    return params[valid], rows[valid], solvable


def fit_minimal(model_type: ModelType, sample) -> list[ModelInstance]:
    """Fit from a minimal sample. Returns 0-3 instances (7-point F has up
    to 3 real roots; the other solvers yield 0 or 1)."""
    coords = _as_coords(sample)
    _check_dim(model_type, coords)
    m = model_type.m
    if coords.shape[0] != m:
        raise ValueError(f"minimal sample for {model_type.value} has {m} points")
    params, _, solvable = _solve_minimal(model_type, coords[None])
    if not solvable[0]:
        raise DegenerateSample(f"degenerate minimal sample for {model_type.value}")
    return [ModelInstance(model_type, p) for p in params]


def minimal_candidates(model_type: ModelType, samples) -> list[list[ModelInstance]]:
    """Screen, solve and orient a (B, m, dim) stack of minimal samples in
    one pass. Per sample, the list of its candidate instances: empty when
    sample_degenerate rejects it or the solver cannot handle it, otherwise
    what fit_minimal returns, for fundamental matrices only the solutions
    that pass oriented_epipolar_ok. Each sample's result does not depend on
    the others in the stack."""
    samples = np.asarray(samples, dtype=float)
    screened = np.flatnonzero(~_degenerate(model_type, samples))
    params, rows, _ = _solve_minimal(model_type, samples[screened])
    rows = screened[rows]
    if model_type is ModelType.FUNDAMENTAL:
        ok = _oriented_epipolar(params.reshape(-1, 3, 3), samples[rows])
        params, rows = params[ok], rows[ok]
    out: list[list[ModelInstance]] = [[] for _ in range(len(samples))]
    for p, row in zip(params, rows.tolist()):
        out[row].append(ModelInstance(model_type, p))
    return out


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
        keep = w > 0
        H, full_rank = _homography_dlt(coords[:, :2][keep], coords[:, 2:][keep],
                                       w[keep])
        if not full_rank:
            raise DegenerateSample("homography system is rank deficient")
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
        lo, hi = sorted(p[3:5])
        tp = -b * coords[:, 0] + a * coords[:, 1]
        line_dist = np.abs(coords @ p[:2] + c) / np.sqrt(a * a + b * b)
        d_lo, d_hi = (np.linalg.norm(coords - end, axis=1)
                      for end in segment_endpoints(instance))
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
    both images, shape (..., triple, image) for a (..., 4, 4) sample or
    stack: column 0 from coordinates 0-1, column 1 from coordinates 2-3. A
    positive area is a counter-clockwise triple. With no triple collinear,
    the 4 signs of an image fix its convex hull and the hull's cyclic
    order."""
    base = coords[..., _TRI_I, :]
    v1 = coords[..., _TRI_J, :] - base
    v2 = coords[..., _TRI_K, :] - base
    return 0.5 * (v1[..., 0::2] * v2[..., 1::2] - v1[..., 1::2] * v2[..., 0::2])


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
    return bool(_degenerate(model_type, coords[None])[0])


def _degenerate(model_type: ModelType, samples: np.ndarray) -> np.ndarray:
    """sample_degenerate over a (B, m, dim) stack; a (B,) mask."""
    if model_type in (ModelType.LINE2D, ModelType.SEGMENT2D):
        d = samples[:, 1] - samples[:, 0]
        return np.sqrt(np.vecdot(d, d)) < COINCIDENT_POINT_TOL
    if model_type is ModelType.PLANE3D:
        n = _plane_normals(samples)
        return 0.5 * np.sqrt(np.vecdot(n, n)) < COLLINEAR_AREA_TOL
    if model_type is ModelType.HOMOGRAPHY:
        areas = _triangle_areas_2d(samples)
        return (np.any(np.abs(areas) < COLLINEAR_AREA_TOL, axis=(1, 2))
                | np.any((areas[..., 0] > 0) != (areas[..., 1] > 0), axis=1))
    return np.zeros(len(samples), dtype=bool)


def oriented_epipolar_ok(instance: ModelInstance, sample) -> bool:
    """Oriented epipolar constraint: every sample correspondence must give
    the same sign of (e2 x p2) . (F p1), where e2 is the epipole in the
    second image. A single inconsistent or vanishing sign rejects."""
    if instance.model_type is not ModelType.FUNDAMENTAL:
        raise ValueError("oriented epipolar test applies to fundamental matrices")
    coords = _as_coords(sample)
    _check_dim(ModelType.FUNDAMENTAL, coords)
    return bool(_oriented_epipolar(instance.matrix()[None], coords[None])[0])


def _oriented_epipolar(F: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """oriented_epipolar_ok over K fundamental matrices (K, 3, 3), each with
    its sample (K, n, 4); a (K,) mask."""
    U, _, _ = np.linalg.svd(F)
    e = U[:, None, :, 2]          # epipole in image 2, (K, 1, 3)
    ones = np.ones(samples.shape[:2] + (1,))
    x1 = np.concatenate([samples[..., :2], ones], axis=-1)
    x2 = np.concatenate([samples[..., 2:], ones], axis=-1)
    lines = x1 @ np.swapaxes(F, -1, -2)     # epipolar lines in image 2
    through = np.stack([e[..., 1] * x2[..., 2] - e[..., 2] * x2[..., 1],
                        e[..., 2] * x2[..., 0] - e[..., 0] * x2[..., 2],
                        e[..., 0] * x2[..., 1] - e[..., 1] * x2[..., 0]],
                       axis=-1)           # e x p2
    dots = np.sum(lines * through, axis=-1)
    scale = np.linalg.norm(lines, axis=-1) * np.linalg.norm(through, axis=-1)
    signs = np.sign(dots)
    return (~np.any(np.abs(dots) <= 1e-12 * np.maximum(scale, 1e-300), axis=1)
            & np.all(signs == signs[:, :1], axis=1))


def fundamental_planar_degenerate(instance: ModelInstance, sample,
                                  epsilon: float) -> bool:
    """Dominant-plane check for a fundamental matrix fitted from 7 points:
    if a homography fitted to one of three 4-point subsets that pass the
    homography sample screen explains >= 5 of the 7 at threshold epsilon,
    the epipolar geometry is plane-degenerate."""
    coords = _as_coords(sample)
    if coords.shape[0] != 7:
        return False
    quads = coords[[(0, 1, 2, 3), (3, 4, 5, 6), (0, 2, 4, 6)]]
    quads = quads[~_degenerate(ModelType.HOMOGRAPHY, quads)]
    homographies, _, _ = _solve_minimal(ModelType.HOMOGRAPHY, quads)
    return any(int(np.sum(residuals(ModelInstance(ModelType.HOMOGRAPHY, p),
                                    coords) < epsilon)) >= 5
               for p in homographies)


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
