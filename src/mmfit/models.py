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
sample screen, Hartley normalization, the homography DLT, the seven-point
solver, the rank-2 projection, parameter normalization and the oriented
epipolar test. A stack of line, segment or plane samples is B unit-weight
rows of the non-minimal fit below. Each treats a sample as its own batch
row or segment, with the same arithmetic as for one sample, so a sample's
result does not depend on the stack it comes in. minimal_candidates runs
a whole block of samples through screen, solver and orientation test and
returns plain rows, a (K, n_params) stack with each row's sample index;
fit_minimal and make_instance wrap the B = 1 rows in ModelInstance
objects. A degenerate sample in a stack has no row and raises nothing.

The non-minimal path and the residuals are written over stacks too, of K
weight or parameter rows on the same points: _fit_weighted fits K rows of
point weights given as (row, point, weight) triplets, so that a fit costs
its support and not n (batched total least squares for lines, segments and
planes; for homographies and fundamental matrices one pass over all rows'
segments, with one SVD of each row's own DLT or eight-point equations),
and _residuals scores a (K, n_params) stack into a (K, n) matrix, exact
below a loss cutoff (segments finish their endpoint clamp there alone).
fit_nonminimal, residuals and segment_endpoints are their K = 1 calls, and
a row's result does not depend on the stack it comes in.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateSample, DimensionMismatch

# triangle-area threshold of the homography and plane sample screens, in
# units of epsilon^2: 1 at epsilon = 3
COLLINEAR_AREA_TOL = 1 / 9
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
    """Immutable collection of points: coords is (n, d), weights is (n,)
    nonnegative, ones by default."""

    def __init__(self, coords, weights=None):
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        if coords.ndim > 2 or not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be a finite (n, d) array")
        if coords.size == 0:
            coords = coords.reshape(0, coords.shape[1] or 2)
        n = coords.shape[0]
        if weights is None:
            weights = np.ones(n)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,) or not np.all(
                (weights >= 0) & np.isfinite(weights)):
            raise ValueError("weights must be (n,) nonnegative and finite")
        coords.setflags(write=False)
        weights.setflags(write=False)
        self.coords = coords
        self.weights = weights

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

def hartley_normalization(pts: np.ndarray, starts: np.ndarray):
    """Similarities T mapping each segment of the points, the non-empty
    runs of rows that begin at the ascending indices starts (S,), to
    centroid 0 and mean distance sqrt(2). pts is (N, 2k), k images side by
    side, each with its own T. A segment's sums (np.add.reduceat) run over
    its own points alone. Returns the normalized (N, 2k) points and T,
    (S, k, 3, 3)."""
    counts = np.diff(starts, append=len(pts))[:, None]
    seg = np.repeat(np.arange(len(starts)), counts[:, 0])
    centroid = np.add.reduceat(pts, starts, axis=0) / counts
    centered = pts - centroid[seg]
    dist = np.sqrt(centered[:, 0::2] ** 2 + centered[:, 1::2] ** 2)
    mean_dist = np.add.reduceat(dist, starts, axis=0) / counts
    spread = mean_dist > 1e-300
    scale = np.where(spread, np.sqrt(2.0) / np.where(spread, mean_dist, 1.0), 1.0)
    T = np.zeros(scale.shape + (3, 3))
    T[..., 0, 0] = T[..., 1, 1] = scale
    T[..., 0, 2] = -scale * centroid[:, 0::2]
    T[..., 1, 2] = -scale * centroid[:, 1::2]
    T[..., 2, 2] = 1.0
    return centered * np.repeat(scale, 2, axis=1)[seg], T


def _two_view_equations(model_type: ModelType, corr: np.ndarray,
                        starts: np.ndarray):
    """Hartley-normalize both images of each segment of the (N, 4)
    correspondences (see hartley_normalization) and build their DLT
    equations: two rows per point, interleaved, for a homography (2N, 9);
    one eight-point row per point for a fundamental matrix (N, 9). Returns
    the equations and the (S, 3, 3) T1 and T2."""
    xn, T = hartley_normalization(corr, starts)
    u, v, up, vp = xn.T
    one, zero = np.ones_like(u), np.zeros_like(u)
    if model_type is ModelType.FUNDAMENTAL:
        return (np.stack([up * u, up * v, up, vp * u, vp * v, vp, u, v, one],
                         axis=-1), T[:, 0], T[:, 1])
    A = np.stack([u, v, one, zero, zero, zero, -up * u, -up * v, -up,
                  zero, zero, zero, u, v, one, -vp * u, -vp * v, -vp], axis=-1)
    return A.reshape(-1, 9), T[:, 0], T[:, 1]


def _denormalized(model_type: ModelType, M: np.ndarray, T1: np.ndarray,
                  T2: np.ndarray) -> np.ndarray:
    """(K, 3, 3) solutions in normalized coordinates mapped back to the
    images: T2^-1 H T1 for homographies, T2^T F T1 for fundamental matrices."""
    if model_type is ModelType.HOMOGRAPHY:
        return np.linalg.inv(T2) @ M @ T1
    return np.swapaxes(T2, -1, -2) @ M @ T1


def _project_rank2(F: np.ndarray) -> np.ndarray:
    """Closest rank-2 matrix to each 3x3 matrix of F, shape (..., 3, 3)."""
    U, s, Vt = np.linalg.svd(F)
    s[..., 2] = 0.0
    return (U * s[..., None, :]) @ Vt


# det(a F1 + (1 - a) F2) is cubic in a; it is fitted through these 4 values
_CUBIC_ALPHAS = np.array([0.0, 1.0, 2.0, -1.0])
_CUBIC_VANDERMONDE = np.vander(_CUBIC_ALPHAS, 4)  # columns: a^3, a^2, a, 1


def _fundamental_seven_point(samples: np.ndarray):
    """Seven-point solver over a (B, 7, 4) stack of samples. Returns the
    (K, 3, 3) real solutions, up to 3 per sample, the (K,) sample index of
    each, in sample order, and a (B,) mask of the samples whose system has
    rank 7."""
    A, T1, T2 = _two_view_equations(ModelType.FUNDAMENTAL,
                                    samples.reshape(-1, 4),
                                    np.arange(0, 7 * len(samples), 7))
    _, s, vh = np.linalg.svd(A.reshape(-1, 7, 9))
    full_rank = s[:, 6] > 1e-9 * np.maximum(s[:, 0], 1e-300)
    rows = np.flatnonzero(full_rank)
    F1 = vh[rows, -1].reshape(-1, 1, 3, 3)
    F2 = vh[rows, -2].reshape(-1, 1, 3, 3)
    a = _CUBIC_ALPHAS[:, None, None]
    dets = np.linalg.det(a * F1 + (1.0 - a) * F2)
    coeffs = np.linalg.solve(_CUBIC_VANDERMONDE, dets[..., None])[..., 0]
    which, roots = _real_cubic_roots(coeffs)
    a = roots[:, None, None]
    F = _denormalized(ModelType.FUNDAMENTAL,
                      _project_rank2(a * F1[which, 0] + (1.0 - a) * F2[which, 0]),
                      T1[rows[which]], T2[rows[which]])
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

def _solve_minimal(model_type: ModelType, samples: np.ndarray):
    """Minimal solver over a (B, m, dim) stack of samples. Returns the
    normalized (K, n_params) solutions, the (K,) sample index of each, in
    sample order, and a (B,) mask of the samples the solver could handle;
    the others (coincident line points, collinear plane points, a
    rank-deficient DLT or seven-point system) have no solution. Lines,
    segments and planes are B unit-weight rows of _fit_weighted."""
    if model_type is ModelType.HOMOGRAPHY:
        A, T1, T2 = _two_view_equations(model_type, samples.reshape(-1, 4),
                                        np.arange(0, 4 * len(samples), 4))
        _, s, vh = np.linalg.svd(A.reshape(-1, 8, 9))
        solvable = s[:, 7] > 1e-9 * np.maximum(s[:, 0], 1e-300)
        rows = np.flatnonzero(solvable)
        raw = _denormalized(model_type, vh[rows, -1].reshape(-1, 3, 3),
                            T1[rows], T2[rows]).reshape(-1, 9)
    elif model_type is ModelType.FUNDAMENTAL:
        F, rows, solvable = _fundamental_seven_point(samples)
        raw = F.reshape(-1, 9)
    else:
        B, m, dim = samples.shape
        params, solvable = _fit_weighted(
            model_type, samples.reshape(B * m, dim), np.repeat(np.arange(B), m),
            np.arange(B * m), np.ones(B * m), B)
        rows = np.flatnonzero(solvable)
        return params[rows], rows, solvable
    params, valid = _normalized(model_type, raw)
    return params[valid], rows[valid], solvable


def fit_minimal(model_type: ModelType, sample) -> list[ModelInstance]:
    """Fit from a minimal sample. Returns 0-3 instances (7-point F has up
    to 3 real roots; the other solvers yield 0 or 1). A line, segment or
    plane is fit_nonminimal of the m points at unit weight, and raises
    DegenerateSample exactly when that does."""
    coords = _as_coords(sample)
    _check_dim(model_type, coords)
    m = model_type.m
    if coords.shape[0] != m:
        raise ValueError(f"minimal sample for {model_type.value} has {m} points")
    if not np.all(np.isfinite(coords)):
        raise ValueError("coordinates must be finite")
    params, _, solvable = _solve_minimal(model_type, coords[None])
    if not solvable[0]:
        raise DegenerateSample(f"degenerate minimal sample for {model_type.value}")
    return [ModelInstance(model_type, p) for p in params]


def minimal_candidates(model_type: ModelType, samples, epsilon: float):
    """Screen, solve and orient a (B, m, dim) stack of minimal samples in
    one pass. Returns the (K, n_params) candidate rows and the (K,) index
    of each row's sample, ascending: no row for a sample that _degenerate
    flags at inlier threshold epsilon or the solver cannot handle,
    otherwise the rows of what fit_minimal returns, for fundamental
    matrices only the solutions that pass _oriented_epipolar. Each sample's rows do not depend on the
    others in the stack."""
    samples = np.asarray(samples, dtype=float)
    screened = np.flatnonzero(~_degenerate(model_type, samples, epsilon))
    params, rows, _ = _solve_minimal(model_type, samples[screened])
    rows = screened[rows]
    if model_type is ModelType.FUNDAMENTAL:
        ok = _oriented_epipolar(params.reshape(-1, 3, 3), samples[rows])
        params, rows = params[ok], rows[ok]
    return params, rows


def fit_nonminimal(model_type: ModelType, points, weights) -> ModelInstance:
    """Weighted algebraic least-squares fit over >= m points: the K = 1
    call of _fit_weighted. Zero-weight points are equivalent to excluding
    them. Raises ValueError for non-finite coordinates or weights and
    DegenerateSample when fewer than m weights are positive or the weighted
    system is degenerate."""
    coords = _as_coords(points)
    _check_dim(model_type, coords)
    w = np.asarray(weights, dtype=float)
    n = coords.shape[0]
    if w.shape != (n,):
        raise ValueError("weights must match point count")
    if not np.all(np.isfinite(coords)):
        raise ValueError("coordinates must be finite")
    if not np.all((w >= 0) & np.isfinite(w)):
        raise ValueError("weights must be nonnegative and finite")
    m = model_type.m
    if n < m:
        raise ValueError(f"need at least {m} points")
    params, ok = _fit_weighted(model_type, coords, np.zeros(n, dtype=int),
                               np.arange(n), w, 1)
    if not ok[0]:
        raise DegenerateSample(
            f"degenerate weighted system for {model_type.value}")
    return ModelInstance(model_type, params[0])


def _fit_weighted(model_type: ModelType, coords: np.ndarray, rows: np.ndarray,
                  pts: np.ndarray, w: np.ndarray, k: int):
    """Weighted non-minimal fit of k rows of point weights on the same
    (n, dim) coords, given as (row, point, weight) triplets: row-major, the
    points ascending within a row; weights <= 0 are dropped. Lines,
    segments and planes: weighted total least squares from per-row centroid
    and scatter sums by np.bincount, the normal in closed form for lines
    and segments and by one batched eigh for planes, and segment
    endpoints from the row's extremes of t = -b*x + a*y. Homographies and
    fundamental matrices: the weighted normalized DLT (eight-point with
    rank-2 projection for F), each row a segment of one pass that
    Hartley-normalizes, builds and weights the equations, projects and
    de-normalizes all rows together; only the SVD of each row's own
    equations runs per row. A row's sums run over its own points in order,
    so its result does not depend on the other rows. Returns the normalized
    (k, n_params) parameters and a (k,) mask ok; a row with fewer than m
    positive weights or a degenerate system (coincident or collinear
    points, a rank-deficient DLT) is not ok and raises nothing."""
    keep = w > 0
    rows, pts, w = rows[keep], pts[keep], w[keep]
    ok = np.bincount(rows, minlength=k) >= model_type.m
    keep = ok[rows]
    rows, pts, w = rows[keep], pts[keep], w[keep]
    fitted = np.flatnonzero(ok)
    raw = np.zeros((k, model_type.n_params))
    if model_type in (ModelType.LINE2D, ModelType.SEGMENT2D, ModelType.PLANE3D):
        dim = model_type.dim
        row = (np.cumsum(ok) - 1)[rows]   # index among the fitted rows

        def sums(v):
            return np.bincount(row, v, len(fitted))

        X = coords[pts]
        total = sums(w)
        centroid = np.column_stack([sums(w * X[:, j]) for j in range(dim)]
                                   ) / total[:, None]
        centered = X - centroid[row]
        weighted = centered * w[:, None]
        scatter = np.empty((len(fitted), dim, dim))
        for a in range(dim):
            for b in range(a, dim):
                scatter[:, a, b] = scatter[:, b, a] = sums(
                    weighted[:, a] * centered[:, b])
        if model_type is ModelType.PLANE3D:     # not collinear
            eigvals, eigvecs = np.linalg.eigh(scatter)
            normal = eigvecs[..., 0]
            ok[fitted] = eigvals[:, 1] > 1e-12 * np.maximum(eigvals[:, -1], 1e-300)
        else:
            # the major axis of [[p, q], [q, s]] lies at half the angle of
            # (p - s, 2q); (0, 1) is the normal of isotropic scatter
            p, q, s = scatter[:, 0, 0], scatter[:, 0, 1], scatter[:, 1, 1]
            half = 0.5 * np.arctan2(2.0 * q, p - s)
            normal = np.column_stack([-np.sin(half), np.cos(half)])
            # not coincident: the largest eigenvalue against _degenerate's d
            ok[fitted] = (0.5 * (p + s) + np.hypot(0.5 * (p - s), q)
                          > total * (COINCIDENT_POINT_TOL / 2.0) ** 2)
        raw[fitted, :dim] = normal
        raw[fitted, dim] = np.vecdot(-normal, centroid)
        if model_type is ModelType.SEGMENT2D and len(fitted):
            t = -normal[row, 1] * X[:, 0] + normal[row, 0] * X[:, 1]
            starts = np.searchsorted(row, np.arange(len(fitted)))
            raw[fitted, 3] = np.minimum.reduceat(t, starts)
            raw[fitted, 4] = np.maximum.reduceat(t, starts)
    else:
        # one pass over all rows but the SVD, which takes each row's own
        # contiguous equations: zero-padding the rows to one length moves
        # the last bits of a row's solution with its stack, and the normal
        # equations' eigenvalues err by ~1e-16 s[0]^2, too coarse for the
        # rank test on s[7]
        starts = np.searchsorted(rows, fitted)
        A, T1, T2 = _two_view_equations(model_type, coords[pts], starts)
        per = 2 if model_type is ModelType.HOMOGRAPHY else 1
        A *= np.repeat(np.sqrt(w), per)[:, None]
        ends = (per * np.append(starts, len(pts))).tolist()
        null, full_rank = np.empty((len(fitted), 9)), []
        for j, (a, b) in enumerate(zip(ends[:-1], ends[1:])):
            # fewer equations than unknowns need the full V^T
            _, s, vh = np.linalg.svd(A[a:b], full_matrices=b - a < 9)
            full_rank.append(len(s) > 7 and s[7] > 1e-9 * max(s[0], 1e-300))
            null[j] = vh[-1]
        ok[fitted] = full_rank
        M = null.reshape(-1, 3, 3)
        if model_type is ModelType.FUNDAMENTAL:
            M = _project_rank2(M)
        raw[fitted] = _denormalized(model_type, M, T1, T2).reshape(-1, 9)
    params, valid = _normalized(model_type, raw)
    return params, ok & valid


# ---------------------------------------------------------------------------
# Residuals

def residuals(instance: ModelInstance, coords) -> np.ndarray:
    """Vector of nonnegative residuals of the instance over (n, d) coords:
    the K = 1 call of _residuals.

    Line/segment: perpendicular distance (clamped to the nearest endpoint
    for segments). Plane: point-to-plane distance. Homography: symmetric
    transfer error sqrt((e_fwd^2 + e_bwd^2) / 2). Fundamental: Sampson
    distance. Units follow the input coordinates (pixels for image data).
    """
    coords = _as_coords(coords)
    _check_dim(instance.model_type, coords)
    return _residuals(instance.model_type, instance.params[None], coords)[0]


def _residuals(model_type: ModelType, P: np.ndarray, coords: np.ndarray,
               cutoff: float = np.inf) -> np.ndarray:
    """residuals of the rows of a (K, n_params) parameter stack over the
    same (n, dim) coords; a (K, n) matrix whose entries below cutoff are
    exact and whose other entries are some value >= cutoff. A projection
    onto the line or plane normal is one matrix-vector product per row
    (vector @ coords.T), the same product as for one instance. The line,
    segment, transfer and Sampson distances are finished in place, in the
    order of the plain expressions: a fresh (K, n) temporary per step costs
    more than its arithmetic for a block of candidates. A segment's
    endpoint clamp runs by flat index only on the entries whose line
    distance is not above 2 * cutoff; the others keep the line distance. A
    segment distance is never below its line distance, and a factor of 2
    is a margin that rounding cannot cross."""
    if model_type in (ModelType.LINE2D, ModelType.SEGMENT2D):
        a, b, c = P[:, 0, None], P[:, 1, None], P[:, 2, None]
        dot = (P[:, None, :2] @ coords.T)[:, 0]
        if model_type is ModelType.LINE2D:
            dot += c
            np.abs(dot, out=dot)
            dot /= np.hypot(a, b)
            return dot
        dot += c
        np.abs(dot, out=dot)
        dot /= np.sqrt(a * a + b * b)           # the line distance
        lo, hi = np.minimum(P[:, 3], P[:, 4]), np.maximum(P[:, 3], P[:, 4])
        ends, flat = _segment_endpoints(P), dot.reshape(-1)
        near = np.flatnonzero(~(dot > 2.0 * cutoff))
        # at most 16 slices of at least a row each, so that a full call's
        # slice buffers stay within one (K, n) matrix
        step = max(len(flat) // 16, len(coords)) + 1
        x, y = coords.T
        for s in range(0, len(near), step):
            i, j = np.divmod(near[s:s + step], len(coords))
            xj, yj = x.take(j), y.take(j)
            tp = -b.take(i) * xj
            tp += a.take(i) * yj
            # past an end, the distance from the endpoint on that side
            above = tp > hi.take(i)
            outside = np.flatnonzero(above | (tp < lo.take(i)))
            end = 2 * i.take(outside) + above.take(outside)
            dx = ends[:, :, 0].take(end) - xj.take(outside)
            dx *= dx
            dy = ends[:, :, 1].take(end) - yj.take(outside)
            dy *= dy
            flat[near.take(s + outside)] = np.sqrt(dx + dy)
        return dot

    if model_type is ModelType.PLANE3D:
        norm = np.sqrt(np.vecdot(P[:, :3], P[:, :3]))[:, None]
        return np.abs((P[:, None, :3] @ coords.T)[:, 0] + P[:, 3, None]) / norm

    M = P.reshape(-1, 3, 3)
    ones = np.ones(len(coords))
    x1 = np.stack([coords[:, 0], coords[:, 1], ones])
    x2 = np.stack([coords[:, 2], coords[:, 3], ones])

    def project(M, x):
        # M x for each of the K matrices by one (3K, 3) @ (3, n) product:
        # each homogeneous coordinate is a contiguous (K, n) row
        return (M.reshape(-1, 3) @ x).reshape(len(M), 3, x.shape[1])

    if model_type is ModelType.HOMOGRAPHY:
        # a singular H has an all-NaN inverse, so every error is inf
        e2 = _squared_transfer(project(M, x1), coords[:, 2], coords[:, 3])
        e2 += _squared_transfer(project(_inverse(M), x2), coords[:, 0],
                                coords[:, 1])
        e2 *= 0.5
        return np.sqrt(e2, out=e2)

    # fundamental matrix: Sampson distance; F x1 is freed before F^T x2
    Fx = project(M, x1)
    num = coords[:, 2] * Fx[:, 0]
    num += coords[:, 3] * Fx[:, 1]
    num += Fx[:, 2]
    np.abs(num, out=num)
    den = np.square(Fx[:, 0])
    den += np.square(Fx[:, 1], out=Fx[:, 1])
    del Fx
    Ftx = project(np.swapaxes(M, -1, -2), x2)
    den += np.square(Ftx[:, 0], out=Ftx[:, 0])
    den += np.square(Ftx[:, 1], out=Ftx[:, 1])
    del Ftx
    np.sqrt(den, out=den)
    ok = den > 1e-300
    np.divide(num, den, out=num, where=ok)
    np.copyto(num, np.inf, where=~ok)
    return num


def _squared_transfer(proj: np.ndarray, x: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
    """Squared distances from the (K, 3, n) projections, dehomogenised, to
    the points (x, y); inf where a point maps to infinity (|w| < 1e-12).
    One fresh (K, n) buffer; the projections are overwritten."""
    u, v, w = proj[:, 0], proj[:, 1], proj[:, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = u / w
        e -= x
        e *= e
        np.divide(v, w, out=v)
        v -= y
        v *= v
        e += v
    np.abs(w, out=w)
    np.copyto(e, np.inf, where=~(w >= 1e-12))
    return e


def _inverse(M: np.ndarray) -> np.ndarray:
    """Inverses of a (K, 3, 3) stack; all NaN for a singular matrix."""
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError:
        if len(M) == 1:
            return np.full_like(M, np.nan)
        return np.concatenate([_inverse(M[i:i + 1]) for i in range(len(M))])


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


def _degenerate(model_type: ModelType, samples: np.ndarray,
                epsilon: float) -> np.ndarray:
    """Which minimal samples of a (B, m, dim) stack cannot give a usable
    model at inlier threshold epsilon; a (B,) mask. Nearly collinear
    points span a triangle of area below COLLINEAR_AREA_TOL epsilon^2.
    Homography: any 3 of the 4 points nearly collinear in either image, or
    a triple whose orientation flips between the images (cheirality: the
    convex hulls differ or are traversed in different cyclic orders).
    Plane: the 3 points nearly collinear. Lines/segments: coincident
    points. Fundamental matrices are never flagged here."""
    if model_type in (ModelType.LINE2D, ModelType.SEGMENT2D):
        d = samples[:, 1] - samples[:, 0]
        return np.sqrt(np.vecdot(d, d)) < COINCIDENT_POINT_TOL
    tol = COLLINEAR_AREA_TOL * epsilon ** 2
    if model_type is ModelType.PLANE3D:
        n = np.cross(samples[:, 1] - samples[:, 0], samples[:, 2] - samples[:, 0])
        return 0.5 * np.sqrt(np.vecdot(n, n)) < tol
    if model_type is ModelType.HOMOGRAPHY:
        areas = _triangle_areas_2d(samples)
        return (np.any(np.abs(areas) < tol, axis=(1, 2))
                | np.any((areas[..., 0] > 0) != (areas[..., 1] > 0), axis=1))
    return np.zeros(len(samples), dtype=bool)


def _oriented_epipolar(F: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Oriented epipolar constraint over K fundamental matrices (K, 3, 3)
    and their samples (K, n, 4); a (K,) mask. A sample passes when every
    (e2 x p2) . (F p1), e2 the epipole in image 2, has the same nonzero sign."""
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


def fundamental_planar_degenerate(sample, epsilon: float) -> bool:
    """Dominant-plane check for a fundamental matrix fitted from 7 points:
    if a homography fitted to one of three 4-point subsets that pass the
    homography sample screen explains >= 5 of the 7 at threshold epsilon,
    the epipolar geometry is plane-degenerate."""
    coords = _as_coords(sample)
    if coords.shape[0] != 7:
        return False
    quads = coords[[(0, 1, 2, 3), (3, 4, 5, 6), (0, 2, 4, 6)]]
    quads = quads[~_degenerate(ModelType.HOMOGRAPHY, quads, epsilon)]
    homographies, _, _ = _solve_minimal(ModelType.HOMOGRAPHY, quads)
    explained = np.sum(_residuals(ModelType.HOMOGRAPHY, homographies, coords,
                                  epsilon) < epsilon, axis=1)
    return bool(np.any(explained >= 5))


# ---------------------------------------------------------------------------
# Geometry helpers shared by tests and reporting

def segment_endpoints(instance: ModelInstance) -> np.ndarray:
    """(2, 2) array with the two endpoint coordinates of a segment."""
    if instance.model_type is not ModelType.SEGMENT2D:
        raise ValueError("expects a segment")
    return _segment_endpoints(instance.params[None])[0]


def _segment_endpoints(P: np.ndarray) -> np.ndarray:
    """segment_endpoints of a (K, 5) parameter stack; (K, 2, 2), the
    endpoint of the smaller t first."""
    a, b, c = P[:, 0, None], P[:, 1, None], P[:, 2, None]
    t = np.sort(P[:, 3:5], axis=1)
    nrm2 = a * a + b * b
    return np.stack([(-c * a - t * b) / nrm2, (-c * b + t * a) / nrm2],
                    axis=-1)
