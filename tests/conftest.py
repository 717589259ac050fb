import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from mmfit.engine import _consolidate, default_config
from mmfit.models import (
    ModelInstance,
    ModelType,
    PointSet,
    _degenerate,
    _normalized,
    _oriented_epipolar,
    make_instance,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str) -> str:
    """Standard output of code run in a fresh interpreter that imports the
    package from src: a test process has long imported what the code
    would load."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def consolidate_fixed(loss_rows, q_min=1.0):
    """_consolidate of a loss stack whose rows are all flagged fixed, so that
    no IRLS runs; each row's parameter is its input index. Returns the
    indices of the rows kept."""
    k, n = loss_rows.shape
    cfg = default_config(ModelType.LINE2D, 3.0, q_min=q_min)
    points = PointSet(np.random.default_rng(0).uniform(0, 100, (n, 2)))
    params = np.zeros((k, 3))
    params[:, 0] = np.arange(k)
    out, _, loss_out, _ = _consolidate(
        ModelType.LINE2D, [params], [loss_rows], [loss_rows],
        [np.ones(k, dtype=bool)], points, cfg)
    assert np.array_equal(loss_out, loss_rows[out[:, 0].astype(int)])
    return out[:, 0].astype(int).tolist()


def make_camera_pair(rng, max_rotation_deg=15.0):
    """Random calibrated pair (K, R, t) with a modest rotation, convention
    x2 = R x1 + t."""
    f = 800.0
    K = np.array([[f, 0.0, 400.0], [0.0, f, 400.0], [0.0, 0.0, 1.0]])
    rotvec = rng.normal(size=3)
    rotvec *= np.radians(max_rotation_deg) * rng.uniform(0.2, 1.0) / np.linalg.norm(rotvec)
    R = Rotation.from_rotvec(rotvec).as_matrix()
    t = rng.normal(size=3)
    t *= 0.5 / np.linalg.norm(t)
    return K, R, t


def project_points(K, R, t, X):
    """Pixel projections in both views plus the two depth vectors."""
    X = np.atleast_2d(X)
    X2 = X @ R.T + t
    p1 = (K @ X.T).T
    p2 = (K @ X2.T).T
    return (p1[:, :2] / p1[:, 2:3], p2[:, :2] / p2[:, 2:3],
            X[:, 2].copy(), X2[:, 2].copy())


def visible_cloud(rng, K, R, t, n, depth=(2.0, 6.0), extent=800.0):
    """3D points in front of both cameras projecting inside both images."""
    Kinv = np.linalg.inv(K)
    out = []
    while len(out) < n:
        px = rng.uniform(0.1 * extent, 0.9 * extent, size=2)
        ray = Kinv @ np.array([px[0], px[1], 1.0])
        X = ray * rng.uniform(*depth) / ray[2]
        X2 = R @ X + t
        if X2[2] <= 0.1:
            continue
        p2 = K @ X2
        p2 = p2[:2] / p2[2]
        if not (0 <= p2[0] <= extent and 0 <= p2[1] <= extent):
            continue
        out.append(X)
    return np.array(out)


def fundamental_from_cameras(K1, R, t, K2=None):
    if K2 is None:
        K2 = K1
    tx = np.array([[0.0, -t[2], t[1]], [t[2], 0.0, -t[0]], [-t[1], t[0], 0.0]])
    F = np.linalg.inv(K2).T @ tx @ R @ np.linalg.inv(K1)
    return F / np.linalg.norm(F)


def make_f_scene(seed=0, n=7):
    """Exact correspondences from a known camera pair plus the true F."""
    rng = np.random.default_rng(seed)
    K, R, t = make_camera_pair(rng)
    X = visible_cloud(rng, K, R, t, n)
    p1, p2, z1, z2 = project_points(K, R, t, X)
    corr = np.column_stack([p1, p2])
    return corr, fundamental_from_cameras(K, R, t), (K, R, t, X)


def sample_degenerate(model_type: ModelType, sample, epsilon=3.0) -> bool:
    """models._degenerate on one minimal sample, by default at epsilon = 3,
    whose area tolerance is 1 in the sample's units."""
    return bool(_degenerate(model_type, np.asarray(sample, dtype=float)[None],
                            epsilon)[0])


def oriented_epipolar_ok(instance: ModelInstance, sample) -> bool:
    """models._oriented_epipolar on one fundamental matrix and its sample."""
    return bool(_oriented_epipolar(instance.matrix()[None],
                                   np.asarray(sample, dtype=float)[None])[0])


def dense_fit_weighted(model_type: ModelType, coords, W):
    """Reference of models._fit_weighted for lines, segments and planes over
    a dense (K, n) weight stack: weighted centroids summed over all n
    points, one batched matmul for the scatter matrices and one batched
    eigh. Returns the normalized (K, n_params) parameters and a (K,) mask
    ok, as the kernel does."""
    pos = W > 0
    ok = np.count_nonzero(pos, axis=1) >= model_type.m
    rows = np.flatnonzero(ok)
    raw = np.zeros((len(W), model_type.n_params))
    wT = np.ascontiguousarray(W[rows].T)
    dim = model_type.dim
    weighted = np.empty((len(coords), len(rows), dim))
    centered = np.empty_like(weighted)
    for j in range(dim):
        np.multiply(wT, coords[:, j, None], out=weighted[..., j])
    centroid = weighted.sum(axis=0) / W.sum(axis=1)[rows, None]
    for j in range(dim):
        np.subtract(coords[:, j, None], centroid[:, j], out=centered[..., j])
        np.multiply(centered[..., j], wT, out=weighted[..., j])
    scatter = weighted.transpose(1, 2, 0) @ centered.transpose(1, 0, 2)
    eigvals, eigvecs = np.linalg.eigh(scatter)
    normal = eigvecs[..., 0]
    if model_type is ModelType.PLANE3D:
        ok[rows] = eigvals[:, 1] > 1e-12 * np.maximum(eigvals[:, -1], 1e-300)
    else:
        ok[rows] = eigvals[:, -1] > 1e-300
    raw[rows, :dim] = normal
    raw[rows, dim] = np.vecdot(-normal, centroid)
    if model_type is ModelType.SEGMENT2D:
        t = (-normal[:, 1, None] * coords[:, 0]
             + normal[:, 0, None] * coords[:, 1])
        raw[rows, 3] = np.where(pos[rows], t, np.inf).min(axis=1)
        raw[rows, 4] = np.where(pos[rows], t, -np.inf).max(axis=1)
    params, valid = _normalized(model_type, raw)
    return params, ok & valid


def two_view_dlt_reference(model_type: ModelType, corr, w):
    """Per-row reference of models._fit_weighted for homographies and
    fundamental matrices: the weighted normalized DLT (eight-point with
    rank-2 projection for F) of one (n, 4) correspondence set with positive
    weights (n,), each image Hartley-normalized by np.mean and the null
    vector taken from a full SVD. Returns the normalized parameters and
    whether the system has rank 8."""
    def hartley(pts):
        centroid = pts.mean(axis=0)
        centered = pts - centroid
        scale = np.sqrt(2.0) / np.mean(np.linalg.norm(centered, axis=1))
        T = np.diag([scale, scale, 1.0])
        T[:2, 2] = -scale * centroid
        return centered * scale, T

    x1n, T1 = hartley(corr[:, :2])
    x2n, T2 = hartley(corr[:, 2:])
    (u, v), (up, vp) = x1n.T, x2n.T
    one, zero = np.ones_like(u), np.zeros_like(u)
    if model_type is ModelType.HOMOGRAPHY:
        A = np.vstack([
            np.column_stack([u, v, one, zero, zero, zero, -up * u, -up * v, -up]),
            np.column_stack([zero, zero, zero, u, v, one, -vp * u, -vp * v, -vp])])
        A *= np.sqrt(np.tile(w, 2))[:, None]
    else:
        A = np.column_stack([up * u, up * v, up, vp * u, vp * v, vp, u, v, one])
        A *= np.sqrt(w)[:, None]
    _, s, vh = np.linalg.svd(A)
    full_rank = len(s) >= 8 and s[7] > 1e-9 * s[0]
    M = vh[-1].reshape(3, 3)
    if model_type is ModelType.HOMOGRAPHY:
        M = np.linalg.inv(T2) @ M @ T1
    else:
        U, sv, Vt = np.linalg.svd(M)
        M = T2.T @ U @ np.diag([sv[0], sv[1], 0.0]) @ Vt @ T1
    return make_instance(model_type, M.ravel()).params, full_rank


def line_instance(a, b, c):
    return make_instance(ModelType.LINE2D, [a, b, c])


def line_angle_offset(inst_a, inst_b):
    """(degrees between normals mod 180, offset difference) of two lines.

    The angle comes from the cross product so that sub-microdegree
    differences are resolvable (arccos of the dot saturates near 1).
    """
    na, nb = inst_a.params[:2], inst_b.params[:2]
    cross = abs(float(na[0] * nb[1] - na[1] * nb[0]))
    ang = np.degrees(np.arcsin(min(cross, 1.0)))
    off = abs(abs(inst_a.params[2]) - abs(inst_b.params[2]))
    return ang, off


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
