"""Relative-pose recovery from homographies and essential matrices.

Calibrated homographies decompose analytically into up to four
(R, t, n) candidates; candidates from one or more homographies plus an
optional essential matrix are ranked by triangulation support, and the
winner's translation is re-estimated linearly from its inliers with the
rotation held fixed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .engine import EngineConfig, fit
from .errors import (
    DegenerateHomography,
    DegenerateSample,
    NoValidPose,
    RankDeficient,
)
from .models import ModelType, PointSet, fit_nonminimal

# singular-value spread of the calibrated homography below which it is
# taken for a pure rotation
EQUAL_SV_TOL = 1e-6
# a triangulated point supports a pose when it reprojects within this many
# epsilon in both images: 4 px at epsilon = 3
REPROJECTION_TOL = 4 / 3


@dataclass(frozen=True)
class RelativePose:
    """Rotation plus unit translation direction (zero for pure rotation)."""

    rotation: np.ndarray
    translation: np.ndarray
    source: str = "homography"         # "essential" or "homography"
    support: int = 0
    zero_translation: bool = False

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if R.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if np.linalg.norm(R.T @ R - np.eye(3)) > 1e-6 or abs(np.linalg.det(R) - 1) > 1e-6:
            raise ValueError("rotation must be orthonormal with det +1")
        norm = np.linalg.norm(t)
        if self.zero_translation:
            t = np.zeros(3)
        elif norm > 0:
            t = t / norm
        else:
            raise ValueError("translation must be nonzero unless flagged")
        R.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)


@dataclass(frozen=True)
class HomographyDecomposition:
    pose: RelativePose
    normal: np.ndarray
    scaled_translation: np.ndarray     # t / d, satisfies Hn = R + t_scaled n^T


def _closest_rotation(M: np.ndarray) -> np.ndarray:
    U, _, Vt = np.linalg.svd(M)
    R = U @ Vt
    if np.linalg.det(R) < 0:
        R = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    return R


def decompose_homography(H: np.ndarray, K1: np.ndarray,
                         K2: np.ndarray) -> list[HomographyDecomposition]:
    """Analytic decomposition of a homography into (R, t, n) candidates.

    The calibrated homography K2^-1 H K1 is normalized by its middle
    singular value; every returned candidate satisfies
    Hn = R + t_scaled n^T. Nearly equal singular values indicate a pure
    rotation, which returns the single rotation with a zero-translation
    flag. A nearly singular H raises DegenerateHomography.
    """
    H = np.asarray(H, dtype=float)
    Hn = np.linalg.inv(K2) @ H @ np.asarray(K1, dtype=float)
    s = np.linalg.svd(Hn, compute_uv=False)
    if s[2] <= 1e-9 * s[0]:
        raise DegenerateHomography("homography is singular")
    Hn = Hn / s[1]
    if np.linalg.det(Hn) < 0:
        Hn = -Hn
    s1, _, s3 = s / s[1]

    if (s1 - s3) < EQUAL_SV_TOL:
        R = _closest_rotation(Hn)
        pose = RelativePose(R, np.zeros(3), "homography", zero_translation=True)
        return [HomographyDecomposition(pose, np.zeros(3), np.zeros(3))]

    # eigen decomposition of Hn^T Hn with middle eigenvalue 1
    _, _, Vt = np.linalg.svd(Hn)
    v1, v2, v3 = Vt[0], Vt[1], Vt[2]
    a = np.sqrt(max(1.0 - s3 * s3, 0.0))
    b = np.sqrt(max(s1 * s1 - 1.0, 0.0))
    denom = np.sqrt(s1 * s1 - s3 * s3)
    u1 = (a * v1 + b * v3) / denom
    u2 = (a * v1 - b * v3) / denom

    out = []
    for u in (u1, u2):
        U = np.column_stack([v2, u, np.cross(v2, u)])
        Hv2, Hu = Hn @ v2, Hn @ u
        W = np.column_stack([Hv2, Hu, np.cross(Hv2, Hu)])
        R = W @ U.T
        R = _closest_rotation(R)
        normal = np.cross(v2, u)
        t_scaled = (Hn - R) @ normal
        for sign in (1.0, -1.0):
            ts = sign * t_scaled
            nn = sign * normal
            if np.linalg.norm(ts) < 1e-12:
                pose = RelativePose(R, np.zeros(3), "homography",
                                    zero_translation=True)
            else:
                pose = RelativePose(R, ts, "homography")
            out.append(HomographyDecomposition(pose, nn, ts))
    return out


def decompose_essential(E: np.ndarray) -> list[RelativePose]:
    """Standard four-way decomposition of an essential matrix."""
    U, _, Vt = np.linalg.svd(np.asarray(E, dtype=float))
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t = U[:, 2]
    out = []
    for R in (U @ W @ Vt, U @ W.T @ Vt):
        for sign in (1.0, -1.0):
            out.append(RelativePose(R, sign * t, "essential"))
    return out


# ---------------------------------------------------------------------------
# Triangulation-based candidate ranking

def triangulate_midpoint(pose: RelativePose, x1: np.ndarray, x2: np.ndarray,
                         K1: np.ndarray, K2: np.ndarray) -> np.ndarray:
    """Midpoint triangulation of pixel correspondences under x2 = R x1 + t.

    Returns (n, 3) points in the first camera frame. Parallel rays yield
    points far away rather than errors.
    """
    n = len(x1)
    ones = np.ones(n)
    d1 = (np.linalg.inv(K1) @ np.column_stack([x1, ones]).T).T
    d1 /= np.linalg.norm(d1, axis=1, keepdims=True)
    R, t = pose.rotation, pose.translation
    c2 = -R.T @ t
    d2 = (R.T @ np.linalg.inv(K2) @ np.column_stack([x2, ones]).T).T
    d2 /= np.linalg.norm(d2, axis=1, keepdims=True)
    b = np.sum(d1 * d2, axis=1)
    denom = np.maximum(1.0 - b * b, 1e-12)
    s1 = (d1 @ c2 - b * (d2 @ c2)) / denom
    s2 = (b * (d1 @ c2) - (d2 @ c2)) / denom
    p_on_1 = s1[:, None] * d1
    p_on_2 = c2 + s2[:, None] * d2
    return 0.5 * (p_on_1 + p_on_2)


def pose_support(pose: RelativePose, correspondences: np.ndarray,
                 K1: np.ndarray, K2: np.ndarray, epsilon: float) -> np.ndarray:
    """Boolean inlier mask: positive depth in both views and reprojection
    error below REPROJECTION_TOL * epsilon in both images, epsilon being
    the fit's inlier threshold in pixels."""
    corr = np.asarray(correspondences, dtype=float)
    x1, x2 = corr[:, :2], corr[:, 2:]
    X = triangulate_midpoint(pose, x1, x2, K1, K2)
    X2 = X @ pose.rotation.T + pose.translation
    z1, z2 = X[:, 2], X2[:, 2]
    ok = (z1 > 1e-12) & (z2 > 1e-12)
    err = np.full(len(corr), np.inf)
    if np.any(ok):
        p1 = (K1 @ X[ok].T).T
        p2 = (K2 @ X2[ok].T).T
        e1 = np.linalg.norm(p1[:, :2] / p1[:, 2:3] - x1[ok], axis=1)
        e2 = np.linalg.norm(p2[:, :2] / p2[:, 2:3] - x2[ok], axis=1)
        err[ok] = np.maximum(e1, e2)
    return ok & (err < REPROJECTION_TOL * epsilon)


def select_pose(candidates: list[RelativePose], correspondences,
                K1: np.ndarray, K2: np.ndarray, epsilon: float) -> RelativePose:
    """Pick the candidate with the most triangulation inliers (pose_support
    at REPROJECTION_TOL * epsilon), then re-estimate its translation from
    those inliers with the rotation held fixed. Ties prefer
    essential-matrix candidates, then lower index.
    Raises NoValidPose when every candidate has zero support."""
    if not candidates:
        raise NoValidPose("no pose candidates")
    corr = np.asarray(correspondences, dtype=float)
    masks = [pose_support(c, corr, K1, K2, epsilon) for c in candidates]
    supports = [int(mask.sum()) for mask in masks]
    best = max(range(len(candidates)),
               key=lambda i: (supports[i], candidates[i].source == "essential", -i))
    if supports[best] == 0:
        raise NoValidPose("every pose candidate has zero support")
    winner = candidates[best]
    inliers = corr[masks[best]]
    if not winner.zero_translation and len(inliers) >= 2:
        normed = _normalize_correspondences(inliers, K1, K2)
        try:
            t_new = translation_from_rotation(winner.rotation, normed)
            winner = replace(winner, translation=t_new)
        except RankDeficient:
            pass
    support = int(pose_support(winner, corr, K1, K2, epsilon).sum())
    return replace(winner, support=support)


def _normalize_correspondences(corr: np.ndarray, K1: np.ndarray,
                               K2: np.ndarray) -> np.ndarray:
    ones = np.ones(len(corr))
    n1 = (np.linalg.inv(K1) @ np.column_stack([corr[:, :2], ones]).T).T
    n2 = (np.linalg.inv(K2) @ np.column_stack([corr[:, 2:], ones]).T).T
    return np.column_stack([n1[:, :2] / n1[:, 2:3], n2[:, :2] / n2[:, 2:3]])


def translation_from_rotation(R: np.ndarray,
                              correspondences_normalized) -> np.ndarray:
    """Least-squares translation direction with known rotation.

    Each normalized correspondence (p1, p2) contributes one row
    p1' x p2 with p1' = R p1 to a homogeneous system whose null vector is
    the translation. Input rows are (u1, v1, u2, v2) with implicit w = 1.
    The sign is resolved so that the majority of the points triangulate
    in front of both cameras.
    Raises RankDeficient when the system does not constrain a unique
    direction (e.g. zero translation)."""
    corr = np.asarray(correspondences_normalized, dtype=float)
    if corr.shape[0] < 2:
        raise RankDeficient("need at least two correspondences")
    ones = np.ones(len(corr))
    p1 = np.column_stack([corr[:, :2], ones])
    p2 = np.column_stack([corr[:, 2:], ones])
    p1r = p1 @ np.asarray(R, dtype=float).T
    A = np.cross(p1r, p2)
    scale = np.linalg.norm(A, axis=1).max()
    if scale < 1e-12:
        raise RankDeficient("translation is unobservable (zero baseline)")
    _, s, Vt = np.linalg.svd(A / scale, full_matrices=A.shape[0] < A.shape[1])
    if len(s) < 2 or s[1] <= 1e-9 * s[0]:
        raise RankDeficient("coefficient matrix has rank < 2")
    t = Vt[-1]
    t /= np.linalg.norm(t)
    eye = np.eye(3)
    pose_pos = RelativePose(np.asarray(R, float), t, "essential")
    X = triangulate_midpoint(pose_pos, corr[:, :2], corr[:, 2:], eye, eye)
    X2 = X @ pose_pos.rotation.T + pose_pos.translation
    front = int(np.sum((X[:, 2] > 0) & (X2[:, 2] > 0)))
    if front * 2 < len(corr):
        t = -t
    return t


# ---------------------------------------------------------------------------
# Multi-homography pose pipeline

def essential_from_inliers(correspondences: np.ndarray, K1: np.ndarray,
                           K2: np.ndarray) -> Optional[np.ndarray]:
    """Essential matrix from >= 8 correspondences: linear F estimate,
    calibrated and projected onto the essential manifold."""
    if len(correspondences) < 8:
        return None
    try:
        f_inst = fit_nonminimal(ModelType.FUNDAMENTAL, correspondences,
                                np.ones(len(correspondences)))
    except DegenerateSample:
        return None
    E = K2.T @ f_inst.matrix() @ K1
    U, s, Vt = np.linalg.svd(E)
    sigma = 0.5 * (s[0] + s[1])
    return (U * np.array([sigma, sigma, 0.0])) @ Vt


def pose_from_multi_h(correspondences, K1: np.ndarray, K2: np.ndarray,
                      engine_cfg: EngineConfig) -> RelativePose:
    """Fit multiple homographies, decompose all of them (plus one
    essential matrix assembled from the union of their inliers), and
    select the best-supported pose at the fit's epsilon."""
    corr = np.asarray(correspondences, dtype=float)
    points = PointSet(corr)
    report = fit(points, ModelType.HOMOGRAPHY, engine_cfg)
    candidates: list[RelativePose] = []
    union = np.zeros(len(corr), dtype=bool)
    for idx, inst in enumerate(report.instances):
        union |= report.min_residual_assignment == idx
        try:
            decs = decompose_homography(inst.matrix(), K1, K2)
        except DegenerateHomography:
            continue
        candidates.extend(d.pose for d in decs)
    if union.sum() >= 8:
        E = essential_from_inliers(corr[union], K1, K2)
        if E is not None:
            candidates = decompose_essential(E) + candidates
    return select_pose(candidates, corr, K1, K2, engine_cfg.loss.epsilon)


# ---------------------------------------------------------------------------
# Error metrics

def rotation_error_deg(R: np.ndarray, R_gt: np.ndarray) -> float:
    """Angular difference acos((tr(R R_gt^T) - 1) / 2) in degrees, evaluated
    through the sin form 2 asin(|R - R_gt|_F / (2 sqrt(2))) which resolves
    angles far below the arccos float64 floor of ~1e-6 degrees."""
    diff = np.asarray(R, dtype=float) - np.asarray(R_gt, dtype=float)
    s = np.linalg.norm(diff) / (2.0 * np.sqrt(2.0))
    return float(np.degrees(2.0 * np.arcsin(np.clip(s, 0.0, 1.0))))


def translation_error_deg(t: np.ndarray, t_gt: np.ndarray) -> float:
    """Angular difference between translation directions in degrees,
    via atan2 of the cross and dot products for precision near 0 and 180."""
    a = np.asarray(t, dtype=float).reshape(3)
    b = np.asarray(t_gt, dtype=float).reshape(3)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0 if na == nb else 90.0
    return float(np.degrees(np.arctan2(np.linalg.norm(np.cross(a, b)), a @ b)))
