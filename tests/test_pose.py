import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from mmfit.engine import default_config
from mmfit.errors import (
    DegenerateHomography,
    DimensionMismatch,
    NoValidPose,
    RankDeficient,
)
from mmfit.ingest import synthesize_two_view
from mmfit.models import ModelType
from mmfit.pose import (
    RelativePose,
    _closest_rotation,
    decompose_essential,
    decompose_homography,
    essential_from_inliers,
    pose_from_multi_h,
    pose_support,
    rotation_error_deg,
    select_pose,
    translation_error_deg,
    translation_from_rotation,
    triangulate_midpoint,
)

from conftest import make_camera_pair, project_points, visible_cloud


def _random_valid_config(rng):
    """(R, t, n, d) with the plane in front of the reference camera."""
    R = Rotation.random(random_state=rng).as_matrix()
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    if n[2] < 0:
        n = -n
    d = rng.uniform(1.0, 5.0)
    t = rng.normal(size=3)
    t /= np.linalg.norm(t)
    return R, t, n, d


# ---------------------------------------------------------------------------
# homography decomposition

def test_identity_homography_decomposes_to_identity():
    decs = decompose_homography(np.eye(3), np.eye(3), np.eye(3))
    assert len(decs) == 1
    pose = decs[0].pose
    assert pose.zero_translation
    assert rotation_error_deg(pose.rotation, np.eye(3)) < 1e-9
    assert np.all(pose.translation == 0.0)


def test_pure_rotation_homography():
    K = np.array([[700.0, 0.0, 320.0], [0.0, 700.0, 240.0], [0.0, 0.0, 1.0]])
    R = Rotation.from_euler("xyz", [4.0, -7.0, 2.0], degrees=True).as_matrix()
    H = K @ R @ np.linalg.inv(K)
    decs = decompose_homography(H, K, K)
    assert len(decs) == 1
    assert decs[0].pose.zero_translation
    assert rotation_error_deg(decs[0].pose.rotation, R) < 1e-6


def test_decomposition_round_trip_small_batch():
    rng = np.random.default_rng(17)
    for _ in range(100):
        R, t, n, d = _random_valid_config(rng)
        Hn = R + np.outer(t / d, n)
        decs = decompose_homography(Hn, np.eye(3), np.eye(3))
        assert 1 <= len(decs) <= 4
        best_r = min(rotation_error_deg(dd.pose.rotation, R) for dd in decs)
        best_t = min(translation_error_deg(dd.pose.translation, t)
                     + rotation_error_deg(dd.pose.rotation, R) for dd in decs)
        assert best_r < 1e-6
        assert best_t < 1e-6
        sigma2 = np.linalg.svd(Hn, compute_uv=False)[1]
        for dd in decs:
            lhs = Hn / sigma2
            rhs = dd.pose.rotation + np.outer(dd.scaled_translation, dd.normal)
            assert np.abs(lhs - rhs).max() < 1e-6


def test_decomposition_with_intrinsics():
    rng = np.random.default_rng(23)
    K = np.array([[900.0, 0.0, 400.0], [0.0, 880.0, 300.0], [0.0, 0.0, 1.0]])
    R, t, n, d = _random_valid_config(rng)
    H = K @ (R + np.outer(t / d, n)) @ np.linalg.inv(K)
    decs = decompose_homography(H, K, K)
    assert min(rotation_error_deg(dd.pose.rotation, R) for dd in decs) < 1e-6


def test_singular_homography_raises():
    H = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(DegenerateHomography):
        decompose_homography(H, np.eye(3), np.eye(3))


def test_relative_pose_invariants():
    pose = RelativePose(np.eye(3), np.array([3.0, 0.0, 0.0]), "essential")
    assert np.linalg.norm(pose.translation) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        RelativePose(np.eye(3) * 2.0, np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# pose selection and support

def _pose_scene(seed, n=60, noise=0.0):
    rng = np.random.default_rng(seed)
    K, R, t = make_camera_pair(rng)
    X = visible_cloud(rng, K, R, t, n)
    p1, p2, _, _ = project_points(K, R, t, X)
    if noise:
        p2 = p2 + rng.normal(0, noise, size=p2.shape)
    return np.column_stack([p1, p2]), K, R, t


def test_single_candidate_recomputed_support():
    corr, K, R, t = _pose_scene(2)
    pose = RelativePose(R, t, "essential")
    out = select_pose([pose], corr, K, K, 3.0)
    assert out.support == len(corr)


def test_true_pose_beats_decoys_100_trials():
    wins = 0
    for seed in range(100):
        corr, K, R, t = _pose_scene(seed, n=40, noise=0.5)
        rng = np.random.default_rng(1000 + seed)
        truth = RelativePose(R, t, "essential")
        decoys = [
            RelativePose(Rotation.random(random_state=rng).as_matrix(),
                         rng.normal(size=3), "homography")
            for _ in range(3)
        ]
        out = select_pose([truth] + decoys, corr, K, K, 3.0)
        wins += rotation_error_deg(out.rotation, R) < 0.5
    assert wins == 100


def test_all_points_behind_decoy_zero_support():
    corr, K, R, t = _pose_scene(5)
    flipped = RelativePose(R, -t, "homography")
    # mirror pose pushes triangulations behind a camera for most points
    support = pose_support(flipped, corr, K, K, 3.0)
    truth_support = pose_support(RelativePose(R, t, "essential"), corr, K, K,
                                 3.0)
    assert truth_support.sum() == len(corr)
    assert support.sum() < truth_support.sum()


def test_support_matches_bruteforce_oracle():
    corr, K, R, t = _pose_scene(8, n=50, noise=1.0)
    pose = RelativePose(R, t, "essential")
    # epsilon = 3 counts reprojection errors below 4 px
    mask = pose_support(pose, corr, K, K, 3.0)
    X = triangulate_midpoint(pose, corr[:, :2], corr[:, 2:], K, K)
    for i in range(len(corr)):
        Xi = X[i]
        X2 = pose.rotation @ Xi + pose.translation
        ok = Xi[2] > 1e-12 and X2[2] > 1e-12
        if ok:
            pr1 = K @ Xi
            pr2 = K @ X2
            e1 = np.linalg.norm(pr1[:2] / pr1[2] - corr[i, :2])
            e2 = np.linalg.norm(pr2[:2] / pr2[2] - corr[i, 2:])
            ok = max(e1, e2) < 4.0
        assert bool(mask[i]) == bool(ok)


def test_no_valid_pose_raised():
    corr, K, R, t = _pose_scene(3)
    rng = np.random.default_rng(0)
    bogus = [RelativePose(np.eye(3), np.array([0.0, 0.0, -1.0]), "homography")]
    # a pose that puts everything behind the cameras has zero support;
    # craft one by pointing the camera away
    flip = Rotation.from_euler("x", 180, degrees=True).as_matrix()
    with pytest.raises(NoValidPose):
        select_pose([RelativePose(flip, np.array([0.0, 0.0, 1.0]), "homography")],
                    corr, K, K, 3.0)
    with pytest.raises(NoValidPose):
        select_pose([], corr, K, K, 3.0)


# ---------------------------------------------------------------------------
# translation from known rotation

def _normalized_scene(seed, n=10, t_scale=1.0):
    rng = np.random.default_rng(seed)
    K, R, t = make_camera_pair(rng)
    t = t * t_scale
    X = visible_cloud(rng, K, R, t, n) if t_scale else None
    if X is None:
        X = visible_cloud(rng, K, R, np.zeros(3), n)
    X2 = X @ R.T + t
    n1 = X[:, :2] / X[:, 2:3]
    n2 = X2[:, :2] / X2[:, 2:3]
    return np.column_stack([n1, n2]), R, t


def test_translation_recovery_noise_free():
    corr, R, t = _normalized_scene(4)
    t_est = translation_from_rotation(R, corr)
    assert translation_error_deg(t_est, t) < 1e-8


def test_translation_two_point_minimal():
    corr, R, t = _normalized_scene(6)
    t_est = translation_from_rotation(R, corr[:2])
    assert translation_error_deg(t_est, t) < 1e-8


def test_translation_zero_baseline_rank_deficient():
    corr, R, _ = _normalized_scene(7, t_scale=0.0)
    with pytest.raises(RankDeficient):
        translation_from_rotation(R, corr)


def test_translation_needs_two_points():
    corr, R, t = _normalized_scene(8)
    with pytest.raises(RankDeficient):
        translation_from_rotation(R, corr[:1])


# ---------------------------------------------------------------------------
# multi-homography pose pipeline

def test_pose_from_two_planes_one_px_noise():
    scene = synthesize_two_view(2, 100, 50, 1.0, 1000.0, seed=13)
    cfg = default_config(ModelType.HOMOGRAPHY, 3.0, seed=13)
    pose = pose_from_multi_h(scene.points.coords, scene.K1, scene.K2, cfg)
    assert rotation_error_deg(pose.rotation, scene.rotation) < 0.5
    assert translation_error_deg(pose.translation, scene.translation) < 2.0


def test_pose_from_single_plane_scene():
    scene = synthesize_two_view(1, 120, 30, 1.0, 1000.0, seed=14)
    cfg = default_config(ModelType.HOMOGRAPHY, 3.0, seed=14)
    pose = pose_from_multi_h(scene.points.coords, scene.K1, scene.K2, cfg)
    assert rotation_error_deg(pose.rotation, scene.rotation) < 0.5
    assert translation_error_deg(pose.translation, scene.translation) < 2.0


def test_pose_zero_noise_two_planes_near_exact():
    scene = synthesize_two_view(2, 80, 0, 0.0, 1000.0, seed=15)
    cfg = default_config(ModelType.HOMOGRAPHY, 3.0, seed=15)
    pose = pose_from_multi_h(scene.points.coords, scene.K1, scene.K2, cfg)
    assert rotation_error_deg(pose.rotation, scene.rotation) < 1e-4


# ---------------------------------------------------------------------------
# error metrics and averaging

def test_rotation_error_ten_degree_fixture():
    R = Rotation.from_euler("z", 10.0, degrees=True).as_matrix()
    assert rotation_error_deg(R, np.eye(3)) == pytest.approx(10.0, abs=1e-9)


def test_translation_error_basics():
    assert translation_error_deg([1, 0, 0], [0, 1, 0]) == pytest.approx(90.0)
    assert translation_error_deg([1, 0, 0], [2, 0, 0]) == pytest.approx(0.0)


def test_decompose_essential_contains_truth():
    rng = np.random.default_rng(19)
    K, R, t = make_camera_pair(rng)
    tx = np.array([[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0.0]])
    E = tx @ R
    poses = decompose_essential(E)
    assert len(poses) == 4
    best = min(rotation_error_deg(p.rotation, R)
               + translation_error_deg(p.translation, t) for p in poses)
    assert best < 1e-9


def test_essential_from_repeated_correspondence_is_none():
    corr = np.tile([[10.0, 20.0, 15.0, 22.0]], (8, 1))
    assert essential_from_inliers(corr, np.eye(3), np.eye(3)) is None


def test_essential_from_wrong_dimension_raises():
    corr = np.random.default_rng(0).uniform(0, 100, size=(8, 3))
    with pytest.raises(DimensionMismatch):
        essential_from_inliers(corr, np.eye(3), np.eye(3))


def average_poses(candidates):
    """Chordal-mean rotation and L2-mean translation (comparison oracle)."""
    R = _closest_rotation(np.sum([c.rotation for c in candidates], axis=0))
    t = np.sum([c.translation for c in candidates], axis=0)
    return RelativePose(R, t, "homography")


def test_average_poses_of_identical_inputs():
    rng = np.random.default_rng(29)
    R = Rotation.random(random_state=rng).as_matrix()
    t = np.array([1.0, 2.0, 2.0]) / 3.0
    avg = average_poses([RelativePose(R, t, "homography")] * 3)
    assert rotation_error_deg(avg.rotation, R) < 1e-9
    assert translation_error_deg(avg.translation, t) < 1e-9
