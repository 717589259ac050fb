"""Scale-free fitting: a fit depends on the unit of its coordinates only
through epsilon, the inlier threshold given in that unit. Multiplying the
coordinates and epsilon by 2^k, which is exact in floating point, keeps the
instance count, the minimum-residual assignment, the stop reason and the
proposals tried: the sample screens' area tolerance and the CC radii are
multiples of epsilon, the loss is relative to it and the P-NAPSAC ranks are
scale-free. The relative pose, whose reprojection tolerance is a multiple
of epsilon too, keeps its source and support when the first two rows of
the intrinsics scale with the coordinates."""
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from mmfit import engine, pose
from mmfit.ingest import SyntheticSpec, synthesize
from mmfit.models import ModelType, PointSet

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SCALES = (-10, -4, 4, 10)

# The one known residue. IRLS stops a row once the relative change of its
# parameter row drops below IRLS_TOL, and the entries of F scale unevenly
# with the coordinates (x' = s x gives F' ~ diag(1/s, 1/s, 1) F
# diag(1/s, 1/s, 1)), so at some scales a row stops one refit earlier or
# later. With IRLS_TOL = 0 these fits are equal at every scale; changing the
# stop moves the pinned fundamental fit, so it is left for a change that
# reworks the IRLS stop.
F_IRLS_STOP = pytest.mark.xfail(
    strict=True, reason="the IRLS stop compares F rows whose entries scale "
    "unevenly with the coordinates")


def _outcome(report):
    return (len(report.instances), report.min_residual_assignment.tolist(),
            report.stop_reason, report.proposals_tried)


def _assert_alike(got, want):
    count, assignment, stop, tried = got
    assert count == want[0]
    assert assignment == want[1]
    assert (stop, tried) == want[2:]


def _at_scales(case, residue=()):
    """pytest params of a case at each scale, the scales of the known
    residue marked."""
    return [pytest.param(*case, k, marks=[F_IRLS_STOP] if k in residue else [])
            for k in SCALES]


def _scaled_fit(points, model_type, k, epsilon, **overrides):
    s = 2.0 ** k
    scaled = PointSet(points.coords * s, points.weights)
    cfg = engine.default_config(model_type, epsilon * s, **overrides)
    return _outcome(engine.fit(scaled, model_type, cfg))


# one small scene per family, cc included for segments: (spec, sampler,
# draw cap) and the scales, if any, of the known residue
_SCENES = {
    "lines": (SyntheticSpec(ModelType.LINE2D, 3, 40, 40, 1.0, seed=1),
              "pnapsac", 300, ()),
    "segments": (SyntheticSpec(ModelType.SEGMENT2D, 3, 50, 30, 1.0, seed=1),
                 "uniform", 1000, ()),
    "segments-cc": (SyntheticSpec(ModelType.SEGMENT2D, 4, 40, 40, 1.0, seed=1,
                                  clustered=True), "cc", 300, ()),
    "planes": (SyntheticSpec(ModelType.PLANE3D, 2, 40, 30, 1.0, seed=1),
               "pnapsac", 300, ()),
    "homographies": (SyntheticSpec(ModelType.HOMOGRAPHY, 2, 60, 30, 1.0,
                                   seed=1), "pnapsac", 1000, ()),
    "fundamental": (SyntheticSpec(ModelType.FUNDAMENTAL, 2, 80, 20, 1.0,
                                  seed=1), "pnapsac", 1000, ()),
    "fundamental-seed-2": (SyntheticSpec(ModelType.FUNDAMENTAL, 2, 80, 20, 1.0,
                                         seed=2), "pnapsac", 1000, (10,)),
}


@lru_cache(maxsize=None)
def _scene_fit(name, k):
    spec, sampler, cap, _ = _SCENES[name]
    points, _, _ = synthesize(spec)
    return _scaled_fit(points, spec.model_type, k, 3.0, sampler=sampler,
                       max_proposals=cap)


@pytest.mark.parametrize("name, k", [
    p for name, (*_, residue) in _SCENES.items()
    for p in _at_scales([name], residue)])
def test_small_scene_fits_alike_at_every_scale(name, k):
    want = _scene_fit(name, 0)
    assert want[0] > 0
    _assert_alike(_scene_fit(name, k), want)


@lru_cache(maxsize=None)
def _pinned_fit(name, seed, k):
    workload = workloads.WORKLOADS[name]
    [scene] = [s for s in workload.scenes(0) if s.seed == seed]
    return _scaled_fit(scene.points, workload.model_type, k,
                       workloads.EPSILON, **workload.overrides)


# (workload, pinned seed): the scales of the known residue
_PINNED_RESIDUE = {("fundamental-m4", 1): (4, 10)}


@pytest.mark.parametrize("name, seed, k", [
    p for name in sorted(workloads.WORKLOADS)
    for seed in workloads.WORKLOADS[name].pinned_seeds
    for p in _at_scales([name, seed], _PINNED_RESIDUE.get((name, seed), ()))])
def test_pinned_scene_fits_alike_at_every_scale(name, seed, k):
    # the benchmark's pinned scenes through fit (pose-h4's homographies
    # without the pose, which the test below checks)
    _assert_alike(_pinned_fit(name, seed, k), _pinned_fit(name, seed, 0))


@lru_cache(maxsize=None)
def _pinned_pose(k):
    workload = workloads.WORKLOADS["pose-h4"]
    [scene] = workload.scenes(0)
    s = 2.0 ** k
    # pixels x = K X / z scale with K's first two rows
    K1, K2 = (np.diag([s, s, 1.0]) @ K for K in (scene.K1, scene.K2))
    cfg = engine.default_config(workload.model_type, workloads.EPSILON * s,
                                **workload.overrides)
    return pose.pose_from_multi_h(scene.points.coords * s, K1, K2, cfg)


@pytest.mark.parametrize("k", SCALES)
def test_pinned_pose_is_alike_at_every_scale(k):
    got, want = _pinned_pose(k), _pinned_pose(0)
    assert (got.source, got.support) == (want.source, want.support)
    assert pose.rotation_error_deg(got.rotation, want.rotation) < 1e-9
    assert pose.translation_error_deg(got.translation,
                                      want.translation) < 1e-9
