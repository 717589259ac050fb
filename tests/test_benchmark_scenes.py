"""The benchmark's pinned scenes (perfbench/workloads.py, imported, not
changed), fitted as the benchmark fits them. A change that promises not to
move the fit's output must keep these figures; a change that moves them on
purpose updates them here and says why."""
import sys
from pathlib import Path

import pytest

from mmfit import engine, sampling

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402
from worker import digest  # noqa: E402

# per workload and pinned scene seed: instances found, misclassified points
# out of the scene's points, stop reason, proposals tried
EXPECTED = {
    "pose-h4": {1: (2, 300, 800, "max_proposals", 915)},       # ME 37.5 %
    "fundamental-m4": {1: (6, 191, 800, "max_proposals", 561)},  # 23.875 %
    "lines-l16": {1: (17, 178, 2600, "max_proposals", 2000)},  # ME 6.846 %
    "segments-cc": {1: (16, 9, 2000, "cc_spent", 84),          # mean ME
                    2: (16, 8, 2000, "cc_spent", 82),          # 0.4625 %
                    3: (16, 8, 2000, "cc_spent", 87),
                    4: (16, 12, 2000, "cc_spent", 81)},
}


# per workload and pinned scene seed: the benchmark's output digest, the
# SHA-256 of the sorted JSON of the report's to_dict() (and for pose-h4 of
# R and t), the same with 1 and 2 BLAS threads. A numpy or BLAS upgrade may
# move them legitimately, as it may move the last bits of a fit.
DIGESTS = {
    "fundamental-m4": {
        1: "a35826fdc8ec618de0e417b5ff7855b8194169529ad0e15b298ccca75f87bc60"},
    "lines-l16": {
        1: "b52dd70cc4d5b9c292c7b9d594c8ea2d67880e9f9223209a6fdd98223bc66b54"},
    "pose-h4": {
        1: "d487db0e91e6f6c60dc9348476c50cd16e45972caf1b01c82a078940509ef1a4"},
    "segments-cc": {
        1: "9ac4bc33e4297da636e04db197498b3d5d73ee03369d041b4240b5d8b7b527a3",
        2: "fb8edf3bfbaa030106462d813f687137a2520eb3901bc89bdd4557668e2b200c",
        3: "0b17888aa76ee64fda49f270808497f1917a3d05f3f351b0f7d2d12da5a4a326",
        4: "f95d0aea6dfa2ce11fe67aaabd918dc284d895d959768f8961d0be4a063c9e3e"},
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_pinned_benchmark_scenes_keep_their_digest(name):
    # a change that promises a bit-identical fit keeps every digest
    workload = workloads.WORKLOADS[name]
    got = {scene.seed: digest(workload.run(scene, workload.config()))
           for scene in workload.scenes(0)}
    assert got == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_pinned_benchmark_scenes_keep_their_fit(name):
    workload = workloads.WORKLOADS[name]
    scenes = workload.scenes(0)
    assert sorted(s.seed for s in scenes) == sorted(EXPECTED[name])
    for scene in scenes:
        count, wrong, n, stop, tried = EXPECTED[name][scene.seed]
        report = workload.run(scene, workload.config()).report
        assert len(scene.labels) == n
        assert len(report.instances) == count
        assert engine.misclassification_error(report, scene.labels) \
            == pytest.approx(wrong / n, abs=1e-12)
        assert report.stop_reason == stop
        assert report.proposals_tried == tried


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_pinned_benchmark_scenes_fit_alike_at_either_block(monkeypatch, name):
    # a fit solving RNG_BLOCK samples at a time equals one solving the
    # default SAMPLE_BLOCK at a time, pose included
    workload = workloads.WORKLOADS[name]
    for scene in workload.scenes(0):
        with monkeypatch.context() as patch:
            patch.setattr(engine, "SAMPLE_BLOCK", sampling.RNG_BLOCK)
            small = workload.run(scene, workload.config())
        large = workload.run(scene, workload.config())
        assert small.report.to_dict() == large.report.to_dict()
        if workload.is_pose:
            assert small.pose.rotation.tobytes() == large.pose.rotation.tobytes()
            assert small.pose.translation.tobytes() == \
                large.pose.translation.tobytes()
