import json
from pathlib import Path

import numpy as np
import pytest

from mmfit.errors import DimensionMismatch, InvalidConfig, ParseError
from mmfit.ingest import (
    SyntheticSpec,
    blur_kernel_to_points,
    load_scene,
    read_pgm,
    save_scene,
    synthesize,
    synthesize_two_view,
)
from mmfit.models import ModelType, PointSet, residuals


def write_pgm(path, image: np.ndarray, maxval: int = 255) -> None:
    """Write a [0, 1] float image as binary P5 (the inverse of read_pgm)."""
    img = np.clip(np.asarray(image, dtype=float), 0.0, 1.0)
    quant = np.round(img * maxval).astype(">u2" if maxval > 255 else np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode()
    Path(path).write_bytes(header + quant.tobytes())


def render_segments(segments, shape: tuple[int, int], stroke: float = 1.0,
                    background: float = 0.0) -> np.ndarray:
    """Rasterize line segments into a [0, 1] float image: pixels whose
    center lies within `stroke` of a segment get intensity 1."""
    h, w = shape
    img = np.full((h, w), background)
    ys, xs = np.mgrid[0:h, 0:w]
    centers = np.column_stack([(xs + 0.5).ravel(), (ys + 0.5).ravel()])
    near = np.zeros(h * w, dtype=bool)
    for (p0, p1) in segments:
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        d = p1 - p0
        length2 = max(float(d @ d), 1e-300)
        t = np.clip(((centers - p0) @ d) / length2, 0.0, 1.0)
        closest = p0 + t[:, None] * d
        near |= np.linalg.norm(centers - closest, axis=1) <= stroke
    img.ravel()[near] = 1.0
    return img


# ---------------------------------------------------------------------------
# scene files

def test_csv_round_trip_is_byte_identical(tmp_path, rng):
    coords = rng.uniform(0, 1000, size=(25, 4))
    labels = rng.integers(0, 3, size=25)
    points = PointSet(coords)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_scene(p1, ModelType.HOMOGRAPHY, points, labels=labels)
    model_type, loaded, loaded_labels, _ = load_scene(p1)
    assert model_type is ModelType.HOMOGRAPHY
    assert np.array_equal(loaded.coords, coords)  # exact, no rounding
    assert np.array_equal(loaded_labels, labels)
    save_scene(p2, model_type, loaded, labels=loaded_labels)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_homography_dimension(tmp_path):
    path = tmp_path / "scene.csv"
    path.write_text("homography,4\n1.0,2.0,3.0,4.0\n")
    model_type, points, labels, _ = load_scene(path)
    assert model_type is ModelType.HOMOGRAPHY
    assert points.dim == 4 and len(points) == 1
    assert labels is None


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("line2d,2\n1.0,2.0\noops,3.0\n")
    with pytest.raises(ParseError) as err:
        load_scene(path)
    assert err.value.line == 3


def test_header_dimension_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("line2d,4\n1.0,2.0,3.0,4.0\n")
    with pytest.raises(ParseError):
        load_scene(path)


def test_field_count_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("line2d,2\n1.0,2.0,3.0\n")
    with pytest.raises(ParseError) as err:
        load_scene(path)
    assert err.value.line == 2


def test_scored_column_becomes_quality_rank(tmp_path):
    path = tmp_path / "scored.csv"
    path.write_text("line2d,2,scored\n0.0,0.0,0.2\n1.0,0.0,0.9\n2.0,0.0,0.5\n")
    _, points, _, _ = load_scene(path)
    assert points.quality_rank.tolist() == [2, 0, 1]  # best score first


def test_json_and_csv_scores_rank_alike(tmp_path):
    scores = [0.2, 0.9, 0.5, 0.9]
    csv = tmp_path / "scored.csv"
    csv.write_text("line2d,2,scored\n" + "".join(
        f"{i}.0,0.0,{s}\n" for i, s in enumerate(scores)))
    js = tmp_path / "scored.json"
    js.write_text(json.dumps({"model_type": "line2d", "scores": scores,
                              "points": [[float(i), 0.0] for i in range(4)]}))
    for path in (csv, js):
        _, points, _, _ = load_scene(path)
        # best score first, ties in point order
        assert points.quality_rank.tolist() == [3, 0, 2, 1]
        assert points.ranked_order.tolist() == [1, 3, 2, 0]


def test_json_scene_with_intrinsics(tmp_path):
    payload = {
        "model_type": "homography",
        "points": [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]],
        "labels": [1, 0],
        "intrinsics": {"K1": np.eye(3).tolist()},
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(payload))
    model_type, points, labels, intr = load_scene(path)
    assert model_type is ModelType.HOMOGRAPHY
    assert len(points) == 2 and labels.tolist() == [1, 0]
    assert np.array_equal(intr.K1, np.eye(3))
    assert np.array_equal(intr.K2, np.eye(3))


def test_json_dimension_mismatch(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"model_type": "line2d",
                                "points": [[1.0, 2.0, 3.0]]}))
    with pytest.raises(DimensionMismatch):
        load_scene(path)


# ---------------------------------------------------------------------------
# PGM and blur kernels

def test_all_black_kernel_is_empty(tmp_path):
    path = tmp_path / "black.pgm"
    write_pgm(path, np.zeros((8, 8)))
    assert len(blur_kernel_to_points(path)) == 0


def test_single_white_pixel_center_convention(tmp_path):
    img = np.zeros((12, 10))
    img[7, 3] = 1.0       # x = 3, y = 7
    path = tmp_path / "dot.pgm"
    write_pgm(path, img)
    points = blur_kernel_to_points(path, threshold=0.5)
    assert len(points) == 1
    assert np.allclose(points.coords[0], [3.5, 7.5])
    assert points.weights[0] == pytest.approx(1.0)


def test_ascii_and_binary_pgm_agree(tmp_path):
    rng = np.random.default_rng(0)
    img = (rng.random((6, 5)) * 255).astype(int)
    p5 = tmp_path / "img.pgm"
    write_pgm(p5, img / 255.0)
    body = " ".join(str(v) for v in img.ravel())
    p2 = tmp_path / "img_ascii.pgm"
    p2.write_text(f"P2\n5 6\n255\n{body}\n")
    assert np.allclose(read_pgm(p5), read_pgm(p2))


def test_sixteen_bit_pgm(tmp_path):
    img = np.array([[0.0, 0.25], [0.5, 1.0]])
    path = tmp_path / "deep.pgm"
    write_pgm(path, img, maxval=65535)
    assert np.allclose(read_pgm(path), img, atol=1e-4)


def test_pgm_with_comment_and_truncation(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 10, 20, 30]))
    assert read_pgm(path).shape == (2, 2)
    bad = tmp_path / "t.pgm"
    bad.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 10]))
    with pytest.raises(ParseError):
        read_pgm(bad)
    notpgm = tmp_path / "n.pgm"
    notpgm.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ParseError):
        read_pgm(notpgm)


def test_kernel_point_count_monotone_in_threshold(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.random((30, 30))
    counts = [len(blur_kernel_to_points(img, th))
              for th in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert counts == sorted(counts, reverse=True)


def test_rendered_segments_extract_close_points():
    segments = [((5.0, 5.0), (40.0, 20.0)), ((40.0, 20.0), (15.0, 45.0))]
    img = render_segments(segments, (50, 50), stroke=1.0)
    points = blur_kernel_to_points(img, threshold=0.5)
    assert len(points) > 20
    # every extracted point lies within 0.5 px of a generating segment
    # beyond the 1 px stroke half-width used to rasterize
    for p in points.coords:
        d = min(_point_segment_distance(p, np.array(a), np.array(b))
                for a, b in segments)
        assert d <= 1.0 + 0.5


def _point_segment_distance(p, a, b):
    d = b - a
    t = np.clip((p - a) @ d / (d @ d), 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * d)))


def test_kernel_weights_rank_by_intensity():
    img = np.zeros((4, 4))
    img[0, 0], img[1, 1], img[2, 2] = 0.4, 1.0, 0.7
    points = blur_kernel_to_points(img, threshold=0.3)
    order = np.argsort(points.quality_rank)
    assert points.weights[order].tolist() == [1.0, 0.7, 0.4]


def test_kernel_threshold_validation():
    with pytest.raises(InvalidConfig):
        blur_kernel_to_points(np.ones((3, 3)), threshold=0.0)


# ---------------------------------------------------------------------------
# synthetic scenes

def test_sigma_zero_line_scene_exact():
    spec = SyntheticSpec(ModelType.LINE2D, 1, 40, 0, 0.0, 500.0, seed=1)
    points, labels, instances = synthesize(spec)
    assert np.all(residuals(instances[0], points.coords) < 1e-9)
    assert np.all(labels == 1)


def test_synthesize_deterministic(tmp_path):
    spec = SyntheticSpec(ModelType.LINE2D, 5, 100, 200, 1.0, 1000.0, seed=4)
    a = synthesize(spec)
    b = synthesize(spec)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_scene(p1, spec.model_type, a[0], labels=a[1])
    save_scene(p2, spec.model_type, b[0], labels=b[1])
    assert p1.read_bytes() == p2.read_bytes()


def test_homography_scene_residual_rms_near_sigma():
    sigma = 2.0
    scene = synthesize_two_view(1, 1000, 0, sigma, 1000.0, seed=6)
    r = residuals(scene.instances[0], scene.points.coords)
    rms = float(np.sqrt(np.mean(r ** 2)))
    assert abs(rms - sigma) < 0.2 * sigma


def test_fundamental_scene_residual_rms_near_sigma():
    spec = SyntheticSpec(ModelType.FUNDAMENTAL, 1, 1000, 0, 2.0, 1000.0, seed=6)
    points, labels, instances = synthesize(spec)
    r = residuals(instances[0], points.coords)
    rms = float(np.sqrt(np.mean(r ** 2)))
    assert abs(rms - 2.0) < 0.2 * 2.0


def test_plane_scene_ground_truth():
    spec = SyntheticSpec(ModelType.PLANE3D, 2, 50, 20, 0.5, 200.0, seed=8)
    points, labels, instances = synthesize(spec)
    assert len(instances) == 2
    for idx, inst in enumerate(instances, start=1):
        r = residuals(inst, points.coords[labels == idx])
        assert np.sqrt(np.mean(r ** 2)) < 1.0


def test_segment_scene_instances_are_segments():
    spec = SyntheticSpec(ModelType.SEGMENT2D, 3, 30, 0, 0.0, 300.0, seed=9,
                         clustered=True)
    points, labels, instances = synthesize(spec)
    assert all(h.model_type is ModelType.SEGMENT2D for h in instances)
    assert len(points) == 90


def test_invalid_spec_rejected():
    with pytest.raises(InvalidConfig):
        SyntheticSpec(ModelType.LINE2D, -1, 10)
    with pytest.raises(InvalidConfig):
        SyntheticSpec(ModelType.LINE2D, 1, 10, sigma=-0.5)
