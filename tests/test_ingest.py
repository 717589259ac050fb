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


@pytest.mark.parametrize("label", ["1.7", "-0.5", "nan", "inf"])
def test_csv_non_integer_label_is_rejected_at_its_line(tmp_path, label):
    path = tmp_path / "bad.csv"
    path.write_text(f"line2d,2,labeled\n1.0,2.0,1\n# note\n3.0,4.0,{label}\n")
    with pytest.raises(ParseError) as err:
        load_scene(path)
    assert err.value.line == 4


@pytest.mark.parametrize("label", ["1e300", "-1e300", "9.3e18", "-9.3e18"])
def test_csv_label_beyond_int64_is_rejected_at_its_line(tmp_path, label):
    # integral, but no int64 holds it
    path = tmp_path / "bad.csv"
    path.write_text(f"line2d,2,labeled\n1.0,2.0,1\n# note\n3.0,4.0,{label}\n")
    with pytest.raises(ParseError) as err:
        load_scene(path)
    assert err.value.line == 4


def test_csv_label_at_int64_bounds_loads(tmp_path):
    path = tmp_path / "scene.csv"
    path.write_text("line2d,2,labeled\n1.0,2.0,-9.2e18\n3.0,4.0,9.2e18\n")
    labels = load_scene(path)[2]
    assert labels.tolist() == [-9_200_000_000_000_000_000,
                               9_200_000_000_000_000_000]


@pytest.mark.parametrize("labels", [[1.5, 0], [1, float("inf")], [True, 0],
                                    ["1", 0], [1, None], [1, 10 ** 30]],
                         ids=["fraction", "inf", "bool", "text", "null",
                              "overflow"])
def test_json_non_integral_label_is_rejected(tmp_path, labels):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model_type": "line2d", "labels": labels,
                                "points": [[1.0, 2.0], [3.0, 4.0]]}))
    with pytest.raises(ParseError):
        load_scene(path)


def test_integral_labels_load_from_both_formats(tmp_path):
    csv = tmp_path / "scene.csv"
    csv.write_text("line2d,2,labeled\n1.0,2.0,2.0\n3.0,4.0,0\n")
    js = tmp_path / "scene.json"
    js.write_text(json.dumps({"model_type": "line2d", "labels": [2.0, 0],
                              "points": [[1.0, 2.0], [3.0, 4.0]]}))
    for path in (csv, js):
        labels = load_scene(path)[2]
        assert labels.tolist() == [2, 0] and labels.dtype.kind == "i"


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


_SCENE = {"model_type": "line2d", "labels": [1, 0, 2, 1],
          "points": [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0], [3.0, 1.5]]}
_SCORES = [0.2, 0.9, 0.5, 0.9]


def _csv_scene(scores=None):
    header = "line2d,2,labeled" + (",scored" if scores else "")
    rows = [f"{x},{y},{label}" + (f",{scores[i]}" if scores else "")
            for i, ((x, y), label) in enumerate(zip(_SCENE["points"],
                                                    _SCENE["labels"]))]
    return header + "\n" + "".join(f"{r}\n" for r in rows)


def _assert_is_the_bare_scene(path):
    _, points, labels, _ = load_scene(path)
    assert points.coords.tolist() == _SCENE["points"]
    assert labels.tolist() == _SCENE["labels"]
    assert vars(points).keys() == {"coords", "weights"}


def test_scored_column_is_parsed_then_dropped(tmp_path):
    # a CSV scored column is counted and parsed, then dropped
    for name, text in {"bare.csv": _csv_scene(),
                       "scored.csv": _csv_scene(_SCORES)}.items():
        (tmp_path / name).write_text(text)
        _assert_is_the_bare_scene(tmp_path / name)


def test_json_and_csv_scores_load_alike(tmp_path):
    # scored JSON and CSV files load as the same scene without scores
    files = {"scored.csv": _csv_scene(_SCORES),
             "bare.json": json.dumps(_SCENE),
             "scored.json": json.dumps({**_SCENE, "scores": _SCORES})}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        _assert_is_the_bare_scene(tmp_path / name)


def test_csv_score_must_be_a_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("line2d,2,scored\n1.0,2.0,0.5\n3.0,4.0,best\n")
    with pytest.raises(ParseError) as err:
        load_scene(path)
    assert err.value.line == 3


@pytest.mark.parametrize("token", ["label", "Labeled", "intrinsic=K.json",
                                   "weights", ""])
def test_unknown_header_token_is_rejected(tmp_path, token):
    path = tmp_path / "bad.csv"
    path.write_text(f"line2d,2,{token}\n1.0,2.0,1\n")
    with pytest.raises(ParseError, match=repr(token)) as err:
        load_scene(path)
    assert err.value.line == 1


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
    # the points come in raster order, each weighted by its intensity
    img = np.zeros((4, 4))
    img[0, 0], img[1, 1], img[2, 2] = 0.4, 1.0, 0.7
    points = blur_kernel_to_points(img, threshold=0.3)
    assert points.coords.tolist() == [[0.5, 0.5], [1.5, 1.5], [2.5, 2.5]]
    assert points.weights.tolist() == [0.4, 1.0, 0.7]
    order = np.argsort(-points.weights, kind="stable")
    assert points.weights[order].tolist() == [1.0, 0.7, 0.4]


@pytest.mark.parametrize("pixel", ["nan", "-1", "256", "999", "2.5", "inf"])
def test_ascii_pgm_pixel_outside_its_range_is_rejected(tmp_path, pixel):
    # a P2 pixel is a whole number in [0, maxval]
    path = tmp_path / "bad.pgm"
    path.write_text(f"P2\n2 2\n255\n0 10 {pixel} 255\n")
    with pytest.raises(ParseError):
        read_pgm(path)
    with pytest.raises(ParseError):
        blur_kernel_to_points(path)


def test_binary_pgm_pixel_above_maxval_is_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n100\n" + bytes([0, 10, 101, 100]))
    with pytest.raises(ParseError):
        read_pgm(path)


@pytest.mark.parametrize("shape", [(16,), (4, 4, 2), ()])
def test_kernel_array_that_is_not_2d_is_rejected(shape):
    with pytest.raises(DimensionMismatch):
        blur_kernel_to_points(np.ones(shape))


@pytest.mark.parametrize("pixel", [np.nan, np.inf, -np.inf])
def test_kernel_array_with_non_finite_pixel_is_rejected(pixel):
    img = np.ones((4, 4))
    img[1, 2] = pixel
    with pytest.raises(InvalidConfig):
        blur_kernel_to_points(img)


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


@pytest.mark.parametrize("model_type", list(ModelType))
def test_synthesize_without_points_keeps_the_family_dimension(model_type):
    spec = SyntheticSpec(model_type, 2, 0, 0, clustered=True)
    points, labels, instances = synthesize(spec)
    assert points.coords.shape == (0, model_type.dim)
    assert labels.shape == (0,)
    assert len(instances) == 2


@pytest.mark.parametrize("outliers", [0, 25])
@pytest.mark.parametrize("model_type", list(ModelType), ids=lambda t: t.value)
def test_synthetic_scene_layout(model_type, outliers):
    spec = SyntheticSpec(model_type, 3, 20, outliers, 1.0, 400.0, seed=2)
    points, labels, instances = synthesize(spec)
    assert labels.dtype.kind == "i"
    # each instance's points in instance order, labelled 1..k, then outliers
    assert labels.tolist() == [1] * 20 + [2] * 20 + [3] * 20 + [0] * outliers
    outlying = points.coords[labels == 0]
    assert outlying.shape == (outliers, model_type.dim)
    assert np.all((outlying >= 0.0) & (outlying < spec.extent))
    assert len(instances) == spec.instance_count
    assert all(h.model_type is model_type for h in instances)


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


@pytest.mark.parametrize("args, kwargs", [
    ((ModelType.LINE2D, 2.5, 10), {}),
    ((ModelType.LINE2D, 2, 10.0), {}),
    ((ModelType.LINE2D, 2, 10, 5.0), {}),
    ((ModelType.LINE2D, 2, 10), {"seed": 1.5}),
    ((ModelType.LINE2D, 2, 10), {"seed": True}),
    ((ModelType.LINE2D, 2, 10), {"sigma": "1.0"}),
    ((ModelType.LINE2D, 2, 10), {"extent": None}),
    (("line2d", 2, 10), {}),
    ((ModelType.LINE2D, 2, 10), {"seed": 1, "clustered": "no"}),
], ids=["float-instances", "float-points", "float-outliers", "float-seed",
        "bool-seed", "text-sigma", "null-extent", "text-model-type",
        "text-clustered"])
def test_wrongly_typed_spec_raises_invalid_config(args, kwargs):
    with pytest.raises(InvalidConfig):
        synthesize(SyntheticSpec(*args, **kwargs))
    # synthesize_two_view takes neither a model type nor clustered
    if not isinstance(args[0], str) and "clustered" not in kwargs:
        with pytest.raises(InvalidConfig):
            synthesize_two_view(*args[1:], **kwargs)


def test_invalid_spec_rejected():
    with pytest.raises(InvalidConfig):
        SyntheticSpec(ModelType.LINE2D, -1, 10)
    with pytest.raises(InvalidConfig):
        SyntheticSpec(ModelType.LINE2D, 1, 10, sigma=-0.5)
    for bad in ({"seed": -1}, {"sigma": np.nan}, {"sigma": np.inf},
                {"extent": np.inf}, {"extent": np.nan}, {"extent": 0.0}):
        with pytest.raises(InvalidConfig):
            SyntheticSpec(ModelType.LINE2D, 1, 10, **bad)
        with pytest.raises(InvalidConfig):
            synthesize_two_view(1, 10, **bad)
