"""Data ingestion and synthesis.

Scene files come as CSV (header `model_type,dim[,labeled][,scored]
[,intrinsics=PATH]`, one point per row) or JSON (mirror schema with
optional inline intrinsics). Scores, a last CSV column or a JSON list, must
be one number per point and are dropped. Blur kernels arrive as PGM images
(binary P5 or ASCII P2, 8 or 16 bit) and are thresholded into weighted 2D
points.
Synthetic scenes carry exact ground truth; noise is injected so that the
generating instance's residuals have RMS equal to the requested sigma.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, ParseError
from .losses import _is_integer, _is_real
from .models import (
    ModelInstance,
    ModelType,
    PointSet,
    fit_minimal,
    make_instance,
)

DEFAULT_KERNEL_THRESHOLD = 0.1


@dataclass(frozen=True)
class Intrinsics:
    K1: np.ndarray
    K2: np.ndarray

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Intrinsics":
        """From {"K1": 3x3, "K2": 3x3}; K2 defaults to K1. A missing K1
        or an entry that is not a finite number raises ParseError."""
        try:
            K1 = np.asarray(payload["K1"], dtype=float)
            K2 = np.asarray(payload.get("K2", payload["K1"]), dtype=float)
        except KeyError:
            raise ParseError("intrinsics need a K1 matrix") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"bad intrinsics: {exc}") from None
        if K1.shape != (3, 3) or K2.shape != (3, 3):
            raise ParseError("intrinsics must be 3x3 matrices")
        if not (np.all(np.isfinite(K1)) and np.all(np.isfinite(K2))):
            raise ParseError("intrinsics must be finite")
        return cls(K1, K2)


def load_intrinsics(path) -> Intrinsics:
    with open(path) as fh:
        return Intrinsics.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Scene files

def _parse_header(line: str, base_dir: Path):
    tokens = [t.strip() for t in line.strip().split(",")]
    if len(tokens) < 2:
        raise ParseError("header needs at least 'model_type,dim'", line=1)
    try:
        model_type = ModelType.from_string(tokens[0])
    except ValueError as exc:
        raise ParseError(str(exc), line=1)
    try:
        dim = int(tokens[1])
    except ValueError:
        raise ParseError(f"bad dimension {tokens[1]!r}", line=1)
    intrinsics = None
    for tok in tokens[2:]:
        if tok.startswith("intrinsics="):
            intrinsics = load_intrinsics(base_dir / tok.split("=", 1)[1])
        elif tok not in ("labeled", "scored"):
            raise ParseError(f"unknown header token {tok!r}: expected "
                             "labeled, scored or intrinsics=PATH", line=1)
    if dim != model_type.dim:
        raise ParseError(
            f"{model_type.value} uses dimension {model_type.dim}, "
            f"header says {dim}", line=1)
    return (model_type, dim, "labeled" in tokens[2:], "scored" in tokens[2:],
            intrinsics)


def load_scene(path):
    """Load a scene file (CSV or JSON by extension).

    Returns (model_type, PointSet, labels-or-None, Intrinsics-or-None).
    Values are preserved exactly as stored; scores are not kept.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _load_scene_json(path)
    return _load_scene_csv(path)


def _load_scene_csv(path: Path):
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty scene file", line=1)
    model_type, dim, labeled, scored, intrinsics = _parse_header(lines[0], path.parent)
    rows, labels = [], []
    expected = dim + int(labeled) + int(scored)
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split(",")
        if len(fields) != expected:
            raise ParseError(
                f"expected {expected} fields, got {len(fields)}", line=lineno)
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise ParseError(f"non-numeric field in {stripped!r}", line=lineno)
        if labeled and not (values[dim].is_integer()
                            and -2.0 ** 63 <= values[dim] < 2.0 ** 63):
            raise ParseError(f"label {fields[dim]!r} is not a 64-bit integer",
                             line=lineno)
        rows.append(values[:dim])
        if labeled:
            labels.append(int(values[dim]))
    coords = np.array(rows, dtype=float) if rows else np.zeros((0, dim))
    points, labels = _checked_scene(coords, labels if labeled else None)
    return model_type, points, labels, intrinsics


def _checked_scene(coords, labels, scores=None):
    """The PointSet and label array of a loaded scene. Non-finite
    coordinates, labels that are not integral numbers, scores that are not
    numbers, and label or score lists whose length is not the point count
    raise ParseError, before anything is fitted or written."""
    try:
        points = PointSet(coords)
        if scores is not None and np.shape(
                np.asarray(scores, dtype=float)) != (len(points),):
            raise ValueError("scores must be one number per point")
        if labels is not None and not all(
                type(v) is int or (type(v) is float and v.is_integer())
                for v in labels):
            raise ValueError("labels must be integral numbers")
        labels = None if labels is None else np.asarray(labels, dtype=int)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad scene: {exc}") from None
    if labels is not None and labels.shape != (len(points),):
        raise ParseError(f"bad scene: labels must be one integer per point, "
                         f"got shape {labels.shape} for {len(points)} points")
    return points, labels


def _load_scene_json(path: Path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno)
    try:
        model_type = ModelType.from_string(payload["model_type"])
        coords = np.asarray(payload["points"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad scene json: {exc}")
    if coords.size == 0:
        coords = coords.reshape(0, model_type.dim)
    if coords.ndim != 2 or coords.shape[1] != model_type.dim:
        raise DimensionMismatch(
            f"{model_type.value} uses dimension {model_type.dim}")
    # an empty score list means no scores
    points, labels = _checked_scene(coords, payload.get("labels"),
                                    payload.get("scores") or None)
    intrinsics = payload.get("intrinsics")
    if intrinsics is not None:
        intrinsics = Intrinsics.from_json_dict(intrinsics)
    return model_type, points, labels, intrinsics


def save_scene(path, model_type: ModelType, points: PointSet,
               labels=None) -> None:
    """Write a scene CSV in canonical formatting: shortest round-trip float
    representation, one point per row."""
    path = Path(path)
    header = [model_type.value, str(model_type.dim)]
    if labels is not None:
        header.append("labeled")
    lines = [",".join(header)]
    for i in range(len(points)):
        fields = [repr(float(v)) for v in points.coords[i]]
        if labels is not None:
            fields.append(str(int(labels[i])))
        lines.append(",".join(fields))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# PGM blur kernels

def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) or ASCII (P2) PGM into a float array normalized
    to [0, 1] by the declared maximum value. A pixel that is not a whole
    number in [0, maxval] raises ParseError."""
    data = Path(path).read_bytes()
    magic, width, height, maxval, offset = _parse_pgm_header(data)
    if magic == b"P2":
        try:
            values = np.array(data[offset:].split(), dtype=float)
        except ValueError:
            raise ParseError("non-numeric pixel data")
        if values.size != width * height:
            raise ParseError("pixel count does not match header")
    else:
        dtype = np.dtype(">u2") if maxval > 255 else np.uint8
        try:
            values = np.frombuffer(data, dtype=dtype, count=width * height,
                                   offset=offset).astype(float)
        except ValueError:
            raise ParseError("truncated pixel data")
    if not np.all((values >= 0) & (values <= maxval)
                  & (values == np.round(values))):
        raise ParseError(f"pixels must be whole numbers in [0, {maxval}]")
    return values.reshape(height, width) / float(maxval)


def _parse_pgm_header(data: bytes):
    if not data[:2] in (b"P2", b"P5"):
        raise ParseError("not a PGM file (expected P2 or P5)")
    magic = data[:2]
    tokens = []
    pos = 2
    while len(tokens) < 3:
        match = re.match(rb"(?:\s+|#[^\n]*\n)*(\d+)", data[pos:])
        if match is None:
            raise ParseError("incomplete PGM header")
        tokens.append(int(match.group(1)))
        pos += match.end()
    width, height, maxval = tokens
    if maxval <= 0 or maxval > 65535:
        raise ParseError(f"unsupported max value {maxval}")
    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
    return magic, width, height, maxval, pos


def blur_kernel_to_points(image, threshold: float = DEFAULT_KERNEL_THRESHOLD) -> PointSet:
    """Threshold a blur-kernel image into weighted 2D points.

    `image` is a PGM path or a 2D [0, 1] float array. Pixels with intensity
    >= threshold, normalized by the peak, become points at their pixel
    centers (x + 0.5, y + 0.5), in raster order, weighted by that intensity.
    An array that is not 2D raises DimensionMismatch, one with a non-finite
    pixel InvalidConfig.
    """
    if not 0.0 < threshold < 1.0:
        raise InvalidConfig("threshold must lie in (0, 1)")
    img = read_pgm(image) if isinstance(image, (str, Path)) else np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise DimensionMismatch(f"a blur kernel is a 2D image, got {img.ndim}D")
    if not np.all(np.isfinite(img)):
        raise InvalidConfig("blur kernel pixels must be finite")
    peak = img.max() if img.size else 0.0
    if peak <= 0.0:
        return PointSet(np.zeros((0, 2)))
    norm = img / peak
    ys, xs = np.nonzero(norm >= threshold)
    weights = norm[ys, xs]
    coords = np.column_stack([xs + 0.5, ys + 0.5]).astype(float)
    return PointSet(coords, weights=weights)


# ---------------------------------------------------------------------------
# Synthetic scenes

@dataclass(frozen=True)
class SyntheticSpec:
    model_type: ModelType
    instance_count: int
    points_per_instance: int
    outlier_count: int = 0
    sigma: float = 0.0
    extent: float = 1000.0
    seed: int = 0
    clustered: bool = False   # lines/segments placed in disjoint cells

    def __post_init__(self):
        if not isinstance(self.model_type, ModelType):
            raise InvalidConfig("model_type must be a ModelType")
        counts = (self.instance_count, self.points_per_instance,
                  self.outlier_count, self.seed)
        if not all(map(_is_integer, counts)) or min(counts) < 0:
            raise InvalidConfig("counts and seed must be nonnegative integers")
        if not (_is_real(self.sigma) and _is_real(self.extent)
                and 0 <= self.sigma < np.inf and 0 < self.extent < np.inf):
            raise InvalidConfig("need real 0 <= sigma < inf and 0 < extent < inf")
        if not isinstance(self.clustered, bool):
            raise InvalidConfig("clustered must be a bool")


def synthesize(spec: SyntheticSpec):
    """Generate a scene with ground truth.

    Returns (PointSet, labels, instances): labels are 1-based per
    instance with 0 for outliers; noise is calibrated so that the
    generating instance's residual RMS over its inliers equals sigma.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.model_type in (ModelType.LINE2D, ModelType.SEGMENT2D):
        return _synthesize_lines(spec, rng)
    if spec.model_type is ModelType.PLANE3D:
        return _synthesize_planes(spec, rng)
    if spec.model_type is ModelType.HOMOGRAPHY:
        scene = synthesize_two_view(spec.instance_count, spec.points_per_instance,
                                    spec.outlier_count, spec.sigma, spec.extent,
                                    spec.seed)
        return scene.points, scene.labels, scene.instances
    return _synthesize_fundamental(spec, rng)


def _scene(blocks, outlier_count: int, extent: float, dim: int, rng):
    """The PointSet and labels of a synthetic scene: the instances' point
    blocks labelled 1..k in order, then outlier_count points uniform in
    [0, extent)^dim labelled 0. The outliers are the scene's last draw."""
    outliers = rng.uniform(0, extent, size=(outlier_count, dim))
    coords = np.vstack([np.zeros((0, dim)), *blocks, outliers])
    labels = np.repeat(np.r_[1:len(blocks) + 1, 0], [*map(len, blocks), outlier_count])
    return PointSet(coords), labels


def _chord(lo, hi, min_length: float, rng):
    """Endpoints uniform in the box [lo, hi), p1 redrawn until the chord
    is at least min_length long."""
    p0, p1 = rng.uniform(lo, hi), rng.uniform(lo, hi)
    while np.linalg.norm(p1 - p0) < min_length:
        p1 = rng.uniform(lo, hi)
    return p0, p1


def _segment_cells(count: int, extent: float, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Disjoint axis-aligned cells, one random segment per cell, inset so
    that distinct segments stay at least ~30 units apart."""
    grid = max(1, int(np.ceil(np.sqrt(count))))
    cell = extent / grid
    inset = min(0.15 * cell, cell / 2 - 1)
    picks = rng.choice(grid * grid, size=count, replace=False)
    cells = [np.array([c % grid, c // grid]) for c in picks]
    return [_chord(g * cell + inset, (g + 1) * cell - inset, 0.3 * cell, rng)
            for g in cells]


def _synthesize_lines(spec: SyntheticSpec, rng):
    if spec.clustered:
        chords = _segment_cells(spec.instance_count, spec.extent, rng)
    else:
        chords = [_chord(np.zeros(2), np.full(2, spec.extent), 0.2 * spec.extent, rng)
                  for _ in range(spec.instance_count)]
    blocks, instances = [], []
    for p0, p1 in chords:
        ts = rng.uniform(0, 1, size=spec.points_per_instance)
        pts = p0 + ts[:, None] * (p1 - p0)
        pts = pts + rng.normal(0, spec.sigma, size=pts.shape) if spec.sigma > 0 else pts
        blocks.append(pts)
        instances.extend(fit_minimal(spec.model_type, np.array([p0, p1])))
    return *_scene(blocks, spec.outlier_count, spec.extent, 2, rng), instances


def _synthesize_planes(spec: SyntheticSpec, rng):
    blocks, instances = [], []
    for _ in range(spec.instance_count):
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        anchor = rng.uniform(0.25 * spec.extent, 0.75 * spec.extent, size=3)
        basis = _orthobasis(normal)
        uv = rng.uniform(-0.25 * spec.extent, 0.25 * spec.extent,
                         size=(spec.points_per_instance, 2))
        pts = anchor + uv @ basis
        if spec.sigma > 0:
            pts = pts + rng.normal(0, spec.sigma, size=spec.points_per_instance)[:, None] * normal
        blocks.append(pts)
        instances.append(make_instance(ModelType.PLANE3D,
                                       [*normal, -normal @ anchor]))
    return *_scene(blocks, spec.outlier_count, spec.extent, 3, rng), instances


def _orthobasis(normal: np.ndarray) -> np.ndarray:
    pick = np.array([1.0, 0.0, 0.0]) if abs(normal[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(normal, pick)
    u /= np.linalg.norm(u)
    return np.vstack([u, np.cross(normal, u)])


@dataclass(frozen=True)
class TwoViewScene:
    """Calibrated correspondence scene with ground-truth pose and planes."""

    points: PointSet            # (n, 4) pixel correspondences
    labels: np.ndarray          # 0 outliers, 1..k per plane
    instances: list[ModelInstance]
    K1: np.ndarray
    K2: np.ndarray
    rotation: np.ndarray        # x2 = R x1 + t
    translation: np.ndarray


def _rotation(rotvec: np.ndarray) -> np.ndarray:
    """The rotation matrix of a rotation vector through its unit quaternion
    (x, y, z, w), bit for bit as scipy's Rotation.from_rotvec(v).as_matrix()."""
    v0, v1, v2 = rotvec.tolist()
    angle = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    if angle <= 1e-3:   # sin(angle / 2) / angle by its Taylor series
        a2 = angle * angle
        scale = 0.5 - a2 / 48 + a2 * a2 / 3840
    else:
        scale = math.sin(angle / 2) / angle
    x, y, z, w = v0 * scale, v1 * scale, v2 * scale, math.cos(angle / 2)
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([[x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
                     [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
                     [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]])


def synthesize_two_view(n_planes: int, points_per_plane: int,
                        outlier_count: int = 0, sigma: float = 0.0,
                        extent: float = 1000.0, seed: int = 0) -> TwoViewScene:
    """Two cameras, the second rotated by up to 10 degrees, observing
    n_planes fronto-ish planes.

    Each plane's correspondences come from _sample_correspondences with
    the image-1 rays cut by the plane. Noise sigma/sqrt(2) per axis goes on
    the image-2 pixels so the symmetric transfer residual has RMS sigma.
    The arguments are checked as SyntheticSpec checks them.
    """
    spec = SyntheticSpec(ModelType.HOMOGRAPHY, n_planes, points_per_plane,
                         outlier_count, sigma, extent, seed)
    rng = np.random.default_rng(seed)
    rotvec = rng.normal(size=3)
    rotvec *= rng.uniform(0.3, 1.0) * np.radians(10.0) / np.linalg.norm(rotvec)
    R = _rotation(rotvec)
    t = rng.normal(size=3)
    t *= 0.5 / np.linalg.norm(t)

    def propose(K):
        normal = rng.normal(size=3) + np.array([0.0, 0.0, 3.0])
        normal /= np.linalg.norm(normal)
        depth = rng.uniform(2.0, 5.0)

        def on_plane(ray):
            # plane: normal . X = depth, in front of camera 1
            denom = normal @ ray
            if abs(denom) < 1e-9 or depth / denom <= 0.1:
                return None
            return depth / denom * ray

        return on_plane, R, t, K @ (R + np.outer(t, normal) / depth) @ np.linalg.inv(K)

    points, labels, instances, K = _two_view(spec, rng, propose, sigma / np.sqrt(2.0))
    return TwoViewScene(points, labels, instances, K, K.copy(), R, t)


def _synthesize_fundamental(spec: SyntheticSpec, rng):
    """One rigid motion per instance; Sampson residual RMS matches sigma."""
    def propose(K):
        rotvec = rng.normal(size=3)
        rotvec *= np.radians(rng.uniform(3.0, 12.0)) / np.linalg.norm(rotvec)
        R = _rotation(rotvec)
        t = rng.normal(size=3)
        t *= rng.uniform(0.3, 0.8) / np.linalg.norm(t)
        tx = np.array([[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0.0]])
        Kinv = np.linalg.inv(K)
        return (lambda ray: ray * rng.uniform(2.0, 6.0) / ray[2], R, t,
                Kinv.T @ tx @ R @ Kinv)

    # the Sampson denominator carries both images' gradients, so per-axis
    # noise of sigma*sqrt(2) lands the residual RMS at sigma
    return _two_view(spec, rng, propose, spec.sigma * np.sqrt(2.0))[:3]


def _two_view(spec: SyntheticSpec, rng, propose, noise: float):
    """(PointSet, labels, instances, K) of a scene seen by two cameras with
    intrinsics K. propose(K) -> (point_on_ray, R, t, matrix) draws one
    instance, retried up to 200 times until _sample_correspondences places
    all its points; per-axis normal noise goes on the image-2 pixels."""
    extent = spec.extent
    K = np.array([[extent, 0.0, extent / 2], [0.0, extent, extent / 2], [0.0, 0.0, 1.0]])
    blocks, instances = [], []
    for _ in range(spec.instance_count):
        for _ in range(200):
            point_on_ray, R, t, matrix = propose(K)
            pts = _sample_correspondences(point_on_ray, K, R, t,
                                          spec.points_per_instance, extent, rng)
            if pts is not None:
                break
        else:
            raise InvalidConfig(f"could not place a visible {spec.model_type.value}")
        if spec.sigma > 0:
            pts[:, 2:] += rng.normal(0, noise, size=(len(pts), 2))
        blocks.append(pts)
        instances.append(make_instance(spec.model_type, matrix.ravel()))
    return *_scene(blocks, spec.outlier_count, extent, 4, rng), instances, K


def _sample_correspondences(point_on_ray, K, R, t, count, extent, rng):
    """Rejection sampler of count correspondences: uniform image-1 pixels
    whose scene point, point_on_ray(ray) for the pixel's ray (None to
    reject), lies in front of camera 2 and projects inside image 2. None
    when fewer than count of 50 * count draws pass."""
    Kinv = np.linalg.inv(K)
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * max(count, 1):
        attempts += 1
        p1 = rng.uniform(0.05 * extent, 0.95 * extent, size=2)
        X = point_on_ray(Kinv @ np.array([p1[0], p1[1], 1.0]))
        if X is None:
            continue
        X2 = R @ X + t
        if X2[2] <= 0.1:
            continue
        proj = K @ X2
        p2 = proj[:2] / proj[2]
        if not (0 <= p2[0] <= extent and 0 <= p2[1] <= extent):
            continue
        out.append([p1[0], p1[1], p2[0], p2[1]])
    if len(out) < count:
        return None
    return np.array(out).reshape(-1, 4)
