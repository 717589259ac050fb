"""Data ingestion and synthesis.

Scene files come as CSV (header `model_type,dim[,labeled][,scored]
[,intrinsics=PATH]`, one point per row) or JSON (mirror schema with
optional inline intrinsics). Blur kernels arrive as PGM images (binary P5
or ASCII P2, 8 or 16 bit) and are thresholded into weighted 2D points.
Synthetic scenes carry exact ground truth; noise is injected so that the
generating instance's residuals have RMS equal to the requested sigma.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import DimensionMismatch, InvalidConfig, ParseError
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
        K1 = np.asarray(payload["K1"], dtype=float)
        K2 = np.asarray(payload.get("K2", payload["K1"]), dtype=float)
        if K1.shape != (3, 3) or K2.shape != (3, 3):
            raise ParseError("intrinsics must be 3x3 matrices")
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
    labeled = "labeled" in tokens[2:]
    scored = "scored" in tokens[2:]
    intrinsics = None
    for tok in tokens[2:]:
        if tok.startswith("intrinsics="):
            intrinsics = load_intrinsics(base_dir / tok.split("=", 1)[1])
    if dim != model_type.dim:
        raise ParseError(
            f"{model_type.value} uses dimension {model_type.dim}, "
            f"header says {dim}", line=1)
    return model_type, dim, labeled, scored, intrinsics


def load_scene(path):
    """Load a scene file (CSV or JSON by extension).

    Returns (model_type, PointSet, labels-or-None, Intrinsics-or-None).
    Values are preserved exactly as stored; an optional score column
    becomes the quality ranking (best score first).
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
    rows, labels, scores = [], [], []
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
        rows.append(values[:dim])
        cursor = dim
        if labeled:
            labels.append(int(values[cursor]))
            cursor += 1
        if scored:
            scores.append(values[cursor])
    coords = np.array(rows, dtype=float) if rows else np.zeros((0, dim))
    points = PointSet(coords, quality_rank=_ranks(scores) if scored and rows else None)
    label_arr = np.array(labels, dtype=int) if labeled else None
    return model_type, points, label_arr, intrinsics


def _ranks(scores) -> np.ndarray:
    """Quality ranks of scored points: 0 for the highest score, ties in
    point order (the inverse of the stable best-first permutation)."""
    return np.argsort(np.argsort(-np.asarray(scores, dtype=float), kind="stable"))


def _load_scene_json(path: Path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno)
    try:
        model_type = ModelType.from_string(payload["model_type"])
        coords = np.asarray(payload["points"], dtype=float)
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad scene json: {exc}")
    if coords.size == 0:
        coords = coords.reshape(0, model_type.dim)
    if coords.ndim != 2 or coords.shape[1] != model_type.dim:
        raise DimensionMismatch(
            f"{model_type.value} uses dimension {model_type.dim}")
    labels = payload.get("labels")
    labels = None if labels is None else np.asarray(labels, dtype=int)
    scores = payload.get("scores")
    ranks = _ranks(scores) if scores is not None and len(scores) else None
    intrinsics = payload.get("intrinsics")
    if intrinsics is not None:
        intrinsics = Intrinsics.from_json_dict(intrinsics)
    return model_type, PointSet(coords, quality_rank=ranks), labels, intrinsics


def save_scene(path, model_type: ModelType, points: PointSet,
               labels=None, scores=None) -> None:
    """Write a scene CSV in canonical formatting: shortest round-trip float
    representation, one point per row."""
    path = Path(path)
    header = [model_type.value, str(model_type.dim)]
    if labels is not None:
        header.append("labeled")
    if scores is not None:
        header.append("scored")
    lines = [",".join(header)]
    for i in range(len(points)):
        fields = [repr(float(v)) for v in points.coords[i]]
        if labels is not None:
            fields.append(str(int(labels[i])))
        if scores is not None:
            fields.append(repr(float(scores[i])))
        lines.append(",".join(fields))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# PGM blur kernels

def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) or ASCII (P2) PGM into a float array normalized
    to [0, 1] by the declared maximum value."""
    data = Path(path).read_bytes()
    magic, width, height, maxval, offset = _parse_pgm_header(data)
    if magic == b"P2":
        try:
            values = np.array(data[offset:].split(), dtype=float)
        except ValueError:
            raise ParseError("non-numeric pixel data")
        if values.size != width * height:
            raise ParseError("pixel count does not match header")
        img = values.reshape(height, width)
    else:
        dtype = np.dtype(">u2") if maxval > 255 else np.uint8
        count = width * height
        try:
            raw = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
        except ValueError:
            raise ParseError("truncated pixel data")
        img = raw.reshape(height, width).astype(float)
    return img / float(maxval)


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

    `image` is a PGM path or a [0, 1] float array. Pixels with normalized
    intensity >= threshold become points at their pixel centers
    (x + 0.5, y + 0.5) with weight equal to the intensity; the quality
    ranking orders by descending intensity.
    """
    if not 0.0 < threshold < 1.0:
        raise InvalidConfig("threshold must lie in (0, 1)")
    img = read_pgm(image) if isinstance(image, (str, Path)) else np.asarray(image, dtype=float)
    peak = img.max() if img.size else 0.0
    if peak <= 0.0:
        return PointSet(np.zeros((0, 2)))
    norm = img / peak
    ys, xs = np.nonzero(norm >= threshold)
    weights = norm[ys, xs]
    coords = np.column_stack([xs + 0.5, ys + 0.5]).astype(float)
    return PointSet(coords, weights=weights, quality_rank=_ranks(weights))


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
        if self.instance_count < 0 or self.points_per_instance < 0 \
                or self.outlier_count < 0:
            raise InvalidConfig("counts must be nonnegative")
        if self.sigma < 0 or self.extent <= 0:
            raise InvalidConfig("sigma must be >= 0 and extent > 0")


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


def _segment_cells(count: int, extent: float, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Disjoint axis-aligned cells, one random segment per cell, inset so
    that distinct segments stay at least ~30 units apart."""
    grid = int(np.ceil(np.sqrt(count)))
    cell = extent / grid
    inset = min(0.15 * cell, cell / 2 - 1)
    picks = rng.choice(grid * grid, size=count, replace=False)
    out = []
    for c in picks:
        gx, gy = c % grid, c // grid
        lo = np.array([gx * cell + inset, gy * cell + inset])
        hi = np.array([(gx + 1) * cell - inset, (gy + 1) * cell - inset])
        p0 = rng.uniform(lo, hi)
        p1 = rng.uniform(lo, hi)
        while np.linalg.norm(p1 - p0) < 0.3 * cell:
            p1 = rng.uniform(lo, hi)
        out.append((p0, p1))
    return out


def _synthesize_lines(spec: SyntheticSpec, rng):
    if spec.clustered:
        chords = _segment_cells(spec.instance_count, spec.extent, rng)
    else:
        chords = []
        for _ in range(spec.instance_count):
            p0 = rng.uniform(0, spec.extent, size=2)
            p1 = rng.uniform(0, spec.extent, size=2)
            while np.linalg.norm(p1 - p0) < 0.2 * spec.extent:
                p1 = rng.uniform(0, spec.extent, size=2)
            chords.append((p0, p1))
    coords, labels, instances = [], [], []
    for idx, (p0, p1) in enumerate(chords, start=1):
        ts = rng.uniform(0, 1, size=spec.points_per_instance)
        pts = p0 + ts[:, None] * (p1 - p0)
        pts = pts + rng.normal(0, spec.sigma, size=pts.shape) if spec.sigma > 0 else pts
        coords.append(pts)
        labels.extend([idx] * len(pts))
        instances.extend(fit_minimal(spec.model_type, np.array([p0, p1])))
    if spec.outlier_count:
        coords.append(rng.uniform(0, spec.extent, size=(spec.outlier_count, 2)))
        labels.extend([0] * spec.outlier_count)
    coords = np.vstack(coords) if coords else np.zeros((0, 2))
    return PointSet(coords), np.array(labels, dtype=int), instances


def _synthesize_planes(spec: SyntheticSpec, rng):
    coords, labels, instances = [], [], []
    for idx in range(1, spec.instance_count + 1):
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        anchor = rng.uniform(0.25 * spec.extent, 0.75 * spec.extent, size=3)
        basis = _orthobasis(normal)
        uv = rng.uniform(-0.25 * spec.extent, 0.25 * spec.extent,
                         size=(spec.points_per_instance, 2))
        pts = anchor + uv @ basis
        if spec.sigma > 0:
            pts = pts + rng.normal(0, spec.sigma, size=spec.points_per_instance)[:, None] * normal
        coords.append(pts)
        labels.extend([idx] * len(pts))
        instances.append(make_instance(ModelType.PLANE3D,
                                       [*normal, -normal @ anchor]))
    if spec.outlier_count:
        coords.append(rng.uniform(0, spec.extent, size=(spec.outlier_count, 3)))
        labels.extend([0] * spec.outlier_count)
    coords = np.vstack(coords) if coords else np.zeros((0, 3))
    return PointSet(coords), np.array(labels, dtype=int), instances


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


def synthesize_two_view(n_planes: int, points_per_plane: int,
                        outlier_count: int = 0, sigma: float = 0.0,
                        extent: float = 1000.0, seed: int = 0) -> TwoViewScene:
    """Two cameras, the second rotated by up to 10 degrees, observing
    n_planes fronto-ish planes.

    Each plane's correspondences come from _sample_correspondences with
    the image-1 rays cut by the plane. Noise sigma/sqrt(2) per axis goes on
    the image-2 pixels so the symmetric transfer residual has RMS sigma.
    """
    rng = np.random.default_rng(seed)
    f = extent
    K = np.array([[f, 0.0, extent / 2], [0.0, f, extent / 2], [0.0, 0.0, 1.0]])
    rotvec = rng.normal(size=3)
    rotvec *= rng.uniform(0.3, 1.0) * np.radians(10.0) / np.linalg.norm(rotvec)
    R = Rotation.from_rotvec(rotvec).as_matrix()
    t = rng.normal(size=3)
    t *= 0.5 / np.linalg.norm(t)

    coords, labels, instances = [], [], []
    Kinv = np.linalg.inv(K)
    for idx in range(1, n_planes + 1):
        for _ in range(200):  # plane retry
            normal = rng.normal(size=3) + np.array([0.0, 0.0, 3.0])
            normal /= np.linalg.norm(normal)
            depth = rng.uniform(2.0, 5.0)

            def on_plane(ray):
                # plane: normal . X = depth, in front of camera 1
                denom = normal @ ray
                if abs(denom) < 1e-9 or depth / denom <= 0.1:
                    return None
                return depth / denom * ray

            pts = _sample_correspondences(on_plane, K, R, t, points_per_plane,
                                          extent, rng)
            if pts is not None:
                break
        else:
            raise InvalidConfig("could not place a visible plane")
        if sigma > 0:
            pts[:, 2:] += rng.normal(0, sigma / np.sqrt(2.0), size=(len(pts), 2))
        coords.append(pts)
        labels.extend([idx] * len(pts))
        H = K @ (R + np.outer(t, normal) / depth) @ Kinv
        instances.append(make_instance(ModelType.HOMOGRAPHY, H.ravel()))
    if outlier_count:
        coords.append(rng.uniform(0, extent, size=(outlier_count, 4)))
        labels.extend([0] * outlier_count)
    coords = np.vstack(coords) if coords else np.zeros((0, 4))
    return TwoViewScene(PointSet(coords), np.array(labels, dtype=int),
                        instances, K.copy(), K.copy(), R, t)


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
    return np.array(out)


def _synthesize_fundamental(spec: SyntheticSpec, rng):
    """One rigid motion per instance; Sampson residual RMS matches sigma."""
    extent = spec.extent
    f = extent
    K = np.array([[f, 0.0, extent / 2], [0.0, f, extent / 2], [0.0, 0.0, 1.0]])
    Kinv = np.linalg.inv(K)
    coords, labels, instances = [], [], []
    for idx in range(1, spec.instance_count + 1):
        for _ in range(200):
            rotvec = rng.normal(size=3)
            rotvec *= np.radians(rng.uniform(3.0, 12.0)) / np.linalg.norm(rotvec)
            R = Rotation.from_rotvec(rotvec).as_matrix()
            t = rng.normal(size=3)
            t *= rng.uniform(0.3, 0.8) / np.linalg.norm(t)
            pts = _sample_correspondences(
                lambda ray: ray * rng.uniform(2.0, 6.0) / ray[2], K, R, t,
                spec.points_per_instance, extent, rng)
            if pts is not None:
                break
        else:
            raise InvalidConfig("could not place a visible motion")
        if spec.sigma > 0:
            # the Sampson denominator carries both images' gradients, so
            # per-axis noise of sigma*sqrt(2) lands the residual RMS at sigma
            pts[:, 2:] += rng.normal(0, spec.sigma * np.sqrt(2.0),
                                     size=(len(pts), 2))
        tx = np.array([[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0.0]])
        F = Kinv.T @ tx @ R @ Kinv
        coords.append(pts)
        labels.extend([idx] * len(pts))
        instances.append(make_instance(ModelType.FUNDAMENTAL, F.ravel()))
    if spec.outlier_count:
        coords.append(rng.uniform(0, extent, size=(spec.outlier_count, 4)))
        labels.extend([0] * spec.outlier_count)
    coords = np.vstack(coords) if coords else np.zeros((0, 4))
    return PointSet(coords), np.array(labels, dtype=int), instances
