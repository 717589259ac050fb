"""Batch command-line interface.

Subcommands: fit, eval, synth, pose. Exit codes: 0 success, 1 error,
2 no result (no instances found / no valid pose). Every file-writing
command emits a manifest with the resolved configuration, input hashes,
and timing; the primary outputs themselves contain no volatile fields, so
re-running a manifest reproduces them byte for byte.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (
    OUTLIER,
    SAMPLERS,
    EngineConfig,
    FitReport,
    default_config,
    fit,
    label_matching,
    min_residual_assignment,
    misclassification_error,
)
from .errors import MmfitError, NoValidPose, ParseError
from .ingest import (
    DEFAULT_KERNEL_THRESHOLD,
    SyntheticSpec,
    blur_kernel_to_points,
    load_intrinsics,
    load_scene,
    save_scene,
    synthesize,
)
from .losses import LossKind
from .models import (
    ModelType,
    PointSet,
    make_instance,
    residuals,
    segment_endpoints,
)
from .pose import (
    pose_from_multi_h,
    rotation_error_deg,
    translation_error_deg,
)

INSTANCES_SCHEMA = "mmfit-instances-1"
EVAL_SCHEMA = "mmfit-eval-1"
POSE_SCHEMA = "mmfit-pose-1"

_PALETTE = ["#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4",
            "#46f0f0", "#f032e6", "#bcf60c", "#008080", "#9a6324"]


def _common_flags(p: argparse.ArgumentParser):
    default = {f.name: f.default for f in fields(EngineConfig)}
    p.add_argument("--epsilon", type=float, default=3.0,
                   help="inlier threshold in the coordinates' unit; it also "
                   "sets the sample-screen tolerance, the CC radii and the "
                   "pose's reprojection tolerance")
    p.add_argument("--loss", default="magsacpp",
                   choices=[k.value for k in LossKind])
    p.add_argument("--q-min", type=float, default=default["q_min"])
    p.add_argument("--epsilon-t", type=float, default=default["tau"],
                   help="model-to-model threshold for consensus clustering")
    p.add_argument("--confidence", type=float, default=default["confidence"])
    p.add_argument("--sampler", default=default["sampler"], choices=SAMPLERS)
    p.add_argument("--seed", type=int, default=default["seed"])
    p.add_argument("--max-proposals", type=int,
                   default=default["max_proposals"])


def _config_from_args(args, model_type: ModelType) -> EngineConfig:
    """EngineConfig from the flags of _common_flags; each field's flag is
    its name, except that --epsilon-t sets tau."""
    flag = {"tau": "epsilon_t"}
    return default_config(
        model_type, args.epsilon, LossKind.from_string(args.loss), **{
            f.name: getattr(args, flag.get(f.name, f.name))
            for f in fields(EngineConfig) if f.name != "loss"})


def _config_dict(cfg: EngineConfig) -> dict:
    """Every EngineConfig field, with the loss spelled out as its kind,
    epsilon and dof."""
    out = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "loss"}
    out.update(loss=cfg.loss.kind.value, epsilon=cfg.loss.epsilon,
               dof=cfg.loss.dof)
    return out


def _sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _dump_json(path, payload: dict):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir: Path, command: str, inputs: dict, config: dict,
                    seed: int, wall_time: float, outputs: list[str]):
    _dump_json(out_dir / "manifest.json", {
        "tool": "mmfit", "version": __version__, "command": command,
        "config": config, "seed": seed,
        "inputs": {str(k): _sha256(v) for k, v in inputs.items()},
        "outputs": outputs,
        "timing": {"wall_time": wall_time},
    })


# ---------------------------------------------------------------------------
# fit

def cmd_fit(args) -> int:
    scene_path = Path(args.scene)
    if args.kernel:
        points = blur_kernel_to_points(scene_path, args.kernel_threshold)
        model_type = ModelType.SEGMENT2D if args.model is None \
            else ModelType.from_string(args.model)
        labels = None
    else:
        model_type, points, labels, _ = load_scene(scene_path)
        if args.model is not None:
            model_type = ModelType.from_string(args.model)
    cfg = _config_from_args(args, model_type)
    report = fit(points, model_type, cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    instances_payload = {
        "schema": INSTANCES_SCHEMA,
        "model_type": model_type.value,
        "epsilon": cfg.loss.epsilon,
        "instances": _instance_entries(report, points, cfg),
        "n_points": len(points),
        "iterations": report.iterations,
        "proposals_tried": report.proposals_tried,
        "fallback_samples": report.fallback_samples,
        "stop_reason": report.stop_reason,
    }
    _dump_json(out_dir / "instances.json", instances_payload)
    _write_assignment_csv(out_dir / "assignment.csv", report)
    outputs = ["instances.json", "assignment.csv"]
    if args.svg:
        svg_path = Path(args.svg)
        svg_path.parent.mkdir(parents=True, exist_ok=True)
        svg_path.write_text(render_svg(points, model_type, report))
        outputs.append(str(svg_path))
    _write_manifest(out_dir, "fit", {str(scene_path): scene_path},
                    _config_dict(cfg), cfg.seed, report.wall_time, outputs)

    me_text = ""
    if labels is not None:
        me_text = f"  ME {misclassification_error(report, labels) * 100:.2f}%"
    print(f"{len(report.instances)} instance(s){me_text}  "
          f"wall {report.wall_time:.3f}s  proposals {report.proposals_tried}")
    if args.json:
        print(json.dumps(instances_payload, sort_keys=True))
    return 0 if report.instances else 2


def _instance_entries(report: FitReport, points: PointSet, cfg: EngineConfig):
    entries = []
    for idx, inst in enumerate(report.instances):
        r = residuals(inst, points.coords)
        inliers = np.nonzero(r < cfg.loss.epsilon)[0]
        entries.append({
            "params": inst.params.tolist(),
            "quality": float(len(points) - report.loss_matrix[idx].sum()),
            "inliers": inliers.tolist(),
        })
    return entries


def _write_assignment_csv(path, report: FitReport):
    lines = ["point_index,instance,outlier"]
    for i, a in enumerate(report.min_residual_assignment):
        lines.append(f"{i},{int(a)},{int(a == OUTLIER)}")
    Path(path).write_text("\n".join(lines) + "\n")


def render_svg(points: PointSet, model_type: ModelType,
               report: FitReport, size: float = 640.0) -> str:
    """Deterministic scatter figure: points colored by minimum-residual
    assignment (black for outliers), line/segment instances drawn. For
    correspondence scenes, image-1 coordinates are shown."""
    coords = points.coords[:, :2]
    lo = coords.min(axis=0) if len(coords) else np.zeros(2)
    hi = coords.max(axis=0) if len(coords) else np.ones(2)
    span = np.maximum(hi - lo, 1e-9)
    scale = (size - 20.0) / span.max()

    def sxy(p):
        q = (p - lo) * scale + 10.0
        return f"{q[0]:.2f}", f"{q[1]:.2f}"

    rows = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
            f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
            f'<rect width="100%" height="100%" fill="white"/>']
    for idx, inst in enumerate(report.instances):
        color = _PALETTE[idx % len(_PALETTE)]
        if model_type is ModelType.SEGMENT2D:
            (x0, y0), (x1, y1) = segment_endpoints(inst)
            a, b = sxy(np.array([x0, y0])), sxy(np.array([x1, y1]))
            rows.append(f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" '
                        f'stroke="{color}" stroke-width="1.5"/>')
        elif model_type is ModelType.LINE2D:
            a_, b_, c_ = inst.params
            pts = _line_box_clip(a_, b_, c_, lo, hi)
            if pts is not None:
                a, b = sxy(pts[0]), sxy(pts[1])
                rows.append(f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" '
                            f'stroke="{color}" stroke-width="1.5"/>')
    for i in range(len(points)):
        a = report.min_residual_assignment[i]
        color = "black" if a == OUTLIER else _PALETTE[int(a) % len(_PALETTE)]
        x, y = sxy(coords[i])
        rows.append(f'<circle cx="{x}" cy="{y}" r="2.5" fill="{color}"/>')
    rows.append("</svg>")
    return "\n".join(rows) + "\n"


def _line_box_clip(a, b, c, lo, hi):
    pts = []
    for x in (lo[0], hi[0]):
        if abs(b) > 1e-12:
            y = -(a * x + c) / b
            if lo[1] - 1e-9 <= y <= hi[1] + 1e-9:
                pts.append(np.array([x, y]))
    for y in (lo[1], hi[1]):
        if abs(a) > 1e-12:
            x = -(b * y + c) / a
            if lo[0] - 1e-9 <= x <= hi[0] + 1e-9:
                pts.append(np.array([x, y]))
    if len(pts) < 2:
        return None
    best = max(((p, q) for p in pts for q in pts),
               key=lambda pq: np.linalg.norm(pq[0] - pq[1]))
    return best


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    model_type, points, labels, _ = load_scene(args.scene)
    if labels is None:
        print("error: scene has no ground-truth labels", file=sys.stderr)
        return 1
    with open(args.instances) as fh:
        payload = json.load(fh)
    instances = _read_instances(payload, args.instances)
    eps = _eval_epsilon(payload, args.epsilon)
    rows = np.array([residuals(h, points.coords) for h in instances]
                    ).reshape(len(instances), len(points))
    assignment = min_residual_assignment(rows, eps)
    me, matched = label_matching(assignment, labels)

    wall = _fit_wall_time(Path(args.instances))

    per_instance = [
        {"instance": inst, "matched_label": gt,
         "precision": hit / np.sum(assignment == inst),
         "recall": 0.0 if gt is None else hit / np.sum(labels == gt)}
        for inst, (gt, hit) in matched.items()]
    result = {
        "schema": EVAL_SCHEMA,
        "me_percent": round(me * 100.0, 10),
        "n_points": len(points),
        "per_instance": per_instance,
        "wall_time": wall,
    }
    print(f"ME {me * 100:.2f}%")
    for row in per_instance:
        print(f"  instance {row['instance']} -> label {row['matched_label']}: "
              f"precision {row['precision']:.3f} recall {row['recall']:.3f}")
    if wall is not None:
        print(f"fit wall time {wall:.3f}s")
    if args.json:
        print(json.dumps(result, sort_keys=True))
    return 0


def _read_instances(payload: dict, path) -> list:
    """The model instances of an instances file; ParseError when its model
    type is unknown or a key is missing, or when an entry's params are not
    a vector of the family's length."""
    try:
        model_type = ModelType.from_string(payload["model_type"])
        rows = [np.asarray(e["params"], dtype=float) for e in payload["instances"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {type(exc).__name__}: {exc}") from exc
    for i, params in enumerate(rows):
        if params.shape != (model_type.n_params,):
            raise ParseError(f"{path}: instance {i} has {params.size} params, "
                             f"{model_type.value} needs {model_type.n_params}")
    return [make_instance(model_type, params) for params in rows]


def _eval_epsilon(payload: dict, flag: float) -> float:
    """The epsilon an instances file was fitted at or, for a ground-truth
    file, which stores none, the --epsilon flag; ParseError unless it is a
    positive finite number."""
    value = payload.get("epsilon")
    value = flag if value is None else value
    try:
        eps = float(value)
    except (TypeError, ValueError):
        eps = np.nan
    if not 0 < eps < np.inf:
        raise ParseError(
            f"epsilon must be a positive finite number, got {value!r}")
    return eps


def _fit_wall_time(instances_path: Path):
    """The fit time that the manifest next to an instances file records,
    or None unless that manifest is an object from the `fit` run that
    wrote it, with a finite number as timing.wall_time."""
    manifest_path = instances_path.parent / "manifest.json"
    if not manifest_path.exists():
        return None
    try:
        manifest = json.loads(manifest_path.read_text())
        wall = manifest["timing"]["wall_time"]
        written = (manifest["command"] == "fit"
                   and instances_path.name in manifest["outputs"])
    except (ValueError, KeyError, TypeError):   # not a manifest fit wrote
        return None
    if not written or type(wall) not in (int, float) or not np.isfinite(wall):
        return None
    return wall


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    model_type = ModelType.from_string(args.model)
    spec = SyntheticSpec(
        model_type=model_type, instance_count=args.instances,
        points_per_instance=args.points, outlier_count=args.outliers,
        sigma=args.sigma, extent=args.extent, seed=args.seed,
        clustered=args.clustered,
    )
    t0 = time.perf_counter()
    points, labels, instances = synthesize(spec)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_scene(out_path, model_type, points, labels=labels)
    gt_path = out_path.with_suffix(".truth.json")
    _dump_json(gt_path, {
        "schema": INSTANCES_SCHEMA,
        "model_type": model_type.value,
        "epsilon": None,
        "instances": [{"params": h.params.tolist(), "quality": None,
                       "inliers": np.nonzero(labels == i + 1)[0].tolist()}
                      for i, h in enumerate(instances)],
        "n_points": len(points),
    })
    _write_manifest(out_path.parent, "synth", {str(out_path): out_path},
                    {"model": model_type.value, "instances": args.instances,
                     "points": args.points, "outliers": args.outliers,
                     "sigma": args.sigma, "extent": args.extent,
                     "clustered": args.clustered},
                    args.seed, time.perf_counter() - t0,
                    [out_path.name, gt_path.name])
    print(f"wrote {out_path} ({len(points)} points, "
          f"{len(instances)} instances) and {gt_path.name}")
    return 0


# ---------------------------------------------------------------------------
# pose

def cmd_pose(args) -> int:
    model_type, points, _, intr = load_scene(args.scene)
    if args.intrinsics:
        intr = load_intrinsics(args.intrinsics)
    if intr is None:
        print("error: no intrinsics given", file=sys.stderr)
        return 1
    gt = _read_gt_pose(args.gt) if args.gt else None
    cfg = _config_from_args(args, ModelType.HOMOGRAPHY)
    pose = pose_from_multi_h(points.coords, intr.K1, intr.K2, cfg)
    result = {
        "schema": POSE_SCHEMA,
        "rotation": pose.rotation.tolist(),
        "translation": pose.translation.tolist(),
        "source": pose.source,
        "support": pose.support,
    }
    print(f"pose from {pose.source} candidates, support {pose.support}")
    print("R =", np.array_str(pose.rotation, precision=6))
    print("t =", np.array_str(pose.translation, precision=6))
    if gt is not None:
        err_r = rotation_error_deg(pose.rotation, gt[0])
        err_t = translation_error_deg(pose.translation, gt[1])
        result["rotation_error_deg"] = err_r
        result["translation_error_deg"] = err_t
        print(f"rotation error {err_r:.6f} deg, translation error {err_t:.6f} deg")
    if args.json:
        print(json.dumps(result, sort_keys=True))
    return 0


def _read_gt_pose(path):
    """(R, t) of a ground-truth pose file; ParseError unless it is an
    object with a finite 3x3 R and a finite 3-vector t."""
    payload = json.loads(Path(path).read_text())
    try:
        R = np.asarray(payload["R"], dtype=float)
        t = np.asarray(payload["t"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {type(exc).__name__}: {exc}") from None
    if (R.shape != (3, 3) or t.shape != (3,)
            or not (np.all(np.isfinite(R)) and np.all(np.isfinite(t)))):
        raise ParseError(
            f"{path}: ground truth needs a finite 3x3 R and a finite 3-vector t")
    return R, t


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmfit",
        description="multi-instance robust geometric model fitting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit model instances to a scene")
    p_fit.add_argument("scene")
    p_fit.add_argument("--model", default=None,
                       choices=[m.value for m in ModelType],
                       help="override the scene header model type")
    p_fit.add_argument("--out", default="mmfit-out")
    p_fit.add_argument("--svg", default=None, metavar="PATH")
    p_fit.add_argument("--json", action="store_true")
    p_fit.add_argument("--kernel", action="store_true",
                       help="treat the input as a PGM blur kernel")
    p_fit.add_argument("--kernel-threshold", type=float,
                       default=DEFAULT_KERNEL_THRESHOLD)
    _common_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="score instances against labels")
    p_eval.add_argument("scene")
    p_eval.add_argument("instances")
    p_eval.add_argument("--epsilon", type=float, default=3.0)
    p_eval.add_argument("--json", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    p_synth.add_argument("--model", required=True,
                         choices=[m.value for m in ModelType])
    p_synth.add_argument("--instances", type=int, default=3)
    p_synth.add_argument("--points", type=int, default=100)
    p_synth.add_argument("--outliers", type=int, default=0)
    p_synth.add_argument("--sigma", type=float, default=0.0)
    p_synth.add_argument("--extent", type=float, default=1000.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--clustered", action="store_true")
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_pose = sub.add_parser("pose", help="relative pose from homographies")
    p_pose.add_argument("scene")
    p_pose.add_argument("--intrinsics", default=None,
                        help="JSON file with K1 (and optional K2)")
    p_pose.add_argument("--gt", default=None,
                        help="JSON file with ground-truth R and t")
    p_pose.add_argument("--json", action="store_true")
    _common_flags(p_pose)
    p_pose.set_defaults(func=cmd_pose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoValidPose as exc:
        print(f"no result: {exc}", file=sys.stderr)
        return 2
    except (MmfitError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
